"""Run configuration shared by the CLI and the verification suites.

Precedence: command-line flags > config file (key=value lines) > the
WEIER_TOL environment variable > built-in defaults.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, fields, replace

from .errors import DomainError
from .evaluate import _ROUTES, TOL_FLOOR

__all__ = ["RunConfig", "load_config"]

_FORMATS = ("json", "csv", "text")


@dataclass(frozen=True)
class RunConfig:
    tolerance: float = 1e-8
    output_format: str = "text"
    seed: int = 0
    route: str = "auto"

    def __post_init__(self):
        if not self.tolerance >= TOL_FLOOR:
            raise DomainError(f"tolerance must be >= {TOL_FLOOR}, got {self.tolerance}")
        if self.output_format not in _FORMATS:
            raise DomainError(f"output format must be one of {_FORMATS}")
        if self.route not in _ROUTES:
            raise DomainError(f"route must be one of {_ROUTES}")

    def as_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


_FIELD_PARSERS = {
    "tolerance": float,
    "output_format": str,
    "seed": int,
    "route": str,
}


def _parse_config_file(path: str) -> dict:
    values: dict = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise DomainError(f"{path}:{lineno}: expected key=value, got {raw.strip()!r}")
            key, _, val = line.partition("=")
            key = key.strip().replace("-", "_")
            if key not in _FIELD_PARSERS:
                raise DomainError(f"{path}:{lineno}: unknown config key {key!r}")
            try:
                values[key] = _FIELD_PARSERS[key](val.strip())
            except ValueError as exc:
                raise DomainError(f"{path}:{lineno}: bad value for {key}: {val.strip()!r}") from exc
    return values


def load_config(path: str | None = None, overrides: dict | None = None, env: dict | None = None) -> RunConfig:
    """Merge defaults, WEIER_TOL, an optional config file, and explicit overrides."""
    env = os.environ if env is None else env
    values: dict = {}
    tol_env = env.get("WEIER_TOL")
    if tol_env:
        try:
            values["tolerance"] = float(tol_env)
        except ValueError as exc:
            raise DomainError(f"WEIER_TOL is not a number: {tol_env!r}") from exc
    if path:
        values.update(_parse_config_file(path))
    for key, val in (overrides or {}).items():
        if val is not None:
            values[key] = val
    cfg = RunConfig()
    return replace(cfg, **values)
