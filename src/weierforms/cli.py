"""Command-line front end: evaluation, verification suites, cusp tables.

Output is deterministic for a fixed argv: rows keep their generation order,
floats are printed with round-trip precision, and no timestamps or
environment state enter the reports.  The parsed flags are a run's only
settings.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import re
import sys

from .arith import as_rational
from .cusp import cusp_report
from .errors import WeierError
from .evaluate import _ROUTES, DEFAULT_TOL, _check_args, _reported, wp_lattice, wzeta_lattice
from .forms import FormSpec, RationalPair
from .lattice import Lattice
from .verify import SUITES, VerifyRow, cusp_row, format_complex, run_suite

__all__ = ["main"]

# the characters of a literal such as 1e-3, -2.5i or 0.5+2i; complex() alone
# would also take underscores, parentheses, inf and nan
_LITERAL = re.compile(r"[0-9.eE+\-ij]+")


def parse_complex(text: str) -> complex:
    """Parse 'x+yi' (also bare 'x', 'yi', 'i', '-i'; j accepted for i).

    A component beyond the binary64 range, such as 1e999, is refused rather
    than read as infinity.
    """
    s = text.strip()
    try:
        if not _LITERAL.fullmatch(s):
            raise ValueError(s)
        z = complex(s.replace("i", "j"))
    except ValueError:
        raise WeierError(f"cannot parse complex number {text!r}") from None
    if math.isinf(z.real) or math.isinf(z.imag):
        raise WeierError(f"cannot parse complex number {text!r}: component overflows binary64")
    return z


def _value_payload(z: complex | None) -> dict | None:
    if z is None:
        return None
    return {"re": z.real, "im": z.imag}


def _row_payload(row: VerifyRow) -> dict:
    return {
        "id": row.id,
        "inputs": row.inputs,
        "value": _value_payload(row.value),
        "error": row.error,
        "bound": row.bound,
        "status": row.status,
    }


def _emit(command: str, args, rows: list[VerifyRow], notes: tuple[str, ...] = ()) -> None:
    out = sys.stdout
    fmt = args.output_format
    if fmt == "json":
        doc = {
            "command": command,
            "config": {
                "tolerance": args.tol,
                "output_format": fmt,
                "seed": args.seed,
                "route": args.route,
            },
            "rows": [_row_payload(r) for r in rows],
        }
        if notes:
            doc["notes"] = list(notes)
        out.write(json.dumps(doc, indent=2) + "\n")
    elif fmt == "csv":
        writer = csv.writer(out)
        writer.writerow(["id", "inputs", "value_re", "value_im", "error", "bound", "status"])
        for r in rows:
            writer.writerow(
                [
                    r.id,
                    ";".join(f"{k}={v}" for k, v in r.inputs.items()),
                    "" if r.value is None else repr(r.value.real),
                    "" if r.value is None else repr(r.value.imag),
                    "" if r.error is None else repr(r.error),
                    "" if r.bound is None else repr(r.bound),
                    r.status,
                ]
            )
    else:
        for r in rows:
            val = "-" if r.value is None else format_complex(r.value)
            err = "-" if r.error is None else f"{r.error:.3e}"
            detail = f"  {r.detail}" if r.detail else ""
            out.write(f"{r.id:<24} {r.status:<6} value={val} err={err}{detail}\n")
        for note in notes:
            out.write(f"# {note}\n")


def _error_record(command: str, text: bool, exc: Exception) -> None:
    record = {
        "command": command,
        "error": {"type": type(exc).__name__, "message": str(exc)},
    }
    if text:
        print(f"error: {record['error']['type']}: {record['error']['message']}", file=sys.stderr)
    else:
        sys.stdout.write(json.dumps(record) + "\n")


# ---------------------------------------------------------------------------
# eval command


def _form_from_args(args) -> tuple[str, FormSpec | None]:
    kind = args.what
    if kind == "f":
        return "f", FormSpec.wp_form(as_rational(args.s), as_rational(args.t))
    if kind == "g":
        return "g", FormSpec.zeta_form(as_rational(args.s), as_rational(args.t))
    if kind == "h":
        if args.r is None:
            raise WeierError("eval h requires --r")
        return "h", FormSpec.h_form(args.r, as_rational(args.s), as_rational(args.t))
    if kind == "hU":
        if not args.u:
            raise WeierError("eval hU requires at least one --u s,t")
        labels = []
        for item in args.u:
            parts = item.split(",")
            if len(parts) != 2:
                raise WeierError(f"--u expects 's,t', got {item!r}")
            labels.append(RationalPair.of(as_rational(parts[0]), as_rational(parts[1])))
        return "hU", FormSpec.hU_form(labels)
    return kind, None


def cmd_eval(args) -> int:
    kind, form = _form_from_args(args)
    if form is not None:
        if args.tau is None:
            raise WeierError(f"eval {kind} requires --tau")
        tau = parse_complex(args.tau)
        call = (form.evaluate, tau)
        inputs = {"form": form.describe(), "tau": format_complex(tau)}
    else:
        if args.z is None:
            raise WeierError(f"eval {kind} requires --z")
        z = parse_complex(args.z)
        if args.tau is not None:
            lat = Lattice(parse_complex(args.tau), 1.0)
        elif args.omega1 is not None and args.omega2 is not None:
            lat = Lattice(parse_complex(args.omega1), parse_complex(args.omega2))
        else:
            raise WeierError(f"eval {kind} requires --tau or both --omega1/--omega2")
        call = (wp_lattice if kind == "wp" else wzeta_lattice, lat, z)
        inputs = {
            "omega1": format_complex(lat.omega1),
            "omega2": format_complex(lat.omega2),
            "z": format_complex(z),
        }
    # the report of the route is that of the evaluation which ran
    cv, plan = _reported(*call, args.tol, route=args.route)
    inputs.update({f"plan_{k}": v for k, v in plan.items()})
    row = VerifyRow(
        id=f"eval-{kind}",
        inputs=inputs,
        value=cv.value,
        error=cv.error,
        bound=plan.get("tail_bound"),
        residual=None,
        status="ok",
    )
    _emit("eval", args, [row])
    return 0


# ---------------------------------------------------------------------------
# verify command


def cmd_verify(args) -> int:
    report = run_suite(args.suite, args.seed, args.tol)
    summary = f"{report.suite}: {report.passed}/{len(report.rows)} checks passed (seed {report.seed})"
    _emit(f"verify {args.suite}", args, list(report.rows), notes=report.notes + (summary,))
    return 0 if report.ok else 1


# ---------------------------------------------------------------------------
# table command


def _parse_grid_line(line: str, lineno: int) -> FormSpec:
    parts = line.split()
    if parts[0] == "f" and len(parts) == 3:
        return FormSpec.wp_form(as_rational(parts[1]), as_rational(parts[2]))
    if parts[0] == "h" and len(parts) == 4:
        return FormSpec.h_form(int(parts[3]), as_rational(parts[1]), as_rational(parts[2]))
    raise WeierError(f"grid line {lineno}: expected 'f s t' or 'h s t r', got {line!r}")


def cmd_table(args) -> int:
    try:
        with open(args.grid, "r", encoding="utf-8") as fh:
            raw_lines = fh.readlines()
    except OSError as exc:
        raise WeierError(f"cannot read grid file {args.grid}: {exc}") from exc
    try:
        heights = [float(y) for y in args.Y.split(",") if y.strip()]
    except ValueError:
        raise WeierError(f"--Y expects comma-separated numbers, got {args.Y!r}") from None
    if not heights or not all(abs(y) < float("inf") for y in heights):
        raise WeierError(f"--Y must list finite heights, got {args.Y!r}")
    heights.sort()
    rows: list[VerifyRow] = []

    def error_row(inputs: dict, exc: Exception) -> VerifyRow:
        return VerifyRow(
            id=f"row-{len(rows):03d}",
            inputs=inputs,
            value=None,
            error=None,
            bound=None,
            residual=None,
            status="error",
            detail=str(exc),
        )

    for lineno, raw in enumerate(raw_lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            form = _parse_grid_line(line, lineno)
        except (WeierError, ValueError) as exc:
            rows.append(error_row({"line": line}, exc))
            continue
        for y in heights:
            try:
                rep = cusp_report(form, y, args.tol)
            except WeierError as exc:
                rows.append(error_row({"form": form.describe(), "Y": y}, exc))
                continue
            inputs = {"form": rep.label, "Y": y, "closed": format_complex(rep.closed_form), "residual": rep.residual}
            rows.append(cusp_row(f"row-{len(rows):03d}", inputs, rep))
    _emit("table", args, rows)
    return 0 if all(r.passed for r in rows) else 1


# ---------------------------------------------------------------------------
# argument wiring


def _build_parser() -> argparse.ArgumentParser:
    # every command takes --tol and --format; eval alone --route, verify alone
    # --seed.  The JSON config block reports "auto" and 0 for the ones a
    # command does not take: the values it runs with.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--tol", type=float, default=DEFAULT_TOL, help="absolute tolerance (default %(default)s)")
    common.add_argument("--format", choices=("json", "csv", "text"), default="text", dest="output_format")

    parser = argparse.ArgumentParser(
        prog="weierforms",
        description="Certified lattice-function evaluation and modular-form verification",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", parents=[common], help="evaluate one value")
    p_eval.add_argument("what", choices=("f", "g", "h", "hU", "wp", "wzeta"))
    p_eval.add_argument("--s", default=None, help="rational label part, e.g. 1/2")
    p_eval.add_argument("--t", default=None, help="rational label part, e.g. 1/3")
    p_eval.add_argument("--r", type=int, default=None, help="integer multiplier for h")
    p_eval.add_argument("--u", action="append", default=None, help="hU label 's,t' (repeatable)")
    p_eval.add_argument("--tau", default=None, help="period ratio, e.g. 10i or 0.5+2i")
    p_eval.add_argument("--omega1", default=None)
    p_eval.add_argument("--omega2", default=None)
    p_eval.add_argument("--z", default=None, help="evaluation point for wp/wzeta")
    p_eval.add_argument("--route", choices=_ROUTES, default="auto")
    p_eval.set_defaults(handler=cmd_eval, seed=0)

    p_verify = sub.add_parser("verify", parents=[common], help="run a verification suite")
    p_verify.add_argument("suite", choices=sorted(SUITES))
    p_verify.add_argument("--seed", type=int, default=0, help="seed for the property harness")
    p_verify.set_defaults(handler=cmd_verify, route="auto")

    p_table = sub.add_parser("table", parents=[common], help="cusp-value table for a label grid")
    p_table.add_argument("--grid", required=True, help="file with lines 'f s t' or 'h s t r'")
    p_table.add_argument("--Y", default="20", help="comma-separated heights, e.g. 5,10,20")
    p_table.set_defaults(handler=cmd_table, seed=0, route="auto")
    return parser


# eval's options with a value: labels such as -1/2 and points such as
# -0.25+0.1i start with "-", which argparse reads as an option
_EVAL_VALUED = frozenset(("--tol", "--s", "--t", "--r", "--u", "--tau", "--omega1", "--omega2", "--z"))


def _join_values(argv: list[str]) -> list[str]:
    """argv with each value of an eval option that starts with a single '-' joined as --opt=value."""
    if argv[:1] != ["eval"]:
        return argv
    out, k = [], 0
    while k < len(argv):
        arg, nxt = argv[k], argv[k + 1] if k + 1 < len(argv) else ""
        if arg in _EVAL_VALUED and nxt.startswith("-") and not nxt.startswith("--"):
            out.append(f"{arg}={nxt}")
            k += 2
        else:
            out.append(arg)
            k += 1
    return out


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(_join_values(sys.argv[1:] if argv is None else list(argv)))
    text = args.output_format == "text"
    try:
        _check_args(args.tol, args.route)
        return args.handler(args)
    except WeierError as exc:
        _error_record(args.command, text, exc)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
