from __future__ import annotations

import csv
import io
import json
import math
import os
import subprocess
import sys

import pytest

from weierforms import shells
from weierforms.cli import format_complex, main, parse_complex
from weierforms.shells import shell_sum


def run_cli(capsys, *argv) -> tuple[int, str]:
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestComplexParsing:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("10i", 10j),
            ("1+2i", 1 + 2j),
            ("-i", -1j),
            ("i", 1j),
            ("0.5", 0.5),
            ("1.5e-3+2i", 1.5e-3 + 2j),
            ("-2.5i", -2.5j),
            ("3-4i", 3 - 4j),
            ("+1.0i", 1j),
            ("0+1i", 1j),
            ("1j", 1j),
            ("1e0i", 1j),
            (".5-i", 0.5 - 1j),
        ],
    )
    def test_parse(self, text, expected):
        assert parse_complex(text) == expected

    def test_signed_zeros(self):
        for text, parts in (("-0", (-1.0, 1.0)), ("-0i", (1.0, -1.0)), ("0-0i", (1.0, -1.0)), ("-0-0i", (-1.0, -1.0))):
            z = parse_complex(text)
            assert (math.copysign(1.0, z.real), math.copysign(1.0, z.imag)) == parts, text

    def test_reject_garbage(self):
        from weierforms.errors import WeierError

        with pytest.raises(WeierError):
            parse_complex("10i+3")
        with pytest.raises(WeierError):
            parse_complex("")
        # complex() alone would read these
        for text in ("1_0i", "(1+2j)", "nan", "infj", "inf", "1+2J"):
            with pytest.raises(WeierError, match="cannot parse complex number"):
                parse_complex(text)
        # a component beyond the binary64 range is not read as infinity
        for text in ("1e999", "1e999i", "-1e999i", "1e999+1i", "1-1e999i", "1e999-1e999i"):
            with pytest.raises(WeierError, match="component overflows binary64"):
                parse_complex(text)

    def test_format_round_trip(self):
        for z in (1.25 - 3.5j, -0.1 + 0.0j, 6.579736267392906 + 0j):
            assert parse_complex(format_complex(z)) == z


class TestEvalCommand:
    def test_eval_f_half_label(self, capsys):
        code, out = run_cli(
            capsys, "eval", "f", "--s", "0", "--t", "1/2", "--tau", "10i", "--format", "json"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["command"] == "eval"
        row = doc["rows"][0]
        assert abs(row["value"]["re"] - 2 * math.pi**2 / 3) < 1e-6
        assert row["error"] <= 1e-8
        assert row["status"] == "ok"

    def test_eval_wp_lattice_form(self, capsys):
        code, out = run_cli(
            capsys,
            "eval", "wp", "--omega1", "i", "--omega2", "1", "--z", "0.5",
            "--format", "json", "--tol", "1e-9",
        )
        assert code == 0
        doc = json.loads(out)
        assert abs(doc["rows"][0]["value"]["re"] - 6.875185815520622) < 5e-8

    def test_eval_h(self, capsys):
        code, out = run_cli(
            capsys,
            "eval", "h", "--r", "2", "--s", "0", "--t", "1/3", "--tau", "i",
            "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert abs(doc["rows"][0]["value"]["re"] - 5.5023673008901858) < 5e-8
        assert doc["rows"][0]["error"] <= 1e-8

    def test_eval_hU(self, capsys):
        code, out = run_cli(
            capsys,
            "eval", "hU", "--u", "0,1/3", "--u", "0,1/3", "--u", "0,-2/3",
            "--tau", "2i", "--format", "json",
        )
        assert code == 0

    @pytest.mark.parametrize(
        "argv",
        [
            ("eval", "f", "--s", "-1/2", "--t", "1/3", "--tau", "0.1+1.2i"),
            ("eval", "g", "--s", "-1/2", "--t", "-1/3", "--tau", "-0.5+2i"),
            ("eval", "h", "--r", "2", "--s", "-1/3", "--t", "1/5", "--tau", "0.3+1.2i"),
            ("eval", "hU", "--u", "-1/3,0", "--u", "1/6,1/2", "--u", "1/6,-1/2", "--tau", "-0.2+1.1i"),
            ("eval", "wp", "--tau", "-0.5+2i", "--z", "-0.25+0.1i"),
            ("eval", "wzeta", "--omega1", "-1+1.5i", "--omega2", "1", "--z", "-i"),
            ("eval", "wp", "--tau", "i", "--z", "-0.25-0.1i", "--route", "shell", "--tol", "1e-6"),
        ],
    )
    def test_values_starting_with_minus(self, capsys, argv):
        # the same output as the --opt=value spelling, for every format
        joined, k = [], 0
        while k < len(argv):
            if argv[k].startswith("--") and k + 1 < len(argv) and argv[k + 1].startswith("-"):
                joined.append(f"{argv[k]}={argv[k + 1]}")
                k += 2
            else:
                joined.append(argv[k])
                k += 1
        assert joined != list(argv)
        for fmt in ("json", "csv", "text"):
            code, out = run_cli(capsys, *argv, "--format", fmt)
            assert code == 0
            assert run_cli(capsys, *joined, "--format", fmt) == (0, out)

    def test_decimal_label_rejected_with_record(self, capsys):
        code, out = run_cli(
            capsys, "eval", "f", "--s", "0.5", "--t", "0", "--tau", "i", "--format", "json"
        )
        assert code == 2
        doc = json.loads(out)
        assert doc["error"]["type"] == "DomainError"

    @pytest.mark.parametrize(
        "argv,message",
        [
            (("f", "--s", "0", "--t", "1/2"), "eval f requires --tau"),
            (("wp", "--tau", "1i"), "eval wp requires --z"),
            (("wzeta", "--z", "0.3", "--omega1", "1i"), "eval wzeta requires --tau or both --omega1/--omega2"),
            (("hU", "--tau", "2i"), "eval hU requires at least one --u s,t"),
            (("hU", "--u", "1/3", "--tau", "2i"), "--u expects 's,t', got '1/3'"),
        ],
    )
    def test_missing_arguments_are_records(self, capsys, argv, message):
        code, out = run_cli(capsys, "eval", *argv, "--format", "json")
        assert code == 2
        assert _strict(out) == {"command": "eval", "error": {"type": "WeierError", "message": message}}

    def test_missing_r_rejected(self, capsys):
        code, out = run_cli(
            capsys, "eval", "h", "--s", "0", "--t", "1/3", "--tau", "i", "--format", "json"
        )
        assert code == 2
        assert json.loads(out)["error"]["type"] == "WeierError"

    @pytest.mark.parametrize(
        "argv,literal",
        [
            (("f", "--s", "1/2", "--t", "0", "--tau", "1e999i"), "1e999i"),
            (("f", "--s", "1/2", "--t", "0", "--tau", "1e999+1i"), "1e999+1i"),
            (("wp", "--tau", "1i", "--z", "1e999"), "1e999"),
            (("wzeta", "--omega1", "1", "--omega2", "1e999i", "--z", "0.1"), "1e999i"),
        ],
    )
    def test_overflowing_literal_record(self, capsys, argv, literal):
        # named as the literal that overflows, not as a domain error of the
        # infinity it would have become
        code, out = run_cli(capsys, "eval", *argv, "--format", "json")
        assert code == 2
        assert _strict(out)["error"] == {
            "type": "WeierError",
            "message": f"cannot parse complex number {literal!r}: component overflows binary64",
        }

    def test_pole_is_machine_readable(self, capsys):
        code, out = run_cli(
            capsys, "eval", "wp", "--tau", "i", "--z", "0", "--format", "json"
        )
        assert code == 2
        assert json.loads(out)["error"]["type"] == "PoleError"

    def test_json_round_trip_bit_exact(self, capsys):
        code, out = run_cli(
            capsys, "eval", "f", "--s", "0", "--t", "1/3", "--tau", "2i", "--format", "json"
        )
        assert code == 0
        doc = json.loads(out)
        row = doc["rows"][0]
        from weierforms import FormSpec

        cv = FormSpec.wp_form(0, "1/3").evaluate(2j, doc["config"]["tolerance"])
        assert row["value"]["re"] == cv.value.real
        assert row["value"]["im"] == cv.value.imag
        assert row["error"] == cv.error


_NUMPY_PROBE = """
import contextlib, io, json, sys
import weierforms, weierforms.cli
from weierforms.cli import main

loaded = ["numpy" in sys.modules]
rows = []
for argv in sys.argv[1:]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv.split()) == 0
    rows.append(json.loads(out.getvalue())["rows"][0])
    loaded.append("numpy" in sys.modules)
print(json.dumps({"loaded": loaded, "rows": rows}))
"""


class TestColdStart:
    def test_numpy_never_loads(self):
        # a fresh interpreter: this process has imported numpy already
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        env = dict(os.environ, PYTHONPATH=src)
        argvs = [
            "eval f --s 1/3 --t 1/5 --tau 0.3+1.2i --format json",
            "verify cusp-f --format json",
            "eval f --s 1/3 --t 1/5 --tau 1.2i --route shell --tol 1e-4 --format json",
            "verify eies-bound --format json",
        ]
        proc = subprocess.run([sys.executable, "-c", _NUMPY_PROBE, *argvs], env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        doc = json.loads(proc.stdout)
        assert doc["loaded"] == [False] * 5
        shell_row = doc["rows"][2]
        assert shell_row["inputs"]["plan_route"] == "shell"
        from weierforms import FormSpec

        cv = FormSpec.wp_form("1/3", "1/5").evaluate(1.2j, 1e-4, route="shell")
        assert (shell_row["value"]["re"], shell_row["value"]["im"], shell_row["error"]) == (
            cv.value.real,
            cv.value.imag,
            cv.error,
        )
        assert doc["rows"][3]["status"] == "pass"


class TestEvalPlan:
    @pytest.mark.parametrize(
        "s,t,tau,tol",
        [("2/3", "2/3", "1.2i", "1e-6"), ("0", "1/2", "20i", "1e-8")],
    )
    def test_f_plan_is_the_summed_box(self, capsys, monkeypatch, s, t, tau, tol):
        boxes = []

        def spy(lat, z, box, kind="wp"):
            boxes.append(tuple(box))
            return shell_sum(lat, z, box, kind)

        monkeypatch.setattr(shells, "shell_sum", spy)
        code, out = run_cli(
            capsys, "eval", "f", "--s", s, "--t", t, "--tau", tau, "--tol", tol, "--route", "shell", "--format", "json"
        )
        assert code == 0
        inputs = json.loads(out)["rows"][0]["inputs"]
        assert boxes == [(inputs["plan_c_max"], inputs["plan_d_max"])]

    @pytest.mark.parametrize(
        "argv,boxes,points",
        [
            # g at (1/3, 1/5) needs no eta2: one box, reported as a box
            (("g", "--s", "1/3", "--t", "1/5"), 1, 34),
            # h and hU: a box per Klein form and the one of eta2 = 2 wzeta(1/2)
            (("h", "--r", "2", "--s", "0", "--t", "1/3"), 3, 150),
            (("hU", "--u", "0,1/3", "--u", "0,1/3", "--u", "0,-2/3"), 4, 194),
        ],
    )
    def test_rows_report_every_box_summed(self, capsys, monkeypatch, argv, boxes, points):
        summed = []

        def spy(lat, z, box, kind="wp"):
            summed.append(tuple(box))
            return shell_sum(lat, z, box, kind)

        monkeypatch.setattr(shells, "shell_sum", spy)
        code, out = run_cli(capsys, "eval", *argv, "--tau", "1.1i", "--tol", "1e-6", "--route", "shell", "--format", "json")
        assert code == 0
        inputs = json.loads(out)["rows"][0]["inputs"]
        assert inputs["plan_route"] == "shell"
        assert len(summed) == inputs.get("plan_boxes", 1) == boxes
        assert sum((2 * c + 1) * (2 * d + 1) - 1 for c, d in summed) == inputs["plan_points"] == points
        if boxes == 1:
            assert summed == [(inputs["plan_c_max"], inputs["plan_d_max"])]

    def test_label_row_reports_at_the_callers_scale(self, capsys):
        # g sums on tau_r*Z + Z = (0.8i*Z + Z) / J with |J| = 0.8: the row reports
        # the box's shell constant and tail bound on the caller's lattice
        code, out = run_cli(capsys, "eval", "g", "--s", "1/3", "--t", "1/5", "--tau", "0.8i", "--route", "shell", "--format", "json")
        assert code == 0
        row = json.loads(out)["rows"][0]
        assert row["inputs"]["plan_shell_constant"] == 0.8
        assert row["inputs"]["plan_tail_bound"] == row["bound"] <= row["error"]

    def test_shell_eval_plans_once(self, capsys, monkeypatch):
        plans = []
        plan_truncation = shells.plan_truncation

        def spy(*args, **kwargs):
            plans.append(plan_truncation(*args, **kwargs))
            return plans[-1]

        monkeypatch.setattr(shells, "plan_truncation", spy)
        code, out = run_cli(capsys, "eval", "f", "--s", "0", "--t", "1/2", "--tau", "20i", "--route", "shell", "--format", "json")
        assert code == 0
        assert len(plans) == 1
        assert json.loads(out)["rows"][0]["inputs"]["plan_points"] == plans[0].point_count

    def test_series_eval_reduces_once(self, capsys, monkeypatch):
        from weierforms import evaluate, lattice

        calls = []
        reduce_points = lattice.reduce_points

        def spy(lat, zs):
            calls.append(zs)
            return reduce_points(lat, zs)

        # the evaluators call it through evaluate, reduce_lattice through lattice
        monkeypatch.setattr(evaluate, "reduce_points", spy)
        monkeypatch.setattr(lattice, "reduce_points", spy)
        code, out = run_cli(capsys, "eval", "f", "--s", "1/3", "--t", "1/5", "--tau", "0.3+1.2i", "--format", "json")
        assert code == 0
        assert len(calls) == 1
        assert json.loads(out)["rows"][0]["inputs"]["plan_route"] == "series"


class TestDeterminism:
    def test_verify_identities_byte_identical(self, capsys):
        code1, out1 = run_cli(capsys, "verify", "identities", "--seed", "7", "--format", "json")
        code2, out2 = run_cli(capsys, "verify", "identities", "--seed", "7", "--format", "json")
        assert code1 == code2 == 0
        assert out1 == out2

    def test_verify_json_independent_of_core_count(self, capsys, monkeypatch):
        outs = []
        for cores in (1, 64):
            monkeypatch.setattr(os, "cpu_count", lambda n=cores: n)
            outs.append(run_cli(capsys, "verify", "cusp-f", "--format", "json"))
        assert outs[0] == outs[1]

    def test_csv_shape(self, capsys):
        code, out = run_cli(capsys, "verify", "eies-bound", "--format", "csv")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["id", "inputs", "value_re", "value_im", "error", "bound", "status"]
        assert len(rows) == 1 + 12  # header + 3 exponents x 4 heights
        assert all(r[6] == "pass" for r in rows[1:])


class TestVerifyCommand:
    def test_zeta2_passes(self, capsys):
        code, out = run_cli(capsys, "verify", "zeta2", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert all(r["status"] == "pass" for r in doc["rows"])

    def test_unknown_suite_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["verify", "nonsense"])

    def test_unknown_suite_in_process(self):
        from weierforms import DomainError, run_suite

        with pytest.raises(DomainError, match="unknown suite 'nope'"):
            run_suite("nope")

    def test_text_notes(self, capsys):
        # the suite's notes and its summary close the text report as comments
        code, out = run_cli(capsys, "verify", "cusp-h", "--format", "text")
        assert code == 0
        lines = out.splitlines()
        assert lines[-2].startswith("# lattice-sum evaluation supports sqrt(3)*pi")
        assert lines[-1] == "# cusp-h: 17/17 checks passed (seed 0)"
        assert not any(line.startswith("#") for line in lines[:-2])


class TestTableCommand:
    def test_table_grid(self, tmp_path, capsys):
        grid = tmp_path / "grid.txt"
        grid.write_text("f 0 1/2\nf 0 1/3\n")
        code, out = run_cli(
            capsys, "table", "--grid", str(grid), "--Y", "20", "--format", "json"
        )
        assert code == 0
        doc = json.loads(out)
        assert len(doc["rows"]) == 2
        for row in doc["rows"]:
            assert row["status"] == "pass"
            assert row["inputs"]["residual"] < 1e-6

    def test_blank_and_comment_lines_skipped(self, tmp_path, capsys):
        grid = tmp_path / "grid.txt"
        grid.write_text("# labels\n\n   \nf 0 1/2  # the half-period\n\t\n# h 0 1/3 2\n")
        code, out = run_cli(capsys, "table", "--grid", str(grid), "--Y", "20", "--format", "json")
        assert code == 0
        rows = json.loads(out)["rows"]
        assert [(r["id"], r["inputs"]["form"], r["status"]) for r in rows] == [("row-000", "f(0,1/2)", "pass")]

    def test_empty_grid_ok(self, tmp_path, capsys):
        grid = tmp_path / "grid.txt"
        grid.write_text("")
        code, out = run_cli(capsys, "table", "--grid", str(grid), "--Y", "20", "--format", "json")
        assert code == 0
        assert json.loads(out)["rows"] == []

    def test_h_rows_monotone_residual(self, tmp_path, capsys):
        grid = tmp_path / "grid.txt"
        grid.write_text("h 0 1/3 2\n")
        code, out = run_cli(
            capsys, "table", "--grid", str(grid), "--Y", "5,10,20", "--format", "json"
        )
        assert code == 0
        doc = json.loads(out)
        res = [row["inputs"]["residual"] for row in doc["rows"]]
        assert len(res) == 3
        assert res[1] <= res[0] + 1e-13
        assert res[2] <= res[1] + 1e-13
        assert all(r < 1e-10 for r in res)

    def test_bad_label_row_errors(self, tmp_path, capsys):
        grid = tmp_path / "grid.txt"
        grid.write_text("f 0 1/2\nq 1 2\n")
        code, out = run_cli(capsys, "table", "--grid", str(grid), "--Y", "20", "--format", "json")
        assert code == 1
        doc = json.loads(out)
        statuses = [r["status"] for r in doc["rows"]]
        assert "error" in statuses and "pass" in statuses

    def test_missing_file(self, capsys):
        code, out = run_cli(capsys, "table", "--grid", "/nonexistent/grid", "--format", "json")
        assert code == 2

    def test_bad_height_list(self, tmp_path, capsys):
        grid = tmp_path / "grid.txt"
        grid.write_text("f 0 1/2\n")
        code, out = run_cli(capsys, "table", "--grid", str(grid), "--Y", "5,x", "--format", "json")
        assert code == 2
        assert "--Y" in json.loads(out)["error"]["message"]

    def test_huge_height_rows(self, tmp_path, capsys):
        # tau = 1e200 i: the reduced basis is far outside the shell planner's
        # float range, and the series route never builds its geometry
        grid = tmp_path / "grid.txt"
        grid.write_text("f 0 1/2\nf 1/3 1/3\nh 0 1/3 2\n")
        code, out = run_cli(capsys, "table", "--grid", str(grid), "--Y", "1e200", "--format", "json")
        assert code == 0
        assert [row["status"] for row in json.loads(out)["rows"]] == ["pass"] * 3

    def test_infinite_height_rejected(self, tmp_path, capsys):
        # refused before any row: a row would carry the height, and Infinity is not JSON
        grid = tmp_path / "grid.txt"
        grid.write_text("f 0 1/2\n")
        code, out = run_cli(capsys, "table", "--grid", str(grid), "--Y", "inf", "--format", "json")
        assert code == 2
        assert "--Y" in json.loads(out)["error"]["message"]

    def test_finite_height_gap_rows(self, tmp_path, capsys):
        # f(1/3,1/3) at Y = 5 is 1.1e-3 from its limit: within the derived gap
        grid = tmp_path / "grid.txt"
        grid.write_text("f 0 1/2\nf 1/2 0\nf 1/3 1/3\nh 0 1/3 2\n")
        code, out = run_cli(capsys, "table", "--grid", str(grid), "--Y", "5,10,20", "--format", "json")
        assert code == 0
        rows = json.loads(out)["rows"]
        assert len(rows) == 12 and all(r["status"] == "pass" for r in rows)
        assert rows[6]["inputs"]["residual"] > 1e-3
        assert all(r["bound"] < 1e-12 for r in rows if r["inputs"]["Y"] == 20.0)


def _strict(text: str):
    """json.loads that refuses Infinity, -Infinity and NaN, which RFC 8259 does not allow."""

    def refuse(token):
        raise ValueError(f"non-JSON constant {token}")

    return json.loads(text, parse_constant=refuse)


class TestStrictJson:
    @pytest.mark.parametrize(
        "argv",
        [
            ("eval", "f", "--s", "1/2", "--t", "0", "--tau", "1i", "--tol", "1e999"),
            ("eval", "f", "--s", "1/2", "--t", "0", "--tau", "1i", "--tol", "inf"),
            ("eval", "wp", "--tau", "1i", "--z", "0.3", "--tol", "nan"),
            ("verify", "eies-bound", "--tol=-inf"),
            ("table", "--grid", "GRID", "--Y", "inf"),
            ("table", "--grid", "GRID", "--Y", "5,nan"),
            ("table", "--grid", "GRID", "--tol", "inf"),
        ],
    )
    def test_non_finite_option_refused(self, capsys, tmp_path, argv):
        grid = tmp_path / "grid.txt"
        grid.write_text("f 0 1/2\n")
        argv = [str(grid) if a == "GRID" else a for a in argv]
        code, out = run_cli(capsys, *argv, "--format", "json")
        assert code == 2
        assert sorted(_strict(out)["error"]) == ["message", "type"]

    @pytest.mark.parametrize(
        "argv",
        [
            ("eval", "f", "--s", "1/2", "--t", "0", "--tau", "1i"),
            ("eval", "hU", "--u", "0,1/3", "--u", "0,1/3", "--u", "0,-2/3", "--tau", "2i"),
            ("eval", "wp", "--tau", "1i", "--z", "0.3", "--route", "shell", "--tol", "1e-5"),
            ("verify", "cusp-h"),
            ("table", "--grid", "GRID", "--Y=-1,5,20"),
        ],
    )
    def test_outputs_parse_strictly(self, capsys, tmp_path, argv):
        grid = tmp_path / "grid.txt"
        grid.write_text("f 0 1/2\nh 0 1/3 2\nf 1 0\n")
        argv = [str(grid) if a == "GRID" else a for a in argv]
        _, out = run_cli(capsys, *argv, "--format", "json")
        assert _strict(out)["rows"]


class TestConfigPrecedence:
    def test_config_block(self, capsys):
        code, out = run_cli(capsys, "verify", "eies-bound", "--format", "json")
        assert sorted(json.loads(out)["config"]) == ["output_format", "route", "seed", "tolerance"]


class TestFlags:
    """The parsed flags are a run's only settings; each command takes only
    the flags it reads."""

    @pytest.mark.parametrize(
        "argv",
        [
            ("verify", "eies-bound", "--route", "shell"),
            ("eval", "wp", "--tau", "1i", "--z", "0.3", "--seed", "3"),
            ("table", "--grid", "g", "--seed", "3"),
            ("verify", "eies-bound", "--config", "x"),
            ("verify", "eies-bound", "--format", "yaml"),
        ],
    )
    def test_unread_flags_are_usage_errors(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "usage: weierforms" in captured.err

    @pytest.mark.parametrize(
        "argv",
        [
            ("eval", "wp", "--tau", "1i", "--z", "0.3"),
            ("verify", "eies-bound"),
            ("table", "--grid", "/nonexistent/grid"),
        ],
    )
    def test_tolerance_floor_record(self, capsys, argv):
        # reported before the command runs, like every other error: one line
        # on stderr in text format, a JSON record on stdout in json format
        message = "tolerance must be positive and finite, got 0.0"
        assert main([*argv, "--tol", "0", "--format", "text"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: DomainError: {message}\n"
        code, out = run_cli(capsys, *argv, "--tol", "0", "--format", "json")
        assert code == 2
        assert json.loads(out) == {"command": argv[0], "error": {"type": "DomainError", "message": message}}

    def test_environment_does_not_leak(self, capsys, monkeypatch):
        monkeypatch.delenv("WEIER_TOL", raising=False)
        _, plain = run_cli(capsys, "verify", "cusp-f", "--format", "json")
        monkeypatch.setenv("WEIER_TOL", "1e-6")
        _, with_env = run_cli(capsys, "verify", "cusp-f", "--format", "json")
        assert with_env == plain
        assert json.loads(plain)["config"]["tolerance"] == 1e-8

    def test_config_block_reports_the_run_values(self, capsys, tmp_path):
        grid = tmp_path / "grid.txt"
        grid.write_text("f 0 1/2\n")
        blocks = [
            json.loads(run_cli(capsys, *argv, "--format", "json")[1])["config"]
            for argv in (
                ("eval", "wp", "--tau", "1i", "--z", "0.3", "--route", "series"),
                ("verify", "eies-bound", "--seed", "3"),
                ("table", "--grid", str(grid)),
            )
        ]
        assert [(b["seed"], b["route"]) for b in blocks] == [(0, "series"), (3, "auto"), (0, "auto")]
