"""Command-line interface: output formats, determinism, exit codes."""

import json
import math

import pytest

from obliquecone.cli import main
from obliquecone.exponent import boundary_mismatch
from obliquecone.geometry import ConeGeometry
from obliquecone.verify import CheckResult


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestClassify:
    def test_irregular_prints_exponent(self, capsys):
        code, out, _ = run_cli(
            capsys, "classify", "--theta0", "2.0944", "--s", "1.8"
        )
        assert code == 0
        assert "label: IRREGULAR" in out
        assert "critical_exponent:" in out

    def test_axis_continuous(self, capsys):
        code, out, _ = run_cli(capsys, "classify", "--theta0", "1.0472", "--s", "0.0")
        assert code == 0
        assert "label: AXIS_CONTINUOUS" in out

    def test_domain_error_exit_two(self, capsys):
        code, _, err = run_cli(capsys, "classify", "--theta0", "1.0472", "--s", "2.0")
        assert code == 2
        assert "error:" in err

    def test_unknown_label_still_exits_zero(self, capsys):
        code, out, _ = run_cli(capsys, "classify", "--theta0", "2.0944", "--s", "-0.3")
        assert code == 0
        assert "label: UNKNOWN" in out

    def test_domain_edge_exits_zero(self, capsys):
        code, out, _ = run_cli(capsys, "classify", "--theta0", "3.08", "--s", "1.0")
        assert code == 0
        assert "label: REGULAR_BARRIER" in out

    def test_json_output(self, capsys):
        code, out, _ = run_cli(
            capsys, "classify", "--theta0", "2.0944", "--s", "1.8", "--json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["schema_version"] == 1
        assert payload["label"] == "IRREGULAR"
        assert 0.0 < payload["critical_exponent"] < 1.0

    def test_degrees_flag(self, capsys):
        code, out_rad, _ = run_cli(
            capsys, "classify", "--theta0", "2.0944", "--s", "1.8", "--json"
        )
        code2, out_deg, _ = run_cli(
            capsys,
            "classify",
            "--theta0",
            str(math.degrees(2.0944)),
            "--s",
            str(math.degrees(1.8)),
            "--degrees",
            "--json",
        )
        assert code == code2 == 0
        a, b = json.loads(out_rad), json.loads(out_deg)
        assert a["label"] == b["label"]
        assert a["critical_exponent"] == pytest.approx(
            b["critical_exponent"], abs=1e-12
        )


class TestExponentCommand:
    def test_absent_root(self, capsys):
        code, out, _ = run_cli(capsys, "exponent", "--theta0", "2.0944", "--s", "0.7")
        assert code == 0
        assert "exponent: absent" in out

    def test_neumann(self, capsys):
        code, out, _ = run_cli(capsys, "exponent", "--theta0", "2.0944", "--neumann")
        assert code == 0
        assert "exponent: 0.85631285" in out

    def test_neumann_domain_edge_exits_zero(self, capsys):
        code, out, _ = run_cli(capsys, "exponent", "--theta0", "3.08", "--neumann")
        assert code == 0
        assert "exponent: 0.998" in out

    def test_neumann_acute_cone_bracket_error(self, capsys):
        code, _, err = run_cli(capsys, "exponent", "--theta0", "1.0472", "--neumann")
        assert code == 2
        assert "error:" in err

    def test_missing_s(self, capsys):
        code, _, err = run_cli(capsys, "exponent", "--theta0", "2.0944")
        assert code == 2


class TestBarrierCheck:
    def test_reports_negative_coefficient(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "barrier-check",
            "--theta0",
            "2.0944",
            "--s",
            "0.4",
            "--alpha",
            "0.05",
            "--json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["m1_coefficient"] < 0.0
        assert payload["m2_coefficient"] < 0.0
        assert payload["tilt"] >= 1e-6
        assert 0.0 < payload["cstar"] < 1.0

    def test_rejects_degree_beyond_threshold(self, capsys):
        code, _, err = run_cli(
            capsys, "barrier-check", "--theta0", "2.0944", "--s", "0.4", "--alpha", "0.9"
        )
        assert code == 2


class TestPhaseMap:
    ARGS = (
        "phase-map",
        "--theta0-lo",
        "1.7",
        "--theta0-hi",
        "2.6",
        "--theta0-count",
        "4",
        "--s-count",
        "5",
    )

    def test_csv_deterministic_across_runs(self, capsys, tmp_path):
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        code1, _, _ = run_cli(capsys, *self.ARGS, "--output", str(p1))
        code2, _, _ = run_cli(capsys, *self.ARGS, "--output", str(p2))
        assert code1 == code2 == 0
        assert p1.read_bytes() == p2.read_bytes()

    def test_csv_shape_and_header(self, capsys, tmp_path):
        path = tmp_path / "map.csv"
        code, _, _ = run_cli(capsys, *self.ARGS, "--output", str(path))
        assert code == 0
        lines = path.read_text().splitlines()
        assert lines[0].startswith("# obliquecone ")
        assert lines[1] == (
            "theta0,s,label,critical_exponent,s0,b_at_1,witnesses_digest,clamped"
        )
        assert len(lines) == 2 + 4 * 5
        # theta0 outer, s inner ordering
        theta0s = [float(line.split(",")[0]) for line in lines[2:]]
        assert theta0s == sorted(theta0s)

    def test_irregular_rows_revalidate(self, capsys, tmp_path):
        path = tmp_path / "map.csv"
        run_cli(capsys, *self.ARGS, "--output", str(path))
        rows = [line.split(",") for line in path.read_text().splitlines()[2:]]
        checked = 0
        for row in rows:
            if row[2] == "IRREGULAR":
                geom = ConeGeometry(theta0=float(row[0]))
                assert abs(boundary_mismatch(geom, float(row[3]), float(row[1]))) <= 1e-10
                checked += 1
        assert checked > 0

    def test_second_quadrant_rows_are_irregular(self, capsys, tmp_path):
        path = tmp_path / "map.csv"
        code, _, _ = run_cli(
            capsys,
            "phase-map",
            "--theta0-lo",
            "1.7",
            "--theta0-hi",
            "2.6",
            "--theta0-count",
            "10",
            "--s-count",
            "10",
            "--output",
            str(path),
        )
        assert code == 0
        rows = [line.split(",") for line in path.read_text().splitlines()[2:]]
        in_branch = 0
        for row in rows:
            theta0, s, label = float(row[0]), float(row[1]), row[2]
            if math.pi / 2 < s < theta0:
                assert label == "IRREGULAR", (theta0, s, label)
                in_branch += 1
            if label == "REGULAR_BARRIER":
                assert math.cos(s) * math.sin(s) > 0.0
                assert row[3] == ""  # no critical exponent on regular rows
        assert in_branch > 0

    def test_exact_zero_column_is_axis_continuous(self, capsys, tmp_path):
        path = tmp_path / "map.csv"
        code, _, _ = run_cli(
            capsys,
            "phase-map",
            "--theta0-lo",
            "1.0",
            "--theta0-hi",
            "1.5",
            "--theta0-count",
            "2",
            "--s-mode",
            "absolute",
            "--s-lo",
            "-0.5",
            "--s-hi",
            "0.5",
            "--s-count",
            "3",
            "--output",
            str(path),
        )
        assert code == 0
        rows = [line.split(",") for line in path.read_text().splitlines()[2:]]
        zero_rows = [row for row in rows if float(row[1]) == 0.0]
        assert zero_rows and all(row[2] == "AXIS_CONTINUOUS" for row in zero_rows)

    def test_absolute_mode_clamps_and_flags(self, capsys, tmp_path):
        path = tmp_path / "map.json"
        code, _, _ = run_cli(
            capsys,
            "phase-map",
            "--theta0-lo",
            "1.7",
            "--theta0-hi",
            "2.0",
            "--theta0-count",
            "2",
            "--s-mode",
            "absolute",
            "--s-lo",
            "-3.5",
            "--s-hi",
            "3.0",
            "--s-count",
            "3",
            "--output",
            str(path),
            "--format",
            "json",
        )
        assert code == 0
        payload = json.loads(path.read_text())
        assert payload["schema_version"] == 1
        clamped = [row for row in payload["rows"] if row["clamped"]]
        assert clamped
        for row in payload["rows"]:
            lo, hi = -math.pi + row["theta0"], row["theta0"]
            assert lo < row["s"] < hi

    def test_unwritable_output(self, capsys):
        code, _, err = run_cli(
            capsys, *self.ARGS, "--output", "/nonexistent-dir/map.csv"
        )
        assert code == 2

    def test_bad_counts(self, capsys):
        code, _, err = run_cli(
            capsys,
            "phase-map",
            "--theta0-lo",
            "1.7",
            "--theta0-hi",
            "2.6",
            "--theta0-count",
            "1",
            "--output",
            "/tmp/x.csv",
        )
        assert code == 2


class TestVerifyCommand:
    def test_special_suite_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "special")
        assert code == 0
        assert "[PASS] special.value_at_one" in out
        assert "checks passed" in out

    def test_failure_exits_one(self, capsys, monkeypatch):
        import obliquecone.cli as cli_mod

        def fake_suite(name):
            return [
                CheckResult(
                    suite="special",
                    name="poisoned",
                    passed=False,
                    detail="deliberate",
                    seconds=0.0,
                )
            ]

        monkeypatch.setattr(cli_mod, "run_suite", fake_suite)
        code, out, _ = run_cli(capsys, "verify", "--suite", "special")
        assert code == 1
        assert "[FAIL] special.poisoned" in out
