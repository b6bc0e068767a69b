"""The CI workflow's own steps, run against this checkout.

`.github/workflows/tests.yml` is parsed, and the steps that run offline in
a few seconds are run here in a subprocess with `PYTHONPATH=src`: the
invariant suites through the `obliquecone` script of `pyproject.toml`
(read with tomllib, so on Python 3.11+), and the lean-import probe with the
3.11 leg's module list.  Three steps are not run: the install step needs the
network, the tier-1 step is this test suite itself, and the benchmark smoke
run takes about 15 s.
"""

import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest
import yaml

import obliquecone

SRC = Path(obliquecone.__file__).resolve().parents[1]
ROOT = SRC.parent
WORKFLOW = yaml.safe_load((ROOT / ".github/workflows/tests.yml").read_text(encoding="utf-8"))
JOB = WORKFLOW["jobs"]["tests"]
STEPS = {step["name"]: step for step in JOB["steps"] if "name" in step}
LEG_311 = next(leg for leg in JOB["strategy"]["matrix"]["include"]
               if leg["python-version"] == "3.11")

INVARIANT_SUITES = "Invariant suites"
LEAN_IMPORT = next(name for name in STEPS if name.startswith("An oblique solve loads no"))
NOT_RUN = {
    "Install the package with its test extra",
    "Tier-1 tests",
    "Benchmark smoke run with every output correct",
}


def test_every_run_step_is_run_here_or_named_as_skipped():
    assert set(STEPS) == NOT_RUN | {INVARIANT_SUITES, LEAN_IMPORT}


def test_the_311_constraints_file_exists():
    flag, path = shlex.split(LEG_311["constraints"])
    assert flag == "-c"
    assert (ROOT / path).is_file()


@pytest.fixture
def bin_dir(tmp_path):
    """A PATH directory whose `python` is this interpreter."""
    (tmp_path / "python").symlink_to(sys.executable)
    return tmp_path


def _add_console_script(bin_dir):
    """`obliquecone` in bin_dir: the console script that pyproject.toml
    declares, run by this interpreter."""
    tomllib = pytest.importorskip("tomllib", reason="tomllib is in Python 3.11+")
    pyproject = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))
    module, func = pyproject["project"]["scripts"]["obliquecone"].split(":")
    script = bin_dir / "obliquecone"
    script.write_text(
        f"#!/bin/sh\nexec {shlex.quote(sys.executable)} -c "
        f"'import sys; from {module} import {func}; sys.exit({func}())' \"$@\"\n",
        encoding="utf-8",
    )
    script.chmod(0o755)


def _run_step(script, bin_dir):
    env = dict(os.environ, PYTHONPATH=str(SRC), PATH=f"{bin_dir}{os.pathsep}{os.environ['PATH']}")
    return subprocess.run(
        ["bash", "--noprofile", "--norc", "-eo", "pipefail", "-c", script],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )


def test_invariant_suites_step_passes(bin_dir):
    _add_console_script(bin_dir)
    out = _run_step(STEPS[INVARIANT_SUITES]["run"], bin_dir)
    assert out.returncode == 0, out.stdout + out.stderr
    totals = [line for line in out.stdout.splitlines() if line.endswith("checks passed")]
    assert len(totals) == 5
    assert totals[0] == "31/31 checks passed"


def test_lean_import_step_passes_with_the_311_module_list(bin_dir):
    step = STEPS[LEAN_IMPORT]
    assert step["if"] == "matrix.lean_import != ''"
    script = step["run"].replace("${{ matrix.lean_import }}", LEG_311["lean_import"])
    assert "${{" not in script
    out = _run_step(script, bin_dir)
    assert out.returncode == 0, out.stdout + out.stderr
