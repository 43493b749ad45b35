"""Golden reports: fixed CLI queries whose stdout, and the CSV files some of
them write, must match the files under tests/golden/ byte for byte.

The queries are the four orbit queries of the benchmark's ``orbits``
workload at 128 steps, run from the repository root with ``systems/...``
paths; the equivlien shoot and branch also write their CSV files.

A change meant to alter a report regenerates the files with

    PYTHONPATH=src python tests/test_golden.py --regen

and names the reason in CHANGES.md. Never replace the byte comparison with
a tolerance.
"""

import contextlib
import io
import os
import sys
import tempfile
from pathlib import Path

import pytest

from daekit.cli import main

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).resolve().parent / "golden"

# name: (argv, whether the query also writes a CSV file)
QUERIES = {
    "shoot_equivlien": (["shoot", "systems/equivlien.sys", "--lambda", "1e-3",
                         "--guess", "0", "--steps", "128"], True),
    "shoot_pozzo": (["shoot", "systems/pozzo.sys", "--lambda", "0.01",
                     "--steps", "128"], False),
    "branch_equivlien": (["branch", "systems/equivlien.sys",
                          "--lambda-max", "0.1", "--norm-bound", "0.9",
                          "--steps", "128"], True),
    "multiplicity_exmults": (["multiplicity", "systems/exmults.sys",
                              "--lambda", "0.01", "--steps", "128"], False),
}


def run_query(name, csv_dir):
    """{golden file name: bytes} of one query, run in-process from the
    repository root; the CSV file goes through csv_dir."""
    argv, csv = QUERIES[name]
    if csv:
        argv = argv + ["--csv", str(Path(csv_dir) / f"{name}.csv")]
    out = io.StringIO()
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        with contextlib.redirect_stdout(out):
            code = main(argv)
    finally:
        os.chdir(cwd)
    if code != 0:
        raise RuntimeError(f"{name} exited with {code}")
    files = {f"{name}.json": out.getvalue().encode("utf-8")}
    if csv:
        files[f"{name}.csv"] = (Path(csv_dir) / f"{name}.csv").read_bytes()
    return files


@pytest.mark.parametrize("name", sorted(QUERIES))
def test_report_matches_golden(name, tmp_path, monkeypatch):
    monkeypatch.delenv("DAEKIT_OUT_DIR", raising=False)
    for fname, got in run_query(name, tmp_path).items():
        assert got == (GOLDEN / fname).read_bytes(), f"{fname} changed"


def regen():
    os.environ.pop("DAEKIT_OUT_DIR", None)
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name in sorted(QUERIES):
            for fname, data in run_query(name, tmp).items():
                (GOLDEN / fname).write_bytes(data)
                print(f"wrote tests/golden/{fname}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--regen"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden.py --regen")
    regen()
