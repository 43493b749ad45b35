"""Golden reports: fixed CLI queries whose stdout, and the CSV files some of
them write, must match the files under tests/golden/ byte for byte.

The orbit side is the four queries of the benchmark's ``orbits`` workload
at 128 steps; the equivlien shoot and branch also write their CSV files.
The degree side is ``check`` on every fixture (eqex1 and eqex2 fail the
d2g hypothesis and exit 2 with their report) and ``zeros``, ``degree`` and
``resonance`` at grid 8 on pozzo, equivlien, exmults and the degenerate
``bench/systems/degen3.sys``. The pool side is the benchmark's seeded random
systems at ``--seed 1``, committed as ``tests/golden/r12.sys``, ``r21.sys``
and ``r22.sys``: ``check`` and ``degree`` on all three, ``zeros`` and
``resonance`` on r12 and r21, at the default grid as the benchmark asks
them. The reduction side is ``reduce-hessenberg`` on ``tests/golden/hess.sys``
and ``reduce-implicit`` on ``tests/golden/implicit.sys``, the two inputs of
``demos/04_problem_reductions.py``. Every query runs from the repository
root.

A change meant to alter a report regenerates the files with

    PYTHONPATH=src python tests/test_golden.py --regen

and names the reason in CHANGES.md. Never replace the byte comparison with
a tolerance. To see how far a regeneration moved the reports, keep a copy
of the old files and run

    PYTHONPATH=src python tests/test_golden.py --drift OLD_DIR

which lists the files that changed, checks that every JSON value other
than a float is equal and every float within 1e-12 of its old value
relative to max(1, |value|), and names the largest such change.
"""

import contextlib
import io
import json
import math
import os
import sys
import tempfile
from pathlib import Path

import pytest

from daekit.cli import main

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).resolve().parent / "golden"

# name: (argv, whether the query also writes a CSV file, exit code)
QUERIES = {
    "shoot_equivlien": (["shoot", "systems/equivlien.sys", "--lambda", "1e-3",
                         "--guess", "0", "--steps", "128"], True, 0),
    "shoot_pozzo": (["shoot", "systems/pozzo.sys", "--lambda", "0.01",
                     "--steps", "128"], False, 0),
    "branch_equivlien": (["branch", "systems/equivlien.sys",
                          "--lambda-max", "0.1", "--norm-bound", "0.9",
                          "--steps", "128"], True, 0),
    "multiplicity_exmults": (["multiplicity", "systems/exmults.sys",
                              "--lambda", "0.01", "--steps", "128"], False, 0),
}
FIXTURES = {name: f"systems/{name}.sys"
            for name in ("pozzo", "equivlien", "exmults", "eqex1", "eqex2")}
FIXTURES["degen3"] = "bench/systems/degen3.sys"
for _name, _path in FIXTURES.items():
    # eqex1 and eqex2 fail the d2g hypothesis: report on stdout, exit 2
    QUERIES[f"check_{_name}"] = (["check", _path], False,
                                 2 if _name.startswith("eqex") else 0)
for _cmd in ("zeros", "degree", "resonance"):
    for _name in ("pozzo", "equivlien", "exmults", "degen3"):
        QUERIES[f"{_cmd}_{_name}"] = ([_cmd, FIXTURES[_name], "--grid", "8"],
                                      False, 0)
for _name in ("r12", "r21", "r22"):
    _path = f"tests/golden/{_name}.sys"
    _cmds = ("check", "degree") + (("zeros", "resonance")
                                   if _name != "r22" else ())
    for _cmd in _cmds:
        QUERIES[f"{_cmd}_{_name}"] = ([_cmd, _path], False, 0)
QUERIES["reduce-hessenberg_hess"] = (
    ["reduce-hessenberg", "tests/golden/hess.sys"], False, 0)
QUERIES["reduce-implicit_implicit"] = (
    ["reduce-implicit", "tests/golden/implicit.sys"], False, 0)


def run_query(name, csv_dir):
    """{golden file name: bytes} of one query, run in-process from the
    repository root; the CSV file goes through csv_dir."""
    argv, csv, expected = QUERIES[name]
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
    if code != expected:
        raise RuntimeError(f"{name} exited with {code}, not {expected}")
    files = {f"{name}.json": out.getvalue().encode("utf-8")}
    if csv:
        files[f"{name}.csv"] = (Path(csv_dir) / f"{name}.csv").read_bytes()
    return files


@pytest.mark.parametrize("name", sorted(QUERIES))
def test_report_matches_golden(name, tmp_path):
    for fname, got in run_query(name, tmp_path).items():
        assert got == (GOLDEN / fname).read_bytes(), f"{fname} changed"


def regen():
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name in sorted(QUERIES):
            for fname, data in run_query(name, tmp).items():
                (GOLDEN / fname).write_bytes(data)
                print(f"wrote tests/golden/{fname}")


def _drift(old, new, where, out):
    """Walk two JSON values: (change / max(1, |value|), where) of each
    float that moved goes into out. Raises AssertionError where anything
    else differs, or a float moves by more than 1e-12 * max(1, |value|)."""
    if isinstance(old, float) and isinstance(new, float):
        if old != new and not (math.isnan(old) and math.isnan(new)):
            change = abs(old - new) / max(1.0, abs(old), abs(new))
            assert change <= 1e-12, (where, old, new)
            out.append((change, where))
    elif isinstance(old, dict) and isinstance(new, dict):
        assert list(old) == list(new), where
        for key in old:
            _drift(old[key], new[key], f"{where}.{key}", out)
    elif isinstance(old, list) and isinstance(new, list):
        assert len(old) == len(new), where
        for i, (a, b) in enumerate(zip(old, new)):
            _drift(a, b, f"{where}[{i}]", out)
    else:
        assert type(old) is type(new) and old == new, (where, old, new)


def drift(old_dir):
    changes = []
    for path in sorted(GOLDEN.iterdir()):
        old = Path(old_dir) / path.name
        if old.read_bytes() == path.read_bytes():
            continue
        assert path.suffix == ".json", f"{path.name} changed"
        print(f"changed tests/golden/{path.name}")
        _drift(json.loads(old.read_text()), json.loads(path.read_text()),
               path.stem, changes)
    print(f"{len(changes)} floats moved, the most by (change / max(1, "
          f"|value|), where) = {max(changes, default=None)}")


if __name__ == "__main__":
    if sys.argv[1:] == ["--regen"]:
        regen()
    elif sys.argv[1:2] == ["--drift"] and len(sys.argv) == 3:
        drift(sys.argv[2])
    else:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden.py --regen\n"
                 "       PYTHONPATH=src python tests/test_golden.py "
                 "--drift OLD_DIR")
