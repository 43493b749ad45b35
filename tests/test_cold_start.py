"""Cold start: a fresh CLI process loads scipy only when it exponentiates a
matrix of order 2 or more.

scipy.linalg is most of the import time of a one-shot ``python -m daekit``
call, and ``linalg.expm`` is daekit's only use of it. The queries below are
golden queries, run through ``cli.main`` in a new interpreter as ``python -m
daekit`` does; after each one the test reads ``"scipy" in sys.modules``, and
its report must still match its golden file. No time is measured.
"""

import json
import os
import subprocess
import sys

import pytest

from test_golden import GOLDEN, QUERIES, ROOT

# check, degree and zeros never exponentiate a matrix, nor does shoot with
# --guess. resonance, branch and multiplicity do, and so does shoot without
# --guess, which starts from the first non-resonant zero; on a system with
# dim_x = 1 that matrix is 1x1. pozzo has dim_x = 2, so its resonance query
# and its guess-free shoot must still load scipy.
WITHOUT_SCIPY = sorted(
    [f"check_{name}" for name in
     ("pozzo", "equivlien", "exmults", "eqex1", "eqex2")]
    + [f"{cmd}_{name}" for cmd in ("degree", "zeros")
       for name in ("pozzo", "equivlien", "exmults")]
    + ["shoot_equivlien", "resonance_exmults", "branch_equivlien",
       "multiplicity_exmults"])
WITH_SCIPY = ["resonance_pozzo", "shoot_pozzo"]

SCRIPT = """\
import contextlib, io, json, sys
from daekit.cli import main
results = []
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    results.append({"code": code, "scipy": "scipy" in sys.modules,
                    "report": out.getvalue()})
print(json.dumps(results))
"""


def run_fresh(names, csv_dir):
    """Run the golden queries of the names, in order, in one new interpreter
    started from the repository root; one dict per query with its exit
    code, whether scipy was loaded after it, and its report."""
    queries = []
    for name in names:
        argv, csv, _ = QUERIES[name]
        if csv:
            argv = argv + ["--csv", str(csv_dir / f"{name}.csv")]
        queries.append(argv)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, "-c", SCRIPT, json.dumps(queries)],
                          cwd=ROOT, env=env, capture_output=True, text=True,
                          check=True)
    return json.loads(proc.stdout)


def check_reports(names, results):
    for name, result in zip(names, results, strict=True):
        assert result["code"] == QUERIES[name][2], name
        assert (result["report"].encode("utf-8")
                == (GOLDEN / f"{name}.json").read_bytes()), name


def test_queries_without_expm_never_load_scipy(tmp_path):
    # one process for all of them: scipy stays loaded once imported, so
    # the first query that loads it is the first True
    results = run_fresh(WITHOUT_SCIPY, tmp_path)
    loaded = [name for name, r in zip(WITHOUT_SCIPY, results) if r["scipy"]]
    assert loaded == []
    check_reports(WITHOUT_SCIPY, results)


@pytest.mark.parametrize("name", WITH_SCIPY)
def test_order_two_expm_loads_scipy(name, tmp_path):
    results = run_fresh([name], tmp_path)
    assert results[0]["scipy"] is True
    check_reports([name], results)
