"""Cold start: a fresh CLI process never loads scipy, and compiles each
emitted function once.

daekit needs only numpy at run time: its matrix exponential is its own, on
floats. Every golden query is run twice through ``cli.main`` in one new
interpreter, as ``python -m daekit`` does; after each run of a query the
test reads ``"scipy" in sys.modules`` and counts the calls of
``builtins.compile`` and of ``expr._kernel_lines`` (the point code every
emitted function starts from) it made, and its report must still match its
golden file. No time is measured.
"""

import json
import os
import subprocess
import sys

from test_golden import GOLDEN, QUERIES, ROOT

SCRIPT = """\
import builtins, contextlib, io, json, sys
from daekit import expr
from daekit.cli import main
compiles, compile_ = [], builtins.compile
def counting(*args, **kwargs):
    compiles.append(None)
    return compile_(*args, **kwargs)
builtins.compile = counting
emits, kernel_lines = [], expr._kernel_lines
def emitting(*args, **kwargs):
    emits.append(None)
    return kernel_lines(*args, **kwargs)
expr._kernel_lines = emitting
results = []
for argv in json.loads(sys.argv[1]):
    out, before, emitted = io.StringIO(), len(compiles), len(emits)
    with contextlib.redirect_stdout(out):
        code = main(argv)
    results.append({"code": code, "scipy": "scipy" in sys.modules,
                    "compiles": len(compiles) - before,
                    "emits": len(emits) - emitted,
                    "report": out.getvalue()})
print(json.dumps(results))
"""


def run_fresh(names, csv_dir):
    """Run the golden queries of the names, in order, in one new interpreter
    started from the repository root; one dict per query with its exit
    code, whether scipy was loaded after it, its calls of builtins.compile
    and of expr._kernel_lines, and its report."""
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


def test_a_second_run_compiles_nothing(tmp_path):
    # every golden query, then all of them again in the same process: no
    # query loads scipy, the second run finds the code of every emitted
    # function in the process-wide compile cache, and gives the same
    # reports. load_system, load_hessenberg and load_implicit return the
    # first run's SystemDef of each input text, with its kernels and
    # emitted functions, and degree_via_slice keeps its fields per formula
    # list, so the second run emits no point code either
    names = sorted(QUERIES)
    results = run_fresh(names + names, tmp_path)
    first, second = results[:len(names)], results[len(names):]
    assert [name for name, r in zip(names + names, results, strict=True)
            if r["scipy"]] == []
    assert sum(r["compiles"] for r in first) > 0
    assert [r["compiles"] for r in second] == [0] * len(names)
    assert sum(r["emits"] for r in first) > 0
    assert [r["emits"] for r in second] == [0] * len(names)
    check_reports(names, first)
    check_reports(names, second)
