"""Short self-check of the benchmark (about five minutes on two cores).

    python3 bench/selfcheck.py

For every workload: one untraced run emits exactly the end-to-end metrics
of BENCHMARK.json with their units, one traced run exactly the per-layer
metrics, both with every answer correct. Two traced runs of one seed give
identical counts. A copy of the benchmark without the daekit sources next
to it must exit non-zero without printing a result.
"""

import json
import os
import shutil
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SECONDS = "1"


def run(workload, trace, seed=7, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, os.path.join("bench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", SECONDS, "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )
    return proc


def result(proc):
    if proc.returncode != 0:
        raise SystemExit(f"benchmark exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def same_metrics(res, declared, what):
    got = {n: m["unit"] for n, m in res["metrics"].items()}
    want = {m["name"]: m["unit"] for m in declared}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        raise SystemExit(f"{what}: missing {missing}, unexpected {extra}, "
                         "or units differ")
    if not res["correct"] or res["failed"] or res["attempted"] < 1:
        raise SystemExit(f"{what}: answers wrong: {res}")


def counts(res):
    return {n: m["value"] for n, m in res["metrics"].items()
            if m["unit"] in ("count", "count/call")}


def bare_copy_fails():
    bare = os.path.join(ROOT, ".bench_work", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copyfile(os.path.join(ROOT, "BENCHMARK.json"),
                    os.path.join(bare, "BENCHMARK.json"))
    shutil.copytree(BENCH, os.path.join(bare, "bench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run("orbits", 0, cwd=bare)
    shutil.rmtree(bare)
    last = (proc.stdout.strip().splitlines() or [""])[-1]
    if proc.returncode == 0 or last.startswith("{"):
        raise SystemExit("benchmark ran without the daekit sources")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    for w in spec["workloads"]:
        name = w["name"]
        same_metrics(result(run(name, 0)), spec["end_to_end"], f"{name} untraced")
        first = result(run(name, 1))
        same_metrics(first, spec["per_layer"], f"{name} traced")
        if counts(first) != counts(result(run(name, 1))):
            raise SystemExit(f"{name}: counts differ between two traced runs")
        print(f"ok {name}")
    bare_copy_fails()
    print("ok bare copy exits non-zero without a result")


if __name__ == "__main__":
    main()
