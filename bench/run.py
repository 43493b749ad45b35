"""daekit benchmark: seeded CLI query lists replayed in one process.

    python3 bench/run.py --workload orbits --seed 1 --seconds 34 --trace 0

One client sends the workload's queries to ``daekit.cli.main`` one after
another (a closed loop), in an order shuffled by the seed on every pass,
and checks every answer. Set-up imports daekit and writes the seeded
inputs (BUILDS times, median taken); whole passes then run until the pass
boundary nearest ``--seconds``. Untraced runs read the host's speed from a
frozen reference copy of daekit between queries (class Probe) and report
every time at the reference speed. The last line of stdout is one JSON
object: the end-to-end metrics with ``--trace 0``; with ``--trace 1``
untraced and traced passes alternate and the per-layer metrics of
tracer.py come out instead. Exits 2 without a result when the daekit
sources are not next to this directory.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import bisect  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
BUILDS = 3
MIN_PASSES = 2
FAIL_KINDS = ("LeavesBoxError", "DriftExceededError")
PROBE = (   # (argv, seconds at the reference speed), taken in turn
    (["degree", "probe_pozzo.sys"], 0.2),
    (["branch", "probe_equivlien.sys", "--lambda-max", "0.01",
      "--norm-bound", "0.9", "--steps", "32"], 0.08),
)
PROBE_EVERY_S = 1.0


def load_daekit():
    if not os.path.isfile(os.path.join(SRC, "daekit", "cli.py")):
        sys.stderr.write(f"error: no daekit sources under {SRC}\n")
        raise SystemExit(2)
    sys.path.insert(0, SRC)
    import daekit.cli

    if not os.path.abspath(daekit.cli.__file__).startswith(SRC + os.sep):
        sys.stderr.write(f"error: daekit imported from {daekit.cli.__file__}, "
                         f"not from {SRC}\n")
        raise SystemExit(2)
    return daekit.cli


class Ledger:
    """Answer checks: exit code and report per query, and byte-identical
    reports for the same query on every pass."""

    def __init__(self):
        self.attempted = 0
        self.failures = []
        self.reports = {}

    def record(self, query, rc, text):
        from workloads import WrongAnswer, expect

        self.attempted += 1
        try:
            expect(text != "", "no report")
            query.verify(rc, json.loads(text))
            first = self.reports.setdefault(query.key, text)
            expect(text == first, "report differs from an earlier pass")
        except (WrongAnswer, ValueError, KeyError, TypeError) as exc:
            self.failures.append(f"{query.key}: {exc}")


def call(cli, argv):
    """(wall time, exit code, stdout) of one in-process CLI call."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        t0 = time.perf_counter()
        try:
            rc = cli.main(list(argv))
        except Exception as exc:  # a crash is a wrong answer, not the end
            rc = f"{type(exc).__name__}: {exc}"
        return time.perf_counter() - t0, rc, out.getvalue()


class Probe:
    """Host speed, read from a frozen copy of daekit (reference/daekit_ref).

    The host this benchmark was defined on changes speed by up to 1.6x for
    minutes at a time. Running fixed code between the workload's queries,
    at least every PROBE_EVERY_S, reads the current slowness: probe time
    over its time at the reference speed. Each query's time is divided by
    the mean of the readings just before and just after it, which gives
    it in seconds at the reference speed. The copy never changes, so a
    change to daekit moves the workload's times and not the probe's.
    """

    def __init__(self):
        sys.path.insert(0, os.path.join(BENCH, "reference"))
        import daekit_ref.cli

        self.cli = daekit_ref.cli
        self.reports = {}
        self.times = []       # when each reading was taken
        self.readings = []    # slowness, 1.0 at the reference speed

    def read(self):
        argv, nominal = PROBE[len(self.readings) % len(PROBE)]
        self.times.append(time.perf_counter())
        dt, rc, text = call(self.cli, argv)
        if rc != 0 or text != self.reports.setdefault(argv[1], text):
            raise RuntimeError(f"reference probe {argv} failed")
        self.readings.append(dt / nominal)

    def due(self):
        return not self.times or time.perf_counter() - self.times[-1] >= PROBE_EVERY_S

    def around(self, t):
        """Mean slowness of the readings just before and just after t."""
        i = bisect.bisect(self.times, t)
        near = self.readings[max(i - 1, 0):i + 1]
        return sum(near) / len(near)


def run_pass(cli, queries, order, ledger, tracer=None, probe=None):
    """One pass over the queries in ``order``: per query key, a list of
    (start time, wall time) for each run of it."""
    times = {q.key: [] for q in queries}
    for i in order:
        if probe is not None and probe.due():
            probe.read()
        q = queries[i]
        if tracer is not None:
            tracer.query_id = i
        t0 = time.perf_counter()
        dt, rc, text = call(cli, q.argv)
        times[q.key].append((t0, dt))
        ledger.record(q, rc, text)
    if probe is not None:
        probe.read()
    return times


def pass_total(times, probe=None):
    """Wall time of a pass; at the reference speed when probed."""
    return sum(dt / (probe.around(t0) if probe else 1.0)
               for samples in times.values() for t0, dt in samples)


def end_to_end(queries, passes, setup_s, ledger, probe):
    from workloads import SUBCOMMANDS

    metrics = {"setup_s": (setup_s, "s"),
               "study_s": (statistics.median(pass_total(p, probe)
                                             for p in passes), "s")}
    per_query = {q.key: statistics.median(dt / probe.around(t0)
                                          for p in passes
                                          for t0, dt in p[q.key])
                 for q in queries}
    for sub in SUBCOMMANDS:
        mine = [per_query[q.key] for q in queries if q.sub == sub]
        metrics[f"{sub}_s"] = (sum(mine) / len(mine), "s")
    ok = ledger.attempted - len(ledger.failures)
    metrics["correct_frac"] = (ok / ledger.attempted, "ratio")
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics["peak_rss_mb"] = (rss, "MB")
    return metrics


def per_layer(summaries, untraced, traced):
    """Per-layer metrics: counts of one traced pass (identical on every
    traced pass, else None is returned), times as medians over passes."""
    counts = [{n: (v["calls"], v["rows"], v["fail"], v["under"])
               for n, v in s.items()} for s in summaries]
    if any(c != counts[0] for c in counts):
        return None
    last = summaries[-1]

    def calls(name):
        return last[name]["calls"]

    def secs(name, kind="s"):
        return statistics.median(s[name][kind] for s in summaries)

    def under(child, parent):
        return last[child]["under"].get(parent, 0)

    def fails(name):
        return sum(last[name]["fail"].values())

    def per_call(n, name):
        return n / calls(name) if calls(name) else 0.0

    shoot_ok = calls("periodic.shoot") - fails("periodic.shoot")
    m = {
        "expr.evaluate.calls": (calls("expr.evaluate"), "count"),
        "expr.evaluate_dual.calls": (calls("expr.evaluate_dual"), "count"),
        "expr.evaluate_batch.s": (secs("expr.evaluate_batch"), "s"),
        "expr.evaluate_dual_batch.s": (secs("expr.evaluate_dual_batch"), "s"),
        "linalg.lu_factor.calls": (calls("linalg.lu_factor"), "count"),
        "linalg.lu_factor.s": (secs("linalg.lu_factor"), "s"),
        "linalg.lu_factor.fail": (fails("linalg.lu_factor"), "count"),
        "linalg.lu_apply.calls": (calls("linalg.lu_apply"), "count"),
        "dae.SystemDef.jac_rows.calls": (calls("dae.SystemDef.jac_rows"), "count"),
        "dae.SystemDef.jac_rows.self_s":
            (secs("dae.SystemDef.jac_rows", "self_s"), "s"),
        "dae.solve_constraint.calls": (calls("dae.solve_constraint"), "count"),
        "dae.solve_constraint.self_s":
            (secs("dae.solve_constraint", "self_s"), "s"),
        "dae.solve_constraint.fail": (fails("dae.solve_constraint"), "count"),
        "dae.validate.s": (secs("dae.validate"), "s"),
        "degree.find_zeros.calls": (calls("degree.find_zeros"), "count"),
        "degree.find_zeros.s": (secs("degree.find_zeros"), "s"),
        "degree.find_zeros.self_s": (secs("degree.find_zeros", "self_s"), "s"),
        "degree.VectorField.jacobian.calls":
            (calls("degree.VectorField.jacobian"), "count"),
        "degree.VectorField.value.calls":
            (calls("degree.VectorField.value"), "count"),
        "degree.VectorField.jacobian_batch.rows":
            (last["degree.VectorField.jacobian_batch"]["rows"], "count"),
        "degree.VectorField.value_batch.rows":
            (last["degree.VectorField.value_batch"]["rows"], "count"),
        "degree.degree_boundary_oracle.calls":
            (calls("degree.degree_boundary_oracle"), "count"),
        "degree.degree_boundary_oracle.s":
            (secs("degree.degree_boundary_oracle"), "s"),
        "degree.boundary_margin.s": (secs("degree.boundary_margin"), "s"),
        "flow.time_T_map.calls": (calls("flow.time_T_map"), "count"),
        "flow.time_T_map.s": (secs("flow.time_T_map"), "s"),
        "flow.time_T_map.self_s": (secs("flow.time_T_map", "self_s"), "s"),
        "flow.time_T_map.steps_per_call": (per_call(
            under("dae.solve_constraint", "flow.time_T_map"),
            "flow.time_T_map"), "count/call"),
        "periodic.shoot.calls": (calls("periodic.shoot"), "count"),
        "periodic.shoot.ok": (shoot_ok, "count"),
        "periodic.shoot.ok_ratio": (per_call(shoot_ok, "periodic.shoot"), "ratio"),
        "periodic.shoot.maps_per_call": (per_call(
            under("flow.time_T_map", "periodic.shoot"), "periodic.shoot"),
            "count/call"),
        "periodic.continue_branch.maps":
            (under("flow.time_T_map", "periodic.continue_branch"), "count"),
        "periodic.multiplicity_scan.starts":
            (under("periodic.shoot", "periodic.multiplicity_scan"), "count"),
        "periodic.classify_resonance.s":
            (secs("periodic.classify_resonance"), "s"),
        "sysfile.load_system.s": (secs("sysfile.load_system"), "s"),
    }
    for name in ("flow.time_T_map", "periodic.shoot"):
        errs = last[name]["fail"]
        for kind in FAIL_KINDS:
            m[f"{name}.fail.{kind}"] = (errs.get(kind, 0), "count")
        m[f"{name}.fail.other"] = (
            sum(n for e, n in errs.items() if e not in FAIL_KINDS), "count")
    overhead = statistics.median(traced) / statistics.median(untraced) - 1.0
    m["trace.overhead_frac"] = (overhead, "ratio")
    return m


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cli = load_daekit()
    import_s = time.perf_counter() - T_START
    sys.path.insert(0, BENCH)
    import numpy as np
    from inputs import copy_fixture
    from tracer import Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(WORKLOADS)}")
    workdir = os.path.join(WORK, args.workload)
    builds, keys = [], set()
    for _ in range(BUILDS):
        t0 = time.perf_counter()
        shutil.rmtree(workdir, ignore_errors=True)
        os.makedirs(workdir)
        rng = np.random.default_rng([args.seed, 1])
        queries = WORKLOADS[args.workload](rng, workdir)
        for probe_argv, _ in PROBE:      # probe_<fixture>.sys
            fname = probe_argv[1]
            copy_fixture(fname[len("probe_"):-len(".sys")], workdir, fname)
        builds.append(time.perf_counter() - t0)
        keys.add(tuple(q.key for q in queries))
    if len(keys) != 1:
        raise RuntimeError("input build is not reproducible")
    os.chdir(workdir)

    shuffler = random.Random(args.seed)

    def order():
        idx = [i for i, q in enumerate(queries) for _ in range(q.repeat)]
        shuffler.shuffle(idx)
        return idx

    ledger = Ledger()
    probe = None if args.trace else Probe()
    tracer = Tracer() if args.trace else None
    passes, traced, summaries, batches = [], [], [], []
    start = time.perf_counter()
    cycle = 0.0     # length of the last round; stop at the boundary nearest
    while (time.perf_counter() - start + cycle / 2 < args.seconds
           or len(passes) < (1 if args.trace else MIN_PASSES)):
        round_start = time.perf_counter()
        passes.append(run_pass(cli, queries, order(), ledger, probe=probe))
        if tracer is not None:
            bindings = tracer.install()
            try:
                traced.append(run_pass(cli, queries, order(), ledger, tracer))
            finally:
                tracer.uninstall()
            batches.append(tracer.take())
            summaries.append(tracer.summary(batches[-1]))
        cycle = time.perf_counter() - round_start

    if tracer is None:
        slowness = statistics.median(probe.readings)
        setup_s = (import_s + statistics.median(builds)) / slowness
        metrics = end_to_end(queries, passes, setup_s, ledger, probe)
    else:
        tracer.save(os.path.join(workdir, "spans.npz"), batches)
        metrics = per_layer(summaries, list(map(pass_total, passes)),
                            list(map(pass_total, traced)))
        if metrics is None:
            ledger.failures.append("trace counts differ between passes")
            metrics = {}

    for failure in ledger.failures:
        print(f"FAILED {failure}")
    print(f"{args.workload} seed {args.seed}: {len(queries)} queries, "
          f"{len(passes)} timed passes, {len(traced)} traced")
    if tracer is not None:
        print(f"  trace: {bindings} bindings wrapped and restored; spans "
              f"in {workdir}")
    print("  pass totals (s, as measured): "
          + " ".join(f"{pass_total(p):.3f}" for p in passes))
    if probe is not None:
        print(f"  host slowness: {len(probe.readings)} readings, median "
              f"{statistics.median(probe.readings):.3f}, range "
              f"{min(probe.readings):.3f}-{max(probe.readings):.3f}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:44s} {value:>14.6g} {unit}")
    result = {
        "correct": not ledger.failures,
        "attempted": ledger.attempted,
        "failed": len(ledger.failures),
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
