"""The benchmark's three query lists and the answer check of every query.

Every workload holds all seven subcommands, so each per-subcommand metric
exists on every workload; the queries a workload is not about are kept
small. Each query is a daekit argv plus a check of (exit code, report).
Reference answers of the fixtures come from the acceptance criteria; the
seeded random systems are checked with the benchmark's own polynomial
arithmetic (inputs.PolySystem), not with daekit.
"""

import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.linalg

import inputs

SUBCOMMANDS = ("check", "degree", "zeros", "resonance", "shoot", "branch",
               "multiplicity")
SHOOT_TOL = 1e-8
ZERO_TOL = 1e-10


class WrongAnswer(Exception):
    pass


def expect(cond, message):
    if not cond:
        raise WrongAnswer(message)


@dataclass
class Query:
    argv: list
    check: Callable
    exit_code: int = 0
    repeat: int = 1          # runs per pass; more samples for short queries

    @property
    def sub(self):
        return self.argv[0]

    @property
    def key(self):
        return " ".join(self.argv)

    def verify(self, rc, report):
        expect(rc == self.exit_code, f"exit code {rc}, expected {self.exit_code}")
        self.check(report)


# -- checks of the fixtures -------------------------------------------------


def _near(point, target, tol):
    return float(np.max(np.abs(np.asarray(point) - target))) <= tol


def check_ok(sign):
    def check(rep):
        expect(rep["ok"] is True, "hypothesis rejected")
        expect(rep["sign_d2g"] == sign, f"sign_d2g {rep['sign_d2g']} != {sign}")
    return check


def check_violation(rep):
    expect(rep["ok"] is False, "hypothesis accepted")
    w = rep["witness"]
    expect(w is not None and all(math.isfinite(v) for v in w), "no witness")


def check_zeros(targets, degenerate, tol=1e-8):
    """Zeros at the given points (in order), flagged as given."""
    def check(rep):
        zs = rep["zeros"]
        expect(len(zs) == len(targets), f"{len(zs)} zeros, expected {len(targets)}")
        for z, t, d in zip(zs, targets, degenerate):
            expect(_near(z["point"], t, tol), f"zero {z['point']} not at {t}")
            expect(z["degenerate"] is d, f"zero at {t}: degenerate {z['degenerate']}")
            expect(z["residual"] <= ZERO_TOL, f"zero residual {z['residual']}")
    return check


def check_degree(deg_f, deg_psi, zeros=None):
    def check(rep):
        expect(rep["deg_F"] == deg_f, f"deg_F {rep['deg_F']} != {deg_f}")
        expect(rep["deg_Psi"] == deg_psi, f"deg_Psi {rep['deg_Psi']} != {deg_psi}")
        expect(rep["oracle_agrees"] is True, "oracle disagrees")
        if zeros is not None:
            zeros(rep)
    return check


def check_verdicts(expected):
    def check(rep):
        got = [v["verdict"] for v in rep["verdicts"]]
        expect(got == expected, f"verdicts {got} != {expected}")
    return check


def check_orbit(p0=None, tol=None):
    def check(rep):
        expect(rep["shooting_residual"] <= SHOOT_TOL,
               f"shooting residual {rep['shooting_residual']}")
        if p0 is not None:
            expect(_near(rep["p0"], p0, tol), f"p0 {rep['p0']} not near {p0}")
    return check


def check_branch(termination):
    def check(rep):
        expect(rep["termination"] == termination,
               f"termination {rep['termination']} != {termination}")
        pts = rep["points"]
        expect(pts[-1]["lambda"] >= rep["lambda_max"], "lambda_max not reached")
        worst = max(p["shooting_residual"] for p in pts)
        expect(worst <= SHOOT_TOL, f"branch residual {worst}")
    return check


def check_count(count):
    def check(rep):
        expect(rep["count"] == count, f"{rep['count']} orbits, expected {count}")
        worst = max(o["shooting_residual"] for o in rep["orbits"])
        expect(worst <= SHOOT_TOL, f"orbit residual {worst}")
    return check


# -- checks of the seeded random systems ------------------------------------


def _box_contains(poly, z):
    return bool(np.all(np.abs(np.asarray(z)) <= inputs.HALF_WIDTH))


def _d2g_sign(poly):
    jac = poly.jacobian(np.zeros(poly.k + poly.s))
    return int(np.sign(np.linalg.det(jac[poly.k:, poly.k:])))


def _reduced(poly, z):
    jac, k = poly.jacobian(np.asarray(z, dtype=float)), poly.k
    return jac[:k, :k] - jac[:k, k:] @ np.linalg.solve(jac[k:, k:], jac[k:, :k])


def _check_zero(poly, z):
    expect(_box_contains(poly, z["point"]), f"zero {z['point']} outside box")
    own = float(np.sum(np.abs(poly.value(np.asarray(z["point"])))))
    expect(own <= ZERO_TOL and z["residual"] <= ZERO_TOL,
           f"zero residual {own} (reported {z['residual']})")
    expect(not z["degenerate"], f"zero {z['point']} flagged degenerate")


def random_check(poly):
    return check_ok(_d2g_sign(poly))


def random_zeros(poly):
    def check(rep):
        for z in rep["zeros"]:
            _check_zero(poly, z)
    return check


def random_degree(poly):
    """Criterion 5: sign(det d2g) * deg_F equals the sum of chart indices."""
    def check(rep):
        sign = _d2g_sign(poly)
        expect(rep["sign_d2g"] == sign, f"sign_d2g {rep['sign_d2g']} != {sign}")
        charts = 0
        for z in rep["zeros"]:
            _check_zero(poly, z)
            charts += int(np.sign(np.linalg.det(_reduced(poly, z["point"]))))
        expect(sign * rep["deg_F"] == charts,
               f"sign * deg_F = {sign * rep['deg_F']} != chart sum {charts}")
        expect(rep["deg_Psi"] == sign * rep["deg_F"], "deg_Psi != sign * deg_F")
    return check


def random_resonance(poly):
    """Each verdict sits at a zero; a clearly regular exp(AT) - I must read
    NonResonant and its determinant must match ours."""
    def check(rep):
        for v in rep["verdicts"]:
            _check_zero(poly, {"point": v["point"], "residual": 0.0,
                               "degenerate": False})
            mi = scipy.linalg.expm(_reduced(poly, v["point"]) * inputs.PERIOD)
            det = float(np.linalg.det(mi - np.eye(poly.k)))
            expect(abs(v["det_MI"] - det) <= 1e-6 * max(1.0, abs(det)),
                   f"det_MI {v['det_MI']} != {det}")
            if abs(det) > 1e-3:
                expect(v["verdict"] == "NonResonant", f"verdict {v['verdict']}")
    return check


# -- the workloads ----------------------------------------------------------

ORBIT_STEPS = "128"
LIGHT_STEPS = "32"


def _light_orbits():
    """One small query of each orbit subcommand (cubic-well and Lienard).

    The forced cubic-well orbit starts at the linear response
    lambda * (1, 1) up to O(lambda^2)."""
    return [
        Query(["shoot", "pozzo.sys", "--lambda", "0.01", "--guess", "0,0",
               "--steps", LIGHT_STEPS], check_orbit([0.01, 0.01], 1e-3),
              repeat=3),
        Query(["branch", "equivlien.sys", "--lambda-max", "0.01",
               "--norm-bound", "0.9", "--steps", LIGHT_STEPS],
              check_branch("ReachedLambdaMax"), repeat=4),
        Query(["multiplicity", "pozzo.sys", "--lambda", "0.01", "--grid", "2",
               "--steps", LIGHT_STEPS], check_count(1), repeat=2),
    ]


POZZO_ZEROS = check_zeros([np.zeros(3)], [False])


def degree_regular(rng, workdir):
    """Batched zero sweeps on nondegenerate systems, up to 65 536 starts."""
    for name in ("pozzo", "equivlien"):
        inputs.copy_fixture(name, workdir)
    queries = [
        Query(["check", "pozzo.sys"], check_ok(1)),
        Query(["degree", "pozzo.sys"], check_degree(1, 1, POZZO_ZEROS)),
        Query(["resonance", "pozzo.sys"], check_verdicts(["NonResonant"])),
        Query(["zeros", "pozzo.sys"], POZZO_ZEROS),
    ]
    for poly in inputs.load_pool():
        poly = inputs.conjugate(poly, rng)
        fname = f"r{poly.k}{poly.s}.sys"
        with open(os.path.join(workdir, fname), "w", encoding="utf-8") as fh:
            fh.write(poly.text(fname))
        queries += [
            Query(["check", fname], random_check(poly)),
            Query(["degree", fname], random_degree(poly)),
        ]
        if poly.k + poly.s < 4:
            queries += [
                Query(["resonance", fname], random_resonance(poly)),
                Query(["zeros", fname], random_zeros(poly)),
            ]
    return queries + _light_orbits()


def degree_degenerate(rng, workdir):
    """Degenerate zeros: long scalar polish loops, dedup and the oracles."""
    for name in ("exmults", "degen3", "eqex1", "eqex2", "pozzo", "equivlien"):
        inputs.copy_fixture(name, workdir)
    exmults_zeros = check_zeros([np.zeros(2), np.ones(2)], [True, False])
    degen3_zeros = check_zeros([np.zeros(3)], [True], tol=1e-6)
    return [
        Query(["zeros", "exmults.sys"], exmults_zeros),
        Query(["degree", "exmults.sys"], check_degree(0, 0, exmults_zeros)),
        Query(["resonance", "exmults.sys"],
              check_verdicts(["Resonant", "NonResonant"])),
        Query(["zeros", "degen3.sys", "--grid", "8"], degen3_zeros),
        Query(["degree", "degen3.sys", "--grid", "8"],
              check_degree(0, 0, degen3_zeros)),
        Query(["check", "eqex1.sys"], check_violation, exit_code=2, repeat=6),
        Query(["check", "eqex2.sys"], check_violation, exit_code=2, repeat=6),
    ] + _light_orbits()


def orbits(rng, workdir):
    """Shooting, continuation and the multistart scan on the time-T map."""
    for name in ("equivlien", "pozzo", "exmults"):
        inputs.copy_fixture(name, workdir)
    lienard_zero = check_zeros([np.zeros(2)], [False])
    return [
        Query(["shoot", "equivlien.sys", "--lambda", "1e-3", "--guess", "0",
               "--steps", ORBIT_STEPS], check_orbit([5e-4], 1e-5)),
        Query(["shoot", "pozzo.sys", "--lambda", "0.01",
               "--steps", ORBIT_STEPS], check_orbit()),
        Query(["branch", "equivlien.sys", "--lambda-max", "0.1",
               "--norm-bound", "0.9", "--steps", ORBIT_STEPS],
              check_branch("ReachedLambdaMax")),
        Query(["multiplicity", "exmults.sys", "--lambda", "0.01",
               "--steps", ORBIT_STEPS], check_count(2)),
        Query(["check", "pozzo.sys"], check_ok(1), repeat=4),
        Query(["zeros", "equivlien.sys"], lienard_zero, repeat=6),
        Query(["degree", "equivlien.sys"], check_degree(1, 1, lienard_zero),
              repeat=4),
        Query(["resonance", "equivlien.sys"], check_verdicts(["NonResonant"]),
              repeat=4),
    ]


WORKLOADS = {
    "degree-regular": degree_regular,
    "degree-degenerate": degree_degenerate,
    "orbits": orbits,
}
