"""Acceptance criteria, one test per criterion, each printing PASS or FAIL.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
complete.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from daekit import expr
from daekit.dae import Box, solve_constraint, validate
from daekit.degree import (
    VectorField,
    _winding_number,
    chart_index,
    degree_boundary_oracle,
    degree_sum,
    find_zeros,
    tangent_field_degree,
)
from daekit.errors import (
    ConstraintSolveError,
    ExprDomainError,
    HypothesisViolationError,
    SingularMatrixError,
)
from daekit.flow import integrate, time_T_map
from daekit.linalg import norm1
from daekit.periodic import classify_resonance, continue_branch, multiplicity_scan, shoot
from helpers import random_planar_map, random_poly, random_system, usable_tree_and_point


@contextmanager
def criterion(num, desc):
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {num} FAIL: {desc}")
        raise
    print(f"\nACCEPTANCE {num} PASS: {desc}")


def test_criterion_1_cubic_well_degree(pozzo):
    with criterion(1, "cubic-well fixture: unique zero, deg_F = deg_Psi = 1, "
                      "< 5 s at grid 16"):
        start = time.perf_counter()
        rep = tangent_field_degree(pozzo, grid_per_dim=16)
        elapsed = time.perf_counter() - start
        assert len(rep.zeros) == 1
        assert np.max(np.abs(rep.zeros[0].point)) <= 1e-8
        assert rep.deg_f == 1
        assert rep.sign_d2g == 1
        assert rep.deg_psi == 1
        assert elapsed < 5.0


def test_criterion_2_lienard_chain(equivlien):
    with criterion(2, "Lienard fixture: degree 1, non-resonant origin, "
                      "linear-response shooting, branch reaches lambda_max"):
        rep = tangent_field_degree(equivlien)
        assert rep.deg_f == 1
        assert len(rep.zeros) == 1
        origin = rep.zeros[0]
        assert np.max(np.abs(origin.point)) <= 1e-10
        assert classify_resonance(equivlien, origin).verdict == "NonResonant"
        lam = 1e-3
        orbit = shoot(equivlien, lam, np.zeros(1), np.zeros(1))
        assert abs(orbit.start.p[0] - 5e-4) <= 1e-5
        branch = continue_branch(equivlien, origin, lambda_max=0.1,
                                 norm_bound=0.9)
        assert branch.termination == "ReachedLambdaMax"


def test_criterion_3_two_wells(exmults):
    with criterion(3, "two-equilibria fixture: zero set, degree 0 by oracle, "
                      "resonance split, >= 2 forced orbits"):
        zeros = find_zeros(exmults, exmults.box)
        assert len(zeros) == 2
        z0, z1 = zeros
        assert norm1(z0.point) <= 1e-8
        assert norm1(z1.point - 1.0) <= 1e-8
        assert z0.degenerate and z0.index is None
        assert z1.index == 1
        assert degree_boundary_oracle(exmults, exmults.box) == 0
        assert classify_resonance(exmults, z0).verdict == "Resonant"
        assert classify_resonance(exmults, z1).verdict == "NonResonant"
        orbits = multiplicity_scan(exmults, 0.01, grid_per_dim=8)
        assert len(orbits) >= 2
        arrays = [orbit.zs for orbit in orbits]
        seps = [
            float(np.max(np.abs(a - b).sum(axis=1)))
            for i, a in enumerate(arrays) for b in arrays[i + 1 :]
        ]
        assert max(seps) >= 0.5


def test_criterion_4_degenerate_fixtures(eqex1, eqex2):
    with criterion(4, "degenerate fixtures rejected with pinned witnesses"):
        with pytest.raises(HypothesisViolationError) as err1:
            validate(eqex1)
        assert norm1(err1.value.witness) <= 1e-2
        with pytest.raises(HypothesisViolationError) as err2:
            validate(eqex2)
        w = err2.value.witness
        assert abs(abs(w[0]) - 1.0) <= 1e-2
        assert abs(w[1]) <= 1e-2


def test_criterion_5_degree_identity():
    with criterion(5, "20 random validated systems: sign(det d2g) * deg(F) "
                      "equals the chart-index sum exactly"):
        rng = np.random.default_rng(1234)
        combos = [(1, 1), (1, 2), (2, 1), (2, 2)] * 5
        for k, s in combos:
            sysdef, zeros = random_system(rng, k, s)
            sign = validate(sysdef, samples=256).sign
            deg_f = degree_sum(zeros, sysdef.box)
            chart_sum = sum(chart_index(sysdef, z) for z in zeros)
            assert sign * deg_f == chart_sum


def test_criterion_6_oracle_equivalence():
    with criterion(6, "25 random planar maps: signed zero sum equals the "
                      "winding oracle exactly"):
        rng = np.random.default_rng(4321)
        for _ in range(25):
            fld, box, zeros = random_planar_map(rng)
            assert degree_sum(zeros, box) == _winding_number(fld, box)


def test_criterion_7_slice_reduction():
    with criterion(7, "10 random scalar maps: planar degree of (q, w(p,q)) "
                      "equals minus the slice degree exactly"):
        rng = np.random.default_rng(777)
        names = ["x1", "y1"]
        box = Box.from_pairs([(-1.5, 1.5), (-1.5, 1.5)])
        slice_box = box.subbox([0])
        done = 0
        while done < 10:
            omega = random_poly(rng, names, max_degree=3, coeff_scale=2.0,
                                n_terms=5)
            sliced = expr.substitute(omega, {"y1": 0.0})
            slice_fld = VectorField([sliced], ["x1"])
            va = slice_fld.value(slice_box.lo)[0]
            vb = slice_fld.value(slice_box.hi)[0]
            if abs(va) < 1e-3 or abs(vb) < 1e-3:
                continue
            szeros = find_zeros(slice_fld, slice_box, grid_per_dim=32)
            if any(z.degenerate or z.near_boundary for z in szeros):
                continue
            lifted = VectorField([expr.Var("y1"), omega], names)
            try:
                direct = _winding_number(lifted, box)
            except Exception:
                continue
            assert direct == -degree_sum(szeros, slice_box)
            done += 1


def manifold_samples(sys, n, q_guess, seed=9):
    rng = np.random.default_rng(seed)
    k = sys.k
    out = []
    while len(out) < n:
        p = rng.uniform(sys.box.lo[:k], sys.box.hi[:k])
        try:
            out.append(solve_constraint(sys, p, q_guess))
        except (SingularMatrixError, ConstraintSolveError):
            continue
    return out


def test_criterion_8_numerical_hygiene(pozzo, equivlien, exmults):
    with criterion(8, "hygiene: AD vs differences, tangency defects, "
                      "constraint drift, sensitivity checks"):
        # forward AD against central differences, 1000 random samples
        rng = np.random.default_rng(88)
        names = ["t", "x1", "y1"]
        h = 1e-6
        checked = 0
        while checked < 1000:
            tree, env, seed = usable_tree_and_point(rng, names, need_dual=True)
            _, d = expr.evaluate_dual(tree, env, seed)
            try:
                plus = expr.evaluate(
                    tree, {k: v + h * seed.get(k, 0.0) for k, v in env.items()}
                )
                minus = expr.evaluate(
                    tree, {k: v - h * seed.get(k, 0.0) for k, v in env.items()}
                )
            except ExprDomainError:
                continue
            fd = (plus - minus) / (2 * h)
            if not np.isfinite(fd) or abs(fd) > 1e5:
                continue
            assert abs(d - fd) <= 1e-6 * (1.0 + abs(d))
            checked += 1

        # tangency defect of both induced fields on 1000 manifold points
        from daekit.dae import forcing_field, tangency_defect, tangent_field

        for mp in manifold_samples(pozzo, 1000, np.array([0.5])):
            v = tangent_field(pozzo, mp)
            assert tangency_defect(pozzo, mp, v) <= 1e-10 * (1 + norm1(v))
            w = forcing_field(pozzo, 1.2345, mp)
            assert tangency_defect(pozzo, mp, w) <= 1e-10 * (1 + norm1(w))

        # integrator drift over one period on every valid fixture
        cases = [
            (pozzo, np.array([0.1, 0.1]), np.array([0.01]), 0.01),
            (equivlien, np.array([1e-3]), np.zeros(1), 1e-3),
            (exmults, np.array([0.5]), np.array([0.25]), 0.01),
        ]
        for sys, p, q, lam in cases:
            mp = solve_constraint(sys, p, q)
            traj = integrate(sys, lam, mp, 0.0, sys.period)
            assert traj.max_constraint_drift <= 1e-8

        # variational sensitivity against central differences (scaled)
        delta = 1e-5
        for sys, p0, qg, lam in [
            (pozzo, np.array([0.1, -0.05]), np.array([0.01]), 0.0),
            (equivlien, np.array([2e-4]), np.zeros(1), 1e-3),
        ]:
            res = time_T_map(sys, lam, p0, qg)
            for i in range(sys.k):
                e = np.zeros(sys.k)
                e[i] = delta
                plus = time_T_map(sys, lam, p0 + e, qg).end.p
                minus = time_T_map(sys, lam, p0 - e, qg).end.p
                fd = (plus - minus) / (2 * delta)
                err = np.max(np.abs(res.sensitivity[:, i] - fd))
                assert err <= 1e-5 * (1.0 + np.max(np.abs(fd)))
