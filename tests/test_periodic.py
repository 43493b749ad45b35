import math

import numpy as np
import pytest

from daekit import expr, load_system
from daekit.dae import Box, ManifoldPoint, _solve_constraint_row
from daekit.degree import _first_seen, chart_index, find_zeros
from daekit.errors import (
    BranchError,
    HypothesisViolationError,
    LeavesBoxError,
    ShootingError,
    SingularMatrixError,
    SingularShootingError,
)
from daekit.flow import integrate
from daekit.linalg import det_sign, lu_solve, norm1
from daekit.periodic import (
    ORBIT_DEDUP,
    classify_resonance,
    continue_branch,
    merge_orbits,
    multiplicity_scan,
    multistart_starts,
    reduce_hessenberg,
    reduce_implicit,
    shoot,
)
from helpers import flow_oracle, merge_orbits_oracle
from test_flow import rotation_system
from test_golden import GOLDEN


class TestResonance:
    def test_two_wells_verdicts(self, exmults):
        zeros = find_zeros(exmults, exmults.box)
        v0 = classify_resonance(exmults, zeros[0])
        v1 = classify_resonance(exmults, zeros[1])
        assert v0.verdict == "Resonant"          # A = 0, n = 0 case
        assert v1.verdict == "NonResonant"
        assert v1.linearization[0, 0] == pytest.approx(1.0, abs=1e-9)
        assert v1.det_mi == pytest.approx(math.exp(2 * math.pi) - 1, rel=1e-9)

    def test_rotation_is_resonant(self):
        sys = rotation_system()
        z = find_zeros(sys, sys.box)[0]
        v = classify_resonance(sys, z)
        assert v.verdict == "Resonant"  # eigenvalues +-i = +-2*pi*i/T
        assert abs(v.det_mi) <= 1e-10

    def test_lienard_nonresonant(self, equivlien):
        z = find_zeros(equivlien, equivlien.box)[0]
        assert not classify_resonance(equivlien, z).resonant

    def test_nonresonant_implies_nondegenerate(self, equivlien, exmults):
        for sys in (equivlien, exmults):
            for z in find_zeros(sys, sys.box):
                if z.degenerate:
                    continue
                v = classify_resonance(sys, z)
                if not v.resonant:
                    sign, _ = det_sign(v.linearization, 1e-12)
                    assert chart_index(sys, z) == sign != 0


class TestShoot:
    def test_trivial_solution_from_nearby(self, equivlien):
        orbit = shoot(equivlien, 0.0, np.array([5e-4]), np.zeros(1))
        assert abs(orbit.start.p[0]) <= 1e-9
        assert orbit.sup_amplitude() <= 1e-8
        assert orbit.closure_residual <= 1e-8

    def test_linear_response(self, equivlien):
        lam = 1e-3
        orbit = shoot(equivlien, lam, np.zeros(1), np.zeros(1))
        # closed-form first order: x(t) = lam*(cos t + sin t)/2, x(0) = lam/2
        assert abs(orbit.start.p[0] - lam / 2) <= 1e-4 * lam
        assert orbit.sup_amplitude() == pytest.approx(lam * math.sqrt(2.0),
                                                      rel=1e-3)

    def test_singular_at_resonant_zero(self, exmults):
        # the residual at the resonant zero is already 0: the singularity
        # check comes before the convergence test, and the pivot error is
        # the cause
        with pytest.raises(SingularShootingError) as err:
            shoot(exmults, 0.0, np.zeros(1), np.zeros(1))
        assert str(err.value).startswith(
            "shooting Jacobian dP - I singular at p0 = ")
        cause = err.value.__cause__
        assert type(cause) is SingularMatrixError
        assert str(cause).startswith("pivot ")

    def test_out_of_basin_guess_leaves_box(self, equivlien):
        # the eq. at 0 is unstable with rate e^{2pi}: 0.05 escapes within T
        with pytest.raises(LeavesBoxError):
            shoot(equivlien, 0.0, np.array([0.05]), np.array([-0.05]))

    def test_orbit_is_periodic(self, equivlien):
        # guess at the linear response x(0) ~ lam/2; from 0 the transient
        # (lam/2) e^t escapes the box at this forcing size
        orbit = shoot(equivlien, 1e-2, np.array([5e-3]), np.zeros(1))
        again = integrate(equivlien, orbit.lam, orbit.end,
                          equivlien.period, 2 * equivlien.period)
        assert norm1(again.end.z - orbit.start.z) <= 1e-6


class TestBranch:
    def test_reaches_lambda_max(self, equivlien):
        origin = find_zeros(equivlien, equivlien.box)[0]
        br = continue_branch(equivlien, origin, lambda_max=0.2, norm_bound=0.9)
        assert br.termination == "ReachedLambdaMax"
        first = br.points[0]
        assert first.lam == 0.0 and br.ds[0] == 0.0
        assert first.sup_amplitude() <= 1e-10
        assert np.max(np.abs(first.zs)) <= 1e-9  # trivial pair
        sups = [orbit.sup_amplitude() for orbit in br.points]
        assert all(a < b for a, b in zip(sups, sups[1:]))
        for orbit, sup in zip(br.points[1:], sups[1:]):
            assert orbit.closure_residual <= 1e-8
            # amplitude of the linear response, within a few percent
            assert sup == pytest.approx(orbit.lam * math.sqrt(2), rel=0.05)

    def test_step_bound(self, equivlien):
        origin = find_zeros(equivlien, equivlien.box)[0]
        br = continue_branch(equivlien, origin, lambda_max=0.1, norm_bound=0.9)
        zs = [np.concatenate([orbit.start.p, [orbit.lam]])
              for orbit in br.points]
        assert len(br.ds) == len(br.points)
        for (a, b, ds) in zip(zs, zs[1:], br.ds[1:]):
            assert norm1(b - a) <= ds * (1.0 + 1e-6)

    def test_a_drifting_corrector_step_halves_the_step(self, equivlien):
        # at 128 steps a corrector step near lambda 0.5 exceeds the drift
        # bound; like any failed shot it halves ds, and the branch goes on
        origin = find_zeros(equivlien, equivlien.box)[0]
        br = continue_branch(equivlien, origin, 0.5, 1e6, steps=128)
        assert br.termination == "ReachedLambdaMax"
        assert br.points[-1].lam >= 0.5

    def test_drift_at_the_smallest_step_ends_the_branch(self, equivlien):
        origin = find_zeros(equivlien, equivlien.box)[0]
        br = continue_branch(equivlien, origin, 0.5, 1e6, steps=16)
        assert br.termination == "DriftExceeded"
        assert br.detail.startswith("constraint drift ")
        assert len(br.points) == len(br.ds) > 1

    def test_resonant_origin_rejected(self, exmults):
        origin = find_zeros(exmults, exmults.box)[0]
        with pytest.raises(BranchError):
            continue_branch(exmults, origin, lambda_max=0.1, norm_bound=1.0)

    def test_norm_bound_termination(self, equivlien):
        origin = find_zeros(equivlien, equivlien.box)[0]
        br = continue_branch(equivlien, origin, lambda_max=0.2,
                             norm_bound=1e-6)
        assert br.termination == "ExceededNormBound"
        assert len(br.points) == 2  # trivial pair + the offending step

    def test_planar_state_branch(self, pozzo):
        # k = 2 exercises the (k+1)-dimensional corrector systems
        origin = find_zeros(pozzo, pozzo.box)[0]
        assert not classify_resonance(pozzo, origin).resonant
        br = continue_branch(pozzo, origin, lambda_max=0.1, norm_bound=2.0)
        assert br.termination == "ReachedLambdaMax"
        assert all(orbit.closure_residual <= 1e-8 for orbit in br.points[1:])
        sups = [orbit.sup_amplitude() for orbit in br.points]
        assert all(a < b for a, b in zip(sups, sups[1:]))


class TestMultiplicity:
    def test_two_orbits_at_small_forcing(self, exmults):
        orbits = multiplicity_scan(exmults, 0.01, grid_per_dim=8)
        assert len(orbits) >= 2
        near_zero = [o for o in orbits if abs(o.mean_state()[0]) < 0.1]
        near_one = [o for o in orbits if abs(o.mean_state()[0] - 1.0) < 0.1]
        assert near_zero and near_one
        dist = np.max(np.abs(near_zero[0].zs - near_one[0].zs).sum(axis=1))
        assert dist >= 0.5

    def test_lienard_unforced_single_orbit(self, equivlien):
        orbits = multiplicity_scan(equivlien, 0.0, grid_per_dim=8)
        assert len(orbits) == 1
        assert abs(orbits[0].start.p[0]) <= 1e-9
        assert orbits[0].sup_amplitude() <= 1e-8

    def test_unforced_orbits_are_near_constant(self, exmults):
        for orbit in multiplicity_scan(exmults, 0.0, grid_per_dim=8):
            assert orbit.sup_amplitude() <= 1e-8

    @pytest.mark.parametrize("name, grid", [("exmults", 8), ("pozzo", 3)])
    def test_lockstep_equals_shooting_each_start_alone(self, name, grid,
                                                        request):
        sys = request.getfixturevalue(name)
        lam, steps = 0.01, 48
        starts = multistart_starts(sys, lam, grid, steps)
        assert len(starts) > 8

        def alone(p, q):
            try:
                return shoot(sys, lam, p, q, steps=steps)
            except Exception as exc:  # merged exactly as the scan merges
                return exc

        want = merge_orbits([alone(p, q) for p, q in starts])
        got = multiplicity_scan(sys, lam, grid_per_dim=grid, steps=steps)
        assert len(got) == len(want) >= 1
        for a, b in zip(got, want):
            assert a.lam == b.lam
            assert a.start.p.tobytes() == b.start.p.tobytes()
            assert a.closure_residual == b.closure_residual
            assert a.zs.tobytes() == b.zs.tobytes()

    @pytest.mark.parametrize("name, seeded", [
        ("equivlien", 1), ("pozzo", 1), ("r21", 2)])
    def test_each_seed_is_the_branch_first_predictor(self, name, seeded,
                                                     request):
        # the seed of a non-resonant zero is p* + lam * (S - I)^-1 (-v),
        # with S and v from the oracle's 64-step time-T map at lambda = 0
        if name == "r21":
            sys = load_system(str(GOLDEN / "r21.sys"))
        else:
            sys = request.getfixturevalue(name)
        lam, steps, k = 0.01, 64, sys.k
        starts = iter(multistart_starts(sys, lam, 1, steps))
        seeds = 0
        for z in find_zeros(sys, sys.box, grid_per_dim=16):
            p, q = next(starts)
            assert p.tobytes() == z.point[:k].tobytes()
            if z.degenerate or classify_resonance(sys, z).resonant:
                continue
            q0, rn = _solve_constraint_row(sys, tuple(z.point[:k].tolist()),
                                           tuple(z.point[k:].tolist()))
            start = ManifoldPoint(z.point[:k].copy(), np.array(q0), rn)
            traj = flow_oracle(sys, 0.0, start, 0.0, sys.period, steps,
                               want_sensitivity=True, want_lambda=True)
            d = lu_solve(traj.sensitivity - np.eye(k),
                         -traj.lambda_sensitivity)
            p, q = next(starts)
            assert p.tobytes() == (z.point[:k] + lam * d).tobytes()
            assert q.tobytes() == z.point[k:].tobytes()
            seeds += 1
        assert seeds == seeded
        assert len(list(starts)) == 1  # the one grid start

    def test_lienard_seed_is_the_first_order_response(self, equivlien):
        # near x = 0 the reduced Lienard equation is x' = x - lam * sin t,
        # whose periodic solution starts at x(0) = lam / 2
        lam = 1e-3
        starts = multistart_starts(equivlien, lam, 1, 128)
        assert len(starts) == 3
        assert abs(starts[1][0][0] - lam / 2) <= 1e-4 * lam

    def test_merge_skips_failed_starts_and_raises_the_first_other(self):
        with pytest.raises(ValueError, match="first"):
            merge_orbits([ShootingError("skipped"), ValueError("first"),
                          LeavesBoxError("skipped", 1.0), ValueError("later")])
        assert merge_orbits([ShootingError("skipped")]) == []

    def test_first_seen_equals_the_pairwise_orbit_loop(self):
        # stacked (N, T, n) orbits on a lattice of ORBIT_DEDUP, so that
        # many pairs lie at exactly the radius, plus orbits with nan
        rng = np.random.default_rng(41)
        base = rng.integers(-1, 2, (6, 9, 3)) * ORBIT_DEDUP
        orbits = base[rng.integers(6, size=80)]
        step = rng.integers(-1, 2, orbits.shape) * ORBIT_DEDUP
        orbits = orbits + step * (rng.random(orbits.shape) < 0.05)
        orbits[3::11, 4, 0] = np.nan
        orbits[20] = np.nan
        tie = np.zeros((2, 9, 3))
        tie[1, 5, 2] = ORBIT_DEDUP  # exactly at the radius from tie[0]
        orbits = np.concatenate([tie, orbits])
        for r in (ORBIT_DEDUP, 0.0, 2 * ORBIT_DEDUP):
            got = _first_seen(orbits, r)
            want = merge_orbits_oracle(orbits, r)
            assert got.tolist() == want
        assert 1 not in _first_seen(orbits, ORBIT_DEDUP)


class TestReduceHessenberg:
    names3 = ["x1", "x2", "y1"]

    def test_linear_output(self):
        f = [expr.parse("x2 + y1", self.names3), expr.parse("-x1", self.names3)]
        gamma = [expr.parse("x1", ["x1", "x2"])]
        box = Box.from_pairs([(-2, 2), (-2, 2), (-2, 2)])
        sysdef = reduce_hessenberg(f, gamma, box)
        assert expr.to_string(sysdef.g[0]) == "x2 + y1"
        env = sysdef.env(np.array([0.3, -0.7]), np.array([0.2]))
        assert sysdef.eval_g(env)[0] == pytest.approx(-0.5)

    def test_unreachable_constraint_fails(self):
        f = [expr.parse("x2", self.names3), expr.parse("-x1 + y1", self.names3)]
        gamma = [expr.parse("x1", ["x1", "x2"])]
        box = Box.from_pairs([(-2, 2), (-2, 2), (-2, 2)])
        with pytest.raises(HypothesisViolationError):
            reduce_hessenberg(f, gamma, box)  # dgamma . d2f = 0

    def test_sign_change_fails(self):
        f = [expr.parse("x2 + y1", self.names3), expr.parse("-x1", self.names3)]
        gamma = [expr.parse("x1^2", ["x1", "x2"])]
        box = Box.from_pairs([(-2, 2), (-2, 2), (-2, 2)])
        with pytest.raises(HypothesisViolationError):
            reduce_hessenberg(f, gamma, box)  # d2g = 2 x1 changes sign

    def test_y_dependent_constraint_rejected(self):
        f = [expr.parse("x2", self.names3), expr.parse("-x1", self.names3)]
        gamma = [expr.parse("y1", ["x1", "x2", "y1"])]
        box = Box.from_pairs([(-2, 2), (-2, 2), (-2, 2)])
        with pytest.raises(ValueError):
            reduce_hessenberg(f, gamma, box)


class TestReduceImplicit:
    def test_linear(self):
        phi = [expr.parse("y1 - x1", ["x1", "y1"])]
        box = Box.from_pairs([(-1, 1), (-1, 1)])
        sysdef, deg = reduce_implicit(phi, None, 2 * math.pi, box)
        assert deg == 1
        assert expr.to_string(sysdef.f[0]) == "y1"
        assert sysdef.s == 1

    def test_cubic(self):
        phi = [expr.parse("y1 + x1^3", ["x1", "y1"])]
        h = [expr.parse("cos(t)", ["x1", "t"])]
        box = Box.from_pairs([(-1, 1), (-1, 1)])
        sysdef, deg = reduce_implicit(phi, h, 2 * math.pi, box)
        assert deg == -1
        # forcing is folded into the x-equation with a negative sign
        env = sysdef.env(np.zeros(1), np.zeros(1), t=0.0)
        assert sysdef.eval_h(env)[0] == -1.0

    def test_degenerate_phi_fails(self):
        phi = [expr.parse("y1^2 + x1", ["x1", "y1"])]
        box = Box.from_pairs([(-1, 1), (-1, 1)])
        with pytest.raises(HypothesisViolationError):
            reduce_implicit(phi, None, 2 * math.pi, box)

    def test_planar_implicit(self):
        # k = 2: the slice degree goes through the planar winding fallback
        names = ["x1", "x2", "y1", "y2"]
        phi = [expr.parse("y1 - x2", names), expr.parse("y2 + x1^3", names)]
        box = Box.from_pairs([(-1, 1)] * 4)
        sysdef, deg = reduce_implicit(phi, None, 2 * math.pi, box)
        assert (sysdef.k, sysdef.s) == (2, 2)
        # slice map (-p2, p1^3) is a quarter turn of (p1^3, p2): degree +1
        assert deg == -1
