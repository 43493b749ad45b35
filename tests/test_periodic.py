import math

import numpy as np
import pytest

from daekit import expr
from daekit.dae import Box, solve_constraint
from daekit.degree import chart_index, find_zeros
from daekit.errors import (
    BranchError,
    HypothesisViolationError,
    LeavesBoxError,
    ShootingError,
    SingularShootingError,
)
from daekit.flow import integrate
from daekit.linalg import det_sign, norm1
from daekit.periodic import (
    classify_resonance,
    continue_branch,
    merge_orbits,
    multiplicity_scan,
    multistart_starts,
    reduce_hessenberg,
    reduce_implicit,
    shoot,
)
from test_flow import rotation_system


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
        bp = shoot(equivlien, 0.0, np.array([5e-4]), np.zeros(1))
        assert abs(bp.p0[0]) <= 1e-9
        assert bp.sup_norm <= 1e-8
        assert bp.shooting_residual <= 1e-8

    def test_linear_response(self, equivlien):
        lam = 1e-3
        bp = shoot(equivlien, lam, np.zeros(1), np.zeros(1))
        # closed-form first order: x(t) = lam*(cos t + sin t)/2, x(0) = lam/2
        assert abs(bp.p0[0] - lam / 2) <= 1e-4 * lam
        assert bp.sup_norm == pytest.approx(lam * math.sqrt(2.0), rel=1e-3)

    def test_singular_at_resonant_zero(self, exmults):
        with pytest.raises(SingularShootingError):
            shoot(exmults, 0.0, np.zeros(1), np.zeros(1))

    def test_out_of_basin_guess_leaves_box(self, equivlien):
        # the eq. at 0 is unstable with rate e^{2pi}: 0.05 escapes within T
        with pytest.raises(LeavesBoxError):
            shoot(equivlien, 0.0, np.array([0.05]), np.array([-0.05]))

    def test_orbit_is_periodic(self, equivlien):
        # guess at the linear response x(0) ~ lam/2; from 0 the transient
        # (lam/2) e^t escapes the box at this forcing size
        bp = shoot(equivlien, 1e-2, np.array([5e-3]), np.zeros(1))
        start = bp.orbit.states[0]
        again = integrate(equivlien, bp.lam, bp.orbit.states[-1],
                          equivlien.period, 2 * equivlien.period)
        assert norm1(again.states[-1].z - start.z) <= 1e-6


class TestBranch:
    def test_reaches_lambda_max(self, equivlien):
        origin = find_zeros(equivlien, equivlien.box)[0]
        br = continue_branch(equivlien, origin, lambda_max=0.2, norm_bound=0.9)
        assert br.termination == "ReachedLambdaMax"
        first = br.points[0]
        assert first.lam == 0.0
        assert first.sup_norm <= 1e-10
        assert np.max(np.abs(first.orbit.array())) <= 1e-9  # trivial pair
        sups = [bp.sup_norm for bp in br.points]
        assert all(a < b for a, b in zip(sups, sups[1:]))
        for bp in br.points[1:]:
            assert bp.shooting_residual <= 1e-8
            # amplitude of the linear response, within a few percent
            assert bp.sup_norm == pytest.approx(bp.lam * math.sqrt(2), rel=0.05)

    def test_step_bound(self, equivlien):
        origin = find_zeros(equivlien, equivlien.box)[0]
        br = continue_branch(equivlien, origin, lambda_max=0.1, norm_bound=0.9)
        zs = [np.concatenate([bp.p0, [bp.lam]]) for bp in br.points]
        for (a, b, bp) in zip(zs, zs[1:], br.points[1:]):
            assert norm1(b - a) <= bp.ds * (1.0 + 1e-6)

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
        assert all(bp.shooting_residual <= 1e-8 for bp in br.points[1:])
        sups = [bp.sup_norm for bp in br.points]
        assert all(a < b for a, b in zip(sups, sups[1:]))


class TestMultiplicity:
    def test_two_orbits_at_small_forcing(self, exmults):
        orbits = multiplicity_scan(exmults, 0.01, grid_per_dim=8)
        assert len(orbits) >= 2
        near_zero = [bp for bp in orbits if abs(bp.orbit.mean_state()[0]) < 0.1]
        near_one = [bp for bp in orbits
                    if abs(bp.orbit.mean_state()[0] - 1.0) < 0.1]
        assert near_zero and near_one
        dist = np.max(np.abs(
            near_zero[0].orbit.array() - near_one[0].orbit.array()
        ).sum(axis=1))
        assert dist >= 0.5

    def test_lienard_unforced_single_orbit(self, equivlien):
        orbits = multiplicity_scan(equivlien, 0.0, grid_per_dim=8)
        assert len(orbits) == 1
        assert abs(orbits[0].p0[0]) <= 1e-9
        assert orbits[0].sup_norm <= 1e-8

    def test_unforced_orbits_are_near_constant(self, exmults):
        for bp in multiplicity_scan(exmults, 0.0, grid_per_dim=8):
            assert bp.sup_norm <= 1e-8

    @pytest.mark.parametrize("name, grid", [("exmults", 8), ("pozzo", 3)])
    def test_lockstep_equals_shooting_each_start_alone(self, name, grid,
                                                        request):
        sys = request.getfixturevalue(name)
        lam, steps = 0.01, 48
        starts = multistart_starts(sys, lam, grid)
        assert len(starts) > 8  # past the point-evaluation cutoff

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
            assert a.p0.tobytes() == b.p0.tobytes()
            assert a.shooting_residual == b.shooting_residual
            assert a.sup_norm == b.sup_norm
            assert a.orbit.array().tobytes() == b.orbit.array().tobytes()

    def test_merge_skips_failed_starts_and_raises_the_first_other(self):
        with pytest.raises(ValueError, match="first"):
            merge_orbits([ShootingError("skipped"), ValueError("first"),
                          LeavesBoxError("skipped", 1.0), ValueError("later")])
        assert merge_orbits([ShootingError("skipped")]) == []


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
