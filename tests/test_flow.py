import math

import numpy as np
import pytest

from daekit import expr
from daekit.dae import Box, SystemDef, solve_constraint
from daekit.degree import find_zeros, reduced_matrix
from daekit.errors import ExprDomainError, LeavesBoxError, SingularMatrixError
from daekit.flow import integrate, time_T_map
from daekit.linalg import expm, norm1
from daekit.periodic import classify_resonance
from helpers import same_bits


def rotation_system():
    """k=2, s=1 system whose reduced linearization at the origin is a rotation."""
    names = ["x1", "x2", "y1"]
    f = [expr.parse("-x2", names), expr.parse("x1", names)]
    g = [expr.parse("y1", names)]
    return SystemDef(2, 1, 2 * math.pi, f, g, None,
                     Box.from_pairs([(-2, 2), (-2, 2), (-1, 1)]))


class TestIntegrate:
    def test_constant_at_equilibrium(self, pozzo):
        mp = solve_constraint(pozzo, np.zeros(2), np.zeros(1))
        traj = integrate(pozzo, 0.0, mp, 0.0, pozzo.period, steps=128)
        assert traj.max_constraint_drift == 0.0
        assert np.max(np.abs(traj.zs)) <= 1e-12
        assert traj.times[0] == 0.0 and traj.times[-1] == pozzo.period

    def test_lienard_growth(self, equivlien):
        mp = solve_constraint(equivlien, np.array([0.1]), np.array([-0.1]))
        traj = integrate(equivlien, 0.0, mp, 0.0, 1.0, steps=128)
        xs = traj.zs[:, 0]
        assert np.all(np.diff(xs) > 0)  # reduced equation is x' ~ x near 0
        assert xs[-1] / xs[0] == pytest.approx(math.e, rel=0.05)

    def test_cubic_well_spiral_decay(self, pozzo):
        mp = solve_constraint(pozzo, np.array([0.1, 0.0]), np.array([0.01]))
        traj = integrate(pozzo, 0.0, mp, 0.0, 20.0, steps=1024)
        norms = np.abs(traj.zs[:, :2]).sum(axis=1)
        probes = norms[[0, 256, 512, 768, 1024]]
        assert np.all(np.diff(probes) < 0)
        assert norms[-1] <= 1e-4
        assert traj.max_constraint_drift <= 1e-8

    def test_leaves_box(self, equivlien):
        mp = solve_constraint(equivlien, np.array([0.05]), np.array([-0.05]))
        with pytest.raises(LeavesBoxError) as err:
            integrate(equivlien, 0.0, mp, 0.0, equivlien.period)
        assert 2.0 < err.value.exit_time < 3.0

    def test_drift_bound_on_fixtures(self, pozzo, equivlien, exmults):
        cases = [
            (pozzo, np.array([0.1, 0.1]), np.array([0.01]), 0.01),
            (equivlien, np.array([1e-3]), np.array([0.0]), 1e-3),
            (exmults, np.array([0.5]), np.array([0.25]), 0.01),
        ]
        for sys, p, q, lam in cases:
            mp = solve_constraint(sys, p, q)
            traj = integrate(sys, lam, mp, 0.0, sys.period)
            assert traj.max_constraint_drift <= 1e-8


class TestTimeTMap:
    def test_sensitivity_is_monodromy_at_equilibrium(self, pozzo):
        z = find_zeros(pozzo, pozzo.box)[0]
        res = time_T_map(pozzo, 0.0, z.point[:2], z.point[2:])
        expected = expm(reduced_matrix(pozzo, z.point) * pozzo.period)
        assert np.max(np.abs(res.end.p - z.point[:2])) <= 1e-12
        assert np.max(np.abs(res.sensitivity - expected)) <= 1e-6

    def test_lienard_expansion_rate(self, equivlien):
        res = time_T_map(equivlien, 0.0, np.zeros(1), np.zeros(1))
        want = math.exp(2 * math.pi)
        assert res.end.p[0] == pytest.approx(0.0, abs=1e-12)
        assert res.sensitivity[0, 0] == pytest.approx(want, rel=1e-4)

    def test_step_doubling_consistency(self, equivlien):
        r1 = time_T_map(equivlien, 1e-3, np.array([5e-4]), np.zeros(1), steps=512)
        r2 = time_T_map(equivlien, 1e-3, np.array([5e-4]), np.zeros(1), steps=1024)
        assert norm1(r1.end.p - r2.end.p) <= 1e-8

    def test_sensitivity_matches_finite_differences(self, pozzo, equivlien):
        # scaled by 1 + |column|: the expansive Lienard map (dP ~ e^{2pi})
        # makes the central difference itself carry O(1e-3) truncation error
        delta = 1e-5
        cases = [
            (equivlien, np.array([2e-4]), np.zeros(1), 1e-3),
            (pozzo, np.array([0.1, -0.05]), np.array([0.01]), 0.0),
        ]
        for sys, p0, qg, lam in cases:
            res = time_T_map(sys, lam, p0, qg)
            for i in range(sys.k):
                e = np.zeros(sys.k)
                e[i] = delta
                plus = time_T_map(sys, lam, p0 + e, qg).end.p
                minus = time_T_map(sys, lam, p0 - e, qg).end.p
                fd = (plus - minus) / (2 * delta)
                err = np.max(np.abs(res.sensitivity[:, i] - fd))
                assert err <= 1e-5 * (1.0 + np.max(np.abs(fd)))

    def test_fourth_order_convergence(self, equivlien):
        mp = solve_constraint(equivlien, np.array([1e-3]), np.zeros(1))
        ref = integrate(equivlien, 0.0, mp, 0.0, 2.0, steps=2048).zs[-1]
        e1 = norm1(integrate(equivlien, 0.0, mp, 0.0, 2.0, steps=64).zs[-1] - ref)
        e2 = norm1(integrate(equivlien, 0.0, mp, 0.0, 2.0, steps=128).zs[-1] - ref)
        assert e1 / e2 >= 8.0

    def test_lambda_sensitivity(self, equivlien):
        # d end.p / d lambda by the variational route vs differences
        res = time_T_map(equivlien, 1e-3, np.zeros(1), np.zeros(1),
                         want_lambda_sensitivity=True)
        d = 1e-6
        plus = time_T_map(equivlien, 1e-3 + d, np.zeros(1), np.zeros(1)).end.p
        minus = time_T_map(equivlien, 1e-3 - d, np.zeros(1), np.zeros(1)).end.p
        fd = (plus - minus) / (2 * d)
        assert np.max(np.abs(res.lambda_sensitivity - fd)) <= 1e-4 * (
            1 + np.max(np.abs(fd))
        )


class TestMonodromy:
    """The monodromy exp(A T) of a zero, as its resonance verdict holds it."""

    def test_lienard(self, equivlien):
        z = find_zeros(equivlien, equivlien.box)[0]
        m = classify_resonance(equivlien, z).monodromy
        assert m[0, 0] == pytest.approx(math.exp(2 * math.pi), rel=1e-12)

    def test_two_wells_nonresonant_zero(self, exmults):
        z = find_zeros(exmults, exmults.box)[1]
        m = classify_resonance(exmults, z).monodromy
        assert m[0, 0] == pytest.approx(math.exp(2 * math.pi), rel=1e-12)

    def test_full_rotation_gives_identity(self):
        sys = rotation_system()
        z = find_zeros(sys, sys.box)[0]
        assert np.max(np.abs(z.point)) <= 1e-10
        m = classify_resonance(sys, z).monodromy
        assert np.max(np.abs(m - np.eye(2))) <= 1e-10


class TestFlowErrors:
    """A flow raises the first error it meets; the state it flows, and so
    the error, do not depend on the sensitivities riding along."""

    def test_leaving_the_box(self, equivlien):
        # the out-of-basin guess leaves the box; integrate from the same
        # projected start leaves it at the same step, at the same state
        p0, q0 = np.array([0.05]), np.array([-0.05])
        with pytest.raises(LeavesBoxError) as err:
            time_T_map(equivlien, 0.0, p0, q0, steps=128,
                       want_lambda_sensitivity=True)
        with pytest.raises(LeavesBoxError) as alone:
            integrate(equivlien, 0.0, solve_constraint(equivlien, p0, q0),
                      0.0, equivlien.period, steps=128)
        exc = err.value
        assert str(exc) == str(alone.value) == (
            f"trajectory left the working box (t = {float(exc.exit_time)!r})")
        times = np.linspace(0.0, equivlien.period, 129)
        assert 2.0 < exc.exit_time < 3.0
        assert np.min(np.abs(times - exc.exit_time)) <= 1e-12
        assert exc.exit_time == alone.value.exit_time
        assert same_bits(exc.state, alone.value.state)
        assert not equivlien.box.contains(exc.state)

    def test_result_carries_its_trajectory(self, equivlien):
        # the states, residuals, drift, start and end of time_T_map are
        # integrate's from the projected start, bit for bit
        for p in (-2e-5, 0.0, 1.5e-5):
            p0, q0 = np.array([p]), np.zeros(1)
            res = time_T_map(equivlien, 0.0, p0, q0, steps=128,
                             want_lambda_sensitivity=True)
            mp = solve_constraint(equivlien, p0, q0)
            assert same_bits(res.start.z, mp.z)
            assert res.start.residual == mp.residual
            traj = integrate(equivlien, 0.0, mp, 0.0, equivlien.period,
                             steps=128)
            assert same_bits(res.zs, traj.zs)
            assert same_bits(res.times, traj.times)
            assert res.residuals == traj.residuals
            assert res.max_constraint_drift == traj.max_constraint_drift
            assert same_bits(res.end.z, res.zs[-1])
            assert same_bits(res.end.z, traj.end.z)
            assert res.end.residual == traj.residuals[-1]

    def test_domain_error_mid_stage(self):
        # x1' = -sqrt(x1) reaches x1 < 0 inside an RK4 stage for the
        # starts that are low: their stage falls back to the point
        # evaluation, which raises
        names = ["x1", "y1"]
        sys = SystemDef(1, 1, 2.0, [expr.parse("-sqrt(x1)", names)],
                        [expr.parse("y1 - x1", names)], None,
                        Box.from_pairs([(-1, 2), (-2, 2)]))
        p0 = np.linspace(0.05, 1.5, 12)[:, None]
        q0 = np.linspace(-0.2, 1.2, 12)[:, None]
        failed = 0
        for i in range(12):
            try:
                time_T_map(sys, 0.5, p0[i], q0[i], steps=32,
                           want_lambda_sensitivity=True)
            except ExprDomainError as exc:
                failed += 1
                assert "sqrt" in str(exc)
                with pytest.raises(ExprDomainError) as alone:
                    integrate(sys, 0.5, solve_constraint(sys, p0[i], q0[i]),
                              0.0, 2.0, steps=32)
                assert str(alone.value) == str(exc)
        assert 0 < failed < 12

    def test_lambda_and_step_checks(self, equivlien):
        def error(lam, p0, q0, steps):
            with pytest.raises(Exception) as err:
                time_T_map(equivlien, lam, np.array([p0]), np.array([q0]),
                           steps=steps)
            return type(err.value), str(err.value)

        assert error(-1.0, 0.0, 0.0, 8) == (ValueError, "lambda must be >= 0")
        assert error(0.0, 0.0, 0.0, 8) == (ValueError,
                                           "at least 16 steps required")
        # the projection of the start fails first: d2g = 1 - y1^2 is
        # singular at y1 = 1
        assert error(-1.0, -2 / 3, 1.0, 8)[0] is SingularMatrixError
        mp = solve_constraint(equivlien, np.zeros(1), np.zeros(1))
        with pytest.raises(ValueError, match="lambda must be >= 0"):
            integrate(equivlien, -1.0, mp, 0.0, 1.0, steps=8)
