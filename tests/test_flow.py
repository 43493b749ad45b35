import contextlib
import io
import math

import numpy as np
import pytest

from daekit import expr, flow
from daekit.cli import main
from daekit.dae import Box, SystemDef, solve_constraint
from daekit.degree import find_zeros, reduced_matrix
from daekit.errors import (
    ConstraintSolveError,
    DaekitError,
    DriftExceededError,
    ExprDomainError,
    LeavesBoxError,
    SingularMatrixError,
)
from daekit.flow import integrate, time_T_map
from daekit.linalg import expm, norm1
from daekit.periodic import classify_resonance
from conftest import system_path
from helpers import (
    failing_system,
    flow_oracle,
    forced_random_system,
    same_bits,
)


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


def constants_system(k, s):
    """f and g with table constants of their own (2.5 and 0.125 in f,
    0.75 and 3.5 in g), which the emitted flow loop inlines in one function.
    Over one period x1 falls by about 1.25, so the starts near the fold of
    g1 = y1^3 - 0.75 y1 - x1 (at x1 = -0.25 on the upper branch) cross it:
    their projections halve and stall."""
    names = [f"x{i + 1}" for i in range(k)] + [f"y{j + 1}" for j in range(s)]
    f = [expr.parse("0.5*y1 - 2.5 + 0.125*x1", names)]
    f += [expr.parse(f"1.25*x{i - 1} - 0.5*x{i}", names)
          for i in range(2, k + 1)]
    g = [expr.parse("y1^3 - 0.75*y1 - x1", names)]
    g += [expr.parse(f"3.5*y{j} - x1*y1", names) for j in range(2, s + 1)]
    h = [expr.parse("0.25*cos(t)", names + ["t"]) for _ in range(k)]
    return SystemDef(k, s, 0.5, f, g, h, Box.from_pairs([(-2, 2)] * (k + s)))


def pole_system():
    """d2g = x1 vanishes on x1 = 0, which x1' = -2.5 reaches exactly in the
    last stage of the fourth step from x1 = 1.25 with h = 1/8 (every number
    on the way is dyadic)."""
    names = ["x1", "y1"]
    return SystemDef(1, 1, 2.0, [expr.parse("-2.5", names)],
                     [expr.parse("x1*y1 - 0.75", names)], None,
                     Box.from_pairs([(-2, 2), (-8, 8)]))


def kink_system():
    """x1' = -2.5 reaches x1 = 0 exactly as pole_system does, where the
    kernel's partial of sqrt(x1^2) divides 0 by 0 and the point evaluation
    gives 0; the forcing cos(t) * (x2 + sqrt(x1^2)) reads the time."""
    names = ["x1", "x2", "y1"]
    return SystemDef(
        2, 1, 2.0, [expr.parse(e, names) for e in ("-2.5", "-0.5*x2")],
        [expr.parse("y1 - x2", names)],
        [expr.parse(e, names + ["t"])
         for e in ("0", "cos(t)*(x2 + sqrt(x1^2))")],
        Box.from_pairs([(-4, 2), (-2, 2), (-2, 2)]))


def halved(points, k):
    """Whether the constraint evaluations at points (in order) hold a
    halved Newton step: three at one p whose q's a, b, c have
    c - a = (b - a) / 2 with b != a."""
    for a, b, c in zip(points, points[1:], points[2:]):
        if a[:k] == b[:k] == c[:k] and a[k:] != b[k:]:
            qa, qb, qc = (np.array(v[k:]) for v in (a, b, c))
            if np.allclose(qc - qa, 0.5 * (qb - qa), rtol=1e-9, atol=0.0):
                return True
    return False


class TestEmittedFlowLoop:
    """flow._flow's emitted step loop against the Python loop it replaced
    (helpers.flow_oracle): the same states, residuals, drift and
    sensitivities bit for bit, or the same error with the same message
    and state."""

    SHAPES = [(1, 1), (2, 1), (1, 2), (2, 2)]
    VARIANTS = [(False, False), (True, False), (True, True)]  # sens, lsens

    @staticmethod
    def outcome(run, *args):
        try:
            traj = run(*args)
        except DaekitError as exc:
            state = getattr(exc, "state", None)
            return (type(exc), str(exc),
                    None if state is None else state.tobytes())
        return ("completed", traj.zs.tobytes(), traj.residuals,
                traj.max_constraint_drift,
                *(None if a is None else a.tobytes() for a in
                  (traj.sensitivity, traj.lambda_sensitivity)))

    def compare(self, sysdef, start, steps, lam, sens, lsens):
        """The outcome kind of one flow, after asserting that the loop and
        the oracle agree. The oracle's constraint evaluations are recorded
        to tell a projection that halved."""
        args = (sysdef, lam, start, 0.0, sysdef.period, steps, sens, lsens)
        new = self.outcome(flow._flow, *args)  # emits the loop first
        step, points = sysdef._constraint_step(), []

        def record(z):
            points.append(tuple(z))
            return step(z)

        sysdef._stages["g"] = record
        try:
            old = self.outcome(flow_oracle, *args)
        finally:
            sysdef._stages["g"] = step
        assert new == old
        if new[0] is ConstraintSolveError or halved(points, sysdef.k):
            return "halved or stalled"
        return new[0]

    def test_matches_the_oracle(self):
        kinds = set()
        for k, s in self.SHAPES:
            for sysdef in (forced_random_system(k, s), failing_system(k, s),
                           constants_system(k, s)):
                rng = np.random.default_rng(30 + 10 * k + s)
                for _ in range(16):
                    z = rng.uniform(sysdef.box.lo, sysdef.box.hi)
                    try:
                        start = solve_constraint(sysdef, z[:k], z[k:])
                    except DaekitError:
                        continue
                    steps = int(rng.choice([16, 32, 64]))
                    for lam in (0.0, 0.3):
                        for sens, lsens in self.VARIANTS:
                            kinds.add(self.compare(sysdef, start, steps, lam,
                                                   sens, lsens))
        sysdef = pole_system()
        start = solve_constraint(sysdef, np.array([1.25]), np.array([0.5]))
        for sens, lsens in self.VARIANTS:
            kinds.add(self.compare(sysdef, start, 16, 0.0, sens, lsens))
        assert kinds == {"completed", LeavesBoxError, DriftExceededError,
                         ExprDomainError, SingularMatrixError,
                         "halved or stalled"}

    def test_stages_that_fall_back_keep_their_time(self):
        # the stages at x1 = 0 run the system's stage function of the
        # variant, which is compiled on the first such stage
        sysdef = kink_system()
        start = solve_constraint(sysdef, np.array([1.25, 0.5]),
                                 np.array([0.5]))
        for lam in (0.0, 0.3):
            for sens, lsens in self.VARIANTS:
                key = (False, sens, lsens, False, lam != 0.0)
                assert key not in sysdef._stages
                flow._flow(sysdef, lam, start, 0.0, 2.0, 16, sens, lsens)
                assert key in sysdef._stages
                assert self.compare(sysdef, start, 16, lam, sens,
                                    lsens) == "completed"

    def test_a_singular_projection_raises_on_a_solved_start(self):
        # y1 = 0.5 solves g1 = (x1 - c) * (y1 - 0.5) exactly all along, and
        # d2g = x1 - c vanishes where x1' = -2.5 - 0.5 x1 lands after four
        # steps (c read off the flow of g1 = y1 - 0.5), at no stage point
        names = ["x1", "y1"]
        f = [expr.parse("-2.5 - 0.5*x1", names)]
        box = Box.from_pairs([(-4, 2), (-1, 1)])
        free = SystemDef(1, 1, 2.0, f, [expr.parse("y1 - 0.5", names)], None,
                         box)
        start = solve_constraint(free, np.array([1.25]), np.array([0.5]))
        c = float(integrate(free, 0.0, start, 0.0, 2.0, steps=16).zs[4, 0])
        sysdef = SystemDef(1, 1, 2.0, f,
                           [expr.parse(f"(x1 - {c!r})*(y1 - 0.5)", names)],
                           None, box)
        start = solve_constraint(sysdef, np.array([1.25]), np.array([0.5]))
        step, points = sysdef._constraint_step(), []

        def record(z):
            points.append(tuple(z))
            return step(z)

        for sens, lsens in self.VARIANTS:
            assert self.compare(sysdef, start, 16, 0.0, sens,
                                lsens) is SingularMatrixError
        sysdef._stages["g"] = record
        with pytest.raises(SingularMatrixError):
            flow_oracle(sysdef, 0.0, start, 0.0, 2.0, 16)
        assert points[-1] == (c, 0.5) and len(points) == 4

    @pytest.mark.parametrize("argv", [
        ["branch", system_path("equivlien"), "--lambda-max", "3",
         "--norm-bound", "5", "--steps", "128"],
        ["branch", system_path("exmults"), "--lambda-max", "3",
         "--norm-bound", "5", "--steps", "128"],
        ["branch", system_path("pozzo"), "--lambda-max", "3", "--steps", "128"],
    ], ids=["equivlien", "exmults", "pozzo"])
    def test_long_branches_match_the_oracle(self, argv, monkeypatch):
        # each branch ends on a flow error
        def report():
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = main(argv)
            return code, out.getvalue()

        new = report()
        monkeypatch.setattr(flow, "_flow", flow_oracle)
        assert report() == new
        assert '"termination": "DriftExceeded"' in new[1]
