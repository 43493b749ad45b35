import math

import numpy as np
import pytest

from daekit import (
    dae,
    emit,
    expr,
    forcing_field,
    perturbed_field,
    solve_constraint,
    tangency_defect,
    tangent_field,
    validate,
)
from daekit.dae import Box, ManifoldPoint, SystemDef, halton, reduced_field
from daekit.errors import (
    ConstraintSolveError,
    DaekitError,
    ExprDomainError,
    HypothesisViolationError,
    SingularMatrixError,
)
from daekit.linalg import norm1
from daekit.sysfile import load_system
import helpers
from conftest import system_path
from helpers import (
    failing_system,
    forced_random_system,
    lu_factor_oracle,
    same_bits,
)


class TestBox:
    def test_bad_bounds(self):
        with pytest.raises(ValueError):
            Box.from_pairs([(1.0, -1.0)])
        with pytest.raises(ValueError):
            Box(np.array([0.0]), np.array([np.inf]))

    def test_bounds_are_read_only_copies(self):
        # a Box shared by loaded systems cannot be changed in place, and
        # changing the caller's arrays leaves it as it was
        lo, hi = np.array([-1.0, 0.0]), np.array([1.0, 2.0])
        box = Box(lo, hi)
        lo[0], hi[1] = -5.0, 5.0
        assert box.lo.tolist() == [-1.0, 0.0] and box.hi.tolist() == [1.0, 2.0]
        for bound in (box.lo, box.hi):
            with pytest.raises(ValueError, match="read-only"):
                bound[0] = 0.5
            with pytest.raises(ValueError, match="read-only"):
                bound += 1.0
        assert box.inflate().lo.flags.writeable is False
        assert box.subbox([1]).hi.tolist() == [2.0]

    def test_membership(self):
        box = Box.from_pairs([(-1, 1), (0, 2)])
        assert box.contains([0.0, 1.0])
        assert not box.contains([0.0, 2.5])
        assert box.boundary_distance([0.5, 1.0]) == pytest.approx(0.5)


class TestHalton:
    def test_early_values(self):
        # radical inverses of 1, 2, 3 in bases 2 and 3, and of 21 = 10101b
        u = halton(3, 2, skip=0)
        assert u.tolist() == [[0.5, 1 / 3], [0.25, 2 / 3], [0.75, 1 / 9]]
        assert halton(1, 1)[0, 0] == 0.5 + 1 / 8 + 1 / 32

    def test_matches_digit_loop(self):
        PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

        def reference(n, dim, skip):
            out = np.empty((n, dim))
            for d, base in enumerate(PRIMES[:dim]):
                for i in range(n):
                    k, val, denom = i + 1 + skip, 0.0, 1.0
                    while k > 0:
                        denom *= base
                        k, rem = divmod(k, base)
                        val += rem / denom
                    out[i, d] = val
            return out

        for n, dim, skip in [(512, 2, 20), (256, 3, 37), (64, 12, 0), (0, 2, 20)]:
            assert np.array_equal(halton(n, dim, skip), reference(n, dim, skip))


class TestValidate:
    def test_cusp_constraint_fails_with_witness_at_origin(self, eqex1):
        with pytest.raises(HypothesisViolationError) as err:
            validate(eqex1)
        assert norm1(err.value.witness) <= 1e-2

    def test_circle_constraint_fails_near_equator(self, eqex2):
        with pytest.raises(HypothesisViolationError) as err:
            validate(eqex2)
        w = err.value.witness
        assert abs(abs(w[0]) - 1.0) <= 1e-2 and abs(w[1]) <= 1e-2
        assert "sign" in err.value.report.message

    def test_cubic_well_passes(self, pozzo):
        report = validate(pozzo)
        assert report.ok and report.sign == 1
        assert report.refined_min_abs_det >= 1.0 - 1e-9

    def test_lienard_passes(self, equivlien):
        report = validate(equivlien)
        assert report.sign == 1
        # min of 1 - y^2 over |y| <= 0.9
        assert report.refined_min_abs_det == pytest.approx(0.19, abs=1e-3)

    def test_two_constraint_witness_on_manifold(self):
        import math

        from daekit import expr
        from daekit.dae import SystemDef

        names = ["x1", "x2", "y1", "y2"]
        f = [expr.parse("x2", names), expr.parse("-x1", names)]
        g = [expr.parse("y1 - x1", names), expr.parse("y2^3 - x2", names)]
        sysdef = SystemDef(2, 2, 2 * math.pi, f, g, None,
                           Box.from_pairs([(-1, 1)] * 4))
        with pytest.raises(HypothesisViolationError) as err:
            validate(sysdef)
        w = err.value.witness
        # degenerate locus y2 = 0, refined onto g = 0: x2 = 0, y1 = x1
        assert abs(w[3]) <= 1e-4 and abs(w[1]) <= 1e-4
        assert abs(w[2] - w[0]) <= 1e-6


def fixture_system(name):
    return helpers.degen3() if name == "degen3" else load_system(system_path(name))


def polish_starts(sysdef, samples=512):
    """The samples validate polishes: the six smallest |det d2g|, in stable
    sample order."""
    pts = sysdef.box.sample(samples)
    env = {nm: pts[:, i] for i, nm in enumerate(sysdef.state_names)}
    s = sysdef.s
    a = sysdef.kernel(sysdef.d2g_flat).values_batch(env, np.empty((s * s, samples)))
    with np.errstate(invalid="ignore"):
        dets = np.linalg.det(np.ascontiguousarray(a.T).reshape(samples, s, s))
    return pts[np.argsort(np.abs(dets), kind="stable")[:6]]


def sqrt_system(g):
    """x1' = y1 with the constraint g (in x1, y1) on [-1, 1]^2."""
    names = ["x1", "y1"]
    return SystemDef(1, 1, 2 * math.pi, [expr.parse("y1", names)],
                     [expr.parse(g, names)], None, Box.from_pairs([(-1, 1)] * 2))


class TestDetPolishRows:
    """validate's |det d2g| polish of one start on floats against the
    one-point loop kept as an oracle in tests/helpers.py: best point and
    best |det| bit for bit, and the same errors."""

    @staticmethod
    def check(sysdef, starts):
        best_z, best_d = [], []
        for z0 in starts:
            z, d = dae._polish_det_minimum(sysdef, z0)
            want_z, want_d = helpers.polish_det_minimum_oracle(sysdef, z0)
            assert z.tobytes() == want_z.tobytes()
            assert type(d) is float and d == want_d
            best_z.append(z)
            best_d.append(d)
        return np.array(best_z), best_d

    @staticmethod
    def count_calls(monkeypatch, sysdef):
        """A list that gets one entry per iterate sysdef's emitted polish
        loop evaluates: the loop's finiteness guard, isfinite in its
        namespace, runs once per evaluated iterate."""
        calls, polish = [], dae._emit_det_polish(sysdef)
        isfinite = polish.__globals__["isfinite"]

        def counting(x):
            calls.append(x)
            return isfinite(x)

        monkeypatch.setitem(polish.__globals__, "isfinite", counting)
        monkeypatch.setitem(sysdef._stages, "det", polish)
        return calls

    @pytest.mark.parametrize(
        "name", ["pozzo", "equivlien", "exmults", "eqex1", "eqex2", "degen3"])
    def test_fixtures_match_the_oracle(self, name):
        sysdef = fixture_system(name)
        self.check(sysdef, polish_starts(sysdef))

    @pytest.mark.parametrize("k,s", [(1, 1), (2, 1), (1, 2), (2, 2), (1, 3)])
    def test_random_systems_match_the_oracle(self, k, s):
        sysdef, _ = helpers.random_system(np.random.default_rng(200 + 10 * k + s),
                                          k, s)
        rng = np.random.default_rng(s)
        # validate's starts, and starts some of which the box clip moves
        self.check(sysdef, np.vstack([polish_starts(sysdef),
                                      rng.uniform(-1.5, 1.5, (6, k + s))]))
        # the det algebra bound to emit.GIVEN on the point evaluations: the
        # loop's path at a bad iterate, and the witness refinement's
        for z in rng.uniform(-1.2, 1.2, (40, k + s)):
            d, grad = dae._det_at(sysdef, z.tolist())
            want_d, want_grad = helpers.det_and_grad_oracle(sysdef, z)
            assert type(d) is float and d == want_d
            assert np.array(grad).tobytes() == want_grad.tobytes()

    @pytest.mark.parametrize("k,s", [(1, 1), (2, 1), (1, 2), (2, 2), (1, 3)])
    def test_random_systems_match_lapack_and_blas(self, k, s):
        # an independent check of the cofactor det and the left-to-right
        # Jacobi sums: LAPACK's det, and the trace of a BLAS product of the
        # adjugate det * inv(a) with each partial of d2g
        sysdef, _ = helpers.random_system(np.random.default_rng(200 + 10 * k + s),
                                          k, s)
        kern = sysdef.kernel(sysdef.d2g_flat)
        rng = np.random.default_rng(30 + s)
        for z in rng.uniform(-1.2, 1.2, (40, k + s)):
            d, grad = dae._det_at(sysdef, z.tolist())
            env = sysdef.env(z[:k], z[k:])
            a = kern.values(env).reshape(s, s)
            da = kern.dual(env)[1].reshape(s, s, k + s).transpose(2, 0, 1)
            want_d = np.linalg.det(a)
            adj = want_d * np.linalg.inv(a)
            want_grad = [np.trace(adj @ da[m]) for m in range(k + s)]
            assert d == pytest.approx(want_d, rel=1e-12, abs=0)
            assert grad == pytest.approx(want_grad, rel=1e-12, abs=0)

    def test_box_pinned_rows_stop_at_their_first_revisit(self, equivlien,
                                                         monkeypatch):
        # d2g = 1 - y1^2 is smallest on the faces |y1| = 0.9; the clip pins
        # every iterate there, where the oracle spends all 100 iterations
        calls = self.count_calls(monkeypatch, equivlien)
        report = validate(equivlien)
        assert len(calls) <= 6 * 3
        best_z, _ = self.check(equivlien, polish_starts(equivlien))
        assert np.all(np.abs(best_z[:, 1]) == 0.9)
        assert report.refined_location.tobytes() == best_z[0].tobytes()

    def test_cycling_rows_stop_at_their_first_revisit(self, pozzo, monkeypatch):
        # d2g = 3 y1^2 + 1 has no zero: the steps overshoot, and every start
        # falls into a cycle that the oracle retraces to its last iteration
        starts = polish_starts(pozzo)
        calls = self.count_calls(monkeypatch, pozzo)
        self.check(pozzo, starts)
        assert 6 < len(calls) < 6 * 60

    def test_nan_iterates_stop_at_their_first_revisit(self, monkeypatch):
        # d2g = 1 + 1e308 x1^2 is finite near |x1| = 1, its x1-partial is
        # not: the step -det / inf * inf is nan, and so is every iterate
        # after it. The revisit key compares bits, so the nan iterate ends
        # the polish where float equality (nan != nan) would run on to
        # the last iteration, as the oracle does
        names = ["x1", "y1"]
        sysdef = SystemDef(1, 1, 1.0, [expr.parse("y1", names)],
                           [expr.parse("y1 + 1e308*x1^2*y1", names)], None,
                           Box.from_pairs([(-1, 1)] * 2))
        calls = self.count_calls(monkeypatch, sysdef)
        for z0 in ([1.0, 0.0], [0.95, 0.3]):
            z, d = dae._polish_det_minimum(sysdef, z0)
            with np.errstate(invalid="ignore"):
                want_z, want_d = helpers.polish_det_minimum_oracle(sysdef, z0)
            assert z.tobytes() == want_z.tobytes() and d == want_d
        assert len(calls) == 2 * 3

    def test_rows_end_early_on_a_vanishing_det(self, eqex1):
        _, best_d = self.check(eqex1, polish_starts(eqex1))
        assert all(0.0 < d < 1e-14 for d in best_d)

    def test_starts_follow_the_stable_sample_order(self, pozzo, monkeypatch):
        # samples 291 and 416 tie in |det|: a stable sort keeps them in
        # sample order on every host, where numpy's default sort may not
        polish = dae._polish_det_minimum
        starts = []

        def recording(sys, z0):
            starts.append(np.array(z0))
            return polish(sys, z0)

        monkeypatch.setattr(dae, "_polish_det_minimum", recording)
        validate(pozzo)
        pts = pozzo.box.sample(512)
        index = [next(i for i, p in enumerate(pts) if p.tobytes() == z.tobytes())
                 for z in starts]
        assert len(index) == 6 and 291 in index and 416 in index
        assert index.index(291) < index.index(416)
        assert np.array(starts).tobytes() == polish_starts(pozzo).tobytes()

    @pytest.mark.parametrize("g,failing", [
        ("y1^2*x1 + 0.5*y1 + y1*sqrt(x1 + 0.3)", [5]),
        ("y1^3 + 0.1*y1 + y1*sqrt(x1*y1 + 0.8)", [2, 5]),
    ])
    def test_failing_rows_fail_as_the_oracle(self, g, failing):
        # sqrt of a negative value in d2g, met by some starts' iterates only
        sysdef = sqrt_system(g)
        starts = polish_starts(sysdef)
        errors = {}
        for i, z0 in enumerate(starts):
            try:
                want_z, want_d = helpers.polish_det_minimum_oracle(sysdef, z0)
            except ExprDomainError as alone:
                with pytest.raises(ExprDomainError) as err:
                    dae._polish_det_minimum(sysdef, z0)
                assert type(err.value) is ExprDomainError
                assert str(err.value) == str(alone)
                errors[i] = err.value
            else:
                z, d = dae._polish_det_minimum(sysdef, z0)
                assert z.tobytes() == want_z.tobytes() and d == want_d
        assert sorted(errors) == failing
        # polishing the starts in order raises the first failing start's
        with pytest.raises(ExprDomainError) as err:
            validate(sysdef)
        assert str(err.value) == str(errors[failing[0]])


    @staticmethod
    def validate_polishes(monkeypatch, sysdef):
        """validate(sysdef), with each polish as (start, best point, best
        |det|, the iterates its emitted loop evaluated)."""
        calls = TestDetPolishRows.count_calls(monkeypatch, sysdef)
        polish, polished = dae._polish_det_minimum, []

        def recording(sys, z0):
            before = len(calls)
            z, d = polish(sys, z0)
            polished.append((z0, z, d, len(calls) - before))
            return z, d

        monkeypatch.setattr(dae, "_polish_det_minimum", recording)
        try:
            validate(sysdef)
        except HypothesisViolationError:
            pass
        assert len(polished) == 6
        for z0, z, d, _ in polished:
            want_z, want_d = helpers.polish_det_minimum_oracle(sysdef, z0)
            assert z.tobytes() == want_z.tobytes()
            assert type(d) is float and d == want_d
        return polished

    @pytest.mark.parametrize(
        "name", ["pozzo", "equivlien", "exmults", "eqex1", "eqex2", "degen3"])
    def test_validate_on_the_emitted_evaluator_matches_the_oracle(
            self, name, monkeypatch):
        polished = self.validate_polishes(monkeypatch, fixture_system(name))
        assert all(calls > 0 for *_, calls in polished)

    def test_undefined_iterates_raise_the_point_error(self):
        # the first start's polish steps from x1 < 0.5 to x1 = 0.75390625,
        # where sqrt(0.5 - x1) in d2g is undefined: the loop evaluates that
        # iterate by the point evaluations (_det_at), which raise
        sysdef = sqrt_system("y1*(2+sqrt(0.5 - x1)) - x1")
        z0 = polish_starts(sysdef)[0]
        with pytest.raises(ExprDomainError) as want:
            helpers.polish_det_minimum_oracle(sysdef, z0)
        assert str(want.value) == (
            "sqrt of negative value -0.25390625 in 'sqrt(0.5 - x1)'")
        with pytest.raises(ExprDomainError) as err:
            dae._polish_det_minimum(sysdef, z0)
        assert str(err.value) == str(want.value)
        z = [0.75390625, 0.5]
        with pytest.raises(ExprDomainError) as oracle:
            helpers.det_and_grad_oracle(sysdef, np.array(z))
        with pytest.raises(ExprDomainError) as err:
            dae._det_at(sysdef, z)
        assert type(err.value) is ExprDomainError
        assert str(err.value) == str(oracle.value)
        with pytest.raises(ExprDomainError) as err:
            validate(sysdef)
        assert str(err.value) == str(want.value)

    def test_undefined_samples_raise_after_the_polish(self, monkeypatch):
        # d2g = (1 + y1^2)(3 - sqrt(0.5 - x1)) has nan dets at the samples
        # with x1 > 0.5, and the polish steps x1 down, away from them; the
        # error is the point evaluation's at the first such sample, sample
        # 2 at x1 = 0.8125, before any witness refinement
        sysdef = sqrt_system("(y1 + y1^3/3)*(3 - sqrt(0.5 - x1)) - x1")
        monkeypatch.setattr(dae, "_refine_witness", None)
        with pytest.raises(ExprDomainError) as err:
            validate(sysdef)
        assert str(err.value) == "sqrt of negative value -0.3125 in 'sqrt(0.5 - x1)'"


class TestSolveConstraint:
    def test_unique_root(self, pozzo):
        mp = solve_constraint(pozzo, np.array([0.0, 0.0]), np.array([0.5]))
        assert abs(mp.q[0]) <= 1e-10
        assert mp.residual <= 1e-10

    def test_constructed_root(self, pozzo):
        mp = solve_constraint(pozzo, np.array([math.sqrt(2.0), 7.0]),
                              np.array([1.2]))
        assert mp.q[0] == pytest.approx(1.0, abs=1e-10)

    def test_singular_jacobian(self, eqex1):
        with pytest.raises((SingularMatrixError, ConstraintSolveError)):
            solve_constraint(eqex1, np.array([0.0]), np.array([0.0]))

    def test_zero_steps_when_already_solved(self, pozzo):
        q = np.array([0.682327803828019])
        p = np.array([1.0, 0.3])
        assert norm1(pozzo.eval_g(pozzo.env(p, q))) <= 1e-10
        mp = solve_constraint(pozzo, p, q)
        assert np.array_equal(mp.q, q)  # untouched, zero Newton steps

    def test_residuals_always_within_tolerance(self, pozzo):
        rng = np.random.default_rng(5)
        for _ in range(200):
            p = rng.uniform(-2, 2, size=2)
            mp = solve_constraint(pozzo, p, np.array([rng.uniform(-2, 2)]))
            assert mp.residual <= 1e-10


    def test_guard_sum_overflow(self):
        # g and its partials are finite at (0.5, 1.0), but the guard sum
        # 1e308 * y1 - x1 + (-1.0) + 1e308 overflows: the step falls back
        # on the point, with the same bits
        names = ["x1", "y1"]
        sys = SystemDef(1, 1, 1.0, [expr.parse("y1", names)],
                        [expr.parse("1e308*y1 - x1", names)],
                        box=Box.from_pairs([(-2, 2), (-2, 2)]))
        rn, step = sys._constraint_step()((0.5, 1.0))
        assert rn.hex() == (1e308).hex()
        assert step == (1.0,)
        mp = solve_constraint(sys, [0.5], [1.0])
        assert mp.q[0].hex() == (5e-309).hex()
        assert mp.residual.hex() == (5.551115123125783e-17).hex()

    def test_rejected_trial_with_undefined_d2g(self):
        # the full Newton step from y1 = 0.5 lands on y1 = 0, where |g| is
        # 0.25 against 0.125 and d2g is undefined (sqrt not differentiable
        # at 0.0); the trial is rejected without forming its step, and the
        # half step is accepted
        names = ["x1", "y1"]
        sys = SystemDef(1, 1, 1.0, [expr.parse("y1", names)],
                        [expr.parse("y1^3 - y1 - x1 + 0*sqrt(y1)", names)],
                        box=Box.from_pairs([(-2, 2), (-2, 2)]))
        with pytest.raises(ExprDomainError, match="sqrt not differentiable"):
            sys.jac_rows(sys.g, sys.env([-0.25], [0.0]), sys.y_names)
        mp = solve_constraint(sys, [-0.25], [0.5])
        assert mp.q[0].hex() == "0x1.1410905e2dee1p-2"
        assert mp.residual.hex() == (1.50712775592865e-14).hex()


class TestTangentField:
    def test_vanishes_at_equilibrium(self, pozzo):
        mp = solve_constraint(pozzo, np.zeros(2), np.zeros(1))
        assert norm1(tangent_field(pozzo, mp)) <= 1e-10

    def test_matches_closed_form(self, pozzo):
        mp = solve_constraint(pozzo, np.array([1.0, 1.0]), np.array([0.7]))
        q = mp.q[0]
        v = tangent_field(pozzo, mp)
        expected = np.array([1.0, -1.0 + q - 1.0, 2.0 / (1.0 + 3.0 * q * q)])
        assert np.allclose(v, expected, rtol=0, atol=1e-12)

    def test_lienard_origin(self, equivlien):
        mp = solve_constraint(equivlien, np.zeros(1), np.zeros(1))
        assert norm1(tangent_field(equivlien, mp)) == 0.0


class TestForcingField:
    def test_zero_forcing(self, eqex1):
        mp = ManifoldPoint(np.array([1.0]), np.array([1.0]), 0.0)
        assert norm1(forcing_field(eqex1, 0.3, mp)) == 0.0

    def test_lienard_quarter_period(self, equivlien):
        mp = solve_constraint(equivlien, np.zeros(1), np.zeros(1))
        v = forcing_field(equivlien, math.pi / 2.0, mp)
        assert np.allclose(v, [-1.0, 1.0], rtol=0, atol=1e-12)

    def test_periodicity(self, pozzo):
        rng = np.random.default_rng(23)
        for _ in range(100):
            p = rng.uniform(-1.5, 1.5, size=2)
            mp = solve_constraint(pozzo, p, np.array([0.3]))
            t = float(rng.uniform(0, 10))
            a = forcing_field(pozzo, t, mp)
            b = forcing_field(pozzo, t + pozzo.period, mp)
            assert np.allclose(a, b, rtol=0, atol=1e-12)


class TestPerturbedField:
    def test_lambda_zero_is_tangent(self, pozzo):
        mp = solve_constraint(pozzo, np.array([0.5, -0.2]), np.array([0.2]))
        assert np.allclose(
            perturbed_field(pozzo, 1.23, mp, 0.0),
            tangent_field(pozzo, mp),
            rtol=0, atol=1e-14,
        )

    def test_zero_forcing_any_lambda(self, eqex1):
        mp = ManifoldPoint(np.array([1.0]), np.array([1.0]), 0.0)
        assert np.allclose(
            perturbed_field(eqex1, 0.4, mp, 1.0),
            tangent_field(eqex1, mp),
            rtol=0, atol=1e-14,
        )

    def test_lienard_combination(self, equivlien):
        mp = solve_constraint(equivlien, np.zeros(1), np.zeros(1))
        v = perturbed_field(equivlien, math.pi / 2.0, mp, 0.5)
        assert np.allclose(v, [-0.5, 0.5], rtol=0, atol=1e-12)

    def test_negative_lambda_rejected(self, pozzo):
        mp = solve_constraint(pozzo, np.zeros(2), np.zeros(1))
        with pytest.raises(ValueError):
            perturbed_field(pozzo, 0.0, mp, -0.1)

    @pytest.mark.parametrize("lam", [math.nan, math.inf])
    def test_non_finite_lambda_rejected(self, pozzo, lam):
        mp = solve_constraint(pozzo, np.zeros(2), np.zeros(1))
        with pytest.raises(ValueError, match="lambda must be finite"):
            perturbed_field(pozzo, 0.0, mp, lam)


class TestTangency:
    def manifold_samples(self, sys, n, q_guess):
        rng = np.random.default_rng(31)
        k = sys.k
        out = []
        while len(out) < n:
            p = rng.uniform(sys.box.lo[:k], sys.box.hi[:k])
            try:
                out.append(solve_constraint(sys, p, q_guess))
            except (SingularMatrixError, ConstraintSolveError):
                continue
        return out

    def test_tangent_and_forcing_defects(self, pozzo):
        for mp in self.manifold_samples(pozzo, 1000, np.array([0.5])):
            v = tangent_field(pozzo, mp)
            assert tangency_defect(pozzo, mp, v) <= 1e-10 * (1 + norm1(v))
            w = forcing_field(pozzo, 0.37, mp)
            assert tangency_defect(pozzo, mp, w) <= 1e-10 * (1 + norm1(w))

    def test_nontangent_vector_has_positive_defect(self, pozzo):
        mp = solve_constraint(pozzo, np.array([1.0, 1.0]), np.array([0.7]))
        env = pozzo.env(mp.p, mp.q)
        v = np.concatenate([pozzo.eval_f(env), np.zeros(1)])
        assert tangency_defect(pozzo, mp, v) > 1.0  # |d1g . f| = 2 here


class TestEmittedStage:
    """The emitted float stage and constraint Newton against the numpy rows
    evaluation they replaced (kept as oracles in tests/helpers.py): bit for
    bit when k = s = 1, else within a relative 1e-13 (the stacked matrix
    products and 2-term dot products of the oracle may round differently
    from a left-to-right float sum); the same errors everywhere."""

    SHAPES = [(1, 1), (2, 1), (1, 2), (2, 2)]
    VARIANTS = [  # (linearize, forcing, lam)
        (False, False, 0.0), (True, False, 0.0), (True, False, 0.3),
        (False, True, 0.0), (True, True, 0.2),
    ]

    @staticmethod
    def field_rows(sysdef, z, t=None, lam=0.0, linearize=False,
                   forcing=False):
        """reduced_field on each row of z: (zdot, A, errors) in the layout
        of the oracle, nan where a row raises."""
        k, n = sysdef.k, sysdef.k + sysdef.s
        zdot = np.full((len(z), n), np.nan)
        a = np.full((len(z), k, k), np.nan) if linearize else None
        errors = {}
        for i, row in enumerate(z):
            try:
                zdot[i], ai = reduced_field(sysdef, row, t, lam, linearize,
                                            forcing)
            except DaekitError as exc:
                errors[i] = exc
                continue
            if linearize:
                a[i] = ai
        return zdot, a, errors

    @staticmethod
    def agree(new, old, exact):
        if old is None:
            return new is None
        if exact:
            return same_bits(new, old)
        scale = np.max(np.abs(old), axis=tuple(range(1, old.ndim)), keepdims=True)
        return bool(np.all(np.abs(new - old) <= 1e-13 * scale))

    @staticmethod
    def same_errors(new, old):
        return (sorted(new) == sorted(old)
                and all(type(new[i]) is type(old[i]) and str(new[i]) == str(old[i])
                        for i in old))

    @pytest.mark.parametrize("k,s", SHAPES)
    def test_field_matches_the_rows_oracle(self, k, s):
        sysdef = forced_random_system(k, s)
        rng = np.random.default_rng(1)
        z = rng.uniform(-1.2, 1.2, (60, k + s))
        for lin, forcing, lam in self.VARIANTS:
            new = self.field_rows(sysdef, z, 0.7, lam, lin, forcing)
            old = helpers.reduced_field_oracle(sysdef, z, 0.7, lam, lin,
                                               forcing)
            assert not new[2] and not old[3]
            for a, b in zip(new[:2], old[:2]):
                assert self.agree(a, b, exact=(k, s) == (1, 1))

    @pytest.mark.parametrize("k,s", SHAPES)
    def test_flow_stage_matches_the_rows_oracle(self, k, s):
        # the derivative of (z, Phi, v) the flow integrates: zdot, A Phi
        # and A v + h
        sysdef = forced_random_system(k, s)
        rng = np.random.default_rng(2)
        z = rng.uniform(-1.2, 1.2, (30, k + s))
        phi = rng.uniform(-2, 2, (30, k, k))
        v = rng.uniform(-2, 2, (30, k))
        for lam in (0.0, 0.4):
            zdot, a, hv, _ = helpers.reduced_field_oracle(
                sysdef, z, 1.1, lam, linearize=True, with_h=True)
            want = np.hstack([zdot, np.matmul(a, phi).reshape(30, -1),
                              np.matmul(a, v[:, :, None])[:, :, 0] + hv])
            stage = sysdef._stage(sens=True, lsens=True, use_h=lam != 0.0)
            got = np.array([stage(row, 1.1, lam) for row in
                            np.hstack([z, phi.reshape(30, -1), v]).tolist()])
            assert self.agree(got, want, exact=(k, s) == (1, 1))

    @pytest.mark.parametrize("k,s", SHAPES)
    def test_projection_matches_the_rows_oracle(self, k, s):
        sysdef = forced_random_system(k, s)
        rng = np.random.default_rng(3)
        p = rng.uniform(-1.2, 1.2, (80, k))
        q = rng.uniform(-4, 4, (80, s))
        q_old, rn_old, err_old = helpers.solve_constraint_rows_oracle(sysdef, p, q)
        err_new = {}
        for i in range(80):
            try:
                mp = solve_constraint(sysdef, p[i], q[i])
            except DaekitError as exc:
                err_new[i] = exc
                continue
            assert i not in err_old
            assert self.agree(mp.q[None], q_old[i][None], exact=(k, s) == (1, 1))
            assert self.agree(np.array([mp.residual]), rn_old[i:i + 1],
                              exact=(k, s) == (1, 1))
        assert self.same_errors(err_new, err_old)

    @pytest.mark.parametrize("k,s", SHAPES)
    def test_errors_match_the_rows_oracle(self, k, s):
        # sqrt of a negative value (the kernel raises mid-stage), its
        # partial at 0, and singular d2g on y1 = 0
        sysdef = failing_system(k, s)
        rng = np.random.default_rng(70 + 10 * k + s)
        z = rng.uniform(-1, 1, (50, k + s))
        z[::5, 0] = 0.0
        z[1::5, k] = 0.0
        z[2::5, 0] = -np.abs(z[2::5, 0])
        z[3::10, 0] = -1.0
        z[4::10, 0] = -1.5
        z[9::10, 0] = z[9::10, k] = 0.0  # singular, and the f partial fails
        for lin, forcing, lam in self.VARIANTS:
            new = self.field_rows(sysdef, z, 0.3, lam, lin, forcing)
            old = helpers.reduced_field_oracle(sysdef, z, 0.3, lam, lin,
                                               forcing)
            assert self.same_errors(new[2], old[3])
            kinds = {type(e) for e in new[2].values()}
            assert kinds == {ExprDomainError, SingularMatrixError}
            ok = [i for i in range(len(z)) if i not in old[3]]
            for a, b in zip(new[:2], old[:2]):
                assert self.agree(None if a is None else a[ok],
                                  None if b is None else b[ok],
                                  exact=(k, s) == (1, 1))
        # the flow's stage, on the state, Phi = I and v = 0
        y = np.hstack([z, np.tile(np.eye(k).ravel(), (len(z), 1)),
                       np.zeros((len(z), k))])
        for lam in (0.0, 0.4):
            old = helpers.reduced_field_oracle(sysdef, z, 0.3, lam, True,
                                               False, True)
            stage = sysdef._stage(sens=True, lsens=True, use_h=lam != 0.0)
            err_new = {}
            for i, row in enumerate(y.tolist()):
                try:
                    stage(row, 0.3, lam)
                except DaekitError as exc:
                    err_new[i] = exc
            assert self.same_errors(err_new, old[3])
        # the constraint Newton: singular d2g at a solved start, sqrt of a
        # negative value, and a Jacobian only the point evaluation gives
        p = np.zeros((5, k))
        p[1:, 0] = 1.0, 0.5, -1.5, -1.0
        q = np.zeros((5, s))
        q[1:, 0] = 1.0, 0.0, 0.5, 0.5
        q_old, rn_old, err_old = helpers.solve_constraint_rows_oracle(sysdef, p, q)
        err_new = {}
        for i in range(5):
            try:
                mp = solve_constraint(sysdef, p[i], q[i])
            except DaekitError as exc:
                err_new[i] = exc
                continue
            assert self.agree(mp.q[None], q_old[i][None], exact=(k, s) == (1, 1))
        assert [type(err_new.get(i)) for i in (0, 3, 4)] == [
            SingularMatrixError, ExprDomainError, type(None)]
        assert self.same_errors(err_new, err_old)


    def test_overflow_matches_the_rows_oracle(self):
        # h = exp of an overflowed product: the kernel gives inf without
        # raising where x1 > 0, the point evaluation raises "exp overflow";
        # that matters only where h is used
        names = ["x1", "y1"]
        sysdef = SystemDef(
            1, 1, 1.0, [expr.parse("y1", names)], [expr.parse("y1 - x1", names)],
            [expr.parse("exp(x1 * 1e200 * 1e200)", names)],
            Box.from_pairs([(-1, 1), (-1, 1)]))
        z = np.array([[0.5, -0.5], [-0.5, 0.5]])
        for lin, forcing, lam in self.VARIANTS:
            new = self.field_rows(sysdef, z, 0.3, lam, lin, forcing)
            with np.errstate(all="ignore"):
                old = helpers.reduced_field_oracle(sysdef, z, 0.3, lam, lin,
                                                   forcing)
            assert self.same_errors(new[2], old[3])
            assert list(new[2]) == [0] * (forcing or lam != 0)
            ok = [i for i in range(2) if i not in old[3]]
            for a, b in zip(new[:2], old[:2]):
                assert (a is None and b is None) or np.array_equal(
                    a[ok], b[ok], equal_nan=True)
        # the flow's stage needs h for A v + h also when lam = 0
        stage = sysdef._stage(sens=True, lsens=True)
        err_new = {}
        for i, row in enumerate(np.hstack([z, np.ones((2, 1)),
                                           np.zeros((2, 1))]).tolist()):
            try:
                stage(row, 0.3, 0.0)
            except DaekitError as exc:
                err_new[i] = exc
        with np.errstate(all="ignore"):
            old = helpers.reduced_field_oracle(sysdef, z, 0.3, 0.0, True,
                                               False, True)
        assert list(err_new) == [0] and self.same_errors(err_new, old[3])
        # g overflows to inf where x1 = 1 with finite partials; its point
        # evaluation meets exp(709.5), which is finite (1.35e308), so the
        # fallback gives that row its field as well
        sysdef = SystemDef(
            1, 1, 1.0, [expr.parse("y1", names)],
            [expr.parse("y1 - x1 + 1e308 * x1 + 1e308 + 0 * exp(709.5)", names)],
            None, Box.from_pairs([(-1, 1), (-1, 1)]))
        z = np.array([[1.0, 0.5], [-1.0, 0.5]])
        new = self.field_rows(sysdef, z, linearize=True)
        with np.errstate(all="ignore"):
            old = helpers.reduced_field_oracle(sysdef, z, linearize=True)
        assert list(new[2]) == [] and self.same_errors(new[2], old[3])
        assert same_bits(new[0], old[0]) and same_bits(new[1], old[1])

    def test_backtracking_matches_the_rows_oracle(self):
        # g = y1 + 1000 y1^2 - x1: from q = 0 the full Newton step and most
        # of its halvings raise |g| when x1 < 0 (no root for x1 < -1/4000,
        # so Newton stalls); all 11 halvings run
        names = ["x1", "y1"]
        sysdef = SystemDef(1, 1, 1.0, [expr.parse("y1", names)],
                           [expr.parse("y1 + 1000 * y1^2 - x1", names)], None,
                           Box.from_pairs([(-5, 5), (-5, 5)]))
        p = np.array([[-3.0], [-1e-4], [2.0], [-2e-4]])
        q = np.array([[0.0], [0.0], [0.5], [-0.3]])
        q_old, rn_old, err_old = helpers.solve_constraint_rows_oracle(sysdef, p, q)
        err_new = {}
        for i in range(len(p)):
            try:
                mp = solve_constraint(sysdef, p[i], q[i])
            except DaekitError as exc:
                err_new[i] = exc
                continue
            assert same_bits(mp.q, q_old[i]) and mp.residual == rn_old[i]
        assert type(err_new.get(0)) is ConstraintSolveError
        assert self.same_errors(err_new, err_old)


class TestEmittedLU:
    """The emitted LU (emit.lu_lines, which the stage and lu_factor run)
    is the numpy loop it replaced (helpers.lu_factor_oracle), bit for bit:
    factors, pivots, the singular verdict and its message (both sides use
    only elementwise arithmetic)."""

    @staticmethod
    def emitted(s, binding):
        rows = [[f"M{r}_{c}" for c in range(s)] for r in range(s)]
        carry = [[f"P{r}"] for r in range(s)]
        flat = [e for row in rows for e in row]
        body = ([f"{', '.join(flat)}, = A"] + [f"P{r} = {r}" for r in range(s)]
                + emit.lu_lines(rows, carry, "raise singular({p}, TOL, {col})")
                + [f"return [{', '.join(flat)}], [{', '.join(c[0] for c in carry)}]"])
        return emit.function("def lu(A):", body, dict(binding))

    @staticmethod
    def cases(s, rng):
        out = [rng.standard_normal((s, s)) * 10.0 ** rng.integers(-3, 4)
               for _ in range(300)]
        out += [m * 1e200 for m in out[:20]] + [m * 1e-200 for m in out[20:40]]
        out += [np.zeros((s, s)), np.ones((s, s)), np.eye(s)[::-1].copy()]
        tie = np.arange(1.0, s * s + 1).reshape(s, s)
        tie[:, 0] = [(-1.0) ** r for r in range(s)]  # equal |entries|: first wins
        out.append(tie)
        rank1 = np.outer(rng.standard_normal(s), rng.standard_normal(s))
        out.append(rank1)
        near = rng.standard_normal((s, s))
        near[-1] = near[0] * (1 + 1e-13)
        out.append(near)
        return out

    @pytest.mark.parametrize("s", [1, 2, 3])
    def test_matches_lu_factor(self, s):
        rng = np.random.default_rng(80 + s)
        for binding in (emit.FED, emit.GIVEN):
            lu = self.emitted(s, binding)
            verdicts = set()
            for a in self.cases(s, rng):
                try:
                    want, piv, _ = lu_factor_oracle(a)
                except SingularMatrixError as exc:
                    with pytest.raises(SingularMatrixError) as got:
                        lu(a.ravel().tolist())
                    assert str(got.value) == str(exc)
                    verdicts.add("singular")
                    continue
                factors, perm = lu(a.ravel().tolist())
                assert same_bits(np.reshape(factors, (s, s)), want)
                assert perm == piv.tolist()
                verdicts.add("regular")
            assert verdicts == {"singular", "regular"}

    @pytest.mark.parametrize("s", [1, 2, 3])
    def test_non_finite_entries_follow_numpy(self, s):
        # values given to the stage by the point evaluations may be inf or
        # nan; that binding picks pivots and thresholds as np.argmax and
        # np.max do, and divides by zero as numpy does
        rng = np.random.default_rng(90 + s)
        lu = self.emitted(s, emit.GIVEN)
        for bad in (np.inf, -np.inf, np.nan):
            for _ in range(40):
                a = rng.standard_normal((s, s))
                a[tuple(rng.integers(0, s, 2))] = bad
                if rng.random() < 0.3:
                    a[:, 0] = 0.0
                    a[rng.integers(0, s), rng.integers(0, s)] = bad
                try:
                    with np.errstate(all="ignore"):
                        want, piv, _ = lu_factor_oracle(a)
                except SingularMatrixError as exc:
                    with pytest.raises(SingularMatrixError) as got:
                        lu(a.ravel().tolist())
                    assert str(got.value) == str(exc)
                    continue
                factors, perm = lu(a.ravel().tolist())
                assert np.array_equal(np.reshape(factors, (s, s)), want,
                                      equal_nan=True)
                assert perm == piv.tolist()
