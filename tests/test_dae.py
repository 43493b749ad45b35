import math

import numpy as np
import pytest

from daekit import (
    forcing_field,
    perturbed_field,
    solve_constraint,
    tangency_defect,
    tangent_field,
    validate,
)
from daekit.dae import Box, ManifoldPoint, halton
from daekit.errors import (
    ConstraintSolveError,
    HypothesisViolationError,
    SingularMatrixError,
)
from daekit.linalg import norm1


class TestBox:
    def test_bad_bounds(self):
        with pytest.raises(ValueError):
            Box.from_pairs([(1.0, -1.0)])
        with pytest.raises(ValueError):
            Box(np.array([0.0]), np.array([np.inf]))

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
