import math
import re

import numpy as np
import pytest
import scipy.linalg

from daekit import linalg
from daekit.errors import MatrixOverflowError, SingularMatrixError

from helpers import lu_apply_oracle, lu_factor_oracle


class TestLuSolve:
    def test_identity(self):
        b = np.array([3.0, -1.0, 2.0])
        assert np.array_equal(linalg.lu_solve(np.eye(3), b), b)

    def test_diagonal(self):
        x = linalg.lu_solve(np.array([[2.0, 0.0], [0.0, 4.0]]), np.array([2.0, 4.0]))
        assert np.allclose(x, [1.0, 1.0], rtol=0, atol=1e-14)

    def test_singular(self):
        with pytest.raises(SingularMatrixError):
            linalg.lu_solve(np.ones((2, 2)), np.array([1.0, 2.0]))

    def test_residual_bound(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            n = int(rng.integers(1, 7))
            a = rng.uniform(-1, 1, (n, n)) + 2.0 * np.eye(n)
            b = rng.uniform(-1, 1, n)
            x = linalg.lu_solve(a, b)
            assert linalg.norm1(a @ x - b) <= 1e-10 * (1 + linalg.norm1(b))


class TestDetSign:
    def test_identity(self):
        sign, det = linalg.det_sign(np.eye(4), 1e-8)
        assert (sign, det) == (1, 1.0)

    def test_planar_linearization(self):
        # d(f,g) at the origin for the forced Lienard fixture
        sign, det = linalg.det_sign(np.array([[0.0, -1.0], [1.0, 1.0]]), 1e-8)
        assert sign == 1
        assert det == pytest.approx(1.0, rel=1e-14)

    def test_singular(self):
        sign, _ = linalg.det_sign(np.array([[0.0, 0.0], [0.0, 1.0]]), 1e-8)
        assert sign == 0

    def test_scale_invariance(self):
        a = np.array([[1e-9, 0.0], [0.0, 1e-9]])
        sign, _ = linalg.det_sign(a, 1e-8)
        assert sign == 1  # tiny but proportionally well-conditioned

    def test_det_multiplicative(self):
        rng = np.random.default_rng(11)
        for _ in range(500):
            n = int(rng.integers(1, 7))
            a = rng.uniform(-2, 2, (n, n))
            b = rng.uniform(-2, 2, (n, n))
            _, da = linalg.det_sign(a, 0.0)
            _, db = linalg.det_sign(b, 0.0)
            _, dab = linalg.det_sign(a @ b, 0.0)
            assert dab == pytest.approx(da * db, rel=1e-8, abs=1e-12)


def assert_expm_matches_scipy(a):
    """linalg.expm(a) has scipy.linalg.expm(a)'s bits, dtype and shape, or
    raises MatrixOverflowError where scipy's result is not finite."""
    with np.errstate(over="ignore", invalid="ignore"):
        want = scipy.linalg.expm(a)
    if not np.all(np.isfinite(want)):
        with pytest.raises(MatrixOverflowError):
            linalg.expm(a)
        return
    got = linalg.expm(a)
    assert (got.dtype, got.shape) == (want.dtype, want.shape)
    assert got.tobytes() == want.tobytes(), a


class TestExpm:
    def test_zero(self):
        assert np.array_equal(linalg.expm(np.zeros((3, 3))), np.eye(3))

    def test_rotation_by_pi(self):
        m = linalg.expm(np.array([[0.0, -math.pi], [math.pi, 0.0]]))
        assert np.max(np.abs(m + np.eye(2))) <= 1e-10

    def test_scalar(self):
        assert linalg.expm(np.array([[1.0]]))[0, 0] == pytest.approx(
            math.e, rel=1e-12
        )

    def test_overflow(self):
        with pytest.raises(MatrixOverflowError):
            linalg.expm(np.array([[1e4]]))

    def test_inverse_identity(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            n = int(rng.integers(1, 5))
            a = rng.uniform(-2, 2, (n, n))
            prod = linalg.expm(a) @ linalg.expm(-a)
            assert np.max(np.abs(prod - np.eye(n))) <= 1e-8

    # The 1x1 path is np.exp and skips scipy; larger inputs call scipy.
    # Both must give scipy.linalg.expm's bits.
    def test_scipy_bits_one_by_one_random(self):
        rng = np.random.default_rng(2005)
        for x in rng.uniform(-750.0, 750.0, 2000):
            assert_expm_matches_scipy(np.array([[x]]))

    @pytest.mark.parametrize("x", [
        0.0, -0.0, 1.0, -1.0,
        709.78, 709.782712893384, np.nextafter(709.782712893384, np.inf),
        710.0, -745.1, -745.13321910194122, -745.2, -1e4, 1e4])
    def test_scipy_bits_one_by_one_edges(self, x):
        assert_expm_matches_scipy(np.array([[x]]))

    @pytest.mark.parametrize("n", [2, 3])
    def test_scipy_bits_random(self, n):
        rng = np.random.default_rng(n)
        for scale in (0.1, 2.0, 50.0):
            for _ in range(100):
                assert_expm_matches_scipy(rng.uniform(-scale, scale, (n, n)))

    @pytest.mark.parametrize("n", [2, 3])
    def test_scipy_bits_diagonal(self, n):
        rng = np.random.default_rng(10 + n)
        for _ in range(100):
            assert_expm_matches_scipy(np.diag(rng.uniform(-750.0, 750.0, n)))

    def test_overflow_two_by_two(self):
        with pytest.raises(MatrixOverflowError):
            linalg.expm(np.array([[1e3, 1.0], [1.0, 1e3]]))


class TestNearSingular:
    def test_identity(self):
        assert linalg.near_singular(np.eye(3), 1e-8) is False

    def test_rank_deficient(self):
        assert linalg.near_singular(np.ones((2, 2)), 1e-8) is True

    def test_absolute_tiny(self):
        assert linalg.near_singular(np.array([[1e-12]]), 1e-8) is True

    def test_zero_matrix(self):
        assert linalg.near_singular(np.zeros((2, 2)), 1e-8) is True

    def test_known_smallest_singular_value(self):
        # sigma_min = 3e-7 is 30x above tol = 1e-8 (scale stays below 3):
        # not singular; the same matrices with sigma_min = 1e-9 are
        rng = np.random.default_rng(17)
        for _ in range(50):
            u, _ = np.linalg.qr(rng.standard_normal((3, 3)))
            v, _ = np.linalg.qr(rng.standard_normal((3, 3)))
            a = u @ np.diag([1.0, 0.5, 3e-7]) @ v.T
            assert linalg.near_singular(a, 1e-8) is False
            b = u @ np.diag([1.0, 0.5, 1e-9]) @ v.T
            assert linalg.near_singular(b, 1e-8) is True


class TestBlockSchurDet:
    def test_cubic_well_blocks(self):
        # k=2, s=1 blocks of the damped-oscillator fixture at the origin
        j = np.array([
            [0.0, 1.0, 0.0],
            [-1.0, -1.0, 1.0],
            [0.0, 0.0, 1.0],
        ])
        d22, ds = linalg.block_schur_det(j, 2, 1)
        assert d22 == pytest.approx(1.0, rel=1e-14)
        assert ds == pytest.approx(1.0, rel=1e-14)
        _, full = linalg.det_sign(j, 0.0)
        assert d22 * ds == pytest.approx(full, rel=1e-8)

    def test_block_diagonal(self):
        j = np.zeros((4, 4))
        j[:2, :2] = np.array([[2.0, 1.0], [0.0, 3.0]])   # d1f
        j[2:, 2:] = np.array([[4.0, 0.0], [1.0, 0.5]])   # d2g
        d22, ds = linalg.block_schur_det(j, 2, 2)
        assert d22 == pytest.approx(2.0, rel=1e-12)
        assert ds == pytest.approx(6.0, rel=1e-12)

    def test_singular_block(self):
        j = np.eye(3)
        j[2, 2] = 0.0
        with pytest.raises(SingularMatrixError):
            linalg.block_schur_det(j, 2, 1)

    def test_product_identity(self):
        rng = np.random.default_rng(17)
        for _ in range(500):
            k = int(rng.integers(1, 4))
            s = int(rng.integers(1, 4))
            j = rng.uniform(-2, 2, (k + s, k + s))
            j[k:, k:] += 3.0 * np.eye(s)  # well-conditioned constraint block
            d22, ds = linalg.block_schur_det(j, k, s)
            _, full = linalg.det_sign(j, 0.0)
            assert d22 * ds == pytest.approx(full, rel=1e-8, abs=1e-10)


def bits(a):
    return np.asarray(a, dtype=float).view(np.uint64)


class TestRowsFactorization:
    """lu_factor_rows / lu_apply_rows: each matrix of a stack gets its
    one-matrix result, and the verdicts and factors of the old loop."""

    @staticmethod
    def matrices(rng, n):
        a = rng.uniform(-2, 2, (n, n))
        singular = a.copy()
        singular[:, -1] = 0.0
        rank_one = np.outer(rng.uniform(-1, 1, n), rng.uniform(-1, 1, n))
        out = [a, singular, rank_one, a * 1e200, a * 1e-200, np.zeros((n, n))]
        for bad in (np.inf, -np.inf, np.nan):
            m = a.copy()
            m[rng.integers(n), rng.integers(n)] = bad
            out.append(m)
        return out

    def test_same_verdicts_and_bits(self):
        rng = np.random.default_rng(23)
        for n in range(1, 5):
            stack = [m for _ in range(8) for m in self.matrices(rng, n)]
            lu, piv, failed = linalg.lu_factor_rows(np.array(stack))
            b = rng.uniform(-1, 1, (len(stack), n))
            x = linalg.lu_apply_rows(lu, piv, b)
            seen = 0
            for i, a in enumerate(stack):
                try:
                    old = lu_factor_oracle(a)
                except SingularMatrixError as exc:
                    assert i in failed
                    assert type(failed[i]) is SingularMatrixError
                    assert str(failed[i]) == str(exc)
                    with pytest.raises(SingularMatrixError, match=re.escape(str(exc))):
                        linalg.lu_factor(a)
                    continue
                assert i not in failed
                seen += 1
                lu1, piv1, swaps1 = linalg.lu_factor(a)
                for got in ((lu[i], piv[i]), (lu1, piv1)):
                    assert np.array_equal(bits(got[0]), bits(old[0]))
                    assert np.array_equal(got[1], old[1])
                assert swaps1 == old[2]
                x1 = linalg.lu_apply(lu1, piv1, b[i])
                assert np.array_equal(bits(x[i]), bits(x1))
                # the old loop's 1-D dot products may round differently in
                # BLAS; with at most one term per dot (n <= 2) they cannot
                x_old = lu_apply_oracle(*old[:2], b[i])
                if n <= 2:
                    assert np.array_equal(bits(x1), bits(x_old))
                else:
                    assert np.allclose(x1, x_old, rtol=1e-12, atol=0.0,
                                       equal_nan=True)
            assert seen >= 8 and len(failed) >= 8

    def test_several_right_hand_sides(self):
        rng = np.random.default_rng(29)
        a = rng.uniform(-2, 2, (5, 2, 2))
        b = rng.uniform(-1, 1, (5, 2, 3))
        lu, piv, failed = linalg.lu_factor_rows(a)
        assert not failed
        x = linalg.lu_apply_rows(lu, piv, b)
        for i in range(5):
            for j in range(3):
                assert np.array_equal(bits(x[i, :, j]),
                                      bits(linalg.lu_solve(a[i], b[i, :, j])))
