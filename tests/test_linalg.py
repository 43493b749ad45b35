import math
import re
import warnings

import numpy as np
import pytest
import scipy.linalg

from daekit import linalg
from daekit.errors import MatrixOverflowError, SingularMatrixError

from helpers import (
    gauss_solve_rows_oracle,
    gauss_solve_stack_oracle,
    lu_apply_oracle,
    lu_factor_oracle,
)


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

    @pytest.mark.parametrize("a", [
        [[1.0, 2.0], [3.0, 4.0]],
        [[1.0, 1.0], [1.0, 1.0 + 2.0**-40]],  # below tol: sign 0
        [[2.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 2.0]],
        [[0.0, 1.0, 2.0, 3.0], [1.0, 0.0, 1.0, 2.0], [2.0, 1.0, 0.0, 1.0],
         [3.0, 2.0, 1.0, 0.0]],
    ])
    def test_sign_survives_overflow_and_underflow(self, a):
        # a * 2^k scales the LU exactly; past about 2^(+-1000/n) the
        # pivots' product or scale**n leaves the floats, and the test
        # moves to logs
        a = np.array(a)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            want, det = linalg.det_sign(a, 1e-8)
            for k in range(-1000, 1001, 50):
                got, det_k = linalg.det_sign(a * 2.0**k, 1e-8)
                assert got == want, k
                assert math.copysign(1.0, det_k) == math.copysign(1.0, det)
                assert linalg.det_sign(a * 2.0**k, 0.0)[0] == np.sign(det)

    def test_overflow_gives_inf(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert linalg.det_sign(1e191 * np.eye(2), 0.0) == (1, math.inf)
            assert linalg.det_sign(np.diag([-1e200, 1e200]), 1e-12) == (
                -1, -math.inf)
            sign, det = linalg.det_sign(np.diag([1e-200, -1e-200]), 0.0)
            assert sign == -1 and det == 0.0

    @pytest.mark.parametrize("a", [
        [[math.nan, 0.0], [0.0, 1.0]],
        [[1.0, 2.0], [3.0, math.nan]],
        [[math.inf, math.inf], [math.inf, math.inf]],  # inf - inf
    ])
    def test_nan_det_has_no_sign(self, a):
        for tol in (1e-8, 0.0):
            sign, det = linalg.det_sign(np.array(a), tol)
            assert sign == 0 and math.isnan(det)

    def test_finite_bits_unchanged(self):
        # where the pivots' product and scale**n are finite, det is that
        # product and the zero test is |det| < tol * scale**n
        rng = np.random.default_rng(12)
        for _ in range(300):
            n = int(rng.integers(1, 6))
            a = rng.standard_normal((n, n)) * 10.0 ** rng.integers(-5, 6)
            lu, _, swaps = linalg.lu_factor(a, rtol=0.0)
            det = float(np.prod(np.diag(lu))) * (-1.0 if swaps % 2 else 1.0)
            sign, got = linalg.det_sign(a, 1e-3)
            assert bits(got) == bits(det)
            small = abs(det) < 1e-3 * linalg.row_scale(a) ** n
            assert sign == (0 if small else (1 if det > 0 else -1))


def assert_expm_near_scipy(a):
    """linalg.expm(a) has scipy.linalg.expm(a)'s dtype and shape and lies
    within 1e-11 times its largest |entry|, or raises MatrixOverflowError
    where scipy's result is not finite. scipy is the test's oracle only."""
    with np.errstate(over="ignore", invalid="ignore"):
        want = scipy.linalg.expm(a)
    if not np.all(np.isfinite(want)):
        with pytest.raises(MatrixOverflowError):
            linalg.expm(a)
        return
    got = linalg.expm(a)
    assert (got.dtype, got.shape) == (want.dtype, want.shape)
    assert np.max(np.abs(got - want)) <= 1e-11 * np.max(np.abs(want)), a


def assert_expm_one_by_one(x):
    """linalg.expm([[x]]) is [[math.exp(x)]] bit for bit and within one ulp
    of scipy.linalg.expm's, or raises MatrixOverflowError where both
    overflow."""
    a = np.array([[x]])
    with np.errstate(over="ignore"):
        want = scipy.linalg.expm(a)
    if not np.isfinite(want).all():
        with pytest.raises(MatrixOverflowError):
            linalg.expm(a)
        return
    got = linalg.expm(a)
    assert (got.dtype, got.shape) == (want.dtype, want.shape)
    assert got.tobytes() == bits([[math.exp(x)]]).tobytes(), x
    assert abs(got[0, 0] - want[0, 0]) <= np.spacing(want[0, 0]), x


class TestExpm:
    def test_zero(self):
        assert np.array_equal(linalg.expm(np.zeros((3, 3))), np.eye(3))

    def test_empty(self):
        # a 0x0 matrix gives a 0x0 array, as scipy.linalg.expm does
        got, want = linalg.expm(np.zeros((0, 0))), scipy.linalg.expm(np.zeros((0, 0)))
        assert (got.dtype, got.shape) == (want.dtype, want.shape) == (
            np.dtype(float), (0, 0))
        with pytest.raises(ValueError):
            linalg.expm(np.zeros((0, 1)))

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

    # The 1x1 path is math.exp: it must give math.exp's bits, which lie
    # within one ulp of scipy.linalg.expm's (numpy's SIMD exp), and
    # overflow where scipy's result is not finite. Larger inputs take the
    # [13/13] Pade path and must agree with scipy to 1e-11 relative to the
    # largest entry; most of that is scipy's own error.
    def test_scipy_bits_one_by_one_random(self):
        rng = np.random.default_rng(2005)
        for x in rng.uniform(-750.0, 750.0, 2000):
            assert_expm_one_by_one(x)

    @pytest.mark.parametrize("x", [
        0.0, -0.0, 1.0, -1.0,
        709.78, 709.782712893384, np.nextafter(709.782712893384, np.inf),
        710.0, -745.1, -745.13321910194122, -745.2, -1e4, 1e4])
    def test_scipy_bits_one_by_one_edges(self, x):
        assert_expm_one_by_one(x)

    @pytest.mark.parametrize("x", [math.inf, -math.inf, math.nan])
    def test_one_by_one_non_finite(self, x):
        if x == -math.inf:
            got = linalg.expm(np.array([[x]]))
            assert got.tobytes() == bits([[0.0]]).tobytes()
        else:
            with pytest.raises(MatrixOverflowError):
                linalg.expm(np.array([[x]]))

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_near_scipy_random(self, n):
        rng = np.random.default_rng(n)
        for scale in (0.1, 2.0, 50.0):
            for _ in range(100):
                assert_expm_near_scipy(rng.uniform(-scale, scale, (n, n)))

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_near_scipy_diagonal(self, n):
        rng = np.random.default_rng(10 + n)
        for _ in range(100):
            assert_expm_near_scipy(np.diag(rng.uniform(-750.0, 750.0, n)))

    @pytest.mark.parametrize("t", [1e-3, 0.3, 1.0, math.pi / 2, math.pi, 6.0])
    def test_rotation_generator(self, t):
        m = linalg.expm(np.array([[0.0, -t], [t, 0.0]]))
        c, s = math.cos(t), math.sin(t)
        assert np.max(np.abs(m - np.array([[c, -s], [s, c]]))) <= 1e-15

    def test_jordan_block(self):
        m = linalg.expm(np.array([[0.0, 1.0], [0.0, 0.0]]))
        assert m.tobytes() == bits([[1.0, 1.0], [0.0, 1.0]]).tobytes()

    @pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
    def test_non_finite_entry(self, x):
        with pytest.raises(MatrixOverflowError):
            linalg.expm(np.array([[1.0, 0.0], [x, 1.0]]))

    @pytest.mark.parametrize("shape", [(2, 3), (3, 2), (2,), (2, 2, 2)])
    def test_not_square(self, shape):
        with pytest.raises(ValueError, match="square matrix required"):
            linalg.expm(np.ones(shape))

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


def bits(a):
    return np.asarray(a, dtype=float).view(np.uint64)


class TestRowsFactorization:
    """lu_factor / lu_apply, one matrix at a time, against the numpy loop
    they replaced (helpers.lu_factor_oracle) on the matrix families the
    stacked LU was checked on: random, singular, rank one, scaled by
    1e+-200, zero, and with an inf, -inf or nan entry."""

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
            regular = singular = 0
            for a in [m for _ in range(8) for m in self.matrices(rng, n)]:
                b = rng.uniform(-1, 1, n)
                try:
                    old = lu_factor_oracle(a)
                except SingularMatrixError as exc:
                    with pytest.raises(SingularMatrixError, match=re.escape(str(exc))):
                        linalg.lu_factor(a)
                    singular += 1
                    continue
                regular += 1
                lu, piv, swaps = linalg.lu_factor(a)
                assert np.array_equal(bits(lu), bits(old[0]))
                assert np.array_equal(piv, old[1]) and piv.dtype == old[1].dtype
                assert swaps == old[2]
                x = linalg.lu_apply(lu, piv, b)
                x_old = lu_apply_oracle(*old[:2], b)
                # the oracle's 1-D dot products may round differently in
                # BLAS; with at most one term per dot (n <= 2) they cannot
                if n <= 2:
                    assert np.array_equal(bits(x), bits(x_old))
                else:
                    assert np.allclose(x, x_old, rtol=1e-12, atol=0.0,
                                       equal_nan=True)
            assert regular >= 8 and singular >= 8

    def test_several_right_hand_sides(self):
        rng = np.random.default_rng(29)
        for _ in range(5):
            a = rng.uniform(-2, 2, (3, 3))
            b = rng.uniform(-1, 1, (3, 4))
            lu, piv, _ = linalg.lu_factor(a)
            x = linalg.lu_apply(lu, piv, b)
            assert x.shape == (3, 4)
            for j in range(4):
                assert np.array_equal(bits(x[:, j]),
                                      bits(linalg.lu_solve(a, b[:, j])))


def substitution_left_to_right(lu, piv, b):
    """Forward then back substitution in plain Python floats, each dot
    product summed left to right from 0.0."""
    lu, x = lu.tolist(), [float(b[p]) for p in piv]
    n = len(x)
    for i in range(n):
        acc = 0.0
        for j in range(i):
            acc += lu[i][j] * x[j]
        x[i] -= acc
    for i in range(n - 1, -1, -1):
        acc = 0.0
        for j in range(i + 1, n):
            acc += lu[i][j] * x[j]
        x[i] = (x[i] - acc) / lu[i][i]
    return x


class TestHostIndependentSolve:
    @pytest.mark.parametrize("n", [3, 4])
    def test_lu_apply_sums_left_to_right(self, n):
        # a matmul or BLAS dot may sum or fuse the products of the
        # substitution in a host-dependent order; lu_apply may not
        rng = np.random.default_rng(300 + n)
        for _ in range(200):
            a = rng.standard_normal((n, n))
            b = rng.standard_normal(n)
            lu, piv, _ = linalg.lu_factor(a)
            want = substitution_left_to_right(lu, piv, b)
            assert np.array_equal(bits(linalg.lu_apply(lu, piv, b)), bits(want))


def solve_entry_major(a, b):
    """linalg._solve_rows on row-major stacks a (N, n, n) and b (N, n),
    through entry-major copies: the solutions (N, n)."""
    n = b.shape[1]
    jac = a.reshape(len(a), n * n).T.copy()  # the solve overwrites it
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return linalg._solve_rows(jac, b.T.copy()).T


def assert_same_solutions(got, want):
    """nan in the same places, and the same bits everywhere else."""
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert bits(got[~nan]).tobytes() == bits(want[~nan]).tobytes()


class TestSolveRows:
    """linalg._solve_rows against the plain-Python elimination of
    helpers.gauss_solve_oracle, one matrix at a time, and against its
    row-major stacked form helpers.gauss_solve_stack_oracle, which the
    sweep oracle uses."""

    def test_zero_pivots_give_nan_rows_and_the_oracle_bits_elsewhere(self):
        # exactly singular binary-fraction matrices, scaled by 10^k: some
        # meet a zero pivot and come back all nan, the rest (rounding made
        # them nonsingular) must have the oracles' bits, and a random
        # nonsingular stack must too
        rng = np.random.default_rng(4242)
        m = 2048  # matrices per order and scale
        rows = nan_rows = 0
        for n in (2, 3, 4):
            base = (rng.integers(-8, 9, (m, n, n))
                    / 2.0 ** rng.integers(0, 4, (m, 1, 1)))
            # the last row is an integer combination of the others, exact
            # in binary, then the rows are shuffled
            coef = rng.integers(-3, 4, (m, n - 1))
            base[:, -1] = np.einsum("mi,mij->mj", coef, base[:, :-1])
            order = rng.permuted(np.tile(np.arange(n), (m, 1)), axis=1)
            base = np.take_along_axis(base, order[..., None], axis=1)
            stacks = [base * 10.0**k for k in range(-60, 61)]
            stacks.append(rng.standard_normal((m, n, n)))
            for a in stacks:
                b = rng.standard_normal((m, n))
                x = solve_entry_major(a, b)
                bad = np.isnan(x).any(axis=1)
                assert np.isnan(x[bad]).all()
                assert_same_solutions(x, gauss_solve_stack_oracle(a, b))
                # one row in 64 from the plain-Python oracle, nan rows
                # first
                some = np.concatenate([np.flatnonzero(bad)[:8],
                                       np.arange(0, m, 64)])
                assert_same_solutions(
                    x[some], gauss_solve_rows_oracle(a[some], b[some]))
                rows += len(a)
                nan_rows += int(bad.sum())
        assert rows == 743_424 + 3 * m and nan_rows > 100_000

    def test_entry_major_views_and_out_give_the_same_bits(self):
        # the zero sweep passes column slices of larger entry-major (n * n,
        # M) and (n, M) buffers and takes the solution through out=: the
        # bits and the nan rows (zero pivots, which binary-fraction
        # matrices with a repeated row often meet; nan and inf entries)
        # equal the oracle's
        rng = np.random.default_rng(2718)
        m, nan_rows = 4096, 0
        for n in (1, 2, 3, 4, 8):
            a = rng.integers(-4, 5, (m, n, n)) / 2.0
            a[::3, -1] = a[::3, 0] if n > 1 else 0.0
            a[1::3] = rng.standard_normal((len(a[1::3]), n, n))
            odd = rng.random((m, n, n)) < 0.2 / n**2
            a[odd] = rng.choice([np.inf, -np.inf, np.nan], int(odd.sum()))
            b = rng.standard_normal((m, n))
            want = gauss_solve_rows_oracle(a, b)
            jbuf = np.full((n * n, m + 100), 7.0)
            vbuf = np.full((n, m + 100), 7.0)
            jbuf[:, :m] = a.reshape(m, n * n).T
            vbuf[:, :m] = b.T
            xt = np.full((n, m), 7.0)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = linalg._solve_rows(jbuf[:, :m], vbuf[:, :m], out=xt)
            assert got is xt
            assert_same_solutions(xt.T, want)
            assert (jbuf[:, m:] == 7.0).all() and (vbuf[:, m:] == 7.0).all()
            # an inf entry may leave a row partly nan; a zero pivot does not
            bad = np.isnan(want).any(axis=1)
            assert np.isnan(want[bad & ~odd.any(axis=(1, 2))]).all()
            nan_rows += int(bad.sum())
        assert nan_rows > m

    def test_a_row_has_the_same_bits_alone_and_in_a_large_stack(self):
        # elementwise ufuncs give each row the same numbers whatever the
        # stack's length, its other rows, or which exchanges they need
        rng = np.random.default_rng(65536)
        m, n = 65536, 4
        a = (rng.standard_normal((m, n, n))
             * 10.0 ** rng.integers(-3, 4, (m, 1, 1)))
        a[::5, :, 0] = 0.0  # a zero column: a zero pivot, all nan
        b = rng.standard_normal((m, n))
        x = solve_entry_major(a, b)
        for i in rng.choice(m, 200, replace=False).tolist() + [0, m - 1]:
            assert_same_solutions(solve_entry_major(a[i:i + 1], b[i:i + 1]),
                                  x[i:i + 1])
            assert_same_solutions(
                x[i:i + 1], gauss_solve_rows_oracle(a[i:i + 1], b[i:i + 1]))
        assert np.isnan(x[::5]).all()

    def test_needs_an_entry_major_stack(self):
        with pytest.raises(ValueError):
            linalg._solve_rows(np.zeros((3, 2, 2)), np.zeros((3, 2)))


class TestNorm1Rows:
    def test_any_layout_gives_the_c_contiguous_bits(self):
        # np.sum adds a contiguous row of 8 or more entries pairwise, and
        # the columns of an entry-major array left to right
        rng = np.random.default_rng(1618)
        for n in range(1, 17):
            em = (rng.standard_normal((n, 5000))
                  * 10.0 ** rng.integers(-20, 21, (n, 5000)))
            want = np.sum(np.abs(np.ascontiguousarray(em.T)), axis=1)
            got = linalg.norm1_rows(em.T)
            assert bits(got).tobytes() == bits(want).tobytes(), n
