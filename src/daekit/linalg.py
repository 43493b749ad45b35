"""Small dense linear algebra with explicit singularity thresholds.

Matrices and vectors are plain numpy arrays (row-major). Every problem this
toolkit handles is tiny (a handful of rows), so everything here is dense
O(n^3) with deterministic pivoting; thresholds are relative to the row-norm
scale so sign tests behave the same under rescaling of the equations.
"""

import numpy as np
import scipy.linalg

from .errors import MatrixOverflowError, SingularMatrixError

PIVOT_RTOL = 1e-12


def norm1(v):
    """Sum-of-absolute-values norm, the convention used throughout."""
    return float(np.sum(np.abs(v)))


def norm1_rows(v):
    """norm1 of every row of v (N, n)."""
    return np.sum(np.abs(v), axis=1)


def row_scale(a):
    """Largest absolute entry by row sums; 0 only for the zero matrix."""
    a = np.asarray(a, dtype=float)
    if a.size == 0:
        return 0.0
    return float(np.max(norm1_rows(a)))


def lu_factor(a, rtol=PIVOT_RTOL):
    """Partial-pivot LU. Returns (lu, piv, swaps); raises on tiny pivots.

    The singularity threshold is rtol times the largest |entry| of the
    input, so it is scale-relative. The one-matrix case of lu_factor_rows.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("square matrix required")
    lu, piv, failed = lu_factor_rows(a[None], rtol)
    if failed:
        raise failed[0]
    return lu[0], piv[0], _swaps(piv[0])


def _swaps(piv):
    """The row exchanges partial pivoting made to reach piv: it exchanges
    each column at most once, so their number is n minus the cycles of
    piv."""
    seen = [False] * len(piv)
    cycles = 0
    for i in range(len(piv)):
        if not seen[i]:
            cycles += 1
            while not seen[i]:
                seen[i] = True
                i = int(piv[i])
    return len(piv) - cycles


def lu_apply(lu, piv, b):
    """Solve using a factorization from lu_factor (the one-matrix case of
    lu_apply_rows); b is (n,) or (n, m)."""
    b = np.asarray(b, dtype=float)
    return lu_apply_rows(lu[None], piv[None], b[None])[0]


def lu_solve(a, b):
    """Solve A x = b with partial pivoting; raises SingularMatrixError."""
    lu, piv, _ = lu_factor(a)
    return lu_apply(lu, piv, b)


def _pivot_error(pivot, tol, col):
    """The error of a pivot at most its threshold."""
    return SingularMatrixError(
        f"pivot {pivot:.3e} below threshold {tol:.3e} at column {col}"
    )


def _check_pivots(a, pivot, tol, col, failed):
    """The singularity test on one pivot of every matrix; a rejected matrix
    becomes nan, so its elimination and solves run on quietly."""
    small = np.abs(pivot) <= tol
    if np.count_nonzero(small):
        for i in np.flatnonzero(small):
            failed.setdefault(int(i), _pivot_error(pivot[i], tol[i], col))
        a[small] = np.nan


def lu_factor_rows(a, rtol=PIVOT_RTOL):
    """Partial-pivot LU of every matrix in the stack a (N, n, n) at once.

    Each matrix picks the largest |entry| of its column as the pivot and is
    rejected when that is at most rtol times its largest |entry|, the
    scale-relative threshold. Only elementwise operations touch the
    entries, so every factor is the one its matrix gets alone, bit for bit.
    Returns (lu, piv, failed): failed maps the index of every rejected
    matrix to the SingularMatrixError lu_factor raises for it; the factors
    of those rows are nan.
    """
    a = np.array(a, dtype=float)
    n_rows, n = a.shape[:2]
    if a.shape != (n_rows, n, n):
        raise ValueError("stack of square matrices required")
    piv = np.zeros((n_rows, n), dtype=int)
    failed = {}
    if n == 1:  # one candidate pivot: no search, no elimination
        _check_pivots(a, a[:, 0, 0], rtol * np.abs(a[:, 0, 0]), 0, failed)
        return a, piv, failed
    piv += np.arange(n)
    rows = np.arange(n_rows)
    tol = rtol * np.max(np.abs(a), axis=(1, 2)) if n else None
    for col in range(n):
        if col + 1 == n:
            _check_pivots(a, a[:, col, col], tol, col, failed)
            break
        r = col + np.argmax(np.abs(a[:, col:, col]), axis=1)
        _check_pivots(a, a[rows, r, col], tol, col, failed)
        swap = np.flatnonzero(r != col)
        if swap.size:
            rs = r[swap]
            a[swap, col], a[swap, rs] = a[swap, rs], a[swap, col]
            piv[swap, col], piv[swap, rs] = piv[swap, rs], piv[swap, col]
        a[:, col + 1 :, col] /= a[:, col, None, col]
        a[:, col + 1 :, col + 1 :] -= (
            a[:, col + 1 :, col, None] * a[:, None, col, col + 1 :]
        )
    return a, piv, failed


def _dot_rows(u, v):
    """Row-wise dot products, one stacked matmul: each row's product takes
    the same path whatever the number of rows."""
    return np.matmul(u[:, None, :], v[:, :, None])[:, 0, 0]


def lu_apply_rows(lu, piv, b):
    """Solve with the factors of lu_factor_rows, forward then back
    substitution: b is (N, n), or (N, n, m) for m right-hand sides per
    row."""
    b = np.asarray(b, dtype=float)
    n = lu.shape[1]
    if n == 1:  # nothing to substitute
        return b / lu.reshape((len(lu),) + (1,) * (b.ndim - 1))
    if b.ndim == 3:
        return np.stack([lu_apply_rows(lu, piv, b[:, :, j])
                         for j in range(b.shape[2])], axis=2)
    x = b[np.arange(len(b))[:, None], piv]
    for i in range(1, n):
        x[:, i] -= _dot_rows(lu[:, i, :i], x[:, :i])
    for i in range(n - 1, -1, -1):
        if i + 1 < n:
            x[:, i] -= _dot_rows(lu[:, i, i + 1 :], x[:, i + 1 :])
        x[:, i] /= lu[:, i, i]
    return x


def det_sign(a, tol=1e-12):
    """(sign, det) from pivoted LU; sign is 0 when |det| < tol * scale**n.

    scale is the largest row sum of |entries|, making the zero test invariant
    under uniform rescaling of the matrix.
    """
    a = np.asarray(a, dtype=float)
    n = a.shape[0]
    scale = row_scale(a)
    if scale == 0.0:
        return 0, 0.0
    try:
        lu, _, swaps = lu_factor(a, rtol=0.0)
    except SingularMatrixError:
        return 0, 0.0
    det = float(np.prod(np.diag(lu))) * (-1.0 if swaps % 2 else 1.0)
    if abs(det) < tol * scale**n:
        return 0, det
    return (1 if det > 0 else -1), det


def expm(a):
    """Matrix exponential (scaling-and-squaring with a high-order approximant)."""
    a = np.asarray(a, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        out = scipy.linalg.expm(a)
    if not np.all(np.isfinite(out)):
        raise MatrixOverflowError("matrix exponential overflowed")
    return out


def near_singular(a, tol):
    """True when the smallest singular value is below tol * scale.

    sigma_min comes from the singular value decomposition; scale is
    max(1, largest row sum), so absolute near-zero matrices count as
    singular no matter how small their entries are. Non-finite matrices
    count as singular.
    """
    a = np.asarray(a, dtype=float)
    if not np.all(np.isfinite(a)):
        return True
    scale = max(1.0, row_scale(a))
    sigma_min = float(np.linalg.svd(a, compute_uv=False)[-1])
    return bool(sigma_min < tol * scale)


def block_schur_det(j, k, s):
    """Split det J into det(d2g) * det(Schur complement of the (2,2) block).

    J is (k+s) x (k+s) with the constraint Jacobian blocks in the bottom rows;
    returns (det of the s x s lower-right block, det of
    J11 - J12 [J22]^-1 J21). Raises SingularMatrixError when the lower-right
    block is singular.
    """
    j = np.asarray(j, dtype=float)
    if j.shape != (k + s, k + s):
        raise ValueError("block shape mismatch")
    a11 = j[:k, :k]
    a12 = j[:k, k:]
    a21 = j[k:, :k]
    a22 = j[k:, k:]
    lu, piv, swaps = lu_factor(a22)
    det22 = float(np.prod(np.diag(lu))) * (-1.0 if swaps % 2 else 1.0)
    if k == 0:
        return det22, 1.0
    x = lu_apply(lu, piv, a21)
    schur = a11 - a12 @ x
    _, det_s = det_sign(schur, tol=0.0)
    return det22, det_s
