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


def row_scale(a):
    """Largest absolute entry by row sums; 0 only for the zero matrix."""
    a = np.asarray(a, dtype=float)
    if a.size == 0:
        return 0.0
    return float(np.max(np.sum(np.abs(a), axis=1)))


def lu_factor(a, rtol=PIVOT_RTOL):
    """Partial-pivot LU. Returns (lu, piv, swaps); raises on tiny pivots.

    The singularity threshold is rtol times the largest |entry| of the
    input, so it is scale-relative.
    """
    a = np.array(a, dtype=float)
    n = a.shape[0]
    if a.shape != (n, n):
        raise ValueError("square matrix required")
    piv = np.arange(n)
    swaps = 0
    tol = rtol * (np.max(np.abs(a)) if a.size else 0.0)
    for col in range(n):
        r = col + int(np.argmax(np.abs(a[col:, col])))
        if abs(a[r, col]) <= tol:
            raise SingularMatrixError(
                f"pivot {a[r, col]:.3e} below threshold {tol:.3e} at column {col}"
            )
        if r != col:
            a[[col, r]] = a[[r, col]]
            piv[[col, r]] = piv[[r, col]]
            swaps += 1
        a[col + 1 :, col] /= a[col, col]
        a[col + 1 :, col + 1 :] -= np.outer(a[col + 1 :, col], a[col, col + 1 :])
    return a, piv, swaps


def lu_apply(lu, piv, b):
    """Solve using a factorization from lu_factor."""
    x = np.array(b, dtype=float)[piv]
    n = lu.shape[0]
    for i in range(1, n):
        x[i] -= lu[i, :i] @ x[:i]
    for i in range(n - 1, -1, -1):
        x[i] = (x[i] - lu[i, i + 1 :] @ x[i + 1 :]) / lu[i, i]
    return x


def lu_solve(a, b):
    """Solve A x = b with partial pivoting; raises SingularMatrixError."""
    lu, piv, _ = lu_factor(a)
    return lu_apply(lu, piv, b)


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
    x = np.column_stack([lu_apply(lu, piv, a21[:, i]) for i in range(k)])
    schur = a11 - a12 @ x
    _, det_s = det_sign(schur, tol=0.0)
    return det22, det_s
