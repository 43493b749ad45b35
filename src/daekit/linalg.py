"""Small dense linear algebra with explicit singularity thresholds.

Matrices and vectors are plain numpy arrays (row-major). Every problem this
toolkit handles is tiny (a handful of rows), so everything here is dense
O(n^3) with deterministic pivoting; thresholds are relative to the row-norm
scale so sign tests behave the same under rescaling of the equations.
"""

import functools
import math
import operator

import numpy as np

from . import emit
from .errors import MatrixOverflowError, SingularMatrixError


def norm1(v):
    """Sum-of-absolute-values norm, the convention used throughout."""
    return float(np.sum(np.abs(v)))


def norm1_rows(v):
    """norm1 of every row of v (N, n), with the bits of a C-contiguous v in
    any layout (_norm1_rows)."""
    return _norm1_rows(v)


def _norm1_rows(v):
    """norm1_rows for the zero sweep's step, which may run off the caller's
    thread and so calls no public function (a tracer keeps one span stack
    for the whole process). np.sum adds fewer than 8 entries left to right
    in every layout, but sums a contiguous row of 8 or more pairwise, so
    such rows are summed from a C-contiguous copy."""
    a = np.abs(v)
    if a.shape[1] >= 8:
        a = np.ascontiguousarray(a)
    return np.sum(a, axis=1)


def row_scale(a):
    """Largest absolute entry by row sums; 0 only for the zero matrix."""
    a = np.asarray(a, dtype=float)
    if a.size == 0:
        return 0.0
    return float(np.max(norm1_rows(a)))


def lu_factor(a, rtol=emit.PIVOT_RTOL):
    """Partial-pivot LU. Returns (lu, piv, swaps); raises on tiny pivots.

    Each column takes the first largest |entry| at or below the diagonal as
    its pivot, and the matrix is rejected when that is at most rtol times
    its largest |entry|, so the threshold is scale-relative. Runs the
    compiled LU of its order (_lu) on floats, in numpy's nan order.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("square matrix required")
    lu, piv = _lu(len(a))(a.ravel().tolist(), rtol, None)
    return np.reshape(lu, a.shape), np.array(piv, dtype=int), _swaps(piv)


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
    """Solve using a factorization from lu_factor; b is (n,) or (n, m).
    Forward then back substitution on floats, each dot product summed left
    to right, so the bits do not depend on the host's BLAS."""
    b = np.asarray(b, dtype=float)
    n, flat = len(lu), np.ravel(lu).tolist()
    cols, solve = b.reshape(n, -1)[piv].T.tolist(), _lu(n)
    x = [solve(flat, None, col) for col in cols]
    return np.array(x, dtype=float).reshape(len(cols), n).T.reshape(b.shape)


def lu_solve(a, b):
    """Solve A x = b with partial pivoting; raises SingularMatrixError."""
    lu, piv, _ = lu_factor(a)
    return lu_apply(lu, piv, b)


def _solve_rows(jac, b, out=None):
    """The solutions x of the N systems A x = b stacked entry-major: jac
    (n * n, N) holds entry (r, c) of every A in row r * n + c, b is (n, N)
    and x goes to row r of out (n, N), which must not overlap them. Runs
    _gauss's elimination of order n, which overwrites jac and b. Each
    column's pivot is the first largest |entry| at or below the diagonal,
    with no threshold; a zero pivot makes the whole solution nan. Warns
    about nothing; returns out."""
    n, rows = b.shape
    if jac.shape != (n * n, rows):
        raise ValueError("jac must be (n * n, N) for b (n, N)")
    if out is None:
        out = np.empty((n, rows))
    with np.errstate(all="ignore"):
        _gauss(n)(jac, b, out, np.empty((n, rows), dtype=bool))
    return out


@functools.lru_cache(maxsize=32)
def _lu(n):
    """``lu(A, RTOL, b)`` on floats for order n, emit.lu_lines and
    emit.solve_lines bound to emit.GIVEN, compiled once per order. A is the
    matrix as a flat row-major list; its row indices are exchanged along
    with its rows. Returns the factors and piv as lists when b is None,
    else the solution of A x = b (b a list of n floats). With RTOL None, A
    holds factors already and b is in their row order."""
    rows = [[f"M{r}_{c}" for c in range(n)] for r in range(n)]
    flat = [e for row in rows for e in row]
    ps, xs = [f"P{r}" for r in range(n)], [f"X{r}" for r in range(n)]
    factor = emit.lu_lines(rows, [[p] for p in ps],
                           "raise singular({p}, TOL, {col})")
    body = [f"{p} = {r}" for r, p in enumerate(ps)]
    if factor:
        body += ["if RTOL is not None:"] + emit.indent(factor)
    body += ["if b is None:",
             f"    return [{', '.join(flat)}], [{', '.join(ps)}]"]
    body += [f"{x} = b[{p}]" for x, p in zip(xs, ps)]
    body += emit.solve_lines(rows, xs) + [f"return [{', '.join(xs)}]"]
    return emit.given("def lu(A, RTOL, b):", {"A": flat}, body)


@functools.lru_cache(maxsize=32)
def _gauss(n):
    """``gauss(J, B, X, E)``: Gaussian elimination with partial pivoting,
    in place, on the N systems of order n stacked entry-major in J (n * n,
    N) and B (n, N), compiled once per order. The solutions go to X (n,
    N), whose rows serve as scratch until then, and E (n, N) is boolean
    scratch.

    Column c exchanges row c with the row of the first largest |entry| at
    or below the diagonal, by masked copies; an exchange whose mask is all
    false is skipped. A zero pivot is made nan, which makes the whole
    solution nan. Each row below then takes l = a[r][c] / a[c][c] and
    a[r][j] - l * a[c][j], b alike. Back substitution goes column by
    column: x[j] = b[j] / a[j][j], then b[i] - a[i][j] * x[j] for i < j.
    The pivot search compares with > and keeps its running largest |entry|
    by np.maximum, not in np.argmax's nan order; the two differ only where
    a nan entry reaches a pivot column, and then either pivot leaves the
    whole solution nan."""
    a = [[f"M{r}_{c}" for c in range(n)] for r in range(n)]
    bs, xs, es = ([f"{v}{r}" for r in range(n)] for v in "BXE")

    def exchange(c, r, m):
        # row c and row r, entries c on and then b, where m holds
        k = n - c
        rc, rr = (f"J[{i * n + c}:{i * n + n}]" for i in (c, r))
        return [f"if {m}.any():",
                f"    copyto(X[:{k}], {rc})",
                f"    copyto({rc}, {rr}, where={m})",
                f"    copyto({rr}, X[:{k}], where={m})",
                f"    copyto(X0, {bs[c]})",
                f"    copyto({bs[c]}, {bs[r]}, where={m})",
                f"    copyto({bs[r]}, X0, where={m})"]

    body = emit.unpack([e for row in a for e in row], "J")
    body += emit.unpack(bs, "B") + emit.unpack(xs, "X") + emit.unpack(es, "E")
    for c in range(n):
        below = range(c + 1, n)
        if below:
            # es[j] marks where row c + 1 + j beats the rows above it; X0
            # holds the largest |entry| so far, X1 the next one
            body.append(f"absolute({a[c][c]}, out=X0)")
            for j, r in enumerate(below):
                body += [f"absolute({a[r][c]}, out=X1)",
                         f"greater(X1, X0, out={es[j]})"]
                if r < n - 1:
                    body.append("maximum(X0, X1, out=X0)")
            # the pivot is the last row that beat the rows above it: the
            # last marked row, then each one marked by no later row (last
            # collects the later marks)
            last = es[n - c - 2]
            body += exchange(c, n - 1, last)
            for j in range(n - c - 3, -1, -1):
                body += [f"greater({es[j]}, {last}, out={es[j]})"]
                body += exchange(c, c + 1 + j, es[j])
                if j:
                    body.append(f"logical_or({last}, {es[j]}, out={last})")
        body += [f"equal({a[c][c]}, 0.0, out=E0)",
                 "if E0.any():",
                 f"    copyto({a[c][c]}, nan, where=E0)"]
        for r in below:
            body.append(f"divide({a[r][c]}, {a[c][c]}, out={a[r][c]})")
            for j in below:
                body += [f"multiply({a[r][c]}, {a[c][j]}, out=X0)",
                         f"subtract({a[r][j]}, X0, out={a[r][j]})"]
            body += [f"multiply({a[r][c]}, {bs[c]}, out=X0)",
                     f"subtract({bs[r]}, X0, out={bs[r]})"]
    for j in range(n - 1, -1, -1):
        body.append(f"divide({bs[j]}, {a[j][j]}, out={xs[j]})")
        for i in range(j):
            body += [f"multiply({a[i][j]}, {xs[j]}, out={a[i][j]})",
                     f"subtract({bs[i]}, {a[i][j]}, out={bs[i]})"]
    return emit.function("def gauss(J, B, X, E):", body, dict(emit.UFUNCS))


def det_sign(a, tol=1e-12):
    """(sign, det) from pivoted LU; sign is 0 when |det| < tol * scale**n.

    scale is the largest row sum of |entries|, making the zero test invariant
    under uniform rescaling of the matrix. Where the pivots' product or
    scale**n is 0 or overflows, the test compares log |det| with
    log tol + n log scale instead, and det is that product (+-inf, +-0.0)
    with the sign the pivots give. A factored matrix has no zero pivot, so
    tol = 0.0 reports 0 only where det is nan (a nan entry, or inf - inf,
    reached the pivots), which is no sign at all.
    """
    a = np.asarray(a, dtype=float)
    n = a.shape[0]
    with np.errstate(all="ignore"):
        scale = row_scale(a)
    if scale == 0.0:
        return 0, 0.0
    try:
        lu, _, swaps = lu_factor(a, rtol=0.0)
    except SingularMatrixError:
        return 0, 0.0
    pivots = np.diag(lu)
    with np.errstate(all="ignore"):
        det = float(np.prod(pivots)) * (-1.0 if swaps % 2 else 1.0)
    if math.isnan(det):  # a nan entry reached the pivots: no sign
        return 0, det
    try:
        bound = scale**n
    except OverflowError:
        bound = math.inf
    if (0.0 < abs(det) < math.inf and 0.0 < bound < math.inf
            or not np.all(np.isfinite(a))):
        if abs(det) < tol * bound:
            return 0, det
        return (1 if det > 0 else -1), det
    sign = -1 if (swaps + np.count_nonzero(pivots < 0.0)) % 2 else 1
    if tol > 0.0:
        # scale from the matrix over its largest |entry|, which cannot
        # overflow
        big = float(np.max(np.abs(a)))
        log_scale = math.log(big) + math.log(row_scale(a / big))
        if np.sum(np.log(np.abs(pivots))) < math.log(tol) + n * log_scale:
            return 0, det
    return sign, det


# Higham's [13/13] Pade coefficients b_0..b_13, and theta_13: the largest
# 1-norm for which the approximant alone meets double precision
_PADE13 = (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
           1187353796428800.0, 129060195264000.0, 10559470521600.0,
           670442572800.0, 33522128640.0, 1323241920.0, 40840800.0,
           960960.0, 16380.0, 182.0, 1.0)
_THETA13 = 5.371920351148152


def _sum(xs):
    """The float sum of xs, left to right from 0.0 (the builtin sum
    compensates from Python 3.12 on)."""
    return functools.reduce(operator.add, xs, 0.0)


def _matmul(x, y):
    """x @ y on floats, for square matrices as lists of rows."""
    return [[_sum(map(operator.mul, row, col)) for col in zip(*y)] for row in x]


def _combine(cs, ms):
    """The sum of c * m over the coefficients cs and the matrices ms."""
    n = range(len(ms[0]))
    return [[_sum(c * m[i][j] for c, m in zip(cs, ms)) for j in n] for i in n]


def expm(a):
    """Matrix exponential of a square matrix; raises ValueError on any other
    shape.

    A 0x0 matrix gives a 0x0 array, and a 1x1 matrix math.exp of its
    entry. A larger one is scaled and squared with the [13/13] Pade
    approximant r = q(A)^-1 p(A) (Higham, SIAM J. Matrix Anal. Appl. 26(4),
    2005): A is scaled by 2^-s, with s the least s >= 0 that brings its
    1-norm to at most theta_13, then r(A 2^-s) is squared s times. The
    powers A^2, A^4, A^6, the odd part U and the even part V are formed on
    Python floats, every product and every sum of terms added left to
    right; (V - U) X = V + U is solved by lu_factor (rtol 0.0) and
    lu_apply. No step goes through numpy's matmul or a BLAS, so the bits
    do not depend on the host.

    Raises MatrixOverflowError when any entry of the result is not finite,
    and, before scaling, when an entry of a larger matrix, or its 1-norm,
    is not finite.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("square matrix required")
    if a.shape == (0, 0):
        out = np.empty((0, 0))
    elif a.shape == (1, 1):
        try:
            out = np.array([[math.exp(a[0, 0])]])
        except OverflowError:
            out = np.array([[math.inf]])
    else:
        m = a.tolist()
        norms = [_sum(map(abs, col)) for col in zip(*m)]
        if not all(map(math.isfinite, norms)):
            raise MatrixOverflowError("matrix exponential overflowed")
        norm = max(norms)
        s = math.ceil(math.log2(norm / _THETA13)) if norm > _THETA13 else 0
        m = [[math.ldexp(x, -s) for x in row] for row in m]
        eye = np.eye(len(m)).tolist()
        m2 = _matmul(m, m)
        m4 = _matmul(m2, m2)
        m6 = _matmul(m4, m2)
        b = _PADE13
        u = _matmul(m, _combine(
            (1.0, b[7], b[5], b[3], b[1]),
            (_matmul(m6, _combine(b[13:8:-2], (m6, m4, m2))), m6, m4, m2, eye)))
        v = _combine(
            (1.0, b[6], b[4], b[2], b[0]),
            (_matmul(m6, _combine(b[12:7:-2], (m6, m4, m2))), m6, m4, m2, eye))
        lu, piv, _ = lu_factor(np.subtract(v, u), rtol=0.0)
        x = lu_apply(lu, piv, np.add(v, u)).tolist()
        for _ in range(s):
            x = _matmul(x, x)
        out = np.array(x)
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

