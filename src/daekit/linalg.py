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

from .errors import MatrixOverflowError, SingularMatrixError

PIVOT_RTOL = 1e-12


def norm1(v):
    """Sum-of-absolute-values norm, the convention used throughout."""
    return float(np.sum(np.abs(v)))


def norm1_rows(v):
    """norm1 of every row of v (N, n), with the bits of a C-contiguous v in
    any layout. np.sum adds fewer than 8 entries left to right in every
    layout, but sums a contiguous row of 8 or more pairwise, so such rows
    are summed from a C-contiguous copy."""
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


def lu_factor(a, rtol=PIVOT_RTOL):
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


def _pivot_error(pivot, tol, col):
    """The error of a pivot at most its threshold."""
    return SingularMatrixError(
        f"pivot {pivot:.3e} below threshold {tol:.3e} at column {col}"
    )


# ---------------------------------------------------------------------------
# The LU as emitted float code
#
# _lu_lines and _solve_lines write the partial-pivot LU and its
# substitution as straight-line statements on named locals. lu_factor and
# lu_apply run them through _lu, and dae's reduced-field stage and
# constraint step emit them inline. Every dot product is a left-to-right
# float sum. The text binds to two namespaces: _FED for numbers known to be
# finite (the builtins), and _GIVEN for any numbers, which picks pivots and
# thresholds in numpy's nan order and divides by zero as numpy does.


def _nan_max(*xs):
    """max as np.max takes it: nan when any entry is nan."""
    for x in xs:
        if x != x:
            return x
    return max(xs)


def _nan_gt(a, b):
    """a ranks above b in np.argmax: by value, and nan above all else."""
    return a > b or (a != a and b == b)


def _ieee_div(a, b):
    """a / b, inf or nan (as numpy gives) where Python raises."""
    if b == 0.0:
        with np.errstate(all="ignore"):
            return float(np.divide(a, b))
    return a / b


_FED = {"amax": max, "gt": operator.gt, "dv": operator.truediv,
        "singular": _pivot_error, "RTOL": PIVOT_RTOL}
_GIVEN = {**_FED, "amax": _nan_max, "gt": _nan_gt, "dv": _ieee_div}


def _dot(us, vs):
    """The sum of the products us[i] * vs[i] as code: left to right, from
    0.0 (so a product -0.0 sums to 0.0)."""
    return "".join(f" + {u} * {v}" for u, v in zip(us, vs)).join(["(0.0", ")"])


def _lu_lines(rows, carry, fail):
    """The partial-pivot LU of the matrix whose entries are the locals
    rows[r][c], in place. Row exchanges take the locals carry[r] along (the
    right-hand sides, so they end up permuted like lu_apply's b[piv]). fail
    is the statement run on a rejected pivot, formatted with the pivot {p}
    and the column {col}; the threshold is TOL, RTOL times the largest
    |entry|."""
    s = len(rows)
    if s == 0:
        return []
    entries = [e for row in rows for e in row]
    if s == 1:
        lines = [f"TOL = RTOL * abs({rows[0][0]})"]
    else:
        lines = [f"TOL = RTOL * amax({', '.join(f'abs({e})' for e in entries)})"]

    def swap(r1, r2):
        a, b = rows[r1] + carry[r1], rows[r2] + carry[r2]
        return f"{', '.join(a + b)} = {', '.join(b + a)}"

    for col in range(s):
        piv = rows[col][col]
        below = range(col + 1, s)
        if len(below) == 1:
            lines += [f"if gt(abs({rows[col + 1][col]}), abs({piv})):",
                      "    " + swap(col, col + 1)]
        elif below:  # the first largest |entry| of the column, as np.argmax
            lines.append(f"G = abs({piv}); I = {col}")
            lines += [f"if gt(abs({rows[r][col]}), G): "
                      f"G = abs({rows[r][col]}); I = {r}" for r in below]
            for j, r in enumerate(below):
                lines += [f"{'el' * (j > 0)}if I == {r}:", "    " + swap(col, r)]
        lines += [f"if abs({piv}) <= TOL:",
                  "    " + fail.format(p=piv, col=col)]
        lines += [f"{rows[r][col]} = dv({rows[r][col]}, {piv})" for r in below]
        lines += [f"{rows[r][c]} = {rows[r][c]} - {rows[r][col]} * {rows[col][c]}"
                  for r in below for c in below]
    return lines


def _solve_lines(rows, xs):
    """Forward and back substitution on the permuted locals xs, in place,
    with the factors _lu_lines left in rows."""
    s = len(rows)
    lines = [f"{xs[i]} = {xs[i]} - ({_dot(rows[i][:i], xs[:i])})"
             for i in range(1, s)]
    for i in range(s - 1, -1, -1):
        if i + 1 < s:
            lines.append(f"{xs[i]} = {xs[i]} - "
                         f"({_dot(rows[i][i + 1:], xs[i + 1:])})")
        lines.append(f"{xs[i]} = dv({xs[i]}, {rows[i][i]})")
    return lines


def _unpack(names, source):
    return [f"{', '.join(names)}, = {source}"] if names else []


def _compile(header, body, namespace):
    name = header[4:header.index("(")]
    src = "\n    ".join([header] + body)
    exec(compile(src, f"<daekit {name}>", "exec"), namespace)
    return namespace[name]


@functools.lru_cache(maxsize=32)
def _lu(n, fed=False):
    """``lu(A, RTOL, b)`` on floats for order n, compiled once per order and
    binding (_GIVEN, or _FED when fed). A is the matrix as a flat row-major
    list; its row indices are exchanged along with its rows. Returns the
    factors and piv as lists when b is None, else the solution of A x = b
    (b a list of n floats). With RTOL None, A holds factors already and b
    is in their row order."""
    rows = [[f"M{r}_{c}" for c in range(n)] for r in range(n)]
    flat = [e for row in rows for e in row]
    ps, xs = [f"P{r}" for r in range(n)], [f"X{r}" for r in range(n)]
    factor = _lu_lines(rows, [[p] for p in ps],
                       "raise singular({p}, TOL, {col})")
    body = _unpack(flat, "A") + [f"{p} = {r}" for r, p in enumerate(ps)]
    if factor:
        body += ["if RTOL is not None:"] + ["    " + ln for ln in factor]
    body += ["if b is None:",
             f"    return [{', '.join(flat)}], [{', '.join(ps)}]"]
    body += [f"{x} = b[{p}]" for x, p in zip(xs, ps)] + _solve_lines(rows, xs)
    body += [f"return [{', '.join(xs)}]"]
    return _compile("def lu(A, RTOL, b):", body, dict(_FED if fed else _GIVEN))


# The elimination of _solve_rows as emitted numpy calls. Only correctly
# rounded elementwise ufuncs touch the numbers: abs, comparisons, masked
# copies, and - * / each rounded once and never fused into an FMA. So
# every host gets the same bits.
_UFUNCS = {"absolute": np.absolute, "greater": np.greater, "equal": np.equal,
           "maximum": np.maximum, "logical_or": np.logical_or,
           "copyto": np.copyto, "multiply": np.multiply,
           "subtract": np.subtract, "divide": np.divide, "nan": math.nan}


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

    body = _unpack([e for row in a for e in row], "J")
    body += _unpack(bs, "B") + _unpack(xs, "X") + _unpack(es, "E")
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
    return _compile("def gauss(J, B, X, E):", body, dict(_UFUNCS))


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


def expm(a):
    """Matrix exponential of a square matrix.

    A 1x1 matrix is math.exp of its entry, which does not depend on the
    SIMD loop numpy picks for np.exp. A larger one goes to
    scipy.linalg.expm, the scaling-and-squaring Pade method (Higham, SIAM
    J. Matrix Anal. Appl. 26, 2005); scipy is imported here, so a process
    that never exponentiates a matrix of order 2 or more never loads it.
    Raises MatrixOverflowError when any entry is not finite.
    """
    a = np.asarray(a, dtype=float)
    if a.shape == (1, 1):
        try:
            out = np.array([[math.exp(a[0, 0])]])
        except OverflowError:
            out = np.array([[math.inf]])
    else:
        import scipy.linalg
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
