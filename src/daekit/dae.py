"""Semi-explicit DAE instances and the tangent fields they induce.

A system is x' = f(x,y) + lambda*h(t,x,y) with algebraic constraint
g(x,y) = 0, where the y-block Jacobian d2g of the constraint is invertible
on the working box. Under that hypothesis the constraint set is a smooth
manifold and the dynamics reduce to the tangent field

    (f, -[d2g]^-1 d1g f)

plus the matching forcing field built from h. This module owns the problem
definition, the sampled invertibility check (with a polished witness when it
fails), the constraint solver, and the field evaluations.
"""

import functools
import math
import struct
from dataclasses import dataclass

import numpy as np

from . import expr
from .errors import (
    ConstraintSolveError,
    HypothesisViolationError,
    SingularMatrixError,
    point_text,
)
from .linalg import (
    _FED,
    _GIVEN,
    _compile,
    _dot,
    _lu_lines,
    _solve_lines,
    _unpack,
    lu_factor,
    norm1,
)

_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
DET_POLISH_ITERATIONS = 100  # per start of validate's |det d2g| polish
WITNESS_ITERATIONS = 100  # of the witness refinement onto det = g = 0
# evaluations a call of validate's det polish, or steps a call of
# degree's zero polish, takes on the generic path before it compiles and
# runs the system's or field's emitted code
POLISH_EMIT_STEPS = 60


def halton(n, dim, skip=20):
    """Deterministic quasi-random points in [0,1)^dim (Halton sequence)."""
    if dim > len(_PRIMES):
        raise ValueError("dimension too large for the prime table")
    out = np.empty((n, dim))
    for d in range(dim):
        base = _PRIMES[d]
        k = np.arange(n) + 1 + skip
        val, denom = np.zeros(n), 1.0
        while k.any():  # one radical-inverse digit of every point per pass
            denom *= base
            k, rem = np.divmod(k, base)
            val += rem / denom
        out[:, d] = val
    return out


@dataclass
class Box:
    """Axis-aligned working region standing in for the open domain."""

    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        self.lo = np.asarray(self.lo, dtype=float)
        self.hi = np.asarray(self.hi, dtype=float)
        if self.lo.shape != self.hi.shape or self.lo.ndim != 1:
            raise ValueError("bounds must be equal-length 1-D arrays")
        if not np.all(np.isfinite(self.lo)) or not np.all(np.isfinite(self.hi)):
            raise ValueError("box bounds must be finite")
        if not np.all(self.lo < self.hi):
            raise ValueError("box requires lo < hi in every dimension")

    @classmethod
    def from_pairs(cls, pairs):
        pairs = list(pairs)
        return cls(np.array([p[0] for p in pairs]), np.array([p[1] for p in pairs]))

    @property
    def dim(self):
        return len(self.lo)

    @property
    def center(self):
        return 0.5 * (self.lo + self.hi)

    @property
    def width(self):
        return self.hi - self.lo

    def contains(self, z, slack=0.0):
        z = np.asarray(z, dtype=float)
        return bool(self.contains_rows(z[None], slack)[0])

    def contains_rows(self, zs, slack=0.0):
        """Whether each row of zs is finite and within slack of the box, as
        a boolean mask."""
        zs = np.asarray(zs, dtype=float)
        return (np.isfinite(zs).all(axis=1)
                & (zs >= self.lo - slack).all(axis=1)
                & (zs <= self.hi + slack).all(axis=1))

    def clip(self, z):
        return np.clip(z, self.lo, self.hi)

    def boundary_distance(self, z):
        """Smallest distance from z to any face (negative outside)."""
        z = np.asarray(z, dtype=float)
        return float(np.min(np.minimum(z - self.lo, self.hi - z)))

    def sample(self, n, skip=20):
        u = halton(n, self.dim, skip=skip)
        return self.lo + u * self.width

    def subbox(self, idx):
        return Box(self.lo[list(idx)], self.hi[list(idx)])

    def inflate(self, rel=0.01, absolute=1e-3):
        pad = rel * self.width + absolute
        return Box(self.lo - pad, self.hi + pad)


@dataclass
class ManifoldPoint:
    """A point (p, q) satisfying the constraint to tolerance."""

    p: np.ndarray
    q: np.ndarray
    residual: float

    @property
    def z(self):
        return np.concatenate([self.p, self.q])


@dataclass
class ValidationReport:
    ok: bool
    samples: int
    sign: int
    min_abs_det: float
    min_location: np.ndarray
    refined_min_abs_det: float
    refined_location: np.ndarray
    witness: np.ndarray | None = None
    message: str = ""


class SystemDef:
    """Problem instance: dimensions, period, formulas and working box.

    Immutable by convention once constructed; all evaluations are pure, so a
    single instance can serve concurrent workers. Each expression list it
    evaluates gets its compiled kernel once, kept on the instance; f, g and
    h together (``fgh``) make the kernel of the emitted reduced-field
    stage, which is kept likewise.
    """

    def __init__(self, k, s, period, f, g, h=None, box=None, constraint_tol=1e-10):
        if period <= 0:
            raise ValueError("period must be positive")
        if box is None or box.dim != k + s:
            raise ValueError("box must cover the k+s state dimensions")
        self.k = int(k)
        self.s = int(s)
        self.period = float(period)
        self.x_names = [f"x{i + 1}" for i in range(self.k)]
        self.y_names = [f"y{i + 1}" for i in range(self.s)]
        self.state_names = self.x_names + self.y_names
        self.f = list(f)
        self.g = list(g)
        self.h = list(h) if h is not None else [expr.Const(0.0) for _ in range(k)]
        self.box = box
        self.constraint_tol = float(constraint_tol)
        if len(self.f) != self.k or len(self.h) != self.k:
            raise ValueError("f and h must have k components")
        if len(self.g) != self.s:
            raise ValueError("g must have s components")
        state = set(self.state_names)
        for e in self.f + self.g:
            extra = expr.variables(e) - state
            if extra:
                raise ValueError(
                    f"autonomous part uses undeclared/time variables: {sorted(extra)}"
                )
        for e in self.h:
            extra = expr.variables(e) - state - {"t"}
            if extra:
                raise ValueError(f"forcing uses undeclared variables: {sorted(extra)}")
        self._d2g_exprs = None
        self._d2g_flat = None
        self.fgh = self.f + self.g + self.h
        self._kernels = {}
        self._stages = {}
        self._column = {nm: i for i, nm in enumerate(self.state_names)}
        # slices of the state Jacobian select much faster than index lists
        self._slices = {id(self.x_names): slice(self.k),
                        id(self.y_names): slice(self.k, None),
                        id(self.state_names): slice(None)}

    # -- symbolic constraint Jacobian blocks (needed for witness polishing) --

    @property
    def d2g_exprs(self):
        if self._d2g_exprs is None:
            self._d2g_exprs = [
                [expr.symbolic_diff(gi, y) for y in self.y_names] for gi in self.g
            ]
        return self._d2g_exprs

    @property
    def d2g_flat(self):
        """d2g_exprs row by row, as one list (kernels are kept per list)."""
        if self._d2g_flat is None:
            self._d2g_flat = [e for row in self.d2g_exprs for e in row]
        return self._d2g_flat

    # -- point evaluation helpers --

    def env(self, p, q, t=None):
        e = {nm: float(v) for nm, v in zip(self.x_names, p)}
        e.update({nm: float(v) for nm, v in zip(self.y_names, q)})
        if t is not None:
            e["t"] = float(t)
        return e

    def kernel(self, exprs):
        """The compiled kernel of the list exprs, differentiating along the
        state; kept per list object, so pass lists the instance keeps."""
        hit = self._kernels.get(id(exprs))
        if hit is None:  # holding the list keeps its id unique
            seeds = [{nm: 1.0} for nm in self.state_names]
            hit = self._kernels[id(exprs)] = (exprs, expr.Kernel(exprs, seeds))
        return hit[1]

    def eval_f(self, env):
        return self.kernel(self.f).values(env)

    def eval_g(self, env):
        return self.kernel(self.g).values(env)

    def eval_h(self, env):
        return self.kernel(self.h).values(env)

    def jac_rows(self, exprs, env, names):
        """Jacobian of the given expressions w.r.t. the named state variables
        (AD)."""
        cols = self._slices.get(id(names))
        if cols is None:
            cols = [self._column[nm] for nm in names]
        return self.kernel(exprs).dual(env, cols)[1]

    def blocks(self, exprs, env):
        """(d1, d2): the x- and y-blocks of the Jacobian of exprs."""
        jac = self.kernel(exprs).dual(env)[1]
        return (np.ascontiguousarray(jac[:, : self.k]),
                np.ascontiguousarray(jac[:, self.k :]))

    def constraint_blocks(self, env):
        """(d1g, d2g) at the point described by env."""
        return self.blocks(self.g, env)

    def _stage(self, out_a=False, sens=False, lsens=False, forcing=False,
               use_h=False):
        """The emitted reduced-field stage of one variant (_emit_stage),
        compiled on first use and kept on the instance."""
        key = tuple(map(bool, (out_a, sens, lsens, forcing, use_h)))
        if key not in self._stages:
            self._stages[key] = _emit_stage(self, *key)
        return self._stages[key]

    def _constraint_step(self):
        """The emitted constraint Newton step (_emit_constraint_step)."""
        if "g" not in self._stages:
            self._stages["g"] = _emit_constraint_step(self)
        return self._stages["g"]

    def _det_and_grad(self):
        """The emitted det d2g and gradient (_emit_det_and_grad)."""
        if "det" not in self._stages:
            self._stages["det"] = _emit_det_and_grad(self)
        return self._stages["det"]


def _det(a):
    """det of the square matrix a (a list of rows of floats): the explicit
    product for order <= 2, LAPACK's LU above that."""
    if len(a) == 1:
        return a[0][0]
    if len(a) == 2:
        return a[0][0] * a[1][1] - a[0][1] * a[1][0]
    return float(np.linalg.det(np.array(a)))


def _minor(a, j, i):
    """The rows of a without row j and column i."""
    return [row[:i] + row[i + 1 :] for r, row in enumerate(a) if r != j]


def _det_and_grad(sys, z):
    """det d2g at the point z (floats) and its gradient along the state
    (Jacobi's formula: sum_i sum_j adj[i][j] * d a[j][i], the adjugate by
    cofactors, each sum left to right from 0.0), as (det, list of floats).

    One call of the d2g point kernel gives the values and partials. Where
    it raises or gives a non-finite number, the kernel's values and then
    its dual give the numbers at z, so a point where d2g is undefined
    raises their ExprDomainError.
    """
    s, n = sys.s, sys.k + sys.s
    env = dict(zip(sys.state_names, map(float, z)))
    kern = sys.kernel(sys.d2g_flat)
    flat, jac = [0.0] * (s * s), [0.0] * (s * s * n)
    try:
        kern._fn(False)(env, flat, jac)
        # a sum is finite only if its terms are (an overflowing sum only
        # takes the slower path to the same numbers)
        fed = math.isfinite(sum(flat) + sum(jac))
    except expr._KERNEL_ERRORS:
        fed = False
    if not fed:
        flat = kern.values(env).tolist()
        jac = kern.dual(env)[1].ravel().tolist()
    # jac[(i * s + j) * n + c]: the partial of a[i][j] along state c
    a = [flat[i * s : (i + 1) * s] for i in range(s)]
    adj = [[1.0]]
    if s > 1:  # adj[i][j] is the cofactor of a[j][i]
        adj = [[(-1.0) ** (i + j) * _det(_minor(a, j, i)) for j in range(s)]
               for i in range(s)]
    grad = []
    for c in range(n):
        total = 0.0
        for i in range(s):
            inner = 0.0
            for j in range(s):
                inner += adj[i][j] * jac[(j * s + i) * n + c]
            total += inner
        grad.append(total)
    return _det(a), grad


def _det_code(rows):
    """_det of the matrix of locals rows, as code."""
    if len(rows) == 1:
        return rows[0][0]
    if len(rows) == 2:
        return f"{rows[0][0]} * {rows[1][1]} - {rows[0][1]} * {rows[1][0]}"
    return f"det([{', '.join('[' + ', '.join(row) + ']' for row in rows)}])"


def _emit_det_and_grad(sys):
    """``det_and_grad(z)``: _det_and_grad at the point z (a list of floats)
    as one emitted function. It runs the d2g point code (_kernel_code, the
    point in Z{c}), then the cofactors and the det as _det forms them
    (written out for order <= 2, a call of _det above that), and the
    Jacobi sums left to right from 0.0. Where the kernel raises or the sum
    of its values and partials is not finite, it returns _det_and_grad at
    z, so the point gets the same numbers or the same error."""
    s, n = sys.s, sys.k + sys.s
    a = [[f"V{i * s + j}" for j in range(s)] for i in range(s)]
    ders = [f"D{e}_{c}" for e in range(s * s) for c in range(n)]
    adj, alg = [["1.0"]], []
    if s > 1:  # C{i}_{j} is the cofactor of a[j][i]
        adj = [[f"C{i}_{j}" for j in range(s)] for i in range(s)]
        alg = [f"{adj[i][j]} = {'-' * ((i + j) % 2)}1.0 * "
               f"({_det_code(_minor(a, j, i))})" for i in range(s) for j in range(s)]
    grad = ["(0.0" + "".join(
        f" + {_dot(adj[i], [f'D{j * s + i}_{c}' for j in range(s)])}"
        for i in range(s)) + ")" for c in range(n)]
    col = sys._column
    kernel, consts = _kernel_code(sys.d2g_flat, sys.state_names,
                                  load=lambda nm: f"Z{col[nm]}")
    body = _unpack([f"Z{c}" for c in range(n)], "z") + ["try:"] + [
        "    " + ln for ln in kernel] + [
        "except ERRORS:",
        "    return fallback(z)",
        f"if not isfinite({' + '.join([e for row in a for e in row] + ders)}):",
        "    return fallback(z)"] + alg + [
        f"return {_det_code(a)}, [{', '.join(grad)}]"]
    return _compile("def det_and_grad(z):", body,
                    {**_STAGE, **consts, "det": _det,
                     "fallback": functools.partial(_det_and_grad, sys)})


def _polish_det_minimum(sys, z0, det_and_grad=None):
    """Drive |det d2g| toward its local minimum from z0 (box-clipped).
    Returns (best point, best |det|).

    Each step is -det / |grad|^2 grad, clipped to the box, and the best
    point met is kept. The loop stops at |det| < 1e-14, a vanishing
    gradient, a step of norm below 1e-15, or an iterate it has visited
    before (keyed on its bits): the clipped step is a function of the
    point, so from there it only retraces points it has already evaluated,
    and the best stays as it is. det_and_grad(z) evaluates an iterate,
    _det_and_grad by default. A raising evaluation raises.
    """
    if det_and_grad is None:
        det_and_grad = functools.partial(_det_and_grad, sys)
    box = list(zip(sys.box.lo.tolist(), sys.box.hi.tolist()))
    z = [min(max(float(v), lo), hi) for v, (lo, hi) in zip(z0, box)]
    d, grad = det_and_grad(z)
    best_z, best_d = z, abs(d)
    seen = {struct.pack(f"{len(z)}d", *z)}
    for _ in range(DET_POLISH_ITERATIONS):
        gg = 0.0
        for g in grad:
            gg += g * g
        if abs(d) < 1e-14 or gg < 1e-30:
            break
        c = -d / gg
        step = [c * g for g in grad]
        z = [min(max(v + dv, lo), hi) for v, dv, (lo, hi) in zip(z, step, box)]
        key = struct.pack(f"{len(z)}d", *z)
        if key in seen:
            break
        seen.add(key)
        d, grad = det_and_grad(z)
        if abs(d) < best_d:
            best_d, best_z = abs(d), z
        size = 0.0
        for dv in step:
            size += abs(dv)
        if size < 1e-15:
            break
    return np.array(best_z), best_d


def _refine_witness(sys, z0):
    """Pull a degenerate-d2g point onto the constraint locus (det=0, g=0)."""
    z = sys.box.clip(np.array(z0, dtype=float))
    best = z.copy()
    best_r = math.inf
    for _ in range(WITNESS_ITERATIONS):
        env = sys.env(z[: sys.k], z[sys.k :])
        d, grad = _det_and_grad(sys, z)
        gvals = sys.eval_g(env)
        r = np.concatenate([[d], gvals])
        rn = norm1(r)
        if rn < best_r:
            best_r, best = rn, z.copy()
        if rn < 1e-12:
            break
        jg = sys.jac_rows(sys.g, env, sys.state_names)
        jac = np.vstack([grad, jg])
        step, *_ = np.linalg.lstsq(jac, -r, rcond=None)
        if norm1(step) < 1e-15:
            break
        z = sys.box.clip(z + step)
    return best, best_r


def validate(sys, samples=512):
    """Check invertibility of d2g across the box; report the constant sign.

    Evaluates det d2g at quasi-random samples, then polishes the six
    smallest |det|, one at a time in stable sample order, toward a local
    minimum, so thin degeneracies that slip between samples can still be
    caught; the first start whose polish raises raises. The polish
    evaluates its first POLISH_EMIT_STEPS iterates with _det_and_grad and
    the rest with the system's emitted evaluator (_emit_det_and_grad),
    which gives the same numbers without a call per kernel output, so a
    call whose polish ends quickly never pays the compile. Where d2g is
    undefined at a sample (a nan det), the point evaluation of d2g at the
    first such sample raises its error after the polish. On failure raises
    HypothesisViolationError whose witness is refined onto the constraint
    locus when possible (that is where the DAE itself breaks down).
    """
    if samples < 1:
        raise ValueError("samples must be at least 1")
    pts = sys.box.sample(samples)
    env = {nm: pts[:, i] for i, nm in enumerate(sys.state_names)}
    kern = sys.kernel(sys.d2g_flat)
    a = kern.values_batch(
        env, np.empty((sys.s * sys.s, samples))
    ).T.reshape(samples, sys.s, sys.s)
    with np.errstate(all="ignore"):  # where d2g is undefined: nan dets
        dets = np.linalg.det(a)
    abs_dets = np.abs(dets)
    i_min = int(np.argmin(abs_dets))
    min_sample = float(abs_dets[i_min])
    loc = pts[i_min].copy()

    spent = 0

    def det_and_grad(z):
        nonlocal spent
        spent += 1
        if spent > POLISH_EMIT_STEPS:
            return sys._det_and_grad()(z)
        return _det_and_grad(sys, z)

    refined_z, refined_d = loc, min_sample
    for z0 in pts[np.argsort(abs_dets, kind="stable")[:6]]:
        z, d = _polish_det_minimum(sys, z0, det_and_grad)
        if d < refined_d:
            refined_z, refined_d = z, d
    undefined = np.flatnonzero(np.isnan(dets))
    if undefined.size:  # where d2g is undefined its point evaluation raises
        z = pts[undefined[0]]
        kern.values(sys.env(z[: sys.k], z[sys.k :]))

    pos = int(np.sum(dets > 0))
    neg = int(np.sum(dets < 0))
    sign_consistent = (pos == samples) or (neg == samples)
    sign = 1 if pos >= neg else -1

    ok = sign_consistent and min_sample >= 1e-10 and refined_d >= 1e-10
    report = ValidationReport(
        ok=ok,
        samples=samples,
        sign=sign if ok else 0,
        min_abs_det=min_sample,
        min_location=loc,
        refined_min_abs_det=refined_d,
        refined_location=refined_z,
    )
    if ok:
        report.message = (
            f"det d2g keeps sign {sign:+d}; min |det| {refined_d:.3e} over box"
        )
        return report
    witness, wr = _refine_witness(sys, refined_z)
    if wr > 1e-6:
        witness = refined_z
    report.witness = witness
    if pos > 0 and neg > 0:
        report.message = (
            f"det d2g changes sign over the box ({pos} positive, {neg} negative)"
        )
    elif pos + neg < samples:
        report.message = (
            f"det d2g vanishes at {samples - pos - neg} of {samples} samples"
        )
    else:
        report.message = f"det d2g degenerates (min |det| {refined_d:.3e})"
    raise HypothesisViolationError(report.message, witness, report)


# ---------------------------------------------------------------------------
# The reduced field and the constraint Newton as emitted float code
#
# Per system and variant, one straight-line function (a "stage") evaluates
# f, g and h at one state with their state partials (compile_kernel's point
# code, on locals), factors d2g with linalg's emitted LU (_lu_lines, the
# code lu_factor runs), and forms zdot = (w, -[d2g]^-1 d1g w),
# A = d1w - d2w [d2g]^-1 d1g, and for the flow A Phi and A v + h; every
# matrix product is a left-to-right float sum. reduced_field calls it once,
# the flow once per RK4 stage. Where its kernel raises or gives a non-finite
# value it needs, a stage evaluates the point with the point kernels (and
# their strict diagnostics) in the order base values, h, g blocks, d2g
# factorization, partials, which decides the error a point raises, and runs
# the same algebra on those values. The algebra text is emitted once and
# compiled twice, with linalg's two bindings: _FED for the kernel's finite
# values, _GIVEN for the values the point evaluations give.


_STAGE = {**_FED, **expr._POINT, "isfinite": math.isfinite,
          "ERRORS": expr._KERNEL_ERRORS}


def _kernel_code(exprs, names, load=str):
    """compile_kernel's point statements for exprs on locals, with the
    partials along the variables names: a variable is read as the code
    load(name) returns (by its own name by default), value i goes to V{i}
    and the partial along names[c] to D{i}_{c}. Returns (lines, consts)."""
    lines, consts = expr._kernel_lines(
        exprs, [{nm: 1.0} for nm in names], load=load,
        vout=lambda i: f"V{i} = ", dout=lambda i, c: f"D{i}_{c} = ")
    return [text for text, *_ in lines], consts


def _emit_stage(sys, out_a, sens, lsens, forcing, use_h):
    """The stage function ``stage(Y, t, lam)`` of one variant.

    Y holds the state, then Phi row by row when sens, then v when lsens.
    Returns zdot; then A row by row when out_a; A Phi when sens; A v + h
    when lsens. The base field w is f (h with forcing), plus lam * h when
    use_h.
    """
    k, s, n = sys.k, sys.s, sys.k + sys.s
    lin = out_a or sens or lsens
    m = len(sys.fgh)
    F, G, H = range(k), range(k, k + s), range(k + s, m)
    B = H if forcing else F

    def d(i, c):
        return f"D{i}_{c}"

    inputs = list(sys.state_names)
    phi = [[f"P{i}_{j}" for j in range(k)] for i in range(k)]
    vl = [f"Q{i}" for i in range(k)]
    inputs += [e for row in phi for e in row] * sens + vl * lsens
    # what the algebra reads, and the g values: where they are not finite,
    # the point evaluation of g can raise even if its partials are finite
    # (the strict walker rejects exp beyond 709, which the kernel computes)
    needed = [f"V{i}" for i in [*B, *G]] + [d(i, c) for i in G for c in range(n)]
    if use_h or lsens:
        needed += [f"V{i}" for i in H]
    if lin:
        needed += [d(i, c) for i in ([*B, *H] if use_h else B) for c in range(n)]
    needed = list(dict.fromkeys(needed))

    alg = [f"W{i} = V{b} + lam * V{h}" for i, (b, h) in enumerate(zip(B, H))] * use_h
    w = [f"W{i}" for i in range(k)] if use_h else [f"V{b}" for b in B]
    alg += [f"R{j} = {_dot([d(g, c) for c in range(k)], w)}"
            for j, g in enumerate(G)]
    rows = [[d(g, k + c) for c in range(s)] for g in G]
    carry = [[f"R{j}"] + [d(g, c) for c in range(k)] * lin
             for j, g in enumerate(G)]
    alg += _lu_lines(rows, carry, "raise singular({p}, TOL, {col})")
    alg += _solve_lines(rows, [f"R{j}" for j in range(s)])
    out = w + [f"-R{j}" for j in range(s)]
    if lin:
        xs = [[d(g, c) for g in G] for c in range(k)]  # [d2g]^-1 d1g by column
        for x in xs:
            alg += _solve_lines(rows, x)
        a = [[f"A{i}_{c}" for c in range(k)] for i in range(k)]
        for i in range(k):
            for c in range(k):
                alg.append(f"{a[i][c]} = {d(B[i], c)} - "
                           f"({_dot([d(B[i], k + q) for q in range(s)], xs[c])})")
                if use_h:
                    alg.append(f"{a[i][c]} = {a[i][c]} + lam * ({d(H[i], c)} - "
                               f"({_dot([d(H[i], k + q) for q in range(s)], xs[c])}))")
        out += [e for row in a for e in row] * out_a
        out += [_dot(a[i], [phi[q][j] for q in range(k)])
                for i in range(k) for j in range(k)] * sens
        out += [f"{_dot(a[i], vl)} + V{H[i]}" for i in range(k)] * lsens
    ret = [f"return ({', '.join(out)},)"]

    kernel, consts = _kernel_code(sys.fgh, sys.state_names)
    given = functools.cache(lambda: _compile(  # on the first fallback
        "def given(Y, t, lam, V, D):",
        _unpack(inputs, "Y") + _unpack([f"V{i}" for i in range(m)], "V")
        + _unpack([d(i, c) for i in range(m) for c in range(n)], "D")
        + alg + ret, dict(_GIVEN)))
    base = sys.h if forcing else sys.f

    def fallback(Y, t, lam):
        """The point evaluations in their order, then the algebra."""
        z = Y[:n]
        env = sys.env(z[:k], z[k:], t=None if t != t else t)
        vals, ders = [math.nan] * m, [math.nan] * (m * n)

        def put(idx, values):
            for i, v in zip(idx, values.tolist()):
                vals[i] = v

        def put_blocks(idx, blocks):
            for i, r1, r2 in zip(idx, *blocks):
                ders[i * n:(i + 1) * n] = r1.tolist() + r2.tolist()

        put(B, sys.kernel(base).values(env))
        if use_h:
            put(H, sys.eval_h(env))
        d1g, d2g = sys.constraint_blocks(env)
        put_blocks(G, (d1g, d2g))
        lu_factor(d2g)
        if lin:
            put_blocks(B, sys.blocks(base, env))
            if use_h:
                put_blocks(H, sys.blocks(sys.h, env))
        if lsens and not use_h:
            put(H, sys.eval_h(env))
        return given()(Y, t, lam, vals, ders)

    return _compile(
        "def stage(Y, t, lam):",
        _unpack(inputs, "Y") + ["try:"] + ["    " + ln for ln in kernel]
        + ["except ERRORS:", "    return fallback(Y, t, lam)",
           f"if not isfinite({' + '.join(needed)}):",
           "    return fallback(Y, t, lam)"] + alg + ret,
        {**_STAGE, **consts, "fallback": fallback})


def _emit_constraint_step(sys):
    """``step(Z)``: at the state Z, (|g|_1, the Newton step [d2g]^-1 g),
    where the step is the SingularMatrixError of a singular d2g instead,
    or a function that computes the step (or that error) from the point
    evaluation of d2g when the kernel gives no finite g or Jacobian. Values
    the kernel does not give finitely come from eval_g, which raises the
    point's error."""
    k, s, n = sys.k, sys.s, sys.k + sys.s
    rows = [[f"D{j}_{k + c}" for c in range(s)] for j in range(s)]
    vs = [f"V{j}" for j in range(s)]
    alg = [f"RN = {' + '.join(f'abs({v})' for v in vs) or '0.0'}"]
    alg += _lu_lines(rows, [[v] for v in vs], "return RN, singular({p}, TOL, {col})")
    alg += _solve_lines(rows, vs) + [f"return RN, ({', '.join(vs)},)"]
    ders = [f"D{j}_{c}" for j in range(s) for c in range(n)]
    given = functools.cache(lambda: _compile(  # on the first fallback
        "def given(V, D):", _unpack(vs, "V") + _unpack(ders, "D") + alg,
        dict(_GIVEN)))

    def at_point(env, vals):
        d2g = sys.jac_rows(sys.g, env, sys.y_names)
        flat = [math.nan] * (s * n)
        for j, row in enumerate(d2g.tolist()):
            flat[j * n + k:(j + 1) * n] = row
        return given()(vals, flat)[1]

    def fallback(Z, vals, flat):
        """vals and flat are the kernel's g and Jacobian, None where it
        raised."""
        env = sys.env(Z[:k], Z[k:])
        if vals is None:
            vals = flat = [math.nan]
        if not all(map(math.isfinite, vals)):
            vals = sys.eval_g(env).tolist()
        if all(map(math.isfinite, vals + flat)):
            return given()(vals, flat)
        rn = given()(vals, [math.nan] * (s * n))[0]
        return rn, lambda: at_point(env, vals)

    kernel, consts = _kernel_code(sys.g, sys.state_names)
    return _compile(
        "def step(Z):",
        _unpack(sys.state_names, "Z") + ["try:"] + ["    " + ln for ln in kernel]
        + ["except ERRORS:", "    return fallback(Z, None, None)",
           f"if not isfinite({' + '.join(vs + ders)}):",
           f"    return fallback(Z, [{', '.join(vs)}], [{', '.join(ders)}])"]
        + alg, {**_STAGE, **consts, "fallback": fallback})


def _solve_constraint_row(sys, p, q, first=None):
    """solve_constraint's Newton on floats: p and q are tuples, first the
    constraint step at (p, q) when the caller has it. d2g must factor at
    every iterate, an already solved start included; a step that does not
    lower the residual halves up to 11 times; at most 50 iterations.
    Returns (q, |g|_1)."""
    step_at, tol = sys._constraint_step(), sys.constraint_tol
    rn, step = first if first is not None else step_at(p + q)
    for it in range(50):
        if type(step) is not tuple:
            step = step() if callable(step) else step
            if isinstance(step, SingularMatrixError):
                raise step
        if it == 0 and rn <= tol:
            return q, rn
        q_new = tuple([a - b for a, b in zip(q, step)])
        rn_new, step_new = step_at(p + q_new)
        t = 1.0
        for _ in range(11):
            if rn_new < rn or rn_new <= tol:
                break
            t *= 0.5
            q_new = tuple([a - t * b for a, b in zip(q, step)])
            rn_new, step_new = step_at(p + q_new)
        q, rn, step = q_new, rn_new, step_new
        if rn <= tol:
            return q, rn
    raise ConstraintSolveError(
        f"constraint Newton stalled at residual {rn:.3e} "
        f"for p = {point_text(p)}"
    )


def solve_constraint(sys, p, q_guess):
    """Newton in y on g(p, y) = 0 from q_guess; follows that branch only."""
    p = np.asarray(p, dtype=float)
    q, rn = _solve_constraint_row(
        sys, tuple(p.tolist()), tuple(np.asarray(q_guess, dtype=float).tolist())
    )
    return ManifoldPoint(p.copy(), np.array(q), float(rn))


def reduced_field(sys, z, t=None, lam=0.0, linearize=False, forcing=False):
    """The reduced field at the state z and its linearization.

    With w = base + lam*h (base is f, or h with forcing) at time t (nan when
    None), returns (zdot, A): the field zdot = (w, -[d2g]^-1 d1g w) and,
    with linearize, the reduced linearization A = d1w - d2w [d2g]^-1 d1g
    (else None). Raises the error the evaluation at z raises. Runs the
    system's emitted stage.
    """
    k, n = sys.k, sys.k + sys.s
    stage = sys._stage(out_a=linearize, forcing=forcing, use_h=lam != 0.0)
    out = stage(np.asarray(z, dtype=float).tolist(),
                math.nan if t is None else float(t), float(lam))
    a = np.reshape(out[n:], (k, k)) if linearize else None
    return np.array(out[:n]), a


def tangent_field(sys, pt):
    """Induced autonomous field (f, -[d2g]^-1 d1g f) at a manifold point."""
    return reduced_field(sys, pt.z)[0]


def forcing_field(sys, t, pt):
    """Forcing field (h, -[d2g]^-1 d1g h); periodic in t like h."""
    return reduced_field(sys, pt.z, t, forcing=True)[0]


def perturbed_field(sys, t, pt, lam):
    """Full right-hand side tangent + lam * forcing with one shared LU."""
    if not math.isfinite(lam):
        raise ValueError("perturbation magnitude lambda must be finite")
    if lam < 0:
        raise ValueError("perturbation magnitude lambda must be >= 0")
    return reduced_field(sys, pt.z, t, lam)[0]


def tangency_defect(sys, pt, v):
    """|dg[v]|_1 at the point: exact directional derivative of g along v."""
    env = sys.env(pt.p, pt.q)
    seed = {nm: float(vi) for nm, vi in zip(sys.state_names, v)}
    total = 0.0
    for gi in sys.g:
        total += abs(expr.evaluate_dual(gi, env, seed)[1])
    return total
