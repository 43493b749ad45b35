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

from . import emit, expr
from .errors import (
    ConstraintSolveError,
    HypothesisViolationError,
    point_text,
)
from .linalg import lu_factor, norm1

_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
DET_POLISH_ITERATIONS = 100  # per start of validate's |det d2g| polish
WITNESS_ITERATIONS = 100  # of the witness refinement onto det = g = 0
# Box.inflate's pad of each side: INFLATE_REL of its width plus INFLATE_ABS
INFLATE_REL = 0.01
INFLATE_ABS = 1e-3


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
        # read-only copies: no caller's array is aliased, and a Box shared
        # by a loaded system cannot be changed in place
        self.lo = np.array(self.lo, dtype=float)
        self.hi = np.array(self.hi, dtype=float)
        self.lo.flags.writeable = self.hi.flags.writeable = False
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
        a boolean mask. Tested column by column against finite bounds,
        which nan and +-inf fail."""
        zs = np.asarray(zs, dtype=float)
        inside = np.ones(len(zs), dtype=bool)
        for d, (lo, hi) in enumerate(zip(self.lo - slack, self.hi + slack)):
            inside &= (zs[:, d] >= lo) & (zs[:, d] <= hi)
        return inside

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

    def inflate(self):
        pad = INFLATE_REL * self.width + INFLATE_ABS
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
    single instance can serve concurrent workers. sysfile.load_system
    shares one instance among all loads of the same file text, so callers
    must not mutate it; the box's bounds are read-only. Each expression
    list it evaluates gets its compiled kernel once, kept on the instance;
    f, g and h together (``fgh``) make the kernel of the emitted
    reduced-field stage, whose point code (_point_code), like g's, is built
    once for all the stages, constraint steps and flow loops emitted for
    the instance.
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
        self.fgh = self.f + self.g + self.h
        self._kernels = {}
        self._stages = {}
        self._lines, self._consts = {}, {}
        self._column = {nm: i for i, nm in enumerate(self.state_names)}

    # -- symbolic constraint Jacobian blocks (needed for witness polishing) --

    @functools.cached_property
    def d2g_exprs(self):
        return [[expr.symbolic_diff(gi, y) for y in self.y_names] for gi in self.g]

    @functools.cached_property
    def d2g_flat(self):
        """d2g_exprs row by row, as one list (kernels are kept per list)."""
        return [e for row in self.d2g_exprs for e in row]

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

    def _point_code(self, part):
        """The point statements (expr._kernel_code) of one of the system's
        kernels on the state names, built on first use and kept: "fgh" and
        "g" with their partials, "U" the values of g alone, written to
        U{j}. fgh names its constants k{i}, g and U (which meet the same
        constants in the same order) kg{i}, all in the one table _consts,
        so emitted code can inline any of them together."""
        if part not in self._lines:
            exprs, names, value, prefix = {
                "fgh": (self.fgh, self.state_names, "V", "k"),
                "g": (self.g, self.state_names, "V", "kg"),
                "U": (self.g, [], "U", "kg")}[part]
            self._lines[part], consts = expr._kernel_code(
                exprs, names, value=value, prefix=prefix)
            self._consts.update(consts)
        return self._lines[part]

    def _constraint_step(self):
        """The emitted constraint Newton step (_emit_constraint_step)."""
        if "g" not in self._stages:
            self._stages["g"] = _emit_constraint_step(self)
        return self._stages["g"]


def _det(rows):
    """det of a square matrix of order 3 or more (a list of rows of
    floats), by LAPACK's LU."""
    return float(np.linalg.det(np.array(rows)))


def _minor(a, j, i):
    """The rows of a without row j and column i."""
    return [row[:i] + row[i + 1 :] for r, row in enumerate(a) if r != j]


def _det_code(rows):
    """The det of the matrix of locals rows as code: the explicit product
    for order <= 2, a call of _det above that."""
    if len(rows) == 1:
        return rows[0][0]
    if len(rows) == 2:
        return f"{rows[0][0]} * {rows[1][1]} - {rows[0][1]} * {rows[1][0]}"
    return f"det([{', '.join('[' + ', '.join(row) + ']' for row in rows)}])"


def _det_lines(s, n):
    """(inputs, lines): d2g's entries V{e}, row by row, and their partials
    D{e}_{c} along the n state coordinates, and the statements from them
    to DET, the det, and G{c}, its gradient: the cofactors and the det
    (_det_code), and Jacobi's formula sum_i sum_j adj[i][j] * d a[j][i],
    each sum left to right from 0.0."""
    a = [[f"V{i * s + j}" for j in range(s)] for i in range(s)]
    adj, lines = [["1.0"]], []
    if s > 1:  # C{i}_{j} is the cofactor of a[j][i]
        adj = [[f"C{i}_{j}" for j in range(s)] for i in range(s)]
        lines = [f"{adj[i][j]} = {'-' * ((i + j) % 2)}1.0 * "
                 f"({_det_code(_minor(a, j, i))})"
                 for i in range(s) for j in range(s)]
    lines += [f"DET = {_det_code(a)}"] + [f"G{c} = (0.0" + "".join(
        f" + {emit.dot(adj[i], [f'D{j * s + i}_{c}' for j in range(s)])}"
        for i in range(s)) + ")" for c in range(n)]
    return ([e for row in a for e in row],
            [f"D{e}_{c}" for e in range(s * s) for c in range(n)]), lines


@functools.lru_cache(maxsize=32)
def _det_given(s, n):
    """``given(V, D)``: _det_lines bound to emit.GIVEN on the lists of
    d2g's values and partials, returning (DET, [G0, ...])."""
    (vs, ders), lines = _det_lines(s, n)
    grad = ", ".join(f"G{c}" for c in range(n))
    return emit.given("def given(V, D):", {"V": vs, "D": ders},
                      lines + [f"return DET, [{grad}]"], det=_det)


def _det_at(sys, z):
    """(det d2g, its gradient along the state) at the point z, a list of
    floats, from Kernel.values and then Kernel.dual, so a point where d2g
    is undefined raises their ExprDomainError."""
    env, kern = dict(zip(sys.state_names, z)), sys.kernel(sys.d2g_flat)
    return _det_given(sys.s, sys.k + sys.s)(
        kern.values(env).tolist(), kern.dual(env)[1].ravel().tolist())


def _emit_det_polish(sys):
    """``polish(z)``: validate's |det d2g| polish from the start z (a list
    of floats), clipped to the box, as one emitted function; returns (best
    point, best |det|).

    Each iterate runs the d2g point code (expr._kernel_code, the point at
    Z{c}), its finiteness guard and _det_lines, or _det_at where the
    kernel raises or the guard sum is not finite. The step -det / gg times
    the gradient (gg left to right) is clipped to the box. The loop takes
    at most DET_POLISH_ITERATIONS steps and stops at |det| < 1e-14,
    gg < 1e-30, a step of norm 1 below 1e-15, or an iterate visited
    before, keyed on its bits (struct.pack): the clipped step is a
    function of the point, so from there it would only retrace points
    already evaluated. The box bounds come in through the namespace
    (emit.box_bounds), like the kernel's constants."""
    n = sys.k + sys.s
    zs, bs, gs, ss, los, his = ([f"{x}{c}" for c in range(n)]
                                for x in ("Z", "B", "G", "S", "LO", "HI"))
    (vs, ders), lines = _det_lines(sys.s, n)
    kernel, consts = expr._kernel_code(sys.d2g_flat, sys.state_names, at="Z")
    bounds, box = emit.box_bounds(sys.box)
    key = f"pack('{n}d', {', '.join(zs)})"
    step = emit.guarded(kernel, vs + ders) + ["if FED:"] + emit.indent(lines) + [
        "else:",
        f"    DET, ({', '.join(gs)},) = at_point([{', '.join(zs)}])",
        "AD = abs(DET)",
        "if it == 0 or AD < BD:",
        f"    {', '.join(bs)}, BD = {', '.join(zs)}, AD",
        f"if SIZE < 1e-15 or it == {DET_POLISH_ITERATIONS}:",
        "    break",
        f"GG = {emit.dot(gs, gs)}",
        "if AD < 1e-14 or GG < 1e-30:",
        "    break",
        "CS = -DET / GG"]
    step += [f"{sv} = CS * {g}" for sv, g in zip(ss, gs)]
    step += [f"{z} = min(max({z} + {sv}, {lo}), {hi})"
             for z, sv, lo, hi in zip(zs, ss, los, his)]
    step += [f"KEY = {key}", "if KEY in SEEN:", "    break", "SEEN.add(KEY)",
             f"SIZE = {emit.norm_code(ss)}"]
    body = emit.unpack(zs, "z") + bounds + [
        f"{z} = min(max({z}, {lo}), {hi})" for z, lo, hi in zip(zs, los, his)]
    body += [f"SEEN = {{{key}}}", "SIZE = INF",
             f"for it in range({DET_POLISH_ITERATIONS + 1}):"]
    body += emit.indent(step) + [f"return [{', '.join(bs)}], BD"]
    return emit.function("def polish(z):", body, {
        **emit.STAGE, **consts, **box, "det": _det, "pack": struct.pack,
        "INF": math.inf, "at_point": functools.partial(_det_at, sys)})


def _polish_det_minimum(sys, z0):
    """Drive |det d2g| toward its local minimum from z0 (box-clipped) on
    the system's emitted loop (_emit_det_polish), emitted on first use and
    kept on the instance. Returns (best point, best |det|); an iterate
    where d2g is undefined raises its error."""
    if "det" not in sys._stages:
        sys._stages["det"] = _emit_det_polish(sys)
    z, d = sys._stages["det"](np.asarray(z0, dtype=float).tolist())
    return np.array(z), d


def _refine_witness(sys, z0):
    """Pull a degenerate-d2g point onto the constraint locus (det=0, g=0),
    by least-squares Newton steps; ends at the best point so far where the
    residual or its Jacobian is not finite (an overflowing d2g)."""
    z = sys.box.clip(np.array(z0, dtype=float))
    best = z.copy()
    best_r = math.inf
    for _ in range(WITNESS_ITERATIONS):
        env = sys.env(z[: sys.k], z[sys.k :])
        d, grad = _det_at(sys, z.tolist())
        gvals = sys.eval_g(env)
        r = np.concatenate([[d], gvals])
        rn = norm1(r)
        if rn < best_r:
            best_r, best = rn, z.copy()
        if rn < 1e-12:
            break
        jg = sys.jac_rows(sys.g, env, sys.state_names)
        jac = np.vstack([grad, jg])
        if not (np.isfinite(r).all() and np.isfinite(jac).all()):
            break
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
    caught; the first start whose polish raises raises. Each polish runs
    the system's emitted loop (_emit_det_polish), compiled once per
    process for each loop text. Where d2g is undefined at a
    sample (a nan det), the point evaluation of d2g at the first such
    sample raises its error after the polish. On failure raises
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

    refined_z, refined_d = loc, min_sample
    for z0 in pts[np.argsort(abs_dets, kind="stable")[:6]]:
        z, d = _polish_det_minimum(sys, z0)
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
# code, on locals), factors d2g with the emitted LU (emit.lu_lines, the
# code lu_factor runs), and forms zdot = (w, -[d2g]^-1 d1g w),
# A = d1w - d2w [d2g]^-1 d1g, and for the flow A Phi and A v + h; every
# matrix product is a left-to-right float sum. reduced_field calls it once.
# Where its kernel raises or gives a non-finite value it needs, a stage
# evaluates the point with the point kernels (and their checked texts)
# in the order base values, h, g blocks, d2g factorization, partials, which
# decides the error a point raises, and runs the same algebra on those
# values. The stage and the constraint Newton step are written once each,
# as line lists (_stage_lines, _constraint_lines): their standalone
# functions are built from them, and so is the flow's step loop
# (flow._emit_flow), which inlines four stages and a constraint step per
# RK4 step. The algebra text is compiled with emit's two bindings: FED
# for the kernel's finite values, GIVEN for the values the point
# evaluations give.


def _stage_lines(sys, out_a, sens, lsens, forcing, use_h):
    """The stage of one variant as line lists: (inputs, guarded, alg, out).

    The stage reads the locals inputs: the state names, then Phi as
    P{i}_{j} row by row when sens, then v as Q{i} when lsens, and the time
    t and lam. guarded is the fgh kernel (SystemDef._point_code) and its
    finiteness guard FED (emit.guarded) over what the algebra reads;
    alg, run where FED holds, forms the output expressions out: zdot; then
    A row by row when out_a; A Phi when sens; A v + h when lsens. The base
    field w is f (h with forcing), plus lam * h when use_h."""
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
    # (its checked text rejects an exp of inf, which the kernel computes)
    needed = [f"V{i}" for i in [*B, *G]] + [d(i, c) for i in G for c in range(n)]
    if use_h or lsens:
        needed += [f"V{i}" for i in H]
    if lin:
        needed += [d(i, c) for i in ([*B, *H] if use_h else B) for c in range(n)]
    needed = list(dict.fromkeys(needed))

    alg = [f"W{i} = V{b} + lam * V{h}" for i, (b, h) in enumerate(zip(B, H))] * use_h
    w = [f"W{i}" for i in range(k)] if use_h else [f"V{b}" for b in B]
    alg += [f"R{j} = {emit.dot([d(g, c) for c in range(k)], w)}"
            for j, g in enumerate(G)]
    rows = [[d(g, k + c) for c in range(s)] for g in G]
    carry = [[f"R{j}"] + [d(g, c) for c in range(k)] * lin
             for j, g in enumerate(G)]
    alg += emit.lu_lines(rows, carry, "raise singular({p}, TOL, {col})")
    alg += emit.solve_lines(rows, [f"R{j}" for j in range(s)])
    out = w + [f"-R{j}" for j in range(s)]
    if lin:
        xs = [[d(g, c) for g in G] for c in range(k)]  # [d2g]^-1 d1g by column
        for x in xs:
            alg += emit.solve_lines(rows, x)
        a = [[f"A{i}_{c}" for c in range(k)] for i in range(k)]
        for i in range(k):
            for c in range(k):
                alg.append(f"{a[i][c]} = {d(B[i], c)} - "
                           f"({emit.dot([d(B[i], k + q) for q in range(s)], xs[c])})")
                if use_h:
                    alg.append(f"{a[i][c]} = {a[i][c]} + lam * ({d(H[i], c)} - "
                               f"({emit.dot([d(H[i], k + q) for q in range(s)], xs[c])}))")
        out += [e for row in a for e in row] * out_a
        out += [emit.dot(a[i], [phi[q][j] for q in range(k)])
                for i in range(k) for j in range(k)] * sens
        out += [f"{emit.dot(a[i], vl)} + V{H[i]}" for i in range(k)] * lsens
    return inputs, emit.guarded(sys._point_code("fgh"), needed), alg, out


def _emit_stage(sys, out_a, sens, lsens, forcing, use_h):
    """The stage function ``stage(Y, t, lam)`` of one variant: Y holds the
    inputs of _stage_lines, and it returns their out as a tuple. Where FED
    does not hold, it runs the algebra bound to emit.GIVEN on the point
    evaluations, in the order above."""
    k, s, n = sys.k, sys.s, sys.k + sys.s
    lin = out_a or sens or lsens
    m = len(sys.fgh)
    G, H = range(k, k + s), range(k + s, m)
    B = H if forcing else range(k)
    inputs, guarded, alg, out = _stage_lines(sys, out_a, sens, lsens, forcing,
                                             use_h)
    ret = [f"return ({', '.join(out)},)"]
    given = functools.cache(lambda: emit.given(  # on the first fallback
        "def given(Y, t, lam, V, D):",
        {"Y": inputs, "V": [f"V{i}" for i in range(m)],
         "D": [f"D{i}_{c}" for i in range(m) for c in range(n)]}, alg + ret))
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

    return emit.function(
        "def stage(Y, t, lam):",
        emit.unpack(inputs, "Y") + guarded
        + ["if not FED:", "    return fallback(Y, t, lam)"] + alg + ret,
        {**emit.STAGE, **sys._consts, "fallback": fallback})


def _constraint_lines(sys, fail):
    """The constraint Newton step as line lists: (kernel, vs, ders, alg).

    kernel is the g kernel on the state names (SystemDef._point_code),
    which leaves g in the locals vs and its partials in ders; alg
    sums RN = |g|_1, factors d2g and overwrites vs with the step
    [d2g]^-1 g. fail is the statement run on a rejected pivot, as in
    emit.lu_lines."""
    k, s, n = sys.k, sys.s, sys.k + sys.s
    rows = [[f"D{j}_{k + c}" for c in range(s)] for j in range(s)]
    vs = [f"V{j}" for j in range(s)]
    alg = [f"RN = {emit.norm_code(vs)}"]
    alg += emit.lu_lines(rows, [[v] for v in vs], fail) + emit.solve_lines(rows, vs)
    ders = [f"D{j}_{c}" for j in range(s) for c in range(n)]
    return sys._point_code("g"), vs, ders, alg


def _emit_constraint_step(sys):
    """``step(Z)``: at the state Z, (|g|_1, the Newton step [d2g]^-1 g);
    a singular d2g raises SingularMatrixError. Where the kernel raises or
    its guard sum (g and every partial) is not finite, the step falls back
    on the point alone, in the order of its evaluations: g from eval_g,
    then d2g from jac_rows, each of which gives the kernel's bits or raises
    the point's error, then the algebra bound to emit.GIVEN."""
    k, s, n = sys.k, sys.s, sys.k + sys.s
    kernel, vs, ders, alg = _constraint_lines(
        sys, "raise singular({p}, TOL, {col})")
    alg += [f"return RN, ({', '.join(vs)},)"]
    given = functools.cache(lambda: emit.given(  # on the first fallback
        "def given(V, D):", {"V": vs, "D": ders}, alg))

    def fallback(Z):
        env = sys.env(Z[:k], Z[k:])
        vals = sys.eval_g(env).tolist()
        d2g = sys.jac_rows(sys.g, env, sys.y_names)
        flat = [math.nan] * (s * n)
        for j, row in enumerate(d2g.tolist()):
            flat[j * n + k:(j + 1) * n] = row
        return given()(vals, flat)

    return emit.function(
        "def step(Z):",
        emit.unpack(sys.state_names, "Z") + ["try:"] + emit.indent(kernel)
        + ["except ERRORS:", "    return fallback(Z)",
           f"if not isfinite({' + '.join(vs + ders)}):",
           "    return fallback(Z)"]
        + alg, {**emit.STAGE, **sys._consts, "fallback": fallback})


def _residual(sys, p, q):
    """|g|_1 at (p, q) from eval_g, summed left to right as the constraint
    step sums it (emit.norm_code)."""
    rn = 0.0
    for v in sys.eval_g(sys.env(p, q)).tolist():
        rn += abs(v)
    return rn


def _solve_constraint_row(sys, p, q, first=None):
    """solve_constraint's Newton on floats: p and q are tuples, first the
    constraint step at (p, q) when the caller has it. The step is formed,
    so d2g must factor, at the start (an already solved start included)
    and at each accepted iterate above tolerance. A trial is judged by its
    |g|_1 alone (_residual), so a rejected trial never forms a step; a step
    that does not lower the residual halves up to 11 times; at most 50
    iterations. Returns (q, |g|_1)."""
    step_at, tol = sys._constraint_step(), sys.constraint_tol
    rn, step = first if first is not None else step_at(p + q)
    if rn <= tol:
        return q, rn
    for it in range(50):
        if it:
            rn, step = step_at(p + q)
        q_new = tuple([a - b for a, b in zip(q, step)])
        rn_new = _residual(sys, p, q_new)
        t = 1.0
        for _ in range(11):
            if rn_new < rn or rn_new <= tol:
                break
            t *= 0.5
            q_new = tuple([a - t * b for a, b in zip(q, step)])
            rn_new = _residual(sys, p, q_new)
        q, rn = q_new, rn_new
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
    """|dg[v]|_1 at the point: exact directional derivative of g along v,
    from one kernel of g seeded with v."""
    seed = {nm: float(vi) for nm, vi in zip(sys.state_names, v)}
    ders = expr.Kernel(sys.g, [seed]).dual(sys.env(pt.p, pt.q))[1]
    total = 0.0
    for d in ders[:, 0].tolist():
        total += abs(d)
    return total
