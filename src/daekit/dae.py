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

import math
from dataclasses import dataclass

import numpy as np

from . import expr
from .errors import (
    ConstraintSolveError,
    HypothesisViolationError,
)
from .linalg import (
    lu_apply_rows,
    lu_factor,
    lu_factor_rows,
    norm1,
    norm1_rows,
)

_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


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
    h together (``fgh``) make the one kernel the flow evaluates.
    """

    def __init__(self, k, s, period, f, g, h=None, box=None, constraint_tol=1e-10,
                 name=""):
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
        self.name = name
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
        self._d1g_exprs = None
        self._d2g_flat = None
        self.fgh = self.f + self.g + self.h
        self._kernels = {}
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

    @property
    def d1g_exprs(self):
        if self._d1g_exprs is None:
            self._d1g_exprs = [
                [expr.symbolic_diff(gi, x) for x in self.x_names] for gi in self.g
            ]
        return self._d1g_exprs

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
        return self.kernel(exprs).dual(env, cols)[1][0]

    def rows(self, exprs, z, t=None):
        """(values, Jacobians) of the list exprs on every row of z (N, k+s):
        (N, m) values and (N, m, k+s) state Jacobians. Rows use the point
        arithmetic, so each equals the point evaluation bit for bit wherever
        that is finite and is non-finite where the point kernel raises. All
        rows share t (nan when None)."""
        env = {nm: z[:, i] for i, nm in enumerate(self.state_names)}
        env["t"] = math.nan if t is None else float(t)
        vals = np.empty((len(z), len(exprs)))
        jac = np.empty((len(z), len(exprs), len(self.state_names)))
        self.kernel(exprs).dual_rows(env, jac, vals)
        return vals, jac

    def blocks(self, exprs, env):
        """(d1, d2): the x- and y-blocks of the Jacobian of exprs."""
        return self.kernel(exprs).dual(env, slice(self.k), slice(self.k, None))[1]

    def constraint_blocks(self, env):
        """(d1g, d2g) at the point described by env."""
        return self.blocks(self.g, env)


def _det_and_grad(sys, z):
    """det d2g at z plus its gradient w.r.t. the state (Jacobi's formula)."""
    s, n = sys.s, sys.k + sys.s
    env = sys.env(z[: sys.k], z[sys.k :])
    kern = sys.kernel(sys.d2g_flat)
    a = kern.values(env).reshape(s, s)
    adj = _adjugate(a)
    da = np.ascontiguousarray(kern.dual(env)[1][0].reshape(s, s, n).transpose(2, 0, 1))
    grad = np.array([float(np.trace(adj @ da[m])) for m in range(n)])
    return _det_small(a), grad



def _det_small(a):
    n = a.shape[0]
    if n == 1:
        return float(a[0, 0])
    if n == 2:
        return float(a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0])
    return float(np.linalg.det(a))


def _adjugate(a):
    n = a.shape[0]
    if n == 1:
        return np.array([[1.0]])
    adj = np.empty((n, n))
    for i in range(n):
        for j in range(n):
            minor = np.delete(np.delete(a, i, axis=0), j, axis=1)
            adj[j, i] = (-1.0) ** (i + j) * _det_small(minor)
    return adj


def _polish_det_minimum(sys, z0, iterations=100):
    """Drive |det d2g| toward its local minimum from z0 (box-clipped)."""
    z = sys.box.clip(np.array(z0, dtype=float))
    best_z, best_d = z.copy(), abs(_det_and_grad(sys, z)[0])
    for _ in range(iterations):
        d, grad = _det_and_grad(sys, z)
        gg = float(grad @ grad)
        if abs(d) < 1e-14 or gg < 1e-30:
            break
        step = -d / gg * grad
        z = sys.box.clip(z + step)
        ad = abs(_det_and_grad(sys, z)[0])
        if ad < best_d:
            best_d, best_z = ad, z.copy()
        if norm1(step) < 1e-15:
            break
    return best_z, best_d


def _refine_witness(sys, z0, iterations=100):
    """Pull a degenerate-d2g point onto the constraint locus (det=0, g=0)."""
    z = sys.box.clip(np.array(z0, dtype=float))
    best = z.copy()
    best_r = math.inf
    for _ in range(iterations):
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

    Evaluates det d2g at quasi-random samples, then polishes the smallest
    candidates to the actual local minimum, so thin degeneracies that slip
    between samples are still caught. On failure raises
    HypothesisViolationError whose witness is refined onto the constraint
    locus when possible (that is where the DAE itself breaks down).
    """
    pts = sys.box.sample(samples)
    env = {nm: pts[:, i] for i, nm in enumerate(sys.state_names)}
    a = sys.kernel(sys.d2g_flat).values_batch(
        env, np.empty((samples, sys.s * sys.s))
    ).reshape(samples, sys.s, sys.s)
    dets = np.linalg.det(a)
    abs_dets = np.abs(dets)
    i_min = int(np.argmin(abs_dets))
    min_sample = float(abs_dets[i_min])
    loc = pts[i_min].copy()

    order = np.argsort(abs_dets)
    refined_z, refined_d = loc, min_sample
    for idx in order[:6]:
        z, d = _polish_det_minimum(sys, pts[idx])
        if d < refined_d:
            refined_z, refined_d = z, d

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


def _finite_rows(*parts):
    """Rows whose entries in all the given (N, ...) arrays are finite."""
    ok = np.ones(len(parts[0]), dtype=bool)
    for a in parts:
        ok &= np.isfinite(a).all(axis=tuple(range(1, a.ndim)))
    return ok


def _at_point(rows, errors, call):
    """call(i) for every listed row without an error; a raise becomes that
    row's error. Used to re-evaluate non-finite rows at their point."""
    for i in rows:
        i = int(i)
        if i not in errors:
            try:
                call(i)
            except Exception as exc:  # the row fails alone, with its error
                errors[i] = exc


def constraint_rows(sys, p, q):
    """g and its state Jacobian on the rows (p, q): (values (N, s),
    Jacobians (N, s, k+s), errors). A row whose values are not finite gets
    eval_g at its point: that value, or in errors the error it raises."""
    r, jac = sys.rows(sys.g, np.hstack([p, q]))
    errors = {}
    if not math.isfinite(np.add.reduce(r, None)):
        def call(i):
            r[i] = sys.eval_g(sys.env(p[i], q[i]))

        _at_point(np.flatnonzero(~_finite_rows(r)), errors, call)
    return r, jac, errors


def solve_constraint_rows(sys, p, q_guess, start=None):
    """solve_constraint on every row of p (N, k) from q_guess (N, s) at once.

    The rows run solve_constraint's Newton iteration in lockstep, with its
    backtracking, constraint_tol and 50-iteration limit, on one batch call
    of the g kernel per evaluation, and compute bit for bit what they
    would alone. start is constraint_rows(sys, p, q_guess) when the caller
    has it. Returns (q, residuals, errors): errors maps every failing row
    to the error solve_constraint raises for it alone.
    """
    p = np.asarray(p, dtype=float)
    q = np.array(q_guess, dtype=float)
    k, tol = sys.k, sys.constraint_tol
    r, jac, errors = start if start is not None else constraint_rows(sys, p, q)
    errors = dict(errors)
    rn = norm1_rows(r)

    def factored(rows, r, jac, q):
        """LU of d2g at the given rows (jac_rows(g, y) at the point where
        the batch is not finite); the mask of rows that factor, and the
        factors."""
        d2g = np.ascontiguousarray(jac[:, :, k:])

        def call(i):
            d2g[i] = sys.jac_rows(sys.g, sys.env(p[rows[i]], q[i]), sys.y_names)

        bad = {}
        if not math.isfinite(np.add.reduce(r, None) + np.add.reduce(jac, None)):
            _at_point(np.flatnonzero(~_finite_rows(r, jac)), bad, call)
        lu, piv, singular = lu_factor_rows(d2g)
        bad.update((i, exc) for i, exc in singular.items() if i not in bad)
        ok = np.ones(len(rows), dtype=bool)
        for i, exc in bad.items():
            errors[int(rows[i])] = exc
            ok[i] = False
        return ok, lu, piv

    live = np.arange(len(p))
    if errors:
        live = np.array([i for i in live if i not in errors], dtype=int)
    lq, lr, ljac, lrn = (a[live] if errors else a for a in (q, r, jac, rn))
    for it in range(50):
        if not live.size:
            break
        # d2g must factor at every iterate, already solved starts included
        ok, lu, piv = factored(live, lr, ljac, lq)
        keep = ok & ~(lrn <= tol) if it == 0 else ok
        if not keep.all():
            live, lq, lr, ljac, lrn, lu, piv = (
                a[keep] for a in (live, lq, lr, ljac, lrn, lu, piv))
            if not live.size:
                break
        step = lu_apply_rows(lu, piv, lr)
        # backtracking: t = 1 for every row, then halved for the rows whose
        # residual did not drop, on their last try
        q_new = lq - step
        r_new, jac_new, bad = constraint_rows(sys, p[live], q_new)
        rn_new = norm1_rows(r_new)
        back = ~((rn_new < lrn) | (rn_new <= tol))
        back[list(bad)] = False
        t, b = 1.0, np.flatnonzero(back)
        for _ in range(11):
            if not b.size:
                break
            t *= 0.5
            q_try = lq[b] - t * step[b]
            r_try, jac_try, bad_b = constraint_rows(sys, p[live[b]], q_try)
            bad.update((int(b[i]), exc) for i, exc in bad_b.items())
            rn_try = norm1_rows(r_try)
            q_new[b], r_new[b], jac_new[b], rn_new[b] = q_try, r_try, jac_try, rn_try
            stop = (rn_try < lrn[b]) | (rn_try <= tol)
            stop[list(bad_b)] = True
            b = b[~stop]
        lq, lr, ljac, lrn = q_new, r_new, jac_new, rn_new
        for i, exc in bad.items():
            errors[int(live[i])] = exc
        q[live], rn[live] = lq, lrn
        going = ~(lrn <= tol)
        going[list(bad)] = False
        live, lq, lr, ljac, lrn = (a[going] for a in (live, lq, lr, ljac, lrn))
    for i in live:
        errors[int(i)] = ConstraintSolveError(
            f"constraint Newton stalled at residual {rn[i]:.3e} "
            f"for p = {tuple(p[i])}"
        )
    return q, rn, errors


def solve_constraint(sys, p, q_guess):
    """Newton in y on g(p, y) = 0 from q_guess; follows that branch only."""
    p = np.asarray(p, dtype=float)
    q, rn, errors = solve_constraint_rows(
        sys, p[None], np.asarray(q_guess, dtype=float)[None]
    )
    if errors:
        raise errors[0]
    return ManifoldPoint(p.copy(), q[0], float(rn[0]))


def reduced_field(sys, z, t=None, lam=0.0, linearize=False, forcing=False,
                  with_h=False):
    """The reduced field on rows of manifold points and its linearization.

    z is an (N, k+s) array of states, all at time t. With w = base + lam*h
    (base is f, or h with forcing) returns (zdot, A, hv, errors): the
    fields zdot = (w, -[d2g]^-1 d1g w) as rows; with linearize the reduced
    linearizations A = d1w - d2w [d2g]^-1 d1g (else None); with with_h the
    values of h (else None); and errors, which maps every failing row to
    the error its evaluation at the point raises. One batch call of the
    f+g+h kernel and one batched factorization of d2g serve all rows; each
    row equals its one-row result bit for bit. A row whose needed batch
    values are not finite is re-evaluated with the point kernels in the
    order f (or base), h, g, d2g factorization, derivatives of base and h,
    so it gets the point result or the point error.
    """
    k, s = sys.k, sys.s
    z = np.asarray(z, dtype=float)
    vals, jac = sys.rows(sys.fgh, z, t)
    fb, gb, hb = slice(k), slice(k, k + s), slice(k + s, None)
    bb, base = (hb, sys.h) if forcing else (fb, sys.f)
    use_h = lam != 0.0
    late_h = with_h and not use_h
    errors = {}
    if not math.isfinite(np.add.reduce(vals, None) + np.add.reduce(jac, None)):
        checked = [vals[:, bb], vals[:, gb], jac[:, gb]]
        if use_h or late_h:
            checked.append(vals[:, hb])
        if linearize:
            checked.append(jac[:, bb])
            if use_h:
                checked.append(jac[:, hb])

        def point(i):
            env = sys.env(z[i, :k], z[i, k:], t=t)
            vals[i, bb] = sys.kernel(base).values(env)
            if use_h:
                vals[i, hb] = sys.eval_h(env)
            d1g, d2g = sys.constraint_blocks(env)
            jac[i, gb, :k], jac[i, gb, k:] = d1g, d2g
            lu_factor(d2g)
            if linearize:
                jac[i, bb, :k], jac[i, bb, k:] = sys.blocks(base, env)
                if use_h:
                    jac[i, hb, :k], jac[i, hb, k:] = sys.blocks(sys.h, env)
            if late_h:
                vals[i, hb] = sys.eval_h(env)

        _at_point(np.flatnonzero(~_finite_rows(*checked)), errors, point)
    lu, piv, singular = lu_factor_rows(jac[:, gb, k:])
    for i, exc in singular.items():
        errors.setdefault(i, exc)
    w = vals[:, bb]
    if use_h:
        w = w + lam * vals[:, hb]
    d1g = jac[:, gb, :k]
    solved = lu_apply_rows(lu, piv, np.matmul(d1g, w[:, :, None])[:, :, 0])
    zdot = np.concatenate([w, -solved], axis=1)
    hv = vals[:, hb] if with_h else None
    if not linearize:
        return zdot, None, hv, errors
    x = lu_apply_rows(lu, piv, d1g)
    a = jac[:, bb, :k] - np.matmul(jac[:, bb, k:], x)
    if use_h:
        a = a + lam * (jac[:, hb, :k] - np.matmul(jac[:, hb, k:], x))
    return zdot, a, hv, errors


def reduced_field_at(sys, z, t=None, lam=0.0, linearize=False,
                     forcing=False):
    """reduced_field at one state z: (zdot, A), raising the point's error."""
    zdot, a, _, errors = reduced_field(
        sys, np.asarray(z, dtype=float)[None], t, lam, linearize, forcing
    )
    if errors:
        raise errors[0]
    return zdot[0], None if a is None else a[0]


def tangent_field(sys, pt):
    """Induced autonomous field (f, -[d2g]^-1 d1g f) at a manifold point."""
    return reduced_field_at(sys, pt.z)[0]


def forcing_field(sys, t, pt):
    """Forcing field (h, -[d2g]^-1 d1g h); periodic in t like h."""
    return reduced_field_at(sys, pt.z, t, forcing=True)[0]


def perturbed_field(sys, t, pt, lam):
    """Full right-hand side tangent + lam * forcing with one shared LU."""
    if lam < 0:
        raise ValueError("perturbation magnitude lambda must be >= 0")
    return reduced_field_at(sys, pt.z, t, lam)[0]


def tangency_defect(sys, pt, v):
    """|dg[v]|_1 at the point: exact directional derivative of g along v."""
    env = sys.env(pt.p, pt.q)
    seed = {nm: float(vi) for nm, vi in zip(sys.state_names, v)}
    total = 0.0
    for gi in sys.g:
        total += abs(expr.evaluate_dual(gi, env, seed).derivative)
    return total
