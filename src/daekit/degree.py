"""Zero finding and topological degree of vector fields on box regions.

Two independent routes to the same integer are kept deliberately separate:

* signed summation of Jacobian-determinant signs over the nondegenerate
  zeros found by a multistart Newton sweep, and
* a boundary oracle that never looks at the zeros (a winding number in the
  plane; a perturb-and-vote fallback in higher dimension).

For a DAE system the degree of the induced tangent field on the constraint
manifold is then sign(det d2g) times the degree of the flat map (f, g);
that reduction is what `tangent_field_degree` reports, together with the
cross-check status.
"""

import contextvars
import functools
import math
import os
from dataclasses import dataclass

import numpy as np

from . import emit, expr
from .dae import Box, SystemDef, reduced_field, validate
from .errors import (
    BoundaryZeroError,
    DaekitError,
    DegenerateZeroError,
    InconsistentVoteError,
    SingularMatrixError,
    point_text,
)
from .linalg import (
    _norm1_rows,
    _solve_rows,
    det_sign,
    norm1,
    norm1_rows,
    row_scale,
)

DEDUP_RADIUS = 1e-6
BOUNDARY_SLACK = 1e-6
DEGENERATE_TOL = 1e-8
MIN_BOUNDARY_MARGIN = 1e-8
FACE_SAMPLES = 256  # quasi-random samples per box face in boundary_margin
PERTURB_SIZE = 1e-5
SWEEP_TOL = 1e-12  # norm-1 residual at which a sweep start has converged
SWEEP_ITERATIONS = 60  # Newton steps per sweep start
POLISH_ITERATIONS = 60  # Newton steps per cluster head of the zero polish
# fewest starts in a half of a split sweep (_newton_sweep). Below about
# this size the hand-off to the worker and the shorter numpy passes cost
# more than the second core gives. Median warm sweep times as two halves
# against one thread on a 2-core Xeon (numpy 2.4.6): r22 at 12^4 starts
# +20 %, r21 at 24^3 +52 %, pozzo at 24^3 -14 %; at 2 * SPLIT starts or
# more, r21 at 32^3 +4 %, r22 at 16^4 -35 %, pozzo at 40^3 -37 %
SPLIT = 16384


@dataclass(eq=False)
class VectorField:
    """A map R^n -> R^n given by n formulas over n ordered variables;
    equal only to itself."""

    exprs: list
    var_names: list

    # set when the field is the flat extension (f, g) of a DAE system: the
    # number of differential components, which the boundary oracle shifts
    k: int = None

    @property
    def dim(self):
        return len(self.exprs)

    def env(self, z, batch=False):
        if batch:
            return {nm: z[:, i] for i, nm in enumerate(self.var_names)}
        return {nm: float(z[i]) for i, nm in enumerate(self.var_names)}

    @functools.cached_property
    def _kernel(self):
        return expr.Kernel(self.exprs, [{nm: 1.0} for nm in self.var_names])

    @functools.cached_property
    def _polish(self):
        """The emitted polish loop of the field (_emit_polish)."""
        return _emit_polish(self)

    def value(self, z):
        return self._kernel.values(self.env(z))

    def jacobian(self, z):
        return self._kernel.dual(self.env(z))[1]

    def value_batch(self, zs):
        """Values (N, m) on the rows of zs, a view of an entry-major (m, N)
        array."""
        out = np.empty((self.dim, len(zs)))
        return self._kernel.values_batch(self.env(zs, batch=True), out).T

    def jacobian_batch(self, zs):
        """(values (N, m), Jacobians (N, m, n)) on the rows of zs, from one
        kernel pass: views of entry-major (m, N) and (m * n, N) arrays, so
        the kernel writes every entry contiguously."""
        m, n, rows = self.dim, len(self.var_names), len(zs)
        vals, jac = np.empty((m, rows)), np.empty((m * n, rows))
        self._kernel.dual_batch(self.env(zs, batch=True), jac, vals)
        return vals.T, jac.reshape(m, n, rows).transpose(2, 0, 1)


def system_field(sys):
    """The flat map (f, g) of a DAE system as a VectorField, made on first
    use and kept on the instance, so its batch kernel and emitted polish
    are made once per system."""
    if "field" not in sys._stages:
        sys._stages["field"] = VectorField(list(sys.f) + list(sys.g),
                                           list(sys.state_names), k=sys.k)
    return sys._stages["field"]


def as_field(obj):
    return system_field(obj) if isinstance(obj, SystemDef) else obj


@dataclass
class ZeroRecord:
    """A zero of the field with its local index data."""

    point: np.ndarray
    residual: float
    jacobian: np.ndarray
    index: int            # +1 / -1, or None when degenerate
    degenerate: bool
    schur_sign_pair: tuple
    near_boundary: bool


@dataclass
class DegreeReport:
    box: Box
    zeros: list
    deg_f: int
    sign_d2g: int
    deg_psi: int
    oracle_deg: int
    boundary_margin: float
    oracle_agrees: bool


# ---------------------------------------------------------------------------
# Multistart Newton zero sweep


def _grid_starts(box, grid_per_dim):
    axes = [
        box.lo[d] + (np.arange(grid_per_dim) + 0.5) * box.width[d] / grid_per_dim
        for d in range(box.dim)
    ]
    # rows (N, n) viewing one (n, N) array, the sweep's layout
    mesh = np.meshgrid(*axes, indexing="ij", copy=False)
    return np.stack(mesh).reshape(box.dim, -1).T


def _newton_sweep(fld, box, starts):
    """The points Newton's method reaches from the rows of starts, in start
    order. With at least 2 * SPLIT starts, on a process that may run on two
    CPUs, the starts are split once into two halves, and each runs the
    whole Newton loop (_sweep_columns) on its own thread: the second in the
    worker, under a copy of the caller's context (numpy's errstate lives
    there), the first in the caller's thread. Both are awaited, and the
    caller raises what either raised. Else one loop takes every start.
    Every operation of the loop acts on each start alone, so the points do
    not depend on the split. A point is dropped where its step leaves the
    box inflated by 5 widths."""
    zt = np.ascontiguousarray(starts.T, dtype=float)
    rows = zt.shape[1]
    live = np.arange(rows)
    lo_big = (box.lo - 5.0 * box.width)[:, None]
    hi_big = (box.hi + 5.0 * box.width)[:, None]
    # platforms without os.sched_getaffinity (macOS, Windows) never split
    if (rows < 2 * SPLIT or not hasattr(os, "sched_getaffinity")
            or len(os.sched_getaffinity(0)) < 2):
        hits, points = _sweep_columns(fld, zt, live, lo_big, hi_big)
    else:
        # the batch kernel compiles in the caller's thread, as
        # compile_kernel is public
        fld._kernel._fn(True)
        half = rows // 2
        second = _worker().submit(
            contextvars.copy_context().run, _sweep_columns,
            fld, zt[:, half:], live[half:], lo_big, hi_big)
        try:
            hits, points = _sweep_columns(fld, zt[:, :half], live[:half],
                                          lo_big, hi_big)
        finally:
            more = second.result()
        hits, points = hits + more[0], points + more[1]
    return np.concatenate(points, axis=1).T[np.argsort(np.concatenate(hits))]


def _sweep_columns(fld, zt, live, lo_big, hi_big):
    """The Newton loop of _newton_sweep on the starts zt, entry-major as an
    (n, N) array, whose start indices are live. Only live points are
    carried. Each step takes one values-and-Jacobian kernel pass over them,
    their norm-1 residual, an elimination (linalg._solve_rows) and the
    step. A point converges at a residual of at most SWEEP_TOL. It is
    dropped at a non-finite residual, at a step that is not finite (a zero
    pivot leaves it nan) or leaves [lo_big, hi_big], or after
    SWEEP_ITERATIONS steps. Returns the lists of start indices and of
    converged points, one entry per step. Calls nothing public, as it may
    run in the worker thread (a tracer keeps one span stack for the whole
    process)."""
    (n, rows), m = zt.shape, fld.dim
    hits, points = [live[:0]], [zt[:, :0]]
    # one set of kernel outputs and steps for these starts, sliced to the
    # live points, so no step allocates a new stack
    vbuf, jbuf, sbuf = (np.empty((m, rows)), np.empty((m * n, rows)),
                        np.empty((n, rows)))
    for _ in range(SWEEP_ITERATIONS):
        size = live.size
        if not size:
            break
        fv, jac, z = vbuf[:, :size], jbuf[:, :size], sbuf[:, :size]
        fld._kernel.dual_batch(fld.env(zt.T, batch=True), jac, fv)
        with np.errstate(all="ignore"):
            res = _norm1_rows(fv.T)
        _solve_rows(jac, fv, out=z)
        np.subtract(zt, z, out=z)
        done = res <= SWEEP_TOL
        hits.append(live[done])
        points.append(zt[:, done])
        keep = ((res > SWEEP_TOL) & np.isfinite(res)
                & np.all(z >= lo_big, axis=0) & np.all(z <= hi_big, axis=0))
        zt, live = np.compress(keep, z, axis=1), live[keep]
    return hits, points


@functools.cache
def _worker():
    """The one thread that takes the second half of a split sweep, made on
    first use and kept for the process. concurrent.futures is imported
    here, as it imports logging: about 14 ms that a process which never
    splits a sweep need not pay."""
    from concurrent.futures import ThreadPoolExecutor
    return ThreadPoolExecutor(1, thread_name_prefix="daekit-sweep")


def find_zeros(system_or_field, box, grid_per_dim=16):
    """All zeros of the field in the box, deduplicated, with index data.

    Multistart Newton from a grid_per_dim^n grid of cell centers
    (_newton_sweep, which runs a large sweep as two halves of its starts on
    two threads when the process may run on two CPUs, with the same bits
    as on one). The converged points inside the box are clustered at
    DEDUP_RADIUS, and only each cluster's head is polished, one after the
    other (the field's emitted loop, _emit_polish; the first head whose
    evaluation fails raises its error): at a degenerate zero, where Newton
    converges linearly, the sweep leaves a cloud of points a few 1e-6
    wide, and one polish per cluster stands for all of them. The polished
    points inside the box are merged again at DEDUP_RADIUS, as heads of
    one cloud may polish to one zero. Both merges are first-seen
    clustering in sweep order (`_first_seen`). Each survivor gets an AD
    Jacobian, a degeneracy flag (det_sign at relative tolerance 1e-8)
    and, when nondegenerate, the Jacobian sign as its index. Points within
    1e-6 of the box boundary are flagged. Given a system, each record
    carries schur_sign_pair (_make_record); given a bare field, None.
    """
    if grid_per_dim < 2:
        raise ValueError("grid_per_dim must be at least 2")
    fld = as_field(system_or_field)
    if fld.dim != box.dim:
        raise ValueError("field and box dimension mismatch")
    rows = _newton_sweep(fld, box, _grid_starts(box, grid_per_dim))
    rows = rows[box.contains_rows(rows, slack=BOUNDARY_SLACK)]
    heads = rows[_first_seen(rows, DEDUP_RADIUS)].tolist()
    rows = np.array([fld._polish(z) for z in heads]).reshape(-1, fld.dim)
    rows = rows[box.contains_rows(rows, slack=BOUNDARY_SLACK)]
    sys = system_or_field if isinstance(system_or_field, SystemDef) else None
    records = [_make_record(fld, sys, box, z)
               for z in rows[_first_seen(rows, DEDUP_RADIUS)]]
    records.sort(key=lambda r: tuple(r.point))
    return records


def _first_seen(points, radius):
    """Indices of the entries of points that first-seen clustering keeps,
    in input order: an entry is kept unless an earlier kept entry lies
    within radius. points is (N, n), or (N, T, n) for orbits, whose
    distance is the largest norm-1 distance between their rows. Each kept
    entry drops every later entry within the radius in one pass; nan is
    never within any radius. Distances of fewer than 8 coordinates are
    summed column by column, left to right as np.sum adds them."""
    points = np.asarray(points, dtype=float)
    n = points.shape[-1]
    # coordinates first: one take gathers every coordinate's entries
    cols = np.ascontiguousarray(np.moveaxis(points, -1, 0)) if n < 8 else None
    kept = []
    rest = np.arange(len(points))
    while rest.size:
        i, rest = rest[0], rest[1:]
        kept.append(i)
        if n < 8:
            near = np.abs(cols.take(rest, axis=1) - cols[:, i, None])
            dist = near[0]
            for c in range(1, n):
                dist += near[c]
        else:  # np.sum adds 8 or more contiguous entries pairwise
            dist = np.abs(points[rest] - points[i]).sum(axis=-1)
        if dist.ndim > 1:
            dist = dist.max(axis=1)
        rest = rest[~(dist <= radius)]
    return np.array(kept, dtype=np.intp)


def _emit_polish(fld):
    """``polish(z)``: the best point of the polish of one candidate from its
    start z (a list), as one emitted function over named locals, kept on
    the field (VectorField._polish); equal loop texts share one compile in
    the process. Degenerate zeros converge linearly, so the candidate keeps
    taking Newton steps while its residual still drops, for at most
    POLISH_ITERATIONS, and keeps the best point it met. It stops at a zero
    residual, a singular Jacobian, or a non-finite or negligible step.

    Each iteration runs the field's point code (expr._kernel_code, the point
    at Z{i}) and its finiteness guard (emit.guarded). An iterate where the
    kernel raises or the guard sum is not finite takes its values from
    Kernel.values and, past the zero-residual stop, its partials from
    Kernel.dual, which raise the point's error. Every iterate sums the
    residual, keeps the best point, stops at a zero residual, factors and
    solves with emit's LU bound to FED (a rejected pivot ends the loop),
    tests the step and updates the point. Partials that are not finite
    cannot make that LU divide by zero (a nan first entry makes the
    threshold and every later pivot nan; any other threshold rejects a zero
    pivot), so they end the loop at a rejected pivot or at the step test.
    Residual and step norm are summed in np.sum's order, as norm1 sums
    them: left to right in the code below 8 entries, by a call of norm1
    from 8 on (numpy's pairwise sum starts unrolling at 8)."""
    n, kern = fld.dim, fld._kernel
    zs, bs, vs = ([f"{x}{i}" for i in range(n)] for x in "ZBV")
    rows = [[f"D{i}_{c}" for c in range(n)] for i in range(n)]
    kernel, consts = expr._kernel_code(fld.exprs, fld.var_names, at="Z")
    ders = [e for r in rows for e in r]
    best = f"[{', '.join(bs)}]"
    norm = emit.norm_code(vs) if n < 8 else f"norm1([{', '.join(vs)}])"
    guard = [f"({' + '.join(vs)})", f"({' + '.join(ders)})"]
    step = emit.guarded(kernel, guard) + [
        "if not FED:",
        f"    ENV = dict(zip(NAMES, ({', '.join(zs)},)))",
        f"    {', '.join(vs)}, = values(ENV).tolist()",
        f"RES = {norm}",
        "if it == 0 or RES < BR:",
        f"    {', '.join(bs)}, BR = {', '.join(zs)}, RES",
        "if RES == 0.0:",
        "    break",
        "if not FED:",
        f"    {', '.join(ders)}, = dual(ENV)[1].ravel().tolist()"]
    step += (emit.lu_lines(rows, [[v] for v in vs], "break")
             + emit.solve_lines(rows, vs))
    # SN is inf or nan where a step entry is not finite, or where its sum
    # overflows
    step += [f"SN = {norm}",
             "if not SN < INF:",
             f"    if not ({' and '.join(f'isfinite({v})' for v in vs)}):",
             "        break",
             "elif SN < 1e-15:",
             "    break",
             f"{', '.join(zs)} = "
             + ", ".join(f"{z} - {v}" for z, v in zip(zs, vs))]
    body = emit.unpack(zs, "z") + emit.unpack(bs, "z") + [
        "BR = INF", f"for it in range({POLISH_ITERATIONS}):"]
    body += emit.indent(step) + [f"return {best}"]
    return emit.function("def polish(z):", body, {
        **emit.STAGE, **consts, "INF": math.inf, "NAMES": tuple(fld.var_names),
        "values": kern.values, "dual": kern.dual, "norm1": norm1})


def _make_record(fld, sys, box, z):
    """The record of the zero z of fld. schur_sign_pair is None unless sys,
    the system whose flat map fld is, has s >= 1: then it is the signs of
    det d2g and of det A, the reduced linearization from the system's stage
    (reduced_matrix), or None where the stage finds d2g singular. An empty
    A (k = 0) has det 1."""
    fv = fld.value(z)
    jac = fld.jacobian(z)
    sign, _ = det_sign(jac, tol=DEGENERATE_TOL)
    # a Jacobian at roundoff level is numerically zero no matter how its
    # entries compare to each other (multiple roots evaluate to ~1e-16)
    degenerate = sign == 0 or row_scale(jac) <= DEGENERATE_TOL
    pair = None
    if sys is not None and sys.s:
        try:
            a = reduced_matrix(sys, z)
        except SingularMatrixError:
            pass
        else:
            d22 = det_sign(jac[sys.k:, sys.k:], tol=0.0)[1]
            dschur = det_sign(a, tol=0.0)[1] if sys.k else 1.0
            pair = (int(np.sign(d22)), int(np.sign(dschur)))
    return ZeroRecord(
        point=z,
        residual=norm1(fv),
        jacobian=jac,
        index=None if degenerate else sign,
        degenerate=degenerate,
        schur_sign_pair=pair,
        near_boundary=box.boundary_distance(z) < BOUNDARY_SLACK,
    )


# ---------------------------------------------------------------------------
# Signed summation


def degree_sum(zeros, box):
    """Sum of indices over nondegenerate interior zeros; refuses otherwise."""
    near = [z.point for z in zeros if z.near_boundary]
    if near:
        raise BoundaryZeroError(
            f"zero(s) within {BOUNDARY_SLACK} of the box boundary: "
            + ", ".join(point_text(p) for p in near)
        )
    bad = [z.point for z in zeros if z.degenerate]
    if bad:
        raise DegenerateZeroError(bad)
    return int(sum(z.index for z in zeros))


# ---------------------------------------------------------------------------
# Boundary oracle


def boundary_margin(system_or_field, box):
    """min |F|_1 over FACE_SAMPLES quasi-random samples of every box face."""
    fld = as_field(system_or_field)
    n = box.dim
    margin = math.inf
    if n == 1:
        for zv in (box.lo[0], box.hi[0]):
            margin = min(margin, norm1(fld.value(np.array([zv]))))
        return margin
    face_id = 0
    for d in range(n):
        others = [i for i in range(n) if i != d]
        sub = box.subbox(others)
        pts = sub.sample(FACE_SAMPLES, skip=37 + 11 * face_id)
        for side in (box.lo[d], box.hi[d]):
            full = np.empty((FACE_SAMPLES, n))
            full[:, others] = pts
            full[:, d] = side
            vals = fld.value_batch(full)
            margin = min(margin, float(np.min(norm1_rows(vals))))
            face_id += 1
    return margin


def _wrap_angle(d):
    return math.atan2(math.sin(d), math.cos(d))


def _winding_number(fld, box):
    """Degree in the plane: total rotation of F along the box boundary.

    Each boundary segment is subdivided until the field direction turns by
    less than pi/2 across it, which makes every increment unambiguous; the
    wrapped increments then sum to 2*pi times the degree.
    """
    lo, hi = box.lo, box.hi
    corners = [
        np.array([lo[0], lo[1]]),
        np.array([hi[0], lo[1]]),
        np.array([hi[0], hi[1]]),
        np.array([lo[0], hi[1]]),
        np.array([lo[0], lo[1]]),
    ]
    scale = max(1.0, float(np.max(np.abs(np.concatenate([lo, hi])))))

    def probe(z):
        v = fld.value(z)
        m = norm1(v)
        if m <= MIN_BOUNDARY_MARGIN * scale:
            raise BoundaryZeroError(
                f"|F| = {m:.3e} at boundary point {point_text(z)}"
            )
        return math.atan2(v[1], v[0])

    total = 0.0
    for a, b in zip(corners[:-1], corners[1:]):
        t_vals = np.linspace(0.0, 1.0, 17)
        stack = [(t_vals[i], t_vals[i + 1]) for i in range(16)][::-1]
        angles = {}

        def angle_at(t):
            if t not in angles:
                angles[t] = probe(a + t * (b - a))
            return angles[t]

        while stack:
            t0, t1 = stack.pop()
            d = _wrap_angle(angle_at(t1) - angle_at(t0))
            if abs(d) < math.pi / 2:
                total += d
                continue
            if t1 - t0 < 2.0**-46:
                raise BoundaryZeroError(
                    "field direction unresolved on the boundary "
                    f"near {point_text(a + t0 * (b - a))}"
                )
            tm = 0.5 * (t0 + t1)
            stack.append((tm, t1))
            stack.append((t0, tm))
    w = total / (2.0 * math.pi)
    if abs(w - round(w)) > 1e-6:
        raise DaekitError(f"winding sum {w} is not an integer")
    return int(round(w))


@functools.lru_cache(maxsize=32)
def _perturbed_field(fld, shift):
    """Shift the differential components of the field by the constants c
    whose float64 bytes are shift. Each (field, shift) is made once and
    kept (the last 32), so a vote the same seed casts again makes no
    kernel or polish again."""
    c = np.frombuffer(shift)
    k = fld.k if fld.k is not None else fld.dim
    new = []
    for i, e in enumerate(fld.exprs):
        if i < k:
            new.append(expr.c_add(e, expr.Const(float(c[i]))))
        else:
            new.append(e)
    return VectorField(new, fld.var_names, k=fld.k)


def degree_boundary_oracle(system_or_field, box, grid_per_dim=16, rng=None):
    """Degree of the field over the box without trusting any single zero.

    dim 2: winding number along the boundary. dim >= 3: index summation on a
    slightly inflated box; degenerate zeros are resolved by shifting the
    differential components with three random constants of size 1e-5 and
    taking the majority vote.
    """
    fld = as_field(system_or_field)
    return _oracle_degree(fld, box, boundary_margin(fld, box), grid_per_dim,
                          rng)


def _oracle_degree(fld, box, margin, grid_per_dim, rng):
    """degree_boundary_oracle on the field, given its boundary_margin over
    the box, so a caller that has the margin computes it once."""
    if margin <= MIN_BOUNDARY_MARGIN:
        raise BoundaryZeroError(
            f"boundary margin {margin:.3e} too small for a degree"
        )
    if box.dim == 2:
        return _winding_number(fld, box)

    inflated = box.inflate()
    zeros = find_zeros(fld, inflated, grid_per_dim)
    try:
        return degree_sum(zeros, inflated)
    except DegenerateZeroError:
        pass
    if rng is None:
        rng = np.random.default_rng(0)
    k = fld.k if fld.k is not None else fld.dim
    votes = []
    for _ in range(3):
        for _attempt in range(8):
            c = rng.standard_normal(k)
            c *= PERTURB_SIZE / norm1(c)
            pfld = _perturbed_field(fld, c.tobytes())
            pzeros = find_zeros(pfld, inflated, grid_per_dim)
            try:
                votes.append(degree_sum(pzeros, inflated))
                break
            except DegenerateZeroError:
                continue
        else:
            raise InconsistentVoteError(
                "could not regularize the degenerate zeros by perturbation"
            )
    if votes[0] == votes[1] or votes[0] == votes[2]:
        return votes[0]
    if votes[1] == votes[2]:
        return votes[1]
    raise InconsistentVoteError(f"perturbation votes disagree: {votes}")


# ---------------------------------------------------------------------------
# Degree of the induced tangent field


def chart_index(sys, zero):
    """Index of the tangent field at a zero, via the local chart reduction.

    Returns the determinant sign of the reduced linearization
    A = d1f - d2f [d2g]^-1 d1g; equals sign(det d2g) times the index of the
    flat map at the same zero.
    """
    a = reduced_matrix(sys, zero.point)
    sign, _ = det_sign(a, tol=1e-12)
    if sign == 0:
        raise DegenerateZeroError([zero.point])
    return sign


def reduced_matrix(sys, z):
    """A = d1f - d2f [d2g]^-1 d1g at the state z (the reduced linearization)."""
    return reduced_field(sys, z, linearize=True)[1]


def tangent_field_degree(sys, grid_per_dim=16, samples=512, rng=None):
    """Full degree report for a DAE system over its box.

    Validates the d2g hypothesis (raises on violation), finds the zeros of
    the flat map (f, g), computes its degree by signed summation (falling
    back to the boundary oracle when degenerate zeros block the sum) and
    reports the induced tangent-field degree sign(det d2g) * deg(f, g). In
    the plane the winding oracle is always recorded as a cross-check.
    """
    box = sys.box
    vr = validate(sys, samples=samples)
    fld = system_field(sys)
    zeros = find_zeros(sys, box, grid_per_dim)
    margin = boundary_margin(fld, box)
    oracle_deg = None
    try:
        deg_f = degree_sum(zeros, box)
    except DegenerateZeroError:
        deg_f = _oracle_degree(fld, box, margin, grid_per_dim, rng)
        oracle_deg = deg_f
    if box.dim == 2 and oracle_deg is None:
        oracle_deg = _winding_number(fld, box)
    return DegreeReport(
        box=box,
        zeros=zeros,
        deg_f=deg_f,
        sign_d2g=vr.sign,
        deg_psi=vr.sign * deg_f,
        oracle_deg=oracle_deg,
        boundary_margin=margin,
        oracle_agrees=(oracle_deg is None or oracle_deg == deg_f),
    )


# ---------------------------------------------------------------------------
# Degree of fields of the shape v(p, q) = (q, w(p, q))


def degree_via_slice(omega_exprs, box, grid_per_dim=16):
    """Degree of v(p,q) = (q, w(p,q)) over a 2k-box, computed on the q=0 slice.

    Returns -deg(w(.,0), {p : (p,0) in box}). For k = 1 the planar winding
    number of v over the full box is computed as well and must agree.
    """
    k = len(omega_exprs)
    if box.dim != 2 * k:
        raise ValueError("box must have twice the dimension of the map")
    for i in range(k):
        if not (box.lo[k + i] < 0.0 < box.hi[k + i]):
            raise ValueError("the q = 0 slice must cut the box interior")
    slice_fld, lifted = _slice_fields(tuple(omega_exprs))
    slice_box = box.subbox(range(k))
    zeros = find_zeros(slice_fld, slice_box, grid_per_dim)
    try:
        slice_deg = degree_sum(zeros, slice_box)
    except DegenerateZeroError:
        if k == 1:
            slice_deg = _interval_degree(slice_fld, slice_box)
        elif k == 2:
            slice_deg = _winding_number(slice_fld, slice_box)
        else:
            raise
    result = -slice_deg
    if k == 1:
        direct = _winding_number(lifted, box)
        if direct != result:
            raise DaekitError(
                f"slice reduction ({result}) disagrees with the planar "
                f"degree ({direct})"
            )
    return result


@functools.lru_cache(maxsize=32)
def _slice_fields(omega):
    """The field w(., 0) of the formulas omega of w(p, q) and, for k = 1,
    the planar field (y1, w) (else None). Each tuple of formula objects
    gets them once (the last 32), so a reduced system loaded once per text
    makes their kernels once."""
    k = len(omega)
    zero_bind = {f"y{i + 1}": 0.0 for i in range(k)}
    slice_fld = VectorField([expr.substitute(e, zero_bind) for e in omega],
                            [f"x{i + 1}" for i in range(k)])
    if k != 1:
        return slice_fld, None
    return slice_fld, VectorField([expr.Var("y1"), omega[0]], ["x1", "y1"])


def _interval_degree(fld, box):
    """Degree of a scalar map on an interval: half the boundary sign change."""
    va = float(fld.value(np.array([box.lo[0]]))[0])
    vb = float(fld.value(np.array([box.hi[0]]))[0])
    if va == 0.0 or vb == 0.0:
        raise BoundaryZeroError("map vanishes at an interval endpoint")
    return int((np.sign(vb) - np.sign(va)) / 2)
