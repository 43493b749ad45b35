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

import bisect
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import expr
from .dae import (
    Box,
    SystemDef,
    _at_point,
    _finite_rows,
    reduced_field_at,
    validate,
)
from .errors import (
    BoundaryZeroError,
    DaekitError,
    DegenerateZeroError,
    InconsistentVoteError,
    SingularMatrixError,
)
from .linalg import (
    block_schur_det,
    det_sign,
    lu_apply_rows,
    lu_factor_rows,
    norm1,
    norm1_rows,
    row_scale,
)

DEDUP_RADIUS = 1e-6
BOUNDARY_SLACK = 1e-6
DEGENERATE_TOL = 1e-8
MIN_BOUNDARY_MARGIN = 1e-8
PERTURB_SIZE = 1e-5


@dataclass
class VectorField:
    """A map R^n -> R^n given by n formulas over n ordered variables."""

    exprs: list
    var_names: list

    # set when the field is the flat extension (f, g) of a DAE system
    k: int = None
    s: int = None

    @property
    def dim(self):
        return len(self.exprs)

    def env(self, z, batch=False):
        if batch:
            return {nm: z[:, i] for i, nm in enumerate(self.var_names)}
        return {nm: float(z[i]) for i, nm in enumerate(self.var_names)}

    @cached_property
    def _kernel(self):
        return expr.Kernel(self.exprs, [{nm: 1.0} for nm in self.var_names])

    def value(self, z):
        return self._kernel.values(self.env(z))

    def jacobian(self, z):
        return self._kernel.dual(self.env(z))[1][0]

    def value_batch(self, zs):
        out = np.empty((zs.shape[0], self.dim))
        return self._kernel.values_batch(self.env(zs, batch=True), out)

    def jacobian_batch(self, zs):
        out = np.empty((zs.shape[0], self.dim, len(self.var_names)))
        return self._kernel.dual_batch(self.env(zs, batch=True), out)

    def rows(self, zs):
        """(values, Jacobians) on the rows of zs in the point arithmetic:
        bit for bit value() and jacobian() wherever those are finite, and
        non-finite where the point kernel raises."""
        vals = np.empty((zs.shape[0], self.dim))
        jac = np.empty((zs.shape[0], self.dim, len(self.var_names)))
        self._kernel.dual_rows(self.env(zs, batch=True), jac, vals)
        return vals, jac


def system_field(sys):
    """The flat map (f, g) of a DAE system as a VectorField."""
    return VectorField(list(sys.f) + list(sys.g), list(sys.state_names),
                       k=sys.k, s=sys.s)


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
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.column_stack([m.ravel() for m in mesh])


def _newton_sweep(fld, box, starts, tol=1e-12, iterations=60):
    zs = starts.astype(float).copy()
    n_pts = zs.shape[0]
    alive = np.ones(n_pts, dtype=bool)
    converged = np.zeros(n_pts, dtype=bool)
    lo_big = box.lo - 5.0 * box.width
    hi_big = box.hi + 5.0 * box.width
    for _ in range(iterations):
        idx = np.nonzero(alive)[0]
        if idx.size == 0:
            break
        za = zs[idx]
        fv = fld.value_batch(za)
        res = np.abs(fv).sum(axis=1)
        good = np.isfinite(res)
        done = good & (res <= tol)
        converged[idx[done]] = True
        alive[idx[done]] = False
        alive[idx[~good]] = False
        work = good & ~done
        widx = idx[work]
        if widx.size == 0:
            continue
        jac = fld.jacobian_batch(zs[widx])
        dets = np.linalg.det(jac)
        solvable = np.isfinite(dets) & (np.abs(dets) > 1e-280)
        alive[widx[~solvable]] = False
        sidx = widx[solvable]
        if sidx.size == 0:
            continue
        try:
            steps = np.linalg.solve(
                jac[solvable], fv[work][solvable][..., None]
            )[..., 0]
        except np.linalg.LinAlgError:
            steps = np.empty((sidx.size, box.dim))
            js, fs = jac[solvable], fv[work][solvable]
            for i in range(sidx.size):
                try:
                    steps[i] = np.linalg.solve(js[i], fs[i])
                except np.linalg.LinAlgError:
                    steps[i] = np.nan
        znew = zs[sidx] - steps
        inside = (
            np.all(np.isfinite(znew), axis=1)
            & np.all(znew >= lo_big, axis=1)
            & np.all(znew <= hi_big, axis=1)
        )
        zs[sidx[inside]] = znew[inside]
        alive[sidx[~inside]] = False
    return zs[converged]


def find_zeros(system_or_field, box, grid_per_dim=16):
    """All zeros of the field in the box, deduplicated, with index data.

    Multistart Newton from a grid_per_dim^n grid of cell centers; converged
    points inside the box are merged at radius 1e-6 and each survivor gets
    an AD Jacobian, a degeneracy flag (det_sign at relative tolerance 1e-8)
    and, when nondegenerate, the Jacobian sign as its index. Points within
    1e-6 of the box boundary are flagged.
    """
    if grid_per_dim < 2:
        raise ValueError("grid_per_dim must be at least 2")
    fld = as_field(system_or_field)
    if fld.dim != box.dim:
        raise ValueError("field and box dimension mismatch")
    candidates = _newton_sweep(fld, box, _grid_starts(box, grid_per_dim))
    coarse = _dedup(
        candidates[box.contains_rows(candidates, slack=BOUNDARY_SLACK)], 1e-10
    )
    polished, errors = _polish_rows(fld, np.array(coarse).reshape(-1, fld.dim))
    if errors:
        raise errors[min(errors)]
    reps = _dedup(
        polished[box.contains_rows(polished, slack=BOUNDARY_SLACK)],
        DEDUP_RADIUS,
    )
    records = [_make_record(fld, box, z) for z in reps]
    records.sort(key=lambda r: tuple(r.point))
    return records


def _dedup(points, radius):
    """The rows of points at norm-1 distance > radius from every earlier
    kept row, in input order. A sweep over the first coordinate: a kept
    point within the radius lies within it in that coordinate too, so only
    the kept points in a window of sorted first coordinates are measured."""
    points = np.asarray(points, dtype=float)
    reps, keys, order = [], [], []  # kept points; their sorted x1, indices
    for z, x1 in zip(points, points[:, 0].tolist()):
        if math.isnan(x1):  # never within any radius; nothing to index
            reps.append(np.array(z, dtype=float))
            continue
        # 2 * radius covers the rounding of z[0] - r[0] against radius
        lo = bisect.bisect_left(keys, x1 - 2.0 * radius)
        hi = bisect.bisect_right(keys, x1 + 2.0 * radius)
        for i in order[lo:hi]:
            if norm1(z - reps[i]) <= radius:
                break
        else:
            at = bisect.bisect_right(keys, x1)
            keys.insert(at, x1)
            order.insert(at, len(reps))
            reps.append(np.array(z, dtype=float))
    return reps


def _polish_rows(fld, zs):
    """Sharpen converged candidates, the rows of zs, in lockstep.

    Degenerate zeros converge linearly, so each row keeps taking Newton
    steps while its residual still drops, for at most 60, and keeps the
    best point it met. A row stops at a zero residual, a singular
    Jacobian, or a non-finite or negligible step. Returns (best points,
    errors): errors maps each row whose field evaluation raises to its
    error. Rows are evaluated in the point arithmetic, with the point
    evaluation where that is not finite, so each row matches polishing
    it alone bit for bit.
    """
    z = np.array(zs, dtype=float)
    best = z.copy()
    best_res = np.zeros(len(z))
    errors = {}
    live = np.arange(len(z))
    for it in range(60):
        if not live.size:
            break
        fv, jac = fld.rows(z[live])

        def value(i):
            fv[i] = fld.value(z[live[i]])

        def jacobian(i):
            jac[i] = fld.jacobian(z[live[i]])

        sub = {}
        _at_point(np.flatnonzero(~_finite_rows(fv)), sub, value)
        res = norm1_rows(fv)
        if it == 0:
            best_res[live] = res
        better = res < best_res[live]
        best[live[better]] = z[live[better]]
        best_res[live[better]] = res[better]
        go = ~(res == 0.0)
        _at_point(np.flatnonzero(go & ~_finite_rows(fv, jac)), sub, jacobian)
        go[list(sub)] = False
        errors.update({int(live[i]): exc for i, exc in sub.items()})
        idx = np.flatnonzero(go)
        lu, piv, singular = lu_factor_rows(jac[idx])
        fine = np.ones(idx.size, dtype=bool)
        fine[list(singular)] = False
        step = lu_apply_rows(lu[fine], piv[fine], fv[idx[fine]])
        idx = idx[fine]
        fine = (np.isfinite(step).all(axis=1)
                & ~(norm1_rows(step) < 1e-15))
        live = live[idx[fine]]
        z[live] = z[live] - step[fine]
    return best, errors


def _make_record(fld, box, z):
    fv = fld.value(z)
    jac = fld.jacobian(z)
    sign, _ = det_sign(jac, tol=DEGENERATE_TOL)
    # a Jacobian at roundoff level is numerically zero no matter how its
    # entries compare to each other (multiple roots evaluate to ~1e-16)
    degenerate = sign == 0 or row_scale(jac) <= DEGENERATE_TOL
    pair = None
    if fld.k is not None and fld.s:
        try:
            d22, dschur = block_schur_det(jac, fld.k, fld.s)
            pair = (int(np.sign(d22)), int(np.sign(dschur)))
        except SingularMatrixError:
            pair = None
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
            + ", ".join(str(tuple(p)) for p in near)
        )
    bad = [z.point for z in zeros if z.degenerate]
    if bad:
        raise DegenerateZeroError(bad)
    return int(sum(z.index for z in zeros))


# ---------------------------------------------------------------------------
# Boundary oracle


def boundary_margin(system_or_field, box, samples_per_face=256):
    """min |F|_1 over quasi-random samples of every box face."""
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
        pts = sub.sample(samples_per_face, skip=37 + 11 * face_id)
        for side in (box.lo[d], box.hi[d]):
            full = np.empty((samples_per_face, n))
            full[:, others] = pts
            full[:, d] = side
            vals = fld.value_batch(full)
            margin = min(margin, float(np.min(np.abs(vals).sum(axis=1))))
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
                f"|F| = {m:.3e} at boundary point {tuple(z)}"
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
                    f"near {tuple(a + t0 * (b - a))}"
                )
            tm = 0.5 * (t0 + t1)
            stack.append((tm, t1))
            stack.append((t0, tm))
    w = total / (2.0 * math.pi)
    if abs(w - round(w)) > 1e-6:
        raise DaekitError(f"winding sum {w} is not an integer")
    return int(round(w))


def _perturbed_field(fld, c):
    """Shift the differential components of the field by the constant c."""
    k = fld.k if fld.k is not None else fld.dim
    new = []
    for i, e in enumerate(fld.exprs):
        if i < k:
            new.append(expr.c_add(e, expr.Const(float(c[i]))))
        else:
            new.append(e)
    return VectorField(new, fld.var_names, k=fld.k, s=fld.s)


def degree_boundary_oracle(system_or_field, box, grid_per_dim=16, rng=None):
    """Degree of the field over the box without trusting any single zero.

    dim 2: winding number along the boundary. dim >= 3: index summation on a
    slightly inflated box; degenerate zeros are resolved by shifting the
    differential components with three random constants of size 1e-5 and
    taking the majority vote.
    """
    fld = as_field(system_or_field)
    margin = boundary_margin(fld, box)
    if margin <= MIN_BOUNDARY_MARGIN:
        raise BoundaryZeroError(
            f"boundary margin {margin:.3e} too small for a degree"
        )
    if box.dim == 2:
        return _winding_number(fld, box)

    inflated = box.inflate(0.01, 1e-3)
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
            pfld = _perturbed_field(fld, c)
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
    return reduced_field_at(sys, z, linearize=True)[1]


def tangent_field_degree(sys, box=None, grid_per_dim=16, samples=512, rng=None):
    """Full degree report for a DAE system over a box.

    Validates the d2g hypothesis (raises on violation), finds the zeros of
    the flat map (f, g), computes its degree by signed summation (falling
    back to the boundary oracle when degenerate zeros block the sum) and
    reports the induced tangent-field degree sign(det d2g) * deg(f, g). In
    the plane the winding oracle is always recorded as a cross-check.
    """
    box = box or sys.box
    vr = validate(sys, samples=samples)
    fld = system_field(sys)
    zeros = find_zeros(fld, box, grid_per_dim)
    margin = boundary_margin(fld, box)
    oracle_deg = None
    try:
        deg_f = degree_sum(zeros, box)
    except DegenerateZeroError:
        deg_f = degree_boundary_oracle(fld, box, grid_per_dim, rng=rng)
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
    x_names = [f"x{i + 1}" for i in range(k)]
    y_names = [f"y{i + 1}" for i in range(k)]
    for i in range(k):
        if not (box.lo[k + i] < 0.0 < box.hi[k + i]):
            raise ValueError("the q = 0 slice must cut the box interior")
    zero_bind = {nm: 0.0 for nm in y_names}
    slice_exprs = [expr.substitute(e, zero_bind) for e in omega_exprs]
    slice_fld = VectorField(slice_exprs, x_names)
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
        lifted = VectorField([expr.Var("y1"), omega_exprs[0]], ["x1", "y1"])
        direct = _winding_number(lifted, box)
        if direct != result:
            raise DaekitError(
                f"slice reduction ({result}) disagrees with the planar "
                f"degree ({direct})"
            )
    return result


def _interval_degree(fld, box):
    """Degree of a scalar map on an interval: half the boundary sign change."""
    va = float(fld.value(np.array([box.lo[0]]))[0])
    vb = float(fld.value(np.array([box.hi[0]]))[0])
    if va == 0.0 or vb == 0.0:
        raise BoundaryZeroError("map vanishes at an interval endpoint")
    return int((np.sign(vb) - np.sign(va)) / 2)
