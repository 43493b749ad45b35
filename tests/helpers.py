"""Shared generators for randomized property tests (seeded, reproducible)
and the reference implementations kept as test oracles."""

import functools
import math

import numpy as np

from daekit import emit, expr
from daekit.dae import Box, ManifoldPoint, SystemDef, validate
from daekit.degree import (
    BOUNDARY_SLACK,
    DEDUP_RADIUS,
    SWEEP_ITERATIONS,
    SWEEP_TOL,
    VectorField,
    _first_seen,
    _grid_starts,
    _make_record,
    _newton_sweep,
    as_field,
    boundary_margin,
    find_zeros,
)
from daekit.errors import (
    ConstraintSolveError,
    DaekitError,
    DriftExceededError,
    ExprDomainError,
    LeavesBoxError,
    SingularMatrixError,
    point_text,
)
from daekit.flow import MAX_DRIFT, Trajectory, _rk4_point, _rk4_sum
from daekit.linalg import lu_solve, norm1, norm1_rows


def monomial(names, powers):
    out = expr.Const(1.0)
    for nm, p in zip(names, powers):
        out = expr.c_mul(out, expr.c_pow(expr.Var(nm), int(p)))
    return out


def random_poly(rng, names, max_degree=2, coeff_scale=1.0, n_terms=4):
    """Random polynomial tree with coefficients in [-coeff_scale, coeff_scale]."""
    n = len(names)
    out = expr.Const(0.0)
    for _ in range(n_terms):
        powers = rng.integers(0, max_degree + 1, size=n)
        while powers.sum() > max_degree:
            powers = rng.integers(0, max_degree + 1, size=n)
        c = float(rng.uniform(-coeff_scale, coeff_scale))
        out = expr.c_add(out, expr.c_mul(expr.Const(c), monomial(names, powers)))
    return out


def random_tree(rng, names, depth=3, exponents=(2, 3)):
    """Random expression over the full operator set (for AD/printing tests);
    powers draw their exponent from exponents."""
    if depth == 0 or rng.random() < 0.25:
        if rng.random() < 0.4:
            return expr.Const(float(rng.uniform(-3, 3)))
        return expr.Var(str(rng.choice(names)))
    roll = rng.random()
    if roll < 0.45:
        op = str(rng.choice(["+", "-", "*", "/"]))
        return expr.Binary(op, random_tree(rng, names, depth - 1, exponents),
                           random_tree(rng, names, depth - 1, exponents))
    if roll < 0.75:
        op = str(rng.choice(["neg", "sin", "cos", "exp", "ln", "sqrt"]))
        return expr.Unary(op, random_tree(rng, names, depth - 1, exponents))
    return expr.Power(random_tree(rng, names, depth - 1, exponents),
                      exponents[int(rng.integers(len(exponents)))])


def random_point(rng, names, lo=-2.0, hi=2.0):
    return {nm: float(rng.uniform(lo, hi)) for nm in names}


def usable_tree_and_point(rng, names, need_dual=False):
    """Tree plus a point where it (and optionally its derivative) is tame."""
    while True:
        tree = random_tree(rng, names)
        env = random_point(rng, names)
        try:
            v = expr.evaluate(tree, env)
            if not np.isfinite(v) or abs(v) > 1e6:
                continue
            if need_dual:
                seed = {nm: float(rng.uniform(-1, 1)) for nm in names}
                _, d = expr.evaluate_dual(tree, env, seed)
                if not np.isfinite(d) or abs(d) > 1e5:
                    continue
                return tree, env, seed
            return tree, env
        except DaekitError:
            continue


def random_system(rng, k, s, half_width=1.2):
    """Random polynomial DAE passing validation, all zeros nondegenerate.

    Coefficients stay inside [-2, 2]; each g_j keeps an own-variable linear
    term away from zero so rejection sampling terminates quickly.
    """
    names = [f"x{i + 1}" for i in range(k)] + [f"y{j + 1}" for j in range(s)]
    box = Box.from_pairs([(-half_width, half_width)] * (k + s))
    while True:
        f = [random_poly(rng, names, max_degree=2, coeff_scale=2.0) for _ in range(k)]
        g = []
        for j in range(s):
            a = float(rng.uniform(0.75, 2.0)) * (1 if rng.random() < 0.5 else -1)
            lead = expr.c_mul(expr.Const(a), expr.Var(f"y{j + 1}"))
            g.append(expr.c_add(lead, random_poly(rng, names, 2, 0.4)))
        sysdef = SystemDef(k, s, 2 * np.pi, f, g, None, box)
        try:
            validate(sysdef, samples=256)
        except DaekitError:
            continue
        try:
            zeros = find_zeros(sysdef, box, grid_per_dim=6)
        except DaekitError:
            continue
        if any(z.degenerate or z.near_boundary for z in zeros):
            continue
        return sysdef, zeros


def random_planar_map(rng, half_width=1.5):
    """Random 2-D polynomial map with nondegenerate zeros and safe boundary."""
    names = ["x1", "y1"]
    box = Box.from_pairs([(-half_width, half_width)] * 2)
    while True:
        fld = VectorField(
            [random_poly(rng, names, max_degree=3, coeff_scale=2.0, n_terms=5)
             for _ in range(2)],
            names,
        )
        try:
            if boundary_margin(fld, box) <= 1e-4:
                continue
            zeros = find_zeros(fld, box, grid_per_dim=8)
        except DaekitError:
            continue
        if any(z.degenerate or z.near_boundary for z in zeros):
            continue
        return fld, box, zeros


def same_bits(a, b):
    """Equal shapes and equal bits (signed zeros and nan payloads count)."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64),
                                                 b.view(np.uint64))


# -- reference implementations kept as test oracles -------------------------


def dense_dual_oracle(e, env, seed, ns=emit.POINT):
    """(value, derivative along seed) by dense forward mode, the dual walk
    the kernels did before they dropped structural zeros: every product
    with a 0.0 or 1.0 seed entry and with the 0.0 derivative of a constant
    is kept. With ns=emit.POINT it walks a point on floats with domain
    checks (an exp whose result is inf is an overflow); with
    ns=emit.BATCH it walks arrays with the batch kernel's functions and no
    checks. Like
    the kernels, it reads one value per node in value and derivative code,
    and x^0 is 1.0 without a look at its base."""
    point = ns is emit.POINT

    def fail(message, e):
        raise ExprDomainError(message, expr.to_string(e))

    def walk(e):  # (value, derivative)
        if isinstance(e, expr.Const):
            return e.value, 0.0
        if isinstance(e, expr.Var):
            v = float(env[e.name]) if point else env[e.name]
            return v, float(seed.get(e.name, 0.0))
        if isinstance(e, expr.Unary):
            v, d = walk(e.a)
            if e.op == "neg":
                return -v, -d
            if e.op == "sin":
                return ns["sin"](v), ns["cos"](v) * d
            if e.op == "cos":
                return ns["cos"](v), -ns["sin"](v) * d
            if e.op == "exp":
                ev = ns["exp"](v)
                if point and ev == math.inf:
                    fail("exp overflow", e)
                return ev, ev * d
            if e.op == "ln":
                if point and v <= 0.0:
                    fail(f"ln of nonpositive value {v}", e)
                return ns["log"](v), ns["div"](d, v)
            if point and (v < 0.0 or (v == 0.0 and d != 0.0)):
                fail(f"sqrt not differentiable at {v}", e)
            if point and v == 0.0:
                return ns["sqrt"](v), 0.0
            r = ns["sqrt"](v)
            return r, ns["div"](d, 2.0 * r)
        if isinstance(e, expr.Binary):
            (a, da), (b, db) = walk(e.a), walk(e.b)
            if e.op == "+":
                return a + b, da + db
            if e.op == "-":
                return a - b, da - db
            if e.op == "*":
                return a * b, a * db + da * b
            if point and b == 0.0:
                fail("division by zero", e)
            return ns["div"](a, b), ns["div"](da * b - a * db, b * b)
        if e.n == 0:
            return 1.0, 0.0
        v, d = walk(e.a)
        if point and e.n < 0 and v == 0.0:
            fail("zero base with negative exponent", e)
        if e.n == 1:
            return v, d
        return ns["pw"](v, e.n), e.n * ns["pw"](v, e.n - 1) * d

    return walk(e)


def lu_factor_oracle(a, rtol=1e-12):
    """The one-matrix partial-pivot LU linalg.lu_factor used to run:
    (lu, piv, swaps), or SingularMatrixError."""
    a = np.array(a, dtype=float)
    n = a.shape[0]
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


def lu_apply_oracle(lu, piv, b):
    """The substitution linalg.lu_apply used to run, with 1-D dot products."""
    x = np.array(b, dtype=float)[piv]
    n = lu.shape[0]
    for i in range(1, n):
        x[i] -= lu[i, :i] @ x[:i]
    for i in range(n - 1, -1, -1):
        x[i] = (x[i] - lu[i, i + 1 :] @ x[i + 1 :]) / lu[i, i]
    return x


def gauss_solve_oracle(a, b):
    """x solving a x = b by the elimination of linalg._solve_rows, on one
    matrix in plain Python floats (each - * / rounded once): the first
    largest |entry| of each column, in np.argmax's nan order, pivots; a
    zero pivot gives all nan; l = a[r][c] / a[c][c] updates a[r][j] and
    b[r] by one product and one difference each; back substitution goes
    column by column."""
    a, x = [[float(e) for e in row] for row in a], [float(e) for e in b]
    n = len(x)
    for c in range(n):
        p = c
        for r in range(c + 1, n):
            v, best = abs(a[r][c]), abs(a[p][c])
            if v > best or (v != v and best == best):
                p = r
        a[c], a[p], x[c], x[p] = a[p], a[c], x[p], x[c]
        piv = a[c][c]
        if piv == 0.0:
            return [math.nan] * n
        for r in range(c + 1, n):
            row, l = a[r], a[r][c] / piv
            for j in range(c + 1, n):
                row[j] = row[j] - l * a[c][j]
            x[r] = x[r] - l * x[c]
    for j in range(n - 1, -1, -1):
        x[j] = x[j] / a[j][j]
        for i in range(j):
            x[i] = x[i] - a[i][j] * x[j]
    return x


def gauss_solve_rows_oracle(a, b):
    """gauss_solve_oracle on each row of the stacks a (N, n, n) and b (N,
    n): an (N, n) array."""
    xs = list(map(gauss_solve_oracle, np.asarray(a).tolist(),
                  np.asarray(b).tolist()))
    return np.array(xs, dtype=float).reshape(np.shape(b))


def gauss_solve_stack_oracle(a, b):
    """gauss_solve_oracle's elimination on a row-major stack a (N, n, n)
    and b (N, n) at once: np.argmax picks the pivots, fancy indexing
    exchanges the rows, and rows that met a zero pivot end all nan."""
    a, x = np.array(a, dtype=float), np.array(b, dtype=float)
    rows, n = np.arange(len(x)), x.shape[1]
    zero = np.zeros(len(x), dtype=bool)
    with np.errstate(all="ignore"):
        for c in range(n):
            p = c + np.argmax(np.abs(a[:, c:, c]), axis=1)
            a[rows, c], a[rows, p] = a[rows, p], a[rows, c]
            x[rows, c], x[rows, p] = x[rows, p], x[rows, c]
            zero |= a[:, c, c] == 0.0
            l = a[:, c + 1:, c] / a[:, c, c, None]
            a[:, c + 1:, c + 1:] -= l[:, :, None] * a[:, c, None, c + 1:]
            x[:, c + 1:] -= l * x[:, c, None]
        for j in range(n - 1, -1, -1):
            x[:, j] /= a[:, j, j]
            x[:, :j] -= a[:, :j, j] * x[:, j, None]
    x[zero] = math.nan
    return x


def lu_factor_rows_oracle(a):
    """lu_factor_oracle on each matrix of the stack a (N, n, n): (lu, piv,
    failed), failed mapping the index of each rejected matrix to its
    SingularMatrixError, whose factors are nan."""
    a = np.asarray(a, dtype=float)
    lu, piv, failed = np.full(a.shape, np.nan), np.zeros(a.shape[:2], int), {}
    for i, m in enumerate(a):
        try:
            lu[i], piv[i], _ = lu_factor_oracle(m)
        except SingularMatrixError as exc:
            failed[i] = exc
    return lu, piv, failed


def lu_apply_rows_oracle(lu, piv, b):
    """lu_apply_oracle on each row: b is (N, n), or (N, n, m)."""
    return np.array([lu_apply_oracle(*row) for row in zip(lu, piv, b)],
                    dtype=float).reshape(np.shape(b))


def dedup_oracle(points, radius):
    """The O(N^2) first-seen clustering find_zeros used to run."""
    reps = []
    for z in points:
        for r in reps:
            if norm1(z - r) <= radius:
                break
        else:
            reps.append(np.array(z, dtype=float))
    return reps


def merge_orbits_oracle(orbits, radius):
    """The pairwise loop periodic.merge_orbits used to run over the state
    arrays of converged orbits: the indices of the orbits it kept."""
    kept = []
    for i, zs in enumerate(orbits):
        for j in kept:
            dist = float(np.max(np.abs(zs - orbits[j]).sum(axis=1)))
            if dist <= radius:
                break
        else:
            kept.append(i)
    return kept


def newton_sweep_oracle(fld, box, starts):
    """The masked sweep find_zeros used to run over the whole start grid,
    with a values pass and a Jacobian pass per step, each Newton step
    solved with gauss_solve_stack_oracle. Returns (converged points,
    counts): how many rows each drop path took ("residual" non-finite,
    "det" not finite or at most 1e-280, "box" a step leaving the box
    inflated by 5 widths, or not finite)."""
    counts = dict.fromkeys(("residual", "det", "box"), 0)
    zs = starts.astype(float).copy()
    n_pts = zs.shape[0]
    alive = np.ones(n_pts, dtype=bool)
    converged = np.zeros(n_pts, dtype=bool)
    lo_big = box.lo - 5.0 * box.width
    hi_big = box.hi + 5.0 * box.width
    for _ in range(SWEEP_ITERATIONS):
        idx = np.nonzero(alive)[0]
        if idx.size == 0:
            break
        za = zs[idx]
        fv = fld.value_batch(za)
        # summed as C-contiguous rows: pairwise from 8 entries on
        res = np.abs(np.ascontiguousarray(fv)).sum(axis=1)
        good = np.isfinite(res)
        done = good & (res <= SWEEP_TOL)
        converged[idx[done]] = True
        alive[idx[done]] = False
        alive[idx[~good]] = False
        counts["residual"] += int(np.sum(~good))
        work = good & ~done
        widx = idx[work]
        if widx.size == 0:
            continue
        jac = fld.jacobian_batch(zs[widx])[1]
        dets = np.linalg.det(jac)
        solvable = np.isfinite(dets) & (np.abs(dets) > 1e-280)
        alive[widx[~solvable]] = False
        counts["det"] += int(np.sum(~solvable))
        sidx = widx[solvable]
        if sidx.size == 0:
            continue
        steps = gauss_solve_stack_oracle(jac[solvable], fv[work][solvable])
        znew = zs[sidx] - steps
        inside = (
            np.all(np.isfinite(znew), axis=1)
            & np.all(znew >= lo_big, axis=1)
            & np.all(znew <= hi_big, axis=1)
        )
        zs[sidx[inside]] = znew[inside]
        alive[sidx[~inside]] = False
        counts["box"] += int(np.sum(~inside))
    return zs[converged], counts


def polish_oracle(fld, z):
    """The one-candidate polish find_zeros used to run: Newton steps while
    the residual still drops, keeping the best point."""
    z = np.array(z, dtype=float)
    best, best_res = z.copy(), norm1(fld.value(z))
    for _ in range(60):
        fv = fld.value(z)
        res = norm1(fv)
        if res < best_res:
            best, best_res = z.copy(), res
        if res == 0.0:
            break
        try:
            step = lu_solve(fld.jacobian(z), fv)
        except SingularMatrixError:
            break
        if not np.all(np.isfinite(step)) or norm1(step) < 1e-15:
            break
        z = z - step
    return best


def sweep_cloud(fld, box, grid_per_dim):
    """The sweep's points inside the box, merged first-seen at 1e-10: at a
    degenerate zero, a cloud of points a few 1e-6 wide that Newton reached
    linearly. find_zeros polishes only the heads of its DEDUP_RADIUS
    clusters (4 of the 204 points on exmults at grid 16);
    find_zeros_oracle and the polish tests take every point."""
    rows = _newton_sweep(fld, box, _grid_starts(box, grid_per_dim))
    rows = rows[box.contains_rows(rows, slack=BOUNDARY_SLACK)]
    return rows[_first_seen(rows, 1e-10)]


def find_zeros_oracle(system_or_field, box, grid_per_dim=16):
    """The zero rule find_zeros used to run: every point of sweep_cloud
    polished (polish_oracle), and the polished points inside the box
    merged first-seen at DEDUP_RADIUS. Records as find_zeros makes them,
    sorted by point."""
    fld = as_field(system_or_field)
    sys = system_or_field if isinstance(system_or_field, SystemDef) else None
    cand = sweep_cloud(fld, box, grid_per_dim)
    rows = np.array([polish_oracle(fld, z) for z in cand]).reshape(-1, fld.dim)
    rows = rows[box.contains_rows(rows, slack=BOUNDARY_SLACK)]
    records = [_make_record(fld, sys, box, z)
               for z in rows[_first_seen(rows, DEDUP_RADIUS)]]
    records.sort(key=lambda r: tuple(r.point))
    return records


# what the polish of one candidate can raise
POLISH_ERRORS = (DaekitError, ArithmeticError, ValueError)


def polish_rows(fld, zs):
    """The zero polish of find_zeros on each row of zs alone: (best
    points, errors), where errors maps each row whose polish raises to its
    error (and that row of best keeps its start)."""
    best = np.array(zs, dtype=float)
    errors = {}
    for r, z in enumerate(best.tolist()):
        try:
            best[r] = fld._polish(z)
        except POLISH_ERRORS as exc:
            errors[r] = exc
    return best, errors


def degen3():
    """The three-dimensional system whose only zero (the origin) is
    degenerate: x1' = x2, x2' = -x1^2 + y1 - x2, y1^3 + y1 - x1^3 = 0."""
    names = ["x1", "x2", "y1"]
    f = [expr.parse("x2", names), expr.parse("-x1^2 + y1 - x2", names)]
    g = [expr.parse("y1^3 + y1 - x1^3", names)]
    return SystemDef(2, 1, 2 * np.pi, f, g, None, Box.from_pairs([(-2, 2)] * 3))


def _finite_rows(*parts):
    """Rows whose entries in all the given (N, ...) arrays are finite."""
    ok = np.ones(len(parts[0]), dtype=bool)
    for a in parts:
        ok &= np.isfinite(a).all(axis=tuple(range(1, a.ndim)))
    return ok


def _at_point(rows, errors, call):
    """call(i) for every listed row without an error; a raise becomes that
    row's error. The oracles re-evaluate non-finite rows at their point
    with it."""
    for i in rows:
        i = int(i)
        if i not in errors:
            try:
                call(i)
            except Exception as exc:  # the row fails alone, with its error
                errors[i] = exc


def point_kernel_rows(kern, env):
    """The point function of kern run on every row of env in turn:
    (values (N, m), derivatives (N, m, n)), nan in every output of a row
    where it raises. Names whose env entry is not an array are shared by
    all rows."""
    fn = kern._fn(False)
    m, n = len(kern.exprs), len(kern.seeds)
    names = [nm for nm, v in env.items() if isinstance(v, np.ndarray)]
    point = dict(env)
    vs, ds = [], []
    for row in zip(*(env[nm].tolist() for nm in names)):
        point.update(zip(names, row))
        v, d = [0.0] * m, [0.0] * (m * n)
        try:
            fn(point, v, d)
        except (ValueError, ZeroDivisionError, OverflowError, KeyError):
            v, d = [math.nan] * m, [math.nan] * (m * n)
        vs.append(v)
        ds.append(d)
    return (np.array(vs, dtype=float).reshape(len(vs), m),
            np.array(ds, dtype=float).reshape(len(ds), m, n))


def rows_oracle(sys, exprs, z, t=None):
    """The rows evaluation SystemDef.rows used to run: (values (N, m),
    state Jacobians (N, m, k+s)) of the list exprs on every row of z, each
    the point kernel's, nan in every output of a row where it raises."""
    env = {nm: z[:, i] for i, nm in enumerate(sys.state_names)}
    env["t"] = math.nan if t is None else float(t)
    return point_kernel_rows(sys.kernel(exprs), env)


def constraint_rows_oracle(sys, p, q):
    """g and its state Jacobian on the rows (p, q), as dae.constraint_rows
    used to give them: (values, Jacobians, errors)."""
    r, jac = rows_oracle(sys, sys.g, np.hstack([p, q]))
    errors = {}
    if not math.isfinite(np.add.reduce(r, None)):
        def call(i):
            r[i] = sys.eval_g(sys.env(p[i], q[i]))

        _at_point(np.flatnonzero(~_finite_rows(r)), errors, call)
    return r, jac, errors


def solve_constraint_rows_oracle(sys, p, q_guess):
    """The lockstep constraint Newton dae.solve_constraint_rows used to run
    on numpy rows: (q, residuals, errors)."""
    p = np.asarray(p, dtype=float)
    q = np.array(q_guess, dtype=float)
    k, tol = sys.k, sys.constraint_tol
    r, jac, errors = constraint_rows_oracle(sys, p, q)
    errors = dict(errors)
    rn = norm1_rows(r)

    def factored(rows, r, jac, q):
        d2g = np.ascontiguousarray(jac[:, :, k:])

        def call(i):
            d2g[i] = sys.jac_rows(sys.g, sys.env(p[rows[i]], q[i]), sys.y_names)

        bad = {}
        if not math.isfinite(np.add.reduce(r, None) + np.add.reduce(jac, None)):
            _at_point(np.flatnonzero(~_finite_rows(r, jac)), bad, call)
        lu, piv, singular = lu_factor_rows_oracle(d2g)
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
        ok, lu, piv = factored(live, lr, ljac, lq)
        keep = ok & ~(lrn <= tol) if it == 0 else ok
        if not keep.all():
            live, lq, lr, ljac, lrn, lu, piv = (
                a[keep] for a in (live, lq, lr, ljac, lrn, lu, piv))
            if not live.size:
                break
        step = lu_apply_rows_oracle(lu, piv, lr)
        q_new = lq - step
        r_new, jac_new, bad = constraint_rows_oracle(sys, p[live], q_new)
        rn_new = norm1_rows(r_new)
        back = ~((rn_new < lrn) | (rn_new <= tol))
        back[list(bad)] = False
        t, b = 1.0, np.flatnonzero(back)
        for _ in range(11):
            if not b.size:
                break
            t *= 0.5
            q_try = lq[b] - t * step[b]
            r_try, jac_try, bad_b = constraint_rows_oracle(sys, p[live[b]], q_try)
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
            f"for p = {point_text(p[i])}"
        )
    return q, rn, errors


def constraint_step_oracle(sys, z):
    """(|g|_1, the Newton step [d2g]^-1 g) at the state z, a tuple of
    floats: g from eval_g, then d2g from jac_rows over y, then lu_solve."""
    env = sys.env(z[: sys.k], z[sys.k :])
    g = sys.eval_g(env)
    d2g = sys.jac_rows(sys.g, env, sys.y_names)
    return norm1(g), tuple(lu_solve(d2g, g).tolist())


def constraint_trial_oracle(sys, z):
    """|g|_1 at the state z from eval_g, summed left to right from 0.0."""
    return _sum_left(abs(v) for v in sys.eval_g(
        sys.env(z[: sys.k], z[sys.k :])).tolist())


def solve_constraint_oracle(sys, p, q, first=None, trace=None):
    """The constraint Newton dae.solve_constraint ran as a Python loop on
    floats before it was emitted: p and q are tuples, first the step at
    (p, q) (constraint_step_oracle) when the caller has it. A step is
    formed at the start, an already solved start included, and at each
    accepted iterate above tolerance; a trial is judged by its |g|_1 alone
    (constraint_trial_oracle); a step that does not lower the residual
    halves up to 11 times; at most 50 iterations. Returns (q, |g|_1).
    With a list trace, appends ("step",) before each step, ("trial", t)
    before each trial of q - t * step and ("residual", its |g|_1) after
    it."""
    def log(*entry):
        if trace is not None:
            trace.append(entry)

    tol = sys.constraint_tol
    if first is None:
        log("step")
        first = constraint_step_oracle(sys, p + q)
    rn, step = first
    if rn <= tol:
        return q, rn
    for it in range(50):
        if it:
            log("step")
            rn, step = constraint_step_oracle(sys, p + q)
        t = 1.0
        log("trial", t)
        q_new = tuple([a - b for a, b in zip(q, step)])
        rn_new = constraint_trial_oracle(sys, p + q_new)
        log("residual", rn_new)
        for _ in range(11):
            if rn_new < rn or rn_new <= tol:
                break
            t *= 0.5
            log("trial", t)
            q_new = tuple([a - t * b for a, b in zip(q, step)])
            rn_new = constraint_trial_oracle(sys, p + q_new)
            log("residual", rn_new)
        q, rn = q_new, rn_new
        if rn <= tol:
            return q, rn
    raise ConstraintSolveError(
        f"constraint Newton stalled at residual {rn:.3e} "
        f"for p = {point_text(p)}"
    )


def reduced_field_oracle(sys, z, t=None, lam=0.0, linearize=False,
                         forcing=False, with_h=False):
    """The numpy rows evaluation of the reduced field dae.reduced_field used
    to run: (zdot, A, hv, errors), with one batched factorization of d2g
    and stacked matrix products."""
    k, s = sys.k, sys.s
    z = np.asarray(z, dtype=float)
    vals, jac = rows_oracle(sys, sys.fgh, z, t)
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
            lu_factor_oracle(d2g)
            if linearize:
                jac[i, bb, :k], jac[i, bb, k:] = sys.blocks(base, env)
                if use_h:
                    jac[i, hb, :k], jac[i, hb, k:] = sys.blocks(sys.h, env)
            if late_h:
                vals[i, hb] = sys.eval_h(env)

        _at_point(np.flatnonzero(~_finite_rows(*checked)), errors, point)
    lu, piv, singular = lu_factor_rows_oracle(jac[:, gb, k:])
    for i, exc in singular.items():
        errors.setdefault(i, exc)
    w = vals[:, bb]
    if use_h:
        w = w + lam * vals[:, hb]
    d1g = jac[:, gb, :k]
    solved = lu_apply_rows_oracle(lu, piv,
                                  np.matmul(d1g, w[:, :, None])[:, :, 0])
    zdot = np.concatenate([w, -solved], axis=1)
    hv = vals[:, hb] if with_h else None
    if not linearize:
        return zdot, None, hv, errors
    x = lu_apply_rows_oracle(lu, piv, d1g)
    a = jac[:, bb, :k] - np.matmul(jac[:, bb, k:], x)
    if use_h:
        a = a + lam * (jac[:, hb, :k] - np.matmul(jac[:, hb, k:], x))
    return zdot, a, hv, errors


def _det_small_oracle(a):
    n = a.shape[0]
    if n == 1:
        return float(a[0, 0])
    if n == 2:
        return float(a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0])
    return float(np.linalg.det(a))


def _adjugate_oracle(a):
    n = a.shape[0]
    if n == 1:
        return np.array([[1.0]])
    adj = np.empty((n, n))
    for i in range(n):
        for j in range(n):
            minor = np.delete(np.delete(a, i, axis=0), j, axis=1)
            adj[j, i] = (-1.0) ** (i + j) * _det_small_oracle(minor)
    return adj


def _sum_left(terms):
    """The float sum of terms, left to right from 0.0."""
    total = 0.0
    for t in terms:
        total += t
    return total


def det_and_grad_oracle(sys, z):
    """The one-point det d2g and its gradient (Jacobi's formula) that
    validate used to evaluate per iterate, with the trace of adj @ da[m]
    summed left to right (sum_i of sum_j adj[i, j] * da[m, j, i])."""
    s, n = sys.s, sys.k + sys.s
    env = sys.env(z[: sys.k], z[sys.k :])
    kern = sys.kernel(sys.d2g_flat)
    a = kern.values(env).reshape(s, s)
    adj = _adjugate_oracle(a)
    da = np.ascontiguousarray(kern.dual(env)[1].reshape(s, s, n).transpose(2, 0, 1))
    grad = np.array([
        _sum_left(_sum_left(float(adj[i, j] * da[m, j, i]) for j in range(s))
                  for i in range(s))
        for m in range(n)])
    return _det_small_oracle(a), grad


def polish_det_minimum_oracle(sys, z0, iterations=100):
    """The one-start |det d2g| polish validate used to run: all iterations
    unless |det|, the gradient or the step vanishes."""
    z = sys.box.clip(np.array(z0, dtype=float))
    d, grad = det_and_grad_oracle(sys, z)
    best_z, best_d = z.copy(), abs(d)
    for _ in range(iterations):
        gg = _sum_left(float(g) * float(g) for g in grad)
        if abs(d) < 1e-14 or gg < 1e-30:
            break
        step = -d / gg * grad
        z = sys.box.clip(z + step)
        d, grad = det_and_grad_oracle(sys, z)
        if abs(d) < best_d:
            best_d, best_z = abs(d), z.copy()
        if norm1(step) < 1e-15:
            break
    return best_z, best_d


@functools.lru_cache(maxsize=None)
def forced_random_system(k, s):
    """random_system with a time-dependent forcing h added."""
    rng = np.random.default_rng(100 + 10 * k + s)
    base, _ = random_system(rng, k, s)
    h = [expr.c_add(random_poly(rng, base.state_names, 2, 1.0),
                    expr.Unary("cos", expr.Var("t"))) for _ in range(k)]
    return SystemDef(k, s, base.period, base.f, base.g, h, base.box)


def failing_system(k, s):
    """f1 = -sqrt(x1) + y1 fails for x1 < 0 (and its partial at x1 = 0),
    g1 = y1^3 - x1 * sqrt(x1 + 1) for x1 < -1 (its x1-partial at x1 = -1);
    d2g is singular where y1 = 0."""
    names = [f"x{i + 1}" for i in range(k)] + [f"y{j + 1}" for j in range(s)]
    f = [expr.parse("-sqrt(x1) + y1", names)]
    f += [expr.parse(f"x{i} - y{min(i, s)}", names) for i in range(2, k + 1)]
    g = [expr.parse("y1^3 - x1 * sqrt(x1 + 1)", names)]
    g += [expr.parse(f"y{j} - x1 * y1", names) for j in range(2, s + 1)]
    h = [expr.parse("cos(t) * x1", names + ["t"]) for _ in range(k)]
    return SystemDef(k, s, 2 * math.pi, f, g, h,
                     Box.from_pairs([(-2, 2)] * (k + s)))


@functools.lru_cache(maxsize=32)
def _rk4(m):
    """``rk4(stage, Y, t, h, lam)``: one classical RK4 step on m floats,
    calling stage(Y, t, lam) for the derivative, in the arithmetic of numpy
    on rows: y + c * k for the stage points, then
    y + (h / 6) * (k1 + 2 k2 + 2 k3 + k4). Emitted once per m; the step
    flow_oracle takes, in the order of the emitted flow loop's RK4 sum."""
    y = [f"Y{i}" for i in range(m)]
    ks = [[f"{c}{i}" for i in range(m)] for c in "ABCD"]
    return emit.function("def rk4(stage, Y, t, h, lam):", [
        "HALF = 0.5 * h",
        f"{', '.join(y)}, = Y",
        f"{', '.join(ks[0])}, = stage(Y, t, lam)",
        f"{', '.join(ks[1])}, = stage(({_rk4_point(y, 'HALF', ks[0])},), "
        "t + HALF, lam)",
        f"{', '.join(ks[2])}, = stage(({_rk4_point(y, 'HALF', ks[1])},), "
        "t + HALF, lam)",
        f"{', '.join(ks[3])}, = stage(({_rk4_point(y, 'h', ks[2])},), "
        "t + h, lam)",
        "H6 = h / 6.0",
        f"return ({_rk4_sum(y, ks)},)",
    ], {})


def flow_oracle(sys, lam, start, t0, t1, steps, want_sensitivity=False,
                want_lambda=False):
    """The step loop flow._flow ran in Python before it was emitted as one
    function: per step the generic RK4 step through the system's stage
    function, the box test, the constraint step at the new state (its
    |g|_1 is the drift) and solve_constraint_oracle from it. Same
    signature and Trajectory as flow._flow."""
    if not math.isfinite(lam):
        raise ValueError("lambda must be finite")
    if lam < 0:
        raise ValueError("lambda must be >= 0")
    if steps < 16:
        raise ValueError("at least 16 steps required")
    k, n = sys.k, sys.k + sys.s
    h_step = (t1 - t0) / steps
    times = t0 + h_step * np.arange(steps + 1)
    kk = k * k if want_sensitivity else 0
    extra = (tuple(np.eye(k).ravel().tolist()) if kk else ()) + (
        (0.0,) * k if want_lambda else ())
    stage = sys._stage(sens=want_sensitivity, lsens=want_lambda,
                       use_h=lam != 0.0)
    rk4 = _rk4(n + len(extra))
    lam, ts = float(lam), times.tolist()
    lo, hi = sys.box.lo.tolist(), sys.box.hi.tolist()
    y = tuple(start.z.tolist())
    zs, res, drift = [y], [start.residual], 0.0
    y += extra
    for step in range(steps):
        y = rk4(stage, y, ts[step], h_step, lam)
        z = y[:n]
        for v, a, b in zip(z, lo, hi):
            if not a <= v <= b:  # also false for nan
                raise LeavesBoxError("trajectory left the working box",
                                     times[step + 1], state=np.array(z))
        first = constraint_step_oracle(sys, z)
        if first[0] > drift:
            drift = first[0]
        q, rn = solve_constraint_oracle(sys, z[:k], z[k:], first)
        y = z[:k] + q + y[n:]
        zs.append(y[:n])
        res.append(rn)
    if drift > MAX_DRIFT:
        raise DriftExceededError(
            f"constraint drift {drift:.3e} exceeds {MAX_DRIFT}; "
            "increase the step count"
        )
    zs = np.array(zs)
    return Trajectory(
        times=times, zs=zs, residuals=res, lam=lam,
        max_constraint_drift=float(drift), start=start,
        end=ManifoldPoint(zs[-1, :k].copy(), zs[-1, k:].copy(),
                          float(res[-1])),
        sensitivity=np.reshape(y[n:n + kk], (k, k)) if kk else None,
        lambda_sensitivity=np.array(y[n + kk:]) if want_lambda else None,
    )
