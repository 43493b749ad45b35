"""Shared generators for randomized property tests (seeded, reproducible)
and the reference implementations kept as test oracles."""

import numpy as np

from daekit import expr
from daekit.dae import Box, SystemDef, validate
from daekit.degree import VectorField, boundary_margin, find_zeros
from daekit.errors import DaekitError, SingularMatrixError
from daekit.linalg import lu_solve, norm1


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


def random_tree(rng, names, depth=3):
    """Random expression over the full operator set (for AD/printing tests)."""
    if depth == 0 or rng.random() < 0.25:
        if rng.random() < 0.4:
            return expr.Const(float(rng.uniform(-3, 3)))
        return expr.Var(str(rng.choice(names)))
    roll = rng.random()
    if roll < 0.45:
        op = str(rng.choice(["+", "-", "*", "/"]))
        return expr.Binary(op, random_tree(rng, names, depth - 1),
                           random_tree(rng, names, depth - 1))
    if roll < 0.75:
        op = str(rng.choice(["neg", "sin", "cos", "exp", "ln", "sqrt"]))
        return expr.Unary(op, random_tree(rng, names, depth - 1))
    return expr.Power(random_tree(rng, names, depth - 1),
                      int(rng.integers(2, 4)))


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
                d = expr.evaluate_dual(tree, env, seed).derivative
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


# -- reference implementations kept as test oracles -------------------------


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


def degen3():
    """The three-dimensional system whose only zero (the origin) is
    degenerate: x1' = x2, x2' = -x1^2 + y1 - x2, y1^3 + y1 - x1^3 = 0."""
    names = ["x1", "x2", "y1"]
    f = [expr.parse("x2", names), expr.parse("-x1^2 + y1 - x2", names)]
    g = [expr.parse("y1^3 + y1 - x1^3", names)]
    return SystemDef(2, 1, 2 * np.pi, f, g, None, Box.from_pairs([(-2, 2)] * 3))
