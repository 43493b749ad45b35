"""Periodic solutions of the forced system: resonance, shooting, branches.

An equilibrium of the unforced system is called resonant (for the period T)
when its reduced linearization A has an eigenvalue 2*n*pi*i/T, equivalently
when exp(A T) - I is singular, which is how it is tested here (no
eigensolver needed). Non-resonant equilibria admit locally unique forced
periodic orbits; branches of those orbits are traced in (lambda, x(0)) by
pseudo-arclength continuation on the shooting residual, and a multistart
scan counts distinct orbits at a fixed forcing size.

Two front ends reduce other problem classes to this setting: constrained
systems whose constraint depends on x only (differentiate it once along f),
and implicit equations phi(x, x' + lambda*h(t,x)) = 0 (introduce y = x' +
lambda*h).
"""

from dataclasses import dataclass

import numpy as np

from . import expr
from .dae import SystemDef, validate
from .degree import (
    ZeroRecord,
    _grid_starts,
    degree_via_slice,
    find_zeros,
    reduced_matrix,
)
from .errors import (
    BranchError,
    ConstraintSolveError,
    DriftExceededError,
    ExprDomainError,
    LeavesBoxError,
    ShootingError,
    SingularMatrixError,
    SingularShootingError,
)
from .flow import DEFAULT_STEPS, time_T_map, time_T_rows
from .linalg import (
    det_sign,
    expm,
    lu_apply_rows,
    lu_factor_rows,
    lu_solve,
    near_singular,
    norm1,
    norm1_rows,
)

RESONANCE_TOL = 1e-8
SHOOT_TOL = 1e-8
SHOOT_MAX_ITER = 30
ORBIT_DEDUP = 1e-4
DS_MIN, DS_MAX = 1e-4, 0.1


@dataclass
class ResonanceVerdict:
    zero: ZeroRecord
    linearization: np.ndarray
    monodromy: np.ndarray
    det_mi: float
    resonant: bool

    @property
    def verdict(self):
        return "Resonant" if self.resonant else "NonResonant"


@dataclass
class BranchPoint:
    """One T-periodic orbit of the lambda-forced system."""

    lam: float
    p0: np.ndarray
    orbit: object  # Trajectory
    sup_norm: float
    shooting_residual: float
    ds: float = 0.0


@dataclass
class Branch:
    points: list
    origin: ZeroRecord
    termination: str
    detail: str = ""


def classify_resonance(sys, zero):
    """Resonance verdict for a zero of (f, g) via the monodromy test."""
    a = reduced_matrix(sys, zero.point)
    mono = expm(a * sys.period)
    mi = mono - np.eye(sys.k)
    _, det_mi = det_sign(mi, tol=0.0)
    return ResonanceVerdict(
        zero=zero,
        linearization=a,
        monodromy=mono,
        det_mi=det_mi,
        resonant=near_singular(mi, RESONANCE_TOL),
    )


def shoot(sys, lam, p_guess, q_guess=None, steps=DEFAULT_STEPS):
    """Newton on the fixed-point equation P_lambda(p0) = p0 of the time-T map.

    The Jacobian comes from the variational sensitivity of the map; it is
    factored on every iterate, so shooting at a resonant equilibrium fails
    with SingularShootingError even when the residual is already zero:
    such a fixed point is not certified locally unique.
    """
    if q_guess is None:
        q_guess = sys.box.center[sys.k :]
    out = shoot_rows(sys, lam, np.asarray(p_guess, dtype=float)[None],
                     np.asarray(q_guess, dtype=float)[None], steps)[0]
    if isinstance(out, Exception):
        raise out
    return out


def shoot_rows(sys, lam, p_guess, q_guess, steps=DEFAULT_STEPS):
    """shoot from every row of p_guess (N, k), q_guess (N, s) at once.

    All rows iterate in one Newton loop on lockstep time-T maps; a row
    leaves the loop when it converges or fails. Returns one entry per row:
    the BranchPoint shoot returns from it alone, or the error it raises.
    """
    k = sys.k
    p = np.array(p_guess, dtype=float)
    q_ref = np.array(q_guess, dtype=float)
    out = [None] * len(p)
    residual = np.full(len(p), np.inf)
    live = np.arange(len(p))
    for _ in range(SHOOT_MAX_ITER):
        if not live.size:
            break
        rows = time_T_rows(sys, lam, p[live], q_ref[live], steps)
        keep = np.ones(live.size, dtype=bool)
        for i, exc in rows.errors.items():
            out[live[i]], keep[i] = exc, False
        r = rows.zs[:, -1, :k] - p[live]
        res = norm1_rows(r)
        lu, piv, singular = lu_factor_rows(rows.sensitivity - np.eye(k))
        for i, exc in singular.items():
            if keep[i]:
                err = SingularShootingError(
                    f"shooting Jacobian dP - I singular at p0 = "
                    f"{tuple(p[live[i]])}"
                )
                err.__cause__ = exc
                out[live[i]], keep[i] = err, False
        step = lu_apply_rows(lu, piv, r)
        for i in np.flatnonzero(keep & (res <= SHOOT_TOL)):
            traj = rows.trajectory(i)
            out[live[i]], keep[i] = BranchPoint(
                lam=float(lam),
                p0=p[live[i]].copy(),
                orbit=traj,
                sup_norm=traj.sup_amplitude(),
                shooting_residual=float(res[i]),
            ), False
        residual[live] = res
        live, step, start = live[keep], step[keep], rows.zs[keep, 0, k:]
        p[live] = p[live] - step
        q_ref[live] = start
    for i in live:
        out[i] = ShootingError(
            f"no convergence after {SHOOT_MAX_ITER} iterations "
            f"(last residual {residual[i]:.3e})"
        )
    return out


# ---------------------------------------------------------------------------
# Pseudo-arclength continuation


def _corrector(sys, z_pred, tau, q_ref, steps):
    """Newton on (shooting residual, arclength hyperplane) from z_pred."""
    k = sys.k
    w = z_pred.copy()
    eye = np.eye(k)
    for it in range(12):
        if w[k] < 0.0:
            raise ShootingError("corrector left the lambda >= 0 half-space")
        result, traj = time_T_map(
            sys, w[k], w[:k], q_ref, steps=steps,
            want_lambda_sensitivity=True, record=True,
        )
        r = result.end.p - w[:k]
        plane = float(tau @ (w - z_pred))
        jac = np.zeros((k + 1, k + 1))
        jac[:k, :k] = result.sensitivity - eye
        jac[:k, k] = result.lambda_sensitivity
        jac[k, :] = tau
        if norm1(r) <= SHOOT_TOL and abs(plane) <= 1e-10:
            return w, traj, norm1(r), jac, it
        w = w - lu_solve(jac, np.concatenate([r, [plane]]))
        q_ref = traj.states[0].q
    raise ShootingError("corrector did not converge")


def continue_branch(sys, origin, lambda_max, norm_bound, max_steps=200,
                    steps=DEFAULT_STEPS, ds=0.02):
    """Trace the branch of forced periodic orbits rooted at a zero of (f, g).

    Starts at the trivial pair (lambda = 0, constant orbit at the origin
    zero), which requires the origin to be non-resonant so the branch is
    locally unique. Pseudo-arclength steps follow folds in lambda; the step
    halves on corrector failure and doubles after three easy accepts inside
    [1e-4, 0.1]. Termination is always reported, never inferred.
    """
    if lambda_max <= 0:
        raise ValueError("lambda_max must be positive")
    if classify_resonance(sys, origin).resonant:
        raise BranchError(
            f"origin {tuple(origin.point)} is resonant; the branch is not "
            "locally unique there"
        )
    k = sys.k
    p_star = origin.point[:k].copy()
    q_star = origin.point[k:].copy()
    result, traj = time_T_map(
        sys, 0.0, p_star, q_star, steps=steps,
        want_lambda_sensitivity=True, record=True,
    )
    r0 = norm1(result.end.p - p_star)
    points = [
        BranchPoint(0.0, p_star, traj, traj.sup_amplitude(), r0, ds=0.0)
    ]
    jac_s = result.sensitivity - np.eye(k)
    tau = np.concatenate([lu_solve(jac_s, -result.lambda_sensitivity), [1.0]])
    tau /= norm1(tau)
    z = np.concatenate([p_star, [0.0]])
    q_ref = q_star
    easy = 0
    termination, detail = "MaxSteps", ""
    first_step = True
    step_count = 0
    while step_count < max_steps:
        z_pred = z + ds * tau
        try:
            w, traj, res, jac, iters = _corrector(sys, z_pred, tau, q_ref, steps)
        except (ShootingError, SingularMatrixError, SingularShootingError,
                LeavesBoxError, ConstraintSolveError) as exc:
            if ds > DS_MIN:
                ds = max(DS_MIN, 0.5 * ds)
                easy = 0
                continue
            if first_step:
                raise BranchError(
                    f"first corrector step failed: {exc}"
                ) from exc
            if isinstance(exc, LeavesBoxError):
                termination, detail = "LeftBox", str(exc)
            else:
                termination, detail = "SingularShooting", str(exc)
            break
        first_step = False
        step_count += 1
        bp = BranchPoint(
            lam=float(w[k]),
            p0=w[:k].copy(),
            orbit=traj,
            sup_norm=traj.sup_amplitude(),
            shooting_residual=res,
            ds=ds,
        )
        points.append(bp)
        z = w
        q_ref = traj.states[0].q
        if bp.sup_norm > norm_bound:
            termination, detail = "ExceededNormBound", f"sup_norm {bp.sup_norm:.3e}"
            break
        if bp.lam >= lambda_max:
            termination, detail = "ReachedLambdaMax", f"lambda {bp.lam:.6g}"
            break
        try:
            tau_new = lu_solve(jac, np.concatenate([np.zeros(k), [1.0]]))
        except SingularMatrixError:
            termination, detail = "SingularShooting", "tangent system singular"
            break
        tau_new /= norm1(tau_new)
        if float(tau_new @ tau) < 0:
            tau_new = -tau_new
        tau = tau_new
        easy = easy + 1 if iters <= 3 else 0
        if easy >= 3:
            ds = min(DS_MAX, 2.0 * ds)
            easy = 0
    return Branch(points=points, origin=origin, termination=termination,
                  detail=detail)


# ---------------------------------------------------------------------------
# Multiplicity scan


def _linear_response_seed(sys, zero, lam, steps=256):
    """First-order initial state of the forced orbit near a non-resonant zero.

    Integrates u' = A u + lambda*h(t, zero) over one period from zero and
    solves (I - e^{AT}) u0 = u(T); the forced orbit starts at p0 + u0 up to
    O(lambda^2).
    """
    k = sys.k
    a = reduced_matrix(sys, zero.point)
    mono = expm(a * sys.period)
    mi = np.eye(k) - mono
    p_star, q_star = zero.point[:k], zero.point[k:]
    h_step = sys.period / steps
    u = np.zeros(k)

    def du(t, u):
        env = sys.env(p_star, q_star, t=t)
        return a @ u + lam * sys.eval_h(env)

    for n in range(steps):
        t = n * h_step
        k1 = du(t, u)
        k2 = du(t + 0.5 * h_step, u + 0.5 * h_step * k1)
        k3 = du(t + 0.5 * h_step, u + 0.5 * h_step * k2)
        k4 = du(t + h_step, u + h_step * k3)
        u = u + (h_step / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    return p_star + lu_solve(mi, u)


def multistart_starts(sys, lam, grid_per_dim=8, zeros=None):
    """The (p, q) starts of multiplicity_scan, in merge order."""
    k = sys.k
    q_center = sys.box.center[k:]
    if zeros is None:
        zeros = find_zeros(sys, sys.box, grid_per_dim=16)
    starts = []
    for z in zeros:
        starts.append((z.point[:k].copy(), z.point[k:].copy()))
        if lam > 0 and not z.degenerate:
            try:
                verdict = classify_resonance(sys, z)
                if not verdict.resonant:
                    seed = _linear_response_seed(sys, z, lam)
                    starts.append((seed, z.point[k:].copy()))
            except SingularMatrixError:
                pass
    for p in _grid_starts(sys.box.subbox(range(k)), grid_per_dim):
        starts.append((p, q_center.copy()))
    return starts


# what a multistart start may fail with; anything else is raised
_START_FAILURES = (ShootingError, SingularShootingError, LeavesBoxError,
                   ConstraintSolveError, SingularMatrixError, ExprDomainError,
                   DriftExceededError)


def merge_orbits(shots):
    """Distinct orbits among shoot results in order: each is kept unless
    an earlier kept orbit lies within sampled sup-distance ORBIT_DEDUP.
    Failed starts are skipped; an error not of a start-failure type is
    raised (the first one, as shooting the starts in order would)."""
    orbits = []
    for bp in shots:
        if isinstance(bp, _START_FAILURES):
            continue
        if isinstance(bp, Exception):
            raise bp
        arr = bp.orbit.array()
        for kept in orbits:
            dist = float(np.max(np.abs(arr - kept.orbit.array()).sum(axis=1)))
            if dist <= ORBIT_DEDUP:
                break
        else:
            orbits.append(bp)
    return orbits


def multiplicity_scan(sys, lam, grid_per_dim=8, steps=DEFAULT_STEPS,
                      zeros=None):
    """Distinct T-periodic orbits at forcing size lam, by multistart shooting.

    Starts come from a grid over the x-projection of the box, from the zeros
    of (f, g), and from a first-order forced-response offset at each
    non-resonant zero (grid points alone cannot hit the exponentially thin
    shooting basins around unstable equilibria). All starts are shot as
    rows of one lockstep Newton loop. Convergent orbits are deduplicated at
    sampled sup-distance 1e-4; merge order is start order, so the result
    is deterministic.
    """
    if lam < 0:
        raise ValueError("lambda must be >= 0")
    starts = multistart_starts(sys, lam, grid_per_dim, zeros)
    if not starts:
        return []
    p, q = (np.array([st[i] for st in starts]) for i in (0, 1))
    return merge_orbits(shoot_rows(sys, lam, p, q, steps))


# ---------------------------------------------------------------------------
# Problem reductions


def reduce_hessenberg(f_exprs, gamma_exprs, box, period=2 * np.pi,
                      h_exprs=None, samples=512, name=""):
    """Reduce x' = f(x,y), c(x) = 0 (constraint on x only) to standard form.

    Differentiating the constraint along the flow gives the algebraic
    equation g = dc/dx . f, whose y-Jacobian dc/dx . d2f must be invertible;
    that is checked by the standard box validation of the produced system.
    """
    k, s = len(f_exprs), len(gamma_exprs)
    x_names = [f"x{i + 1}" for i in range(k)]
    for gamma in gamma_exprs:
        extra = expr.variables(gamma) - set(x_names)
        if extra:
            raise ValueError(
                f"constraint must depend on x only; found {sorted(extra)}"
            )
    g_exprs = []
    for gamma in gamma_exprs:
        total = expr.Const(0.0)
        for j, xj in enumerate(x_names):
            total = expr.c_add(
                total, expr.c_mul(expr.symbolic_diff(gamma, xj), f_exprs[j])
            )
        g_exprs.append(total)
    sysdef = SystemDef(k, s, period, f_exprs, g_exprs, h_exprs, box,
                       name=name)
    validate(sysdef, samples=samples)
    return sysdef


def reduce_implicit(phi_exprs, h_exprs, period, box, grid_per_dim=16,
                    samples=512, name=""):
    """Reduce phi(x, x' + lambda*h(t,x)) = 0 to a semi-explicit system.

    Introduces y = x' + lambda*h, producing x' = y - lambda*h(t,x) with
    constraint phi(x, y) = 0. Returns the system together with the degree of
    (f, g) over the box, which equals minus the degree of phi(., 0) on the
    q = 0 slice.
    """
    k = len(phi_exprs)
    x_names = [f"x{i + 1}" for i in range(k)]
    if h_exprs is None:
        h_exprs = [expr.Const(0.0) for _ in range(k)]
    for h in h_exprs:
        extra = expr.variables(h) - set(x_names) - {"t"}
        if extra:
            raise ValueError(
                f"forcing of an implicit equation may use t and x only; "
                f"found {sorted(extra)}"
            )
    f_exprs = [expr.Var(f"y{i + 1}") for i in range(k)]
    neg_h = [expr.c_neg(h) for h in h_exprs]
    sysdef = SystemDef(k, k, period, f_exprs, phi_exprs, neg_h, box, name=name)
    validate(sysdef, samples=samples)
    deg = degree_via_slice(phi_exprs, box, grid_per_dim=grid_per_dim)
    return sysdef, deg
