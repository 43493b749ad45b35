"""Periodic solutions of the forced system: resonance, shooting, branches.

An equilibrium of the unforced system is called resonant (for the period T)
when its reduced linearization A has an eigenvalue 2*n*pi*i/T, equivalently
when exp(A T) - I is singular, which is how it is tested here (no
eigensolver needed). Non-resonant equilibria admit locally unique forced
periodic orbits; branches of those orbits are traced in (lambda, x(0)) by
pseudo-arclength continuation on the shooting residual, and a multistart
scan counts distinct orbits at a fixed forcing size. Every orbit found is
the flow's own record, the Trajectory of its time-T map: lambda, x(0)
(``start.p``), amplitude and shooting residual are read off it.

Two front ends reduce other problem classes to this setting: constrained
systems whose constraint depends on x only (differentiate it once along f),
and implicit equations phi(x, x' + lambda*h(t,x)) = 0 (introduce y = x' +
lambda*h).
"""

import math
from dataclasses import dataclass

import numpy as np

from . import expr
from .dae import SystemDef, validate
from .degree import (
    ZeroRecord,
    _first_seen,
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
    MatrixOverflowError,
    ShootingError,
    SingularMatrixError,
    SingularShootingError,
    point_text,
)
from .flow import DEFAULT_STEPS, time_T_map
from .linalg import (
    det_sign,
    expm,
    lu_apply,
    lu_factor,
    lu_solve,
    near_singular,
    norm1,
)

RESONANCE_TOL = 1e-8
SHOOT_TOL = 1e-8
SHOOT_MAX_ITER = 30
ORBIT_DEDUP = 1e-4
DS_START, DS_MIN, DS_MAX = 0.02, 1e-4, 0.1


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
class Branch:
    """A traced branch: its orbits (Trajectories, the trivial pair first),
    the arclength step that reached each (0.0 for the trivial pair), and
    why it ended."""

    points: list
    ds: list
    origin: ZeroRecord
    termination: str
    detail: str = ""


def classify_resonance(sys, zero):
    """Resonance verdict for a zero of (f, g) via the monodromy test.
    Raises MatrixOverflowError when e^{AT} or det(e^{AT} - I) is not
    finite."""
    a = reduced_matrix(sys, zero.point)
    mono = expm(a * sys.period)
    mi = mono - np.eye(sys.k)
    _, det_mi = det_sign(mi, tol=0.0)
    if not math.isfinite(det_mi):
        raise MatrixOverflowError("det(monodromy - I) overflowed")
    return ResonanceVerdict(
        zero=zero,
        linearization=a,
        monodromy=mono,
        det_mi=det_mi,
        resonant=near_singular(mi, RESONANCE_TOL),
    )


def shoot(sys, lam, p_guess, q_guess=None, steps=DEFAULT_STEPS):
    """Newton on the fixed-point equation P_lambda(p0) = p0 of the time-T map.

    Returns the converged orbit, the Trajectory of its last time-T map: its
    ``start.p`` is p0, its ``closure_residual`` the shooting residual. The
    Jacobian comes from the variational sensitivity of the map; it is
    factored on every iterate, so shooting at a resonant equilibrium fails
    with SingularShootingError even when the residual is already zero:
    such a fixed point is not certified locally unique.
    """
    if q_guess is None:
        q_guess = sys.box.center[sys.k :]
    eye = np.eye(sys.k)
    p = np.array(p_guess, dtype=float)
    q_ref = q_guess
    for _ in range(SHOOT_MAX_ITER):
        traj = time_T_map(sys, lam, p, q_ref, steps)
        r = traj.end.p - p
        res = norm1(r)
        try:
            lu, piv, _ = lu_factor(traj.sensitivity - eye)
        except SingularMatrixError as exc:
            raise SingularShootingError(
                f"shooting Jacobian dP - I singular at p0 = {point_text(p)}"
            ) from exc
        if res <= SHOOT_TOL:
            return traj
        p = p - lu_apply(lu, piv, r)
        q_ref = traj.start.q
    raise ShootingError(
        f"no convergence after {SHOOT_MAX_ITER} iterations "
        f"(last residual {res:.3e})"
    )


# what a shot may fail with, in a multistart start or a corrector step;
# anything else is raised
_START_FAILURES = (ShootingError, SingularShootingError, LeavesBoxError,
                   ConstraintSolveError, SingularMatrixError, ExprDomainError,
                   DriftExceededError)


# ---------------------------------------------------------------------------
# Pseudo-arclength continuation


def _trivial_tangent(sys, zero, steps):
    """The trivial pair at a zero of (f, g): its time-T map at lambda = 0
    with both sensitivities, S and v, and the x-part d = (I - S)^-1 v of
    the pseudo-arclength tangent [d, 1] there. p* + lambda * d is the
    first-order forced response near a non-resonant zero p*. Raises what
    the map or the solve raises."""
    k = sys.k
    traj = time_T_map(sys, 0.0, zero.point[:k], zero.point[k:], steps=steps,
                      want_lambda_sensitivity=True)
    d = lu_solve(traj.sensitivity - np.eye(k), -traj.lambda_sensitivity)
    return traj, d


def _corrector(sys, z_pred, tau, q_ref, steps):
    """Newton on (shooting residual, arclength hyperplane) from z_pred."""
    k = sys.k
    w = z_pred.copy()
    eye = np.eye(k)
    for it in range(12):
        if w[k] < 0.0:
            raise ShootingError("corrector left the lambda >= 0 half-space")
        traj = time_T_map(sys, w[k], w[:k], q_ref, steps=steps,
                          want_lambda_sensitivity=True)
        r = traj.end.p - w[:k]
        plane = float(tau @ (w - z_pred))
        jac = np.zeros((k + 1, k + 1))
        jac[:k, :k] = traj.sensitivity - eye
        jac[:k, k] = traj.lambda_sensitivity
        jac[k, :] = tau
        if norm1(r) <= SHOOT_TOL and abs(plane) <= 1e-10:
            return w, traj, jac, it
        w = w - lu_solve(jac, np.concatenate([r, [plane]]))
        q_ref = traj.start.q
    raise ShootingError("corrector did not converge")


def continue_branch(sys, origin, lambda_max, norm_bound, max_steps=200,
                    steps=DEFAULT_STEPS):
    """Trace the branch of forced periodic orbits rooted at a zero of (f, g).

    Starts at the trivial pair (lambda = 0, constant orbit at the origin
    zero), which requires the origin to be non-resonant so the branch is
    locally unique. Pseudo-arclength steps follow folds in lambda; the step
    starts at DS_START, halves when the corrector fails with a shot failure
    (_START_FAILURES, as in the multistart scan) and doubles after three
    easy accepts inside [DS_MIN, DS_MAX]. The points are the orbits'
    Trajectories, with the step of each in ``ds``. Termination is always
    reported, never inferred: a failure at DS_MIN ends the branch with
    LeftBox, DriftExceeded or SingularShooting after its error.
    """
    if not math.isfinite(lambda_max):
        raise ValueError("lambda_max must be finite")
    if lambda_max <= 0:
        raise ValueError("lambda_max must be positive")
    if not math.isfinite(norm_bound):
        raise ValueError("norm_bound must be finite")
    if norm_bound <= 0:
        raise ValueError("norm_bound must be positive")
    if max_steps < 1:
        raise ValueError("max_steps must be at least 1")
    if classify_resonance(sys, origin).resonant:
        raise BranchError(
            f"origin {point_text(origin.point)} is resonant; the branch is "
            "not locally unique there"
        )
    k = sys.k
    traj, d = _trivial_tangent(sys, origin, steps)
    points, ds_taken = [traj], [0.0]
    tau = np.concatenate([d, [1.0]])
    tau /= norm1(tau)
    z = np.concatenate([origin.point[:k], [0.0]])
    q_ref = origin.point[k:]
    ds, easy = DS_START, 0
    termination, detail = "MaxSteps", ""
    while len(points) <= max_steps:
        z_pred = z + ds * tau
        try:
            w, traj, jac, iters = _corrector(sys, z_pred, tau, q_ref, steps)
        except _START_FAILURES as exc:
            if ds > DS_MIN:
                ds = max(DS_MIN, 0.5 * ds)
                easy = 0
                continue
            if len(points) == 1:
                raise BranchError(
                    f"first corrector step failed: {exc}"
                ) from exc
            if isinstance(exc, LeavesBoxError):
                termination = "LeftBox"
            elif isinstance(exc, DriftExceededError):
                termination = "DriftExceeded"
            else:
                termination = "SingularShooting"
            detail = str(exc)
            break
        points.append(traj)
        ds_taken.append(ds)
        z = w
        q_ref = traj.start.q
        sup_norm = traj.sup_amplitude()
        if sup_norm > norm_bound:
            termination, detail = "ExceededNormBound", f"sup_norm {sup_norm:.3e}"
            break
        if traj.lam >= lambda_max:
            termination, detail = "ReachedLambdaMax", f"lambda {traj.lam:.6g}"
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
    return Branch(points=points, ds=ds_taken, origin=origin,
                  termination=termination, detail=detail)


# ---------------------------------------------------------------------------
# Multiplicity scan


def multistart_starts(sys, lam, grid_per_dim=8, steps=DEFAULT_STEPS):
    """The (p, q) starts of multiplicity_scan, in the order it shoots
    them: each zero of (f, g), followed when lam > 0 by its seed
    p* + lam * d where it is non-degenerate and non-resonant, then the grid
    over the x-projection of the box. d is the x-part of the branch's first
    tangent at the zero (_trivial_tangent on a time-T map of the given
    steps), so the seed is the point at lambda = lam on continue_branch's
    first predictor line. A zero whose resonance test, map or solve fails
    with a start-failure type gets no seed."""
    if grid_per_dim < 1:
        raise ValueError("grid_per_dim must be at least 1")
    k = sys.k
    q_center = sys.box.center[k:]
    starts = []
    for z in find_zeros(sys, sys.box, grid_per_dim=16):
        starts.append((z.point[:k].copy(), z.point[k:].copy()))
        if lam > 0 and not z.degenerate:
            try:
                if not classify_resonance(sys, z).resonant:
                    _, d = _trivial_tangent(sys, z, steps)
                    starts.append((z.point[:k] + lam * d, z.point[k:].copy()))
            except _START_FAILURES:
                pass
    for p in _grid_starts(sys.box.subbox(range(k)), grid_per_dim):
        starts.append((p, q_center.copy()))
    return starts


def multiplicity_scan(sys, lam, grid_per_dim=8, steps=DEFAULT_STEPS):
    """Distinct T-periodic orbits at forcing size lam, by multistart shooting.

    Starts come from a grid over the x-projection of the box, from the zeros
    of (f, g), and from a first-order forced-response seed at each
    non-resonant zero (grid points alone cannot hit the exponentially thin
    shooting basins around unstable equilibria). The seed is the branch's
    first predictor from that zero, p* + lam * (I - S)^-1 v, with S and v
    the x- and lambda-sensitivities of the time-T map at lambda = 0 on the
    scan's steps (multistart_starts). Each start is shot in turn; a start
    that fails with a start-failure type is skipped, and any other error
    is raised. The convergent orbits are clustered first-seen in start
    order (`_first_seen`): each is kept unless an earlier kept orbit lies
    within sampled sup-distance ORBIT_DEDUP (1e-4), so the result, a list
    of the kept orbits' Trajectories, is deterministic.
    """
    if not math.isfinite(lam):
        raise ValueError("lambda must be finite")
    if lam < 0:
        raise ValueError("lambda must be >= 0")
    orbits = []
    for p, q in multistart_starts(sys, lam, grid_per_dim, steps):
        try:
            orbits.append(shoot(sys, lam, p, q, steps))
        except _START_FAILURES:
            pass
    if not orbits:
        return []
    zs = np.stack([orbit.zs for orbit in orbits])
    return [orbits[i] for i in _first_seen(zs, ORBIT_DEDUP)]


# ---------------------------------------------------------------------------
# Problem reductions


def reduce_hessenberg(f_exprs, gamma_exprs, box, period=2 * np.pi,
                      h_exprs=None, samples=512):
    """Reduce x' = f(x,y), c(x) = 0 (constraint on x only) to standard form.

    Differentiating the constraint along the flow gives the algebraic
    equation g = dc/dx . f, whose y-Jacobian dc/dx . d2f must be invertible;
    that is checked by the standard box validation of the produced system.
    """
    sysdef = _hessenberg_system(f_exprs, gamma_exprs, box, period, h_exprs)
    validate(sysdef, samples=samples)
    return sysdef


def _hessenberg_system(f_exprs, gamma_exprs, box, period, h_exprs):
    """The system reduce_hessenberg produces, not yet validated."""
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
    return SystemDef(k, s, period, f_exprs, g_exprs, h_exprs, box)


def reduce_implicit(phi_exprs, h_exprs, period, box, grid_per_dim=16,
                    samples=512):
    """Reduce phi(x, x' + lambda*h(t,x)) = 0 to a semi-explicit system.

    Introduces y = x' + lambda*h, producing x' = y - lambda*h(t,x) with
    constraint phi(x, y) = 0. Returns the system together with the degree of
    (f, g) over the box, which equals minus the degree of phi(., 0) on the
    q = 0 slice.
    """
    sysdef = _implicit_system(phi_exprs, h_exprs, period, box)
    validate(sysdef, samples=samples)
    deg = degree_via_slice(sysdef.g, box, grid_per_dim=grid_per_dim)
    return sysdef, deg


def _implicit_system(phi_exprs, h_exprs, period, box):
    """The system reduce_implicit produces, not yet validated."""
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
    return SystemDef(k, k, period, f_exprs, phi_exprs, neg_h, box)
