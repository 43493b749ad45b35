"""Time integration on the constraint manifold and time-T maps.

The integrator is a fixed-step classical Runge-Kutta method on the full
(x, y) system (the y-equation is the differentiated constraint, so the
manifold is invariant for the extended ODE) followed by a projection that
re-solves the constraint for y after every step. Fixed steps keep
trajectories deterministic, which makes shooting Jacobians and golden tests
reproducible.

A trajectory is flowed on Python floats by one emitted function per
system and variant (_emit_flow), which holds the whole step loop: the
four RK4 stages inline on locals (each dae._stage_lines: the f+g+h kernel,
the LU of d2g and the reduced-field algebra as straight-line code), the
RK4 sum, the box test, and the projection's constraint step with its two
common exits (a residual already within tolerance, or one full Newton
step that reaches it). A stage whose kernel fails calls the system's
stage function, and any other projection solve_constraint's Newton on
floats, so a step in the common case makes no Python call. The
flow raises the first error it meets: leaving the box, a singular or
undefined evaluation, or (after the last step) too much constraint
drift.

Every flow returns one record, a Trajectory: the (steps+1, k+s) array of
projected states with their residuals, the start and end ManifoldPoints,
the largest drift, and the sensitivities when asked for. integrate and
time_T_map both return it, and shooting, branches and the multistart scan
return it as the orbit: lambda, x(0), amplitude and shooting residual of
an orbit are all read off its Trajectory.

Sensitivities of the time-T map are integrated from the variational equation
of the reduced system alongside the state (never by differencing); finite
differences survive only as a test oracle.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import emit
from .dae import (
    ManifoldPoint,
    _constraint_lines,
    _solve_constraint_row,
    _stage_lines,
)
from .errors import DriftExceededError, LeavesBoxError
from .linalg import norm1, norm1_rows

MAX_DRIFT = 1e-8
DEFAULT_STEPS = 512


@dataclass
class Trajectory:
    """One projected flow: the states ``zs`` at ``times`` (one row each,
    all projected back onto the constraint) with their constraint
    residuals, its start and end as ManifoldPoints, and the sensitivities
    of the end when asked for."""

    times: np.ndarray
    zs: np.ndarray
    residuals: list
    lam: float
    max_constraint_drift: float
    start: ManifoldPoint
    end: ManifoldPoint
    sensitivity: np.ndarray = None
    lambda_sensitivity: np.ndarray = None

    def mean_state(self):
        return self.zs[:-1].mean(axis=0)

    def sup_amplitude(self):
        """max_t |z(t) - mean|_1, the amplitude measure for orbits."""
        return float(np.max(norm1_rows(self.zs - self.mean_state())))

    @property
    def closure_residual(self):
        """|x(end) - x(start)|_1, the shooting residual of a time-T orbit."""
        return norm1(self.end.p - self.start.p)


def _rk4_point(ys, c, ks):
    """The RK4 stage point y + c * k over the locals ys and ks, as code."""
    return ", ".join(f"{a} + {c} * {b}" for a, b in zip(ys, ks))


def _rk4_sum(ys, ks):
    """The RK4 step y + (h / 6) * (k1 + 2 k2 + 2 k3 + k4) over the locals
    ys and the four stages' locals ks, with h / 6 in H6, as code."""
    return ", ".join(f"{ys[i]} + H6 * ({ks[0][i]} + 2 * {ks[1][i]} + "
                     f"2 * {ks[2][i]} + {ks[3][i]})" for i in range(len(ys)))


def _emit_flow(sys, sens, lsens, use_h):
    """``flow(Y, TIMES, H, lam, ZS, RES)``: _flow's step loop as one
    emitted function; returns (the largest drift, the end of Y after the
    state: Phi and v).

    Y holds the projected start, then Phi row by row when sens, then v
    when lsens; the loop takes one step from each of TIMES but the last,
    of size H, and appends each projected state (a tuple) to ZS and its
    residual to RES. A step runs the four RK4 stages on locals, each the
    stage of dae._stage_lines (the fgh kernel, its guard and the algebra)
    or, where the kernel raises or the guard sum is not finite, a call of
    the system's stage function of the variant for that stage only. Then
    the RK4 sum, the box test (false on nan), which raises LeavesBoxError
    at the step's end time, and the projection: the g kernel and the
    constraint step of dae._constraint_lines, whose |g|_1 is the step's
    drift. A singular d2g raises; a residual within constraint_tol keeps
    q; else q - step is kept if its |g|_1 (values only) is within it. Any
    other projection runs _solve_constraint_row from the first step, which
    is the constraint step function's where the g kernel raised or the
    guard sum is not finite: its fallback on the state alone, which forms
    |g|_1 and the step from the point evaluations of g and d2g or raises
    their error. The kernels' constants come from the system's one table
    (SystemDef._point_code)."""
    k, n = sys.k, sys.k + sys.s
    inputs, guarded, alg, out = _stage_lines(sys, False, sens, lsens, False,
                                             use_h)
    kernel, vs, ders, calg = _constraint_lines(
        sys, "raise singular({p}, TOL, {col})")
    values = sys._point_code("U")
    m, us = len(inputs), [f"U{j}" for j in range(sys.s)]
    ys = [f"S{i}" for i in range(m)]
    ks = [[f"K{c}{i}" for i in range(m)] for c in "ABCD"]
    bounds, box = emit.box_bounds(sys.box)
    tup = emit.tup
    z, p, q = tup(ys[:n]), tup(ys[:k]), tup(ys[k:n])
    points = [(", ".join(ys), "TA"),
              (_rk4_point(ys, "HALF", ks[0]), "TA + HALF"),
              (_rk4_point(ys, "HALF", ks[1]), "TA + HALF"),
              (_rk4_point(ys, "H", ks[2]), "TA + H")]
    step = ["TA = TS[STEP]"]
    for (point, time), kc in zip(points, ks):
        step += [f"{tup(inputs)} = {point},", f"t = {time}"] + guarded
        step += ["if FED:"] + emit.indent(alg + [f"{tup(kc)} = {tup(out)}"])
        step += ["else:", f"    {tup(kc)} = stage(({tup(inputs)}), t, lam)"]
    step += [f"{tup(ys)} = {_rk4_sum(ys, ks)},", "if not ({}):".format(
        " and ".join(f"LO{i} <= {y} <= HI{i}" for i, y in enumerate(ys[:n])))]
    step += ["    raise LeavesBoxError('trajectory left the working box', "
             f"TIMES[STEP + 1], state=array(({z})))"]
    step += [f"{tup(sys.state_names)} = {z}"] + emit.guarded(kernel, vs + ders)
    newton = [f"{tup(sys.y_names)} = "
              + tup(f"{a} - {b}" for a, b in zip(ys[k:n], vs))]
    newton += emit.guarded(values, us) + [
        "if FED:",
        f"    RM = {emit.norm_code(us)}",
        "    FED = RM <= CTOL",
        "if FED:",
        f"    {q} = {tup(sys.y_names)}",
        "    RESIDUAL = RM",
        "else:",
        f"    ({q}), RESIDUAL = solve_row(({p}), ({q}), (RN, ({tup(vs)})))"]
    step += ["if FED:"] + emit.indent(calg + [
        "if RN > DRIFT:",
        "    DRIFT = RN",
        "if RN <= CTOL:",
        "    RESIDUAL = RN",
        "else:"] + emit.indent(newton))
    step += ["else:",
             f"    FIRST = project(({z}))",
             "    if FIRST[0] > DRIFT:",
             "        DRIFT = FIRST[0]",
             f"    ({q}), RESIDUAL = solve_row(({p}), ({q}), FIRST)",
             f"ZS.append(({z}))",
             "RES.append(RESIDUAL)"]
    body = emit.unpack(ys, "Y") + bounds + [
        "TS = TIMES.tolist()", "HALF = 0.5 * H", "H6 = H / 6.0", "DRIFT = 0.0",
        "for STEP in range(len(TS) - 1):"]
    body += emit.indent(step) + [f"return DRIFT, ({tup(ys[n:])})"]

    def stage(Y, t, lam):  # compiled on the first stage that needs it
        return sys._stage(sens=sens, lsens=lsens, use_h=use_h)(Y, t, lam)

    return emit.function("def flow(Y, TIMES, H, lam, ZS, RES):", body, {
        **emit.STAGE, **sys._consts, **box, "stage": stage,
        "project": sys._constraint_step(),
        "solve_row": functools.partial(_solve_constraint_row, sys),
        "LeavesBoxError": LeavesBoxError, "array": np.array,
        "CTOL": sys.constraint_tol})


def _flow(sys, lam, start, t0, t1, steps, want_sensitivity=False,
          want_lambda=False):
    """Projected RK4 flow from the ManifoldPoint start, on floats: the
    system's emitted step loop of the variant (_emit_flow), emitted on
    first use and kept on the instance. Returns the Trajectory; raises the
    first error the flow meets."""
    if not math.isfinite(lam):
        raise ValueError("lambda must be finite")
    if lam < 0:
        raise ValueError("lambda must be >= 0")
    if steps < 16:
        raise ValueError("at least 16 steps required")
    k, n = sys.k, sys.k + sys.s
    h_step = (t1 - t0) / steps
    times = t0 + h_step * np.arange(steps + 1)
    # after the state, y carries the sensitivity (k*k, row by row) and the
    # lambda-sensitivity (k) when wanted
    kk = k * k if want_sensitivity else 0
    extra = (tuple(np.eye(k).ravel().tolist()) if kk else ()) + (
        (0.0,) * k if want_lambda else ())
    key = ("flow", bool(want_sensitivity), bool(want_lambda), bool(lam != 0.0))
    if key not in sys._stages:
        sys._stages[key] = _emit_flow(sys, *key[1:])
    y = tuple(start.z.tolist())
    zs, res = [y], [start.residual]
    drift, extra = sys._stages[key](y + extra, times, h_step, float(lam),
                                    zs, res)
    if drift > MAX_DRIFT:
        raise DriftExceededError(
            f"constraint drift {drift:.3e} exceeds {MAX_DRIFT}; "
            "increase the step count"
        )
    zs = np.array(zs)
    return Trajectory(
        times=times, zs=zs, residuals=res, lam=float(lam),
        max_constraint_drift=float(drift), start=start,
        end=ManifoldPoint(zs[-1, :k].copy(), zs[-1, k:].copy(),
                          float(res[-1])),
        sensitivity=np.reshape(extra[:kk], (k, k)) if kk else None,
        lambda_sensitivity=np.array(extra[kk:]) if want_lambda else None,
    )


def integrate(sys, lam, start, t0, t1, steps=DEFAULT_STEPS):
    """Projected RK4 trajectory of the (possibly perturbed) system."""
    return _flow(sys, lam, start, t0, t1, steps)


def time_T_map(sys, lam, p0, q_guess, steps=DEFAULT_STEPS,
               want_lambda_sensitivity=False):
    """One period of flow from (p0, solve_constraint(p0, q_guess)).

    Returns the Trajectory of that flow, as integrate does; its ``start`` is
    the projected start and its ``sensitivity`` the derivative of the final
    x with respect to the initial x along the constraint branch (variational
    equation of the reduced system, same step grid). With
    ``want_lambda_sensitivity`` the derivative with respect to lambda rides
    along too.
    """
    p0 = np.array(p0, dtype=float)
    q0 = tuple(np.asarray(q_guess, dtype=float).tolist())
    q, rn = _solve_constraint_row(sys, tuple(p0.tolist()), q0)
    start = ManifoldPoint(p0, np.array(q), float(rn))
    return _flow(sys, lam, start, 0.0, sys.period, steps,
                 want_sensitivity=True, want_lambda=want_lambda_sensitivity)
