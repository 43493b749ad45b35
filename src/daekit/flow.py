"""Time integration on the constraint manifold and time-T maps.

The integrator is a fixed-step classical Runge-Kutta method on the full
(x, y) system (the y-equation is the differentiated constraint, so the
manifold is invariant for the extended ODE) followed by a projection that
re-solves the constraint for y after every step. Fixed steps keep
trajectories deterministic, which makes shooting Jacobians and golden tests
reproducible.

A trajectory is flowed on Python floats: each RK4 stage is one call of the
system's emitted stage (dae._emit_stage: the f+g+h kernel, the LU of d2g
and the reduced-field algebra as straight-line code), and the projection is
solve_constraint's Newton on floats. The flow raises the first error it
meets: leaving the box, a singular or undefined evaluation, or (after the
last step) too much constraint drift.

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

from .dae import ManifoldPoint, _solve_constraint_row
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


def _rk4_source(m):
    """Code of one classical RK4 step on m floats, calling stage(Y, t, lam)
    for the derivative, in the arithmetic of numpy on rows: y + c * k for
    the stage points, then y + (h / 6) * (k1 + 2 k2 + 2 k3 + k4)."""
    y = [f"Y{i}" for i in range(m)]

    def at(c, ks):
        return f"({''.join(f'{a} + {c} * {b}, ' for a, b in zip(y, ks))})"

    ks = [[f"{c}{i}" for i in range(m)] for c in "ABCD"]
    return "\n    ".join([
        "def rk4(stage, Y, t, h, lam):",
        "half = 0.5 * h",
        f"{', '.join(y)}, = Y",
        f"{', '.join(ks[0])}, = stage(Y, t, lam)",
        f"{', '.join(ks[1])}, = stage({at('half', ks[0])}, t + half, lam)",
        f"{', '.join(ks[2])}, = stage({at('half', ks[1])}, t + half, lam)",
        f"{', '.join(ks[3])}, = stage({at('h', ks[2])}, t + h, lam)",
        "h6 = h / 6.0",
        "return (" + "".join(f"{y[i]} + h6 * ({ks[0][i]} + 2 * {ks[1][i]} + "
                             f"2 * {ks[2][i]} + {ks[3][i]}), " for i in range(m))
        + ")",
    ])


@functools.lru_cache(maxsize=32)
def _rk4(m):
    """The RK4 step on m floats (_rk4_source), compiled once per m."""
    namespace = {}
    exec(compile(_rk4_source(m), "<daekit rk4>", "exec"), namespace)
    return namespace["rk4"]


def _flow(sys, lam, start, t0, t1, steps, want_sensitivity=False,
          want_lambda=False):
    """Projected RK4 flow from the ManifoldPoint start, on floats. Returns
    the Trajectory; raises the first error the flow meets."""
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
    stage = sys._stage(sens=want_sensitivity, lsens=want_lambda,
                       use_h=lam != 0.0)
    rk4, project = _rk4(n + len(extra)), sys._constraint_step()
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
        # the constraint residual the step left is the drift; the
        # projection starts from the same evaluation
        first = project(z)
        if first[0] > drift:
            drift = first[0]
        q, rn = _solve_constraint_row(sys, z[:k], z[k:], first)
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
