"""Time integration on the constraint manifold and time-T maps.

The integrator is a fixed-step classical Runge-Kutta method on the full
(x, y) system (the y-equation is the differentiated constraint, so the
manifold is invariant for the extended ODE) followed by a projection that
re-solves the constraint for y after every step. Fixed steps keep
trajectories deterministic, which makes shooting Jacobians and golden tests
reproducible.

Sensitivities of the time-T map are integrated from the variational equation
of the reduced system alongside the state (never by differencing); finite
differences survive only as a test oracle.
"""

from dataclasses import dataclass

import numpy as np

from .dae import ManifoldPoint, reduced_field, solve_constraint
from .degree import reduced_matrix
from .errors import DriftExceededError, LeavesBoxError
from .linalg import expm, norm1

MAX_DRIFT = 1e-8
DEFAULT_STEPS = 512


@dataclass
class Trajectory:
    """States at uniform times, all projected back onto the constraint."""

    times: np.ndarray
    states: list
    lam: float
    max_constraint_drift: float

    def array(self):
        return np.vstack([mp.z for mp in self.states])

    def mean_state(self):
        return self.array()[:-1].mean(axis=0)

    def sup_amplitude(self):
        """max_t |z(t) - mean|_1, the amplitude measure for orbits."""
        zs = self.array()
        return float(np.max(np.abs(zs - self.mean_state()).sum(axis=1)))


@dataclass
class FlowResult:
    end: ManifoldPoint
    sensitivity: np.ndarray
    lambda_sensitivity: np.ndarray = None


def _flow(sys, lam, start, t0, t1, steps, want_sensitivity=False,
          want_lambda=False, record=True):
    if lam < 0:
        raise ValueError("lambda must be >= 0")
    if steps < 16:
        raise ValueError("at least 16 steps required")
    k = sys.k
    h_step = (t1 - t0) / steps
    z = start.z.copy()
    phi = np.eye(k) if want_sensitivity else None
    vlam = np.zeros(k) if want_lambda else None
    times = t0 + h_step * np.arange(steps + 1)
    states = [ManifoldPoint(start.p.copy(), start.q.copy(), start.residual)]
    drift = 0.0
    want_var = want_sensitivity or want_lambda

    def deriv(t, z, phi, vlam):
        env = sys.env(z[:k], z[k:], t=t)
        zdot, a = reduced_field(sys, env, lam, linearize=want_var)
        pdot = a @ phi if want_sensitivity else None
        vdot = a @ vlam + sys.eval_h(env) if want_lambda else None
        return zdot, pdot, vdot

    for n in range(steps):
        t = times[n]
        k1 = deriv(t, z, phi, vlam)
        k2 = deriv(
            t + 0.5 * h_step,
            z + 0.5 * h_step * k1[0],
            None if phi is None else phi + 0.5 * h_step * k1[1],
            None if vlam is None else vlam + 0.5 * h_step * k1[2],
        )
        k3 = deriv(
            t + 0.5 * h_step,
            z + 0.5 * h_step * k2[0],
            None if phi is None else phi + 0.5 * h_step * k2[1],
            None if vlam is None else vlam + 0.5 * h_step * k2[2],
        )
        k4 = deriv(
            t + h_step,
            z + h_step * k3[0],
            None if phi is None else phi + h_step * k3[1],
            None if vlam is None else vlam + h_step * k3[2],
        )
        z = z + (h_step / 6.0) * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0])
        if want_sensitivity:
            phi = phi + (h_step / 6.0) * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1])
        if want_lambda:
            vlam = vlam + (h_step / 6.0) * (k1[2] + 2 * k2[2] + 2 * k3[2] + k4[2])
        if not np.all(np.isfinite(z)) or not sys.box.contains(z, slack=0.0):
            raise LeavesBoxError(
                "trajectory left the working box", times[n + 1], state=z
            )
        pre = norm1(sys.eval_g(sys.env(z[:k], z[k:])))
        drift = max(drift, pre)
        mp = solve_constraint(sys, z[:k], z[k:])
        z = mp.z
        states.append(mp)
    if drift > MAX_DRIFT:
        raise DriftExceededError(
            f"constraint drift {drift:.3e} exceeds {MAX_DRIFT}; "
            "increase the step count"
        )
    traj = Trajectory(times, states, lam, drift) if record else None
    return traj, states[-1], phi, vlam


def integrate(sys, lam, start, t0, t1, steps=DEFAULT_STEPS):
    """Projected RK4 trajectory of the (possibly perturbed) system."""
    traj, _, _, _ = _flow(sys, lam, start, t0, t1, steps)
    return traj


def time_T_map(sys, lam, p0, q_guess, steps=DEFAULT_STEPS,
               want_lambda_sensitivity=False, record=False):
    """One period of flow from (p0, solve_constraint(p0, q_guess)).

    Returns a FlowResult whose ``sensitivity`` is the derivative of the final
    x with respect to the initial x along the constraint branch (variational
    equation of the reduced system, same step grid). With
    ``want_lambda_sensitivity`` the derivative with respect to lambda rides
    along too. ``record=True`` additionally returns the Trajectory.
    """
    start = solve_constraint(sys, np.asarray(p0, dtype=float), q_guess)
    traj, end, phi, vlam = _flow(
        sys, lam, start, 0.0, sys.period, steps,
        want_sensitivity=True, want_lambda=want_lambda_sensitivity,
        record=record,
    )
    result = FlowResult(end=end, sensitivity=phi, lambda_sensitivity=vlam)
    if record:
        return result, traj
    return result


def monodromy(sys, zero):
    """exp(A T) with A the reduced linearization at a zero of (f, g)."""
    a = reduced_matrix(sys, zero.point)
    return expm(a * sys.period)
