"""Time integration on the constraint manifold and time-T maps.

The integrator is a fixed-step classical Runge-Kutta method on the full
(x, y) system (the y-equation is the differentiated constraint, so the
manifold is invariant for the extended ODE) followed by a projection that
re-solves the constraint for y after every step. Fixed steps keep
trajectories deterministic, which makes shooting Jacobians and golden tests
reproducible.

Trajectories advance as the rows of one (N, k+s) array in lockstep: each RK4
stage is one batch evaluation of the f+g+h kernel and one batched
factorization of d2g for all rows, and the projection is one lockstep
Newton iteration. A row computes bit for bit what it would alone, and fails
alone: a row that leaves the box, drifts, or meets a singular or undefined
evaluation drops out with the error it would raise by itself, and the other
rows go on. A single trajectory is the one-row case.

Sensitivities of the time-T map are integrated from the variational equation
of the reduced system alongside the state (never by differencing); finite
differences survive only as a test oracle.
"""

from dataclasses import dataclass, field

import numpy as np

from .dae import (
    ManifoldPoint,
    constraint_rows,
    reduced_field,
    solve_constraint_rows,
)
from .degree import reduced_matrix
from .errors import DriftExceededError, LeavesBoxError
from .linalg import expm, norm1_rows

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
        return float(np.max(norm1_rows(zs - self.mean_state())))


@dataclass
class FlowResult:
    end: ManifoldPoint
    sensitivity: np.ndarray
    lambda_sensitivity: np.ndarray = None


@dataclass
class FlowRows:
    """Rows flowed in lockstep: for row i, its states ``zs[i]`` and their
    constraint residuals at ``times``, its drift and sensitivities, or the
    error ``errors[i]`` it raised (its other entries are then meaningless)."""

    times: np.ndarray
    lam: float
    k: int
    zs: np.ndarray
    residuals: np.ndarray
    drift: np.ndarray
    sensitivity: np.ndarray = None
    lambda_sensitivity: np.ndarray = None
    errors: dict = field(default_factory=dict)

    def check(self, i):
        if i in self.errors:
            raise self.errors[i]

    def _state(self, i, n):
        z = self.zs[i, n]
        return ManifoldPoint(z[: self.k].copy(), z[self.k :].copy(),
                             float(self.residuals[i, n]))

    def trajectory(self, i):
        self.check(i)
        states = [self._state(i, n) for n in range(len(self.times))]
        return Trajectory(self.times, states, self.lam, float(self.drift[i]))

    def result(self, i):
        self.check(i)
        vlam = self.lambda_sensitivity
        return FlowResult(
            end=self._state(i, -1),
            sensitivity=self.sensitivity[i].copy(),
            lambda_sensitivity=None if vlam is None else vlam[i].copy(),
        )


def _flow(sys, lam, z0, res0, t0, t1, steps, want_sensitivity=False,
          want_lambda=False, errors=None):
    """Projected RK4 flow of the rows z0 (N, k+s), residuals res0, in
    lockstep; rows listed in errors start out failed. Returns FlowRows."""
    errors = {} if errors is None else dict(errors)
    n_rows, k, n = len(z0), sys.k, sys.k + sys.s
    live = np.array([i for i in range(n_rows) if i not in errors], dtype=int)
    if lam < 0 or steps < 16:
        msg = "lambda must be >= 0" if lam < 0 else "at least 16 steps required"
        errors.update({int(i): ValueError(msg) for i in live})
        live, steps = live[:0], 0
    h_step = (t1 - t0) / steps if steps else 0.0
    times = t0 + h_step * np.arange(steps + 1)
    out = FlowRows(times, lam, k, np.full((n_rows, steps + 1, n), np.nan),
                   np.full((n_rows, steps + 1), np.nan), np.zeros(n_rows),
                   errors=errors)
    out.zs[:, 0] = z0
    out.residuals[:, 0] = res0
    # one row per live trajectory: the state, then the sensitivity (k*k)
    # and the lambda-sensitivity (k) when wanted
    kk = k * k if want_sensitivity else 0
    kl = k if want_lambda else 0
    y = np.zeros((live.size, n + kk + kl))
    y[:, :n] = z0[live]
    if kk:
        y[:, n : n + kk] = np.eye(k).ravel()
    drift = np.zeros(live.size)

    def drop(bad):
        """Record the errors of the live rows in bad (local index -> error)
        and remove them; returns the mask of kept rows."""
        nonlocal live, drift, y
        keep = np.ones(live.size, dtype=bool)
        for i, exc in bad.items():
            errors[int(live[i])] = exc
            keep[i] = False
        live, drift, y = live[keep], drift[keep], y[keep]
        return keep

    def deriv(t, y):
        zdot, a, hv, bad = reduced_field(sys, y[:, :n], t, lam,
                                         linearize=bool(kk or kl),
                                         with_h=bool(kl))
        parts = [zdot]
        if kk:
            phi = y[:, n : n + kk].reshape(-1, k, k)
            parts.append(np.matmul(a, phi).reshape(-1, kk))
        if kl:
            vlam = y[:, n + kk :, None]
            parts.append(np.matmul(a, vlam)[:, :, 0] + hv)
        return np.concatenate(parts, axis=1) if len(parts) > 1 else zdot, bad

    for step in range(steps):
        if not live.size:
            break
        t = times[step]
        half = 0.5 * h_step
        ks = []
        for ts, c in ((t, None), (t + half, half), (t + half, half),
                      (t + h_step, h_step)):
            d, bad = deriv(ts, y if c is None else y + c * ks[-1])
            if bad:
                keep = drop(bad)
                ks = [kd[keep] for kd in ks]
                d = d[keep]
            ks.append(d)
        k1, k2, k3, k4 = ks
        y = y + (h_step / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        z = y[:, :n]
        inside = sys.box.contains_rows(z)
        if not inside.all():
            drop({int(i): LeavesBoxError("trajectory left the working box",
                                         times[step + 1], state=z[i].copy())
                  for i in np.flatnonzero(~inside)})
            z = y[:, :n]
        if not live.size:
            break
        # the constraint residual the step left is the drift; the
        # projection starts from the same evaluation
        start = constraint_rows(sys, z[:, :k], z[:, k:])
        pre = norm1_rows(start[0])
        drift = np.where(pre > drift, pre, drift)
        q, rn, bad = solve_constraint_rows(sys, z[:, :k], z[:, k:], start)
        if bad:
            keep = drop(bad)
            q, rn = q[keep], rn[keep]
        y[:, k:n] = q
        out.zs[live, step + 1] = y[:, :n]
        out.residuals[live, step + 1] = rn
    for i in np.flatnonzero(drift > MAX_DRIFT):
        errors[int(live[i])] = DriftExceededError(
            f"constraint drift {drift[i]:.3e} exceeds {MAX_DRIFT}; "
            "increase the step count"
        )
    out.drift[live] = drift
    if kk:
        out.sensitivity = np.full((n_rows, k, k), np.nan)
        out.sensitivity[live] = y[:, n : n + kk].reshape(-1, k, k)
    if kl:
        out.lambda_sensitivity = np.full((n_rows, k), np.nan)
        out.lambda_sensitivity[live] = y[:, n + kk :]
    return out


def integrate(sys, lam, start, t0, t1, steps=DEFAULT_STEPS):
    """Projected RK4 trajectory of the (possibly perturbed) system."""
    rows = _flow(sys, lam, start.z[None], [start.residual], t0, t1, steps)
    return rows.trajectory(0)


def time_T_rows(sys, lam, p0, q_guess, steps=DEFAULT_STEPS,
                want_lambda_sensitivity=False):
    """time_T_map of every row of p0 (N, k), from q_guess (N, s), in lockstep.

    Returns FlowRows with the sensitivities; a failing row carries the
    error time_T_map raises for it alone, and the other rows go on.
    """
    p0 = np.asarray(p0, dtype=float)
    q0, res0, errors = solve_constraint_rows(sys, p0, q_guess)
    return _flow(sys, lam, np.hstack([p0, q0]), res0, 0.0, sys.period, steps,
                 want_sensitivity=True, want_lambda=want_lambda_sensitivity,
                 errors=errors)


def time_T_map(sys, lam, p0, q_guess, steps=DEFAULT_STEPS,
               want_lambda_sensitivity=False, record=False):
    """One period of flow from (p0, solve_constraint(p0, q_guess)).

    Returns a FlowResult whose ``sensitivity`` is the derivative of the final
    x with respect to the initial x along the constraint branch (variational
    equation of the reduced system, same step grid). With
    ``want_lambda_sensitivity`` the derivative with respect to lambda rides
    along too. ``record=True`` additionally returns the Trajectory.
    """
    rows = time_T_rows(sys, lam, np.asarray(p0, dtype=float)[None],
                       np.asarray(q_guess, dtype=float)[None], steps,
                       want_lambda_sensitivity)
    result = rows.result(0)
    if record:
        return result, rows.trajectory(0)
    return result


def monodromy(sys, zero):
    """exp(A T) with A the reduced linearization at a zero of (f, g)."""
    a = reduced_matrix(sys, zero.point)
    return expm(a * sys.period)
