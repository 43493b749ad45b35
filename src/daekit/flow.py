"""Time integration on the constraint manifold and time-T maps.

The integrator is a fixed-step classical Runge-Kutta method on the full
(x, y) system (the y-equation is the differentiated constraint, so the
manifold is invariant for the extended ODE) followed by a projection that
re-solves the constraint for y after every step. Fixed steps keep
trajectories deterministic, which makes shooting Jacobians and golden tests
reproducible.

Many trajectories are flowed as the rows of one (N, k+s) array, one row
after the other on Python floats: each RK4 stage is one call of the
system's emitted stage (dae._emit_stage: the f+g+h kernel, the LU of d2g
and the reduced-field algebra as straight-line code), and the projection is
solve_constraint's Newton on floats. A row fails alone: a row that leaves
the box, drifts, or meets a singular or undefined evaluation gets the error
it would raise by itself, and the other rows go on. A single trajectory is
the one-row case.

Sensitivities of the time-T map are integrated from the variational equation
of the reduced system alongside the state (never by differencing); finite
differences survive only as a test oracle.
"""

import functools
from dataclasses import dataclass, field

import numpy as np

from .dae import _ROW_ERRORS, ManifoldPoint, _solve_constraint_row
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
        return float(np.max(norm1_rows(zs - zs[:-1].mean(axis=0))))


@dataclass
class FlowResult:
    end: ManifoldPoint
    sensitivity: np.ndarray
    lambda_sensitivity: np.ndarray = None


@dataclass
class FlowRows:
    """Flowed rows: for row i, its states ``zs[i]`` and their
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


def _flow(sys, lam, z0, res0, t0, t1, steps, want_sensitivity=False,
          want_lambda=False, errors=None):
    """Projected RK4 flow of the rows z0 (N, k+s), residuals res0, one row
    after the other on floats; rows listed in errors start out failed.
    Returns FlowRows."""
    errors = {} if errors is None else dict(errors)
    n_rows, k, n = len(z0), sys.k, sys.k + sys.s
    rows = [i for i in range(n_rows) if i not in errors]
    if lam < 0 or steps < 16:
        msg = "lambda must be >= 0" if lam < 0 else "at least 16 steps required"
        errors.update({i: ValueError(msg) for i in rows})
        rows, steps = [], 0
    h_step = (t1 - t0) / steps if steps else 0.0
    times = t0 + h_step * np.arange(steps + 1)
    out = FlowRows(times, lam, k, np.full((n_rows, steps + 1, n), np.nan),
                   np.full((n_rows, steps + 1), np.nan), np.zeros(n_rows),
                   errors=errors)
    out.zs[:, 0] = z0
    out.residuals[:, 0] = res0
    # after the state, each row carries its sensitivity (k*k, row by row)
    # and its lambda-sensitivity (k) when wanted
    kk = k * k if want_sensitivity else 0
    extra = (tuple(np.eye(k).ravel().tolist()) if kk else ()) + (
        (0.0,) * k if want_lambda else ())
    if kk:
        out.sensitivity = np.full((n_rows, k, k), np.nan)
    if want_lambda:
        out.lambda_sensitivity = np.full((n_rows, k), np.nan)
    stage = sys._stage(sens=want_sensitivity, lsens=want_lambda,
                       use_h=lam != 0.0)
    rk4, project = _rk4(n + len(extra)), sys._constraint_step()
    lam, ts = float(lam), times.tolist()
    lo, hi = sys.box.lo.tolist(), sys.box.hi.tolist()

    def flow_row(y):
        zs, res, drift = [], [], 0.0
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
        return zs, res, drift, y

    for i in rows:
        try:
            zs, res, drift, y = flow_row(tuple(z0[i].tolist()) + extra)
        except _ROW_ERRORS as exc:
            errors[i] = exc
            continue
        if steps:
            out.zs[i, 1:] = zs
            out.residuals[i, 1:] = res
        out.drift[i] = drift
        if kk:
            out.sensitivity[i] = np.reshape(y[n:n + kk], (k, k))
        if want_lambda:
            out.lambda_sensitivity[i] = y[n + kk:]
        if drift > MAX_DRIFT:
            errors[i] = DriftExceededError(
                f"constraint drift {drift:.3e} exceeds {MAX_DRIFT}; "
                "increase the step count"
            )
    return out


def integrate(sys, lam, start, t0, t1, steps=DEFAULT_STEPS):
    """Projected RK4 trajectory of the (possibly perturbed) system."""
    rows = _flow(sys, lam, start.z[None], [start.residual], t0, t1, steps)
    return rows.trajectory(0)


def time_T_rows(sys, lam, p0, q_guess, steps=DEFAULT_STEPS,
                want_lambda_sensitivity=False):
    """time_T_map of every row of p0 (N, k), from q_guess (N, s).

    Returns FlowRows with the sensitivities; a failing row carries the
    error time_T_map raises for it alone, and the other rows go on.
    """
    p0 = np.asarray(p0, dtype=float)
    q0 = np.array(q_guess, dtype=float)
    res0 = np.full(len(p0), np.nan)
    errors = {}
    for i in range(len(p0)):
        try:
            q, res0[i] = _solve_constraint_row(sys, tuple(p0[i].tolist()),
                                               tuple(q0[i].tolist()))
        except _ROW_ERRORS as exc:
            errors[i] = exc
        else:
            q0[i] = q
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
