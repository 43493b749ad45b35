"""Command-line front end: machine-readable reports, plot-ready CSV files.

Exit codes: 0 success, 2 when the d2g-invertibility hypothesis fails on the
system's box, 1 for every other error (a toolkit error, a bad argument value
the library rejects with ValueError, or an i/o error), reported as one line
on stderr. Reports are JSON with all numbers at full double precision; given
the same inputs and --seed they are byte-identical run to run.
"""

import argparse
import functools
import json
import sys as _sys

import numpy as np

from . import degree as degree_mod
from . import expr, periodic, sysfile
from .dae import validate
from .errors import DaekitError, HypothesisViolationError

FMT = "%.17g"


class _Parser(argparse.ArgumentParser):
    # usage problems are "other errors" (exit 1); 2 is reserved for the
    # hypothesis violation
    def error(self, message):
        self.print_usage(_sys.stderr)
        _sys.stderr.write(f"error: {message}\n")
        raise SystemExit(1)


def _jsonable(obj):
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    return obj


def _emit(report, out_path):
    text = json.dumps(_jsonable(report), indent=2) + "\n"
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        _sys.stdout.write(text)


def _num(v):
    return FMT % float(v)


def write_trajectory_csv(traj, path):
    """CSV with columns t, x1..xk, y1..ys, residual (17 significant digits)."""
    k, s = len(traj.start.p), len(traj.start.q)
    header = (
        ["t"]
        + [f"x{i + 1}" for i in range(k)]
        + [f"y{i + 1}" for i in range(s)]
        + ["residual"]
    )
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for t, z, r in zip(traj.times, traj.zs, traj.residuals):
            row = [_num(t)] + [_num(v) for v in z] + [_num(r)]
            fh.write(",".join(row) + "\n")


def write_branch_csv(branch, path):
    """CSV with step, lambda, p0, sup_norm, residual; termination on last row."""
    k = len(branch.points[0].start.p)
    header = (
        ["step", "lambda"]
        + [f"p0_{i + 1}" for i in range(k)]
        + ["sup_norm", "shooting_residual", "termination"]
    )
    last = len(branch.points) - 1
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for i, orbit in enumerate(branch.points):
            row = [str(i), _num(orbit.lam)]
            row += [_num(v) for v in orbit.start.p]
            row += [_num(orbit.sup_amplitude()), _num(orbit.closure_residual)]
            row.append(branch.termination if i == last else "")
            fh.write(",".join(row) + "\n")


def _zero_dict(z):
    return {
        "point": z.point,
        "residual": z.residual,
        "index": z.index,
        "degenerate": z.degenerate,
        "schur_sign_pair": z.schur_sign_pair,
        "near_boundary": z.near_boundary,
    }


def _orbit_dict(orbit):
    return {
        "lambda": orbit.lam,
        "p0": orbit.start.p,
        "sup_norm": orbit.sup_amplitude(),
        "shooting_residual": orbit.closure_residual,
    }


def _parse_vector(text, what, size):
    try:
        vec = np.array([float(v) for v in text.split(",")])
    except ValueError:
        raise DaekitError(f"bad {what} '{text}'; expected comma-separated numbers")
    if not np.isfinite(vec).all():
        raise DaekitError(f"bad {what} '{text}'; expected finite numbers")
    if len(vec) != size:
        raise DaekitError(f"bad {what} '{text}'; expected {size} numbers, "
                          f"got {len(vec)}")
    return vec


def _validation_dict(report):
    return {
        "ok": report.ok,
        "samples": report.samples,
        "sign_d2g": report.sign,
        "min_abs_det": report.min_abs_det,
        "min_location": report.min_location,
        "refined_min_abs_det": report.refined_min_abs_det,
        "refined_location": report.refined_location,
        "witness": report.witness,
        "message": report.message,
    }


def _cmd_check(args):
    sysdef = sysfile.load_system(args.system)
    report = validate(sysdef, samples=args.samples)
    _emit({"command": "check", "system": args.system,
           **_validation_dict(report)}, args.out)
    return 0


def _cmd_zeros(args):
    sysdef = sysfile.load_system(args.system)
    zeros = degree_mod.find_zeros(sysdef, sysdef.box, grid_per_dim=args.grid)
    _emit(
        {
            "command": "zeros",
            "system": args.system,
            "grid": args.grid,
            "zeros": [_zero_dict(z) for z in zeros],
        },
        args.out,
    )
    return 0


def _cmd_degree(args):
    sysdef = sysfile.load_system(args.system)
    rng = np.random.default_rng(args.seed)
    report = degree_mod.tangent_field_degree(
        sysdef, grid_per_dim=args.grid, samples=args.samples, rng=rng
    )
    _emit(
        {
            "command": "degree",
            "system": args.system,
            "grid": args.grid,
            "seed": args.seed,
            "box": [[lo, hi] for lo, hi in zip(report.box.lo, report.box.hi)],
            "zeros": [_zero_dict(z) for z in report.zeros],
            "deg_F": report.deg_f,
            "sign_d2g": report.sign_d2g,
            "deg_Psi": report.deg_psi,
            "oracle_deg": report.oracle_deg,
            "oracle_agrees": report.oracle_agrees,
            "boundary_margin": report.boundary_margin,
        },
        args.out,
    )
    return 0


def _cmd_resonance(args):
    sysdef = sysfile.load_system(args.system)
    validate(sysdef)
    zeros = degree_mod.find_zeros(sysdef, sysdef.box, grid_per_dim=args.grid)
    verdicts = []
    for z in zeros:
        v = periodic.classify_resonance(sysdef, z)
        verdicts.append(
            {
                "point": z.point,
                "verdict": v.verdict,
                "det_MI": v.det_mi,
                "linearization": v.linearization,
                "monodromy": v.monodromy,
            }
        )
    _emit(
        {"command": "resonance", "system": args.system, "period": sysdef.period,
         "verdicts": verdicts},
        args.out,
    )
    return 0


def _first_nonresonant(sysdef, zeros):
    """The first nondegenerate, non-resonant zero of the list, or None."""
    for z in zeros:
        if not z.degenerate and not periodic.classify_resonance(
            sysdef, z
        ).resonant:
            return z
    return None


def _cmd_shoot(args):
    sysdef = sysfile.load_system(args.system)
    validate(sysdef)
    if args.guess is not None:
        p_guess = _parse_vector(args.guess, "--guess", sysdef.k)
        q_guess = None
    else:
        z = _first_nonresonant(sysdef, degree_mod.find_zeros(sysdef, sysdef.box))
        if z is None:
            raise DaekitError(
                "no non-resonant zero to start from; pass --guess"
            )
        p_guess = z.point[: sysdef.k]
        q_guess = z.point[sysdef.k :]
    orbit = periodic.shoot(sysdef, args.lam, p_guess, q_guess, steps=args.steps)
    if args.csv:
        write_trajectory_csv(orbit, args.csv)
    _emit(
        {"command": "shoot", "system": args.system, "steps": args.steps,
         **_orbit_dict(orbit)},
        args.out,
    )
    return 0


def _cmd_branch(args):
    sysdef = sysfile.load_system(args.system)
    validate(sysdef)
    zeros = degree_mod.find_zeros(sysdef, sysdef.box)
    if args.origin is not None:
        target = _parse_vector(args.origin, "--origin", sysdef.k + sysdef.s)
        if not zeros:
            raise DaekitError("no zero of (f, g) in the box to anchor the "
                              "branch at")
        origin = min(zeros, key=lambda z: float(np.sum(np.abs(z.point - target))))
    else:
        origin = _first_nonresonant(sysdef, zeros)
    if origin is None:
        raise DaekitError("no non-resonant zero to anchor the branch; "
                          "pass --origin")
    branch = periodic.continue_branch(
        sysdef, origin, args.lambda_max, args.norm_bound,
        max_steps=args.max_steps, steps=args.steps,
    )
    if args.csv:
        write_branch_csv(branch, args.csv)
    _emit(
        {
            "command": "branch",
            "system": args.system,
            "origin": origin.point,
            "lambda_max": args.lambda_max,
            "norm_bound": args.norm_bound,
            "termination": branch.termination,
            "detail": branch.detail,
            "points": [
                {**_orbit_dict(orbit), "ds": ds}
                for orbit, ds in zip(branch.points, branch.ds)
            ],
        },
        args.out,
    )
    return 0


def _cmd_multiplicity(args):
    sysdef = sysfile.load_system(args.system)
    validate(sysdef)
    orbits = periodic.multiplicity_scan(
        sysdef, args.lam, grid_per_dim=args.grid, steps=args.steps
    )
    _emit(
        {
            "command": "multiplicity",
            "system": args.system,
            "lambda": args.lam,
            "count": len(orbits),
            "orbits": [_orbit_dict(orbit) for orbit in orbits],
        },
        args.out,
    )
    return 0


def _cmd_reduce_hessenberg(args):
    sysdef = sysfile.load_hessenberg(args.system)
    report = validate(sysdef, samples=args.samples)
    _emit(
        {
            "command": "reduce-hessenberg",
            "system": args.system,
            "dim_x": sysdef.k,
            "dim_y": sysdef.s,
            "period": sysdef.period,
            "g": [expr.to_string(e) for e in sysdef.g],
            "validation": _validation_dict(report),
        },
        args.out,
    )
    return 0


def _cmd_reduce_implicit(args):
    sysdef = sysfile.load_implicit(args.system)
    validate(sysdef, samples=args.samples)
    deg = degree_mod.degree_via_slice(sysdef.g, sysdef.box,
                                      grid_per_dim=args.grid)
    _emit(
        {
            "command": "reduce-implicit",
            "system": args.system,
            "dim_x": sysdef.k,
            "dim_y": sysdef.s,
            "period": sysdef.period,
            "f": [expr.to_string(e) for e in sysdef.f],
            "g": [expr.to_string(e) for e in sysdef.g],
            "h": [expr.to_string(e) for e in sysdef.h],
            "deg_F": deg,
        },
        args.out,
    )
    return 0


@functools.cache
def _build_parser():
    """The argument parser, built on the first main call and kept: parsing
    leaves it as it was."""
    parser = _Parser(prog="daekit",
                     description="degree / resonance / periodic-branch "
                                 "toolkit for semi-explicit DAEs")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.add_argument("system", help="system definition file")
        p.add_argument("--out", default=None, help="write the JSON report here")
        p.set_defaults(fn=fn)
        return p

    p = add("check", _cmd_check, help="validate the d2g hypothesis on the box")
    p.add_argument("--samples", type=int, default=512)

    p = add("zeros", _cmd_zeros, help="find the zeros of (f, g) in the box")
    p.add_argument("--grid", type=int, default=16)

    p = add("degree", _cmd_degree,
            help="degree of (f, g) and of the induced tangent field")
    p.add_argument("--grid", type=int, default=16)
    p.add_argument("--samples", type=int, default=512)
    p.add_argument("--seed", type=int, default=0,
                   help="seed for randomized perturbation votes")

    p = add("resonance", _cmd_resonance,
            help="classify each zero as resonant / non-resonant")
    p.add_argument("--grid", type=int, default=16)

    p = add("shoot", _cmd_shoot, help="find one T-periodic orbit by shooting")
    p.add_argument("--lambda", dest="lam", type=float, default=0.0)
    p.add_argument("--guess", default=None,
                   help="initial x components, comma-separated; a leading "
                        "minus needs the = form, --guess=-0.1,0.2")
    p.add_argument("--steps", type=int, default=512)
    p.add_argument("--csv", default=None, help="write the orbit as CSV")

    p = add("branch", _cmd_branch,
            help="continue the branch of forced periodic orbits")
    p.add_argument("--lambda-max", dest="lambda_max", type=float, required=True)
    p.add_argument("--norm-bound", dest="norm_bound", type=float, default=1e6)
    p.add_argument("--origin", default=None,
                   help="state of the anchoring zero, comma-separated; a "
                        "leading minus needs the = form, --origin=-1,-1")
    p.add_argument("--steps", type=int, default=512)
    p.add_argument("--max-steps", dest="max_steps", type=int, default=200)
    p.add_argument("--csv", default=None, help="write the branch as CSV")

    p = add("multiplicity", _cmd_multiplicity,
            help="count distinct periodic orbits at fixed forcing")
    p.add_argument("--lambda", dest="lam", type=float, required=True)
    p.add_argument("--grid", type=int, default=8)
    p.add_argument("--steps", type=int, default=512)

    p = add("reduce-hessenberg", _cmd_reduce_hessenberg,
            help="reduce a constraint-on-x system to semi-explicit form")
    p.add_argument("--samples", type=int, default=512)

    p = add("reduce-implicit", _cmd_reduce_implicit,
            help="reduce an implicit equation to semi-explicit form")
    p.add_argument("--grid", type=int, default=16)
    p.add_argument("--samples", type=int, default=512)

    return parser


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 1
    try:
        return args.fn(args)
    except HypothesisViolationError as exc:
        if args.command == "check":
            _emit(
                {"command": "check", "system": args.system,
                 **_validation_dict(exc.report)},
                args.out,
            )
        else:
            _sys.stderr.write(f"hypothesis violation: {exc}\n")
        return 2
    except (DaekitError, ValueError) as exc:
        _sys.stderr.write(f"error: {exc}\n")
        return 1
    except OSError as exc:
        _sys.stderr.write(f"i/o error: {exc}\n")
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
