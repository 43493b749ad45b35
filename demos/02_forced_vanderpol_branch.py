"""A branch of forced periodic orbits growing out of an equilibrium.

The van der Pol equation in the Lienard plane, in the relaxation limit and
with small sinusoidal forcing, becomes

    x' = -y - lambda sin t       with constraint  x - y^3/3 + y = 0

on |y| < 1. The unforced system has one equilibrium at the origin with
deg = 1, and the origin is non-resonant for period 2*pi, so a locally unique
branch of 2*pi-periodic orbits emanates from it as the forcing grows.
"""

import math
from pathlib import Path

import numpy as np

from daekit import (
    classify_resonance,
    continue_branch,
    find_zeros,
    load_system,
    shoot,
)
from daekit.cli import write_branch_csv

sysdef = load_system(Path(__file__).parents[1] / "systems" / "equivlien.sys")

print("== the unforced equilibrium ==")
origin = find_zeros(sysdef, sysdef.box)[0]
verdict = classify_resonance(sysdef, origin)
print(f"zero at {np.round(origin.point, 12)}, index {origin.index}")
print(f"reduced linearization A = {verdict.linearization.ravel()}, "
      f"monodromy e^(A T) = {verdict.monodromy.ravel()}")
print(f"resonance verdict: {verdict.verdict} "
      f"(det(monodromy - I) = {verdict.det_mi:.4f})")

print("\n== one shot: forced orbit at lambda = 1e-3 ==")
lam = 1e-3
orbit = shoot(sysdef, lam, np.zeros(1), np.zeros(1))
print(f"x(0) = {orbit.start.p[0]:.10f}")
print(f"first-order theory: x(t) = lambda (cos t + sin t)/2, "
      f"so x(0) = lambda/2 = {lam / 2}")
print(f"error {abs(orbit.start.p[0] - lam / 2):.2e}, "
      f"orbit amplitude {orbit.sup_amplitude():.6f} "
      f"(theory lambda*sqrt(2) = {lam * math.sqrt(2):.6f})")

print("\n== continuation of the branch up to lambda = 0.1 ==")
branch = continue_branch(sysdef, origin, lambda_max=0.1, norm_bound=0.9)
print(f"{len(branch.points)} points, termination: {branch.termination} "
      f"({branch.detail})")
print(f"{'lambda':>9} {'x(0)':>10} {'amplitude':>10} {'residual':>9}")
for orbit in branch.points:
    print(f"{orbit.lam:9.5f} {orbit.start.p[0]:10.6f} "
          f"{orbit.sup_amplitude():10.6f} {orbit.closure_residual:9.1e}")

out = Path(__file__).with_name("vanderpol_branch.csv")
write_branch_csv(branch, out)
print(f"\nbranch written to {out} (plot-ready, 17 significant digits)")
