"""Counting distinct forced periodic orbits when the total degree is zero.

The system

    x' = y^2 - x y + lambda cos t     with constraint  y - x^2 = 0

has exactly two unforced equilibria, (0,0) and (1,1). Their indices cannot
both be counted by the signed sum ((0,0) is degenerate), but the boundary
winding oracle shows deg(F, box) = 0. Since (1,1) is non-resonant with index
+1 != 0, the index "missing" near (0,0) forces a second family: for small
forcing there are at least two distinct periodic orbits, one near each
equilibrium.
"""

from pathlib import Path

import numpy as np

from daekit import (
    classify_resonance,
    degree_boundary_oracle,
    degree_sum,
    find_zeros,
    load_system,
    multiplicity_scan,
)
from daekit.errors import DegenerateZeroError

sysdef = load_system(Path(__file__).parents[1] / "systems" / "exmults.sys")

print("== equilibria and their local data ==")
zeros = find_zeros(sysdef, sysdef.box)
for z in zeros:
    verdict = classify_resonance(sysdef, z)
    kind = "degenerate" if z.degenerate else f"index {z.index:+d}"
    print(f"zero {np.round(z.point, 10)}: {kind}, {verdict.verdict}")

print("\n== degree: signed sum refuses, the boundary oracle answers ==")
try:
    degree_sum(zeros, sysdef.box)
except DegenerateZeroError as exc:
    print(f"signed summation: {exc}")
deg = degree_boundary_oracle(sysdef, sysdef.box)
print(f"winding number of F along the box boundary: {deg}")

print("\n== multistart shooting at lambda = 0.01 ==")
orbits = multiplicity_scan(sysdef, 0.01, grid_per_dim=8)
print(f"{len(orbits)} distinct periodic orbits found:")
for orbit in orbits:
    mean = orbit.mean_state()
    print(f"  orbit near ({mean[0]:+.4f}, {mean[1]:+.4f}): "
          f"x(0) = {orbit.start.p[0]:+.6f}, "
          f"amplitude {orbit.sup_amplitude():.5f}, "
          f"residual {orbit.closure_residual:.1e}")
a, b = orbits[0].zs, orbits[1].zs
print(f"sup-distance between the two orbits: "
      f"{float(np.max(np.abs(a - b).sum(axis=1))):.3f}")
