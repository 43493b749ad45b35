"""Seeded benchmark inputs: random polynomial DAEs written as ``.sys`` text.

The construction is the criterion-5 one of the acceptance suite, carried
here so that edits to the tests cannot move the benchmark: ``f`` has four
random monomials of degree <= 2 with coefficients in [-2, 2]; each ``g_j``
is ``a_j * y_j`` (|a_j| in [0.75, 2]) plus four monomials with coefficients
in [-0.4, 0.4]; the box is [-1.2, 1.2]^(k+s). A candidate is kept only when
daekit accepts the d2g hypothesis on it and every zero found is
nondegenerate and away from the boundary.

A system is kept as a list of terms per component, ``(coeff, powers)``,
so the benchmark can evaluate it and its derivatives without daekit when
it checks the answers. One system per shape is drawn once into
``systems/pool.json`` (``python3 bench/inputs.py``); a run conjugates
each by its own seed (``conjugate``).
"""

import json
import math
import os
import shutil
from dataclasses import dataclass

import numpy as np

HALF_WIDTH = 1.2
PERIOD = 2 * math.pi
FIXTURES = os.path.join(os.path.dirname(os.path.abspath(__file__)), "systems")


@dataclass
class PolySystem:
    k: int
    s: int
    f: list            # k components, each a list of (coeff, powers)
    g: list            # s components

    @property
    def names(self):
        return ([f"x{i + 1}" for i in range(self.k)]
                + [f"y{j + 1}" for j in range(self.s)])

    def text(self, title):
        def poly(terms):
            out = []
            for c, powers in terms:
                factors = [repr(abs(c))] + [
                    nm if p == 1 else f"{nm}^{p}"
                    for nm, p in zip(self.names, powers) if p
                ]
                out.append(("- " if c < 0 else "+ ") + "*".join(factors))
            body = " ".join(out)
            return body[2:] if body.startswith("+ ") else "-" + body[2:]

        n = self.k + self.s
        return "\n".join([
            f"# {title}: seeded criterion-5 system, k = {self.k}, s = {self.s}",
            f"dim_x = {self.k}",
            f"dim_y = {self.s}",
            f"period = {PERIOD!r}",
            "f = " + ", ".join(f'"{poly(t)}"' for t in self.f),
            "g = " + ", ".join(f'"{poly(t)}"' for t in self.g),
            "box = " + ", ".join([f"[{-HALF_WIDTH}, {HALF_WIDTH}]"] * n),
            "",
        ])

    # -- evaluation independent of daekit (used by the answer checks) --

    def value(self, z):
        return np.array([_poly_value(t, z) for t in self.f + self.g])

    def jacobian(self, z):
        comps = self.f + self.g
        return np.array([[_poly_partial(t, z, v) for v in range(len(z))]
                         for t in comps])


def _poly_value(terms, z):
    return sum(c * math.prod(zi**p for zi, p in zip(z, powers))
               for c, powers in terms)


def _poly_partial(terms, z, v):
    total = 0.0
    for c, powers in terms:
        if powers[v] == 0:
            continue
        prod = c * powers[v]
        for i, (zi, p) in enumerate(zip(z, powers)):
            prod *= zi ** (p - 1 if i == v else p)
        total += prod
    return total


def _random_terms(rng, n, max_degree, scale, n_terms=4):
    terms = []
    for _ in range(n_terms):
        powers = rng.integers(0, max_degree + 1, size=n)
        while powers.sum() > max_degree:
            powers = rng.integers(0, max_degree + 1, size=n)
        c = float(rng.uniform(-scale, scale))
        terms.append((c, tuple(int(p) for p in powers)))
    return terms


def _candidate(rng, k, s):
    n = k + s
    f = [_random_terms(rng, n, 2, 2.0) for _ in range(k)]
    g = []
    for j in range(s):
        a = float(rng.uniform(0.75, 2.0)) * (1 if rng.random() < 0.5 else -1)
        lead = tuple(1 if i == k + j else 0 for i in range(n))
        g.append([(a, lead)] + _random_terms(rng, n, 2, 0.4))
    return PolySystem(k, s, f, g)


def random_system(rng, k, s, path, min_zeros=0):
    """Write an accepted random (k, s) system to ``path``; return it.

    Rejection uses daekit itself (validation and a grid-6 zero sweep), as
    the criterion-5 construction does; ``min_zeros`` additionally rejects
    systems with fewer zeros in the box.
    """
    from daekit.dae import validate
    from daekit.degree import find_zeros
    from daekit.errors import DaekitError
    from daekit.sysfile import load_system

    while True:
        cand = _candidate(rng, k, s)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(cand.text(os.path.basename(path)))
        sysdef = load_system(path)
        try:
            validate(sysdef, samples=256)
            zeros = find_zeros(sysdef, sysdef.box, grid_per_dim=6)
        except DaekitError:
            continue
        if len(zeros) < min_zeros or any(
            z.degenerate or z.near_boundary for z in zeros
        ):
            continue
        return cand


def conjugate(sysdef, rng):
    """The same system in seeded coordinates: permuted, sign-flipped axes.

    With z = sigma * u[perm] (per block), the new system is
    f'(u) = sigma_x * f(z(u)), g'(u) = g(z(u)), each component moved to its
    variable's new slot. The flow and the zero set are carried over exactly,
    and the grid of Newton starts on the symmetric box maps onto itself, so
    every seed gives the same work in other coordinates.
    """
    k, s = sysdef.k, sysdef.s
    perm = np.concatenate([rng.permutation(k), k + rng.permutation(s)])
    sigma = np.where(rng.random(k + s) < 0.5, -1, 1)

    def move(terms, flip):
        out = []
        for c, powers in terms:
            new_powers = [0] * (k + s)
            for i, p in enumerate(powers):
                new_powers[perm[i]] = p
                if p % 2:
                    c = -c if sigma[i] < 0 else c
            out.append((-c if flip else c, tuple(new_powers)))
        return out

    f = [None] * k
    for i, terms in enumerate(sysdef.f):
        f[perm[i]] = move(terms, sigma[i] < 0)
    g = [None] * s
    for j, terms in enumerate(sysdef.g):
        g[perm[k + j] - k] = move(terms, False)
    return PolySystem(k, s, f, g)


def copy_fixture(name, workdir, dest_name=None):
    """Copy one of the benchmark's fixed systems into the work directory."""
    dest = os.path.join(workdir, dest_name or f"{name}.sys")
    shutil.copyfile(os.path.join(FIXTURES, f"{name}.sys"), dest)
    return dest


POOL = os.path.join(FIXTURES, "pool.json")
POOL_SEED = 2009
POOL_SHAPES = ((2, 1), (1, 2), (2, 2))


def load_pool():
    """The committed random systems, as written by ``build_pool``."""
    with open(POOL, encoding="utf-8") as fh:
        data = json.load(fh)
    return [
        PolySystem(d["k"], d["s"],
                   [[(c, tuple(p)) for c, p in comp] for comp in d["f"]],
                   [[(c, tuple(p)) for c, p in comp] for comp in d["g"]])
        for d in data["systems"]
    ]


def build_pool(workdir):
    """Draw one system per shape from POOL_SEED, each with a zero in the box.

    Rejection sampling takes seconds for the (2, 2) shape, so the pool is
    drawn once and committed; a run only conjugates it by its own seed.
    """
    rng = np.random.default_rng(POOL_SEED)
    systems = []
    for k, s in POOL_SHAPES:
        path = os.path.join(workdir, f"pool_{k}{s}.sys")
        systems.append(random_system(rng, k, s, path, min_zeros=1))
    rows = [json.dumps({"k": p.k, "s": p.s, "f": p.f, "g": p.g})
            for p in systems]
    with open(POOL, "w", encoding="utf-8") as fh:
        fh.write(f'{{"seed": {POOL_SEED}, "systems": [\n')
        fh.write(",\n".join(rows))
        fh.write("\n]}\n")


if __name__ == "__main__":
    # Regenerates the committed pool: python3 bench/inputs.py
    import sys

    root = os.path.dirname(os.path.dirname(FIXTURES))
    sys.path.insert(0, os.path.join(root, "src"))
    scratch = os.path.join(root, ".bench_work", "pool")
    os.makedirs(scratch, exist_ok=True)
    build_pool(scratch)
