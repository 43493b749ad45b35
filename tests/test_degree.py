from pathlib import Path

import numpy as np
import pytest

from daekit import expr, load_system
from daekit.dae import Box
from daekit.degree import (
    VectorField,
    boundary_margin,
    chart_index,
    degree_boundary_oracle,
    degree_sum,
    degree_via_slice,
    find_zeros,
    system_field,
    tangent_field_degree,
)
from daekit.errors import (
    BoundaryZeroError,
    DegenerateZeroError,
    HypothesisViolationError,
)
from daekit.degree import (
    SWEEP_TOL,
    _first_seen,
    _grid_starts,
    _make_record,
    _newton_sweep,
    _polish_rows,
)
from helpers import (
    dedup_oracle,
    degen3,
    newton_sweep_oracle,
    polish_oracle,
    random_system,
)

GOLDEN = Path(__file__).resolve().parent / "golden"


def planar_field(f1, f2):
    names = ["x1", "y1"]
    return VectorField([expr.parse(f1, names), expr.parse(f2, names)], names)


def ring_field(n):
    """x_i^3 - x_i + 0.3 x_{i+1} - 0.1 on a ring of n variables, on the
    box [-1.4, 1.6]^n: many regular zeros, and residuals of n entries."""
    names = [f"x{i + 1}" for i in range(n)]
    exprs = [expr.parse(f"{a}^3 - {a} + 0.3*{b} - 0.1", names)
             for a, b in zip(names, names[1:] + names[:1])]
    return VectorField(exprs, names), Box.from_pairs([(-1.4, 1.6)] * n)


class TestFindZeros:
    def test_cubic_well_unique_zero(self, pozzo):
        zeros = find_zeros(pozzo, pozzo.box)
        assert len(zeros) == 1
        z = zeros[0]
        assert np.max(np.abs(z.point)) <= 1e-10
        assert z.index == 1 and not z.degenerate
        assert z.schur_sign_pair == (1, 1)
        assert z.residual <= 1e-10
        assert not z.near_boundary

    def test_two_wells(self, exmults):
        zeros = find_zeros(exmults, exmults.box)
        assert len(zeros) == 2
        origin, other = zeros
        assert np.max(np.abs(origin.point)) <= 1e-8
        assert origin.degenerate and origin.index is None
        assert np.max(np.abs(other.point - 1.0)) <= 1e-8
        assert other.index == 1
        # hand Jacobian at (1,1): [[-1, 1], [-2, 1]], det = 1
        assert np.allclose(other.jacobian, [[-1.0, 1.0], [-2.0, 1.0]], atol=1e-7)

    def test_lienard(self, equivlien):
        zeros = find_zeros(equivlien, equivlien.box)
        assert len(zeros) == 1
        assert np.max(np.abs(zeros[0].point)) <= 1e-10
        assert zeros[0].index == 1

    def test_nondegenerate_index_consistency(self, pozzo, equivlien):
        for sys in (pozzo, equivlien):
            for z in find_zeros(sys, sys.box):
                s1, s2 = z.schur_sign_pair
                assert z.index == s1 * s2


class TestDegreeSum:
    def test_fixture_degrees(self, pozzo, equivlien):
        assert degree_sum(find_zeros(pozzo, pozzo.box), pozzo.box) == 1
        assert degree_sum(find_zeros(equivlien, equivlien.box), equivlien.box) == 1

    def test_refuses_degenerate(self, exmults):
        zeros = find_zeros(exmults, exmults.box)
        with pytest.raises(DegenerateZeroError):
            degree_sum(zeros, exmults.box)

    def test_refuses_boundary_zero(self):
        fld = planar_field("x1", "y1")
        box = Box.from_pairs([(0.0, 1.0), (-1.0, 1.0)])  # zero on the face
        zeros = find_zeros(fld, box)
        if zeros:
            with pytest.raises(BoundaryZeroError):
                degree_sum(zeros, box)


class TestBoundaryOracle:
    def test_two_wells_degree_zero(self, exmults):
        assert degree_boundary_oracle(exmults, exmults.box) == 0

    def test_lienard_degree_one(self, equivlien):
        assert degree_boundary_oracle(equivlien, equivlien.box) == 1

    def test_swap_field(self):
        fld = planar_field("y1", "x1")
        assert degree_boundary_oracle(fld, Box.from_pairs([(-1, 1), (-1, 1)])) == -1

    def test_boundary_zero_rejected(self):
        fld = planar_field("x1", "y1")
        box = Box.from_pairs([(0.0, 1.0), (-1.0, 1.0)])
        with pytest.raises(BoundaryZeroError):
            degree_boundary_oracle(fld, box)

    def test_higher_winding(self):
        # complex z^2 and z^3 as planar fields, asymmetric box around 0
        box = Box.from_pairs([(-1.3, 1.1), (-0.9, 1.2)])
        squared = planar_field("x1^2 - y1^2", "2*x1*y1")
        assert degree_boundary_oracle(squared, box) == 2
        cubed = planar_field("x1^3 - 3*x1*y1^2", "3*x1^2*y1 - y1^3")
        assert degree_boundary_oracle(cubed, box) == 3

    def test_matches_sum_on_fixtures(self, pozzo, equivlien):
        for sys in (pozzo, equivlien):
            zeros = find_zeros(sys, sys.box)
            assert degree_boundary_oracle(sys, sys.box) == degree_sum(
                zeros, sys.box
            )


class TestTangentFieldDegree:
    def test_cubic_well(self, pozzo):
        rep = tangent_field_degree(pozzo)
        assert (rep.deg_f, rep.sign_d2g, rep.deg_psi) == (1, 1, 1)
        assert len(rep.zeros) == 1
        assert rep.boundary_margin > 0.1

    def test_lienard_with_oracle_crosscheck(self, equivlien):
        rep = tangent_field_degree(equivlien)
        assert (rep.deg_f, rep.deg_psi) == (1, 1)
        assert rep.oracle_deg == 1 and rep.oracle_agrees

    def test_two_wells_uses_oracle(self, exmults):
        rep = tangent_field_degree(exmults)
        assert rep.deg_f == 0 and rep.deg_psi == 0
        assert rep.oracle_deg == 0

    def test_negating_one_component_flips_degree(self, pozzo):
        base = system_field(pozzo)
        fld = VectorField(
            [expr.c_neg(base.exprs[0])] + base.exprs[1:],
            base.var_names, k=2, s=1,
        )
        zeros = find_zeros(fld, pozzo.box)
        assert degree_sum(zeros, pozzo.box) == -1
        assert degree_boundary_oracle(fld, pozzo.box) == -1

    def test_violating_system_raises(self, eqex1):
        with pytest.raises(HypothesisViolationError):
            tangent_field_degree(eqex1)


class TestChartIndex:
    def test_fixture_values(self, pozzo, equivlien, exmults):
        z = find_zeros(pozzo, pozzo.box)[0]
        assert chart_index(pozzo, z) == 1
        z = find_zeros(equivlien, equivlien.box)[0]
        assert chart_index(equivlien, z) == 1
        z = find_zeros(exmults, exmults.box)[1]
        assert chart_index(exmults, z) == 1

    def test_matches_sign_relation(self, pozzo, equivlien):
        # chart index = sign(det d2g) * index of the flat map
        for sys in (pozzo, equivlien):
            for z in find_zeros(sys, sys.box):
                assert chart_index(sys, z) == z.index * z.schur_sign_pair[0]


class TestExcisionAndStability:
    def test_excision(self, pozzo, equivlien):
        small = Box.from_pairs([(-0.7, 0.8), (-0.6, 0.9), (-0.5, 0.6)])
        assert degree_sum(find_zeros(pozzo, small), small) == 1
        small2 = Box.from_pairs([(-0.4, 0.5), (-0.3, 0.45)])
        assert degree_sum(find_zeros(equivlien, small2), small2) == 1

    def test_small_perturbation_stability(self, equivlien, exmults):
        rng = np.random.default_rng(41)
        for sys, want in ((equivlien, 1), (exmults, 0)):
            fld = system_field(sys)
            margin = boundary_margin(fld, sys.box)
            for _ in range(50):
                c = rng.uniform(-1, 1, size=sys.k)
                c *= 0.5 * margin * rng.random() / max(np.abs(c).sum(), 1e-30)
                shifted = VectorField(
                    [expr.c_add(e, expr.Const(float(ci)))
                     for e, ci in zip(fld.exprs[: sys.k], c)]
                    + fld.exprs[sys.k :],
                    fld.var_names, k=sys.k, s=sys.s,
                )
                assert degree_boundary_oracle(shifted, sys.box) == want


class TestRandomizedIdentity:
    def test_degree_identity_smoke(self):
        rng = np.random.default_rng(57)
        for _ in range(5):
            k = int(rng.integers(1, 3))
            s = int(rng.integers(1, 3))
            sysdef, zeros = random_system(rng, k, s)
            from daekit.dae import validate

            sign = validate(sysdef, samples=256).sign
            deg_f = degree_sum(zeros, sysdef.box)
            chart_sum = sum(chart_index(sysdef, z) for z in zeros)
            assert sign * deg_f == chart_sum


class TestSliceDegree:
    def test_identity_map(self):
        box = Box.from_pairs([(-1, 1), (-1, 1)])
        assert degree_via_slice([expr.parse("x1", ["x1", "y1"])], box) == -1

    def test_negated_map(self):
        box = Box.from_pairs([(-1, 1), (-1, 1)])
        assert degree_via_slice([expr.parse("-x1", ["x1", "y1"])], box) == 1

    def test_cubic_with_degenerate_lift(self):
        box = Box.from_pairs([(-1, 1), (-1, 1)])
        omega = [expr.parse("x1^3 - y1", ["x1", "y1"])]
        assert degree_via_slice(omega, box) == -1

    def test_slice_must_cut_box(self):
        box = Box.from_pairs([(-1, 1), (0.5, 1.0)])
        with pytest.raises(ValueError):
            degree_via_slice([expr.parse("x1", ["x1", "y1"])], box)


def coarse_candidates(fld, box, grid_per_dim):
    """The candidates find_zeros polishes: sweep, box filter, coarse merge."""
    found = _newton_sweep(fld, box, _grid_starts(box, grid_per_dim))
    return np.array(dedup_oracle(
        [z for z in found if box.contains(z, slack=1e-6)], 1e-10))


class TestNewtonSweep:
    @pytest.mark.parametrize("name", ["pozzo", "exmults", "degen3",
                                      "r12", "r21", "r22", "ring8"])
    def test_equals_the_masked_sweep(self, name, request):
        # ring8: residuals of 8 entries, which np.sum adds pairwise
        grid = 16
        if name == "ring8":
            fld, box = ring_field(8)
            grid = 3
        else:
            if name == "degen3":
                sys = degen3()
            elif name.startswith("r"):
                sys = load_system(str(GOLDEN / f"{name}.sys"))
            else:
                sys = request.getfixturevalue(name)
            fld, box = system_field(sys), sys.box
        starts = _grid_starts(box, grid)
        got = _newton_sweep(fld, box, starts)
        with np.errstate(all="ignore"):
            want, counts = newton_sweep_oracle(fld, box, starts)
        assert len(got) > 0
        assert got.tobytes() == want.tobytes()

    def test_crafted_field_takes_every_drop_path(self):
        # sqrt(y1) is nan below y1 = 0 and has an infinite slope at it;
        # x1^2 - 1 has a zero slope at x1 = 0 and a far step near it
        fld = planar_field("x1^2 - 1", "sqrt(y1) - 0.5")
        box = Box.from_pairs([(-2, 2), (-2, 2)])
        starts = np.vstack([_grid_starts(box, 9),
                            [[0.0, 1.0], [1e-3, 1.0], [1.0, 0.0]]])
        got = _newton_sweep(fld, box, starts)
        with np.errstate(all="ignore"):
            want, counts = newton_sweep_oracle(fld, box, starts)
        assert min(counts["residual"], counts["det"], counts["box"]) >= 1
        assert len(got) > 0 and got.tobytes() == want.tobytes()

    def test_huge_jacobian_entries_converge(self):
        # det overflows at every start of this field, so the masked sweep
        # drops all 256 starts at its det filter; the elimination solves them
        # all
        fld = planar_field("1e160*x1 - 1e160*x1^3", "1e160*y1 + x1")
        box = Box.from_pairs([(-1.5, 1.5), (-1.5, 1.5)])
        starts = _grid_starts(box, 16)
        with np.errstate(all="ignore"):
            want, counts = newton_sweep_oracle(fld, box, starts)
        assert len(want) == 0 and counts["det"] == 256
        got = _newton_sweep(fld, box, starts)
        assert len(got) > 0
        res = np.abs(fld.value_batch(got)).sum(axis=1)
        assert np.all(res <= SWEEP_TOL)
        assert sorted(set(np.round(got[:, 0], 6))) == [-1.0, 0.0, 1.0]


class TestMakeRecord:
    def test_nan_jacobian_is_degenerate(self):
        # a nan det has no sign, so the zero gets no index
        class NanJacobian(VectorField):
            def jacobian(self, z):
                return np.array([[np.nan, 0.0], [0.0, 1.0]])

        fld = planar_field("x1", "y1")
        fld = NanJacobian(fld.exprs, fld.var_names)
        box = Box.from_pairs([(-1, 1), (-1, 1)])
        rec = _make_record(fld, box, np.zeros(2))
        assert rec.degenerate and rec.index is None


class TestLockstepPolish:
    @pytest.mark.parametrize("make, grid", [("exmults", 16), ("degen3", 8)])
    def test_equals_polishing_each_candidate_alone(self, make, grid, request):
        sys = degen3() if make == "degen3" else request.getfixturevalue(make)
        fld = system_field(sys)
        coarse = coarse_candidates(fld, sys.box, grid)
        assert len(coarse) > 8  # past the point-evaluation cutoff
        best, errors = _polish_rows(fld, coarse)
        assert not errors
        want = np.array([polish_oracle(fld, z) for z in coarse])
        assert best.tobytes() == want.tobytes()

    def test_failures_are_per_row(self):
        fld = planar_field("ln(x1)", "y1")
        zs = np.array([[1.5, 0.2], [-1.0, 0.0], [2.0, 0.1], [-2.0, 0.0]])
        best, errors = _polish_rows(fld, zs)
        assert sorted(errors) == [1, 3]
        for i in (1, 3):
            with pytest.raises(type(errors[i])) as alone:
                polish_oracle(fld, zs[i])
            assert str(errors[i]) == str(alone.value)
        for i in (0, 2):
            assert best[i].tobytes() == polish_oracle(fld, zs[i]).tobytes()

    def test_a_row_at_a_zero_keeps_no_jacobian_error(self):
        # the Jacobian of sqrt(x1) raises at x1 = 0: a row that starts at
        # the zero takes no step, so it ends without an error, as alone
        fld = planar_field("sqrt(x1)", "y1")
        zs = np.array([[0.0, 0.0], [0.0, 0.5]])
        best, errors = _polish_rows(fld, zs)
        assert sorted(errors) == [1]
        assert best[0].tobytes() == polish_oracle(fld, zs[0]).tobytes()
        with pytest.raises(type(errors[1])) as alone:
            polish_oracle(fld, zs[1])
        assert str(errors[1]) == str(alone.value)
        assert "sqrt not differentiable" in str(errors[1])


class TestDedup:
    def test_equals_first_seen_loop_on_clusters(self):
        rng = np.random.default_rng(31)
        for dim in (1, 2, 3):
            for radius in (1e-10, 1e-6, 0.05):
                centers = rng.uniform(-1, 1, (12, dim))
                pts = centers[rng.integers(12, size=400)]
                pts = pts + rng.normal(scale=radius, size=pts.shape)
                pts[::7] = pts[::7].round(3)  # exact repeats and ties
                got = pts[_first_seen(pts, radius)]
                want = dedup_oracle(pts, radius)
                assert len(got) == len(want)
                assert all(a.tobytes() == b.tobytes() for a, b in zip(got, want))

    def test_repeats_ties_and_non_finite_rows(self):
        # repeated rows, rows equal up to the sign of zero, rows with nan
        # or inf, and rows at exactly the radius from a kept row
        rng = np.random.default_rng(37)
        radius = 0.25
        base = rng.integers(-4, 5, (40, 2)) * radius  # ties on the lattice
        pts = base[rng.integers(40, size=300)]
        pts[rng.random(pts.shape) < 0.2] *= -1.0  # 0.0 becomes -0.0 too
        pts[::17, 1] = np.nan
        pts[5::23, 0] = np.nan
        pts[7::29] = np.inf
        pts[100:104] = [[0.0, radius], [-0.0, radius], [0.0, -0.0], [-0.0, 0.0]]
        for r in (radius, 0.0, 1e-10):
            with np.errstate(invalid="ignore"):  # inf - inf in both
                got = pts[_first_seen(pts, r)]
                want = dedup_oracle(pts, r)
            assert len(got) == len(want)
            assert all(a.tobytes() == b.tobytes() for a, b in zip(got, want))
