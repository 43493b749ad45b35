import builtins
import functools
import importlib
import inspect
import math
import os
import sys as _sys
import threading
from pathlib import Path

import numpy as np
import pytest

import daekit.degree as degree_module
from daekit import expr, load_system, sysfile
from daekit.dae import Box, SystemDef, _emit_det_polish, validate
from daekit.degree import (
    VectorField,
    boundary_margin,
    chart_index,
    degree_boundary_oracle,
    degree_sum,
    degree_via_slice,
    find_zeros,
    reduced_matrix,
    system_field,
    tangent_field_degree,
)
from daekit.errors import (
    BoundaryZeroError,
    DegenerateZeroError,
    ExprDomainError,
    HypothesisViolationError,
)
from daekit.degree import (
    SWEEP_TOL,
    _first_seen,
    _grid_starts,
    _make_record,
    _newton_sweep,
    _perturbed_field,
)
from conftest import system_path
from helpers import (
    POLISH_ERRORS,
    dedup_oracle,
    degen3,
    find_zeros_oracle,
    newton_sweep_oracle,
    polish_oracle,
    polish_rows,
    random_planar_map,
    random_system,
    sweep_cloud,
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

    def test_raises_the_lowest_failing_rows_error(self, monkeypatch):
        # candidates 0 and 2 both meet ln of a nonpositive value in their
        # polish; find_zeros raises candidate 0's error
        fld = planar_field("ln(x1)", "y1")
        rows = np.array([[-1.0, 0.0], [0.5, 0.1], [3.0, 0.2]])
        monkeypatch.setattr(degree_module, "_newton_sweep",
                            lambda fld, box, starts: rows)
        box = Box.from_pairs([(-2.0, 4.0), (-1.0, 1.0)])
        assert sorted(polish_rows(fld, rows)[1]) == [0, 2]
        with pytest.raises(ExprDomainError) as err:
            find_zeros(fld, box, 4)
        assert str(err.value) == "ln of nonpositive value -1.0 in 'ln(x1)'"

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

    def test_one_dimensional_margin_takes_both_ends(self):
        # in 1-D the faces are the two end points, |F| 0.75 and 3.75
        fld = VectorField([expr.parse("x1^2 - 0.25", ["x1"])], ["x1"])
        assert boundary_margin(fld, Box.from_pairs([(-1.0, 2.0)])) == 0.75
        assert boundary_margin(fld, Box.from_pairs([(-3.0, 0.75)])) == 0.3125

    def test_a_vote_keeps_its_perturbed_field(self, pozzo, equivlien):
        # the same seed draws the same shifts, so a repeated vote gets the
        # field, kernel and polish it made before
        fld, c = system_field(pozzo), np.array([3e-6, -7e-6])
        shifted = _perturbed_field(fld, c.tobytes())
        assert _perturbed_field(fld, c.copy().tobytes()) is shifted
        assert _perturbed_field(fld, (-c).tobytes()) is not shifted
        assert _perturbed_field(system_field(equivlien),
                                c[:1].tobytes()) is not shifted
        z = np.array([0.3, -0.2, 0.1])
        want = fld.value(z) + np.array([3e-6, -7e-6, 0.0])
        assert shifted.value(z).tobytes() == want.tobytes()

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

    @pytest.mark.parametrize("name", ["exmults", "degen3"])
    def test_the_oracle_takes_the_reports_margin(self, name, request,
                                                 monkeypatch):
        # a degenerate zero sends the degree to the boundary oracle, which
        # takes the margin the report computed; called alone, the oracle
        # computes it itself
        sys = fixture_system(name, request)
        margins = []
        margin = degree_module.boundary_margin

        def counting(fld, box):
            margins.append(margin(fld, box))
            return margins[-1]

        monkeypatch.setattr(degree_module, "boundary_margin", counting)
        rep = tangent_field_degree(sys, grid_per_dim=8)
        assert margins == [rep.boundary_margin]
        assert rep.oracle_deg == rep.deg_f == degree_boundary_oracle(
            sys, sys.box, 8)
        assert len(margins) == 2

    def test_negating_one_component_flips_degree(self, pozzo):
        base = system_field(pozzo)
        fld = VectorField(
            [expr.c_neg(base.exprs[0])] + base.exprs[1:],
            base.var_names, k=2,
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
                    fld.var_names, k=sys.k,
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


def cpus(monkeypatch, count):
    """Make the sweep see count CPUs it may run on."""
    monkeypatch.setattr(os, "sched_getaffinity",
                        lambda pid: set(range(count)))


def r21_at_split_size():
    """r21's field, box and the 32^3 grid starts: 2 * SPLIT of them, so
    their sweep runs as two halves."""
    sys = load_system(str(GOLDEN / "r21.sys"))
    starts = _grid_starts(sys.box, 32)
    assert len(starts) >= 2 * degree_module.SPLIT
    return system_field(sys), sys.box, starts


def record_eliminations(monkeypatch, extra=lambda: None):
    """Record, for each elimination of the sweep (linalg._solve_rows), its
    thread, its number of columns and extra(); returns the list."""
    calls, solve = [], degree_module._solve_rows

    def recording(jac, b, out=None):
        call = threading.current_thread(), b.shape[1], extra()
        calls.append(call)
        if isinstance(call[2], BaseException):
            raise call[2]
        return solve(jac, b, out=out)

    monkeypatch.setattr(degree_module, "_solve_rows", recording)
    return calls


def columns_by_thread(calls):
    """The column counts of the recorded eliminations in the caller's
    thread and in any other."""
    me = threading.current_thread()
    return ([cols for t, cols, _ in calls if t is me],
            [cols for t, cols, _ in calls if t is not me])


def assert_split_sweep_bits(fld, box, starts, monkeypatch):
    """The sweep of starts on two CPUs runs as two halves of starts, the
    second off the caller's thread, and gives the bits of one CPU's."""
    calls = record_eliminations(monkeypatch)
    cpus(monkeypatch, 2)
    two = _newton_sweep(fld, box, starts)
    mine, other = columns_by_thread(calls)
    half = len(starts) // 2
    assert mine[0] == half and other[0] == len(starts) - half
    del calls[:]
    cpus(monkeypatch, 1)
    one = _newton_sweep(fld, box, starts)
    mine, other = columns_by_thread(calls)
    assert mine[0] == len(starts) and other == []
    assert len(one) > 0
    assert two.view(np.int64).tolist() == one.view(np.int64).tolist()


class TestSplitSweep:
    @pytest.mark.parametrize("name, grid", [("r22", 16), ("r21", 32)])
    def test_two_halves_give_the_one_thread_bits(self, name, grid,
                                                 monkeypatch):
        sys = load_system(str(GOLDEN / f"{name}.sys"))
        assert_split_sweep_bits(system_field(sys), sys.box,
                                _grid_starts(sys.box, grid), monkeypatch)

    def test_an_odd_count_gives_the_one_thread_bits(self, monkeypatch):
        # 2 * SPLIT + 1 starts: the worker's half is one start longer
        sys = load_system(str(GOLDEN / "r22.sys"))
        starts = _grid_starts(sys.box, 16)[:2 * degree_module.SPLIT + 1]
        assert_split_sweep_bits(system_field(sys), sys.box, starts,
                                monkeypatch)

    def test_a_second_half_that_drops_at_once(self, monkeypatch):
        # every start of the worker's half is nan, so its first step drops
        # them all; the points are those of the first half alone
        fld, box, starts = r21_at_split_size()
        half = len(starts) // 2
        starts = starts.copy()
        starts[half:] = np.nan
        cpus(monkeypatch, 1)
        want = _newton_sweep(fld, box, starts[:half])
        calls = record_eliminations(monkeypatch)
        cpus(monkeypatch, 2)
        got = _newton_sweep(fld, box, starts)
        assert columns_by_thread(calls)[1][:1] == [len(starts) - half]
        assert len(want) > 0 and got.tobytes() == want.tobytes()

    def test_an_error_in_the_worker_half_reaches_the_caller(self,
                                                           monkeypatch):
        fld, box, starts = r21_at_split_size()
        me = threading.current_thread()
        calls = record_eliminations(
            monkeypatch, lambda: threading.current_thread() is not me
            and ZeroDivisionError("in the second half"))
        cpus(monkeypatch, 2)
        with pytest.raises(ZeroDivisionError, match="second half"):
            _newton_sweep(fld, box, starts)
        assert any(t is not me for t, _, _ in calls)

    def test_the_worker_half_runs_under_the_callers_errstate(self,
                                                             monkeypatch):
        fld, box, starts = r21_at_split_size()
        calls = record_eliminations(monkeypatch,
                                    lambda: np.geterr()["over"])
        cpus(monkeypatch, 2)
        with np.errstate(over="raise"):
            _newton_sweep(fld, box, starts)
        me = threading.current_thread()
        assert any(t is not me for t, _, _ in calls)
        assert {over for _, _, over in calls} == {"raise"}

    def test_concurrent_sweeps_share_the_worker(self, monkeypatch):
        # three callers hand halves to the one worker at once, with thread
        # switches forced often; each gets the one-thread points
        fld, box, starts = r21_at_split_size()
        cpus(monkeypatch, 1)
        want = _newton_sweep(fld, box, starts).tobytes()
        cpus(monkeypatch, 2)
        got = [None] * 3

        def sweep(i):
            got[i] = _newton_sweep(fld, box, starts).tobytes()

        interval = _sys.getswitchinterval()
        _sys.setswitchinterval(1e-6)
        try:
            callers = [threading.Thread(target=sweep, args=(i,))
                       for i in range(3)]
            for t in callers:
                t.start()
            for t in callers:
                t.join(timeout=60)
        finally:
            _sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in callers)
        assert got == [want] * 3

    def test_repeated_sweeps_add_at_most_one_thread(self, monkeypatch):
        fld, box, starts = r21_at_split_size()
        cpus(monkeypatch, 2)
        before = threading.active_count()
        for _ in range(4):
            _newton_sweep(fld, box, starts)
        assert threading.active_count() <= before + 1

    def test_no_public_call_off_the_callers_thread(self, monkeypatch):
        # a tracer of the public layers keeps one span stack for the whole
        # process, so only the caller's thread may call into them; the
        # system is loaded afresh, so its kernel compiles in this sweep
        methods = {SystemDef: ("jac_rows",),
                   VectorField: ("value", "jacobian", "value_batch",
                                 "jacobian_batch")}
        layers = [importlib.import_module(f"daekit.{name}") for name in
                  ("expr", "linalg", "dae", "degree", "flow", "periodic",
                   "sysfile")]
        threads = []

        def recorder(fn):
            @functools.wraps(fn)
            def recording(*args, **kwargs):
                threads.append(threading.current_thread())
                return fn(*args, **kwargs)
            return recording

        for cls, names in methods.items():
            for name in names:
                monkeypatch.setattr(cls, name, recorder(cls.__dict__[name]))
        wrapped = {}
        for mod in layers:
            for name, val in vars(mod).items():
                if (not name.startswith("_") and inspect.isfunction(val)
                        and val.__module__ == mod.__name__):
                    wrapped[id(val)] = val, recorder(val)
        for mod in [m for name, m in list(_sys.modules.items())
                    if name == "daekit" or name.startswith("daekit.")]:
            for name, val in list(vars(mod).items()):
                if wrapped.get(id(val), (None,))[0] is val:
                    monkeypatch.setattr(mod, name, wrapped[id(val)][1])
        calls = record_eliminations(monkeypatch)
        cpus(monkeypatch, 2)
        sys = sysfile.load_system(str(GOLDEN / "r22.sys"))
        zeros = degree_module.find_zeros(sys, sys.box)
        me = threading.current_thread()
        assert len(zeros) > 0 and any(t is not me for t, _, _ in calls)
        assert len(threads) > 10 and set(threads) == {me}


class TestMakeRecord:
    def test_nan_jacobian_is_degenerate(self):
        # a nan det has no sign, so the zero gets no index
        class NanJacobian(VectorField):
            def jacobian(self, z):
                return np.array([[np.nan, 0.0], [0.0, 1.0]])

        fld = planar_field("x1", "y1")
        fld = NanJacobian(fld.exprs, fld.var_names)
        box = Box.from_pairs([(-1, 1), (-1, 1)])
        rec = _make_record(fld, None, box, np.zeros(2))
        assert rec.degenerate and rec.index is None


class TestSchurSignPair:
    """schur_sign_pair: the signs of det d2g and of det A, the reduced
    linearization of the system's stage, on the records of find_zeros."""

    def test_product_is_the_index(self):
        # det J = det d2g * det A at every nondegenerate zero; systems are
        # drawn until each (k, s) has shown at least 3 zeros
        rng = np.random.default_rng(17)
        for k in (1, 2, 3):
            for s in (1, 2, 3):
                seen = 0
                while seen < 3:
                    sys, zeros = random_system(rng, k, s)
                    for z in zeros:
                        d22, dschur = z.schur_sign_pair
                        assert d22 * dschur == z.index
                    seen += len(zeros)

    def test_singular_d2g_gives_none(self):
        # a regular zero of (f, g) at the origin, where d2g = 3 y1^2 = 0
        names = ["x1", "y1"]
        sys = SystemDef(1, 1, 1.0, [expr.parse("y1", names)],
                        [expr.parse("y1^3 - x1", names)],
                        box=Box.from_pairs([(-1, 1.5), (-1, 1.5)]))
        [zero] = find_zeros(sys, sys.box)
        assert np.all(zero.point == 0.0) and zero.index == 1
        assert zero.schur_sign_pair is None

    @pytest.mark.parametrize("name", ["pozzo", "equivlien", "exmults",
                                      "degen3", "r12", "r21", "r22"])
    def test_second_sign_is_the_reduced_det(self, name, request):
        sys = fixture_system(name, request)
        for z in find_zeros(sys, sys.box):
            a = reduced_matrix(sys, z.point)
            assert z.schur_sign_pair[1] == int(np.sign(np.linalg.det(a)))

    def test_bare_field_gives_none(self, pozzo):
        assert find_zeros(pozzo, pozzo.box)[0].schur_sign_pair == (1, 1)
        [zero] = find_zeros(system_field(pozzo), pozzo.box)
        assert zero.schur_sign_pair is None
        [zero] = find_zeros(planar_field("x1", "y1"),
                            Box.from_pairs([(-1, 1.5), (-1, 1.5)]))
        assert zero.schur_sign_pair is None


class TestLockstepPolish:
    @pytest.mark.parametrize("make, grid", [("exmults", 16), ("degen3", 8)])
    def test_equals_polishing_each_candidate_alone(self, make, grid, request):
        sys = degen3() if make == "degen3" else request.getfixturevalue(make)
        fld = system_field(sys)
        cloud = sweep_cloud(fld, sys.box, grid)
        assert len(cloud) > 8  # past the point-evaluation cutoff
        best, errors = polish_rows(fld, cloud)
        assert not errors
        want = np.array([polish_oracle(fld, z) for z in cloud])
        assert best.tobytes() == want.tobytes()

    def test_failures_are_per_row(self):
        fld = planar_field("ln(x1)", "y1")
        zs = np.array([[1.5, 0.2], [-1.0, 0.0], [2.0, 0.1], [-2.0, 0.0]])
        best, errors = polish_rows(fld, zs)
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
        best, errors = polish_rows(fld, zs)
        assert sorted(errors) == [1]
        assert best[0].tobytes() == polish_oracle(fld, zs[0]).tobytes()
        with pytest.raises(type(errors[1])) as alone:
            polish_oracle(fld, zs[1])
        assert str(errors[1]) == str(alone.value)
        assert "sqrt not differentiable" in str(errors[1])



FIELDS = ["pozzo", "equivlien", "exmults", "eqex1", "eqex2", "degen3",
          "r12", "r21", "r22"]


def fixture_system(name, request):
    if name == "degen3":
        return degen3()
    if name.startswith("r"):
        return load_system(str(GOLDEN / f"{name}.sys"))
    return request.getfixturevalue(name)


@pytest.fixture
def emitted(monkeypatch):
    """Counts of the emitted polish loops made and the candidates they
    ran."""
    counts = {"compiled": 0, "ran": 0}
    emit = degree_module._emit_polish

    def counting_emit(fld):
        counts["compiled"] += 1
        polish = emit(fld)

        def run(z):
            counts["ran"] += 1
            return polish(z)
        return run

    monkeypatch.setattr(degree_module, "_emit_polish", counting_emit)
    return counts


@pytest.fixture
def compiles(monkeypatch):
    """The sources builtins.compile is called with, one entry a call."""
    sources, compile_ = [], builtins.compile

    def counting(source, *args, **kwargs):
        sources.append(source)
        return compile_(source, *args, **kwargs)

    monkeypatch.setattr(builtins, "compile", counting)
    return sources


def assert_polish_is_oracle(fld, zs, best, errors):
    """Each row of best is polish_oracle's point bit for bit, or errors
    holds the error polish_oracle raises, with its message."""
    for i, z in enumerate(zs):
        if i in errors:
            with pytest.raises(type(errors[i])) as alone:
                polish_oracle(fld, z)
            assert str(errors[i]) == str(alone.value)
        else:
            assert best[i].tobytes() == polish_oracle(fld, z).tobytes()


class TestEmittedPolish:
    @pytest.mark.parametrize("name", FIELDS)
    def test_random_starts_equal_the_oracle(self, name, request, emitted):
        # a new field: the one system_field keeps on a shared system may
        # have made its polish in an earlier test
        sys = fixture_system(name, request)
        fld = VectorField(list(sys.f) + list(sys.g), sys.state_names,
                          k=sys.k)
        rng = np.random.default_rng(FIELDS.index(name) + 180)
        zs = sys.box.lo + rng.random((96, sys.box.dim)) * sys.box.width
        best, errors = polish_rows(fld, zs)
        # every candidate on the emitted loop, made once per field
        assert emitted["compiled"] == 1 and emitted["ran"] == len(zs)
        assert_polish_is_oracle(fld, zs, best, errors)
        again = polish_rows(fld, zs)
        assert emitted["compiled"] == 1
        assert emitted["ran"] == 2 * len(zs)
        assert again[0].tobytes() == best.tobytes()
        assert list(again[1]) == list(errors)

    @pytest.mark.parametrize("f, starts, taken_up", [
        # ln: Newton from 3 steps to x1 < 0, where the kernel raises
        (["ln(x1)", "y1"], [[3.0, 0.2], [0.5, 0.1], [-1.0, 0.0],
                            [2.0, 0.1]], {0, 2}),
        # sqrt: from 0.25 to -0.25; at x1 = 0 the partial divides by 0,
        # which raises for the row off the zero only
        (["sqrt(x1)", "y1"], [[0.25, 0.3], [0.0, 0.0], [0.0, 0.5]],
         {0, 1, 2}),
        # exp: from -8 to about 2972, beyond exp's range
        (["exp(x1) - 1"], [[-8.0], [0.5], [0.0]], {0}),
        (["ln(x1)"], [[3.0], [0.5]], {0}),
        # finite partials whose sum overflows: numpy's nan order from the
        # start
        (["1e308*x1 - 1e308", "1e308*y1"], [[1.5, 0.5], [0.9, -0.2]],
         {0, 1}),
        # no bad iterate: a Newton 2-cycle 0 <-> 1 whose residuals tie at
        # 0.5 keeps the earlier point, and a step that overflows to -inf
        # ends the polish
        (["x1^3 - 1.5*x1^2 - 0.5*x1 + 0.5"], [[0.0], [1.0]], set()),
        (["1e-300*x1 + 1e300"], [[1.0]], set()),
    ])
    def test_hand_off_to_the_generic_loop(self, f, starts, taken_up,
                                          emitted):
        # taken_up: the rows that meet an iterate where the kernel raises
        # or its guard sum is not finite, which the loop evaluates at its
        # point (Kernel.values, then Kernel.dual)
        names = ["x1", "y1"][:len(f)]
        fld = VectorField([expr.parse(e, names) for e in f], names)
        zs = np.array(starts)
        at_point, values = [], fld._kernel.values

        def recording(env):
            at_point.append(env)
            return values(env)

        fld._kernel.values = recording
        taken = set()
        for r, z in enumerate(zs.tolist()):
            before = len(at_point)
            try:
                fld._polish(z)
            except POLISH_ERRORS:
                pass
            if len(at_point) > before:
                taken.add(r)
        assert taken == taken_up
        best, errors = polish_rows(fld, zs)
        assert emitted["ran"] == 2 * len(zs)
        assert_polish_is_oracle(fld, zs, best, errors)

    def test_hand_off_errors_are_per_row(self, emitted):
        # the errors the point evaluations raise at a bad iterate, by row
        cases = [
            (["ln(x1)", "y1"], [[3.0, 0.2], [0.5, 0.1], [-1.0, 0.0]],
             {0: "ln of nonpositive value -0.29583686600432957 in 'ln(x1)'",
              2: "ln of nonpositive value -1.0 in 'ln(x1)'"}),
            (["sqrt(x1)", "y1"], [[0.25, 0.3], [0.0, 0.0], [0.0, 0.5]],
             {0: "sqrt of negative value -0.25 in 'sqrt(x1)'",
              2: "sqrt not differentiable at 0.0 in 'sqrt(x1)'"}),
            (["exp(x1) - 1"], [[-8.0], [0.5]],
             {0: "exp overflow in 'exp(x1)'"}),
        ]
        for f, starts, want in cases:
            names = ["x1", "y1"][:len(f)]
            fld = VectorField([expr.parse(e, names) for e in f], names)
            errors = polish_rows(fld, np.array(starts))[1]
            assert {r: str(exc) for r, exc in errors.items()} == want
            assert all(type(exc) is ExprDomainError for exc in errors.values())

    @pytest.mark.parametrize("f, start", [
        # a step to a subnormal x1, where ln's partial 1/x1 overflows to
        # inf (and the huge y1 residual makes that iterate the best)
        (["ln(x1) + 691.7755278982127", "1e300*y1"], [1e-300, 0.5]),
        # at a subnormal x1 the partial of ln(x1) - ln(x1) is inf - inf
        (["ln(x1) - ln(x1) + y1", "x1 - 1e-310"], [1e-310, 0.5]),
    ])
    def test_non_finite_point_jacobians_end_as_the_oracle(self, f, start):
        # the bad iterate's Kernel.dual Jacobian is not finite but raises
        # nothing; the loop's solve on it (emit's LU, bound to FED's
        # builtins) ends the polish at the oracle's best point
        names = ["x1", "y1"]
        fld = VectorField([expr.parse(e, names) for e in f], names)
        jacobians, dual = [], fld._kernel.dual

        def recording(env, cols=None):
            vals, jac = dual(env, cols)
            jacobians.append(jac)
            return vals, jac

        fld._kernel.dual = recording
        best, errors = polish_rows(fld, np.array([start]))
        assert errors == {} and len(jacobians) == 1
        assert not np.isfinite(jacobians[0]).all()
        assert_polish_is_oracle(fld, [start], best, errors)

    @pytest.mark.parametrize("n", [7, 8])
    def test_eight_entries_run_the_emitted_loop(self, n, emitted):
        # from 8 entries np.sum adds the residual pairwise, which the loop
        # does by calling norm1; below 8 it sums in its own code
        fld, box = ring_field(n)
        rng = np.random.default_rng(188)
        zs = box.lo + rng.random((24, n)) * box.width
        best, errors = polish_rows(fld, zs)
        assert emitted["ran"] == len(zs)
        assert_polish_is_oracle(fld, zs, best, errors)

    @pytest.mark.parametrize("name", ["pozzo", "equivlien", "eqex1", "eqex2",
                                      "r12", "r21", "r22"])
    def test_regular_fixtures_never_compile_it(self, name, emitted, compiles):
        # a second SystemDef of the same text compiles nothing: its zero
        # polish, which every find_zeros call now emits, and its other
        # emitted functions come from the process-wide compile cache.
        # Each is built past load_system's cache, which would return the
        # one instance whose polish an earlier test may have made.
        path = (GOLDEN / f"{name}.sys" if name.startswith("r")
                else system_path(name))
        for _ in range(2):
            sys = sysfile._system.__wrapped__(Path(path).read_text())
            ran = emitted["ran"]
            compiles.clear()
            for grid in (8, 16):
                find_zeros(sys, sys.box, grid)
            try:
                validate(sys)
            except HypothesisViolationError:
                pass
        assert compiles == []
        # eqex1 (f = 1) has no zero, so no candidate to polish
        assert (emitted["ran"] > ran) == (name != "eqex1")


def assert_same_records(got, want):
    """Equal zero records: point and residual bytes, index, degeneracy,
    schur_sign_pair and boundary flag."""
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.point.tobytes() == b.point.tobytes()
        assert np.float64(a.residual).tobytes() == np.float64(
            b.residual).tobytes()
        assert (a.index, a.degenerate, a.schur_sign_pair, a.near_boundary) \
            == (b.index, b.degenerate, b.schur_sign_pair, b.near_boundary)


class TestClusterHeads:
    @pytest.mark.parametrize("name", ["pozzo", "equivlien", "exmults",
                                      "degen3"])
    @pytest.mark.parametrize("grid", [8, 16])
    def test_fixtures_equal_the_oracle(self, name, grid, request):
        sys = fixture_system(name, request)
        assert_same_records(find_zeros(sys, sys.box, grid),
                            find_zeros_oracle(sys, sys.box, grid))

    @pytest.mark.parametrize("name", ["r12", "r21", "r22"])
    def test_pool_systems_equal_the_oracle(self, name, request):
        sys = fixture_system(name, request)
        assert_same_records(find_zeros(sys, sys.box),
                            find_zeros_oracle(sys, sys.box))

    def test_random_draws_equal_the_oracle(self):
        rng = np.random.default_rng(361)
        for k, s in ((1, 1), (1, 2), (2, 1)):
            sys, _ = random_system(rng, k, s)
            for grid in (6, 10):
                assert_same_records(find_zeros(sys, sys.box, grid),
                                    find_zeros_oracle(sys, sys.box, grid))
        for _ in range(4):
            fld, box, _ = random_planar_map(rng)
            for grid in (8, 12):
                assert_same_records(find_zeros(fld, box, grid),
                                    find_zeros_oracle(fld, box, grid))

    @pytest.mark.parametrize("name, grid, heads, cloud", [
        ("exmults", 16, 4, 204), ("degen3", 8, 2, 55)])
    def test_one_polish_per_cluster(self, name, grid, heads, cloud, request,
                                    emitted):
        # a new field, whose polish the counting emitter makes; the
        # oracle polishes every point of the 1e-10 merge
        sys = fixture_system(name, request)
        fld = VectorField(list(sys.f) + list(sys.g), sys.state_names,
                          k=sys.k)
        zeros = find_zeros(fld, sys.box, grid)
        assert emitted == {"compiled": 1, "ran": heads}
        assert len(sweep_cloud(fld, sys.box, grid)) == cloud
        assert_same_records(zeros, find_zeros_oracle(fld, sys.box, grid))


class TestCompileCache:
    @staticmethod
    def system(c, w):
        """x1' = c*x1 - y1 with g = c*y1 - 1 on [-w, w]^2: one zero, at
        (1/c^2, 1/c), and det d2g = c everywhere."""
        names = ["x1", "y1"]
        return SystemDef(1, 1, 2 * math.pi,
                         [expr.parse(f"{c}*x1 - y1", names)],
                         [expr.parse(f"{c}*y1 - 1", names)], None,
                         Box.from_pairs([(-w, w)] * 2))

    def test_equal_sources_share_one_code_object(self):
        # the emitted text is the same for both constants and both boxes,
        # which come in through each function's own namespace
        names = ["x1", "y1"]
        (lines_a, consts_a), (lines_b, consts_b) = (
            expr._kernel_code([expr.parse(f"{c}*x1 - y1", names)], names)
            for c in (2.5, 3.5))
        assert lines_a == lines_b
        assert (consts_a, consts_b) == ({"k0": 2.5}, {"k0": 3.5})
        a, b = self.system(2.5, 1.0), self.system(3.5, 1.5)
        fa, fb = system_field(a), system_field(b)
        assert fa._polish.__code__ is fb._polish.__code__
        assert _emit_det_polish(a).__code__ is _emit_det_polish(b).__code__
        for batch in (False, True):
            assert (a.kernel(a.f)._fn(batch).__code__
                    is b.kernel(b.f)._fn(batch).__code__)
        # each still gets its own answers
        for c, sys, fld in ((2.5, a, fa), (3.5, b, fb)):
            [zero] = find_zeros(fld, sys.box, 8)
            assert zero.point == pytest.approx([1 / c**2, 1 / c], rel=1e-14)
            report = validate(sys)
            assert report.min_abs_det == c and report.refined_min_abs_det == c


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
