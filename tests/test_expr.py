import math
import re
import struct
from pathlib import Path

import numpy as np
import pytest

import helpers
from conftest import system_path
from daekit import emit, expr, load_system
from daekit.dae import Box, SystemDef
from daekit.degree import VectorField, system_field
from daekit.errors import ExprDomainError, ExprSyntaxError, UndeclaredVariableError
from helpers import random_tree, same_bits, usable_tree_and_point

GOLDEN = Path(__file__).resolve().parent / "golden"


def bits(x):
    return struct.pack("<d", x)


def count_vars(e):
    if isinstance(e, expr.Var):
        return 1
    if isinstance(e, expr.Unary):
        return count_vars(e.a)
    if isinstance(e, expr.Binary):
        return count_vars(e.a) + count_vars(e.b)
    if isinstance(e, expr.Power):
        return count_vars(e.a)
    return 0


class TestParse:
    def test_constraint_formula(self):
        tree = expr.parse("y1^3 + y1 - x1^2", ["x1", "y1"])
        assert count_vars(tree) == 3
        assert expr.variables(tree) == {"x1", "y1"}

    def test_syntax_error_position(self):
        with pytest.raises(ExprSyntaxError) as err:
            expr.parse("x1 +", ["x1"])
        assert err.value.position == 4

    def test_undeclared_variable(self):
        with pytest.raises(UndeclaredVariableError) as err:
            expr.parse("z1", ["x1"])
        assert err.value.name == "z1"

    def test_precedence(self):
        env = {"x1": 2.0}
        assert expr.evaluate(expr.parse("-x1^2", ["x1"]), env) == -4.0
        assert expr.evaluate(expr.parse("2 + 3*4", []), {}) == 14.0
        assert expr.evaluate(expr.parse("2*3^2", []), {}) == 18.0
        assert expr.evaluate(expr.parse("x1^-2", ["x1"]), env) == 0.25

    def test_exponent_must_be_integer(self):
        with pytest.raises(ExprSyntaxError):
            expr.parse("x1^1.5", ["x1"])
        with pytest.raises(ExprSyntaxError):
            expr.parse("x1^y1", ["x1", "y1"])

    def test_function_call(self):
        tree = expr.parse("sin(x1)*cos(x1)", ["x1"])
        assert expr.evaluate(tree, {"x1": 0.3}) == pytest.approx(
            math.sin(0.3) * math.cos(0.3), rel=1e-15
        )


class TestEvaluate:
    def test_polynomial(self):
        tree = expr.parse("y1^3 + y1 - x1^2", ["x1", "y1"])
        assert expr.evaluate(tree, {"x1": 2.0, "y1": 1.0}) == -2.0

    def test_sin_at_zero(self):
        assert expr.evaluate(expr.parse("sin(t)", ["t"]), {"t": 0.0}) == 0.0

    def test_division_by_zero(self):
        tree = expr.parse("x1/y1", ["x1", "y1"])
        with pytest.raises(ExprDomainError) as err:
            expr.evaluate(tree, {"x1": 1.0, "y1": 0.0})
        assert "x1 / y1" in str(err.value)

    def test_log_domain(self):
        tree = expr.parse("ln(x1)", ["x1"])
        with pytest.raises(ExprDomainError):
            expr.evaluate(tree, {"x1": -1.0})
        with pytest.raises(ExprDomainError):
            expr.evaluate(expr.parse("sqrt(x1)", ["x1"]), {"x1": -4.0})


class TestDual:
    def test_cubic_at_origin(self):
        tree = expr.parse("y1^3 + y1", ["y1"])
        assert expr.evaluate_dual(tree, {"y1": 0.0}, {"y1": 1.0}) == (0.0, 1.0)

    def test_square(self):
        tree = expr.parse("x1^2", ["x1"])
        assert expr.evaluate_dual(tree, {"x1": 3.0}, {"x1": 1.0}) == (9.0, 6.0)

    def test_zero_seed(self):
        tree = expr.parse("sin(x1)*exp(y1) - x1/y1", ["x1", "y1"])
        _, d = expr.evaluate_dual(tree, {"x1": 0.7, "y1": 1.3}, {})
        assert d == 0.0


class TestSymbolicDiff:
    def test_constraint_partials(self):
        tree = expr.parse("y1^3 + y1 - x1^2", ["x1", "y1"])
        dq = expr.symbolic_diff(tree, "y1")
        assert expr.evaluate(dq, {"x1": 0.0, "y1": 0.0}) == 1.0
        dp = expr.symbolic_diff(tree, "x1")
        assert expr.evaluate(dp, {"x1": 1.0, "y1": 0.0}) == -2.0

    def test_time_independent(self):
        tree = expr.parse("x1", ["x1"])
        dt = expr.symbolic_diff(tree, "t")
        assert expr.evaluate(dt, {"x1": 5.0}) == 0.0


class TestProperties:
    def test_dual_matches_central_differences(self):
        rng = np.random.default_rng(101)
        names = ["t", "x1", "y1"]
        h = 1e-6
        for _ in range(1000):
            tree, env, seed = usable_tree_and_point(rng, names, need_dual=True)
            _, d = expr.evaluate_dual(tree, env, seed)
            try:
                plus = expr.evaluate(
                    tree, {k: v + h * seed.get(k, 0.0) for k, v in env.items()}
                )
                minus = expr.evaluate(
                    tree, {k: v - h * seed.get(k, 0.0) for k, v in env.items()}
                )
            except ExprDomainError:
                continue
            fd = (plus - minus) / (2 * h)
            if not np.isfinite(fd) or abs(fd) > 1e5:
                continue
            assert abs(d - fd) <= 1e-6 * (1.0 + abs(d))

    def test_symbolic_matches_dual(self):
        rng = np.random.default_rng(202)
        names = ["x1", "y1"]
        checked = 0
        while checked < 1000:
            tree, env = usable_tree_and_point(rng, names)
            var = str(rng.choice(names))
            try:
                sym = expr.evaluate(expr.symbolic_diff(tree, var), env)
                _, dual = expr.evaluate_dual(tree, env, {var: 1.0})
            except ExprDomainError:
                continue
            if not (np.isfinite(sym) and np.isfinite(dual)) or abs(dual) > 1e8:
                continue
            assert abs(sym - dual) <= 1e-10 * (1.0 + abs(dual))
            checked += 1

    def test_print_parse_roundtrip(self):
        rng = np.random.default_rng(303)
        names = ["x1", "y1", "t"]
        for _ in range(100):
            tree, env = usable_tree_and_point(rng, names)
            back = expr.parse(expr.to_string(tree), names)
            v1 = expr.evaluate(tree, env)
            v2 = expr.evaluate(back, env)
            assert abs(v1 - v2) <= 1e-12 * (1.0 + abs(v1))

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(404)
        names = ["x1", "y1"]
        for _ in range(50):
            tree, _ = usable_tree_and_point(rng, names)
            pts = {nm: rng.uniform(0.1, 2.0, size=40) for nm in names}
            batch = np.broadcast_to(expr.evaluate_batch(tree, pts), (40,))
            bval, bder = expr.evaluate_dual_batch(tree, pts, {"x1": 1.0})
            bval = np.broadcast_to(bval, (40,))
            bder = np.broadcast_to(bder, (40,))
            for i in range(0, 40, 7):
                env = {nm: float(pts[nm][i]) for nm in names}
                try:
                    v = expr.evaluate(tree, env)
                    _, d = expr.evaluate_dual(tree, env, {"x1": 1.0})
                except ExprDomainError:
                    continue
                assert batch[i] == pytest.approx(v, rel=1e-12, abs=1e-12)
                assert bval[i] == pytest.approx(v, rel=1e-12, abs=1e-12)
                if np.isfinite(bder[i]) and abs(d) < 1e8:
                    assert bder[i] == pytest.approx(d, rel=1e-10, abs=1e-10)

    def test_substitute(self):
        tree = expr.parse("x1^2 + y1", ["x1", "y1"])
        fixed = expr.substitute(tree, {"y1": 0.0})
        assert expr.variables(fixed) == {"x1"}
        assert expr.evaluate(fixed, {"x1": 3.0}) == 9.0


class TestKernel:
    def test_point_kernel_matches_strict_walker(self):
        rng = np.random.default_rng(505)
        names = ["x1", "y1", "t"]
        seeds = [{nm: 1.0} for nm in names]
        compared = 0
        for _ in range(1000):
            tree, env = usable_tree_and_point(rng, names)
            point, _ = expr.compile_kernel([tree], seeds)
            vals, ders = [0.0], [0.0] * len(seeds)
            point(env, vals)
            assert bits(vals[0]) == bits(expr._strict(tree, env))
            try:
                point(env, vals, ders)
            except (ValueError, ZeroDivisionError, OverflowError):
                continue  # the strict walker decides these points
            for seed, d in zip(seeds, ders):
                v_ref, d_ref = expr._strict(tree, env, seed)
                assert bits(vals[0]) == bits(v_ref)
                assert bits(d) == bits(d_ref)
            compared += 1
        assert compared >= 950

    def test_entry_major_batch_equals_row_major_views(self):
        # the batch code writes entry i to out[i], one contiguous array;
        # written through strided views of row-major (N, m) and (N, m, n)
        # arrays, the former layout, it gives the same bits
        rng = np.random.default_rng(707)
        names = ["x1", "y1", "t"]
        seeds = [{nm: 1.0} for nm in names]
        n_pts = 64
        for _ in range(200):
            kern = expr.Kernel([random_tree(rng, names) for _ in range(3)],
                               seeds)
            zs = rng.uniform(-2, 2, (n_pts, 3))
            env = {nm: zs[:, i] for i, nm in enumerate(names)}
            vals, ders = np.empty((3, n_pts)), np.empty((9, n_pts))
            assert kern.dual_batch(env, ders, vals) is ders
            only = kern.values_batch(env, np.empty((3, n_pts)))
            rv, rd = np.empty((n_pts, 3)), np.empty((n_pts, 9))
            with np.errstate(all="ignore"):
                kern._fn(True)(env, rv.T, rd.T)
            assert same_bits(vals, rv.T) and same_bits(only, rv.T)
            assert same_bits(ders, rd.T)

    def test_entry_major_batch_equals_the_point_kernel(self):
        # on trees of + - * / and negation, which numpy and float
        # arithmetic round alike (numpy's exp, log and power need not),
        # each column of the entry-major batch is the point kernel's
        # result at that point, bit for bit
        def exact(e):
            if isinstance(e, expr.Binary):
                return exact(e.a) and exact(e.b)
            if isinstance(e, expr.Unary):
                return e.op == "neg" and exact(e.a)
            return not isinstance(e, expr.Power)

        rng = np.random.default_rng(808)
        names = ["x1", "y1"]
        seeds = [{nm: 1.0} for nm in names]
        n_pts = 32
        compared = kernels = 0
        while kernels < 150:
            trees = [random_tree(rng, names) for _ in range(2)]
            if not all(map(exact, trees)):
                continue
            kernels += 1
            kern = expr.Kernel(trees, seeds)
            zs = rng.uniform(-2, 2, (2, n_pts))
            env = dict(zip(names, zs))
            vals, ders = np.empty((2, n_pts)), np.empty((4, n_pts))
            kern.dual_batch(env, ders, vals)
            only = kern.values_batch(env, np.empty((2, n_pts)))
            point = kern._fn(False)
            for r in range(n_pts):
                v, d = [0.0] * 2, [0.0] * 4
                try:
                    point(dict(zip(names, zs[:, r].tolist())), v, d)
                except ZeroDivisionError:
                    continue
                assert same_bits(vals[:, r], v) and same_bits(only[:, r], v)
                assert same_bits(ders[:, r], d)
                compared += 1
        assert compared >= 140 * n_pts

    @pytest.mark.parametrize("text, point, message, subexpr", [
        ("sqrt(x1)", {"x1": 0.0, "y1": 1.0}, "sqrt not differentiable at 0.0",
         "sqrt(x1)"),
        ("ln(x1) + y1", {"x1": -1.0, "y1": 1.0}, "ln of nonpositive value -1.0",
         "ln(x1)"),
        ("y1 + x1 / (y1 - 1)", {"x1": 2.0, "y1": 1.0}, "division by zero",
         "x1 / (y1 - 1.0)"),
        ("y1 + x1^-2", {"x1": 0.0, "y1": 1.0},
         "zero base with negative exponent", "x1^-2"),
    ])
    def test_jacobians_name_the_failing_subexpression(self, text, point,
                                                       message, subexpr):
        names = ["x1", "y1"]
        e = expr.parse(text, names)
        sysdef = SystemDef(1, 1, 1.0, [expr.Var("y1")], [e],
                           box=Box.from_pairs([(-3, 3)] * 2))
        fld = VectorField([expr.Var("y1"), e], names)
        calls = [
            lambda: sysdef.jac_rows(sysdef.g, sysdef.env([point["x1"]], [point["y1"]]),
                                    sysdef.state_names),
            lambda: fld.jacobian(np.array([point["x1"], point["y1"]])),
        ]
        for call in calls:
            with pytest.raises(ExprDomainError) as err:
                call()
            assert message in str(err.value)
            assert subexpr in str(err.value)

    def test_infinite_constant(self):
        e = expr.parse("1e999*x1", ["x1"])
        for x, want, dwant in [(2.0, math.inf, math.inf), (0.0, math.nan, math.inf),
                               (-1.0, -math.inf, math.inf)]:
            got = expr.evaluate(e, {"x1": x})
            value, deriv = expr.evaluate_dual(e, {"x1": x}, {"x1": 1.0})
            bval, bder = expr.evaluate_dual_batch(e, {"x1": np.array([x])},
                                                  {"x1": 1.0})
            batch = expr.evaluate_batch(e, {"x1": np.array([x])})
            for v in (got, value, bval[0], batch[0]):
                assert v == want or (math.isnan(v) and math.isnan(want))
            assert deriv == dwant and bder[0] == dwant

    def test_negative_constant_base(self):
        # the derivative of (-2)^n is a structural zero, +0.0 everywhere
        # (dense forward mode read -0.0 for n = 2, from 2 * (-2.0) * 0.0)
        for n, want, dwant in [(2, 4.0, 0.0), (3, -8.0, 0.0)]:
            e = expr.Power(expr.Const(-2.0), n)
            value, deriv = expr.evaluate_dual(e, {}, {"x1": 1.0})
            bval, bder = expr.evaluate_dual_batch(e, {}, {})
            for v in (expr.evaluate(e, {}), value, expr.evaluate_batch(e, {}),
                      bval):
                assert bits(float(v)) == bits(want)
            assert bits(deriv) == bits(dwant)
            assert bits(float(bder)) == bits(dwant)

    def test_folding_keeps_every_nonzero_derivative(self):
        # sparse forward mode against the dense walk (every product with a
        # 0.0 or 1.0 seed entry kept): where every dense value is finite, a
        # nonzero dense derivative keeps its bits at the point kernel, in
        # each batch column and in the strict walker, and a zero one stays
        # zero (its sign may change)
        rng = np.random.default_rng(909)
        names = ["x1", "y1"]
        seeds = [{"x1": 1.0}, {"y1": 1.0}, {"x1": 0.5, "y1": -1.25}, {}]
        exponents = (-3, -2, -1, 0, 1, 2, 3)
        n_pts, m, n = 8, 2, len(seeds)
        counts = {"point": 0, "batch": 0, "strict": 0, "zero": 0}

        def agree(got, dense, where):
            if dense == 0.0:
                assert got == 0.0, where
                counts["zero"] += 1
            else:
                assert bits(got) == bits(dense), where

        for _ in range(1000):
            trees = [random_tree(rng, names, exponents=exponents)
                     for _ in range(m)]
            point, batch = expr.compile_kernel(trees, seeds)
            zs = rng.uniform(-2, 2, (2, n_pts))
            env = dict(zip(names, zs))
            vals, ders = np.empty((m, n_pts)), np.empty((m * n, n_pts))
            with np.errstate(all="ignore"):
                batch(env, vals, ders)
                dense = [[helpers.dense_dual_oracle(e, env, s, emit.BATCH)
                          for s in seeds] for e in trees]
            for i, e in enumerate(trees):
                for j in range(n):
                    dv, dd = np.broadcast_arrays(*dense[i][j], zs[0])[:2]
                    for r in np.flatnonzero(np.isfinite(dv) & np.isfinite(dd)):
                        assert bits(vals[i, r]) == bits(dv[r])
                        agree(ders[i * n + j, r], dd[r], (e, j, r))
                        counts["batch"] += 1
            for r in range(n_pts):
                at = {nm: float(z) for nm, z in zip(names, zs[:, r])}
                try:
                    ref = [[helpers.dense_dual_oracle(e, at, s) for s in seeds]
                           for e in trees]
                except expr.ROW_ERRORS:
                    continue
                if not all(map(math.isfinite, np.ravel(ref))):
                    continue
                v, d = [0.0] * m, [0.0] * (m * n)
                try:
                    point(at, v, d)
                except (ValueError, ZeroDivisionError, OverflowError):
                    pass  # sqrt at 0, or the base of x^0: the walks decide
                else:
                    for i in range(m):
                        assert bits(v[i]) == bits(ref[i][0][0])
                        for j in range(n):
                            agree(d[i * n + j], ref[i][j][1], (trees[i], j, at))
                    counts["point"] += 1
                for i, e in enumerate(trees):
                    for j, s in enumerate(seeds):
                        sv, sd = expr._strict(e, at, s)
                        assert bits(sv) == bits(ref[i][j][0])
                        agree(sd, ref[i][j][1], (e, j, at))
                counts["strict"] += 1
        assert counts["point"] >= 2500 and counts["strict"] >= 2500
        assert counts["batch"] >= 40000 and counts["zero"] >= 10000

    def test_derivatives_multiply_by_no_literal_zero_or_one(self):
        literal_product = re.compile(r"(?<![\w.])[01]\.0\s*\*|\*\s*[01]\.0(?![\w.])")
        r22 = load_system(str(GOLDEN / "r22.sys"))
        fld = system_field(r22)
        lines, _ = expr._kernel_lines(fld.exprs,
                                      [{nm: 1.0} for nm in fld.var_names])
        texts = [text for text, _, _, in_block in lines if in_block]
        # f2 has no y2 term: its partial along y2 is D[1 * 4 + 3]
        assert "D[7] = 0.0" in texts
        stage, _ = expr._kernel_code(r22.fgh, r22.state_names)
        assert "D1_3 = 0.0" in stage
        pozzo = load_system(system_path("pozzo"))
        pozzo_stage, _ = expr._kernel_code(pozzo.fgh, pozzo.state_names)
        rng = np.random.default_rng(910)
        names = ["x1", "y1"]
        trees = [random_tree(rng, names, exponents=(-2, 0, 1, 2, 3))
                 for _ in range(200)]
        tree_lines, _ = expr._kernel_lines(
            trees, [{"x1": 1.0}, {"y1": 1.0}, {"x1": 0.0, "y1": 2.5}])
        texts += stage + pozzo_stage + [text for text, *_ in tree_lines]
        assert texts and not [t for t in texts if literal_product.search(t)]
