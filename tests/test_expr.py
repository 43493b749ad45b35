import ast
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
from daekit.errors import (
    DaekitError,
    ExprDomainError,
    ExprSyntaxError,
    UndeclaredVariableError,
)
from daekit.sysfile import load_hessenberg, load_implicit
from helpers import random_tree, same_bits, usable_tree_and_point
from test_golden import QUERIES, ROOT

GOLDEN = Path(__file__).resolve().parent / "golden"
# what the oracle's evaluation at one point can raise; the point is skipped
ORACLE_ERRORS = (DaekitError, ArithmeticError, ValueError)


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

    def test_power_overflow(self):
        # a float power raises OverflowError where a product would give
        # inf: in the value, and for x1 = 1e-103 only in the derivative's
        # x1^-3
        for text, x in [("x1^400", 10.0), ("x1^-2", 1e-200), ("x1^-2", 1e-103)]:
            with pytest.raises(ExprDomainError, match="overflows") as err:
                expr.evaluate_dual(expr.parse(text, ["x1"]), {"x1": x},
                                   {"x1": 1.0})
            assert err.value.subexpression == text

    def test_sin_and_cos_of_infinity(self):
        for text in ("sin(1e308*x1*10)", "cos(1e308*x1*10)"):
            e = expr.parse(text, ["x1"])
            with pytest.raises(ExprDomainError, match="of inf") as err:
                expr.evaluate(e, {"x1": 1.0})
            assert err.value.subexpression == expr.to_string(e)

    def test_quotient_derivative_underflow(self):
        # 1 / 1e-200 is finite, but the derivative divides by
        # 1e-200 * 1e-200, which is 0.0
        e = expr.parse("1/x1", ["x1"])
        assert expr.evaluate(e, {"x1": 1e-200}) == 1e200
        with pytest.raises(ExprDomainError, match="underflows") as err:
            expr.evaluate_dual(e, {"x1": 1e-200}, {"x1": 1.0})
        assert err.value.subexpression == "1.0 / x1"


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
    def test_point_kernel_matches_the_dense_oracle(self):
        # where the dense walk answers, the point function's value and
        # Kernel.dual (through the checked text where the point function
        # raises) have its bits, and so has every nonzero finite dense
        # derivative; a zero one stays zero (its sign may change)
        rng = np.random.default_rng(505)
        names = ["x1", "y1", "t"]
        seeds = [{nm: 1.0} for nm in names]
        compared = 0
        for _ in range(1000):
            tree, env = usable_tree_and_point(rng, names)
            kern = expr.Kernel([tree], seeds)
            vals = [0.0]
            kern._fn(False)(env, vals)
            try:
                ref = [helpers.dense_dual_oracle(tree, env, s) for s in seeds]
            except ORACLE_ERRORS:
                continue
            got, jac = kern.dual(env)
            for (v_ref, d_ref), d in zip(ref, jac[0].tolist()):
                assert bits(vals[0]) == bits(got[0]) == bits(v_ref)
                if d_ref == 0.0:
                    assert d == 0.0
                elif math.isfinite(d_ref):
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
        # each batch column and in Kernel.dual, and a zero one stays zero
        # (its sign may change)
        rng = np.random.default_rng(909)
        names = ["x1", "y1"]
        seeds = [{"x1": 1.0}, {"y1": 1.0}, {"x1": 0.5, "y1": -1.25}, {}]
        exponents = (-3, -2, -1, 0, 1, 2, 3)
        n_pts, m, n = 8, 2, len(seeds)
        counts = {"point": 0, "batch": 0, "kernel": 0, "zero": 0}

        def agree(got, dense, where):
            if dense == 0.0:
                assert got == 0.0, where
                counts["zero"] += 1
            else:
                assert bits(got) == bits(dense), where

        for _ in range(1000):
            trees = [random_tree(rng, names, exponents=exponents)
                     for _ in range(m)]
            kern = expr.Kernel(trees, seeds)
            point, batch = kern._fn(False), kern._fn(True)
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
                except ORACLE_ERRORS:
                    continue
                if not all(map(math.isfinite, np.ravel(ref))):
                    continue
                v, d = [0.0] * m, [0.0] * (m * n)
                try:
                    point(at, v, d)
                except (ValueError, ZeroDivisionError, OverflowError):
                    pass  # sqrt at 0: the checked text decides
                else:
                    for i in range(m):
                        assert bits(v[i]) == bits(ref[i][0][0])
                        for j in range(n):
                            agree(d[i * n + j], ref[i][j][1], (trees[i], j, at))
                    counts["point"] += 1
                kv, kd = kern.dual(at)
                for i, e in enumerate(trees):
                    for j in range(n):
                        assert bits(kv[i]) == bits(ref[i][j][0])
                        agree(kd[i, j], ref[i][j][1], (e, j, at))
                counts["kernel"] += 1
        assert counts["point"] >= 2500 and counts["kernel"] >= 2500
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

    def test_kernels_call_only_the_bound_names(self):
        # every kernel line, of the golden systems and of random trees with
        # exponents -3..3, calls only names that emit.POINT and emit.BATCH
        # bind: one power, pw, for values and derivatives alike
        def lines(exprs, seeds):
            return [text for text, *_ in expr._kernel_lines(exprs, seeds)[0]]

        loaders = {"reduce-hessenberg": load_hessenberg,
                   "reduce-implicit": load_implicit}
        inputs = {(argv[0], argv[1]) for argv, _, _ in QUERIES.values()}
        texts = []
        for cmd, path in sorted(inputs):
            sys = loaders.get(cmd, load_system)(str(ROOT / path))
            fld = system_field(sys)
            state = [{nm: 1.0} for nm in sys.state_names]
            for exprs in (sys.f, sys.g, sys.h, sys.fgh, sys.d2g_flat):
                texts += lines(exprs, state)
            texts += lines(fld.exprs, [{nm: 1.0} for nm in fld.var_names])
            for part in ("fgh", "g", "U"):
                texts += sys._point_code(part)
            texts += expr._kernel_code(fld.exprs, fld.var_names, at="Z")[0]
            texts += expr._kernel_code(sys.d2g_flat, sys.state_names, at="Z")[0]
        rng = np.random.default_rng(912)
        names = ["x1", "y1"]
        trees = [random_tree(rng, names, exponents=range(-3, 4))
                 for _ in range(200)]
        texts += lines(trees, [{"x1": 1.0}, {"y1": 1.0}, {"x1": 0.5, "y1": 2.5}])
        texts += expr._kernel_code(trees, names)[0]
        calls = {ast.unparse(node.func) for text in texts
                 for node in ast.walk(ast.parse(text))
                 if isinstance(node, ast.Call)}
        assert calls == set(emit.POINT) == set(emit.BATCH) == {
            "sin", "cos", "exp", "log", "sqrt", "div", "pw"}

    def test_zeroth_power_never_evaluates_its_base(self):
        # ln(-1) would raise at a point and read nan on a batch
        point, batch = expr.compile_kernel([expr.parse("ln(x1)^0", ["x1"])],
                                           [{"x1": 1.0}])
        v, d = [0.0], [0.0]
        point({"x1": -1.0}, v, d)
        assert (bits(v[0]), bits(d[0])) == (bits(1.0), bits(0.0))
        vals, ders = np.empty((1, 2)), np.empty((1, 2))
        batch({"x1": np.array([-1.0, 2.0])}, vals, ders)
        assert same_bits(vals, [[1.0, 1.0]]) and same_bits(ders, [[0.0, 0.0]])

    def test_first_power_is_its_base(self):
        xs = np.array([-0.0, 0.0, 5e-324, -1.5, 1e308, math.inf, -math.inf,
                       math.nan])
        point, batch = expr.compile_kernel([expr.parse("x1^1", ["x1"])],
                                           [{"x1": 1.0}])
        for x in xs.tolist():
            v, d = [0.0], [0.0]
            point({"x1": x}, v, d)
            assert (bits(v[0]), bits(d[0])) == (bits(x), bits(1.0))
        vals, ders = np.empty((1, len(xs))), np.empty((1, len(xs)))
        batch({"x1": xs}, vals, ders)
        assert same_bits(vals[0], xs) and same_bits(ders, np.ones((1, len(xs))))

    def test_batch_negative_power_is_np_power(self):
        # values and derivative code read the one value np.power(x1, -2)
        xs = np.random.default_rng(913).uniform(-2, 2, 64)
        kern = expr.Kernel([expr.parse("x1^-2", ["x1"])], [{"x1": 1.0}])
        only = kern.values_batch({"x1": xs}, np.empty((1, len(xs))))
        vals, ders = np.empty((1, len(xs))), np.empty((1, len(xs)))
        kern.dual_batch({"x1": xs}, ders, vals)
        assert same_bits(only[0], np.power(xs, -2))
        assert same_bits(vals[0], np.power(xs, -2))
        assert same_bits(ders[0], -2 * np.power(xs, -3))


class TestCheckedText:
    """Kernel names a failure by running the point again through the
    checked text of its kernel: the point text whose calls take their sites
    (expr._kernel_lines with checked, bound to emit.CHECKED)."""

    X = ["x1", "x2"]

    def test_exp_past_709_hides_no_other_row(self):
        # exp(709.5) is 1.35e308: the quotient row names its own failure,
        # or is simply inf
        kern = expr.Kernel([expr.parse(t, self.X)
                            for t in ("exp(x1)", "1/x2")])
        with pytest.raises(ExprDomainError) as err:
            kern.values({"x1": 709.5, "x2": 0.0})
        assert str(err.value) == "division by zero in '1.0 / x2'"
        vals = kern.values({"x1": 709.5, "x2": 1e-320})
        assert same_bits(vals, [math.exp(709.5), math.inf])
        for text, x1 in [("exp(x1 * 1e200 * 1e200)", 1.0), ("exp(x1)", 710.0),
                         ("exp(x1)", math.inf)]:
            e = expr.parse(text, self.X)
            with pytest.raises(ExprDomainError) as err:
                expr.evaluate(e, {"x1": x1})
            assert str(err.value) == f"exp overflow in '{expr.to_string(e)}'"

    @pytest.mark.parametrize("text, x1, x2, message", [
        # the kernel writes an expression's values before its derivatives,
        # so the ln value fails before the sqrt derivative at 0
        ("sqrt(x1) + ln(x2)", 0.0, -1.0,
         "ln of nonpositive value -1.0 in 'ln(x2)'"),
        ("sqrt(x1) + ln(x2)", 0.0, 1.0,
         "sqrt not differentiable at 0.0 in 'sqrt(x1)'"),
        ("sqrt(x1)", -1.0, 0.0, "sqrt of negative value -1.0 in 'sqrt(x1)'"),
        # messages carry their operands
        ("1/x1", 1e-200, 0.0,
         "square of divisor 1e-200 underflows in '1.0 / x1'"),
        ("x2 + x1^-2", 1e-103, 0.0, "power of 1e-103 overflows in 'x1^-2'"),
        ("x2 * x1^-3", -0.0, 1.0,
         "zero base with negative exponent in 'x1^-3'"),
        ("cos(x1 * 1e308 * 10)", -1.0, 0.0,
         "cos of -inf in 'cos(x1 * 1e+308 * 10.0)'"),
    ])
    def test_dual_names_the_first_failing_call(self, text, x1, x2, message):
        kern = expr.Kernel([expr.parse(text, self.X)],
                           [{"x1": 1.0}, {"x2": 1.0}])
        with pytest.raises(ExprDomainError) as err:
            kern.dual({"x1": x1, "x2": x2})
        assert str(err.value) == message

    def test_a_zero_root_with_no_change_has_derivative_zero(self):
        for x in (0.0, -0.0):
            v, d = expr.evaluate_dual(expr.parse("sqrt(x1^2)", self.X),
                                      {"x1": x}, {"x1": 1.0})
            assert (bits(v), bits(d)) == (bits(0.0), bits(0.0))
            v, d = expr.evaluate_dual(expr.parse("sqrt(x1 * x2)", self.X),
                                      {"x1": x, "x2": 0.0}, {"x1": 1.0})
            assert (bits(v), bits(d)) == (bits(math.sqrt(x * 0.0)), bits(0.0))

    def test_only_the_requested_seeds_can_fail(self):
        # the sqrt fails along x1 only; cols [1] asks for x2 alone, and its
        # checked text, over that seed, is kept per cols
        kern = expr.Kernel([expr.parse("sqrt(x1) + x2", self.X)],
                           [{"x1": 1.0}, {"x2": 1.0}])
        at = {"x1": 0.0, "x2": 2.0}
        vals, jac = kern.dual(at, [1])
        assert vals == [2.0] and same_bits(jac, [[1.0]])
        assert jac.flags.c_contiguous
        with pytest.raises(ExprDomainError, match="not differentiable"):
            kern.dual(at)
        with pytest.raises(ExprDomainError, match="not differentiable"):
            kern.dual(at, [1, 0])
        assert set(kern._checked) == {None, (1,), (1, 0)}

    def test_a_missing_variable_is_undeclared(self):
        kern = expr.Kernel([expr.parse("x1 + x2", self.X)], [{"x1": 1.0}])
        for call in (lambda: kern.values({"x1": 1.0}),
                     lambda: kern.dual({"x1": 1.0})):
            with pytest.raises(UndeclaredVariableError) as err:
                call()
            assert err.value.name == "x2"

    def test_checked_text_is_the_point_text_plus_sites(self):
        # the checked text never becomes a second walker: without each
        # call's last argument, its site, it is the point text line for
        # line, and its table is the point table plus (kind, node) sites
        def strip(text):
            tree = ast.parse(text)
            for node in ast.walk(tree):
                if isinstance(node, ast.Call):
                    node.args.pop()
            return ast.unparse(tree)

        rng = np.random.default_rng(914)
        names = ["x1", "y1"]
        seeds = [{"x1": 1.0}, {"y1": 1.0}, {"x1": 0.5, "y1": 2.5}]
        n_sites = 0
        for _ in range(300):
            trees = [random_tree(rng, names, exponents=range(-3, 4))
                     for _ in range(3)]
            point, consts = expr._kernel_lines(trees, seeds)
            checked, table = expr._kernel_lines(trees, seeds, checked=True)
            assert [strip(text) for text, *_ in checked] == [
                ast.unparse(ast.parse(text)) for text, *_ in point]
            sites = {k: v for k, v in table.items() if k not in consts}
            assert {k: table[k] for k in consts} == consts
            assert all(kind in emit.MESSAGES for kind, _ in sites.values())
            n_sites += len(sites)
        assert n_sites >= 2000

    def test_checked_function_gives_the_point_numbers_or_names_a_node(self):
        # where the point function answers, the checked one gives its bits
        # or names an exp of inf; where it raises, the checked one names a
        # node, or answers a sqrt derivative at 0 with no change
        rng = np.random.default_rng(915)
        names = ["x1", "y1"]
        seeds = [{"x1": 1.0}, {"y1": 1.0}]
        counts = {"same": 0, "named": 0, "answered": 0}
        for _ in range(300):
            trees = [random_tree(rng, names, exponents=range(-3, 4))
                     for _ in range(2)]
            point, _ = expr.compile_kernel(trees, seeds)
            checked = expr.compile_kernel(trees, seeds, checked=True)
            for z in rng.uniform(-2, 2, (8, 2)).tolist():
                at = dict(zip(names, z))
                v, d, cv, cd = [0.0] * 2, [0.0] * 4, [0.0] * 2, [0.0] * 4
                try:
                    point(at, v, d)
                    failed = False
                except (ValueError, ArithmeticError):
                    failed = True
                try:
                    checked(at, cv, cd)
                except ExprDomainError as err:
                    assert failed or (str(err).startswith("exp overflow")
                                      and not all(map(math.isfinite, v)))
                    counts["named"] += 1
                    continue
                if failed:
                    point(at, v)
                    assert same_bits(cv, v) and 0.0 in cd
                    counts["answered"] += 1
                else:
                    assert same_bits(cv, v) and same_bits(cd, d)
                    counts["same"] += 1
        assert counts["same"] >= 1500 and counts["named"] >= 300
        assert counts["answered"] >= 10
