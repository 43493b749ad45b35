import math
import struct

import numpy as np
import pytest

from daekit import expr
from daekit.dae import Box, SystemDef
from daekit.degree import VectorField
from daekit.errors import ExprDomainError, ExprSyntaxError, UndeclaredVariableError
from helpers import random_tree, usable_tree_and_point


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
        d = expr.evaluate_dual(tree, {"y1": 0.0}, {"y1": 1.0})
        assert d.value == 0.0
        assert d.derivative == 1.0

    def test_square(self):
        tree = expr.parse("x1^2", ["x1"])
        d = expr.evaluate_dual(tree, {"x1": 3.0}, {"x1": 1.0})
        assert (d.value, d.derivative) == (9.0, 6.0)

    def test_zero_seed(self):
        tree = expr.parse("sin(x1)*exp(y1) - x1/y1", ["x1", "y1"])
        d = expr.evaluate_dual(tree, {"x1": 0.7, "y1": 1.3}, {})
        assert d.derivative == 0.0


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
            d = expr.evaluate_dual(tree, env, seed).derivative
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
                dual = expr.evaluate_dual(tree, env, {var: 1.0}).derivative
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
                    d = expr.evaluate_dual(tree, env, {"x1": 1.0})
                except ExprDomainError:
                    continue
                assert batch[i] == pytest.approx(v, rel=1e-12, abs=1e-12)
                assert bval[i] == pytest.approx(v, rel=1e-12, abs=1e-12)
                if np.isfinite(bder[i]) and abs(d.derivative) < 1e8:
                    assert bder[i] == pytest.approx(
                        d.derivative, rel=1e-10, abs=1e-10
                    )

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

    def test_rows_match_the_point_kernel(self):
        n_rows = 12
        rng = np.random.default_rng(618)
        names = ["x1", "y1", "t"]
        seeds = [{nm: 1.0} for nm in names]
        compared = 0
        for _ in range(300):
            kern = expr.Kernel([random_tree(rng, names)], seeds)
            pts = rng.uniform(-2, 2, (n_rows, 2))
            t = float(rng.uniform(-2, 2))  # shared by all rows
            vals, ders = np.empty((n_rows, 1)), np.empty((n_rows, 1, 3))
            kern.dual_rows({"x1": pts[:, 0], "y1": pts[:, 1], "t": t},
                           ders, vals)
            for r in range(n_rows):
                v, d = [0.0], [0.0] * 3
                point = {"x1": float(pts[r, 0]), "y1": float(pts[r, 1]), "t": t}
                try:
                    kern._fn(False)(point, v, d)
                except (ValueError, ZeroDivisionError, OverflowError):
                    # the row is not finite, so callers re-evaluate it
                    assert not (np.isfinite(vals[r]).all()
                                and np.isfinite(ders[r]).all())
                    continue
                assert bits(vals[r, 0]) == bits(v[0])
                assert all(bits(a) == bits(b) for a, b in zip(ders[r, 0], d))
                compared += 1
        assert compared >= 250 * n_rows

    @pytest.mark.parametrize("text, point, message, subexpr", [
        ("sqrt(x1)", {"x1": 0.0, "y1": 1.0}, "sqrt not differentiable at 0.0",
         "sqrt(x1)"),
        ("ln(x1) + y1", {"x1": -1.0, "y1": 1.0}, "ln of nonpositive value -1.0",
         "ln(x1)"),
        ("y1 + x1 / (y1 - 1)", {"x1": 2.0, "y1": 1.0}, "division by zero",
         "x1 / (y1 - 1.0)"),
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
            dual = expr.evaluate_dual(e, {"x1": x}, {"x1": 1.0})
            bval, bder = expr.evaluate_dual_batch(e, {"x1": np.array([x])},
                                                  {"x1": 1.0})
            batch = expr.evaluate_batch(e, {"x1": np.array([x])})
            for v in (got, dual.value, bval[0], batch[0]):
                assert v == want or (math.isnan(v) and math.isnan(want))
            assert dual.derivative == dwant and bder[0] == dwant

    def test_negative_constant_base(self):
        for n, want, dwant in [(2, 4.0, -0.0), (3, -8.0, 0.0)]:
            e = expr.Power(expr.Const(-2.0), n)
            dual = expr.evaluate_dual(e, {}, {"x1": 1.0})
            bval, bder = expr.evaluate_dual_batch(e, {}, {})
            for v in (expr.evaluate(e, {}), dual.value, expr.evaluate_batch(e, {}),
                      bval):
                assert bits(float(v)) == bits(want)
            assert bits(dual.derivative) == bits(dwant)
            assert bits(float(bder)) == bits(dwant)
