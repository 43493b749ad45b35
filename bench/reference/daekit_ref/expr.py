"""Scalar formula trees: parsing, evaluation, dual-number and symbolic derivatives.

Grammar (standard infix): ``^`` with a literal integer exponent binds tightest,
then unary minus, then ``* /``, then ``+ -``; parentheses group; the unary
functions are ``sin cos exp ln sqrt``. Variables must be declared at parse
time. Trees are immutable after construction; evaluation is pure and
reentrant, so expressions can be shared freely across workers.

Every derivative in the toolkit flows through this module: exact forward-mode
(dual-number) evaluation for point Jacobians, and symbolic differentiation
where a derivative is itself needed as a formula.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ExprDomainError, ExprSyntaxError, UndeclaredVariableError

FUNCTIONS = ("sin", "cos", "exp", "ln", "sqrt")


# ---------------------------------------------------------------------------
# Nodes


@dataclass(eq=False)
class Const:
    value: float
    _fn: object = field(default=None, init=False, repr=False, compare=False)
    _dfn: object = field(default=None, init=False, repr=False, compare=False)


@dataclass(eq=False)
class Var:
    name: str
    _fn: object = field(default=None, init=False, repr=False, compare=False)
    _dfn: object = field(default=None, init=False, repr=False, compare=False)


@dataclass(eq=False)
class Unary:
    op: str  # 'neg' or a FUNCTIONS name
    a: object
    _fn: object = field(default=None, init=False, repr=False, compare=False)
    _dfn: object = field(default=None, init=False, repr=False, compare=False)


@dataclass(eq=False)
class Binary:
    op: str  # '+', '-', '*', '/'
    a: object
    b: object
    _fn: object = field(default=None, init=False, repr=False, compare=False)
    _dfn: object = field(default=None, init=False, repr=False, compare=False)


@dataclass(eq=False)
class Power:
    a: object
    n: int  # literal integer exponent
    _fn: object = field(default=None, init=False, repr=False, compare=False)
    _dfn: object = field(default=None, init=False, repr=False, compare=False)


Expression = (Const, Var, Unary, Binary, Power)


@dataclass
class DualValue:
    """First-order dual number: value plus a directional derivative.

    Arithmetic on DualValue with zero derivative parts reproduces plain real
    arithmetic on the values, which is what makes forward-mode AD exact.
    """

    value: float
    derivative: float

    def __add__(self, o):
        return DualValue(self.value + o.value, self.derivative + o.derivative)

    def __sub__(self, o):
        return DualValue(self.value - o.value, self.derivative - o.derivative)

    def __neg__(self):
        return DualValue(-self.value, -self.derivative)

    def __mul__(self, o):
        return DualValue(
            self.value * o.value,
            self.value * o.derivative + self.derivative * o.value,
        )

    def __truediv__(self, o):
        return DualValue(
            self.value / o.value,
            (self.derivative * o.value - self.value * o.derivative)
            / (o.value * o.value),
        )

    def powi(self, n):
        if n == 0:
            return DualValue(self.value * 0.0 + 1.0, self.value * 0.0)
        if n == 1:
            return DualValue(self.value, self.derivative)
        return DualValue(
            self.value**n, n * self.value ** (n - 1) * self.derivative
        )


# ---------------------------------------------------------------------------
# Tokenizer / parser


def _tokenize(text):
    tokens = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c in "+-*/^()":
            tokens.append((c, c, i))
            i += 1
            continue
        if c.isdigit() or (c == "." and i + 1 < n and text[i + 1].isdigit()):
            j = i
            while j < n and (text[j].isdigit() or text[j] == "."):
                j += 1
            if j < n and text[j] in "eE":
                k = j + 1
                if k < n and text[k] in "+-":
                    k += 1
                if k < n and text[k].isdigit():
                    j = k
                    while j < n and text[j].isdigit():
                        j += 1
            lit = text[i:j]
            try:
                val = float(lit)
            except ValueError:
                raise ExprSyntaxError(f"bad number literal '{lit}'", i) from None
            tokens.append(("num", val, i))
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("name", text[i:j], i))
            i = j
            continue
        raise ExprSyntaxError(f"unexpected character '{c}'", i)
    tokens.append(("end", None, n))
    return tokens


class _Parser:
    def __init__(self, text, declared):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        self.declared = set(declared)

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind, what):
        tok = self.peek()
        if tok[0] != kind:
            raise ExprSyntaxError(f"expected {what}", tok[2])
        return self.advance()

    def parse(self):
        e = self.expr()
        tok = self.peek()
        if tok[0] != "end":
            raise ExprSyntaxError(f"unexpected '{tok[1]}'", tok[2])
        return e

    def expr(self):
        e = self.term()
        while self.peek()[0] in ("+", "-"):
            op = self.advance()[0]
            e = Binary(op, e, self.term())
        return e

    def term(self):
        e = self.unary()
        while self.peek()[0] in ("*", "/"):
            op = self.advance()[0]
            e = Binary(op, e, self.unary())
        return e

    def unary(self):
        if self.peek()[0] == "-":
            self.advance()
            return Unary("neg", self.unary())
        return self.power()

    def power(self):
        e = self.atom()
        while self.peek()[0] == "^":
            self.advance()
            e = Power(e, self.exponent())
        return e

    def exponent(self):
        sign = 1
        if self.peek()[0] == "-":
            self.advance()
            sign = -1
        kind, val, pos = self.peek()
        if kind != "num" or val != int(val):
            raise ExprSyntaxError("exponent must be a literal integer", pos)
        self.advance()
        return sign * int(val)

    def atom(self):
        kind, val, pos = self.peek()
        if kind == "num":
            self.advance()
            return Const(val)
        if kind == "(":
            self.advance()
            e = self.expr()
            self.expect(")", "')'")
            return e
        if kind == "name":
            self.advance()
            if val in FUNCTIONS:
                self.expect("(", f"'(' after function '{val}'")
                e = self.expr()
                self.expect(")", "')'")
                return Unary(val, e)
            if val not in self.declared:
                raise UndeclaredVariableError(val, pos)
            return Var(val)
        raise ExprSyntaxError("expected a value", pos)


def parse(text, declared_vars):
    """Parse formula ``text`` over the given variable names into a tree."""
    return _Parser(text, declared_vars).parse()


# ---------------------------------------------------------------------------
# Printing / structure helpers

_PREC_ADD, _PREC_MUL, _PREC_NEG, _PREC_POW, _PREC_ATOM = 1, 2, 3, 4, 5


def _prec(e):
    if isinstance(e, Binary):
        return _PREC_ADD if e.op in "+-" else _PREC_MUL
    if isinstance(e, Unary):
        return _PREC_ATOM if e.op != "neg" else _PREC_NEG
    if isinstance(e, Power):
        return _PREC_POW
    if isinstance(e, Const) and e.value < 0:
        return _PREC_NEG  # prints with a leading minus, which binds below ^
    return _PREC_ATOM


def to_string(e):
    """Render a tree back to parseable text (round-trips evaluation-exactly)."""

    def wrap(child, minimum):
        s = to_string(child)
        return f"({s})" if _prec(child) < minimum else s

    if isinstance(e, Const):
        return repr(e.value)
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Unary):
        if e.op == "neg":
            return "-" + wrap(e.a, _PREC_POW)
        return f"{e.op}({to_string(e.a)})"
    if isinstance(e, Binary):
        left = wrap(e.a, _prec(e))
        right = wrap(e.b, _prec(e) + 1)
        return f"{left} {e.op} {right}"
    if isinstance(e, Power):
        return f"{wrap(e.a, _PREC_ATOM)}^{e.n}"
    raise TypeError(f"not an expression node: {e!r}")


def variables(e):
    """Set of variable names appearing in the tree."""
    if isinstance(e, Var):
        return {e.name}
    if isinstance(e, Unary):
        return variables(e.a)
    if isinstance(e, Binary):
        return variables(e.a) | variables(e.b)
    if isinstance(e, Power):
        return variables(e.a)
    return set()


def substitute(e, bindings):
    """Replace variables by numeric constants; returns a new tree."""
    if isinstance(e, Var):
        return Const(float(bindings[e.name])) if e.name in bindings else e
    if isinstance(e, Unary):
        return Unary(e.op, substitute(e.a, bindings))
    if isinstance(e, Binary):
        return Binary(e.op, substitute(e.a, bindings), substitute(e.b, bindings))
    if isinstance(e, Power):
        return Power(substitute(e.a, bindings), e.n)
    return e


# ---------------------------------------------------------------------------
# Compiled fast paths (no domain diagnostics; plain arithmetic errors bubble
# up and callers fall back to the strict walkers below for the real message)


def _compile_scalar(e):
    if e._fn is not None:
        return e._fn
    if isinstance(e, Const):
        v = e.value
        fn = lambda env: v
    elif isinstance(e, Var):
        nm = e.name
        fn = lambda env: env[nm]
    elif isinstance(e, Unary):
        a = _compile_scalar(e.a)
        if e.op == "neg":
            fn = lambda env: -a(env)
        else:
            g = {"sin": math.sin, "cos": math.cos, "exp": math.exp,
                 "ln": math.log, "sqrt": math.sqrt}[e.op]
            fn = lambda env: g(a(env))
    elif isinstance(e, Binary):
        a, b = _compile_scalar(e.a), _compile_scalar(e.b)
        if e.op == "+":
            fn = lambda env: a(env) + b(env)
        elif e.op == "-":
            fn = lambda env: a(env) - b(env)
        elif e.op == "*":
            fn = lambda env: a(env) * b(env)
        else:
            fn = lambda env: a(env) / b(env)
    else:
        a, n = _compile_scalar(e.a), e.n
        if n == 0:
            fn = lambda env: 1.0
        elif n == 1:
            fn = a
        else:
            fn = lambda env: a(env) ** n
    e._fn = fn
    return fn


def _compile_dual(e):
    if e._dfn is not None:
        return e._dfn
    if isinstance(e, Const):
        v = e.value
        fn = lambda env, seed: (v, 0.0)
    elif isinstance(e, Var):
        nm = e.name
        fn = lambda env, seed: (env[nm], seed.get(nm, 0.0))
    elif isinstance(e, Unary):
        a = _compile_dual(e.a)
        if e.op == "neg":
            def fn(env, seed, a=a):
                v, d = a(env, seed)
                return -v, -d
        elif e.op == "sin":
            def fn(env, seed, a=a):
                v, d = a(env, seed)
                return math.sin(v), math.cos(v) * d
        elif e.op == "cos":
            def fn(env, seed, a=a):
                v, d = a(env, seed)
                return math.cos(v), -math.sin(v) * d
        elif e.op == "exp":
            def fn(env, seed, a=a):
                v, d = a(env, seed)
                ev = math.exp(v)
                return ev, ev * d
        elif e.op == "ln":
            def fn(env, seed, a=a):
                v, d = a(env, seed)
                return math.log(v), d / v
        else:  # sqrt
            def fn(env, seed, a=a):
                v, d = a(env, seed)
                r = math.sqrt(v)
                return r, d / (2.0 * r)
    elif isinstance(e, Binary):
        a, b = _compile_dual(e.a), _compile_dual(e.b)
        if e.op == "+":
            def fn(env, seed, a=a, b=b):
                av, ad = a(env, seed)
                bv, bd = b(env, seed)
                return av + bv, ad + bd
        elif e.op == "-":
            def fn(env, seed, a=a, b=b):
                av, ad = a(env, seed)
                bv, bd = b(env, seed)
                return av - bv, ad - bd
        elif e.op == "*":
            def fn(env, seed, a=a, b=b):
                av, ad = a(env, seed)
                bv, bd = b(env, seed)
                return av * bv, av * bd + ad * bv
        else:
            def fn(env, seed, a=a, b=b):
                av, ad = a(env, seed)
                bv, bd = b(env, seed)
                return av / bv, (ad * bv - av * bd) / (bv * bv)
    else:
        a, n = _compile_dual(e.a), e.n
        if n == 0:
            fn = lambda env, seed: (1.0, 0.0)
        elif n == 1:
            fn = a
        else:
            def fn(env, seed, a=a, n=n):
                v, d = a(env, seed)
                return v**n, n * v ** (n - 1) * d
    e._dfn = fn
    return fn


# ---------------------------------------------------------------------------
# Strict reference walkers (full domain diagnostics)


def _eval_strict(e, env):
    if isinstance(e, Const):
        return e.value
    if isinstance(e, Var):
        try:
            return float(env[e.name])
        except KeyError:
            raise UndeclaredVariableError(e.name) from None
    if isinstance(e, Unary):
        v = _eval_strict(e.a, env)
        if e.op == "neg":
            return -v
        if e.op == "sin":
            return math.sin(v)
        if e.op == "cos":
            return math.cos(v)
        if e.op == "exp":
            if v > 709.0:
                raise ExprDomainError("exp overflow", to_string(e))
            return math.exp(v)
        if e.op == "ln":
            if v <= 0.0:
                raise ExprDomainError(f"ln of nonpositive value {v}", to_string(e))
            return math.log(v)
        if v < 0.0:
            raise ExprDomainError(f"sqrt of negative value {v}", to_string(e))
        return math.sqrt(v)
    if isinstance(e, Binary):
        a = _eval_strict(e.a, env)
        b = _eval_strict(e.b, env)
        if e.op == "+":
            return a + b
        if e.op == "-":
            return a - b
        if e.op == "*":
            return a * b
        if b == 0.0:
            raise ExprDomainError("division by zero", to_string(e))
        return a / b
    v = _eval_strict(e.a, env)
    if e.n < 0 and v == 0.0:
        raise ExprDomainError("zero base with negative exponent", to_string(e))
    return v**e.n


def _eval_dual_strict(e, env, seed):
    if isinstance(e, Const):
        return DualValue(e.value, 0.0)
    if isinstance(e, Var):
        try:
            return DualValue(float(env[e.name]), float(seed.get(e.name, 0.0)))
        except KeyError:
            raise UndeclaredVariableError(e.name) from None
    if isinstance(e, Unary):
        u = _eval_dual_strict(e.a, env, seed)
        if e.op == "neg":
            return -u
        if e.op == "sin":
            return DualValue(math.sin(u.value), math.cos(u.value) * u.derivative)
        if e.op == "cos":
            return DualValue(math.cos(u.value), -math.sin(u.value) * u.derivative)
        if e.op == "exp":
            if u.value > 709.0:
                raise ExprDomainError("exp overflow", to_string(e))
            ev = math.exp(u.value)
            return DualValue(ev, ev * u.derivative)
        if e.op == "ln":
            if u.value <= 0.0:
                raise ExprDomainError(
                    f"ln of nonpositive value {u.value}", to_string(e)
                )
            return DualValue(math.log(u.value), u.derivative / u.value)
        if u.value <= 0.0:
            if u.value < 0.0 or u.derivative != 0.0:
                raise ExprDomainError(
                    f"sqrt not differentiable at {u.value}", to_string(e)
                )
            return DualValue(0.0, 0.0)
        r = math.sqrt(u.value)
        return DualValue(r, u.derivative / (2.0 * r))
    if isinstance(e, Binary):
        u = _eval_dual_strict(e.a, env, seed)
        w = _eval_dual_strict(e.b, env, seed)
        if e.op == "+":
            return u + w
        if e.op == "-":
            return u - w
        if e.op == "*":
            return u * w
        if w.value == 0.0:
            raise ExprDomainError("division by zero", to_string(e))
        return u / w
    u = _eval_dual_strict(e.a, env, seed)
    if e.n < 0 and u.value == 0.0:
        raise ExprDomainError("zero base with negative exponent", to_string(e))
    return u.powi(e.n)


# ---------------------------------------------------------------------------
# Public evaluation API


def evaluate(e, env):
    """Evaluate at a point; raises ExprDomainError naming the bad subexpression."""
    fn = e._fn or _compile_scalar(e)
    try:
        v = fn(env)
    except (ValueError, ZeroDivisionError, OverflowError, KeyError):
        return _eval_strict(e, env)  # re-walk for the precise diagnostic
    if isinstance(v, float) and not math.isfinite(v):
        return _eval_strict(e, env)
    return v


def evaluate_dual(e, env, seed):
    """Evaluate value and directional derivative along ``seed`` at ``env``."""
    fn = e._dfn or _compile_dual(e)
    try:
        v, d = fn(env, seed)
    except (ValueError, ZeroDivisionError, OverflowError, KeyError):
        return _eval_dual_strict(e, env, seed)
    if isinstance(v, float) and not (math.isfinite(v) and math.isfinite(d)):
        return _eval_dual_strict(e, env, seed)
    return DualValue(v, d)


def evaluate_batch(e, env):
    """Vectorized evaluation; envs map names to equal-length arrays.

    No domain checking: invalid points yield nan/inf, which multistart
    sweeps treat as divergence.
    """
    with np.errstate(all="ignore"):
        return _eval_batch(e, env)


def _eval_batch(e, env):
    if isinstance(e, Const):
        return e.value
    if isinstance(e, Var):
        return env[e.name]
    if isinstance(e, Unary):
        v = _eval_batch(e.a, env)
        if e.op == "neg":
            return -v
        return getattr(np, e.op if e.op != "ln" else "log")(v)
    if isinstance(e, Binary):
        a = _eval_batch(e.a, env)
        b = _eval_batch(e.b, env)
        if e.op == "+":
            return a + b
        if e.op == "-":
            return a - b
        if e.op == "*":
            return a * b
        return np.divide(a, b)
    v = _eval_batch(e.a, env)
    if e.n == 0:
        return np.ones_like(np.asarray(v, dtype=float))
    return np.power(v, e.n) if e.n > 0 else np.divide(1.0, np.power(v, -e.n))


def evaluate_dual_batch(e, env, seed):
    """Vectorized dual evaluation; returns (values, derivatives) arrays."""
    with np.errstate(all="ignore"):
        return _eval_dual_batch(e, env, seed)


def _eval_dual_batch(e, env, seed):
    if isinstance(e, Const):
        return e.value, 0.0
    if isinstance(e, Var):
        return env[e.name], seed.get(e.name, 0.0)
    if isinstance(e, Unary):
        v, d = _eval_dual_batch(e.a, env, seed)
        if e.op == "neg":
            return -v, -d
        if e.op == "sin":
            return np.sin(v), np.cos(v) * d
        if e.op == "cos":
            return np.cos(v), -np.sin(v) * d
        if e.op == "exp":
            ev = np.exp(v)
            return ev, ev * d
        if e.op == "ln":
            return np.log(v), np.divide(d, v)
        r = np.sqrt(v)
        return r, np.divide(d, 2.0 * r)
    if isinstance(e, Binary):
        av, ad = _eval_dual_batch(e.a, env, seed)
        bv, bd = _eval_dual_batch(e.b, env, seed)
        if e.op == "+":
            return av + bv, ad + bd
        if e.op == "-":
            return av - bv, ad - bd
        if e.op == "*":
            return av * bv, av * bd + ad * bv
        return np.divide(av, bv), np.divide(ad * bv - av * bd, bv * bv)
    v, d = _eval_dual_batch(e.a, env, seed)
    if e.n == 0:
        return np.ones_like(np.asarray(v, dtype=float)), np.zeros_like(
            np.asarray(d, dtype=float)
        )
    if e.n == 1:
        return v, d
    return np.power(v, e.n), e.n * np.power(v, e.n - 1) * d


# ---------------------------------------------------------------------------
# Symbolic differentiation (constant-folds literal zeros/ones, nothing more)


def c_const(v):
    return Const(float(v))


def c_neg(a):
    if isinstance(a, Const):
        return Const(-a.value)
    if isinstance(a, Unary) and a.op == "neg":
        return a.a
    return Unary("neg", a)


def c_add(a, b):
    if isinstance(a, Const) and a.value == 0.0:
        return b
    if isinstance(b, Const) and b.value == 0.0:
        return a
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(a.value + b.value)
    return Binary("+", a, b)


def c_sub(a, b):
    if isinstance(b, Const) and b.value == 0.0:
        return a
    if isinstance(a, Const) and a.value == 0.0:
        return c_neg(b)
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(a.value - b.value)
    return Binary("-", a, b)


def c_mul(a, b):
    if isinstance(a, Const):
        if a.value == 0.0:
            return Const(0.0)
        if a.value == 1.0:
            return b
    if isinstance(b, Const):
        if b.value == 0.0:
            return Const(0.0)
        if b.value == 1.0:
            return a
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(a.value * b.value)
    return Binary("*", a, b)


def c_div(a, b):
    if isinstance(b, Const) and b.value == 1.0:
        return a
    if isinstance(a, Const) and isinstance(b, Const) and b.value != 0.0:
        return Const(a.value / b.value)
    return Binary("/", a, b)


def c_pow(a, n):
    if n == 0:
        return Const(1.0)
    if n == 1:
        return a
    if isinstance(a, Const):
        return Const(a.value**n)
    return Power(a, n)


def symbolic_diff(e, var):
    """Exact partial derivative of the tree with respect to variable ``var``."""
    if isinstance(e, Const):
        return Const(0.0)
    if isinstance(e, Var):
        return Const(1.0 if e.name == var else 0.0)
    if isinstance(e, Unary):
        da = symbolic_diff(e.a, var)
        if e.op == "neg":
            return c_neg(da)
        if e.op == "sin":
            return c_mul(Unary("cos", e.a), da)
        if e.op == "cos":
            return c_neg(c_mul(Unary("sin", e.a), da))
        if e.op == "exp":
            return c_mul(Unary("exp", e.a), da)
        if e.op == "ln":
            return c_div(da, e.a)
        return c_div(da, c_mul(Const(2.0), Unary("sqrt", e.a)))
    if isinstance(e, Binary):
        da = symbolic_diff(e.a, var)
        db = symbolic_diff(e.b, var)
        if e.op == "+":
            return c_add(da, db)
        if e.op == "-":
            return c_sub(da, db)
        if e.op == "*":
            return c_add(c_mul(da, e.b), c_mul(e.a, db))
        num = c_sub(c_mul(da, e.b), c_mul(e.a, db))
        return c_div(num, c_pow(e.b, 2))
    da = symbolic_diff(e.a, var)
    return c_mul(c_mul(Const(float(e.n)), c_pow(e.a, e.n - 1)), da)
