"""Scalar formula trees: parsing, compiled evaluation, symbolic derivatives.

Grammar (standard infix): ``^`` with a literal integer exponent binds tightest,
then unary minus, then ``* /``, then ``+ -``; parentheses group; the unary
functions are ``sin cos exp ln sqrt``. Variables must be declared at parse
time. Trees are immutable after construction; evaluation is pure and
reentrant, so expressions can be shared freely across workers.

Every derivative in the toolkit flows through this module: exact forward-mode
AD, emitted as one straight-line function per expression list (a ``Kernel``,
for a point or a batch), and symbolic differentiation where a derivative is
itself needed as a formula. A strict tree walker re-evaluates failed points
to name the offending subexpression.
"""

import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import ExprDomainError, ExprSyntaxError, UndeclaredVariableError

FUNCTIONS = ("sin", "cos", "exp", "ln", "sqrt")


# ---------------------------------------------------------------------------
# Nodes


@dataclass(eq=False)
class Const:
    value: float


@dataclass(eq=False)
class Var:
    name: str


@dataclass(eq=False)
class Unary:
    op: str  # 'neg' or a FUNCTIONS name
    a: object


@dataclass(eq=False)
class Binary:
    op: str  # '+', '-', '*', '/'
    a: object
    b: object


@dataclass(eq=False)
class Power:
    a: object
    n: int  # literal integer exponent


Expression = (Const, Var, Unary, Binary, Power)


@dataclass
class DualValue:
    """First-order dual number: value plus a directional derivative."""

    value: float
    derivative: float


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
# Compiled kernels: one straight-line function per expression list


_KERNEL_ERRORS = (ValueError, ZeroDivisionError, OverflowError, KeyError)
_MAX_INLINE_DEPTH = 32  # deeper single-use chains get a temporary (parser limits)


def _ones(a):
    return np.ones_like(np.asarray(a, dtype=float))


def _zeros(d):
    return np.zeros_like(np.asarray(d, dtype=float))


def _power_values(a, n):
    return np.power(a, n) if n > 0 else np.divide(1.0, np.power(a, -n))


# The names a kernel calls: plain float arithmetic at a point, numpy on a
# batch. "pwv" is the power of values-only batch evaluation (1 / a^-n for
# negative n), "pw" the one derivative code builds on.
_POINT = {"sin": math.sin, "cos": math.cos, "exp": math.exp, "log": math.log,
          "sqrt": math.sqrt, "div": operator.truediv, "pw": operator.pow,
          "pwv": operator.pow, "one": lambda a: 1.0, "zero": lambda d: 0.0}
_BATCH = {"sin": np.sin, "cos": np.cos, "exp": np.exp, "log": np.log,
          "sqrt": np.sqrt, "div": np.divide, "pw": np.power,
          "pwv": _power_values, "one": _ones, "zero": _zeros}


def compile_kernel(exprs, seeds=()):
    """Emit one straight-line Python function evaluating ``exprs``.

    ``seeds`` are directions (maps from variable name to component) to
    differentiate along in forward mode; the unit seeds ``{name: 1.0}``
    give Jacobian columns. Returns the function bound twice, to float
    arithmetic for a point and to numpy for a batch: ``fn(env, V, D=None)``
    writes value i to ``V[i]`` and, when ``D`` is given, the derivative of
    expression i along seed j to ``D[i * len(seeds) + j]``. At a point V and
    D are lists; on a batch they are arrays indexed first by that position
    (views of the caller's output arrays), and V may be None.

    Each node runs the dual-number arithmetic a tree walk along one seed
    would, in the same order, so results are reproducible bit for bit: the
    products with literal 0.0 and 1.0 seed entries are kept (they fix signed
    zeros and nan propagation), constants come in through a table, batch
    values use np.power and np.divide where numpy evaluation of the tree
    would, and point functions raise plain arithmetic errors that callers
    turn into diagnostics with the strict walker. Subtrees shared by
    identity are computed once. As in SymPy's lambdify, a result used once
    is written inline where it is used, a result used more often gets a
    temporary that is deleted after its last use, and unused code is
    dropped. Derivative code runs only when D is given.
    """
    consts, memo, loads = {}, {}, {}
    defs, refs, in_derivs = [], [], []  # parts: text, or ints naming defs

    def define(in_deriv, parts):
        defs.append(parts)
        refs.append([p for p in parts if type(p) is int])
        in_derivs.append(in_deriv)
        return len(defs) - 1

    def val(*parts):
        return define(False, parts)

    def der(*parts):
        return define(True, parts)

    def const(value):
        name = f"k{len(consts)}"
        consts[name] = value
        return name

    def seed_entry(seed, name):
        d = seed.get(name, 0.0)
        if type(d) is float and repr(d) in ("0.0", "1.0"):
            return repr(d)
        return const(d)

    def node(e):
        if id(e) not in memo:
            memo[id(e)] = build(e)
        return memo[id(e)]

    def each(template, *ders):  # one derivative per seed
        return [der(*template(*xs)) for xs in zip(*ders)]

    def build(e):
        """(value, value for derivative code, derivatives) of a node."""
        if isinstance(e, Const):
            k = const(e.value)
            return k, k, ["0.0"] * len(seeds)
        if isinstance(e, Var):
            if e.name not in loads:
                loads[e.name] = val(f"env[{e.name!r}]")
            a = loads[e.name]
            return a, a, [seed_entry(s, e.name) for s in seeds]
        if isinstance(e, Power):
            a, ad, da = node(e.a)
            n = e.n
            if n == 0:
                v = val("one(", a, ")")
                vd = v if ad == a else der("one(", ad, ")")
                return v, vd, each(lambda x: ["zero(", x, ")"], da)
            v = val("pwv(", a, f", {n})")
            if n == 1:
                return v, ad, da
            vd = v if ad == a and n > 0 else der("pw(", ad, f", {n})")
            c = der(f"{n} * pw(", ad, f", {n - 1})")
            return v, vd, each(lambda x: [c, " * ", x], da)
        if isinstance(e, Unary):
            (a, ad, da), op = node(e.a), "log" if e.op == "ln" else e.op

            def apply(x):
                return ["-", x] if op == "neg" else [op + "(", x, ")"]

            v = val(*apply(a))
            vd = v if ad == a else der(*apply(ad))
            if op == "neg":
                return v, vd, each(apply, da)
            if op == "sin":
                c = der("cos(", ad, ")")
            elif op == "cos":
                c = der("-sin(", ad, ")")
            elif op == "exp":
                c = vd
            elif op == "log":
                return v, vd, each(lambda x: ["div(", x, ", ", ad, ")"], da)
            else:  # sqrt
                c = der("2.0 * ", vd)
                return v, vd, each(lambda x: ["div(", x, ", ", c, ")"], da)
            return v, vd, each(lambda x: [c, " * ", x], da)
        (a, ad, da), (b, bd, db) = node(e.a), node(e.b)
        if e.op == "/":
            v = val("div(", a, ", ", b, ")")
            vd = v if (ad, bd) == (a, b) else der("div(", ad, ", ", bd, ")")
            c = der(bd, " * ", bd)
            return v, vd, each(lambda x, y: [
                "div(", x, " * ", bd, " - ", ad, " * ", y, ", ", c, ")"], da, db)
        op = f" {e.op} "
        v = val(a, op, b)
        vd = v if (ad, bd) == (a, b) else der(ad, op, bd)
        if e.op == "*":
            return v, vd, each(
                lambda x, y: [ad, " * ", y, " + ", x, " * ", bd], da, db)
        return v, vd, each(lambda x, y: [x, op, y], da, db)

    # per expression: its definitions, value output, derivative outputs
    roots, start = [], 0
    for i, e in enumerate(exprs):
        v, _, ds = node(e)
        roots.append((range(start, len(defs)), [f"V[{i}] = ", v],
                      [[f"D[{i * len(ds) + j}] = ", d] for j, d in enumerate(ds)]))
        start = len(defs)

    # references only point backwards, so one backward pass counts uses
    uses = [0] * len(defs)
    for _, vout, douts in roots:
        for p in (p for s in [vout] + douts for p in s):
            if type(p) is int:
                uses[p] += 1
    for i in range(len(defs) - 1, -1, -1):
        if uses[i]:
            for p in refs[i]:
                uses[p] += 1
    temp, depth = [False] * len(defs), [0] * len(defs)
    for i, ps in enumerate(refs):
        if uses[i]:
            depth[i] = 1 + max([depth[p] for p in ps if not temp[p]], default=0)
            temp[i] = uses[i] > 1 or depth[i] > _MAX_INLINE_DEPTH

    def render(parts, reads):
        text = []
        for p in parts:
            if type(p) is not int:
                text.append(p)
            elif temp[p]:
                text.append(f"t{p}")
                reads.add(f"t{p}")
            else:
                text.append("(" + render(defs[p], reads) + ")")
        return "".join(text)

    # lines: (text, temps read, temp defined or None, inside a D block)
    lines = []
    for ids, vout, douts in roots:
        for in_block in (False, True):
            for i in ids:
                if uses[i] and temp[i] and in_derivs[i] == in_block:
                    reads = set()
                    lines.append((f"t{i} = " + render(defs[i], reads), reads,
                                  f"t{i}", in_block))
            for s in (douts if in_block else [vout]):
                reads = set()
                text = render(s, reads)
                lines.append(("if V is not None: " * (not in_block) + text,
                              reads, None, in_block))
    # free every temporary after its last read; on the path without
    # derivatives, after its last read outside the D blocks
    last, last_plain = {}, {}
    for idx, (_, reads, target, in_block) in enumerate(lines):
        if target is not None and not in_block:
            last_plain[target] = idx
        for nm in reads:
            last[nm] = idx
            if not in_block:
                last_plain[nm] = idx
    body, block = [], False
    for idx, (text, reads, target, in_block) in enumerate(lines):
        if in_block and not block:
            body.append("if D is not None:")
        block = in_block
        pad = "    " * in_block
        body.append(pad + text)
        done = sorted(nm for nm in reads | {target} - {None}
                      if last.get(nm, idx) == idx)
        if done:
            body.append(pad + "del " + ", ".join(done))
        if not in_block:
            only_d = sorted(nm for nm, at in last_plain.items()
                            if at == idx and last.get(nm, idx) > idx)
            if only_d:
                body.append("if D is None: del " + ", ".join(only_d))
    src = "\n    ".join(["def kernel(env, V, D=None):"] + (body or ["pass"]))
    code = compile(src, "<daekit kernel>", "exec")
    fns = []
    for names in (_POINT, _BATCH):
        namespace = {**consts, **names}
        exec(code, namespace)
        fns.append(namespace["kernel"])
    return tuple(fns)


class Kernel:
    """Values and derivatives of one expression list, compiled once.

    Derivatives are taken along ``seeds`` (see compile_kernel); the kernel
    is emitted on first use and kept on the instance. When the point
    function raises (ValueError, ZeroDivisionError, OverflowError,
    KeyError) or gives a non-finite number, the point is re-evaluated with
    the strict walker, which returns the same result or raises the
    ExprDomainError naming the offending subexpression. Batch evaluation
    checks no domain: invalid points yield nan/inf. Rows (dual_rows) run
    the point function on every row, so each is the point result bit for
    bit, or nan where the point function raises; a caller re-evaluates a
    non-finite row at its point for the point's result or diagnostic.
    """

    def __init__(self, exprs, seeds=()):
        self.exprs = list(exprs)
        self.seeds = [dict(s) for s in seeds]
        self._fns = None

    def _fn(self, batch):
        if self._fns is None:
            self._fns = compile_kernel(self.exprs, self.seeds)
        return self._fns[batch]

    def values(self, env):
        """Values at a point, as an array."""
        vals = [0.0] * len(self.exprs)
        try:
            self._fn(False)(env, vals)
            if all(map(math.isfinite, vals)):
                return np.array(vals, dtype=float)
        except _KERNEL_ERRORS:
            pass
        return np.array([_strict(e, env) for e in self.exprs], dtype=float)

    def dual(self, env, *colsets):
        """(values, Jacobians) at a point: for each column set (a slice or a
        list of seed numbers), the matrix whose row i holds the derivatives
        of expression i along those seeds; the full Jacobian when no set is
        given. The strict walk goes seed by seed, in the order of the sets."""
        m, n = len(self.exprs), len(self.seeds)
        vals, ders = [0.0] * m, [0.0] * (m * n)
        try:
            self._fn(False)(env, vals, ders)
            ok = all(map(math.isfinite, vals)) and all(map(math.isfinite, ders))
        except _KERNEL_ERRORS:
            ok = False
        if not ok:
            order = [j for cols in colsets or [slice(None)]
                     for j in np.arange(n)[cols]]
            walks = {j: [_strict(e, env, self.seeds[j]) for e in self.exprs]
                     for j in order}
            for j, walk in walks.items():
                ders[j::n] = [d for _, d in walk]
            first = next(iter(walks.values()), None)
            vals = ([v for v, _ in first] if first is not None
                    else [_strict(e, env, {})[0] for e in self.exprs])
        jac = np.array(ders, dtype=float).reshape(m, n)
        if not colsets:
            return vals, [jac]
        return vals, [np.ascontiguousarray(jac[:, cols]) for cols in colsets]

    def values_batch(self, env, out):
        """Values on a batch into out[..., i] (out C-contiguous)."""
        with np.errstate(all="ignore"):
            self._fn(True)(env, out.reshape(-1, len(self.exprs)).T)
        return out

    def dual_batch(self, env, out, vout=None):
        """Derivatives on a batch into out[..., i, j], values into vout (both
        C-contiguous)."""
        m, n = len(self.exprs), len(self.seeds)
        vals = None if vout is None else vout.reshape(-1, m).T
        with np.errstate(all="ignore"):
            self._fn(True)(env, vals, out.reshape(-1, m * n).T)
        return out

    def dual_rows(self, env, out, vout):
        """dual_batch in the point arithmetic: the point function on every
        row, into out[r, i, j] and vout[r, i]; nan in every output of a row
        where it raises. Names whose env entry is not an array are shared
        by all rows."""
        fn = self._fn(False)
        m, n = len(self.exprs), len(self.seeds)
        names = [nm for nm, v in env.items() if isinstance(v, np.ndarray)]
        point = dict(env)
        vs, ds = [], []
        for row in zip(*(env[nm].tolist() for nm in names)):
            point.update(zip(names, row))
            v, d = [0.0] * m, [0.0] * (m * n)
            try:
                fn(point, v, d)
            except _KERNEL_ERRORS:
                v, d = [math.nan] * m, [math.nan] * (m * n)
            vs.append(v)
            ds.append(d)
        if ds:  # an empty batch has nothing to write
            out.reshape(-1, m * n)[:] = ds
            vout.reshape(-1, m)[:] = vs
        return out


# ---------------------------------------------------------------------------
# Strict reference walker (full domain diagnostics)


def _strict(e, env, seed=None):
    """The value at env, or with a seed the pair (value, derivative along
    seed), raising ExprDomainError naming the offending subexpression."""
    dual = seed is not None

    def walk(e):
        if isinstance(e, Const):
            return e.value, 0.0
        if isinstance(e, Var):
            try:
                v = float(env[e.name])
            except KeyError:
                raise UndeclaredVariableError(e.name) from None
            return v, float(seed.get(e.name, 0.0)) if dual else None
        if isinstance(e, Unary):
            v, d = walk(e.a)
            if e.op == "neg":
                return -v, -d if dual else None
            if e.op == "sin":
                return math.sin(v), math.cos(v) * d if dual else None
            if e.op == "cos":
                return math.cos(v), -math.sin(v) * d if dual else None
            if e.op == "exp":
                if v > 709.0:
                    raise ExprDomainError("exp overflow", to_string(e))
                ev = math.exp(v)
                return ev, ev * d if dual else None
            if e.op == "ln":
                if v <= 0.0:
                    raise ExprDomainError(f"ln of nonpositive value {v}", to_string(e))
                return math.log(v), d / v if dual else None
            if v < 0.0 or (dual and v == 0.0 and d != 0.0):
                what = "not differentiable at" if dual else "of negative value"
                raise ExprDomainError(f"sqrt {what} {v}", to_string(e))
            if dual and v == 0.0:
                return 0.0, 0.0
            r = math.sqrt(v)
            return r, d / (2.0 * r) if dual else None
        if isinstance(e, Binary):
            (a, da), (b, db) = walk(e.a), walk(e.b)
            if e.op == "+":
                return a + b, da + db if dual else None
            if e.op == "-":
                return a - b, da - db if dual else None
            if e.op == "*":
                return a * b, a * db + da * b if dual else None
            if b == 0.0:
                raise ExprDomainError("division by zero", to_string(e))
            return a / b, (da * b - a * db) / (b * b) if dual else None
        if e.n == 0:
            return 1.0, 0.0  # like the kernel, never looks at the base
        v, d = walk(e.a)
        if e.n < 0 and v == 0.0:
            raise ExprDomainError("zero base with negative exponent", to_string(e))
        if e.n == 1:
            return v, d
        return v**e.n, e.n * v ** (e.n - 1) * d if dual else None

    v, d = walk(e)
    return (v, d) if dual else v


# ---------------------------------------------------------------------------
# Public evaluation API (one expression; compiled per call)


def evaluate(e, env):
    """Evaluate at a point; raises ExprDomainError naming the bad subexpression."""
    return float(Kernel([e]).values(env)[0])


def evaluate_dual(e, env, seed):
    """Evaluate value and directional derivative along ``seed`` at ``env``."""
    vals, (jac,) = Kernel([e], [seed]).dual(env)
    return DualValue(float(vals[0]), float(jac[0, 0]))


def _batch_shape(env):
    return np.broadcast_shapes(*(np.shape(v) for v in env.values()))


def evaluate_batch(e, env):
    """Vectorized evaluation; envs map names to equal-length arrays.

    No domain checking: invalid points yield nan/inf, which multistart
    sweeps treat as divergence.
    """
    out = np.empty(_batch_shape(env) + (1,))
    return Kernel([e]).values_batch(env, out)[..., 0]


def evaluate_dual_batch(e, env, seed):
    """Vectorized dual evaluation; returns (values, derivatives) arrays."""
    shape = _batch_shape(env)
    vals, ders = np.empty(shape + (1,)), np.empty(shape + (1, 1))
    Kernel([e], [seed]).dual_batch(env, ders, vals)
    return vals[..., 0], ders[..., 0, 0]


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
