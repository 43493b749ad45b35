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

from .errors import (
    DaekitError,
    ExprDomainError,
    ExprSyntaxError,
    UndeclaredVariableError,
)

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
# what evaluating one row at its point can raise; the row fails alone with it
ROW_ERRORS = (DaekitError, ArithmeticError, ValueError)
_MAX_INLINE_DEPTH = 32  # deeper single-use chains get a temporary (parser limits)


def _ones(a):
    return np.ones_like(np.asarray(a, dtype=float))


def _power_values(a, n):
    return np.power(a, n) if n > 0 else np.divide(1.0, np.power(a, -n))


# The names a kernel calls: plain float arithmetic at a point, numpy on a
# batch. "pwv" is the power of values-only batch evaluation (1 / a^-n for
# negative n), "pw" the one derivative code builds on.
_POINT = {"sin": math.sin, "cos": math.cos, "exp": math.exp, "log": math.log,
          "sqrt": math.sqrt, "div": operator.truediv, "pw": operator.pow,
          "pwv": operator.pow, "one": lambda a: 1.0}
_BATCH = {"sin": np.sin, "cos": np.cos, "exp": np.exp, "log": np.log,
          "sqrt": np.sqrt, "div": np.divide, "pw": np.power,
          "pwv": _power_values, "one": _ones}
_ONE = "1.0"  # the unit seed entry as a derivative term


def _kernel_lines(exprs, seeds, load=None, vout=None, dout=None):
    """The statements of compile_kernel's function, before it adds guards
    and frees temporaries: (lines, consts). Each line is (text, temporaries
    read, temporary defined or None, inside the derivative block); the
    value lines of each expression precede its derivative lines. Variables
    are read as ``env[name]``, or as the code ``load(name)`` returns;
    outputs are written to ``V[i]`` and ``D[i * len(seeds) + j]``, or to
    the targets ``vout(i)`` and ``dout(i, j)`` name (text ending in ``=``).

    Derivatives are sparse forward mode: a zero seed entry and the
    derivative of a constant are no term (None); a term that would
    multiply, add to, subtract or negate no term is dropped; a product
    with the unit seed entry is its other factor; a derivative that is no
    term is written as the constant 0.0.
    """
    if vout is None:
        def vout(i):
            return f"V[{i}] = "

        def dout(i, j):
            return f"D[{i * len(seeds) + j}] = "

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
        if d == 0.0:
            return None
        return _ONE if d == 1.0 else const(d)

    def node(e):
        if id(e) not in memo:
            memo[id(e)] = build(e)
        return memo[id(e)]

    def each(template, *ders):
        """One derivative per seed: no term where every input is none,
        else the template's parts, a single part passed through."""
        out = []
        for xs in zip(*ders):
            parts = None if xs.count(None) == len(xs) else template(*xs)
            if parts is not None:
                parts = parts[0] if len(parts) == 1 else der(*parts)
            out.append(parts)
        return out

    def times(x, y):  # the parts of x * y, where either may be the unit seed
        return [y] if x == _ONE else [x] if y == _ONE else [x, " * ", y]

    def build(e):
        """(value, value for derivative code, derivatives) of a node."""
        if isinstance(e, Const):
            k = const(e.value)
            return k, k, [None] * len(seeds)
        if isinstance(e, Var):
            if e.name not in loads:
                loads[e.name] = (val(f"env[{e.name!r}]") if load is None
                                 else load(e.name))
            a = loads[e.name]
            return a, a, [seed_entry(s, e.name) for s in seeds]
        if isinstance(e, Power):
            a, ad, da = node(e.a)
            n = e.n
            if n == 0:
                v = val("one(", a, ")")
                vd = v if ad == a else der("one(", ad, ")")
                return v, vd, [None] * len(seeds)
            v = val("pwv(", a, f", {n})")
            if n == 1:
                return v, ad, da
            vd = v if ad == a and n > 0 else der("pw(", ad, f", {n})")
            c = der(f"{n} * ", ad) if n == 2 else der(
                f"{n} * pw(", ad, f", {n - 1})")
            return v, vd, each(lambda x: times(c, x), da)
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
            return v, vd, each(lambda x: times(c, x), da)
        (a, ad, da), (b, bd, db) = node(e.a), node(e.b)
        if e.op == "/":
            v = val("div(", a, ", ", b, ")")
            vd = v if (ad, bd) == (a, b) else der("div(", ad, ", ", bd, ")")
            c = der(bd, " * ", bd)

            def quotient(x, y):
                if y is None:
                    num = times(x, bd)
                elif x is None:  # 0 - p is -p, and -(a * y) is -a * y
                    num = ["-", *times(ad, y)]
                else:
                    num = [*times(x, bd), " - ", *times(ad, y)]
                return ["div(", *num, ", ", c, ")"]

            return v, vd, each(quotient, da, db)
        op = f" {e.op} "
        v = val(a, op, b)
        vd = v if (ad, bd) == (a, b) else der(ad, op, bd)

        def product(x, y):
            if y is None:
                return times(x, bd)
            if x is None:
                return times(ad, y)
            return [*times(ad, y), " + ", *times(x, bd)]

        def combine(x, y):  # x + y or x - y
            if y is None:
                return [x]
            if x is None:
                return [y] if e.op == "+" else ["-", y]
            return [x, op, y]

        return v, vd, each(product if e.op == "*" else combine, da, db)

    # per expression: its definitions, value output, derivative outputs
    roots, start = [], 0
    for i, e in enumerate(exprs):
        v, _, ds = node(e)
        roots.append((range(start, len(defs)), [vout(i), v],
                      [[dout(i, j), "0.0" if d is None else d]
                       for j, d in enumerate(ds)]))
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
                lines.append((text, reads, None, in_block))
    return lines, consts


def compile_kernel(exprs, seeds=()):
    """Emit one straight-line Python function evaluating ``exprs``.

    ``seeds`` are directions (maps from variable name to component) to
    differentiate along in forward mode; the unit seeds ``{name: 1.0}``
    give Jacobian columns. Returns the function bound twice, to float
    arithmetic for a point and to numpy for a batch: ``fn(env, V, D=None)``
    writes value i to ``V[i]`` and, when ``D`` is given, the derivative of
    expression i along seed j to ``D[i * len(seeds) + j]``. At a point V and
    D are lists; on a batch they are the caller's entry-major output arrays,
    indexed first by that position, so every write is contiguous.

    Each node runs the dual-number arithmetic the strict walker does along
    one seed, in the same order, so results are reproducible bit for bit.
    Derivatives drop their structural zeros (see _kernel_lines): a dropped
    term is +-0, and x +- 0 = x and x * 1.0 = x exactly, so every
    derivative that dense forward mode gives as a finite nonzero number
    keeps its bits; a derivative that is exactly zero may change sign (a
    structurally zero one reads +0.0), and where an intermediate value is
    inf or nan a derivative may be finite where the dense one was nan.
    Constants come in through a table, batch values use np.power and
    np.divide where numpy evaluation of the tree would, and point
    functions raise plain arithmetic errors that callers turn into
    diagnostics with the strict walker. Subtrees shared by
    identity are computed once. As in SymPy's lambdify, a result used once
    is written inline where it is used, a result used more often gets a
    temporary that is deleted after its last use, and unused code is
    dropped. Derivative code runs only when D is given.
    """
    lines, consts = _kernel_lines(exprs, seeds)
    # free every temporary after its last read
    last = {}
    for idx, (_, reads, _, _) in enumerate(lines):
        for nm in reads:
            last[nm] = idx
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

    Derivatives are taken along ``seeds`` in sparse forward mode, with
    their structural zeros dropped (see compile_kernel); the kernel is
    emitted on first use and kept on the instance. When the point
    function raises (ValueError, ZeroDivisionError, OverflowError,
    KeyError) or gives a non-finite number, the point is re-evaluated with
    the strict walker, which drops the same terms, so it returns the same
    result or raises the ExprDomainError naming the offending
    subexpression. Batch evaluation checks no domain: invalid points yield
    nan/inf.
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

    def dual(self, env, cols=None):
        """(values, Jacobian) at a point: row i of the Jacobian holds the
        derivatives of expression i along the seeds of cols (a slice or a
        list of seed numbers), along every seed when cols is None. The
        strict walk goes seed by seed, in the order of cols."""
        m, n = len(self.exprs), len(self.seeds)
        vals, ders = [0.0] * m, [0.0] * (m * n)
        try:
            self._fn(False)(env, vals, ders)
            ok = all(map(math.isfinite, vals)) and all(map(math.isfinite, ders))
        except _KERNEL_ERRORS:
            ok = False
        if not ok:
            order = np.arange(n)[slice(None) if cols is None else cols]
            walks = {j: [_strict(e, env, self.seeds[j]) for e in self.exprs]
                     for j in order}
            for j, walk in walks.items():
                ders[j::n] = [d for _, d in walk]
            first = next(iter(walks.values()), None)
            vals = ([v for v, _ in first] if first is not None
                    else [_strict(e, env, {})[0] for e in self.exprs])
        jac = np.array(ders, dtype=float).reshape(m, n)
        if cols is None:
            return vals, jac
        return vals, np.ascontiguousarray(jac[:, cols])

    def values_batch(self, env, out):
        """Values on a batch into out[i], entry-major: out is (m, *shape)
        and each out[i] is one array of the batch's shape."""
        with np.errstate(all="ignore"):
            self._fn(True)(env, out)
        return out

    def dual_batch(self, env, out, vout):
        """Derivatives on a batch into out[i * n + j] and values into
        vout[i], in one pass, entry-major as in values_batch: out is
        (m * n, *shape) and vout (m, *shape). Returns out."""
        with np.errstate(all="ignore"):
            self._fn(True)(env, vout, out)
        return out


# ---------------------------------------------------------------------------
# Strict reference walker (full domain diagnostics)


def _strict(e, env, seed=None):
    """The value at env, or with a seed the pair (value, derivative along
    seed), raising ExprDomainError naming the offending subexpression.
    The derivative drops the kernel's structural zeros (None while
    walking: a zero seed entry, a constant's derivative, and every term
    built on them), so it does the point kernel's arithmetic; a
    structurally zero derivative reads +0.0."""
    dual = seed is not None

    def walk(e):
        if isinstance(e, Const):
            return e.value, None
        if isinstance(e, Var):
            try:
                v = float(env[e.name])
            except KeyError:
                raise UndeclaredVariableError(e.name) from None
            d = float(seed.get(e.name, 0.0)) if dual else 0.0
            return v, None if d == 0.0 else d
        if isinstance(e, Unary):
            v, d = walk(e.a)
            if e.op == "neg":
                return -v, None if d is None else -d
            if e.op == "sin":
                return math.sin(v), None if d is None else math.cos(v) * d
            if e.op == "cos":
                return math.cos(v), None if d is None else -math.sin(v) * d
            if e.op == "exp":
                if v > 709.0:
                    raise ExprDomainError("exp overflow", to_string(e))
                ev = math.exp(v)
                return ev, None if d is None else ev * d
            if e.op == "ln":
                if v <= 0.0:
                    raise ExprDomainError(f"ln of nonpositive value {v}", to_string(e))
                return math.log(v), None if d is None else d / v
            if v < 0.0 or (d is not None and v == 0.0 and d != 0.0):
                what = "not differentiable at" if dual else "of negative value"
                raise ExprDomainError(f"sqrt {what} {v}", to_string(e))
            if d is not None and v == 0.0:
                return 0.0, 0.0
            r = math.sqrt(v)
            return r, None if d is None else d / (2.0 * r)
        if isinstance(e, Binary):
            (a, da), (b, db) = walk(e.a), walk(e.b)
            if e.op == "+":
                return a + b, db if da is None else da if db is None else da + db
            if e.op == "-":
                if da is None:
                    return a - b, None if db is None else -db
                return a - b, da if db is None else da - db
            if e.op == "*":
                if da is None:
                    return a * b, None if db is None else a * db
                return a * b, da * b if db is None else a * db + da * b
            if b == 0.0:
                raise ExprDomainError("division by zero", to_string(e))
            if da is None:
                return a / b, None if db is None else -a * db / (b * b)
            return a / b, (da * b if db is None else da * b - a * db) / (b * b)
        if e.n == 0:
            return 1.0, None  # like the kernel, never looks at the base
        v, d = walk(e.a)
        if e.n < 0 and v == 0.0:
            raise ExprDomainError("zero base with negative exponent", to_string(e))
        if e.n == 1:
            return v, d
        return v**e.n, None if d is None else e.n * v ** (e.n - 1) * d

    v, d = walk(e)
    return (v, 0.0 if d is None else d) if dual else v


# ---------------------------------------------------------------------------
# Public evaluation API (one expression; compiled per call)


def evaluate(e, env):
    """Evaluate at a point; raises ExprDomainError naming the bad subexpression."""
    return float(Kernel([e]).values(env)[0])


def evaluate_dual(e, env, seed):
    """The pair (value, directional derivative along ``seed``) at ``env``."""
    vals, jac = Kernel([e], [seed]).dual(env)
    return float(vals[0]), float(jac[0, 0])


def _batch_shape(env):
    return np.broadcast_shapes(*(np.shape(v) for v in env.values()))


def evaluate_batch(e, env):
    """Vectorized evaluation; envs map names to equal-length arrays.

    No domain checking: invalid points yield nan/inf, which multistart
    sweeps treat as divergence.
    """
    out = np.empty((1,) + _batch_shape(env))
    return Kernel([e]).values_batch(env, out)[0]


def evaluate_dual_batch(e, env, seed):
    """Vectorized dual evaluation; returns (values, derivatives) arrays."""
    shape = (1,) + _batch_shape(env)
    vals, ders = np.empty(shape), np.empty(shape)
    Kernel([e], [seed]).dual_batch(env, ders, vals)
    return vals[0], ders[0]


# ---------------------------------------------------------------------------
# Symbolic differentiation (constant-folds literal zeros/ones, nothing more)


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
