"""Scalar formula trees: parsing, compiled evaluation, symbolic derivatives.

Grammar (standard infix): ``^`` with a literal integer exponent binds tightest,
then unary minus, then ``* /``, then ``+ -``; parentheses group; the unary
functions are ``sin cos exp ln sqrt``. Variables must be declared at parse
time. Trees are immutable after construction; evaluation is pure and
reentrant, so expressions can be shared freely across workers.

Every derivative in the toolkit flows through this module: exact forward-mode
AD, emitted as one straight-line function per expression list (a ``Kernel``,
for a point or a batch), and symbolic differentiation where a derivative is
itself needed as a formula. A failed point runs again through the checked
text of its kernel, whose calls name the offending subexpression.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import emit
from .errors import (
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


_MAX_INLINE_DEPTH = 32  # deeper single-use chains get a temporary (parser limits)
_ONE = "1.0"  # the unit seed entry as a derivative term


def _kernel_lines(exprs, seeds, load=None, vout=None, dout=None, prefix="k",
                  checked=False):
    """The statements of compile_kernel's function, before it adds guards
    and frees temporaries: (lines, consts). Each line is (text, temporaries
    read, temporary defined or None, inside the derivative block); the
    value lines of each expression precede its derivative lines. Variables
    are read as ``env[name]``, or as the code ``load(name)`` returns;
    outputs are written to ``V[i]`` and ``D[i * len(seeds) + j]``, or to
    the targets ``vout(i)`` and ``dout(i, j)`` name (text ending in ``=``).
    Constants are named prefix0, prefix1, ... (k0, k1, ... by default) in
    the table consts; kernels inlined into one function take different
    prefixes. With checked, each call takes one more argument, its site:
    the table constant prefixs0, prefixs1, ... holding (kind, to_string of
    the node it serves), or for a quotient derivative the tuple of those
    and the divisor (emit.CHECKED reads them); without, the parts are the
    point text's.

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

    consts, sites, memo, loads = {}, {}, {}, {}
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
        name = f"{prefix}{len(consts)}"
        consts[name] = value
        return name

    def site(kind, e, *operand):  # the parts of a call's site argument
        if not checked:
            return []
        name = f"{prefix}s{len(sites)}"
        sites[name] = (kind, to_string(e))
        return [", (*", name, ", ", *operand, ")"] if operand else [", ", name]

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
        """(value, derivatives) of a node."""
        if isinstance(e, Const):
            return const(e.value), [None] * len(seeds)
        if isinstance(e, Var):
            if e.name not in loads:
                loads[e.name] = (val(f"env[{e.name!r}]") if load is None
                                 else load(e.name))
            return loads[e.name], [seed_entry(s, e.name) for s in seeds]
        if isinstance(e, Power):
            n = e.n
            if n == 0:  # never evaluates its base
                return const(1.0), [None] * len(seeds)
            a, da = node(e.a)
            if n == 1:
                return a, da
            v = val("pw(", a, f", {n}", *site("pw", e), ")")
            c = der(f"{n} * ", a) if n == 2 else der(
                f"{n} * pw(", a, f", {n - 1}", *site("pw", e), ")")
            return v, each(lambda x: times(c, x), da)
        if isinstance(e, Unary):
            (a, da), op = node(e.a), "log" if e.op == "ln" else e.op
            if op == "neg":
                return val("-", a), each(lambda x: ["-", x], da)
            v = val(op + "(", a, *site(e.op, e), ")")
            if op == "sin":
                c = der("cos(", a, *site("sin", e), ")")
            elif op == "cos":
                c = der("-sin(", a, *site("cos", e), ")")
            elif op == "exp":
                c = v
            elif op == "log":
                s = site("ln'", e)
                return v, each(lambda x: ["div(", x, ", ", a, *s, ")"], da)
            else:  # sqrt
                c, s = der("2.0 * ", v), site("sqrt'", e)
                return v, each(lambda x: ["div(", x, ", ", c, *s, ")"], da)
            return v, each(lambda x: times(c, x), da)
        (a, da), (b, db) = node(e.a), node(e.b)
        if e.op == "/":
            v = val("div(", a, ", ", b, *site("div", e), ")")
            c, s = der(b, " * ", b), site("square", e, b)

            def quotient(x, y):
                if y is None:
                    num = times(x, b)
                elif x is None:  # 0 - p is -p, and -(a * y) is -a * y
                    num = ["-", *times(a, y)]
                else:
                    num = [*times(x, b), " - ", *times(a, y)]
                return ["div(", *num, ", ", c, *s, ")"]

            return v, each(quotient, da, db)
        op = f" {e.op} "

        def product(x, y):
            if y is None:
                return times(x, b)
            if x is None:
                return times(a, y)
            return [*times(a, y), " + ", *times(x, b)]

        def combine(x, y):  # x + y or x - y
            if y is None:
                return [x]
            if x is None:
                return [y] if e.op == "+" else ["-", y]
            return [x, op, y]

        return val(a, op, b), each(product if e.op == "*" else combine, da, db)

    # per expression: its definitions, value output, derivative outputs
    roots, start = [], 0
    for i, e in enumerate(exprs):
        v, ds = node(e)
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
    return lines, {**consts, **sites}


def _kernel_code(exprs, names, at=None, value="V", prefix="k"):
    """compile_kernel's point statements for exprs on locals, with the
    partials along the variables names: a variable is read by its own name,
    or with at as the local {at}{c}, c its place in names; value i goes to
    {value}{i} and the partial along names[c] to D{i}_{c}; constants are
    named {prefix}{i}. Returns (lines, consts)."""
    lines, consts = _kernel_lines(
        exprs, [{nm: 1.0} for nm in names],
        load=str if at is None else lambda nm: f"{at}{names.index(nm)}",
        vout=lambda i: f"{value}{i} = ", dout=lambda i, c: f"D{i}_{c} = ",
        prefix=prefix)
    return [text for text, *_ in lines], consts


def compile_kernel(exprs, seeds=(), checked=False):
    """Emit one straight-line Python function evaluating ``exprs``.

    ``seeds`` are directions (maps from variable name to component) to
    differentiate along in forward mode; the unit seeds ``{name: 1.0}``
    give Jacobian columns. Returns the function bound twice, to float
    arithmetic for a point and to numpy for a batch: ``fn(env, V, D=None)``
    writes value i to ``V[i]`` and, when ``D`` is given, the derivative of
    expression i along seed j to ``D[i * len(seeds) + j]``. At a point V and
    D are lists; on a batch they are the caller's entry-major output arrays,
    indexed first by that position, so every write is contiguous. With
    checked, returns the one function bound to emit.CHECKED instead, whose
    calls take their sites (see _kernel_lines): it computes the point
    function's numbers, or raises the ExprDomainError naming the node whose
    call failed.

    Each node runs dual-number arithmetic along each seed, in a fixed
    order, so results are reproducible bit for bit.
    Derivatives drop their structural zeros (see _kernel_lines): a dropped
    term is +-0, and x +- 0 = x and x * 1.0 = x exactly, so every
    derivative that dense forward mode gives as a finite nonzero number
    keeps its bits; a derivative that is exactly zero may change sign (a
    structurally zero one reads +0.0), and where an intermediate value is
    inf or nan a derivative may be finite where the dense one was nan.
    Constants come in through a table, and point functions raise plain
    arithmetic errors. Subtrees shared by identity are computed once. As
    in SymPy's lambdify, a result used once is written inline where it is
    used, a result used more often gets a temporary that is deleted after
    its last use, and unused code is dropped. Derivative code runs only
    when D is given.
    """
    lines, consts = _kernel_lines(exprs, seeds, checked=checked)
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

    def bind(ns):
        return emit.function("def kernel(env, V, D=None):", body or ["pass"],
                             {**consts, **ns})

    return bind(emit.CHECKED) if checked else (bind(emit.POINT),
                                               bind(emit.BATCH))


class Kernel:
    """Values and derivatives of one expression list, compiled once.

    Derivatives are taken along ``seeds`` in sparse forward mode, with
    their structural zeros dropped (see compile_kernel); the kernel is
    emitted on first use and kept on the instance. When the point
    function raises (ValueError, ZeroDivisionError, OverflowError,
    KeyError) or gives a non-finite number, the point runs again through
    the checked text of the same kernel (compile_kernel with checked,
    compiled on first use and kept too), which gives the same numbers or
    raises the ExprDomainError naming the subexpression whose call failed
    first in the kernel's order: expression by expression, values before
    derivatives. A variable missing from env raises
    UndeclaredVariableError. Batch evaluation checks no domain: invalid
    points yield nan/inf.
    """

    def __init__(self, exprs, seeds=()):
        self.exprs = list(exprs)
        self.seeds = [dict(s) for s in seeds]
        self._fns = None
        self._checked = {}  # checked functions by cols, None for every seed

    def _fn(self, batch):
        if self._fns is None:
            self._fns = compile_kernel(self.exprs, self.seeds)
        return self._fns[batch]

    def _check(self, env, vals, ders=None, cols=None):
        """Run the point again through the checked text, along the seeds
        of cols (every seed when None)."""
        key = None if cols is None else tuple(cols)
        if key not in self._checked:
            seeds = self.seeds if cols is None else [self.seeds[j] for j in cols]
            self._checked[key] = compile_kernel(self.exprs, seeds, checked=True)
        try:
            self._checked[key](env, vals, ders)
        except KeyError as err:
            raise UndeclaredVariableError(err.args[0]) from None

    def values(self, env):
        """Values at a point, as an array."""
        vals = [0.0] * len(self.exprs)
        try:
            self._fn(False)(env, vals)
            if all(map(math.isfinite, vals)):
                return np.array(vals, dtype=float)
        except emit.KERNEL_ERRORS:
            pass
        self._check(env, vals)
        return np.array(vals, dtype=float)

    def dual(self, env, cols=None):
        """(values, Jacobian) at a point: row i of the Jacobian holds the
        derivatives of expression i along the seeds of cols (a list of
        seed numbers), along every seed when cols is None. Only the
        derivatives along those seeds can fail."""
        m, n = len(self.exprs), len(self.seeds)
        vals, ders = [0.0] * m, [0.0] * (m * n)
        try:
            self._fn(False)(env, vals, ders)
            ok = all(map(math.isfinite, vals)) and all(map(math.isfinite, ders))
        except emit.KERNEL_ERRORS:
            ok = False
        if not ok:
            width = n if cols is None else len(cols)
            ders = [0.0] * (m * width)
            self._check(env, vals, ders, cols)
            return vals, np.array(ders, dtype=float).reshape(m, width)
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
