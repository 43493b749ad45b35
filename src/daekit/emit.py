"""The code generator's text level: expr, dae, linalg, degree and flow
write their own statements, and this module holds the line builders they
share, the namespaces the texts are bound to, and the one compile
(function), which compiles each distinct text once per process. It
imports nothing from daekit but errors.
"""

import functools
import math
import operator

import numpy as np

from .errors import ExprDomainError, SingularMatrixError

PIVOT_RTOL = 1e-12
KERNEL_ERRORS = (ValueError, ZeroDivisionError, OverflowError, KeyError)


# The names a kernel calls: plain float arithmetic at a point, numpy on a
# batch, one function per name (pw is the power of values and derivatives
# alike).
POINT = {"sin": math.sin, "cos": math.cos, "exp": math.exp, "log": math.log,
         "sqrt": math.sqrt, "div": operator.truediv, "pw": operator.pow}
BATCH = {"sin": np.sin, "cos": np.cos, "exp": np.exp, "log": np.log,
         "sqrt": np.sqrt, "div": np.divide, "pw": np.power}

# What a checked call's failure means, by the kind of its site: the message,
# formatted with the call's arguments and then the site's operand. "pw" with
# a zero base and a negative exponent is "pw0"; "ln'", "sqrt'" and "square"
# are the divisions of the ln, sqrt and quotient derivatives.
MESSAGES = {"sin": "sin of {0}", "cos": "cos of {0}", "exp": "exp overflow",
            "ln": "ln of nonpositive value {0}",
            "ln'": "ln of nonpositive value {1}",
            "sqrt": "sqrt of negative value {0}",
            "sqrt'": "sqrt not differentiable at {1}",
            "div": "division by zero",
            "square": "square of divisor {2} underflows",
            "pw": "power of {0} overflows",
            "pw0": "zero base with negative exponent"}


def _checked(fn):
    """fn with one more argument, the site (kind, subexpression, operand
    ...): a failure raises ExprDomainError naming the subexpression, and
    so does an exp of inf, which math.exp returns; a sqrt derivative with a
    zero numerator at 0 is 0.0 (2 sqrt(v) is zero only where v is, with
    v's sign)."""
    def call(*args):
        *args, (kind, text, *operand) = args
        try:
            out = fn(*args)
        except (ValueError, ArithmeticError) as err:
            if kind == "sqrt'" and args[0] == 0.0:
                return 0.0
            if kind == "pw" and isinstance(err, ZeroDivisionError):
                kind = "pw0"
            raise ExprDomainError(MESSAGES[kind].format(*args, *operand),
                                  text) from None
        if kind == "exp" and out == math.inf:
            raise ExprDomainError(MESSAGES[kind], text)
        return out
    return call


# POINT with each failure named by the call's site (expr.compile_kernel's
# checked text)
CHECKED = {name: _checked(fn) for name, fn in POINT.items()}


# ---------------------------------------------------------------------------
# The LU as emitted float code
#
# lu_lines and solve_lines write the partial-pivot LU and its substitution
# as straight-line statements on named locals. linalg's lu_factor and
# lu_apply run them through linalg._lu, and dae's reduced-field stage and
# constraint step emit them inline. Every dot product is a left-to-right
# float sum. The text binds to two namespaces: FED for numbers known to be
# finite (the builtins), and GIVEN for any numbers, which picks pivots and
# thresholds in numpy's nan order and divides by zero as numpy does.


def _nan_max(*xs):
    """max as np.max takes it: nan when any entry is nan."""
    for x in xs:
        if x != x:
            return x
    return max(xs)


def _nan_gt(a, b):
    """a ranks above b in np.argmax: by value, and nan above all else."""
    return a > b or (a != a and b == b)


def _ieee_div(a, b):
    """a / b, inf or nan (as numpy gives) where Python raises."""
    if b == 0.0:
        with np.errstate(all="ignore"):
            return float(np.divide(a, b))
    return a / b


def _pivot_error(pivot, tol, col):
    """The error of a pivot at most its threshold."""
    return SingularMatrixError(
        f"pivot {pivot:.3e} below threshold {tol:.3e} at column {col}"
    )


FED = {"amax": max, "gt": operator.gt, "dv": operator.truediv,
       "singular": _pivot_error, "RTOL": PIVOT_RTOL}
GIVEN = {**FED, "amax": _nan_max, "gt": _nan_gt, "dv": _ieee_div}
# a kernel at a point, its finiteness guard (guarded) and then FED algebra
STAGE = {**FED, **POINT, "isfinite": math.isfinite, "ERRORS": KERNEL_ERRORS}

# The elimination of linalg._solve_rows as emitted numpy calls. Only
# correctly rounded elementwise ufuncs touch the numbers: abs, comparisons,
# masked copies, and - * / each rounded once and never fused into an FMA.
# So every host gets the same bits.
UFUNCS = {"absolute": np.absolute, "greater": np.greater, "equal": np.equal,
          "maximum": np.maximum, "logical_or": np.logical_or,
          "copyto": np.copyto, "multiply": np.multiply,
          "subtract": np.subtract, "divide": np.divide, "nan": math.nan}


def tup(names):
    """The names as a tuple display or an assignment target, each followed
    by a comma ("a, b,"; "" for no names)."""
    return "".join(f"{nm}, " for nm in names).rstrip()


def unpack(names, source):
    """The statement that unpacks the sequence source into the locals
    names; none for no names."""
    return [f"{tup(names)} = {source}"] if names else []


def indent(lines):
    return ["    " + ln for ln in lines]


def guarded(kernel, checked):
    """The kernel lines, then FED: whether the sum of the locals checked is
    finite, False where the kernel raises."""
    return ["try:"] + indent(kernel) + [
        f"    FED = isfinite({' + '.join(checked)})",
        "except ERRORS:",
        "    FED = False"]


def norm_code(vs):
    """|vs|_1 as code, left to right."""
    return " + ".join(f"abs({v})" for v in vs) or "0.0"


def dot(us, vs):
    """The sum of the products us[i] * vs[i] as code: left to right, from
    0.0 (so a product -0.0 sums to 0.0)."""
    return "".join(f" + {u} * {v}" for u, v in zip(us, vs)).join(["(0.0", ")"])


def box_bounds(box):
    """(lines, names): the statements that unpack the bounds of box into
    the locals LO{c} and HI{c}, and the namespace entries LO and HI they
    read."""
    los, his = ([f"{b}{c}" for c in range(len(box.lo))] for b in ("LO", "HI"))
    return unpack(los, "LO") + unpack(his, "HI"), {
        "LO": tuple(box.lo.tolist()), "HI": tuple(box.hi.tolist())}


def lu_lines(rows, carry, fail):
    """The partial-pivot LU of the matrix whose entries are the locals
    rows[r][c], in place. Row exchanges take the locals carry[r] along (the
    right-hand sides, so they end up permuted like lu_apply's b[piv]). fail
    is the statement run on a rejected pivot, formatted with the pivot {p}
    and the column {col}; the threshold is TOL, RTOL times the largest
    |entry|."""
    s = len(rows)
    if s == 0:
        return []
    entries = [e for row in rows for e in row]
    if s == 1:
        lines = [f"TOL = RTOL * abs({rows[0][0]})"]
    else:
        lines = [f"TOL = RTOL * amax({', '.join(f'abs({e})' for e in entries)})"]

    def swap(r1, r2):
        a, b = rows[r1] + carry[r1], rows[r2] + carry[r2]
        return f"{', '.join(a + b)} = {', '.join(b + a)}"

    for col in range(s):
        piv = rows[col][col]
        below = range(col + 1, s)
        if len(below) == 1:
            lines += [f"if gt(abs({rows[col + 1][col]}), abs({piv})):",
                      "    " + swap(col, col + 1)]
        elif below:  # the first largest |entry| of the column, as np.argmax
            lines.append(f"G = abs({piv}); I = {col}")
            lines += [f"if gt(abs({rows[r][col]}), G): "
                      f"G = abs({rows[r][col]}); I = {r}" for r in below]
            for j, r in enumerate(below):
                lines += [f"{'el' * (j > 0)}if I == {r}:", "    " + swap(col, r)]
        lines += [f"if abs({piv}) <= TOL:",
                  "    " + fail.format(p=piv, col=col)]
        lines += [f"{rows[r][col]} = dv({rows[r][col]}, {piv})" for r in below]
        lines += [f"{rows[r][c]} = {rows[r][c]} - {rows[r][col]} * {rows[col][c]}"
                  for r in below for c in below]
    return lines


def solve_lines(rows, xs):
    """Forward and back substitution on the permuted locals xs, in place,
    with the factors lu_lines left in rows."""
    s = len(rows)
    lines = [f"{xs[i]} = {xs[i]} - ({dot(rows[i][:i], xs[:i])})"
             for i in range(1, s)]
    for i in range(s - 1, -1, -1):
        if i + 1 < s:
            lines.append(f"{xs[i]} = {xs[i]} - "
                         f"({dot(rows[i][i + 1:], xs[i + 1:])})")
        lines.append(f"{xs[i]} = dv({xs[i]}, {rows[i][i]})")
    return lines


@functools.lru_cache(maxsize=256)
def _code(src, name):
    """The code object of the emitted function src, compiled once per
    process while it stays among the 256 most recently used sources."""
    return compile(src, f"<daekit {name}>", "exec")


def function(header, body, namespace):
    """The function ``header`` with the statements body, run in namespace.
    Equal texts share one code object (_code); each caller execs it into
    its own namespace, which holds its constants and closures."""
    name = header[4:header.index("(")]
    exec(_code("\n    ".join([header] + body), name), namespace)
    return namespace[name]


def given(header, unpacked, lines, **names):
    """The function ``header`` bound to GIVEN and names: it unpacks each
    argument of unpacked, a dict from the argument to its locals, then runs
    lines."""
    body = [ln for arg, locs in unpacked.items() for ln in unpack(locs, arg)]
    return function(header, body + lines, {**GIVEN, **names})
