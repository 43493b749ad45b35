"""Plain-text system definition files.

One ``key = value`` pair per line; ``#`` starts a comment. Values are either
a number, a comma-separated list of double-quoted formulas, or a
comma-separated list of ``[lo, hi]`` bounds::

    dim_x = 2
    dim_y = 1
    period = 6.283185307179586
    f = "x2", "-x1 + y1 - x2"
    g = "y1^3 + y1 - x1^2"
    h = "cos(t)", "cos(t)"
    box = [-2, 2], [-2, 2], [-2, 2]

``h`` is optional (defaults to zero forcing) and ``constraint_tol`` may
override the 1e-10 default. Reduction inputs replace ``g`` by ``gamma``
(constraint on x only) or the whole system by ``phi`` (implicit form). The
format is deliberately line-based and dependency-free so fixtures diff
cleanly.
"""

import math
import re

from . import expr
from .dae import Box, SystemDef
from .errors import SystemFileError

_SCALAR_KEYS = {"dim_x", "dim_y", "period", "constraint_tol"}
_LIST_KEYS = {"f", "g", "h", "gamma", "phi"}
_KNOWN = _SCALAR_KEYS | _LIST_KEYS | {"box"}


def _parse_quoted_list(text, line_no):
    items = re.findall(r'"([^"]*)"', text)
    leftover = re.sub(r'"[^"]*"', "", text).replace(",", "").strip()
    if not items or leftover:
        raise SystemFileError("expected a comma-separated list of quoted formulas",
                              line_no)
    return items

def _parse_box_list(text, line_no):
    pairs = re.findall(r"\[([^\]]*)\]", text)
    leftover = re.sub(r"\[[^\]]*\]", "", text).replace(",", "").strip()
    if not pairs or leftover:
        raise SystemFileError("expected a comma-separated list of [lo, hi] pairs",
                              line_no)
    out = []
    for p in pairs:
        parts = [s.strip() for s in p.split(",")]
        if len(parts) != 2:
            raise SystemFileError(f"bad bounds pair '[{p}]'", line_no)
        try:
            out.append((float(parts[0]), float(parts[1])))
        except ValueError:
            raise SystemFileError(f"bad bounds pair '[{p}]'", line_no) from None
    return out


def load_raw(path):
    """Parse a system file into a dict of typed values plus line numbers."""
    raw, lines = {}, {}
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            body = line.split("#", 1)[0].strip()
            if not body:
                continue
            if "=" not in body:
                raise SystemFileError("expected 'key = value'", line_no)
            key, value = (s.strip() for s in body.split("=", 1))
            if key not in _KNOWN:
                raise SystemFileError(f"unknown key '{key}'", line_no)
            if key in raw:
                raise SystemFileError(f"duplicate key '{key}'", line_no)
            if key in _SCALAR_KEYS:
                try:
                    raw[key] = float(value)
                except ValueError:
                    raise SystemFileError(
                        f"expected a number for '{key}'", line_no
                    ) from None
            elif key == "box":
                raw[key] = _parse_box_list(value, line_no)
            else:
                raw[key] = _parse_quoted_list(value, line_no)
            lines[key] = line_no
    return raw, lines


def _require(raw, lines, key):
    if key not in raw:
        raise SystemFileError(f"missing required key '{key}'")
    return raw[key]


def _header(raw, lines, *dims):
    """The dimensions named by dims, each a whole number of at least 1,
    then the period; the period and a given constraint_tol must be finite
    and positive. A bad value names its line."""
    out = []
    for key in dims:
        value = _require(raw, lines, key)
        if not (value >= 1 and value.is_integer()):
            raise SystemFileError(
                f"'{key}' must be a whole number of at least 1", lines[key]
            )
        out.append(int(value))
    period = _require(raw, lines, "period")
    for key in ("period", "constraint_tol"):
        if key in raw and not 0 < raw[key] < math.inf:
            raise SystemFileError(f"'{key}' must be finite and positive",
                                  lines[key])
    return (*out, period)


def _formulas(raw, lines, key, declared, count):
    """The count formulas of key over the declared names; a wrong count
    or a bad formula names the key's line."""
    texts = _require(raw, lines, key)
    if len(texts) != count:
        raise SystemFileError(
            f"{key} needs {count} formulas, got {len(texts)}", lines[key]
        )
    out = []
    for text in texts:
        try:
            out.append(expr.parse(text, declared))
        except Exception as exc:
            raise SystemFileError(
                f"in '{key}' formula '{text}': {exc}", lines[key]
            ) from exc
    return out


def _box(raw, lines, count):
    """The Box of the count bounds pairs; bad bounds name the box line."""
    pairs = _require(raw, lines, "box")
    if len(pairs) != count:
        raise SystemFileError(
            f"box needs {count} bounds pairs, got {len(pairs)}", lines["box"]
        )
    try:
        return Box.from_pairs(pairs)
    except ValueError as exc:
        raise SystemFileError(str(exc), lines["box"]) from exc


def load_system(path):
    """Load a standard semi-explicit system definition."""
    raw, lines = load_raw(path)
    for key in ("gamma", "phi"):
        if key in raw:
            raise SystemFileError(
                f"'{key}' belongs to a reduction input, not a standard system",
                lines[key],
            )
    k, s, period = _header(raw, lines, "dim_x", "dim_y")
    state = [f"x{i + 1}" for i in range(k)] + [f"y{i + 1}" for i in range(s)]
    f = _formulas(raw, lines, "f", state, k)
    g = _formulas(raw, lines, "g", state, s)
    h = _formulas(raw, lines, "h", state + ["t"], k) if "h" in raw else None
    box = _box(raw, lines, k + s)
    try:
        return SystemDef(
            k, s, period, f, g, h, box,
            constraint_tol=raw.get("constraint_tol", 1e-10),
        )
    except ValueError as exc:
        raise SystemFileError(str(exc)) from exc


def load_hessenberg(path):
    """Load a reduction input with constraint ``gamma`` depending on x only."""
    raw, lines = load_raw(path)
    k, s, period = _header(raw, lines, "dim_x", "dim_y")
    x_names = [f"x{i + 1}" for i in range(k)]
    state = x_names + [f"y{i + 1}" for i in range(s)]
    f = _formulas(raw, lines, "f", state, k)
    gamma = _formulas(raw, lines, "gamma", x_names, s)
    h = _formulas(raw, lines, "h", state + ["t"], k) if "h" in raw else None
    return f, gamma, h, period, _box(raw, lines, k + s)


def load_implicit(path):
    """Load an implicit-equation input phi(x, x' + lambda h(t, x)) = 0."""
    raw, lines = load_raw(path)
    k, period = _header(raw, lines, "dim_x")
    x_names = [f"x{i + 1}" for i in range(k)]
    y_names = [f"y{i + 1}" for i in range(k)]
    phi = _formulas(raw, lines, "phi", x_names + y_names, k)
    h = _formulas(raw, lines, "h", x_names + ["t"], k) if "h" in raw else None
    return phi, h, period, _box(raw, lines, 2 * k)
