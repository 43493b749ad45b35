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


def _parse_formulas(texts, declared, key, lines):
    out = []
    for text in texts:
        try:
            out.append(expr.parse(text, declared))
        except Exception as exc:
            raise SystemFileError(
                f"in '{key}' formula '{text}': {exc}", lines.get(key)
            ) from exc
    return out


def _box(pairs, lines):
    """The Box of the bounds pairs; bad bounds name the ``box`` line."""
    try:
        return Box.from_pairs(pairs)
    except ValueError as exc:
        raise SystemFileError(str(exc), lines["box"]) from exc


def load_system(path, name=None):
    """Load a standard semi-explicit system definition."""
    raw, lines = load_raw(path)
    for key in ("gamma", "phi"):
        if key in raw:
            raise SystemFileError(
                f"'{key}' belongs to a reduction input, not a standard system",
                lines[key],
            )
    k = int(_require(raw, lines, "dim_x"))
    s = int(_require(raw, lines, "dim_y"))
    period = _require(raw, lines, "period")
    x_names = [f"x{i + 1}" for i in range(k)]
    y_names = [f"y{i + 1}" for i in range(s)]
    state = x_names + y_names
    f = _parse_formulas(_require(raw, lines, "f"), state, "f", lines)
    g = _parse_formulas(_require(raw, lines, "g"), state, "g", lines)
    h = None
    if "h" in raw:
        h = _parse_formulas(raw["h"], state + ["t"], "h", lines)
    pairs = _require(raw, lines, "box")
    if len(pairs) != k + s:
        raise SystemFileError(
            f"box needs {k + s} bounds pairs, got {len(pairs)}", lines["box"]
        )
    if len(f) != k:
        raise SystemFileError(f"f needs {k} formulas, got {len(f)}", lines["f"])
    if len(g) != s:
        raise SystemFileError(f"g needs {s} formulas, got {len(g)}", lines["g"])
    if h is not None and len(h) != k:
        raise SystemFileError(f"h needs {k} formulas, got {len(h)}", lines["h"])
    box = _box(pairs, lines)
    try:
        return SystemDef(
            k, s, period, f, g, h, box,
            constraint_tol=raw.get("constraint_tol", 1e-10),
            name=name or str(path),
        )
    except ValueError as exc:
        raise SystemFileError(str(exc)) from exc


def load_hessenberg(path):
    """Load a reduction input with constraint ``gamma`` depending on x only."""
    raw, lines = load_raw(path)
    k = int(_require(raw, lines, "dim_x"))
    s = int(_require(raw, lines, "dim_y"))
    period = _require(raw, lines, "period")
    x_names = [f"x{i + 1}" for i in range(k)]
    y_names = [f"y{i + 1}" for i in range(s)]
    f = _parse_formulas(_require(raw, lines, "f"), x_names + y_names, "f", lines)
    gamma = _parse_formulas(_require(raw, lines, "gamma"), x_names, "gamma", lines)
    h = None
    if "h" in raw:
        h = _parse_formulas(raw["h"], x_names + y_names + ["t"], "h", lines)
    pairs = _require(raw, lines, "box")
    if len(gamma) != s:
        raise SystemFileError(f"gamma needs {s} formulas", lines["gamma"])
    if len(pairs) != k + s:
        raise SystemFileError(f"box needs {k + s} bounds pairs", lines["box"])
    return f, gamma, h, period, _box(pairs, lines)


def load_implicit(path):
    """Load an implicit-equation input phi(x, x' + lambda h(t, x)) = 0."""
    raw, lines = load_raw(path)
    k = int(_require(raw, lines, "dim_x"))
    period = _require(raw, lines, "period")
    x_names = [f"x{i + 1}" for i in range(k)]
    y_names = [f"y{i + 1}" for i in range(k)]
    phi = _parse_formulas(_require(raw, lines, "phi"), x_names + y_names,
                          "phi", lines)
    h = None
    if "h" in raw:
        h = _parse_formulas(raw["h"], x_names + ["t"], "h", lines)
    pairs = _require(raw, lines, "box")
    if len(phi) != k:
        raise SystemFileError(f"phi needs {k} formulas", lines["phi"])
    if len(pairs) != 2 * k:
        raise SystemFileError(f"box needs {2 * k} bounds pairs", lines["box"])
    return phi, h, period, _box(pairs, lines)
