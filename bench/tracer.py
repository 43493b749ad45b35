"""Outside-in layer trace of daekit, recorded from the benchmark's own files.

``Tracer.install`` wraps the public module-level functions of the layers in
LAYERS, the methods in METHODS and ``cli.main`` (the root span of every
query), and replaces every binding of each wrapped function in every loaded
daekit module: ``flow`` imports ``solve_constraint`` by name, ``periodic``
imports ``time_T_map`` and ``find_zeros`` by name, and the package
re-exports most of them. A binding that escapes the patch fails the run.

Spans live in flat arrays (name, start, end, parent span, query id, error,
batch rows) until ``summary`` folds them into per-function totals and
``save`` writes them out.
"""

import functools
import importlib
import inspect
import sys
import time
from array import array

import numpy as np

LAYERS = ("expr", "linalg", "dae", "degree", "flow", "periodic", "sysfile")
METHODS = {
    "dae": {"SystemDef": ("jac_rows",)},
    "degree": {"VectorField": ("value", "jacobian", "value_batch",
                               "jacobian_batch")},
}
BATCH_METHODS = ("degree.VectorField.value_batch",
                 "degree.VectorField.jacobian_batch")


def _daekit_modules():
    return [m for name, m in sorted(sys.modules.items())
            if name == "daekit" or name.startswith("daekit.")]


class Tracer:
    def __init__(self):
        self.names = []
        self.errors = []
        self.query_id = -1
        self._stack = []
        self._originals = {}      # id(original) -> (original, wrapper)
        self._patched = []        # (owner, attribute, original)
        self._clear()

    def _clear(self):
        self.name = array("i")
        self.parent = array("i")
        self.query = array("i")
        self.error = array("i")
        self.rows = array("i")
        self.start = array("d")
        self.end = array("d")

    def _intern(self, table, value):
        if value not in table:
            table.append(value)
        return table.index(value)

    def _wrap(self, qualname, fn):
        nid = self._intern(self.names, qualname)
        batch = qualname in BATCH_METHODS
        stack, clock = self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(self.name)
            self.name.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.query.append(self.query_id)
            self.error.append(-1)
            self.rows.append(len(args[1]) if batch else 0)
            self.start.append(0.0)
            self.end.append(0.0)
            stack.append(sid)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                self.error[sid] = self._intern(self.errors, type(exc).__name__)
                raise
            finally:
                t1 = clock()
                stack.pop()
                self.start[sid] = t0
                self.end[sid] = t1

        traced.bench_traced = True
        return traced

    # -- patching --

    def install(self):
        if self._patched:
            raise RuntimeError("tracer already installed")
        cli = importlib.import_module("daekit.cli")
        targets = [("cli.main", cli.main)]
        for layer in LAYERS:
            mod = importlib.import_module(f"daekit.{layer}")
            for attr, val in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(val)
                        and val.__module__ == mod.__name__):
                    targets.append((f"{layer}.{attr}", val))
            for cls_name, meths in METHODS.get(layer, {}).items():
                cls = getattr(mod, cls_name)
                for meth in meths:
                    fn = cls.__dict__[meth]
                    wrapper = self._wrap(f"{layer}.{cls_name}.{meth}", fn)
                    setattr(cls, meth, wrapper)
                    self._patched.append((cls, meth, fn))
        for qualname, fn in targets:
            self._originals[id(fn)] = (fn, self._wrap(qualname, fn))
        for mod in _daekit_modules():
            for attr, val in list(vars(mod).items()):
                hit = self._originals.get(id(val))
                if hit is not None and hit[0] is val:
                    setattr(mod, attr, hit[1])
                    self._patched.append((mod, attr, val))
        leaks = self._bindings(lambda v: self._is_original(v))
        if leaks:
            self.uninstall()
            raise RuntimeError("unwrapped bindings left after patching: "
                               + ", ".join(leaks))
        return len(self._patched)

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()
        self._originals.clear()
        leaks = self._bindings(lambda v: getattr(v, "bench_traced", False))
        if leaks:
            raise RuntimeError("wrappers left after restoring: "
                               + ", ".join(leaks))

    def _is_original(self, val):
        hit = self._originals.get(id(val))
        return hit is not None and hit[0] is val

    def _bindings(self, pred):
        """Every place in daekit where a function can be looked up by name:
        module globals, class attributes and default argument values."""
        found = []
        for mod in _daekit_modules():
            for attr, val in vars(mod).items():
                if pred(val):
                    found.append(f"{mod.__name__}.{attr}")
                owners = [(attr, val)]
                if inspect.isclass(val) and val.__module__ == mod.__name__:
                    owners += [(f"{attr}.{a}", v) for a, v in vars(val).items()]
                for where, obj in owners:
                    if where != attr and pred(obj):
                        found.append(f"{mod.__name__}.{where}")
                    fn = getattr(obj, "__wrapped__", obj)
                    if inspect.isfunction(fn):
                        defaults = list(fn.__defaults__ or ())
                        defaults += list((fn.__kwdefaults__ or {}).values())
                        if any(pred(d) for d in defaults):
                            found.append(f"{mod.__name__}.{where} (default)")
        return found

    # -- results --

    def take(self):
        """Spans recorded since the last call, as numpy arrays."""
        spans = {
            "name": np.frombuffer(self.name, dtype=np.intc).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.intc).copy(),
            "query": np.frombuffer(self.query, dtype=np.intc).copy(),
            "error": np.frombuffer(self.error, dtype=np.intc).copy(),
            "rows": np.frombuffer(self.rows, dtype=np.intc).copy(),
            "start": np.frombuffer(self.start, dtype=float).copy(),
            "end": np.frombuffer(self.end, dtype=float).copy(),
        }
        self._clear()
        return spans

    def summary(self, spans):
        """Per-function totals of one batch of spans."""
        name, parent = spans["name"], spans["parent"]
        n_names = len(self.names)
        dur = spans["end"] - spans["start"]
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=len(name))
        self_time = dur - child
        pname = np.where(has_parent, name[np.maximum(parent, 0)], -1)
        calls = np.bincount(name, minlength=n_names)
        total = np.bincount(name, weights=dur, minlength=n_names)
        self_total = np.bincount(name, weights=self_time, minlength=n_names)
        rows = np.bincount(name, weights=spans["rows"], minlength=n_names)
        out = {}
        for nid, qualname in enumerate(self.names):
            mine = name == nid
            errs = spans["error"][mine]
            fails = {self.errors[e]: int(np.sum(errs == e))
                     for e in np.unique(errs[errs >= 0])}
            under = {self.names[p]: int(np.sum(mine & (pname == p)))
                     for p in np.unique(pname[mine]) if p >= 0}
            out[qualname] = {
                "calls": int(calls[nid]),
                "s": float(total[nid]),
                "self_s": float(self_total[nid]),
                "rows": int(rows[nid]),
                "fail": fails,
                "under": under,      # calls made directly from each caller
            }
        return out

    def save(self, path, batches):
        """Write every recorded span, one batch per traced pass."""
        arrays = {"names": np.array(self.names), "errors": np.array(self.errors)}
        for i, spans in enumerate(batches):
            arrays.update({f"pass{i}_{k}": v for k, v in spans.items()})
        np.savez_compressed(path, **arrays)
