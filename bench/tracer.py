"""Layer spans for wsteenrod, recorded from outside the library.

A Tracer replaces selected functions and methods of the library modules
with thin wrappers for the duration of a ``with`` block.  Each call records
one span (function, start, end, parent span) in flat in-memory arrays; the
spans are aggregated into per-layer self times and counts, and may be
written out, only after the traced work is done.  Leaving the block puts
every original attribute back.

A module-level function is also replaced under every name another library
module imported it as (``resolution.gf2_kernel`` and ``resolution.rank``
are ``gf2.kernel`` and ``gf2.rank``), so calls through those names are
traced too.  ``bidegree_basis`` is never wrapped: it is called hundreds of
thousands of times per resolution, so a wrapper would dominate the traced
run; its entry count is read from ``cache_info()`` instead.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import time
import weakref
from array import array

# (module, attribute path, layer).  Self time of a layer excludes time spent
# in any wrapped callee, so per-layer self times never double count.
WRAPPED = (
    ("milnor", "MilnorAlgebra.mult_table", "milnor.mult_table"),
    ("milnor", "MilnorAlgebra.right_mult_matrix", "milnor.right_mult_matrix"),
    ("milnor", "MilnorAlgebra.right_pt_matrix", "milnor.right_pt_matrix"),
    ("milnor", "coproduct_monomial", "milnor.coproduct_monomial"),
    ("gf2", "rref", "gf2.elim"),
    ("gf2", "rank", "gf2.elim"),
    ("gf2", "kernel", "gf2.elim"),
    ("gf2", "solve", "gf2.elim"),
    ("gf2", "Subspace.from_matrix_rows", "gf2.elim"),
    ("gf2", "BitMatrix.transpose", "gf2.transpose"),
    ("gf2", "Subspace.reduce", "gf2.reduce"),
    ("resolution", "FreeModule.layout", "resolution.layout"),
    ("resolution", "FreeModule.dim", "resolution.dim"),
    ("resolution", "ModuleMap.matrix", "resolution.matrix"),
    ("resolution", "minimal_resolution", "resolution.resolve"),
    ("modules", "QuotientModule.dim", "modules.quotient"),
    ("modules", "QuotientModule.killed_subspace", "modules.quotient"),
    ("modules", "QuotientModule.representatives", "modules.quotient"),
    ("modules", "QuotientModule.projection_matrix", "modules.quotient"),
    ("modules", "QuotientModule.lift_matrix", "modules.quotient"),
    ("modules", "GradedModule.act", "modules.action"),
    ("modules", "GradedModule.generator_action_matrix", "modules.action"),
    ("modules", "AlgebraModule.op_matrix", "modules.action"),
    ("modules", "AlgebraModule.generator_action_matrix", "modules.action"),
    ("modules", "TrivialModule.op_matrix", "modules.action"),
    ("modules", "TrivialModule.generator_action_matrix", "modules.action"),
    ("modules", "QuotientModule.op_matrix", "modules.action"),
    ("modules", "QuotientModule.right_pt_matrix", "modules.action"),
    ("modules", "QuotientModule.generator_action_matrix", "modules.action"),
    ("modules", "TensorModule.op_matrix", "modules.action"),
    ("charts", "chart_file_dumps", "charts.dump"),
) + tuple(
    ("verify", f"SUITES.{suite}", f"verify.{suite}")
    for suite in ("hopf", "pst", "classical", "margolis", "kw", "wbp", "charts")
)

# module-level lru caches whose entry counts are reported as "built"
CACHE_COUNTS = {
    "milnor.bidegree_basis": "bidegree_basis",
    "milnor.coproduct_monomial": "coproduct_monomial",
    "milnor.antipode_monomial": "antipode_monomial",
}


def _library_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "wsteenrod" or name.startswith("wsteenrod."))]


class Tracer:
    """Records spans at the library's layer boundaries while installed."""

    def __init__(self) -> None:
        self.functions: list[str] = []  # span function names, by id
        self.layers: list[str] = []  # layer of each span function id
        self.fn_id = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self._stack: list[int] = []
        self.distinct: dict[str, set] = {}
        self.counts: dict[str, int] = {}
        self._serial = weakref.WeakKeyDictionary()
        self._serials = itertools.count()
        self._patches: list[tuple[object, str, object]] = []
        self._originals: dict[str, object] = {}

    # -- installing -----------------------------------------------------

    def __enter__(self) -> "Tracer":
        try:
            for module, path, layer in WRAPPED:
                self._wrap(sys.modules[f"wsteenrod.{module}"], module, path, layer)
        except BaseException:
            self.uninstall()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)

    def _patch(self, owner, attr: str, value) -> None:
        if isinstance(owner, dict):
            self._patches.append((owner, attr, owner[attr]))
            owner[attr] = value
        else:
            self._patches.append((owner, attr, vars(owner)[attr]))
            setattr(owner, attr, value)

    def _wrap(self, mod, module: str, path: str, layer: str) -> None:
        owner_name, _, attr = path.rpartition(".")
        name = f"{module}.{path}"
        if owner_name == "SUITES":
            owner = mod.SUITES
            self._patch(owner, attr, self._wrapper(owner[attr], name, layer))
            return
        if owner_name:
            owner = getattr(mod, owner_name)
            raw = vars(owner)[attr]
            if isinstance(raw, classmethod):
                self._patch(owner, attr, classmethod(self._wrapper(raw.__func__, name, layer)))
            else:
                self._patch(owner, attr, self._wrapper(raw, name, layer))
            return
        original = getattr(mod, attr)
        self._originals[name] = original
        wrapper = self._wrapper(original, name, layer)
        for lib in _library_modules():
            for alias, value in list(vars(lib).items()):
                if value is original:
                    self._patch(lib, alias, wrapper)

    def _wrapper(self, fn, name: str, layer: str):
        fid = len(self.functions)
        self.functions.append(name)
        self.layers.append(layer)
        hook = _HOOKS.get(layer)
        fn_ids, parents, starts, ends = self.fn_id, self.parent, self.start, self.end
        stack, clock, layers = self._stack, time.perf_counter_ns, self.layers

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            parent = stack[-1] if stack else -1
            fn_ids.append(fid)
            parents.append(parent)
            starts.append(0)
            ends.append(0)
            stack.append(idx)
            starts[idx] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if hook is not None:
                nested = parent >= 0 and layers[fn_ids[parent]] == layer
                hook(self, args, result, nested)
            return result

        return traced

    # -- counters used by the hooks -------------------------------------

    def count(self, key: str, n: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def serial(self, obj) -> int:
        """A number per live object that is never reused, unlike id()."""
        s = self._serial.get(obj)
        if s is None:
            s = self._serial[obj] = next(self._serials)
        return s

    # -- results --------------------------------------------------------

    def totals(self) -> dict:
        """Per-layer self seconds, outermost call counts and counters."""
        n = len(self.start)
        child_ns = [0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child_ns[p] += self.end[i] - self.start[i]
        self_ns: dict[str, int] = {}
        calls: dict[str, int] = {}
        counts = dict(self.counts)
        kernel = self.functions.index("gf2.kernel")
        resolve = self.functions.index("resolution.minimal_resolution")
        for i in range(n):
            layer = self.layers[self.fn_id[i]]
            self_ns[layer] = self_ns.get(layer, 0) + self.end[i] - self.start[i] - child_ns[i]
            p = self.parent[i]
            if p < 0 or self.layers[self.fn_id[p]] != layer:
                calls[layer] = calls.get(layer, 0) + 1
            # one kernel per resolved cell, taken directly by the resolver
            if self.fn_id[i] == kernel and p >= 0 and self.fn_id[p] == resolve:
                counts["resolution.cells"] = counts.get("resolution.cells", 0) + 1
        for layer, keys in self.distinct.items():
            counts[f"{layer}.built"] = len(keys)
        milnor = sys.modules["wsteenrod.milnor"]
        for layer, attr in CACHE_COUNTS.items():
            cached = self._originals.get(f"milnor.{attr}", getattr(milnor, attr))
            counts[f"{layer}.built"] = cached.cache_info().currsize
        return {
            "self_s": {k: v / 1e9 for k, v in sorted(self_ns.items())},
            "calls": dict(sorted(calls.items())),
            "counts": dict(sorted(counts.items())),
            "spans": n,
        }

    def write_spans(self, path: str) -> None:
        """Spans as JSON: function names, then one [fn, start_ns, end_ns, parent] per span."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"functions": self.functions, "layers": self.layers}, fh)
            fh.write("\n")
            for i in range(len(self.start)):
                fh.write(f"[{self.fn_id[i]},{self.start[i]},{self.end[i]},{self.parent[i]}]\n")


# -- per-layer counters recorded at the call boundary ------------------------


def _distinct(tracer: Tracer, layer: str, key) -> None:
    tracer.distinct.setdefault(layer, set()).add(key)


def _mult_table(tracer, args, result, nested):
    self, d1, d2 = args
    _distinct(tracer, "milnor.mult_table", (tracer.serial(self), tuple(d1), tuple(d2)))


def _right_mult_matrix(tracer, args, result, nested):
    self, d1, b = args
    key = (tracer.serial(self), tuple(d1), tuple(b.degree), b.bits)
    _distinct(tracer, "milnor.right_mult_matrix", key)


def _elim(tracer, args, result, nested):
    if nested:
        return
    m = next(a for a in args if hasattr(a, "nrows") and hasattr(a, "ncols"))
    tracer.count("gf2.elim.rows", m.nrows)
    tracer.count("gf2.elim.cols", m.ncols)
    tracer.count("gf2.elim.bitops", m.nrows * m.ncols)


def _matrix(tracer, args, result, nested):
    tracer.count("resolution.matrix.rows", result.nrows)


def _resolve(tracer, args, result, nested):
    res, _ = result
    tracer.count("resolution.generators", sum(len(f.generators) for f in res.frees))


def _dump(tracer, args, result, nested):
    tracer.count("charts.bytes", len(result.encode("utf-8")))


_HOOKS = {
    "milnor.mult_table": _mult_table,
    "milnor.right_mult_matrix": _right_mult_matrix,
    "gf2.elim": _elim,
    "resolution.matrix": _matrix,
    "resolution.resolve": _resolve,
    "charts.dump": _dump,
}


def layer_metrics(totals: dict, wall_s: float) -> dict[str, float]:
    """The benchmark's per-layer metrics from one traced run.

    Layers that some workload never enters (the verify suites, quotient
    modules, the P_t fast path, chart dumps) are reported as their share of
    the traced wall time, so that a layer absent from a workload reads 0 as
    a ratio rather than as a time; the rest are self seconds.
    """
    s = totals["self_s"]
    calls = totals["calls"]
    counts = totals["counts"]

    def share(layer: str) -> float:
        return s.get(layer, 0.0) / wall_s

    cells = counts.get("resolution.cells", 0)
    generators = counts.get("resolution.generators", 0)
    out = {
        "milnor.mult_table.s": s.get("milnor.mult_table", 0.0),
        "milnor.mult_table.calls": calls.get("milnor.mult_table", 0),
        "milnor.mult_table.built": counts.get("milnor.mult_table.built", 0),
        "milnor.right_mult_matrix.calls": calls.get("milnor.right_mult_matrix", 0),
        "milnor.right_mult_matrix.built": counts.get("milnor.right_mult_matrix.built", 0),
        "milnor.coproduct_monomial.s": s.get("milnor.coproduct_monomial", 0.0),
        "milnor.coproduct_monomial.built": counts["milnor.coproduct_monomial.built"],
        "milnor.antipode_monomial.built": counts["milnor.antipode_monomial.built"],
        "milnor.bidegree_basis.built": counts["milnor.bidegree_basis.built"],
        "milnor.right_pt_matrix.share": share("milnor.right_pt_matrix"),
        "milnor.right_pt_matrix.calls": calls.get("milnor.right_pt_matrix", 0),
        "gf2.elim.s": s.get("gf2.elim", 0.0),
        "gf2.elim.calls": calls.get("gf2.elim", 0),
        "gf2.elim.rows": counts.get("gf2.elim.rows", 0),
        "gf2.elim.cols": counts.get("gf2.elim.cols", 0),
        "gf2.elim.bitops": counts.get("gf2.elim.bitops", 0),
        "gf2.transpose.s": s.get("gf2.transpose", 0.0),
        "gf2.reduce.calls": calls.get("gf2.reduce", 0),
        "resolution.layout.s": s.get("resolution.layout", 0.0),
        "resolution.layout.calls": calls.get("resolution.layout", 0),
        "resolution.dim.s": s.get("resolution.dim", 0.0),
        "resolution.matrix.s": s.get("resolution.matrix", 0.0),
        "resolution.matrix.calls": calls.get("resolution.matrix", 0),
        "resolution.matrix.rows": counts.get("resolution.matrix.rows", 0),
        "resolution.cells": cells,
        "resolution.generators": generators,
        "resolution.gens_per_cell": generators / cells if cells else 0.0,
        "modules.quotient.share": share("modules.quotient"),
        "modules.action.s": s.get("modules.action", 0.0),
        "charts.dump.share": share("charts.dump"),
        "charts.bytes": counts.get("charts.bytes", 0),
    }
    for suite in ("hopf", "pst", "classical", "margolis", "kw", "wbp", "charts"):
        out[f"verify.{suite}.share"] = share(f"verify.{suite}")
    return out
