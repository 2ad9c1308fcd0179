"""Layer tracing for the traced benchmark rounds.

Every public function of every tropfan module is wrapped, both in the module
that defines it and wherever another tropfan module (or the package itself)
imported it by name.  The functions are found by introspection, so a later
rename changes metric values, never the tracer.  Each call records one span
(function, parent span, start, end) in flat arrays; a generator records one
span per resumption.  Self time is folded per function and per layer once the
round is over.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import pkgutil
from array import array
from time import perf_counter

# Cells of the prediction table that must read zero on the seed code.  A
# nonzero cell is counted in ``trace.predicted_zero_violations``.
PREDICTED_ZERO = {
    "fan-k6": ("tropmoduli.calls",),
    "trichotomy-6": ("bergman.calls", "intlinalg.calls", "tropmoduli.psi_linear.calls"),
    "moduli-embed": ("bergman.is_balanced.calls", "bergman.primitive_normal.calls"),
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []  # "layer.function", indexed by function id
        self.layer_of: list[str] = []
        self.fraction_fns: set[int] = set()
        self.calls: list[int] = []
        self.errors: dict[str, int] = {}
        self.fid = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.counters: dict[str, float] = {}
        self.distinct: dict[str, set] = {}
        self.hook_errors = 0
        self.hooks = {
            "bergman.bergman_fan": self._count_cones,
            "bergman.is_balanced": self._count_scan,
            "bergman.primitive_normal": self._count_normal,
            "tropmoduli.flat_gamma_stable": self._count_flat,
            "cli.main": self._count_output,
        }

    # -- installation ------------------------------------------------------

    def install(self, package) -> None:
        modules = [
            importlib.import_module(f"{package.__name__}.{info.name}")
            for info in pkgutil.iter_modules(package.__path__)
        ]
        wrapped = {}
        for mod in modules:
            layer = mod.__name__.rsplit(".", 1)[1]
            self.errors[layer] = 0
            for name, obj in vars(mod).items():
                if name.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != mod.__name__:
                    continue
                wrapped[obj] = self._wrap(obj, layer, name)
        for mod in [package] + modules:
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    setattr(mod, name, wrapped[obj])

    def _wrap(self, fn, layer: str, name: str):
        fid = len(self.names)
        qualname = f"{layer}.{name}"
        self.names.append(qualname)
        self.layer_of.append(layer)
        self.calls.append(0)
        if layer == "intlinalg" and "Fraction" in inspect.getsource(fn):
            self.fraction_fns.add(fid)
        hook = self.hooks.get(qualname)
        fids, parents, starts, ends = self.fid, self.parent, self.start, self.end
        stack, calls = self.stack, self.calls

        def open_span() -> int:
            i = len(fids)
            fids.append(fid)
            parents.append(stack[-1] if stack else -1)
            starts.append(perf_counter())
            ends.append(0.0)
            stack.append(i)
            return i

        def close_span(i: int) -> None:
            ends[i] = perf_counter()
            stack.pop()

        def escaped(i: int) -> None:
            p = parents[i]
            if p < 0 or self.layer_of[fids[p]] != layer:
                self.errors[layer] += 1

        if inspect.isgeneratorfunction(fn):
            yields = f"{qualname}.yields"

            @functools.wraps(fn)
            def traced_gen(*args, **kwargs):
                calls[fid] += 1
                gen = fn(*args, **kwargs)
                while True:
                    i = open_span()
                    try:
                        item = next(gen)
                    except StopIteration:
                        close_span(i)
                        return
                    except BaseException:
                        close_span(i)
                        escaped(i)
                        raise
                    close_span(i)
                    self._add(yields, 1)
                    yield item

            return traced_gen

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            calls[fid] += 1
            i = open_span()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                close_span(i)
                escaped(i)
                raise
            close_span(i)
            if hook is not None:
                try:
                    hook(args, result)
                except Exception:
                    self.hook_errors += 1
            return result

        return traced

    # -- counters observed at layer boundaries -----------------------------

    def _add(self, key: str, amount: float) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def _see(self, key: str, item) -> None:
        self.distinct.setdefault(key, set()).add(item)

    def _count_cones(self, args, fan) -> None:
        self._add("bergman.cones", len(fan.cones))

    def _count_scan(self, args, report) -> None:
        # faces a face-by-face scan visits before its verdict, each against
        # every maximal cone
        fan = args[0]
        faces = fan.cones_of_dim(fan.max_dim - 1) if fan.max_dim else ()
        visited = len(faces)
        if report.failing_face is not None:
            visited = faces.index(report.failing_face) + 1
        self._add("bergman.codim1_faces", visited)
        self._add("bergman.pairs_scanned", visited * len(fan.cones_of_dim(fan.max_dim)))

    def _count_normal(self, args, normal) -> None:
        self._see("bergman.primitive_normal", (args[0].rayset, args[1].rayset))

    def _count_flat(self, args, stable) -> None:
        self._see("tropmoduli.flat_gamma_stable", args[0])

    def _count_output(self, args, code) -> None:
        argv = list(args[0])
        if "-o" in argv:
            self._add("cli.output_bytes", os.path.getsize(argv[argv.index("-o") + 1]))

    # -- folding -----------------------------------------------------------

    def metrics(self, workload: str) -> dict[str, float]:
        """Per-layer and per-function figures for the spans recorded so far."""
        n = len(self.fid)
        child = [0.0] * n
        fids, parents, starts, ends = self.fid, self.parent, self.start, self.end
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child[p] += ends[i] - starts[i]
        fn_self = [0.0] * len(self.names)
        for i in range(n):
            fn_self[fids[i]] += ends[i] - starts[i] - child[i]

        out: dict[str, float] = {}
        for layer in self.errors:
            out[f"{layer}.self_s"] = 0.0
            out[f"{layer}.calls"] = 0
            out[f"{layer}.errors"] = self.errors[layer]
        fraction_calls, fraction_self = 0, 0.0
        for f, name in enumerate(self.names):
            layer = self.layer_of[f]
            out[f"{layer}.self_s"] += fn_self[f]
            out[f"{layer}.calls"] += self.calls[f]
            out[f"{name}.self_s"] = fn_self[f]
            out[f"{name}.calls"] = self.calls[f]
            if f in self.fraction_fns:
                fraction_calls += self.calls[f]
                fraction_self += fn_self[f]
        out["intlinalg.fraction_calls"] = fraction_calls
        out["intlinalg.fraction_self_s"] = fraction_self
        for key in ("bergman.cones", "bergman.codim1_faces", "bergman.pairs_scanned", "cli.output_bytes"):
            out[key] = self.counters.get(key, 0)
        out["matroid.chains"] = self.counters.get("matroid.all_chains.yields", 0)
        out["bergman.normal_reuse"] = self._reuse("bergman.primitive_normal", out)
        out["tropmoduli.flat_reuse"] = self._reuse("tropmoduli.flat_gamma_stable", out)
        out["trace.spans"] = n
        out["trace.hook_errors"] = self.hook_errors
        out["trace.predicted_zero_violations"] = sum(
            1 for key in PREDICTED_ZERO.get(workload, ()) if out.get(key, 0)
        )
        return out

    def _reuse(self, name: str, out: dict) -> float:
        """1 - distinct arguments / calls: the share of calls a memo would answer."""
        calls = out.get(f"{name}.calls", 0)
        if not calls:
            return 0.0
        return 1 - len(self.distinct.get(name, ())) / calls
