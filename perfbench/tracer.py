"""Per-layer spans recorded from outside the pmtxcheck package.

The tracer replaces a layer's public functions with timing wrappers for the
length of a ``with`` block and puts the originals back afterwards; nothing in
the package knows it is being traced.  Spans are not kept one by one (the
PMem simulator alone sees millions of calls per run): each finished span is
folded into a per-(layer, parent layer) aggregate of call count and self
time, where self time is the span's duration minus the time of the spans it
directly encloses.
"""

from __future__ import annotations

import time
import types

ROOT = "<root>"


class LayerTracer:
    """Aggregated spans keyed by (layer, parent layer)."""

    def __init__(self):
        self.stats = {}          # (layer, parent) -> [calls, self_s]
        self.hits = {}           # layer -> calls whose result passed `hit`
        self._stack = [[ROOT, 0.0]]
        self._undo = []

    def wrap(self, fn, layer, hit=None):
        stack = self._stack
        stats = self.stats
        hits = self.hits
        clock = time.perf_counter

        def traced(*args, **kwargs):
            frame = [layer, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                parent = stack[-1]
                parent[1] += dt
                agg = stats.get((layer, parent[0]))
                if agg is None:
                    stats[(layer, parent[0])] = [1, dt - frame[1]]
                else:
                    agg[0] += 1
                    agg[1] += dt - frame[1]
            if hit is not None and hit(out):
                hits[layer] = hits.get(layer, 0) + 1
            return out

        traced.__wrapped__ = fn
        return traced

    def patch(self, owner, name, layer, hit=None):
        """Replace ``owner.name`` by its traced form until ``restore``."""
        orig = getattr(owner, name)
        if isinstance(owner, type):
            orig = owner.__dict__[name]  # the plain function, not a binding
        self._undo.append((owner, name, orig))
        setattr(owner, name, self.wrap(orig, layer, hit))

    def restore(self):
        while self._undo:
            owner, name, orig = self._undo.pop()
            setattr(owner, name, orig)

    def instrument_modules(self, pk):
        """Wrap the module-level entry points of every timed layer, and the
        step programs of every Config built while the tracer is active.
        Each function is patched where its caller looks it up: ``explore``
        calls ``successors``, ``blake2b`` and ``pickle.dumps`` through
        explorer's globals, ``successors`` calls ``crash_machine`` through
        engine's, ``Config`` compiles through explorer's ``build_programs``."""
        ex = pk.explorer
        self.patch(ex, "explore", "explorer")
        self.patch(ex, "successors", "engine.successors")
        self.patch(ex, "blake2b", "explorer.blake2b")
        self._undo.append((ex, "pickle", ex.pickle))
        ex.pickle = types.SimpleNamespace(
            dumps=self.wrap(ex.pickle.dumps, "explorer.pickle"))
        build_programs = ex.build_programs

        def build_traced(cfg):
            build_programs(cfg)
            self.instrument_config(cfg)

        self._undo.append((ex, "build_programs", build_programs))
        ex.build_programs = build_traced
        self.patch(pk.engine, "crash_machine", "engine.crash_machine")
        for name, fn in list(vars(pk.pmem.PMem).items()):
            if callable(fn) and not name.startswith("_"):
                self.patch(pk.pmem.PMem, name, "pmem." + name)
        self.patch(pk.refspec, "advance_frontier", "refspec.advance_frontier")
        self.patch(pk.refspec, "accepts_history", "refspec.accepts_history")
        self.patch(pk.histories, "events_of_records",
                   "histories.events_of_records")
        self.patch(pk.opacity, "check_history_ddo",
                   "opacity.check_history_ddo")
        self.patch(pk.opacity, "find_witness", "opacity.find_witness",
                   hit=lambda w: w is not None)
        self.patch(pk.opacity, "check_dynamic_opacity_execution",
                   "opacity.graph_check")

    def instrument_config(self, cfg):
        """Wrap one Config's compiled step programs.  Step closures are
        split by the module that built them, so PMDK lines and the TML/NOrec
        lines layered over them are timed apart."""
        table = cfg.step_table
        for ip, fn in enumerate(table):
            if callable(fn):
                layer = fn.__module__.rsplit(".", 1)[-1] + ".steps"
                table[ip] = self.wrap(fn, layer)
        cfg.recovery_step = self.wrap(cfg.recovery_step, "pmdk.recovery")

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    # -- results ---------------------------------------------------------

    def totals(self):
        """layer -> (calls, self_s), summed over parent layers."""
        out = {}
        for (layer, _parent), (calls, self_s) in self.stats.items():
            c, s = out.get(layer, (0, 0.0))
            out[layer] = (c + calls, s + self_s)
        return out

    def table(self):
        """The aggregate as JSON-ready rows, largest self time first."""
        rows = [{"layer": layer, "parent": parent, "calls": calls,
                 "self_s": self_s}
                for (layer, parent), (calls, self_s) in self.stats.items()]
        rows.sort(key=lambda r: -r["self_s"])
        return rows
