"""Span and counter tracing of rmtlab, installed from outside the package.

The tracer replaces public functions and methods of ``rmtlab`` with
wrappers.  A module-level function is replaced in every ``rmtlab`` module
that holds a reference to it, because modules import names directly
(``replica_rg`` calls ``canonical_graph`` through its own global, not
through ``graphs``).  Methods are replaced on their class.

Two kinds of wrapper exist:

* a *span* records ``[name, start, end, parent, leaf_s]`` for every call;
  spans stay in memory until the operation ends;
* a *leaf* is for functions called hundreds of thousands of times (ring
  arithmetic, canonical forms, random draws).  It only counts calls and
  adds its time to a per-layer total and to the ``leaf_s`` of the
  enclosing span, so self times stay exact without storing a span per call.

Self time of a span is its duration minus its direct child spans and the
leaf time recorded directly under it.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter

_clock = time.perf_counter

# name -> (module, attribute)
SPAN_FUNCTIONS = {
    "cli.cmd_sample": ("rmtlab.cli", "cmd_sample"),
    "cli.cmd_moments": ("rmtlab.cli", "cmd_moments"),
    "cli.cmd_cumulant_scan": ("rmtlab.cli", "cmd_cumulant_scan"),
    "cli.cmd_rg_flow": ("rmtlab.cli", "cmd_rg_flow"),
    "linalg.eigenvalues_hermitian": ("rmtlab.linalg", "eigenvalues_hermitian"),
    "ensembles.sample": ("rmtlab.ensembles", "sample"),
    "spectral.convergence_scan": ("rmtlab.spectral", "convergence_scan"),
    "cumulant_scan.estimate_entry_cumulant": ("rmtlab.cumulant_scan", "estimate_entry_cumulant"),
    "partitions.cumulants_from_moments": ("rmtlab.partitions", "cumulants_from_moments"),
    "partitions.moments_from_cumulants": ("rmtlab.partitions", "moments_from_cumulants"),
    "partitions.trace_moment_expectation": ("rmtlab.partitions", "trace_moment_expectation"),
    "replica_rg.integrate_flow": ("rmtlab.replica_rg", "integrate_flow"),
    "replica_rg.check_bounds_flow": ("rmtlab.replica_rg", "check_bounds_flow"),
    "replica_rg.to_free_basis": ("rmtlab.replica_rg", "to_free_basis"),
    "replica_rg.to_distinct_basis": ("rmtlab.replica_rg", "to_distinct_basis"),
    "replica_rg.wick_oracle": ("rmtlab.replica_rg", "wick_oracle"),
}

# name (counter and layer) -> (module, attribute)
LEAF_FUNCTIONS = {
    "spectral.scale_spectrum": ("rmtlab.spectral", "scale_spectrum"),
    "spectral.esd_moment": ("rmtlab.spectral", "esd_moment"),
    "partitions.set_partitions": ("rmtlab.partitions", "set_partitions"),
    "graphs.canonical_graph": ("rmtlab.graphs", "canonical_graph"),
}

# counter name -> [(module, class, method, layer whose leaf time it adds to)]
LEAF_METHODS = {
    "linalg.RngHandle.draws": [("rmtlab.linalg", "RngHandle", m, "linalg.RngHandle")
                               for m in ("normals", "uniform", "choice_index")],
    "linalg.RngHandle.substreams": [("rmtlab.linalg", "RngHandle", "substream",
                                     "linalg.RngHandle")],
    "linalg.HermitianMatrix.from_upper": [("rmtlab.linalg", "HermitianMatrix", "from_upper",
                                           "linalg.HermitianMatrix.from_upper")],
    "ring.RingElement.builds": [("rmtlab.ring", "RingElement", "__init__", "ring.RingElement")],
    "ring.RingElement.ops": [("rmtlab.ring", "RingElement", m, "ring.RingElement")
                             for m in ("__add__", "__sub__", "__neg__", "__mul__", "__rmul__",
                                       "scale", "shift_N", "n_grade")],
}


class Tracer:
    """Spans and counters for one operation; ``install`` / ``uninstall``."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.leaf_s: Counter = Counter()
        self._open: list[int] = []
        self._in_leaf = False
        self._restore: list[tuple] = []

    # -- wrappers ---------------------------------------------------------

    def _span(self, name, fn, on_return=None):
        spans, open_ = self.spans, self._open

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, _clock(), 0.0, open_[-1] if open_ else -1, 0.0]
            open_.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = _clock()
                open_.pop()
            if on_return is not None:
                on_return(args, kwargs, result)
            return result

        return wrapper

    def _leaf(self, counter, layer, fn):
        counts, leaf_s, spans, open_ = self.counts, self.leaf_s, self.spans, self._open

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[counter] += 1
            if self._in_leaf:
                return fn(*args, **kwargs)
            self._in_leaf = True
            t0 = _clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = _clock() - t0
                self._in_leaf = False
                leaf_s[layer] += dt
                if open_:
                    spans[open_[-1]][4] += dt

        return wrapper

    def _count(self, counter, fn, amount=None):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[counter] += 1 if amount is None else amount(args, kwargs)
            return fn(*args, **kwargs)

        return wrapper

    # -- patching ---------------------------------------------------------

    def _replace_everywhere(self, module_name, attr, make):
        orig = getattr(sys.modules[module_name], attr)
        wrapped = make(orig)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "rmtlab" or mod_name.startswith("rmtlab.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is orig:
                    self._restore.append((mod, key, orig))
                    setattr(mod, key, wrapped)

    def _replace_method(self, module_name, cls_name, method, make):
        cls = getattr(sys.modules[module_name], cls_name)
        raw = cls.__dict__[method]
        self._restore.append((cls, method, raw))
        if isinstance(raw, classmethod):
            setattr(cls, method, classmethod(make(raw.__func__)))
        else:
            setattr(cls, method, make(raw))

    def install(self):
        """Wrap every traced name; rmtlab must already be imported."""
        import rmtlab.cli  # noqa: F401  (makes every traced module importable by name)

        for name, (mod, attr) in SPAN_FUNCTIONS.items():
            on_return = self._flow_stats if name == "replica_rg.integrate_flow" else None
            self._replace_everywhere(mod, attr,
                                     lambda fn, n=name, r=on_return: self._span(n, fn, r))
        for name, (mod, attr) in LEAF_FUNCTIONS.items():
            self._replace_everywhere(mod, attr, lambda fn, n=name: self._leaf(n, n, fn))
        for counter, targets in LEAF_METHODS.items():
            for mod, cls, method, layer in targets:
                self._replace_method(mod, cls, method,
                                     lambda fn, c=counter, l=layer: self._leaf(c, l, fn))
        self._replace_method("rmtlab.ensembles", "EnsembleSpec", "__post_init__",
                             lambda fn: self._count("ensembles.EnsembleSpec.builds", fn))
        self._replace_method("rmtlab.ensembles", "QuarticChain", "run_sweeps",
                             lambda fn: self._span("ensembles.QuarticChain.run_sweeps", fn,
                                                   self._chain_stats))
        self._replace_everywhere("rmtlab.cli", "_write_text",
                                 lambda fn: self._count("cli.bytes_written", fn,
                                                        lambda a, k: len(a[1].encode())))

    def uninstall(self):
        for owner, key, orig in reversed(self._restore):
            setattr(owner, key, orig)
        self._restore.clear()

    # -- values read from returned objects -----------------------------------

    def _flow_stats(self, args, kwargs, state):
        self.counts["replica_rg.flow.graphs"] += len(state.table)
        self.counts["replica_rg.flow.truncation_events"] += len(state.truncation_events)

    def _chain_stats(self, args, kwargs, _result):
        chain, count = args[0], args[1]
        adapt = args[2] if len(args) > 2 else kwargs.get("adapt")
        self.counts["ensembles.QuarticChain.sweeps"] += count
        if not adapt:
            self.counts["ensembles.QuarticChain.acceptance_sum"] += chain.accept_rate
            self.counts["ensembles.QuarticChain.acceptance_n"] += 1

    # -- summary ------------------------------------------------------------

    def summary(self) -> dict:
        """Per span name: calls, total and self seconds; plus leaf totals and counts."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        spans: dict[str, list] = {}
        for i, (name, start, end, parent, leaf) in enumerate(self.spans):
            entry = spans.setdefault(name, [0, 0.0, 0.0])
            entry[0] += 1
            entry[1] += end - start
            entry[2] += end - start - child[i] - leaf
        return {"spans": spans, "leaf_s": dict(self.leaf_s), "counts": dict(self.counts)}
