"""Spans around the public functions of each binres module, recorded from
outside the package.

Modules import each other's functions by name (``resultant`` imports
``build_c``, ``oracle`` imports ``build_c`` and ``monomials``), so a function
is replaced in every ``binres`` namespace that holds it; otherwise inner calls
would escape the trace.  Spans are kept in memory while the run lasts and
written out when it ends.  A layer's self time is the time its spans cover
minus the time covered by their child spans.
"""
from __future__ import annotations

import functools
import importlib
import json
import logging
import sys
from collections import Counter
from time import perf_counter

# layer -> (module, public function) pairs timed as that layer
LAYERS = {
    "cli.main": [("binres.cli", "main")],
    "systems.parse": [("binres.systems", "parse")],
    "polynomials.monomials": [("binres.polynomials", "monomials")],
    "frames": [("binres.frames", "build_frame"), ("binres.frames", "build_row_frame"),
               ("binres.frames", "build_column_frame")],
    "coeff_matrix.build_c": [("binres.coeff_matrix", "build_c")],
    "det_factor.decompose": [("binres.det_factor", "decompose")],
    "det_factor.factor": [("binres.det_factor", "factor_determinant")],
    "resultant.resultant": [("binres.resultant", "resultant")],
    "resultant.chain": [("binres.resultant", "delta_chain")],
    "resultant.delta": [("binres.resultant", "delta")],
    "resultant.gcd": [("binres.resultant", "factored_gcd")],
    "resultant.eval": [("binres.resultant", "resultant_eval")],
    "rewrite.table": [("binres.rewrite", "rewrite_table")],
    "rewrite.reduce": [("binres.rewrite", "reduce")],
    "rewrite.hilbert": [("binres.rewrite", "hilbert_function")],
    "oracle.det_mod": [("binres.oracle", "det_mod")],
    "oracle.span_rows": [("binres.oracle", "span_rows")],
    "oracle.int_rank": [("binres.oracle", "int_rank")],
    "oracle.membership": [("binres.oracle", "membership_batch")],
    "oracle.ideal_dim": [("binres.oracle", "ideal_dim"), ("binres.oracle", "quotient_dim")],
    "linalg.frac_rank": [("binres.linalg", "frac_rank")],
    "linalg.frac_kernel": [("binres.linalg", "frac_kernel")],
    "linalg.frac_det": [("binres.linalg", "frac_det")],
    "linalg.bareiss": [("binres.linalg", "bareiss_det_tpoly")],
    "inverse_system.catalecticant": [("binres.inverse_system", "catalecticant_hilbert"),
                                     ("binres.inverse_system", "catalecticant_matrix")],
    "inverse_system.ann_gens": [("binres.inverse_system", "ann_generator_counts"),
                                ("binres.inverse_system", "ann_basis")],
    "inverse_system.hessian": [("binres.inverse_system", "hessian"),
                               ("binres.inverse_system", "hess_det_eval"),
                               ("binres.inverse_system", "hess2_vanishing_order")],
    "normal_form": [("binres.normal_form", "to_normal_form")],
}

# structural counts read from a layer's return value
RESULT_COUNTS = {
    "frames": lambda fn, r: {"frames.rows": r.size} if fn == "build_row_frame" else {},
    "coeff_matrix.build_c": lambda fn, r: {"coeff_matrix.entries": len(r.entries)},
    "det_factor.decompose": lambda fn, r: {"det_factor.circuits": len(r.circuits),
                                           "det_factor.forced": len(r.forced)},
}

# lru_caches whose hit and miss counts are reported: name -> (module, attribute)
CACHES = {
    "resultant.cache": ("binres.resultant", "_cached_resultant"),
    "rewrite.table_cache": ("binres.rewrite", "_cached_table"),
    "rewrite.chain_cache": ("binres.rewrite", "_symbolic_chain"),
}

# per-layer metrics, grouped by how each is computed
SELF_MS = ["cli.main", "systems.parse", "polynomials.monomials", "frames",
           "coeff_matrix.build_c", "det_factor.decompose", "det_factor.factor",
           "resultant.gcd", "resultant.eval", "rewrite.table", "rewrite.reduce",
           "rewrite.hilbert", "oracle.det_mod", "oracle.span_rows", "oracle.int_rank",
           "oracle.membership", "linalg.frac_rank", "linalg.frac_kernel", "linalg.frac_det",
           "linalg.bareiss", "inverse_system.catalecticant", "inverse_system.ann_gens",
           "inverse_system.hessian", "normal_form"]
CALLS = {"systems.parse.calls": "systems.parse",
         "polynomials.monomials.calls": "polynomials.monomials",
         "coeff_matrix.build_c.calls": "coeff_matrix.build_c",
         "det_factor.calls": "det_factor.factor",
         "resultant.delta.calls": "resultant.delta",
         "rewrite.table.calls": "rewrite.table",
         "oracle.det_mod.calls": "oracle.det_mod",
         "oracle.int_rank.calls": "oracle.int_rank",
         "oracle.membership.calls": "oracle.membership"}
COUNTS = ["frames.rows", "coeff_matrix.entries", "det_factor.circuits", "det_factor.forced",
          "resultant.cache.hits", "resultant.cache.misses",
          "rewrite.table_cache.hits", "rewrite.table_cache.misses",
          "rewrite.chain_cache.hits", "rewrite.chain_cache.misses",
          "rewrite.hilbert.fallbacks", "oracle.escalations"]


def per_layer_metric_names() -> list[str]:
    """Every per-layer metric the traced run prints, in a stable order."""
    return ([f"{layer}.self_ms" for layer in SELF_MS] + list(CALLS) + COUNTS
            + ["trace.spans", "trace.ops_per_s"])


class _EscalationCounter(logging.Handler):
    def __init__(self, tracer: "Tracer"):
        super().__init__(logging.WARNING)
        self.tracer = tracer

    def emit(self, record):
        if self.tracer.active:
            self.tracer.counts["oracle.escalations"] += 1


class Tracer:
    """Records spans while `active`; does nothing (but call through) otherwise."""

    def __init__(self):
        self.spans: list[list] = []   # [layer, start, end, parent index]
        self._stack = [-1]
        self.active = False
        self.counts: Counter = Counter()
        self._caches = {}

    def _wrap(self, layer: str, fn_name: str, fn):
        count = RESULT_COUNTS.get(layer)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = len(self.spans)
            span = [layer, 0.0, 0.0, self._stack[-1]]
            self.spans.append(span)
            self._stack.append(idx)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                self._stack.pop()
            if count is not None:
                self.counts.update(count(fn_name, result))
            return result

        return traced

    def install(self) -> None:
        """Replace each traced function in every binres namespace holding it."""
        for targets in LAYERS.values():
            for module_name, _ in targets:
                importlib.import_module(module_name)
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "binres" or name.startswith("binres."))]
        for layer, targets in LAYERS.items():
            for module_name, fn_name in targets:
                original = getattr(sys.modules[module_name], fn_name)
                wrapped = self._wrap(layer, fn_name, original)
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, key, wrapped)
        for name, (module_name, attr) in CACHES.items():
            self._caches[name] = getattr(sys.modules[module_name], attr)
        logging.getLogger("binres.oracle").addHandler(_EscalationCounter(self))

    def cache_snapshot(self) -> dict[str, tuple[int, int]]:
        return {name: (c.cache_info().hits, c.cache_info().misses)
                for name, c in self._caches.items()}

    def add_cache_delta(self, before: dict, after: dict) -> None:
        for name in before:
            self.counts[f"{name}.hits"] += after[name][0] - before[name][0]
            self.counts[f"{name}.misses"] += after[name][1] - before[name][1]

    # ------------------------------------------------------------------ results

    def self_times(self) -> dict[str, float]:
        """Self seconds per layer: span time minus time covered by child spans."""
        child = [0.0] * len(self.spans)
        for layer, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: Counter = Counter()
        for i, (layer, start, end, _) in enumerate(self.spans):
            out[layer] += end - start - child[i]
        return dict(out)

    def span_calls(self) -> Counter:
        return Counter(span[0] for span in self.spans)

    def hilbert_fallbacks(self) -> int:
        """hilbert_function spans that reached the oracle's ideal_dim."""
        hits = set()
        for layer, _, _, parent in self.spans:
            if layer != "oracle.ideal_dim":
                continue
            while parent >= 0 and self.spans[parent][0] != "rewrite.hilbert":
                parent = self.spans[parent][3]
            if parent >= 0:
                hits.add(parent)
        return len(hits)

    def metrics(self, rounds: int, ops_per_s: float) -> dict[str, dict]:
        """Every per-layer metric, as totals per completed round."""
        selfs = self.self_times()
        calls = self.span_calls()
        counts = Counter(self.counts)
        counts["rewrite.hilbert.fallbacks"] = self.hilbert_fallbacks()
        out = {}
        for layer in SELF_MS:
            out[f"{layer}.self_ms"] = {"value": 1000.0 * selfs.get(layer, 0.0) / rounds,
                                       "unit": "ms/round"}
        for name, layer in CALLS.items():
            out[name] = {"value": calls.get(layer, 0) / rounds, "unit": "count/round"}
        for name in COUNTS:
            out[name] = {"value": counts.get(name, 0) / rounds, "unit": "count/round"}
        out["trace.spans"] = {"value": len(self.spans) / rounds, "unit": "count/round"}
        out["trace.ops_per_s"] = {"value": ops_per_s, "unit": "op/s"}
        return out

    def report(self, rounds: int) -> str:
        """Self time and call count of every traced layer, per round."""
        selfs = self.self_times()
        calls = self.span_calls()
        total = sum(selfs.values()) or 1.0
        lines = [f"{'layer':32s} {'self ms/round':>14s} {'share':>7s} {'calls/round':>12s}"]
        for layer, secs in sorted(selfs.items(), key=lambda kv: -kv[1]):
            lines.append(f"{layer:32s} {1000 * secs / rounds:14.2f} {secs / total:7.1%} "
                         f"{calls[layer] / rounds:12.1f}")
        return "\n".join(lines)

    def write(self, path) -> None:
        """Write the spans, one JSON array per line: layer, start, end, parent."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
