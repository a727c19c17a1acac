"""Spans and counts around the calls into each superkl layer.

The benchmark records spans from its own files: ``install`` replaces
library functions with wrappers for the length of one traced pass, and the
returned function puts the originals back.  Nothing inside the library
changes.  ``laurent`` and ``qmodule`` run only inside canonical calls, so
their cost lands in the canonical spans.

A span is (layer, start, end, parent span, run id); the run id is the index
of the command that caused it.  Spans stay in memory in flat arrays and are
written once, when the pass ends.
"""

from __future__ import annotations

import gzip
import json
from array import array
from time import perf_counter_ns

from superkl import canonical, cli, crystal, klr, superweights, weights

# Span layers, in dependency order.  The metric of a layer is its self time:
# its spans' durations minus the parts covered by their child spans.
LAYERS = (
    "weights.enumerate",
    "canonical.block_build",
    "canonical.psi",
    "canonical.psi_check",
    "canonical.d_solve",
    "canonical.p_inverse",
    "canonical.stable_window",
    "weights.order_leq",
    "crystal.edges",
    "crystal.component",
    "superweights.bruhat",
    "klr.verify",
    "cli.emit",
    "cli",
)

COUNTS = (
    "weights.enumerate_count",
    "canonical.blocks",
    "canonical.block_max_size",
    "canonical.psi_terms",
    "canonical.psi_check_entries",
    "canonical.d_nonzeros",
    "canonical.p_nonzeros",
    "weights.order_leq_calls",
    "crystal.edges_count",
    "crystal.component_size",
    "superweights.bruhat_pairs",
    "klr.relations_checked",
    "cli.output_bytes",
)


def time_metric(layer: str) -> str:
    return "cli.self_s" if layer == "cli" else layer + "_s"


class Tracer:
    """Spans and counts of one traced pass, kept in memory."""

    def __init__(self):
        self.layer_index = {name: i for i, name in enumerate(LAYERS)}
        self.layer = array("b")
        self.parent = array("i")
        self.run = array("i")
        self.start = array("q")
        self.end = array("q")
        self.stack: list[int] = []
        self.counts = dict.fromkeys(COUNTS, 0)
        self.run_id = 0

    def open(self, layer: str) -> int:
        i = len(self.start)
        self.layer.append(self.layer_index[layer])
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.run.append(self.run_id)
        self.end.append(0)
        self.stack.append(i)
        self.start.append(perf_counter_ns())
        return i

    def close(self, i: int) -> None:
        self.end[i] = perf_counter_ns()
        self.stack.pop()

    def add(self, counter: str, n: int) -> None:
        self.counts[counter] += n

    def call(self, layer: str, fn, *args):
        i = self.open(layer)
        try:
            return fn(*args)
        finally:
            self.close(i)

    def self_seconds(self) -> dict[str, float]:
        """Self time per layer.

        A layer with no span reports the duration of one empty span, the
        tracer's floor, so that its time is measured rather than a
        constant; its counts stay 0.
        """
        covered = [0] * len(self.start)
        for i, p in enumerate(self.parent):
            if p >= 0:
                covered[p] += self.end[i] - self.start[i]
        total = dict.fromkeys(LAYERS, 0)
        for i, layer in enumerate(self.layer):
            total[LAYERS[layer]] += self.end[i] - self.start[i] - covered[i]
        return {time_metric(name): (ns or self._floor_ns()) / 1e9
                for name, ns in total.items()}

    def inclusive_seconds(self, layer: str) -> float:
        """Summed span durations of a layer, children included (floor if none)."""
        li = self.layer_index[layer]
        ns = sum(self.end[i] - self.start[i] for i, lay in enumerate(self.layer) if lay == li)
        return (ns or self._floor_ns()) / 1e9

    @staticmethod
    def _floor_ns() -> int:
        floor = Tracer()
        floor.close(floor.open(LAYERS[0]))
        return floor.end[0] - floor.start[0]

    def write(self, path: str) -> None:
        doc = {"layers": LAYERS, "layer": self.layer.tolist(),
               "parent": self.parent.tolist(), "run": self.run.tolist(),
               "start_ns": self.start.tolist(), "end_ns": self.end.tolist(),
               "counts": self.counts}
        with gzip.open(path, "wt", compresslevel=1) as fh:
            json.dump(doc, fh)


def install(tracer: Tracer):
    """Wrap the layer entry points; returns a function that restores them."""
    saved = []

    def patch(owner, attr, new):
        saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def spanned(layer, fn, count=None):
        def traced(*args, **kwargs):
            i = tracer.open(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(i)
            if count is not None:
                count(result)
            return result
        return traced

    def built(size):
        tracer.add("canonical.blocks", 1)
        counts = tracer.counts
        counts["canonical.block_max_size"] = max(counts["canonical.block_max_size"], size)

    enum = spanned("weights.enumerate", weights.enumerate_weights,
                   lambda ws: tracer.add("weights.enumerate_count", len(ws)))
    for module in (weights, canonical, crystal, cli):
        patch(module, "enumerate_weights", enum)
    leq = spanned("weights.order_leq", weights.order_leq,
                  lambda _: tracer.add("weights.order_leq_calls", 1))
    for module in (weights, canonical, cli):
        patch(module, "order_leq", leq)

    patch(canonical, "_block_members_direct",
          spanned("canonical.block_build", canonical._block_members_direct,
                  lambda members: built(len(members))))
    table_init = canonical.BlockTable.__init__

    def block_table_init(table, interval, tnc):
        tracer.call("canonical.block_build", table_init, table, interval, tnc)
        for block in table.blocks:
            built(block.size)
    patch(canonical.BlockTable, "__init__", block_table_init)

    # psi_matrix, d_matrix and p_matrix memoize per block.  On a cold block
    # the wrappers run the layers below first, so that each span holds the
    # work of its own layer only: psi on every member fills the psi memo,
    # then psi_matrix is the triangularity check alone.
    block_cls = canonical.BlockData
    psi_matrix, d_matrix, p_matrix = (block_cls.psi_matrix, block_cls.d_matrix,
                                      block_cls.p_matrix)

    def traced_psi_matrix(block):
        if block._rmat is None:
            i = tracer.open("canonical.psi")
            try:
                terms = sum(len(canonical.psi_monomial(m).terms) for m in block.members)
            finally:
                tracer.close(i)
            tracer.add("canonical.psi_terms", terms)
            rows = tracer.call("canonical.psi_check", psi_matrix, block)
            tracer.add("canonical.psi_check_entries", sum(map(len, rows)))
            return rows
        return psi_matrix(block)

    def traced_d_matrix(block):
        if block._dmat is None:
            block.psi_matrix()
            rows = tracer.call("canonical.d_solve", d_matrix, block)
            tracer.add("canonical.d_nonzeros", sum(map(len, rows)))
            return rows
        return d_matrix(block)

    def traced_p_matrix(block):
        if block._pinv is None:
            block.d_matrix()
            rows = tracer.call("canonical.p_inverse", p_matrix, block)
            tracer.add("canonical.p_nonzeros", sum(map(len, rows)))
            return rows
        return p_matrix(block)

    patch(block_cls, "psi_matrix", traced_psi_matrix)
    patch(block_cls, "d_matrix", traced_d_matrix)
    patch(block_cls, "p_matrix", traced_p_matrix)
    patch(canonical, "kl_d_stable",
          spanned("canonical.stable_window", canonical.kl_d_stable))

    patch(crystal, "crystal_edges",
          spanned("crystal.edges", crystal.crystal_edges,
                  lambda r: tracer.add("crystal.edges_count", len(r[1]))))
    patch(crystal, "_component",
          spanned("crystal.component", crystal._component,
                  lambda comp: tracer.add("crystal.component_size", len(comp))))
    patch(superweights, "bruhat_leq",
          spanned("superweights.bruhat", superweights.bruhat_leq,
                  lambda _: tracer.add("superweights.bruhat_pairs", 1)))
    patch(klr, "verify_relations",
          spanned("klr.verify", klr.verify_relations,
                  lambda rep: tracer.add("klr.relations_checked", rep["checked"])))
    patch(cli, "_emit", spanned("cli.emit", cli._emit))

    def restore():
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
    return restore
