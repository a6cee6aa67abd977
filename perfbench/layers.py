"""Per-layer metrics from the spans of a traced pass and the reports of
the queries in it.

A span's self time is its duration minus the durations of its direct
children; a layer's self time sums the self times of its spans.  A
function's time (`_s`) counts only its outermost spans, so a recursive or
nested call is not counted twice.
"""

from __future__ import annotations

import json

from tracer import LAYERS

# name -> unit, in the order they are printed
METRICS = {
    "cli.self_s": "s",
    "graphs.io_s": "s",
    "graphs.io_edges": "count",
    "graphs.count_cliques_s": "s",
    "graphs.count_cliques_calls": "count",
    "graphs.participation_s": "s",
    "graphs.is_free_s": "s",
    "graphs.is_free_calls": "count",
    "graphs.is_free_free_frac": "frac",
    "graphs.count_copies_s": "s",
    "graphs.gnp_s": "s",
    "graphs.gnp_slots_per_s": "slots/s",
    "oracle.self_s": "s",
    "oracle.canonical_form_calls": "count",
    "oracle.graphs_examined": "count",
    "oracle.classes_examined": "count",
    "oracle.class_yield": "frac",
    "constructions.norm_graph_s": "s",
    "constructions.norm_graph_edges_per_s": "edges/s",
    "constructions.deletion_self_s": "s",
    "constructions.deletion_copies": "count",
    "constructions.deletion_edges_deleted": "count",
    "constructions.experiment_self_s": "s",
    "fields.ops": "count",
    "extraction.self_s": "s",
    "extraction.kept_frac": "frac",
    "bounds.s": "s",
    "bounds.calls": "count",
    **{f"{layer}.share": "frac" for layer in LAYERS},
    "trace.overhead_frac": "frac",
}


def read_spans(path) -> list[dict]:
    with open(path, encoding="ascii") as fh:
        return [json.loads(line) for line in fh]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class SpanIndex:
    def __init__(self, spans: list[dict]):
        self.spans = spans
        self.dur = [s["end"] - s["start"] for s in spans]
        child = [0.0] * len(spans)
        for s, d in zip(spans, self.dur):
            if s["parent"] >= 0:
                child[s["parent"]] += d
        self.self_time = [d - c for d, c in zip(self.dur, child)]

    def ancestors(self, i: int):
        p = self.spans[i]["parent"]
        while p >= 0:
            yield p
            p = self.spans[p]["parent"]

    def named(self, *names: str) -> list[int]:
        return [i for i, s in enumerate(self.spans) if s["name"] in names]

    def outermost(self, *names: str) -> list[int]:
        return [i for i in self.named(*names)
                if not any(self.spans[a]["name"] in names for a in self.ancestors(i))]

    def total(self, *names: str) -> float:
        return sum(self.dur[i] for i in self.outermost(*names))

    def layer_self(self, layer: str) -> float:
        return sum(t for s, t in zip(self.spans, self.self_time)
                   if s["name"].split(".")[0] == layer)

    def self_under(self, top: str, tops: tuple) -> float:
        """Self time of constructions spans whose nearest enclosing span
        among `tops` (itself included) is named `top`."""
        total = 0.0
        for i, s in enumerate(self.spans):
            if not s["name"].startswith("constructions."):
                continue
            owner = next((self.spans[j]["name"] for j in [i, *self.ancestors(i)]
                          if self.spans[j]["name"] in tops), None)
            if owner == top:
                total += self.self_time[i]
        return total

    def attr_sum(self, name: str, key: str) -> float:
        return sum(self.spans[i]["attrs"][key] for i in self.outermost(name))


def per_layer(spans: list[dict], reports: list[dict], traced_wall: float,
              overhead: float) -> dict:
    """reports: the parsed stdout report of each query (None when absent);
    traced_wall: the traced pass's wall time; overhead: traced over
    untraced pass wall, minus 1."""
    ix = SpanIndex(spans)
    tops = ("constructions.run_experiment", "constructions.norm_graph",
            "constructions.deletion_method")
    io_names = ("graphs.load_edge_list", "graphs.save_edge_list")
    free = [s["attrs"]["free"] for s in spans if s["name"] == "graphs.is_free"]
    oracle = [r for r in reports if r and "isoClassesExamined" in r]
    deletion = [r for r in reports if r and "copiesFound" in r]
    extraction = [r for r in reports if r and "e2Count" in r]
    graphs_examined = sum(r["graphsExamined"] for r in oracle)
    classes = sum(r["isoClassesExamined"] for r in oracle)
    norm_s = ix.total("constructions.norm_graph")
    gnp_s = ix.total("graphs.gnp")
    kept = sum(r["e2Count"] for r in extraction)
    values = {
        "cli.self_s": ix.layer_self("cli"),
        "graphs.io_s": ix.total(*io_names),
        "graphs.io_edges": sum(ix.attr_sum(n, "edges") for n in io_names),
        "graphs.count_cliques_s": ix.total("graphs.count_cliques"),
        "graphs.count_cliques_calls": len(ix.named("graphs.count_cliques")),
        "graphs.participation_s": ix.total("graphs.edge_clique_participation"),
        "graphs.is_free_s": ix.total("graphs.is_free"),
        "graphs.is_free_calls": len(free),
        "graphs.is_free_free_frac": _ratio(sum(free), len(free)),
        "graphs.count_copies_s": ix.total("graphs.count_copies", "graphs.iter_copies"),
        "graphs.gnp_s": gnp_s,
        "graphs.gnp_slots_per_s": _ratio(ix.attr_sum("graphs.gnp", "slots"), gnp_s),
        "oracle.self_s": ix.layer_self("oracle"),
        "oracle.canonical_form_calls": len(ix.named("oracle.canonical_form")),
        "oracle.graphs_examined": graphs_examined,
        "oracle.classes_examined": classes,
        "oracle.class_yield": _ratio(classes, graphs_examined),
        "constructions.norm_graph_s": norm_s,
        "constructions.norm_graph_edges_per_s": _ratio(
            ix.attr_sum("constructions.norm_graph", "edges"), norm_s),
        "constructions.deletion_self_s": ix.self_under(tops[2], tops),
        "constructions.deletion_copies": sum(r["copiesFound"] for r in deletion),
        "constructions.deletion_edges_deleted": sum(r["edgesDeleted"] for r in deletion),
        "constructions.experiment_self_s": ix.self_under(tops[0], tops),
        "fields.ops": sum(1 for s in spans if s["name"].startswith("fields.FiniteField.")),
        "extraction.self_s": ix.layer_self("extraction"),
        "extraction.kept_frac": _ratio(kept, kept + sum(r["e1Count"] for r in extraction)),
        "bounds.s": sum(ix.dur[i] for i, s in enumerate(spans)
                        if s["name"].startswith("bounds.")
                        and not any(spans[a]["name"].startswith("bounds.")
                                    for a in ix.ancestors(i))),
        "bounds.calls": sum(1 for s in spans if s["name"].startswith("bounds.")),
        **{f"{layer}.share": _ratio(ix.layer_self(layer), traced_wall)
           for layer in LAYERS},
        "trace.overhead_frac": overhead,
    }
    return {name: {"value": values[name], "unit": unit}
            for name, unit in METRICS.items()}
