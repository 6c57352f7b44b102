"""Layer spans for one traced `patmetrics` command, taken from outside the
program.

Run as a script, this module imports `patmetrics`, replaces the public
functions of `synth`, `io`, `classify`, `metrics` and `stats` (and the two
`Corpus` index methods) with timing wrappers on their module or class,
calls `patmetrics.cli.main` in-process and writes the spans as JSON:

    python3 bench/spans.py RUN_ID SPANS_JSON -- <patmetrics arguments>

`cli` reaches every layer through its module aliases (`syn.`, `pio.`,
`cls.`, `met.`, `st.`), so every call from the orchestration is caught.  A
call from a layer into its own module makes no span: its time stays with
the outer call.  `run.py` imports this module only for `PER_LAYER` and
`layer_metrics`, which never import `patmetrics`.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time

LAYERS = ("synth", "io", "corpus", "classify", "metrics", "stats")

#: Per-patent or per-token calls; a wrapper there would time itself.
HOT_PATHS = frozenset({"tokenize"})

#: Wrapped `Corpus` methods: lazily built indexes, one build per level.
CORPUS_INDEXES = ("class_sets", "year_index")

#: function name -> per-layer metric; any other public function of the
#: module lands in `<layer>.other_s`, so a function added later still counts
#: towards its layer.
BUCKETS = {
    "synth": {"generate": "synth.generate_s"},
    "io": {
        "load_corpus": "io.load_corpus_s",
        "write_corpus": "io.write_corpus_s",
        "write_manifest": "io.manifest_s",
        "sha256_file": "io.manifest_s",
        "fmt_value": "io.write_outputs_s",
    },
    "corpus": {name: "corpus.index_s" for name in CORPUS_INDEXES},
    "classify": {
        "classify_keyword": "classify.keyword_s",
        "load_keywords": "classify.keyword_s",
        "default_keywords": "classify.keyword_s",
        "classify_science": "classify.science_s",
        "classify_wipo": "classify.wipo_s",
        "load_wipo_rules": "classify.wipo_s",
        "default_wipo_rules": "classify.wipo_s",
        "train_uspto": "classify.uspto_train_s",
        "build_uspto_seed": "classify.uspto_train_s",
        "classify_uspto": "classify.uspto_score_s",
        "score_component": "classify.uspto_score_s",
        "classify_prefix_group": "classify.prefix_s",
    },
    "metrics": {
        "count_series": "metrics.counts_s",
        "share_series": "metrics.counts_s",
        "growth_series": "metrics.counts_s",
        "jaccard": "metrics.overlap_s",
        "jaccard_series": "metrics.overlap_s",
        "allway_overlap": "metrics.overlap_s",
        "generality_index": "metrics.generality_s",
        "generality_series": "metrics.generality_s",
        "avg_citing_classes": "metrics.avg_citing_classes_s",
        "diversity_share": "metrics.diversity_s",
        "diversity_per_patent": "metrics.diversity_s",
        "citation_lags": "metrics.lags_s",
        "citation_lag_series": "metrics.lags_s",
        "lag_period_means": "metrics.lags_s",
        "descendants": "metrics.descendants_s",
        "zscore_across_groups": "metrics.zscore_s",
    },
    "stats": {
        "pairwise_compare": "stats.pairwise_compare_s",
        "wilcoxon_signed_rank": "stats.pairwise_compare_s",
        "holm_adjust": "stats.pairwise_compare_s",
        "summary_stats": "stats.pairwise_compare_s",
        "lowess": "stats.lowess_s",
        "smooth_series": "stats.lowess_s",
    },
}
PREFIX_BUCKETS = {"io": (("read_", "io.read_outputs_s"), ("write_", "io.write_outputs_s"))}

#: Functions whose result is counted: function -> (metric, count of result).
COUNTED = {
    "synth.generate": ("synth.patents", lambda r: len(r[0])),
    "io.load_corpus": ("io.load_corpus.rows", lambda r: sum(t.rows for t in r[1].tables.values())),
    "io.write_manifest": ("io.manifest.files", len),
    **{
        f"classify.{name}": ("classify.members", len)
        for name in (
            "classify_keyword", "classify_science", "classify_wipo",
            "classify_uspto", "classify_prefix_group",
        )
    },
}

#: metric -> function whose calls it counts (a layer name counts every call
#: into that layer).
CALLS = {
    "io.load_corpus.calls": "io.load_corpus",
    "metrics.calls": "metrics",
    "metrics.generality.calls": "metrics.generality_series",
    "stats.pairwise_compare.calls": "stats.pairwise_compare",
}

MODULES = ("init", "main", "classify", "cli", "corpus", "errors", "io", "metrics", "stats", "synth")

#: Self-time buckets: every named bucket plus `<layer>.other_s`.
TIMES = sorted(
    {bucket for names in BUCKETS.values() for bucket in names.values()}
    | {bucket for pairs in PREFIX_BUCKETS.values() for _, bucket in pairs}
    | {f"{layer}.other_s" for layer in LAYERS if layer != "corpus"}
)

#: Every per-layer metric, in report order, with its unit.
PER_LAYER = (
    [(name, "s") for name in TIMES]
    + [(f"{layer}_s", "s") for layer in LAYERS]
    + [(name, "count") for name in sorted({m for m, _ in COUNTED.values()} | set(CALLS))]
    + [("cli.self_s", "s"), ("cli.cpu_s", "s"), ("trace.wall_s", "s"), ("trace.overhead_s", "s")]
    + [("unscaled.wall_s", "s"), ("host.reference_s", "s")]
    + [("src.loc", "lines")] + [(f"{m}.loc", "lines") for m in MODULES]
)


def bucket_of(layer: str, name: str) -> str:
    if name in BUCKETS[layer]:
        return BUCKETS[layer][name]
    for prefix, bucket in PREFIX_BUCKETS.get(layer, ()):
        if name.startswith(prefix):
            return bucket
    return f"{layer}.other_s"


class Tracer:
    """Collects spans in memory; `spans` is written out once at the end."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._stack: list[dict] = []

    def wrap(self, layer: str, name: str, fn):
        fn_id = f"{layer}.{name}"
        bucket = bucket_of(layer, name)
        counter = COUNTED.get(fn_id)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._stack and self._stack[-1]["layer"] == layer:
                return fn(*args, **kwargs)
            span = {
                "fn": fn_id, "layer": layer, "bucket": bucket, "run": self.run_id,
                "parent": self._stack[-1]["id"] if self._stack else None,
                "id": len(self.spans), "n": None,
            }
            self.spans.append(span)
            self._stack.append(span)
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            if counter is not None:
                span["n"] = counter[1](result)
            return result

        return traced

    def install(self) -> None:
        from patmetrics import classify, io, metrics, stats, synth
        from patmetrics.corpus import Corpus

        for layer, module in (("synth", synth), ("io", io), ("classify", classify),
                              ("metrics", metrics), ("stats", stats)):
            for name, obj in list(vars(module).items()):
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == module.__name__
                    and not name.startswith("_")
                    and name not in HOT_PATHS
                ):
                    setattr(module, name, self.wrap(layer, name, obj))
        for name in CORPUS_INDEXES:
            if hasattr(Corpus, name):
                setattr(Corpus, name, self.wrap("corpus", name, getattr(Corpus, name)))


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the time its child spans cover.  Spans of
    one single-threaded process nest, so children never overlap.  Span ids
    are unique within one run id."""
    own = [s["end"] - s["start"] for s in spans]
    index = {(s["run"], s["id"]): i for i, s in enumerate(spans)}
    for s in spans:
        if s["parent"] is not None:
            own[index[s["run"], s["parent"]]] -= s["end"] - s["start"]
    return own


def layer_metrics(spans: list[dict], traced_wall: float) -> dict[str, float]:
    """Per-layer seconds and counts from the spans of traced processes whose
    spawn-to-reap walls sum to `traced_wall`.  `cli.self_s` is what no layer
    span covers: interpreter start, imports, config parsing, orchestration."""
    out = {name: 0.0 for name, unit in PER_LAYER if unit == "s"}
    out.update({name: 0 for name, unit in PER_LAYER if unit == "count"})
    for s, own in zip(spans, self_times(spans)):
        out[s["bucket"]] += own
        out[f"{s['layer']}_s"] += own
        if s["n"] is not None:
            out[COUNTED[s["fn"]][0]] += s["n"]
    for metric, target in CALLS.items():
        out[metric] = sum(1 for s in spans if target in (s["fn"], s["layer"]))
    out["trace.wall_s"] = traced_wall
    out["cli.self_s"] = traced_wall - sum(out[f"{layer}_s"] for layer in LAYERS)
    return out


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[2] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    run_id, spans_path, command = argv[0], argv[1], argv[3:]
    tracer = Tracer(run_id)
    tracer.install()
    from patmetrics import cli

    try:
        return cli.main(command)
    finally:
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.spans, fh)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
