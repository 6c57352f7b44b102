"""`patmetrics run`: the stages classify, metrics, stats and report (all of
them, or those named in `--only`), loaded by `cli.main` for `run` only.

Stages communicate through files in the output directory.  The corpus is the one
input they share in memory: `run` builds it once, from its config alone, and hands
it to the stages that read it (classify, metrics), releasing its token index once
classify is done.  A synthetic corpus is generated afresh into `corpus/` and
ingested from its rows; input tables are read through `io.load_corpus`.  So running
the stages one at a time with one seed gives byte-identical artifacts to a
monolithic `run`.  A stage's directory is replaced only when it returns
(`io.staged`).  `run.log` records stage progress without timestamps (`io.log`) and
is excluded from the manifest.  Each layer is called through its module (`pio.`,
`cls.`, `met.`, `st.`), so a function replaced there sees every call.
"""

from __future__ import annotations

import functools
import os
from dataclasses import dataclass, replace
from itertools import combinations

from . import classify as cls
from . import io as pio
from . import metrics as met
from . import stats as st
from .cli import synthesize, write_synthetic
from .corpus import Corpus, ingest
from .errors import ConfigError, DataError

#: group kind -> its classifier, called as `fn(corpus, **settings)`; a
#: `uspto` group is trained, then scored.  Every kind but `prefix` is an approach.
CLASSIFIERS = {"keyword": cls.classify_keyword, "science": cls.classify_science,
               "wipo": cls.classify_wipo, "prefix": cls.classify_prefix_group}


@dataclass(frozen=True)
class GroupConfig:
    name: str
    kind: str
    settings: dict  # the section's parsed keys but kind; files named are read


@dataclass(frozen=True)
class RunConfig:
    """A run config.  Each field from `strict` to `exact_cutoff` is the key
    of that name in its section of `SECTIONS`, and holds its default."""

    groups: tuple[GroupConfig, ...]
    synth_path: str | None = None
    table_paths: tuple[tuple[str, str | None], ...] = ()
    strict: bool = False
    window: tuple[int, int] = pio.DEFAULT_WINDOW
    periods: tuple[tuple[int, int], ...] = ()  # none means the whole window
    levels: tuple[int, ...] = (1, 3, 4)
    diversity_universe_3: int | None = None  # None: metrics.DEFAULT_UNIVERSE
    diversity_universe_4: int | None = None
    lag_mode: str = "all_citations"
    zscore: tuple[str, ...] = ("generality",)
    lowess: tuple[str, ...] = ("growth",)
    lowess_fraction: float = 0.6667
    descendants: bool = True
    compare: tuple[str, ...] = ("growth",)
    holm: bool = True
    exact_cutoff: int = st.DEFAULT_EXACT_CUTOFF


#: the `RunConfig` fields that each section of a run config sets, besides `[inputs]` and `[group:NAME]`
SECTIONS = {
    "run": ("strict", "window", "periods"),
    "metrics": ("levels", "diversity_universe_3", "diversity_universe_4", "lag_mode", "zscore",
                "lowess", "lowess_fraction", "descendants"),
    "stats": ("compare", "holm", "exact_cutoff"),
}
BLANK_MEANS_NONE = ("levels", "zscore", "lowess", "compare")  # the other keys keep their default when blank


def load_run_config(path: str) -> RunConfig:
    parser = pio.read_config(path, "inputs", "group:", *SECTIONS)
    base = os.path.dirname(os.path.abspath(path))

    def resolve(p: str) -> str:
        return p if os.path.isabs(p) else os.path.join(base, p)

    tables = dict.fromkeys(pio.TABLE_COLUMNS, resolve)
    inputs = pio.options(parser["inputs"], path, synth=resolve, **tables)
    if "synth" in inputs and len(inputs) > 1:
        raise ConfigError(f"{path}: [inputs] names both synth= and tables; name one or the other")
    if "synth" in inputs:
        sources = {"synth_path": inputs["synth"]}
    elif "patents" in inputs:
        sources = {"table_paths": tuple((name, inputs.get(name)) for name in pio.TABLE_COLUMNS)}
    else:
        raise ConfigError(f"{path}: [inputs] needs either synth= or patents=")
    for name, table_path in sources.get("table_paths", ()):  # every one is found before any is read
        if table_path is not None and not os.path.isfile(table_path):
            raise ConfigError(f"{path}: {name} table not found: {table_path!r}")

    def read(key, load, raw):
        """The file that `key=raw` names, resolved and parsed by `load`."""
        if not os.path.isfile(file := resolve(raw)):
            raise ConfigError(f"{path}: {key} file not found: {file!r}")
        return load(file)

    def table(key, load):  # `default` means the packaged table, None
        return lambda raw: None if raw == "default" else read(key, load, raw)

    groups, keys = [], {  # the keys each kind of group reads, besides kind: a file, or its classifier's argument
        "keyword": dict(keywords=table("keywords", cls.load_keywords)),
        "science": pio.typed(cls.classify_science, "field", "min_confidence"),
        "wipo": dict(rules=table("rules", cls.load_wipo_rules)),
        "uspto": dict(config=lambda raw: read("config", load_uspto_config, raw)),
        "prefix": pio.typed(cls.classify_prefix_group, "prefix"),
    }
    for name, section in pio.group_sections(parser, path):
        kind = section.get("kind", "").strip()
        if kind not in keys:
            raise ConfigError(f"{path}: [{section.name}] kind must be one of {', '.join(keys)}")
        settings = pio.options(section, path, **keys[kind], **pio.typed(GroupConfig, "kind"))
        del settings["kind"]
        needs = {"prefix": "prefix", "uspto": "config"}.get(kind)
        if needs and needs not in settings:
            raise ConfigError(f"{path}: group {name!r} needs {needs}=")
        groups.append(GroupConfig(name, kind, settings))
    if not groups:  # configparser refuses a repeated section, so each name is unique
        raise ConfigError(f"{path}: no [group:*] sections")

    values = {}
    for name, fields in SECTIONS.items():
        if name in parser:  # an absent section sets no key
            values |= pio.options(parser[name], path, BLANK_MEANS_NONE, **pio.typed(RunConfig, *fields))
    cfg = RunConfig(groups=tuple(groups), **sources, **values)
    for key in ("levels", "periods", "zscore", "lowess", "compare"):
        values = getattr(cfg, key)
        if len(set(values)) != len(values):
            raise ConfigError(f"{path}: {key} repeats an entry: {values}")
    for lo, hi in cfg.periods:
        if not cfg.window[0] <= lo <= hi <= cfg.window[1]:
            raise ConfigError(f"{path}: period {lo}-{hi} lies outside the window {cfg.window[0]}-{cfg.window[1]}")
    for lv in cfg.levels:
        if lv not in (1, 3, 4):
            raise ConfigError(f"{path}: unsupported CPC level {lv}")
    for lv in (3, 4):
        universe = getattr(cfg, f"diversity_universe_{lv}")
        if universe is not None and universe < 1:
            raise ConfigError(f"{path}: diversity_universe_{lv} must be at least 1: {universe}")
    if cfg.lag_mode not in ("all_citations", "first_citation"):
        raise ConfigError(f"{path}: unknown lag_mode {cfg.lag_mode!r}")
    if not 0.0 < cfg.lowess_fraction <= 1.0:
        raise ConfigError(f"{path}: lowess_fraction must lie in (0, 1]: {cfg.lowess_fraction}")
    for metric in cfg.zscore:
        if metric not in ("generality", "avg_citing_classes", "avg_citing_classes_cited"):
            raise ConfigError(f"{path}: zscore unsupported for metric {metric!r}")
    return cfg if cfg.periods else replace(cfg, periods=(cfg.window,))


# ---------------------------------------------------------------------------
# corpus preparation

def _ensure_corpus(cfg: RunConfig, seed: int | None, out_dir: str, text: bool) -> Corpus:
    """Validate the corpus once and write its load report.  A synthetic
    corpus is generated afresh (with `seed`, `--seed`, when given) into a
    fresh `corpus/`, and its rows are ingested without reading them back.
    The patents' text is tokenized only when `text`."""
    rules = {"window": cfg.window, "strict": cfg.strict, "text": text}
    if cfg.synth_path is not None:
        tables, truth, seed = synthesize(cfg.synth_path, seed)
        with pio.staged(out_dir, "corpus") as into:
            write_synthetic(into, tables, truth)
        pio.log(out_dir, f"synth: generated {len(tables['patents'])} patents into corpus/ with seed {seed}")
        named = {n: (os.path.join(out_dir, "corpus", f"{n}.tsv"), rows) for n, rows in tables.items()}
        corpus, report = ingest(named, **rules)
    else:
        corpus, report = pio.load_corpus(*(path for _, path in cfg.table_paths), **rules)
    # report paths relative to the output dir, so re-runs in different
    # directories hash identically
    for t in report.tables.values():
        rel = os.path.relpath(t.path, out_dir)
        if not rel.startswith(".."):
            t.path = rel
    pio.write_text(os.path.join(out_dir, "load-report.txt"), report.format())
    pio.log(out_dir, f"load: {len(corpus)} patents, {len(corpus.citing)} citations, "
                     f"{len(corpus.science_patent)} science links")
    return corpus


# ---------------------------------------------------------------------------
# stages

def stage_classify(cfg: RunConfig, corpus: Corpus, out_dir: str, into: str) -> None:
    """Write one member list per configured group into `into`, the new `groups/`."""
    for g in cfg.groups:
        if g.kind == "uspto":
            model = cls.train_uspto(corpus, g.settings["config"])
            for c in model.components:
                rows, cols = len(c.seed) + len(c.anti_seed), len(c.weights)
                pio.log(out_dir, f"classify: {g.name} component {c.name}: seed {len(c.seed)}, "
                                 f"anti-seed {len(c.anti_seed)}, vocabulary {len(c.vocab)}, "
                                 f"training features {rows} x {cols}, {c.nonzeros} non-zeros "
                                 f"({c.nonzeros * cls.NONZERO_BYTES / 2**20:.2f} MB)")
            members = cls.classify_uspto(corpus, model)
        else:
            members = CLASSIFIERS[g.kind](corpus, **g.settings)
        pio.write_ids(os.path.join(into, f"{g.name}.ids"), members)
        pio.log(out_dir, f"classify: {g.name} ({g.kind}) -> {len(members)} patents")
    if corpus.token_index is not None:
        fields = list(corpus.token_index.values())
        size = sum(f.ids.nbytes + f.indptr.nbytes for f in fields)
        pio.log(out_dir, f"classify: token index {sum(len(f.ids) for f in fields)} tokens, "
                         f"{len(fields[0].names)} distinct ({size / 2**20:.2f} MB, {fields[0].ids.itemsize}-byte ids)")


def load_uspto_config(path: str) -> cls.UsptoConfig:
    parser = pio.read_config(path, "uspto", "seeds")
    settings = pio.options(parser["uspto"], path, **pio.typed(cls.UsptoConfig))
    if "seeds" in parser:  # configparser lowercases its keys
        comps = settings.get("components", cls.DEFAULT_COMPONENTS)
        seeds = pio.options(parser["seeds"], path, **{c.lower(): pio.comma_list for c in comps})
        settings["seed_rules"] = {c: seeds[c.lower()] for c in comps if c.lower() in seeds}
    return pio.made(path, cls.UsptoConfig, **settings)


def _mpath(metrics_dir: str, stem: str) -> str:
    return os.path.join(metrics_dir, f"{stem}.metric.tsv")


def stage_metrics(cfg: RunConfig, corpus: Corpus, out_dir: str, into: str) -> None:
    """Write the metric tables into `into`, the new `metrics/`, and the
    descendants of each approach group into `groups/`, in place of those of
    earlier runs."""
    groups = os.path.join(out_dir, "groups")
    masks = {g.name: corpus.mask(pio.read_ids(os.path.join(groups, f"{g.name}.ids"))) for g in cfg.groups}
    order = [g.name for g in cfg.groups]
    approach = [g.name for g in cfg.groups if g.kind != "prefix"]
    scalars: list[tuple[str, str, str, float | None]] = []  # metric, level, group, value

    def per_group(metric, level, compute, keep_empty=False, names=order):
        """`compute(name) -> (series, overall)` for every name in `names`.
        Records each overall as a scalar of the series' group, writes the
        series (only those with points unless `keep_empty`) and returns
        them by name."""
        series = {}
        for n in names:
            series[n], overall = compute(n)
            scalars.append((metric, str(level or ""), series[n].group, overall))
        rows = [s for s in series.values() if s.points or keep_empty]
        if rows:
            pio.write_series(_mpath(into, f"{metric}_d{level}" if level else metric), rows)
        return series

    def counts_and_shares(prefix, masks):
        counts = per_group(f"{prefix}counts", None, lambda n: met.count_series(
            corpus, masks[n], n
        ), keep_empty=True, names=list(masks))
        shares = [met.share_series(corpus, mask, n) for n, mask in masks.items()]
        pio.write_series(_mpath(into, f"{prefix}share"), shares)
        return counts

    counts = counts_and_shares("", masks)
    pio.write_series(_mpath(into, "growth"), [met.growth_series(s) for s in counts.values()])
    pairs = list(combinations(approach, 2))
    per_group("jaccard", None, lambda p: met.jaccard_series(
        corpus, "|".join(p), masks[p[0]], masks[p[1]]
    ), keep_empty=True, names=pairs)
    if pairs:
        count, share = met.allway_overlap([masks[a] for a in approach])
        pio.write_table(
            os.path.join(into, "overlap.tsv"),
            ("groups", "all_way_count", "all_way_share"),
            [("|".join(approach), str(count), pio.fmt_value(share))],
        )

    for level in cfg.levels:
        breadth = functools.cache(lambda n: met.avg_citing_classes(corpus, masks[n], level, n))
        universe = getattr(cfg, f"diversity_universe_{level}", None)
        kernels = {  # generality first: it builds the level's outside-class incidence
            "generality": lambda n: met.generality_series(corpus, masks[n], level, n),
            "avg_citing_classes": lambda n: breadth(n)[0],
            "avg_citing_classes_cited": lambda n: breadth(n)[1],
            "diversity_share": lambda n: met.diversity_share(corpus, masks[n], level, n, universe=universe),
            "diversity_per_patent": lambda n: met.diversity_per_patent(corpus, masks[n], level, n),
        }
        if level == 1:  # no diversity universe at the section level
            del kernels["diversity_share"]
        # series by metric and group at this level, also the z-score inputs
        by_metric = {stem: per_group(stem, level, kernel, keep_empty=stem == "diversity_share")
                     for stem, kernel in kernels.items()}
        out = met._outside(corpus, level)
        size = sum(a.nbytes for a in (out.cited, out.cell, out.cells, out.breadth))
        pio.log(out_dir, f"metrics: level {level} outside-class incidence {len(out.cell)} rows, "
                         f"{len(out.cells)} (year, class) cells ({size / 2**20:.2f} MB)")
        for zm in cfg.zscore:
            zin = [by_metric[zm][n] for n in approach if by_metric[zm][n].points]
            if len(zin) >= 2:
                pio.write_series(_mpath(into, f"{zm}_d{level}_zscore"), met.zscore_across_groups(zin))
            else:
                pio.log(out_dir, f"metrics: zscore skipped {zm}_d{level}, fewer than 2 approach groups with points")

    lags = {n: met.citation_lag_series(corpus, masks[n], n, cfg.periods, cfg.lag_mode) for n in order}
    per_group("citation_lag", None, lambda n: lags[n][:2])
    pio.write_table(
        os.path.join(into, "lag_periods.tsv"),
        ["group"] + [f"{lo}-{hi}" for lo, hi in cfg.periods],
        [[n] + [pio.fmt_value(v) for _, v in lags[n][2]] for n in order],
    )

    if cfg.descendants and approach:
        descendants = {n: met.descendants(corpus, masks[n]) for n in approach}
        for n, mask in descendants.items():
            pio.write_ids(os.path.join(into, f"{n}.descendants.ids"), corpus.members(mask))
        counts_and_shares("descendants_", descendants)

    for metric in cfg.lowess:
        path = _mpath(into, metric)
        if not os.path.exists(path):
            pio.log(out_dir, f"metrics: lowess skipped {metric}, no such metric file")
            continue
        series = pio.read_series(path)  # years distinct, so two points span two years
        smoothed = [st.smooth_series(s, cfg.lowess_fraction) for s in series if len(s.points) >= 2]
        if smoothed:
            pio.write_series(_mpath(into, f"{metric}_lowess"), smoothed)

    pio.write_table(
        os.path.join(into, "scalars.tsv"),
        ("metric", "level", "group", "value"),
        [(m, lv, g, pio.fmt_value(v)) for m, lv, g, v in scalars],
    )
    pio.log(out_dir, f"metrics: wrote series for {len(order)} groups at levels {list(cfg.levels)}")
    # last, the descendants replace those in `groups/`, where the desk digest pins them, by removes and renames only
    for name in os.listdir(groups):
        if name.endswith(".descendants.ids"):  # no group name ends in .descendants
            os.remove(os.path.join(groups, name))
    for name in os.listdir(into):
        if name.endswith(".descendants.ids"):
            os.rename(os.path.join(into, name), os.path.join(groups, name))


def stage_stats(cfg: RunConfig, corpus: Corpus | None, out_dir: str, into: str) -> None:
    """Write the period tests of each compared metric into `into`, the new `stats/`."""
    for metric in cfg.compare:
        series = pio.read_series(_mpath(os.path.join(out_dir, "metrics"), metric))
        if len(series) < 2:
            pio.log(out_dir, f"stats: {metric} has fewer than 2 group series, skipped")
            continue
        order = [s.group for s in series]
        summary_rows = []
        for period in cfg.periods:
            tag = f"{period[0]}-{period[1]}"
            result = st.pairwise_compare(
                series, period, holm=cfg.holm, exact_cutoff=cfg.exact_cutoff
            )
            for stat_idx, stat_name in enumerate(("mean", "median", "stdev")):
                row = [tag, stat_name]
                for g in order:
                    summary = result.summaries[g]
                    row.append(pio.fmt_value(summary[stat_idx]) if summary else "")
                summary_rows.append(row)

            rows = [
                (a, b, "0", "", "", "", "") if res is None else (
                    a, b, str(res.n_effective), pio.fmt_value(res.statistic), res.method,
                    pio.fmt_value(res.p_value), pio.fmt_value(result.adjusted[(a, b)]),
                )
                for (a, b), res in result.tests.items()
            ]
            pio.write_table(
                os.path.join(into, f"{metric}_tests_{tag}.tsv"),
                ("group_a", "group_b", "n", "statistic", "method", "p_raw", "p_adjusted"),
                rows,
            )

            matrix_rows = [
                [a] + [pio.fmt_value(result.adjusted[(b, a)]) for b in order[:i]]
                + [""] * (len(order) - 1 - i)
                for i, a in enumerate(order[1:], start=1)
            ]
            pio.write_table(
                os.path.join(into, f"{metric}_pvalues_{tag}.tsv"),
                ["group"] + order[:-1],
                matrix_rows,
            )

        pio.write_table(
            os.path.join(into, f"{metric}_summary.tsv"),
            ["period", "stat"] + order,
            summary_rows,
        )
        pio.log(out_dir, f"stats: {metric} over {len(cfg.periods)} periods for {len(order)} groups")


def stage_report(cfg: RunConfig, corpus: Corpus | None, out_dir: str, into: str) -> None:
    """Plot each metric table into `into`, the new `plots/`."""
    metrics_dir = os.path.join(out_dir, "metrics")
    made, names = 0, sorted(os.listdir(metrics_dir))
    for stem in [name[: -len(".metric.tsv")] for name in names if name.endswith(".metric.tsv")]:
        series = [s for s in pio.read_series(_mpath(metrics_dir, stem)) if s.points]
        if not any(len(s.points) >= 2 for s in series):
            pio.log(out_dir, f"report: skipped {stem} (fewer than 2 points per series)")
            continue
        skipped = pio.write_svg_lines(os.path.join(into, f"{stem}.svg"), series, stem)
        for g in skipped:
            pio.log(out_dir, f"report: {stem}: dropped single-point series {g}")
        made += 1
    pio.log(out_dir, f"report: wrote {made} plots")


#: stage -> (function, the directory of OUT it owns, the paths under OUT it reads), in
#: pipeline order.  `run` calls it as `stage(cfg, corpus, OUT, into)`: it reads from OUT and
#: writes only into `into`, a fresh directory that replaces its own when it returns
STAGES = {
    "classify": (stage_classify, "groups", lambda cfg: ()),
    "metrics": (stage_metrics, "metrics", lambda cfg: [f"groups/{g.name}.ids" for g in cfg.groups]),
    "stats": (stage_stats, "stats", lambda cfg: [f"metrics/{m}.metric.tsv" for m in cfg.compare]),
    "report": (stage_report, "plots", lambda cfg: ["metrics"]),
}


# ---------------------------------------------------------------------------
# entry point

def cmd_run(args) -> int:
    cfg = load_run_config(args.config)
    if args.seed is not None and cfg.synth_path is None:
        raise ConfigError(f"{args.config}: --seed seeds a synthetic corpus, but [inputs] names tables")
    only = pio.comma_list(args.only)
    for name in only:
        if name not in STAGES:
            raise ConfigError(f"unknown stage {name!r}, expected one of {', '.join(STAGES)}")
    if len(set(only)) != len(only):
        raise ConfigError(f"--only repeats a stage: {args.only}")
    stages = [n for n in STAGES if n in only or not only]  # in pipeline order
    # a directory's writer comes before its readers: if it is in `stages`, it has run when one reads
    hint = {directory: f"the {n} stage ran but wrote no such file" if n in stages else f"run the {n} stage first"
            for n, (_, directory, _) in STAGES.items()}
    # only the keyword, WIPO and USPTO classifiers read the patents' text
    text = "classify" in stages and any(g.kind in ("keyword", "wipo", "uspto") for g in cfg.groups)
    corpus = None
    for name in stages:
        stage, directory, reads = STAGES[name]
        for rel in reads(cfg):  # before anything is written
            if not os.path.exists(path := os.path.join(args.out, rel)):
                raise DataError(f"missing {path}; {hint[rel.split('/')[0]]}")
        if corpus is None and name in ("classify", "metrics"):  # the stages that read the corpus
            corpus = _ensure_corpus(cfg, args.seed, args.out, text)
        with pio.staged(args.out, directory) as into:
            stage(cfg, corpus, args.out, into)
        if name == "classify":  # no later stage reads text; the memos stay shared
            corpus = replace(corpus, token_index=None)
    pio.write_manifest(args.out)
    return 0
