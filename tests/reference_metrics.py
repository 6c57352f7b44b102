"""Reference implementations of the citation-class metrics.

These are the per-edge loops that `patmetrics.metrics` replaced with
aggregations over interned arrays.  They are kept as test oracles: every
function here must return exactly (`==`) what its namesake in
`patmetrics.metrics` returns for the group's `Corpus.mask`.  They take the
group as a set of ids, as the loops did, and read each citation as a
(citing id, cited id, citing year) triple.  The one change from the loops as
they ran in the pipeline is that generality visits a citing patent's
classes in sorted order, so the float sum no longer depends on the hash
seed.  `outside_incidence` is the earlier array build of the incidence
behind generality and breadth.  `share_series`, `jaccard` and
`allway_overlap` are the set forms of the group-size metrics: the overall
of `patmetrics.metrics.jaccard_series` equals `jaccard`.
"""

from __future__ import annotations

import math
from collections import Counter
from statistics import mean
from typing import Iterable, Sequence

import numpy as np

from patmetrics.errors import DataError
from patmetrics.metrics import DEFAULT_UNIVERSE, GroupSeries

from helpers import citation_triples, codes_by_id


def class_sets(corpus, level: int) -> dict[str, frozenset[str]]:
    """patent id -> frozenset of level-truncated codes (patents with codes only)."""
    return {pid: frozenset(c[:level] for c in cs) for pid, cs in codes_by_id(corpus).items()}


def _grant_year(corpus, patent_id: str) -> int:
    return int(corpus.year[corpus.position[patent_id]])


def _generality(counts: Counter) -> float | None:
    total = sum(counts.values())
    if total == 0:
        return None
    return 1.0 - sum((c / total) ** 2 for c in counts.values())


def generality_series(corpus, members: Iterable[str], level: int, label: str):
    mem = frozenset(members)
    cls = class_sets(corpus, level)
    per_year: dict[int, Counter] = {}
    overall: Counter = Counter()
    empty = frozenset()
    for citing, cited, _ in citation_triples(corpus):
        if cited not in mem:
            continue
        cited_cls = cls.get(cited, empty)
        y = _grant_year(corpus, cited)
        for j in sorted(cls.get(citing, empty)):
            if j not in cited_cls:
                per_year.setdefault(y, Counter())[j] += 1
                overall[j] += 1
    pts = tuple((y, _generality(per_year[y])) for y in sorted(per_year))
    return GroupSeries(label, pts), _generality(overall)


def avg_citing_classes(corpus, members: Iterable[str], level: int, label: str):
    mem = frozenset(members)
    cls = class_sets(corpus, level)
    empty = frozenset()
    citing_classes: dict[str, set[str]] = {p: set() for p in mem}
    was_cited: set[str] = set()
    for citing, p, _ in citation_triples(corpus):
        bucket = citing_classes.get(p)
        if bucket is None:
            continue
        was_cited.add(p)
        bucket.update(cls.get(citing, empty) - cls.get(p, empty))

    def average(pool: Iterable[str]):
        by_year: dict[int, list[int]] = {}
        for p in pool:
            by_year.setdefault(_grant_year(corpus, p), []).append(len(citing_classes[p]))
        pts = tuple((y, mean(by_year[y])) for y in sorted(by_year))
        return GroupSeries(label, pts), (mean(v for _, v in pts) if pts else None)

    return average(mem), average(was_cited)


def diversity_share(corpus, members, level, label, universe=None):
    mem = frozenset(members)
    n_universe = universe if universe is not None else DEFAULT_UNIVERSE[level]
    cls = class_sets(corpus, level)
    yearly: dict[int, set[str]] = {}
    everything: set[str] = set()
    for p in mem:
        codes = cls.get(p)
        if not codes:
            continue
        yearly.setdefault(_grant_year(corpus, p), set()).update(codes)
        everything.update(codes)
    if len(everything) > n_universe:
        raise DataError(
            f"diversity: {len(everything)} distinct level-{level} codes exceed "
            f"the configured universe of {n_universe}"
        )
    pts = tuple((y, len(yearly.get(y, ())) / n_universe) for y in corpus.years())
    series = GroupSeries(label, pts)
    return series, len(everything) / n_universe


def diversity_per_patent(corpus, members, level, label):
    mem = frozenset(members)
    cls = class_sets(corpus, level)
    by_year: dict[int, list[int]] = {}
    for p in mem:
        by_year.setdefault(_grant_year(corpus, p), []).append(len(cls.get(p, ())))
    pts = tuple((y, mean(by_year[y])) for y in sorted(by_year))
    series = GroupSeries(label, pts)
    overall = mean(v for _, v in pts) if pts else None
    return series, overall


def citation_lags(corpus, members, mode="all_citations"):
    if mode not in ("all_citations", "first_citation"):
        raise ValueError(f"unknown lag mode {mode!r}")
    mem = frozenset(members)
    lags: dict[str, list[int]] = {}
    for _, cited, citing_year in citation_triples(corpus):
        if cited in mem:
            lags.setdefault(cited, []).append(citing_year - _grant_year(corpus, cited))
    if mode == "first_citation":
        lags = {p: [min(ls)] for p, ls in lags.items()}
    return lags


def citation_lag_series(
    corpus, members, label, periods: Sequence[tuple[int, int]], mode="all_citations"
):
    by_year: dict[int, list[int]] = {}
    for p, ls in citation_lags(corpus, members, mode).items():
        by_year.setdefault(_grant_year(corpus, p), []).extend(ls)
    pts = tuple((y, mean(by_year[y])) for y in sorted(by_year))

    def pooled(lo: float, hi: float) -> float | None:
        pool = [lag for y, ls in by_year.items() if lo <= y <= hi for lag in ls]
        return mean(pool) if pool else None

    series = GroupSeries(label, pts)
    return series, pooled(-math.inf, math.inf), [((lo, hi), pooled(lo, hi)) for lo, hi in periods]


def share_series(corpus, members: Iterable[str], label: str) -> GroupSeries:
    """Members granted each year over patents granted that year, for the
    years with grants."""
    mem = frozenset(members)
    total = Counter(_grant_year(corpus, p) for p in corpus.ids)
    group = Counter(_grant_year(corpus, p) for p in mem)
    pts = tuple((y, group[y] / total[y]) for y in corpus.years() if total[y])
    return GroupSeries(label, pts)


def jaccard(a: Iterable[str], b: Iterable[str]) -> float:
    """|A n B| / |A u B|; defined as 0 when both sets are empty."""
    sa, sb = set(a), set(b)
    union = sa | sb
    if not union:
        return 0.0
    return len(sa & sb) / len(union)


def allway_overlap(sets: Sequence[Iterable[str]]) -> tuple[int, float]:
    """Count and union-share of ids present in every one of the given sets."""
    if not sets:
        return 0, 0.0
    materialised = [set(s) for s in sets]
    inter = set.intersection(*materialised)
    union = set.union(*materialised)
    share = len(inter) / len(union) if union else 0.0
    return len(inter), share


def descendants(corpus, members) -> frozenset[str]:
    mem = frozenset(members)
    citing = {citing for citing, cited, _ in citation_triples(corpus) if cited in mem}
    return frozenset(citing - mem)


def outside_incidence(corpus, level: int):
    """The outside-class incidence as the metrics stage built it before
    each row carried its (cited grant year, class) cell: the cited position
    and citing class of each row, and the per-patent breadth.  It bounds
    the memory of `metrics._build_outside` and checks its rows."""
    index = corpus.class_index(level)
    n_classes = len(index.names)
    key_type = np.int32 if len(corpus) * n_classes < 2**31 else np.int64
    edge, classes = index.take(corpus.citing)
    cited = corpus.cited[edge]
    del edge
    keys = cited.astype(key_type) * n_classes + classes
    held = index.owners().astype(key_type) * n_classes + index.ids
    at = np.searchsorted(held, keys)
    np.minimum(at, len(held) - 1, out=at)
    outside = held[at] != keys
    del at
    breadth = np.bincount(np.unique(keys[outside]) // n_classes, minlength=len(corpus))
    return cited[outside], classes[outside], breadth
