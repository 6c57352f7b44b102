"""Group-level technology metrics over a patent corpus.

Conventions shared by every metric:

* a "group" is a set of patent ids, always a subset of the corpus;
* annual series carry (year, value) points sorted by year, and a year is
  omitted (not zero-filled) when the metric is undefined there;
* scalars that cannot be computed (e.g. no citations at all) come back as
  None rather than NaN, so writers can emit empty cells.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from statistics import mean, pstdev
from typing import Iterable, Sequence

from .corpus import Corpus
from .errors import DataError

#: Distinct CPC codes in force at each truncation level, used as the
#: denominator of `diversity_share`.  Callers may override per corpus vintage.
DEFAULT_UNIVERSE = {1: 9, 3: 136, 4: 674}


@dataclass(frozen=True)
class GroupSeries:
    """An annual metric series for one group (or one group pair)."""

    group: str
    metric: str
    points: tuple[tuple[int, float], ...]

    def __post_init__(self):
        years = [y for y, _ in self.points]
        if years != sorted(set(years)):
            raise ValueError(f"series years must be sorted and unique: {years}")
        for y, v in self.points:
            if not math.isfinite(v):
                raise ValueError(f"non-finite value {v!r} at year {y}")

    def years(self) -> list[int]:
        return [y for y, _ in self.points]

    def values(self) -> list[float]:
        return [v for _, v in self.points]

    def as_dict(self) -> dict[int, float]:
        return dict(self.points)

    def restrict(self, period: tuple[int, int]) -> "GroupSeries":
        lo, hi = period
        pts = tuple((y, v) for y, v in self.points if lo <= y <= hi)
        return GroupSeries(self.group, self.metric, pts)


def _require_members(corpus: Corpus, members: Iterable[str]) -> frozenset[str]:
    mem = frozenset(members)
    unknown = [p for p in mem if p not in corpus]
    if unknown:
        sample = ", ".join(sorted(unknown)[:3])
        raise DataError(f"{len(unknown)} group members not in corpus (e.g. {sample})")
    return mem


# ---------------------------------------------------------------------------
# counts, shares, growth

def count_series(corpus: Corpus, members: Iterable[str], label: str) -> GroupSeries:
    """Patents granted per year, zero-filled over the whole corpus window."""
    mem = _require_members(corpus, members)
    tally = Counter(corpus.grant_year(p) for p in mem)
    pts = tuple((y, float(tally.get(y, 0))) for y in corpus.years())
    return GroupSeries(label, "counts", pts)


def share_series(group_counts: GroupSeries, all_counts: GroupSeries) -> GroupSeries:
    """Group count divided by total count, year by year.

    Years where both counts are zero are omitted; a positive group count
    over a zero total is a data error.
    """
    total = all_counts.as_dict()
    pts = []
    for y, g in group_counts.points:
        if y not in total:
            raise DataError(f"share: total count missing for year {y}")
        a = total[y]
        if a == 0:
            if g > 0:
                raise DataError(f"share: group count {g} exceeds zero total in {y}")
            continue
        pts.append((y, g / a))
    return GroupSeries(group_counts.group, "share", tuple(pts))


def growth_series(counts: GroupSeries) -> GroupSeries:
    """Year-over-year relative change (N_t - N_{t-1}) / N_{t-1}.

    Years whose previous-year count is zero are omitted.
    """
    prev_year = None
    prev = None
    pts = []
    for y, n in counts.points:
        if prev_year == y - 1 and prev:
            pts.append((y, (n - prev) / prev))
        prev_year, prev = y, n
    return GroupSeries(counts.group, "growth", tuple(pts))


# ---------------------------------------------------------------------------
# overlap

def jaccard(a: Iterable[str], b: Iterable[str]) -> float:
    """|A n B| / |A u B|; defined as 0 when both sets are empty."""
    sa, sb = set(a), set(b)
    union = sa | sb
    if not union:
        return 0.0
    return len(sa & sb) / len(union)


def jaccard_series(
    corpus: Corpus, label_a: str, a: Iterable[str], label_b: str, b: Iterable[str]
) -> GroupSeries:
    """Annual Jaccard overlap between two groups, by grant year.

    Column identity is "label_a|label_b".  A year where neither group has
    members yields 0 by the empty-sets convention.
    """
    sa = _require_members(corpus, a)
    sb = _require_members(corpus, b)
    years = corpus.year_index()
    pts = []
    for y in corpus.years():
        in_year = years.get(y, frozenset())
        pts.append((y, jaccard(sa & in_year, sb & in_year)))
    return GroupSeries(f"{label_a}|{label_b}", "jaccard", tuple(pts))


def allway_overlap(sets: Sequence[Iterable[str]]) -> tuple[int, float]:
    """Count and union-share of ids present in every one of the given sets."""
    if not sets:
        return 0, 0.0
    materialised = [set(s) for s in sets]
    inter = set.intersection(*materialised)
    union = set.union(*materialised)
    share = len(inter) / len(union) if union else 0.0
    return len(inter), share


# ---------------------------------------------------------------------------
# generality of received citations

def _generality(counts: Counter) -> float | None:
    """1 - sum of squared class shares; None for an empty tally."""
    total = sum(counts.values())
    if total == 0:
        return None
    return 1.0 - sum((c / total) ** 2 for c in counts.values())


def generality_series(
    corpus: Corpus, members: Iterable[str], level: int, label: str
) -> tuple[GroupSeries, float | None]:
    """Generality of citations received, by cited-patent grant year and over
    all years.

    Citations are tallied by citing-patent class: once per citing-side class
    that the cited patent does not itself hold, so within-class citations
    are excluded.  Yearless cohorts are omitted from the series; the
    all-years value is None when no outside citations were received.
    """
    mem = _require_members(corpus, members)
    cls = corpus.class_sets(level)
    per_year: dict[int, Counter] = {}
    overall: Counter = Counter()
    empty = frozenset()
    for e in corpus.citations:
        if e.cited not in mem:
            continue
        cited_cls = cls.get(e.cited, empty)
        y = corpus.grant_year(e.cited)
        for j in cls.get(e.citing, empty):
            if j not in cited_cls:
                per_year.setdefault(y, Counter())[j] += 1
                overall[j] += 1
    pts = tuple((y, _generality(per_year[y])) for y in sorted(per_year))
    return GroupSeries(label, "generality", pts), _generality(overall)


# ---------------------------------------------------------------------------
# breadth of citing classes

def avg_citing_classes(
    corpus: Corpus, members: Iterable[str], level: int, label: str
) -> tuple[tuple[GroupSeries, float | None], tuple[GroupSeries, float | None]]:
    """Average number of distinct outside classes citing a group patent.

    Per patent: the count of level-`level` classes, other than its own,
    holding at least one patent that cites it.  Annual values average over
    group patents granted that year.  Returns the annual series and the
    mean of the annual values, first over all group patents, then over
    those that received at least one citation.
    """
    mem = _require_members(corpus, members)
    cls = corpus.class_sets(level)
    empty = frozenset()
    citing_classes: dict[str, set[str]] = {p: set() for p in mem}
    was_cited: set[str] = set()
    for e in corpus.citations:
        p = e.cited
        bucket = citing_classes.get(p)
        if bucket is None:
            continue
        was_cited.add(p)
        bucket.update(cls.get(e.citing, empty) - cls.get(p, empty))

    def average(pool: Iterable[str], metric: str) -> tuple[GroupSeries, float | None]:
        by_year: dict[int, list[int]] = {}
        for p in pool:
            by_year.setdefault(corpus.grant_year(p), []).append(len(citing_classes[p]))
        pts = tuple((y, mean(by_year[y])) for y in sorted(by_year))
        return GroupSeries(label, metric, pts), (mean(v for _, v in pts) if pts else None)

    return average(mem, "avg_citing_classes"), average(was_cited, "avg_citing_classes_cited")


# ---------------------------------------------------------------------------
# diversity

def diversity_share(
    corpus: Corpus,
    members: Iterable[str],
    level: int,
    label: str,
    universe: int | None = None,
) -> tuple[GroupSeries, float]:
    """Share of the class universe touched by the group.

    Annual values use codes of patents granted that year; the returned
    scalar uses the whole window.
    """
    mem = _require_members(corpus, members)
    n_universe = universe if universe is not None else DEFAULT_UNIVERSE[level]
    cls = corpus.class_sets(level)
    yearly: dict[int, set[str]] = {}
    everything: set[str] = set()
    for p in mem:
        codes = cls.get(p)
        if not codes:
            continue
        yearly.setdefault(corpus.grant_year(p), set()).update(codes)
        everything.update(codes)
    if len(everything) > n_universe:
        raise DataError(
            f"diversity: {len(everything)} distinct level-{level} codes exceed "
            f"the configured universe of {n_universe}"
        )
    pts = tuple((y, len(yearly.get(y, ())) / n_universe) for y in corpus.years())
    series = GroupSeries(label, "diversity_share", pts)
    return series, len(everything) / n_universe


def diversity_per_patent(
    corpus: Corpus, members: Iterable[str], level: int, label: str
) -> tuple[GroupSeries, float | None]:
    """Average count of distinct level-`level` codes per group patent.

    Annual values average over patents granted that year (codeless patents
    count zero); the scalar is the mean of the annual values.
    """
    mem = _require_members(corpus, members)
    cls = corpus.class_sets(level)
    by_year: dict[int, list[int]] = {}
    for p in mem:
        by_year.setdefault(corpus.grant_year(p), []).append(len(cls.get(p, ())))
    pts = tuple((y, mean(by_year[y])) for y in sorted(by_year))
    series = GroupSeries(label, "diversity_per_patent", pts)
    overall = mean(v for _, v in pts) if pts else None
    return series, overall


# ---------------------------------------------------------------------------
# citation lags

def citation_lags(
    corpus: Corpus, members: Iterable[str], mode: str = "all_citations"
) -> dict[str, list[int]]:
    """Lags (citing grant year - cited grant year) of citations received by
    group members, keyed by cited patent.  `mode` "first_citation" keeps
    only the smallest lag per patent.  Uncited members are absent."""
    if mode not in ("all_citations", "first_citation"):
        raise ValueError(f"unknown lag mode {mode!r}")
    mem = _require_members(corpus, members)
    lags: dict[str, list[int]] = {}
    for e in corpus.citations:
        if e.cited in mem:
            lags.setdefault(e.cited, []).append(e.citing_year - corpus.grant_year(e.cited))
    if mode == "first_citation":
        lags = {p: [min(ls)] for p, ls in lags.items()}
    return lags


def citation_lag_series(
    corpus: Corpus,
    members: Iterable[str],
    label: str,
    periods: Sequence[tuple[int, int]],
    mode: str = "all_citations",
) -> tuple[GroupSeries, float | None, list[tuple[tuple[int, int], float | None]]]:
    """Mean citation lag by cited-cohort grant year, the pooled mean, and the
    pooled mean for cited patents granted in each of `periods`."""
    by_year: dict[int, list[int]] = {}
    for p, ls in citation_lags(corpus, members, mode).items():
        by_year.setdefault(corpus.grant_year(p), []).extend(ls)
    pts = tuple((y, mean(by_year[y])) for y in sorted(by_year))

    def pooled(lo: float, hi: float) -> float | None:
        pool = [lag for y, ls in by_year.items() if lo <= y <= hi for lag in ls]
        return mean(pool) if pool else None

    series = GroupSeries(label, "citation_lag", pts)
    return series, pooled(-math.inf, math.inf), [((lo, hi), pooled(lo, hi)) for lo, hi in periods]


# ---------------------------------------------------------------------------
# descendants

def descendants(corpus: Corpus, members: Iterable[str]) -> frozenset[str]:
    """Patents citing at least one group member, excluding the group itself."""
    mem = _require_members(corpus, members)
    citing = {e.citing for e in corpus.citations if e.cited in mem}
    return frozenset(citing - mem)


# ---------------------------------------------------------------------------
# cross-group standardisation

def zscore_across_groups(series_list: Sequence[GroupSeries]) -> list[GroupSeries]:
    """Standardise each year's values across groups (population stdev).

    Only years present in every input series are used; years with zero
    variance across groups are dropped.  Input order is preserved.
    """
    if len(series_list) < 2:
        raise ValueError("zscore needs at least 2 group series")
    names = [s.group for s in series_list]
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate group names: {names}")
    common = set(series_list[0].years())
    for s in series_list[1:]:
        common &= set(s.years())
    maps = [s.as_dict() for s in series_list]
    out_points: list[list[tuple[int, float]]] = [[] for _ in series_list]
    for y in sorted(common):
        vals = [m[y] for m in maps]
        mu = mean(vals)
        sigma = pstdev(vals)
        if sigma == 0:
            continue
        for i, v in enumerate(vals):
            out_points[i].append((y, (v - mu) / sigma))
    return [
        GroupSeries(s.group, "zscore", tuple(pts))
        for s, pts in zip(series_list, out_points)
    ]
