"""Group-level technology metrics over a patent corpus.

Conventions shared by every metric:

* a "group" is a set of patent ids, always a subset of the corpus; a metric
  takes the group as `Corpus.mask(ids)`, a boolean mask over patent
  positions, so each group is interned once per run;
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
from typing import Sequence

import numpy as np

from .corpus import Corpus, distinct
from .errors import DataError
from .io import GroupSeries

#: Distinct CPC codes in force at each truncation level, used as the
#: denominator of `diversity_share`.  Callers may override per corpus vintage.
DEFAULT_UNIVERSE = {1: 9, 3: 136, 4: 674}


# ---------------------------------------------------------------------------
# counts, shares, growth

def _year_counts(corpus: Corpus, mask: np.ndarray) -> list[int]:
    """Patents per grant year under `mask` (`...` for all), one count per year of the window."""
    lo, hi = corpus.window
    return np.bincount(corpus.year[mask] - lo, minlength=hi - lo + 1).tolist()


def count_series(corpus: Corpus, mask: np.ndarray, label: str) -> tuple[GroupSeries, float]:
    """Patents granted per year, zero-filled over the corpus window, and the group size."""
    pts = tuple((y, float(n)) for y, n in zip(corpus.years(), _year_counts(corpus, mask)))
    return GroupSeries(label, pts), float(np.count_nonzero(mask))


def share_series(corpus: Corpus, mask: np.ndarray, label: str) -> GroupSeries:
    """Group count over corpus count, year by year, for the years with grants."""
    pts = zip(corpus.years(), _year_counts(corpus, mask), _year_counts(corpus, ...))
    return GroupSeries(label, tuple((y, g / a) for y, g, a in pts if a))


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
    return GroupSeries(counts.group, tuple(pts))


# ---------------------------------------------------------------------------
# overlap

def jaccard_series(corpus: Corpus, label: str, a: np.ndarray, b: np.ndarray) -> tuple[GroupSeries, float]:
    """Jaccard overlap |A n B| / |A u B| between two groups, by grant year
    and over the whole window.  Where neither group has members the
    overlap is 0 by the empty-sets convention."""
    inter, union = _year_counts(corpus, a & b), _year_counts(corpus, a | b)
    pts = tuple((y, i / u if u else 0.0) for y, i, u in zip(corpus.years(), inter, union))
    n_inter, n_union = sum(inter), sum(union)
    return GroupSeries(label, pts), n_inter / n_union if n_union else 0.0


def allway_overlap(masks: Sequence[np.ndarray]) -> tuple[int, float]:
    """Count and union-share of patents present in every one of the groups."""
    if not masks:
        return 0, 0.0
    inter = int(np.count_nonzero(np.logical_and.reduce(masks)))
    union = int(np.count_nonzero(np.logical_or.reduce(masks)))
    return inter, inter / union if union else 0.0


# ---------------------------------------------------------------------------
# citation-class metrics over the citation arrays of `Corpus` and
# `Corpus.class_index`.  Every sum numpy takes is a sum of integers; means of
# integers are Python int / int, which is correctly rounded like
# `statistics.mean`.

@dataclass(frozen=True, eq=False)
class _Outside:
    """The outside-class incidence at one CPC level: a row for each class of
    each citing patent that the cited patent does not hold, in citation
    order and, within a citation, in ascending class id.  A row holds the
    cited position and its (cited grant year, class) cell, an index into
    `cells`, the ascending distinct `year * n_classes + class` keys.  Per
    patent position, `breadth` is the number of distinct classes in its
    rows."""

    cited: np.ndarray
    cell: np.ndarray
    cells: np.ndarray
    n_classes: int
    breadth: np.ndarray


def _outside(corpus: Corpus, level: int) -> _Outside:
    """The incidence at `level`.  Only the latest level is kept:
    `cli.stage_metrics` finishes one level before it starts the next."""
    return corpus.memo(("outside", level), lambda: _build_outside(corpus, level), slot="outside")


def _build_outside(corpus: Corpus, level: int) -> _Outside:
    index = corpus.class_index(level)
    n_classes = len(index.names)
    # int32 throughout unless (patent, class) keys outgrow it: these arrays
    # hold one entry per citing-side class and set the stage's peak memory
    key_type = np.int32 if len(corpus) * n_classes < 2**31 else np.int64
    edge, classes = index.take(corpus.citing)
    cited = corpus.cited[edge]
    del edge
    keys = cited.astype(key_type) * n_classes + classes
    # a row is outside when its key's bit is clear in a table of one bit per
    # (patent, class) held; `.at` ors unbuffered, as held keys share bytes
    held = index.owners().astype(key_type) * n_classes + index.ids
    bits = np.zeros(-(-len(corpus) * n_classes // 8), np.uint8)
    np.bitwise_or.at(bits, held >> 3, np.left_shift(1, held & 7).astype(np.uint8))
    del held
    outside = (bits[keys >> 3] >> (keys & 7).astype(np.uint8) & 1) == 0
    del bits
    breadth = np.bincount(distinct(keys[outside]) // n_classes, minlength=len(corpus))
    del keys
    cited, classes = cited[outside], classes[outside]
    del outside
    # number the cells through a presence table over (years present) x classes
    lo, hi = corpus.window
    cell = corpus.year[cited] - lo
    present = np.zeros(hi - lo + 1, bool)
    present[cell] = True
    cell = (np.cumsum(present, dtype=np.int32) - 1)[cell] * n_classes + classes
    del classes
    table = np.zeros(np.count_nonzero(present) * n_classes, bool)
    table[cell] = True
    cell = (np.cumsum(table, dtype=np.int32) - 1)[cell]
    year, klass = np.divmod(np.flatnonzero(table), n_classes)
    key_type = np.int32 if (abs(lo) + abs(hi) + 1) * n_classes < 2**31 else np.int64
    cells = ((np.flatnonzero(present)[year] + lo) * n_classes + klass).astype(key_type)
    return _Outside(cited, cell, cells, n_classes, breadth)


def _generality(counts: list[int]) -> float | None:
    """1 - sum of squared class shares; None for an empty tally."""
    total = sum(counts)
    if total == 0:
        return None
    return 1.0 - sum((c / total) ** 2 for c in counts)


def _year_sums(years: np.ndarray, values: np.ndarray) -> list[tuple[int, float, int]]:
    """(year, sum of the integer `values`, count) per distinct year,
    ascending.  Each sum is an integer below 2**53, exact as a float, so
    `total / n` rounds as `int / int`."""
    lo = int(years.min()) if len(years) else 0
    counts, sums = np.bincount(years - lo).tolist(), np.bincount(years - lo, values).tolist()
    return [(lo + y, total, n) for y, (total, n) in enumerate(zip(sums, counts)) if n]


def _yearly_means(years: np.ndarray, values: np.ndarray, label: str) -> tuple[GroupSeries, float | None]:
    """Mean of the integer `values` per distinct year, and the mean of those
    annual means (None without points)."""
    pts = tuple((y, total / n) for y, total, n in _year_sums(years, values))
    return GroupSeries(label, pts), (mean(v for _, v in pts) if pts else None)


def generality_series(
    corpus: Corpus, mask: np.ndarray, level: int, label: str
) -> tuple[GroupSeries, float | None]:
    """Generality of citations received, by cited-patent grant year and over
    all years.

    Citations are tallied by citing-patent class: once per citing-side class
    that the cited patent does not itself hold, so within-class citations
    are excluded.  Classes enter each tally in citation order and, within a
    citation, in sorted order, which fixes the order of the float sum.
    The all-years value is None when no outside citations were received.
    """
    out = _outside(corpus, level)
    cell = out.cell[mask[out.cited]]
    counts = np.bincount(cell, minlength=len(out.cells))
    first = np.full(len(out.cells), len(cell))
    np.minimum.at(first, cell, np.arange(len(cell)))
    seen = np.flatnonzero(counts)
    years, classes = np.divmod(out.cells[seen], out.n_classes)
    # by year, and within a year by first place
    by_year = np.lexsort((first[seen], years))
    per_year: dict[int, list[int]] = {}
    for y, count in zip(years[by_year].tolist(), counts[seen[by_year]].tolist()):
        per_year.setdefault(y, []).append(count)
    pts = tuple((y, _generality(tally)) for y, tally in per_year.items())
    # fold the cells by class: the class's count, and its first place
    tally = np.bincount(classes, counts[seen], out.n_classes)  # integer sums, exact as floats
    place = np.full(out.n_classes, len(cell))
    np.minimum.at(place, classes, first[seen])
    held = np.flatnonzero(tally)
    overall = _generality(tally[held[np.argsort(place[held])]].tolist())
    return GroupSeries(label, pts), overall


# ---------------------------------------------------------------------------
# breadth of citing classes

def avg_citing_classes(
    corpus: Corpus, mask: np.ndarray, level: int, label: str
) -> tuple[tuple[GroupSeries, float | None], tuple[GroupSeries, float | None]]:
    """Average number of distinct outside classes citing a group patent.

    Per patent: the count of level-`level` classes, other than its own,
    holding at least one patent that cites it.  Annual values average over
    group patents granted that year.  Returns the annual series and the
    mean of the annual values, first over all group patents, then over
    those that received at least one citation.
    """
    breadth = _outside(corpus, level).breadth
    cited = mask & corpus.memo("cited_once", lambda: np.bincount(corpus.cited, minlength=len(corpus)) > 0)
    return tuple(_yearly_means(corpus.year[pool], breadth[pool], label) for pool in (mask, cited))


# ---------------------------------------------------------------------------
# diversity

def diversity_share(
    corpus: Corpus,
    mask: np.ndarray,
    level: int,
    label: str,
    universe: int | None = None,
) -> tuple[GroupSeries, float]:
    """Share of the class universe touched by the group.

    Annual values use codes of patents granted that year; the returned
    scalar uses the whole window.
    """
    n_universe = universe if universe is not None else DEFAULT_UNIVERSE[level]
    index = corpus.class_index(level)
    owners = index.owners()
    held = mask[owners]
    classes = index.ids[held]
    everything = len(distinct(classes))
    if everything > n_universe:
        raise DataError(
            f"diversity: {everything} distinct level-{level} codes exceed "
            f"the configured universe of {n_universe}"
        )
    year_class = distinct(corpus.year[owners[held]] * len(index.names) + classes)
    yearly = Counter((year_class // len(index.names)).tolist())
    pts = tuple((y, yearly.get(y, 0) / n_universe) for y in corpus.years())
    return GroupSeries(label, pts), everything / n_universe


def diversity_per_patent(
    corpus: Corpus, mask: np.ndarray, level: int, label: str
) -> tuple[GroupSeries, float | None]:
    """Average count of distinct level-`level` codes per group patent.

    Annual values average over patents granted that year (codeless patents
    count zero); the scalar is the mean of the annual values.
    """
    per_patent = np.diff(corpus.class_index(level).indptr)
    return _yearly_means(corpus.year[mask], per_patent[mask], label)


# ---------------------------------------------------------------------------
# citation lags

def _lags(corpus: Corpus, mask: np.ndarray, mode: str) -> tuple[np.ndarray, np.ndarray]:
    """Cited positions and lags of the citations received by group members,
    in citation order.  "first_citation" keeps one row per cited patent,
    at its first citation, holding its smallest lag."""
    if mode not in ("all_citations", "first_citation"):
        raise ValueError(f"unknown lag mode {mode!r}")
    rows = mask[corpus.cited]
    cited = corpus.cited[rows]
    lags = corpus.year[corpus.citing[rows]] - corpus.year[cited]
    if mode == "first_citation":
        smallest = np.full(len(corpus), np.iinfo(np.int32).max, np.int32)
        np.minimum.at(smallest, cited, lags)
        cited = cited[np.sort(np.unique(cited, return_index=True)[1])]
        lags = smallest[cited]
    return cited, lags


def citation_lag_series(
    corpus: Corpus,
    mask: np.ndarray,
    label: str,
    periods: Sequence[tuple[int, int]],
    mode: str = "all_citations",
) -> tuple[GroupSeries, float | None, list[tuple[tuple[int, int], float | None]]]:
    """Mean citation lag by cited-cohort grant year, the pooled mean, and the
    pooled mean for cited patents granted in each of `periods`."""
    cited, lags = _lags(corpus, mask, mode)
    sums = _year_sums(corpus.year[cited], lags)
    pooled = []  # the whole window's and each period's, from the years' sums
    for lo, hi in [(-math.inf, math.inf), *periods]:
        rows = [(total, n) for y, total, n in sums if lo <= y <= hi]
        n = sum(n for _, n in rows)
        pooled.append(int(sum(total for total, _ in rows)) / n if n else None)
    series = GroupSeries(label, tuple((y, total / n) for y, total, n in sums))
    return series, pooled[0], list(zip(periods, pooled[1:]))


# ---------------------------------------------------------------------------
# descendants

def descendants(corpus: Corpus, mask: np.ndarray) -> np.ndarray:
    """Mask of the patents citing a group member, the group itself excluded."""
    out = np.zeros(len(corpus), bool)
    out[corpus.citing[mask[corpus.cited]]] = True
    return out & ~mask


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
    return [GroupSeries(s.group, tuple(pts)) for s, pts in zip(series_list, out_points)]
