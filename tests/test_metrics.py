import os
import random
import subprocess
import sys
from statistics import mean, pstdev

import numpy as np
import pytest

from patmetrics import metrics as met
from patmetrics.classify import classify_prefix_group
from patmetrics.errors import DataError

import reference_metrics as ref
from helpers import build_corpus, citation_heavy_corpus, ids_of, random_corpus, traced_peak


# ---------------------------------------------------------------------------
# brute-force oracles, written against plain dicts rather than the corpus API

def oracle_generality(years, codes, edges, ai, level):
    """Tally citing classes per AI patent by scanning the full edge list."""

    def classes(p):
        return {c[:level] for c in codes.get(p, [])}

    tally = {}
    for p in ai:
        for citing, cited in edges:
            if cited != p:
                continue
            for j in classes(citing) - classes(p):
                tally[j] = tally.get(j, 0) + 1
    total = sum(tally.values())
    if total == 0:
        return None
    return 1.0 - sum((v / total) ** 2 for v in tally.values())


def oracle_avg_citing(years, codes, edges, ai, level, cited_only):
    def classes(p):
        return {c[:level] for c in codes.get(p, [])}

    per_year = {}
    for p in ai:
        outside = set()
        cited = False
        for citing, cited_id in edges:
            if cited_id == p:
                cited = True
                outside |= classes(citing) - classes(p)
        if cited_only and not cited:
            continue
        per_year.setdefault(years[p], []).append(len(outside))
    pts = [(y, mean(v)) for y, v in sorted(per_year.items())]
    overall = mean(v for _, v in pts) if pts else None
    return pts, overall


def generality_index(corpus, members, level):
    """The all-years value of `generality_series`."""
    return met.generality_series(corpus, corpus.mask(members), level, "g")[1]


def oracle_descendants(edges, ai):
    return {citing for citing, cited in edges if cited in ai} - set(ai)


# ---------------------------------------------------------------------------
# generality

class TestGenerality:
    @pytest.mark.parametrize("k", [1, 2, 3, 5, 8])
    def test_balanced_citing_sections(self, k):
        """k equal citing classes, none shared with the cited patent,
        gives exactly 1 - 1/k."""
        years = {"X": 2000}
        codes = {"X": ["A01B"]}
        cites = []
        sections = "BCDEFGHY"
        for i in range(k):
            pid = f"C{i}"
            years[pid] = 2005
            codes[pid] = [f"{sections[i]}11{'Z'}"]
            cites.append((pid, "X"))
        corpus = build_corpus(years, codes=codes, cites=cites)
        got = generality_index(corpus, {"X"}, 1)
        assert got == pytest.approx(1.0 - 1.0 / k, abs=1e-12)

    @pytest.mark.parametrize("k", [1, 2, 7, 20, 50])
    def test_balanced_classes_level4(self, k):
        years = {"X": 2000}
        codes = {"X": ["A01B"]}
        cites = []
        for i in range(k):
            pid = f"C{i}"
            years[pid] = 2005
            codes[pid] = [f"B{i % 90 + 1:02d}{chr(ord('A') + i // 90)}"]
            cites.append((pid, "X"))
        corpus = build_corpus(years, codes=codes, cites=cites)
        got = generality_index(corpus, {"X"}, 4)
        assert got == pytest.approx(1.0 - 1.0 / k, abs=1e-12)

    def test_within_class_citations_excluded(self):
        corpus = build_corpus(
            {"X": 2000, "C1": 2005, "C2": 2005},
            codes={"X": ["G06N"], "C1": ["G06F"], "C2": ["H04L"]},
            cites=[("C1", "X"), ("C2", "X")],
        )
        # at level 1, C1's G section matches X's own and is excluded
        assert generality_index(corpus, {"X"}, 1) == 0.0  # only H remains
        assert generality_index(corpus, {"X"}, 4) == 0.5

    def test_uncited_group_is_none(self):
        corpus = build_corpus({"X": 2000}, codes={"X": ["G06N"]})
        series, overall = met.generality_series(corpus, corpus.mask({"X"}), 1, "g")
        assert series.points == ()
        assert overall is None

    @pytest.mark.parametrize("seed", range(15))
    def test_matches_bruteforce_on_random_corpora(self, seed):
        rng = random.Random(1000 + seed)
        corpus, years, codes, edges, ai = random_corpus(rng)
        for level in (1, 3, 4):
            got = generality_index(corpus, ai, level)
            want = oracle_generality(years, codes, edges, ai, level)
            if want is None:
                assert got is None
            else:
                assert got == pytest.approx(want, abs=1e-12)


class TestGeneralitySeries:
    def test_series_grouped_by_cited_cohort(self):
        corpus = build_corpus(
            {"X": 2000, "Y": 2001, "C1": 2005, "C2": 2005},
            codes={"X": ["A01B"], "Y": ["A01B"], "C1": ["B11Z", "C11Z"], "C2": ["D11Z"]},
            cites=[("C1", "X"), ("C2", "Y")],
        )
        series, overall = met.generality_series(corpus, corpus.mask({"X", "Y"}), 1, "g")
        assert series.years() == [2000, 2001]
        assert series.values()[0] == pytest.approx(0.5)  # B and C split evenly
        assert series.values()[1] == pytest.approx(0.0)
        assert overall == pytest.approx(2 / 3)  # B, C and D once each over both years

    @pytest.mark.parametrize("seed", range(5))
    def test_yearwise_matches_pooled_single_years(self, seed):
        rng = random.Random(2000 + seed)
        corpus, years, codes, edges, ai = random_corpus(rng)
        series, _ = met.generality_series(corpus, corpus.mask(ai), 3, "g")
        for y, v in series.points:
            cohort = {p for p in ai if years[p] == y}
            want = oracle_generality(years, codes, edges, cohort, 3)
            assert v == pytest.approx(want, abs=1e-12)


class TestGeneralityCells:
    """`generality_series` tallies each group's rows by their (cited grant
    year, class) cell; every case equals the reference loop exactly."""

    LEVELS = (1, 3, 4)

    def assert_equals_reference(self, corpus, members):
        for level in self.LEVELS:
            got = met.generality_series(corpus, corpus.mask(members), level, "g")
            assert got == ref.generality_series(corpus, members, level, "g"), level

    def test_level_without_classes(self):
        corpus = build_corpus({"X": 2000, "Y": 2003}, cites=[("Y", "X")])
        assert len(corpus.class_index(1).names) == 0
        self.assert_equals_reference(corpus, {"X"})
        assert met.generality_series(corpus, corpus.mask({"X"}), 1, "g")[1] is None

    def test_group_without_outside_rows(self):
        # cited only from within its own classes
        corpus = build_corpus(
            {"X": 2000, "C": 2002, "D": 2004},
            codes={"X": ["G06N", "H04W"], "C": ["G06N"], "D": ["A61K"]},
            cites=[("C", "X"), ("D", "C")],
        )
        self.assert_equals_reference(corpus, {"X"})
        assert met.generality_series(corpus, corpus.mask({"X"}), 4, "g") == (
            met.GroupSeries("g", ()), None
        )

    def test_cited_cohorts_with_gaps(self):
        corpus = build_corpus(
            {"A": 2000, "B": 2003, "C": 2007, "P": 2008, "Q": 2009},
            codes={"A": ["G06N"], "B": ["G06F"], "C": ["H04W"], "P": ["A61K", "C12N", "G06F"],
                   "Q": ["B82Y", "A61K"]},
            cites=[("P", "A"), ("Q", "A"), ("P", "C"), ("Q", "C"), ("Q", "B")],
        )
        self.assert_equals_reference(corpus, {"A", "B", "C"})
        series, _ = met.generality_series(corpus, corpus.mask({"A", "B", "C"}), 4, "g")
        assert series.years() == [2000, 2003, 2007]

    @pytest.mark.parametrize("seed", range(4))
    def test_window_far_wider_than_the_data(self, seed):
        rng = random.Random(7000 + seed)
        _, years, codes, edges, ai = random_corpus(rng)
        corpus = build_corpus(years, codes=codes, cites=edges, window=(0, 9999))
        self.assert_equals_reference(corpus, ai)
        self.assert_equals_reference(corpus, set(years))

    def test_cohorts_at_both_ends_of_the_widest_window(self):
        """Cited cohorts at years 0 and 9999 of a `0-9999` window: the cell
        table spans the two years present, not the 10,000 of the window."""
        classes = [f"{s}{n:02d}{c}" for s in "ABC" for n in (1, 2, 3, 4) for c in "KLMNPQRS"]
        corpus = build_corpus(
            {"A": 0, "B": 9999, "P": 9999, "Q": 9999},
            codes={"A": ["A01K"], "B": ["B02L"], "P": classes, "Q": classes[::3]},
            cites=[("P", "A"), ("P", "B"), ("Q", "A")],
            window=(0, 9999),
        )
        self.assert_equals_reference(corpus, {"A", "B"})
        self.assert_equals_reference(corpus, {"B"})
        corpus.class_index(4)
        out, peak = traced_peak(lambda: met._build_outside(corpus, 4))
        assert sorted({int(k) // out.n_classes for k in out.cells}) == [0, 9999]
        # one bool per (year, class) of the window would take 960,000 bytes
        assert peak < 10_000 * out.n_classes // 4

    @pytest.mark.parametrize("prefix", ["All", "G06"])
    def test_citation_heavy_groups(self, prefix):
        corpus = citation_heavy_corpus()
        self.assert_equals_reference(corpus, classify_prefix_group(corpus, prefix))

    @staticmethod
    def assert_holds_reference_incidence(corpus, level):
        out = met._build_outside(corpus, level)
        cited, classes, breadth = ref.outside_incidence(corpus, level)
        assert np.array_equal(out.cited, cited) and np.array_equal(out.breadth, breadth)
        keys = out.cells[out.cell]
        assert np.array_equal(keys, corpus.year[cited] * out.n_classes + classes)
        assert np.array_equal(out.cells, np.unique(keys)) and out.cell.dtype == np.int32

    @pytest.mark.parametrize("level", LEVELS)
    def test_cells_hold_the_reference_incidence(self, level):
        self.assert_holds_reference_incidence(citation_heavy_corpus(), level)

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("level", LEVELS)
    def test_patent_holding_every_class(self, level, seed):
        """A cited patent that holds every class of its level sets every bit
        of its row of the held-class table: none of its rows is outside."""
        rng = random.Random(7100 + seed)
        _, years, codes, edges, _ = random_corpus(rng)
        everything = sorted({c for cs in codes.values() for c in cs})
        citers = rng.sample(sorted(years), len(years) // 2)
        corpus = build_corpus(
            {**years, "ALL": 2000}, codes={**codes, "ALL": everything},
            cites=edges + [(p, "ALL") for p in citers],
        )
        index, p = corpus.class_index(level), corpus.position["ALL"]
        assert index.indptr[p + 1] - index.indptr[p] == len(index.names) > 0
        self.assert_holds_reference_incidence(corpus, level)
        assert met._build_outside(corpus, level).breadth[p] == 0

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("level", LEVELS)
    def test_last_bit_of_a_partial_byte(self, level, seed):
        """The table's last (patent, class) bit, set, in a table of
        `len(corpus) * n_classes` bits that ends inside a byte."""
        rng = random.Random(7200 + seed)
        for _ in range(100):
            _, years, codes, edges, _ = random_corpus(rng)
            # the last patent holds Y10S, the last class at every level
            # (the random codes are of sections A to H); C cites it from
            # inside and outside that class
            corpus = build_corpus(
                {**years, "C": 2009, "Z": 2000},
                codes={**codes, "C": ["A01B", "Y10S"], "Z": ["Y10S"]},
                cites=edges + [("C", "Z")],
            )
            if len(corpus) * len(corpus.class_index(level).names) % 8:
                break
        index = corpus.class_index(level)
        n_classes = len(index.names)
        assert len(corpus) * n_classes % 8 and index.ids[-1] == n_classes - 1
        assert corpus.position["Z"] == len(corpus) - 1
        self.assert_holds_reference_incidence(corpus, level)
        out = met._build_outside(corpus, level)
        assert out.breadth[-1] == 1  # A, and not Y

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("level", LEVELS)
    def test_corpus_without_citations(self, level, seed):
        _, years, codes, _, _ = random_corpus(random.Random(7300 + seed))
        corpus = build_corpus(years, codes=codes)
        self.assert_holds_reference_incidence(corpus, level)
        out = met._build_outside(corpus, level)
        assert len(out.cited) == len(out.cells) == 0 and not out.breadth.any()

    def test_memory_bounded_by_the_incidence(self):
        """Building the level-4 incidence of the citation-heavy corpus
        peaks at least 4 bytes per candidate row (one for each class of
        each citing patent) below the earlier build, which held an int64
        search result per row, and one group's tally holds about 16 bytes
        or less per outside-class row, not a sort of them."""
        corpus = citation_heavy_corpus()
        index = corpus.class_index(4)
        candidates = int(np.diff(index.indptr)[corpus.citing].sum())
        _, want = traced_peak(lambda: ref.outside_incidence(corpus, 4))
        _, peak = traced_peak(lambda: met._build_outside(corpus, 4))
        assert peak <= want - 4 * candidates
        rows = len(met._outside(corpus, 4).cell)
        mask = corpus.mask(corpus.ids)
        _, peak = traced_peak(lambda: met.generality_series(corpus, mask, 4, "All"))
        assert peak <= 16 * rows


# ---------------------------------------------------------------------------
# annual means

def yearly_means_loop(years, values):
    """Each year's mean as `int / int`, years ascending, and their mean."""
    by_year = {}
    for y, v in zip(years, values):
        by_year.setdefault(y, []).append(v)
    pts = tuple((y, sum(vs) / len(vs)) for y, vs in sorted(by_year.items()))
    return met.GroupSeries("g", pts), (mean(v for _, v in pts) if pts else None)


@pytest.mark.parametrize("seed", range(12))
def test_yearly_means_equal_int_division_loop(seed):
    rng = random.Random(9300 + seed)
    n = [0, 1, rng.randrange(2, 500)][seed % 3]
    gapped = rng.sample(range(1990, 2040), rng.randrange(1, 9))
    years = [rng.choice(gapped) for _ in range(n)]
    values = [rng.randrange(10**6 + 1) for _ in range(n)]
    cases = [(years, values), ([2000] * 3000 + [2007], [10**6] * 3000 + [1])]  # a sum past 2**31
    for years, values in cases:
        for dtype in (np.int32, np.int64):
            got = met._yearly_means(np.array(years, np.int32), np.array(values, dtype), "g")
            assert got == yearly_means_loop(years, values)


# ---------------------------------------------------------------------------
# citing-class breadth

class TestAvgCitingClasses:
    def test_hand_example(self):
        corpus = build_corpus(
            {"X": 2000, "Y": 2000, "C1": 2005, "C2": 2006},
            codes={"X": ["A01B"], "Y": ["A01B"], "C1": ["B11Z", "C11Z"], "C2": ["B11Z"]},
            cites=[("C1", "X"), ("C2", "X")],
        )
        (series, overall), (series_c, overall_c) = met.avg_citing_classes(
            corpus, corpus.mask({"X", "Y"}), 1, "g"
        )
        # X is cited from sections B and C -> 2; Y uncited -> 0
        assert series.points == ((2000, 1.0),)
        assert overall == 1.0
        assert series_c.points == ((2000, 2.0),)
        assert overall_c == 2.0

    def test_cited_only_never_below_all(self):
        rng = random.Random(7)
        for _ in range(10):
            corpus, years, codes, edges, ai = random_corpus(rng)
            (_, all_mean), (_, cited_mean) = met.avg_citing_classes(
                corpus, corpus.mask(ai), 3, "g"
            )
            if cited_mean is not None and all_mean is not None:
                assert cited_mean >= all_mean - 1e-12

    @pytest.mark.parametrize("seed", range(15))
    def test_matches_bruteforce(self, seed):
        rng = random.Random(3000 + seed)
        corpus, years, codes, edges, ai = random_corpus(rng)
        for level in (1, 3, 4):
            both = met.avg_citing_classes(corpus, corpus.mask(ai), level, "g")
            for cited_only, (series, overall) in zip((False, True), both):
                want_pts, want_overall = oracle_avg_citing(
                    years, codes, edges, ai, level, cited_only
                )
                assert series.years() == [y for y, _ in want_pts]
                for (y, v), (_, w) in zip(series.points, want_pts):
                    assert v == pytest.approx(w, abs=1e-12)
                if want_overall is None:
                    assert overall is None
                else:
                    assert overall == pytest.approx(want_overall, abs=1e-12)


# ---------------------------------------------------------------------------
# the array kernels against the reference loops

def lags_by_patent(corpus, mask, mode="all_citations"):
    """The lags `met._lags` finds, keyed by cited id in citation order, as
    `ref.citation_lags` returns them."""
    cited, lags = met._lags(corpus, mask, mode)
    out = {}
    for p, lag in zip(cited.tolist(), lags.tolist()):
        out.setdefault(corpus.ids[p], []).append(lag)
    return out


KERNELS = {
    "generality_series": lambda c, m: met.generality_series(c, m, 1, "g"),
    "avg_citing_classes": lambda c, m: met.avg_citing_classes(c, m, 1, "g"),
    "diversity_share": lambda c, m: met.diversity_share(c, m, 3, "g"),
    "diversity_per_patent": lambda c, m: met.diversity_per_patent(c, m, 1, "g"),
    "citation_lag_series": lambda c, m: met.citation_lag_series(c, m, "g", [(2000, 2004)]),
    "descendants": lambda c, m: met.descendants(c, m),
}


@pytest.mark.parametrize("kernel", sorted(KERNELS))
def test_unknown_member_rejected(kernel):
    """A group reaches a kernel only as `Corpus.mask(ids)`, which rejects an
    id not in the corpus; the known members alone go through."""
    corpus = build_corpus({"X": 2000, "Y": 2001}, codes={"X": ["G06N"]}, cites=[("Y", "X")])
    with pytest.raises(DataError):
        KERNELS[kernel](corpus, corpus.mask({"X", "nope"}))
    KERNELS[kernel](corpus, corpus.mask({"X"}))


@pytest.mark.parametrize("seed", range(12))
def test_kernels_equal_reference_loops(seed):
    """Every point and overall value equals the reference loops exactly."""
    rng = random.Random(5000 + seed)
    _, years, codes, edges, ai = random_corpus(rng)
    # a group member with codes that nothing cites, and a cited one without codes
    latest = max(years, key=years.get)
    years = {**years, "UNCITED": 2005, "CODELESS": 2000}
    codes = {**codes, "UNCITED": ["G06N"]}
    corpus = build_corpus(years, codes=codes, cites=[*edges, (latest, "CODELESS")])
    ai = ai | {"UNCITED", "CODELESS"}
    periods = [(2000, 2004), (2005, 2009), (2003, 2003)]
    for members in (ai, set(), set(years)):
        mask = corpus.mask(members)
        for level in (1, 3, 4):
            for name in ("generality_series", "avg_citing_classes", "diversity_per_patent"):
                got = getattr(met, name)(corpus, mask, level, "g")
                assert got == getattr(ref, name)(corpus, members, level, "g"), (name, level)
            got = met.diversity_share(corpus, mask, level, "g", universe=10_000)
            assert got == ref.diversity_share(corpus, members, level, "g", universe=10_000)
        for mode in ("all_citations", "first_citation"):
            got = lags_by_patent(corpus, mask, mode)
            want = ref.citation_lags(corpus, members, mode)
            assert got == want and list(got) == list(want)
            got = met.citation_lag_series(corpus, mask, "g", periods, mode)
            assert got == ref.citation_lag_series(corpus, members, "g", periods, mode)
        assert ids_of(corpus, met.descendants(corpus, mask)) == ref.descendants(corpus, members)


HASH_SEED_SCRIPT = """
from patmetrics import corpus, metrics

patents = [(pid, year, "", "", "", "")
           for pid, year in (("X", 2000), ("C0", 2001), ("C1", 2001), ("C2", 2001))]
cpc = [("X", "A01B"), ("C0", "B01B"), ("C0", "C01B"), ("C0", "D01B"), ("C1", "D01B"), ("C2", "D01B")]
citations = [(citing, "X", 2001) for citing in ("C0", "C1", "C2")]
tables = {"patents": patents, "cpc": cpc, "citations": citations}
corpus, _ = corpus.ingest({name: (name, rows) for name, rows in tables.items()}, window=(2000, 2001))
series, overall = metrics.generality_series(corpus, corpus.mask({"X"}), 1, "g")
print(repr(series.points), repr(overall))
"""


def test_generality_independent_of_hash_seed():
    """C0 holds three level-1 classes and the later citations bring their
    counts to 1, 1 and 3, so the float sum of squared shares depends on the
    order the classes are visited in; it must not depend on the hash seed."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(met.__file__)))
    outputs = set()
    for hash_seed in range(8):
        env = dict(os.environ, PYTHONHASHSEED=str(hash_seed), PYTHONPATH=src)
        done = subprocess.run(
            [sys.executable, "-c", HASH_SEED_SCRIPT],
            env=env, capture_output=True, text=True, check=True,
        )
        outputs.add(done.stdout)
    assert outputs == {"((2000, 0.56),) 0.56\n"}


# ---------------------------------------------------------------------------
# counts, share, growth

class TestCountsShareGrowth:
    def test_counts_zero_filled(self):
        corpus = build_corpus({"A": 2000, "B": 2000, "C": 2002})
        s, size = met.count_series(corpus, corpus.mask({"A", "B", "C"}), "g")
        assert s.points == ((2000, 2.0), (2001, 0.0), (2002, 1.0))
        assert size == 3.0

    def test_share(self):
        years = {**{f"a{i}": 2000 for i in range(4)}, **{f"c{i}": 2002 for i in range(6)}}
        corpus = build_corpus(years)
        s = met.share_series(corpus, corpus.mask({"a0", "c0", "c1", "c2"}), "g")
        assert s.points == ((2000, 0.25), (2002, 0.5))  # 2001 has no grants: omitted
        assert s.group == "g"

    def test_growth_doubling_exact(self):
        pts = tuple((2000 + t, float(100 * 2**t)) for t in range(10))
        g = met.growth_series(met.GroupSeries("g", pts))
        assert g.years() == list(range(2001, 2010))
        for _, v in g.points:
            assert v == pytest.approx(1.0, abs=1e-12)

    def test_growth_skips_zero_base(self):
        counts = met.GroupSeries("g", ((2000, 0.0), (2001, 5.0), (2002, 10.0)))
        g = met.growth_series(counts)
        assert g.points == ((2002, 1.0),)

    def test_growth_to_zero_is_minus_one(self):
        counts = met.GroupSeries("g", ((2000, 4.0), (2001, 0.0)))
        g = met.growth_series(counts)
        assert g.points == ((2001, -1.0),)


# ---------------------------------------------------------------------------
# overlap

class TestJaccard:
    def corpus(self, n=4):
        return build_corpus({f"P{i}": 2000 + i % 3 for i in range(n)})

    def overall(self, corpus, a, b):
        return met.jaccard_series(corpus, "x|y", corpus.mask(a), corpus.mask(b))[1]

    def test_both_empty_is_zero(self):
        corpus = self.corpus()
        s, overall = met.jaccard_series(corpus, "x|y", corpus.mask(()), corpus.mask(()))
        assert overall == 0.0 and s.values() == [0.0, 0.0, 0.0]

    def test_identical(self):
        assert self.overall(self.corpus(), {"P0", "P1"}, {"P0", "P1"}) == 1.0

    def test_random_pairs_match_bruteforce(self):
        rng = random.Random(42)
        corpus = self.corpus(100)
        universe = list(corpus.ids)
        for _ in range(300):
            a = {p for p in universe if rng.random() < rng.random()}
            b = {p for p in universe if rng.random() < rng.random()}
            inter = len([p for p in universe if p in a and p in b])
            union = len([p for p in universe if p in a or p in b])
            want = inter / union if union else 0.0
            assert self.overall(corpus, a, b) == want

    def test_annual_series(self):
        corpus = build_corpus({"A": 2000, "B": 2000, "C": 2001})
        s, overall = met.jaccard_series(corpus, "x|y", corpus.mask({"A", "C"}), corpus.mask({"B", "C"}))
        assert s.group == "x|y"
        assert s.points == ((2000, 0.0), (2001, 1.0))
        assert overall == 1 / 3

    def test_allway(self):
        corpus = self.corpus()
        masks = [corpus.mask(g) for g in ({"P0", "P1", "P2"}, {"P1", "P2"}, {"P2", "P3"})]
        count, share = met.allway_overlap(masks)
        assert count == 1
        assert share == 0.25
        assert met.allway_overlap([corpus.mask(()), corpus.mask(())]) == (0, 0.0)


@pytest.mark.parametrize("seed", range(8))
def test_group_size_metrics_equal_set_oracles(seed):
    """Shares, whole-window Jaccard overlaps and all-way overlaps over masks
    equal the set forms exactly, for random groups, the empty group, the
    whole corpus and a group paired with itself."""
    rng = random.Random(6000 + seed)
    corpus = random_corpus(rng)[0]
    ids = list(corpus.ids)
    groups = [set(rng.sample(ids, rng.randrange(len(ids) + 1))) for _ in range(4)]
    groups += [set(), set(ids), groups[0]]
    for g in groups:
        assert met.share_series(corpus, corpus.mask(g), "g") == ref.share_series(corpus, g, "g")
        for h in groups:
            _, overall = met.jaccard_series(corpus, "g|h", corpus.mask(g), corpus.mask(h))
            assert overall == ref.jaccard(g, h)
    for k in range(2, len(groups) + 1):
        chosen = rng.sample(groups, k)
        got = met.allway_overlap([corpus.mask(g) for g in chosen])
        assert got == ref.allway_overlap(chosen)


# ---------------------------------------------------------------------------
# diversity

class TestDiversity:
    def corpus(self):
        return build_corpus(
            {"A": 2000, "B": 2000, "C": 2001},
            codes={"A": ["G06N", "H04L"], "B": ["G06F"], "C": ["G06N"]},
        )

    def test_share_per_year_and_overall(self):
        corpus = self.corpus()
        series, overall = met.diversity_share(
            corpus, corpus.mask({"A", "B", "C"}), 4, "g", universe=10
        )
        assert series.points == ((2000, 0.3), (2001, 0.1))
        assert overall == pytest.approx(0.3)

    def test_default_universes(self):
        corpus = self.corpus()
        series, overall = met.diversity_share(corpus, corpus.mask({"A"}), 3, "g")
        assert overall == pytest.approx(2 / 136)
        series4, overall4 = met.diversity_share(corpus, corpus.mask({"A"}), 4, "g")
        assert overall4 == pytest.approx(2 / 674)

    def test_universe_overflow_is_error(self):
        corpus = self.corpus()
        with pytest.raises(DataError):
            met.diversity_share(corpus, corpus.mask({"A", "B"}), 4, "g", universe=2)

    def test_per_patent(self):
        corpus = self.corpus()
        series, overall = met.diversity_per_patent(corpus, corpus.mask({"A", "B", "C"}), 4, "g")
        assert series.points == ((2000, 1.5), (2001, 1.0))
        assert overall == pytest.approx(1.25)

    def test_per_patent_counts_codeless_as_zero(self):
        corpus = build_corpus({"A": 2000, "B": 2000}, codes={"A": ["G06N"]})
        series, overall = met.diversity_per_patent(corpus, corpus.mask({"A", "B"}), 4, "g")
        assert series.points == ((2000, 0.5),)


# ---------------------------------------------------------------------------
# citation lags

class TestCitationLags:
    def corpus(self):
        return build_corpus(
            {"X": 2000, "Y": 2005, "C1": 2003, "C2": 2010, "C3": 2005},
            cites=[("C1", "X"), ("C2", "X"), ("C3", "Y"), ("C2", "Y")],
        )

    def group(self, *ids):
        """The corpus and the mask of `ids` in it."""
        corpus = self.corpus()
        return corpus, corpus.mask(ids)

    def test_all_citations(self):
        lags = lags_by_patent(*self.group("X", "Y"))
        assert sorted(lags["X"]) == [3, 10]
        assert sorted(lags["Y"]) == [0, 5]  # same-year citation has lag 0

    def test_first_citation(self):
        lags = lags_by_patent(*self.group("X", "Y"), mode="first_citation")
        assert lags == {"X": [3], "Y": [0]}

    def test_series_and_pooled_mean(self):
        series, overall, means = met.citation_lag_series(*self.group("X", "Y"), "g", [])
        assert series.points == ((2000, 6.5), (2005, 2.5))
        assert overall == pytest.approx(4.5)
        assert means == []

    def test_period_means(self):
        _, _, means = met.citation_lag_series(
            *self.group("X", "Y"), "g", [(2000, 2004), (2005, 2009), (2010, 2019)]
        )
        assert means[0] == ((2000, 2004), pytest.approx(6.5))
        assert means[1] == ((2005, 2009), pytest.approx(2.5))
        assert means[2] == ((2010, 2019), None)

    def test_bad_mode(self):
        with pytest.raises(ValueError):
            met._lags(*self.group("X"), mode="oldest")
        with pytest.raises(ValueError):
            met.citation_lag_series(*self.group("X"), "g", [], mode="oldest")

    def test_lags_never_negative(self):
        rng = random.Random(11)
        for _ in range(10):
            corpus, years, codes, edges, ai = random_corpus(rng)
            _, lags = met._lags(corpus, corpus.mask(ai), "all_citations")
            assert (lags >= 0).all()


# ---------------------------------------------------------------------------
# descendants

class TestDescendants:
    def test_hand_example(self):
        corpus = build_corpus(
            {"A": 2000, "B": 2005, "C": 2006, "D": 2007},
            cites=[("B", "A"), ("C", "A"), ("D", "C")],
        )
        assert ids_of(corpus, met.descendants(corpus, corpus.mask({"A"}))) == {"B", "C"}
        assert ids_of(corpus, met.descendants(corpus, corpus.mask({"A", "C"}))) == {"B", "D"}

    @pytest.mark.parametrize("seed", range(15))
    def test_matches_bruteforce(self, seed):
        rng = random.Random(4000 + seed)
        corpus, years, codes, edges, ai = random_corpus(rng)
        got = met.descendants(corpus, corpus.mask(ai))
        assert got.dtype == bool and len(got) == len(corpus)
        assert ids_of(corpus, got) == oracle_descendants(edges, ai)


# ---------------------------------------------------------------------------
# z-scores

class TestZscore:
    def test_two_groups_give_plus_minus_one(self):
        a = met.GroupSeries("a", ((2000, 1.0), (2001, 3.0)))
        b = met.GroupSeries("b", ((2000, 2.0), (2001, 1.0)))
        za, zb = met.zscore_across_groups([a, b])
        assert za.points == ((2000, -1.0), (2001, 1.0))
        assert zb.points == ((2000, 1.0), (2001, -1.0))

    def test_four_groups_frozen_values(self):
        series = [
            met.GroupSeries(f"g{v}", ((2000, float(v)),)) for v in (1, 2, 3, 4)
        ]
        out = met.zscore_across_groups(series)
        want = (-1.3416, -0.4472, 0.4472, 1.3416)
        for s, w in zip(out, want):
            assert s.as_dict()[2000] == pytest.approx(w, abs=1e-4)

    def test_mean_zero_stdev_one_each_year(self):
        rng = random.Random(9)
        series = [
            met.GroupSeries(
                f"g{i}", tuple((y, rng.uniform(-5, 5)) for y in range(2000, 2010))
            )
            for i in range(4)
        ]
        out = list(met.zscore_across_groups(series))
        for y in range(2000, 2010):
            vals = [s.as_dict()[y] for s in out]
            assert mean(vals) == pytest.approx(0.0, abs=1e-9)
            assert pstdev(vals) == pytest.approx(1.0, abs=1e-9)

    def test_zero_variance_year_dropped(self):
        a = met.GroupSeries("a", ((2000, 2.0), (2001, 1.0)))
        b = met.GroupSeries("b", ((2000, 2.0), (2001, 3.0)))
        za, zb = met.zscore_across_groups([a, b])
        assert za.years() == [2001]

    def test_only_common_years_used(self):
        a = met.GroupSeries("a", ((2000, 1.0), (2001, 2.0)))
        b = met.GroupSeries("b", ((2001, 5.0),))
        za, zb = met.zscore_across_groups([a, b])
        assert za.years() == [2001]

    def test_needs_two_groups(self):
        a = met.GroupSeries("a", ((2000, 1.0),))
        with pytest.raises(ValueError):
            met.zscore_across_groups([a])
