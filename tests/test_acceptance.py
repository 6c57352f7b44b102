"""End-to-end acceptance checks, one test per criterion.

The conftest hook prints a `criterion NN <name>: PASS` (or FAIL) summary
line for every test in this module.  Expected values come from independent
oracles computed here: closed-form identities, exhaustive enumeration,
exact rational arithmetic, or plain brute-force scans over the raw data
structures.
"""

import hashlib
import math
import os
import random
import time
from fractions import Fraction
from itertools import product
from statistics import mean, pstdev

from patmetrics import classify as cls
from patmetrics import cli, pipeline
from patmetrics import metrics as met
from patmetrics import stats as st
from patmetrics import synth

from helpers import build_corpus, ids_of, synth_corpus


# ---------------------------------------------------------------------------
# shared random-corpus builder (caps: 2000 patents, 10000 citation edges)

def random_corpus(rng, n_lo=150, n_hi=1200, e_hi=6000):
    n = rng.randrange(n_lo, n_hi + 1)
    years = {f"P{i}": rng.randrange(2000, 2012) for i in range(n)}
    ids = sorted(years)
    sections = "ABCDEFGH"
    codes = {}
    for p in ids:
        k = rng.randrange(0, 4)
        if k:
            codes[p] = sorted(
                {
                    f"{rng.choice(sections)}{rng.randrange(1, 99):02d}"
                    f"{rng.choice('ABCDEFGHJKLMNPQRSTUVWXYZ')}"
                    for _ in range(k)
                }
            )
    edges = set()
    for _ in range(rng.randrange(0, e_hi + 1)):
        a, b = rng.choice(ids), rng.choice(ids)
        if a != b and years[a] >= years[b]:
            edges.add((a, b))
    edges = sorted(edges)
    ai = set(rng.sample(ids, rng.randrange(1, max(2, n // 3))))
    corpus = build_corpus(years, codes=codes, cites=edges)
    return corpus, years, codes, edges, ai


def test_01_analytic_generality():
    """Balanced citing classes give exactly 1 - 1/k."""
    started = time.perf_counter()
    for level, ks in ((1, range(1, 9)), (3, range(1, 51)), (4, range(1, 51))):
        for k in ks:
            years = {"X": 2000}
            codes = {"X": ["A01B"]}
            cites = []
            for i in range(k):
                pid = f"C{i}"
                years[pid] = 2005
                if level == 1:
                    code = f"{'BCDEFGHY'[i]}11Z"
                else:
                    code = f"B{i % 90 + 1:02d}{chr(ord('A') + i // 90)}"
                codes[pid] = [code]
                cites.append((pid, "X"))
            corpus = build_corpus(years, codes=codes, cites=cites)
            _, got = met.generality_series(corpus, corpus.mask({"X"}), level, "g")
            assert abs(got - (1.0 - 1.0 / k)) <= 1e-12, (level, k, got)
    assert time.perf_counter() - started < 1.0


def test_02_oracle_equivalence_on_random_corpora():
    """Generality and citing-class breadth match a brute-force edge scan on
    50 random corpora."""

    def oracle(years, codes, edges, ai, level):
        def classes(p):
            return {c[:level] for c in codes.get(p, [])}

        by_cited = {}
        for citing, cited in edges:
            by_cited.setdefault(cited, []).append(citing)
        tally = {}
        outside_per_patent = {}
        for p in ai:
            outside = set()
            for citing in by_cited.get(p, ()):
                contrib = classes(citing) - classes(p)
                outside |= contrib
                for j in contrib:
                    tally[j] = tally.get(j, 0) + 1
            outside_per_patent[p] = (len(outside), bool(by_cited.get(p)))
        total = sum(tally.values())
        gen = (
            None if total == 0 else 1.0 - sum((v / total) ** 2 for v in tally.values())
        )
        return gen, outside_per_patent

    started = time.perf_counter()
    rng = random.Random(20240817)
    for trial in range(50):
        corpus, years, codes, edges, ai = random_corpus(rng)
        level = (1, 3, 4)[trial % 3]
        want_gen, per_patent = oracle(years, codes, edges, ai, level)
        mask = corpus.mask(ai)
        _, got_gen = met.generality_series(corpus, mask, level, "g")
        if want_gen is None:
            assert got_gen is None
        else:
            assert abs(got_gen - want_gen) <= 1e-12

        both = met.avg_citing_classes(corpus, mask, level, "g")
        for cited_only, (series, overall) in zip((False, True), both):
            per_year = {}
            for p in ai:
                n_classes, was_cited = per_patent[p]
                if cited_only and not was_cited:
                    continue
                per_year.setdefault(years[p], []).append(n_classes)
            want_pts = [(y, mean(v)) for y, v in sorted(per_year.items())]
            want_overall = mean(v for _, v in want_pts) if want_pts else None
            assert list(series.years()) == [y for y, _ in want_pts]
            for (y, v), (_, w) in zip(series.points, want_pts):
                assert abs(v - w) <= 1e-12
            if want_overall is None:
                assert overall is None
            else:
                assert abs(overall - want_overall) <= 1e-12
    assert time.perf_counter() - started < 30.0


def test_03_jaccard_on_1000_pairs():
    universe = [f"P{i}" for i in range(150)]
    corpus = build_corpus({p: 2000 + i % 7 for i, p in enumerate(universe)})

    def jaccard(a, b):
        return met.jaccard_series(corpus, "a|b", corpus.mask(a), corpus.mask(b))[1]

    # boundary cases: identical sets, disjoint sets, both empty
    assert jaccard({"P0", "P1", "P2"}, {"P0", "P1", "P2"}) == 1.0
    assert jaccard({"P0", "P1"}, {"P2", "P3"}) == 0.0
    assert jaccard(set(), set()) == 0.0

    rng = random.Random(3)
    for _ in range(1000):
        da, db = rng.random(), rng.random()
        a = {p for p in universe if rng.random() < da}
        b = {p for p in universe if rng.random() < db}
        inter = sum(1 for p in universe if p in a and p in b)
        union = sum(1 for p in universe if p in a or p in b)
        want = inter / union if union else 0.0
        assert jaccard(a, b) == want


def test_04_growth_exact_and_planted():
    # geometric counts 50 * 1.07^t: growth 0.07 everywhere
    pts = tuple((1990 + t, 50.0 * 1.07**t) for t in range(20))
    series = met.growth_series(met.GroupSeries("g", pts))
    for _, v in series.points:
        assert abs(v - 0.07) <= 1e-12

    # doubling counts: growth exactly 1 everywhere
    pts = tuple((1990 + t, float(3 * 2**t)) for t in range(12))
    series = met.growth_series(met.GroupSeries("g", pts))
    for _, v in series.points:
        assert abs(v - 1.0) <= 1e-12
    # tripling
    pts = tuple((1990 + t, float(2 * 3**t)) for t in range(8))
    series = met.growth_series(met.GroupSeries("g", pts))
    for _, v in series.points:
        assert abs(v - 2.0) <= 1e-12

    # planted synthetic growth is recovered from the generated counts
    cfg = synth.SynthConfig(
        rng_seed=41, years=(2000, 2011), base_count=700, growth=(0.06,)
    )
    corpus, _ = synth_corpus(cfg)
    counts, _ = met.count_series(corpus, corpus.mask(corpus.ids), "All")
    recovered = met.growth_series(counts)
    for _, v in recovered.points:
        assert abs(v - 0.06) <= 0.01

    # a mixed-sign schedule is recovered sign-exactly and within 0.01
    schedule = (0.15, 0.15, 0.15, -0.10, -0.10, -0.10, 0.12, 0.12, 0.12)
    cfg = synth.SynthConfig(
        rng_seed=42, years=(2000, 2009), base_count=700, growth=schedule
    )
    corpus, _ = synth_corpus(cfg)
    recovered = met.growth_series(met.count_series(corpus, corpus.mask(corpus.ids), "All")[0])
    assert len(recovered.points) == len(schedule)
    for (_, v), want in zip(recovered.points, schedule):
        assert math.copysign(1.0, v) == math.copysign(1.0, want)
        assert abs(v - want) <= 0.01


def test_05_wilcoxon_vs_enumeration():
    """Exact p-values agree with full sign enumeration on 200 samples."""

    def enumerated(diffs):
        n = len(diffs)
        order = sorted(range(n), key=lambda i: abs(diffs[i]))
        ranks = [0] * n
        for pos, i in enumerate(order):
            ranks[i] = pos + 1
        w = sum(r for r, d in zip(ranks, diffs) if d > 0)
        lower = upper = 0
        for signs in product((0, 1), repeat=n):
            s = sum(r for r, bit in zip(range(1, n + 1), signs) if bit)
            if s <= w:
                lower += 1
            if s >= w:
                upper += 1
        return w, min(1.0, 2 * min(lower, upper) / (1 << n))

    rng = random.Random(55)
    for _ in range(200):
        n = rng.randrange(1, 13)
        mags = rng.sample(range(1, 4000), n)
        diffs = [float(m * rng.choice((-1, 1))) for m in mags]
        res = st.wilcoxon_signed_rank(diffs, [0.0] * n)
        w, p = enumerated(diffs)
        assert res.method == "exact"
        assert res.statistic == w
        assert abs(res.p_value - p) <= 1e-12

    # ten uniformly positive differences: p = 2/1024, and the smallest of
    # 45 Holm-adjusted comparisons becomes 45 * 2/1024
    res = st.wilcoxon_signed_rank([float(i) for i in range(1, 11)], [0.0] * 10)
    assert res.method == "exact"
    assert res.p_value == 2.0 / 1024.0
    adjusted = st.holm_adjust([res.p_value] + [0.5] * 44)
    assert abs(adjusted[0] - 0.087890625) <= 1e-12


def test_06_lowess_exactness_and_robustness():
    # collinear input is reproduced exactly
    xs = [float(i) for i in range(24)]
    ys = [0.75 * x - 2.0 for x in xs]
    for f, y in zip(st.lowess(xs, ys, 1.0, robust_iters=0), ys):
        assert abs(f - y) <= 1e-9
    for f, y in zip(st.lowess(xs, ys), ys):
        assert abs(f - y) <= 1e-9

    # single tricube pass matches exact rational arithmetic
    def rational(xs_i, ys_i, fraction):
        n = len(xs_i)
        r = min(n, max(2, math.ceil(fraction * n)))
        out = []
        for i in range(n):
            h = Fraction(sorted(abs(x - xs_i[i]) for x in xs_i)[r - 1])
            ws = []
            for x in xs_i:
                d = Fraction(abs(x - xs_i[i]))
                if h == 0:
                    ws.append(Fraction(int(d == 0)))
                    continue
                u = min(d / h, Fraction(1))
                ws.append((1 - u**3) ** 3)
            sw = sum(ws)
            xw = sum(w * x for w, x in zip(ws, xs_i)) / sw
            yw = sum(w * y for w, y in zip(ws, ys_i)) / sw
            sxx = sum(w * (x - xw) ** 2 for w, x in zip(ws, xs_i))
            if sxx == 0:
                out.append(float(yw))
            else:
                beta = sum(w * (x - xw) * y for w, x, y in zip(ws, xs_i, ys_i)) / sxx
                out.append(float(yw + beta * (Fraction(xs_i[i]) - xw)))
        return out

    cases = [
        ([0, 1, 2], [4, 1, 3], 1.0),
        ([0, 1, 2, 3], [0, 1, 8, 27], 1.0),
        ([0, 1, 2, 3, 4, 5, 6], [2, 9, 4, 8, 1, 7, 5], 0.6),
    ]
    for xs_i, ys_i, fraction in cases:
        got = st.lowess(
            [float(x) for x in xs_i], [float(y) for y in ys_i], fraction, robust_iters=0
        )
        for g, w in zip(got, rational(xs_i, ys_i, fraction)):
            assert abs(g - w) <= 1e-9

    # a gross outlier moves the robust fit by less than 5% of the range
    xs = [float(i) for i in range(20)]
    ys = [1.0 + 0.5 * x for x in xs]
    truth = ys[10]
    ys[10] += 50.0
    fitted = st.lowess(xs, ys, robust_iters=3)
    assert abs(fitted[10] - truth) < 0.05 * (max(ys) - min(ys))


def test_07_planted_groups_recovered():
    """Each classifier recovers its planted group from the bundled fixture."""
    fixdir = os.path.join(
        os.path.dirname(os.path.abspath(__file__)), "..", "fixtures"
    )
    cfg = synth.load_synth_config(os.path.join(fixdir, "desk.synth"))
    corpus, truth = synth_corpus(cfg)

    # precision = recall = 1.0 for the three rule-based approaches
    assert cls.classify_keyword(corpus, cls.default_keywords()) == truth["Keyword"]
    field = "Computer Science; Artificial Intelligence"
    assert cls.classify_science(corpus, field, 3) == truth["Science"]
    assert cls.classify_wipo(corpus, cls.default_wipo_rules()) == truth["WIPO"]
    assert cls.classify_prefix_group(corpus, "Y02") == truth["USPTO"]

    ucfg = pipeline.load_uspto_config(os.path.join(fixdir, "desk.uspto"))
    predicted = cls.classify_uspto(corpus, cls.train_uspto(corpus, ucfg))
    assert predicted
    tp = len(predicted & truth["USPTO"])
    precision = tp / len(predicted)
    recall = tp / len(truth["USPTO"])
    f1 = 2 * precision * recall / (precision + recall)
    assert f1 >= 0.95, (precision, recall, f1)


def test_08_descendants_on_random_corpora():
    rng = random.Random(808)
    for _ in range(50):
        corpus, years, codes, edges, ai = random_corpus(rng, n_lo=50, n_hi=500, e_hi=2500)
        want = {citing for citing, cited in edges if cited in ai} - ai
        got = ids_of(corpus, met.descendants(corpus, corpus.mask(ai)))
        assert not got & ai
        assert got == want


def test_09_zscores_standardised_per_year():
    rng = random.Random(99)
    for _ in range(30):
        n_groups = rng.randrange(2, 7)
        series = [
            met.GroupSeries(
                f"g{i}",
                tuple((2000 + y, rng.uniform(-10, 10)) for y in range(10)),
            )
            for i in range(n_groups)
        ]
        out = list(met.zscore_across_groups(series))
        for y in range(2000, 2010):
            vals = [s.as_dict()[y] for s in out if y in s.as_dict()]
            if not vals:
                continue  # a zero-variance year was dropped
            assert len(vals) == n_groups
            assert abs(mean(vals)) <= 1e-9
            assert abs(pstdev(vals) - 1.0) <= 1e-9


DESK_TABLES = (
    "b25f82263be26d32d434b6694c39074a154546c23b0550af75a28d6d8a0608cd  corpus/citations.tsv",
    "a35dd30aae45563b45b3b58834013a3393a8489275fe76cbeb48f9c35bcc253e  corpus/cpc.tsv",
    "a0e035429526e2e8ab22382526e4bd3b7ecf1449cd85b1dfc2649fd9ef1784be  corpus/patents.tsv",
    "24be4c42e626325de309acde3746edfc51b85b421a715040547dbf57422b122a  corpus/science.tsv",
)
#: sha256 of the desk run's `manifest.txt`: every artifact of the run.
DESK_MANIFEST = "08fc2f088f177bc4ccf182ba537732d52ee7305a37198729a52f47539758a665"


def test_10_pipeline_deterministic_and_stage_equivalent(tmp_path):
    config = os.path.join(
        os.path.dirname(os.path.abspath(__file__)), "..", "fixtures", "desk.run"
    )
    base = tmp_path / "mono"
    started = time.perf_counter()
    assert cli.main(["run", "--config", config, "--out", str(base)]) == 0
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0, f"pipeline took {elapsed:.1f}s"

    again = tmp_path / "again"
    assert cli.main(["run", "--config", config, "--out", str(again)]) == 0
    with open(base / "manifest.txt") as fh:
        manifest = fh.read()
    # the generated tables are a function of CPython's `random` stream: a
    # change to the generator's draws, or to the interpreter's algorithms,
    # shows here
    missing = set(DESK_TABLES) - set(manifest.splitlines())
    assert not missing, missing
    assert hashlib.sha256(manifest.encode()).hexdigest() == DESK_MANIFEST
    # run.log, outside the manifest, sizes the USPTO training features, the
    # token index and each level's outside-class incidence
    with open(base / "run.log") as fh:
        log = fh.read().splitlines()
    assert ("classify: USPTO component ai_core: seed 10003, anti-seed 10003, vocabulary 300, "
            "training features 20006 x 302, 759713 non-zeros (23.18 MB)") in log
    assert "classify: token index 3568238 tokens, 405 distinct (7.57 MB, 2-byte ids)" in log
    assert [line for line in log if " outside-class incidence " in line] == [
        "metrics: level 1 outside-class incidence 207283 rows, 270 (year, class) cells (1.96 MB)",
        "metrics: level 3 outside-class incidence 308133 rows, 720 (year, class) cells (2.74 MB)",
        "metrics: level 4 outside-class incidence 311312 rows, 840 (year, class) cells (2.76 MB)",
    ]
    with open(again / "manifest.txt") as fh:
        assert fh.read() == manifest

    staged = tmp_path / "staged"
    for stage in ("classify", "metrics", "stats", "report"):
        assert (
            cli.main(["run", "--config", config, "--out", str(staged), "--only", stage])
            == 0
        )
    with open(staged / "manifest.txt") as fh:
        assert fh.read() == manifest


def test_11_lag_bounds_and_decade_decline():
    cfg = synth.SynthConfig(
        rng_seed=1962, years=(1990, 2019), base_count=300, growth=(0.05,), lag_mean=12.0
    )
    corpus, _ = synth_corpus(cfg)
    end = cfg.years[1]
    everything = corpus.mask(corpus.ids)
    cited, lags = met._lags(corpus, everything, "all_citations")
    assert len(lags) == len(corpus.citing) > 0
    assert ((0 <= lags) & (lags <= end - corpus.year[cited])).all()
    decades = [(1990, 1999), (2000, 2009), (2010, 2019)]
    _, _, period_means = met.citation_lag_series(corpus, everything, "all", decades)
    means = [v for _, v in period_means]
    assert all(v is not None for v in means)
    assert means[0] > means[1] > means[2], means
