import math
import random
from collections import Counter
from fractions import Fraction
from itertools import product

import pytest

from patmetrics import stats
from patmetrics.errors import DegenerateSampleError, InsufficientDataError
from patmetrics.metrics import GroupSeries

import reference_stats as ref
from helpers import traced_peak


# ---------------------------------------------------------------------------
# oracle: exact signed-rank p by brute-force enumeration of all sign vectors

def oracle_signed_rank(diffs):
    """(W, two-sided p) for tie-free nonzero differences, enumerating 2^n
    sign assignments directly."""
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


class TestWilcoxon:
    def test_three_positive(self):
        res = stats.wilcoxon_signed_rank([1.0, 2.0, 3.0], [0.0, 0.0, 0.0])
        assert res.statistic == 6.0
        assert res.n_effective == 3
        assert res.method == "exact"
        assert res.p_value == 0.25

    def test_ten_monotone(self):
        x = [float(i) for i in range(1, 11)]
        res = stats.wilcoxon_signed_rank(x, [0.0] * 10)
        assert res.statistic == 55.0
        assert res.p_value == 2 / 1024
        assert res.p_value == 0.001953125

    def test_mixed_signs_frozen(self):
        res = stats.wilcoxon_signed_rank([3.0, -1.0, 2.0, 4.0], [0.0] * 4)
        assert res.statistic == 9.0
        assert res.p_value == 0.25
        res = stats.wilcoxon_signed_rank([5.0, -2.0, 3.0, -8.0, 1.0, 9.0], [0.0] * 6)
        assert res.statistic == 14.0
        assert res.p_value == 0.5625

    def test_zero_differences_dropped(self):
        res = stats.wilcoxon_signed_rank([1.0, 5.0, 2.0], [1.0, 4.0, 4.0])
        assert res.n_effective == 2

    def test_all_zero_raises(self):
        with pytest.raises(DegenerateSampleError):
            stats.wilcoxon_signed_rank([1.0, 2.0], [1.0, 2.0])

    def test_empty_raises(self):
        with pytest.raises(InsufficientDataError):
            stats.wilcoxon_signed_rank([], [])

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            stats.wilcoxon_signed_rank([1.0], [1.0, 2.0])

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            stats.wilcoxon_signed_rank([float("nan")], [0.0])

    def test_ties_use_normal_approximation(self):
        res = stats.wilcoxon_signed_rank([1.0, 1.0, -1.0, 2.0, 2.0], [0.0] * 5)
        assert res.method == "normal"
        assert res.statistic == 13.0
        # mu=7.5, tie-corrected var=13.125, continuity 0.5
        assert res.p_value == pytest.approx(0.16754627748861722, abs=1e-15)

    def test_large_sample_uses_normal(self):
        x = [float(i) * 1.001**i for i in range(1, 26)]
        res = stats.wilcoxon_signed_rank(x, [0.0] * 25)
        assert res.method == "normal"
        widened = stats.wilcoxon_signed_rank(x, [0.0] * 25, exact_cutoff=30)
        assert widened.method == "exact"
        # the approximation should land near the exact answer
        assert res.p_value == pytest.approx(widened.p_value, abs=0.01)

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_enumeration_oracle(self, seed):
        rng = random.Random(500 + seed)
        for _ in range(30):
            n = rng.randrange(1, 13)
            mags = rng.sample(range(1, 1000), n)
            diffs = [m * rng.choice((-1, 1)) for m in mags]
            res = stats.wilcoxon_signed_rank([float(d) for d in diffs], [0.0] * n)
            w, p = oracle_signed_rank(diffs)
            assert res.method == "exact"
            assert res.statistic == w
            assert abs(res.p_value - p) <= 1e-12

    def test_null_counts_built_once_per_n(self):
        """The signed-rank null counts of each n are those of enumerating its
        2^n sign assignments, and are built only on the first test of that n."""
        for n in range(1, 13):
            sums = Counter(sum(r for r, bit in zip(range(1, n + 1), signs) if bit)
                           for signs in product((0, 1), repeat=n))
            counts = stats._signed_rank_counts(n)
            assert counts == tuple(sums[s] for s in range(n * (n + 1) // 2 + 1))
            assert stats._signed_rank_counts(n) is counts

    def test_swap_symmetry(self):
        rng = random.Random(7)
        for _ in range(50):
            n = rng.randrange(2, 15)
            x = [rng.uniform(-5.0, 5.0) for _ in range(n)]
            y = [rng.uniform(-5.0, 5.0) for _ in range(n)]
            forward = stats.wilcoxon_signed_rank(x, y)
            backward = stats.wilcoxon_signed_rank(y, x)
            assert backward.p_value == pytest.approx(forward.p_value, abs=1e-12)
            assert backward.n_effective == forward.n_effective

    def test_normal_close_to_exact_for_n15(self):
        rng = random.Random(314)
        for _ in range(100):
            mags = rng.sample(range(1, 10**6), 15)
            diffs = [float(m * rng.choice((-1, 1))) for m in mags]
            exact = stats.wilcoxon_signed_rank(diffs, [0.0] * 15, exact_cutoff=20)
            approx = stats.wilcoxon_signed_rank(diffs, [0.0] * 15, exact_cutoff=0)
            assert exact.method == "exact"
            assert approx.method == "normal"
            assert abs(exact.p_value - approx.p_value) <= 0.02


class TestHolm:
    def test_known_triple(self):
        assert stats.holm_adjust([0.01, 0.04, 0.03]) == pytest.approx(
            [0.03, 0.06, 0.06]
        )

    def test_forty_five_identical(self):
        raw = [2 / 1024] * 45
        adj = stats.holm_adjust(raw)
        assert all(a == pytest.approx(45 * 2 / 1024) for a in adj)
        assert adj[0] == pytest.approx(0.087890625)

    def test_single(self):
        assert stats.holm_adjust([0.2]) == [0.2]

    def test_empty(self):
        assert stats.holm_adjust([]) == []

    def test_cap_at_one(self):
        assert stats.holm_adjust([0.9, 0.8]) == [1.0, 1.0]

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            stats.holm_adjust([0.5, 1.5])
        with pytest.raises(ValueError):
            stats.holm_adjust([-0.1])

    @pytest.mark.parametrize("seed", range(5))
    def test_properties(self, seed):
        rng = random.Random(600 + seed)
        raw = [rng.random() for _ in range(rng.randrange(1, 30))]
        adj = stats.holm_adjust(raw)
        # never below raw, never above 1
        for r, a in zip(raw, adj):
            assert r <= a <= 1.0
        # order-preserving: sorting raw sorts adjusted
        order = sorted(range(len(raw)), key=lambda i: raw[i])
        assert [adj[i] for i in order] == sorted(adj)


class TestPairwise:
    def series(self, name, values, start=2000):
        return GroupSeries(name, tuple((start + i, v) for i, v in enumerate(values)))

    def test_all_pairs_present(self):
        a = self.series("a", [1.0, 2.0, 3.0])
        b = self.series("b", [0.5, 1.0, 1.5])
        c = self.series("c", [5.0, 5.0, 5.0])
        res = stats.pairwise_compare([a, b, c], (2000, 2002))
        assert set(res.tests) == {("a", "b"), ("a", "c"), ("b", "c")}
        assert res.tests[("a", "b")].p_value == 0.25

    def test_identical_pair_untestable(self):
        a = self.series("a", [1.0, 2.0])
        b = self.series("b", [1.0, 2.0])
        c = self.series("c", [9.0, 9.0])
        res = stats.pairwise_compare([a, b, c], (2000, 2001))
        assert res.tests[("a", "b")] is None
        assert res.adjusted[("a", "b")] is None
        # the holm family only contains the two testable pairs
        assert res.adjusted[("a", "c")] == pytest.approx(
            stats.holm_adjust([res.tests[("a", "c")].p_value, res.tests[("b", "c")].p_value])[0]
        )

    def test_without_holm_adjusted_is_raw(self):
        a = self.series("a", [1.0, 2.0])
        b = self.series("b", [1.0, 2.0])
        c = self.series("c", [9.0, 9.0])
        res = stats.pairwise_compare([a, b, c], (2000, 2001), holm=False)
        assert res.adjusted[("a", "b")] is None
        assert res.adjusted[("a", "c")] == res.tests[("a", "c")].p_value
        assert res.adjusted[("b", "c")] == res.tests[("b", "c")].p_value
        held = stats.pairwise_compare([a, b, c], (2000, 2001))
        assert held.adjusted[("a", "c")] > res.adjusted[("a", "c")]

    def test_disjoint_years_untestable(self):
        a = self.series("a", [1.0, 2.0], start=2000)
        b = self.series("b", [1.0, 2.0], start=2010)
        res = stats.pairwise_compare([a, b], (2000, 2019))
        assert res.tests[("a", "b")] is None

    def test_single_common_year_untestable(self):
        a = self.series("a", [1.0, 2.0], start=2000)
        b = self.series("b", [5.0, 6.0], start=2001)
        res = stats.pairwise_compare([a, b], (2000, 2002))
        assert res.tests[("a", "b")] is None
        assert res.adjusted[("a", "b")] is None

    def test_period_restriction(self):
        a = self.series("a", [10.0, 1.0, 2.0, 3.0])
        b = self.series("b", [0.0, 0.0, 0.0, 0.0])
        res = stats.pairwise_compare([a, b], (2001, 2003))
        assert res.tests[("a", "b")].n_effective == 3
        assert res.summaries["a"] == pytest.approx((2.0, 2.0, stats.summary_stats([1.0, 2.0, 3.0])[2]))

    def test_duplicate_names_rejected(self):
        a = self.series("a", [1.0])
        with pytest.raises(ValueError):
            stats.pairwise_compare([a, a], (2000, 2000))

    def test_needs_two(self):
        with pytest.raises(ValueError):
            stats.pairwise_compare([self.series("a", [1.0])], (2000, 2000))


class TestSummaryStats:
    def test_values(self):
        m, med, sd = stats.summary_stats([1.0, 2.0, 3.0, 4.0])
        assert m == 2.5
        assert med == 2.5
        assert sd == pytest.approx(math.sqrt(1.25))

    def test_single_value(self):
        assert stats.summary_stats([7.0]) == (7.0, 7.0, 0.0)

    def test_empty_raises(self):
        with pytest.raises(InsufficientDataError):
            stats.summary_stats([])


# ---------------------------------------------------------------------------
# lowess

def oracle_lowess(xs, ys, fraction):
    """Single tricube-weighted pass in exact rational arithmetic."""
    n = len(xs)
    r = min(n, max(2, math.ceil(fraction * n)))
    fitted = []
    for i in range(n):
        dists = sorted(abs(x - xs[i]) for x in xs)
        h = Fraction(dists[r - 1])
        ws = []
        for x in xs:
            d = Fraction(abs(x - xs[i]))
            if h == 0:
                ws.append(Fraction(1) if d == 0 else Fraction(0))
                continue
            u = min(d / h, Fraction(1))
            ws.append((1 - u**3) ** 3)
        sw = sum(ws)
        xw = sum(w * x for w, x in zip(ws, xs)) / sw
        yw = sum(w * y for w, y in zip(ws, ys)) / sw
        sxx = sum(w * (x - xw) ** 2 for w, x in zip(ws, xs))
        if sxx == 0:
            fitted.append(yw)
        else:
            beta = sum(w * (x - xw) * y for w, x, y in zip(ws, xs, ys)) / sxx
            fitted.append(yw + beta * (Fraction(xs[i]) - xw))
    return [float(v) for v in fitted]


class TestLowess:
    def test_collinear_input_reproduced(self):
        xs = [float(i) for i in range(20)]
        ys = [2.0 * x + 1.0 for x in xs]
        fitted = stats.lowess(xs, ys)
        for f, y in zip(fitted, ys):
            assert f == pytest.approx(y, abs=1e-9)

    def test_collinear_any_fraction(self):
        xs = [float(i) for i in range(10)]
        ys = [-0.5 * x + 4.0 for x in xs]
        for fraction in (0.3, 0.5, 1.0):
            fitted = stats.lowess(xs, ys, fraction=fraction)
            for f, y in zip(fitted, ys):
                assert f == pytest.approx(y, abs=1e-9)

    @pytest.mark.parametrize(
        "xs,ys,fraction",
        [
            ([0, 1, 2, 3], [0, 1, 8, 27], 1.0),
            ([0, 1, 2, 3, 4], [5, 3, 4, 1, 2], 1.0),
            ([0, 1, 2, 3, 4, 5], [1, 4, 2, 8, 5, 7], 0.7),
            ([0, 2, 3, 7, 8], [10, 0, 5, 5, 0], 0.9),
        ],
    )
    def test_single_pass_matches_rational_oracle(self, xs, ys, fraction):
        got = stats.lowess(
            [float(x) for x in xs], [float(y) for y in ys], fraction, robust_iters=0
        )
        want = oracle_lowess(xs, ys, fraction)
        for g, w in zip(got, want):
            assert g == pytest.approx(w, abs=1e-9)

    def test_outlier_damped_by_robust_iterations(self):
        xs = [float(i) for i in range(20)]
        ys = [1.0 + 0.5 * x for x in xs]
        true_at_10 = ys[10]
        ys[10] += 50.0  # gross outlier
        fitted = stats.lowess(xs, ys, robust_iters=3)
        spread = max(ys) - min(ys)
        assert abs(fitted[10] - true_at_10) < 0.05 * spread

    def test_robustness_improves_on_plain_fit(self):
        xs = [float(i) for i in range(20)]
        ys = [1.0 + 0.5 * x for x in xs]
        true_at_10 = ys[10]
        ys[10] += 50.0
        plain = stats.lowess(xs, ys, robust_iters=0)
        robust = stats.lowess(xs, ys, robust_iters=3)
        assert abs(robust[10] - true_at_10) < abs(plain[10] - true_at_10)

    def test_input_order_invariance(self):
        rng = random.Random(11)
        xs = [rng.uniform(0.0, 10.0) for _ in range(30)]
        ys = [math.sin(x) + rng.uniform(-0.1, 0.1) for x in xs]
        base = stats.lowess(xs, ys)
        order = list(range(30))
        rng.shuffle(order)
        permuted = stats.lowess([xs[i] for i in order], [ys[i] for i in order])
        for i, j in enumerate(order):
            assert permuted[i] == pytest.approx(base[j], abs=1e-9)

    def test_too_short(self):
        with pytest.raises(InsufficientDataError):
            stats.lowess([1.0], [1.0])

    def test_degenerate_x(self):
        with pytest.raises(InsufficientDataError):
            stats.lowess([2.0, 2.0, 2.0], [1.0, 2.0, 3.0])

    def test_bad_fraction(self):
        with pytest.raises(ValueError):
            stats.lowess([1.0, 2.0], [1.0, 2.0], fraction=0.0)
        with pytest.raises(ValueError):
            stats.lowess([1.0, 2.0], [1.0, 2.0], fraction=1.5)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            stats.lowess([1.0, 2.0], [1.0, float("inf")])

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            stats.lowess([1.0, 2.0], [1.0])

    def test_zero_total_weight_equals_reference(self):
        # a robust pass leaves some zero-bandwidth windows no weight at all,
        # and those points keep their own y
        xs = [1.0, 2.0, 3.0, 2.0, 3.0, 3.0, 2.0, 3.0, 1.0, 2.0, 0.0]
        ys = [1.0, 200.0, 2.0, 2.0, 200.0, 1.0, 0.0, 200.0, 0.0, 0.0, 0.0]
        assert stats.lowess(xs, ys, 0.2) == ref.lowess(xs, ys, 0.2)

    @pytest.mark.parametrize("seed", range(8))
    def test_equals_reference_on_random_series(self, seed):
        """Bit for bit the per-point loop, on tied, duplicate and spread x,
        constant and outlying y, any fraction and robust passes, and n on
        both sides of the block size."""
        rng = random.Random(9000 + seed)
        block = stats._ROW_BLOCK
        assert 2 < block < 1000  # so that the sizes below stay small
        for _ in range(40):
            n = rng.choice([2, 3, 7, 20, block - 1, block, block + 1, 2 * block + 3])
            shape = rng.randrange(4)
            if shape == 0:  # few distinct x, so ties and zero bandwidths
                xs = [float(rng.randrange(max(2, n // 4))) for _ in range(n)]
            elif shape == 1:
                xs = [rng.uniform(-5.0, 5.0) for _ in range(n)]
            else:  # annual series, as the metrics stage smooths
                xs = [float(1990 + i) for i in range(n)]
            if rng.random() < 0.2:
                ys = [3.25] * n
            else:
                scale = rng.choice([1e-9, 1.0, 1e6])
                ys = [rng.gauss(0.0, 1.0) * scale for _ in range(n)]
                for k in rng.sample(range(n), rng.randrange(min(n, 3))):
                    ys[k] += rng.choice([-1.0, 1.0]) * 1e3 * scale  # outliers
            fraction = rng.choice([1e-4, 0.1, 0.3, 2 / 3, 1.0, rng.uniform(1e-4, 1.0)])
            iters = rng.randrange(4)
            if len(set(xs)) < 2:
                continue
            assert stats.lowess(xs, ys, fraction, iters) == ref.lowess(xs, ys, fraction, iters)

    def test_memory_bounded_by_the_block(self):
        """2,000 points peak at a few block x n float64 matrices, far under
        the 32 MB of one n x n matrix."""
        rng = random.Random(3)
        xs = [rng.uniform(0.0, 100.0) for _ in range(2000)]
        ys = [rng.gauss(0.0, 1.0) for _ in xs]
        n = len(xs)
        bound = 6 * stats._ROW_BLOCK * n * 8
        assert bound <= n * n * 8 / 4
        _, peak = traced_peak(lambda: stats.lowess(xs, ys))
        assert peak < bound

    def test_smooth_series_keeps_years_and_name(self):
        s = GroupSeries("g", ((2000, 1.0), (2001, 3.0), (2002, 2.0), (2003, 4.0)))
        out = stats.smooth_series(s)
        assert out.group == "g"
        assert out.years() == s.years()
