from collections import Counter

import pytest

from patmetrics import classify as cls
from patmetrics import synth
from patmetrics.classify import WipoRule
from patmetrics.errors import ConfigError

from helpers import synth_corpus, texts_of
from reference_metrics import jaccard

CS_AI = "Computer Science; Artificial Intelligence"

GROUPS = (
    synth.GroupSpec("kw", 0.05, phrase="neural network"),
    synth.GroupSpec(
        "sci",
        0.08,
        science_field=CS_AI,
        science_confidence=4,
        jaccard_with="kw",
        jaccard_target=0.10,
    ),
    synth.GroupSpec(
        "wipo",
        0.06,
        phrase="fuzzy logic",
        codes=("G06N", "B25J", None),
        jaccard_with="sci",
        jaccard_target=0.15,
    ),
    synth.GroupSpec(
        "us",
        0.15,
        marker="quantumflux",
        codes=("Y02E",),
        jaccard_with="wipo",
        jaccard_target=0.12,
    ),
)


def make_config(**overrides):
    base = dict(
        rng_seed=77,
        years=(2000, 2009),
        base_count=250,
        growth=(0.05,),
        groups=GROUPS,
        decoy_links=((CS_AI, 3, 3), ("Physics; Applied", 9, 3)),
    )
    base.update(overrides)
    return synth.SynthConfig(**base)


@pytest.fixture(scope="module")
def generated():
    return synth_corpus(make_config())


@pytest.fixture(scope="module")
def rows():
    return synth.generate(make_config())


class TestSchedule:
    def test_flat_counts_without_growth(self):
        counts = synth.year_counts(make_config(growth=(), years=(2000, 2004)))
        assert counts == {y: 250 for y in range(2000, 2005)}

    def test_single_rate_compounds_with_rounding(self):
        counts = synth.year_counts(
            make_config(base_count=100, growth=(0.07,), years=(2000, 2003))
        )
        assert counts == {2000: 100, 2001: 107, 2002: 114, 2003: 122}

    def test_per_step_schedule(self):
        counts = synth.year_counts(
            make_config(base_count=100, growth=(0.1, 0.2, 0.5), years=(2000, 2003))
        )
        assert counts == {2000: 100, 2001: 110, 2002: 132, 2003: 198}

    def test_wrong_schedule_length(self):
        with pytest.raises(ConfigError):
            synth.year_counts(make_config(growth=(0.1, 0.2), years=(2000, 2005)))


class TestGeneratedStructure:
    def test_total_matches_schedule(self, generated):
        corpus, _ = generated
        counts = synth.year_counts(make_config())
        assert len(corpus.ids) == sum(counts.values())
        by_year = Counter(corpus.year.tolist())
        for year, n in counts.items():
            assert by_year[year] == n

    def test_group_sizes_exact(self, generated):
        corpus, truth = generated
        counts = synth.year_counts(make_config())
        for spec in GROUPS:
            want = sum(round(spec.share * m) for m in counts.values())
            assert len(truth[spec.name]) == want

    def test_deterministic(self):
        c1, t1 = synth.generate(make_config())
        c2, t2 = synth.generate(make_config())
        assert c1 == c2
        assert t1 == t2

    def test_seed_changes_text_not_sizes(self, rows):
        tables, truth = rows
        c2, t2 = synth.generate(make_config(rng_seed=78))
        assert tables != c2
        assert {n: len(v) for n, v in truth.items()} == {
            n: len(v) for n, v in t2.items()
        }

    def test_pairwise_jaccard_near_target(self, generated):
        _, truth = generated
        for spec in GROUPS:
            if spec.jaccard_with is None:
                continue
            j = jaccard(truth[spec.name], truth[spec.jaccard_with])
            assert j == pytest.approx(spec.jaccard_target, abs=0.02)

    def test_growth_recoverable_from_counts(self):
        corpus, _ = synth_corpus(
            make_config(base_count=600, growth=(0.07,), groups=(), decoy_links=())
        )
        by_year = Counter(corpus.year.tolist())
        for year in range(2001, 2010):
            prev, cur = by_year[year - 1], by_year[year]
            assert (cur - prev) / prev == pytest.approx(0.07, abs=0.01)

    def test_citation_lags_within_window(self, rows):
        tables, _ = rows
        grant_year = {row[0]: row[1] for row in tables["patents"]}
        assert tables["citations"]
        for citing, cited, citing_year in tables["citations"]:
            assert citing_year == grant_year[citing]
            lag = citing_year - grant_year[cited]
            assert 0 <= lag <= 9

    def test_ai_patents_attract_citations(self, rows):
        tables, truth = rows
        ai = set().union(*truth.values())
        incoming = {row[0]: 0 for row in tables["patents"]}
        for _, cited, _ in tables["citations"]:
            incoming[cited] += 1
        ai_mean = sum(incoming[p] for p in ai) / len(ai)
        bg = [p for p in incoming if p not in ai]
        bg_mean = sum(incoming[p] for p in bg) / len(bg)
        assert ai_mean > 2.0 * bg_mean


class TestPlanting:
    def test_keyword_group_recovered_exactly(self, generated):
        corpus, truth = generated
        assert cls.classify_keyword(corpus, [("neural", "network")]) == truth["kw"]

    def test_science_group_recovered_exactly(self, generated):
        corpus, truth = generated
        # planted links have confidence 4; decoys on the same field have 3
        assert cls.classify_science(corpus) == truth["sci"]

    def test_rule_group_recovered_exactly(self, generated):
        corpus, truth = generated
        rules = (WipoRule("keyword", "", ("fuzzy", "logic")),)
        assert cls.classify_wipo(corpus, rules) == truth["wipo"]

    def test_planted_code_cycles_over_members(self, generated):
        corpus, truth = generated
        g06n = cls.classify_prefix_group(corpus, "G06N")
        assert g06n  # position 0 of the cycle
        assert g06n < truth["wipo"]  # positions 1 and 2 plant B25J or nothing

    def test_marker_group_recovered_by_code_prefix(self, generated):
        corpus, truth = generated
        assert cls.classify_prefix_group(corpus, "Y02") == truth["us"]

    def test_marker_token_planted_only_on_members(self, generated):
        corpus, truth = generated
        carriers = {
            pid
            for pid, abstract in zip(corpus.ids, texts_of(corpus)["abstract"])
            if "quantumflux" in cls.tokenize(abstract)
        }
        assert carriers == truth["us"]

    def test_decoy_links_present_but_inert(self, generated):
        corpus, truth = generated
        links = list(zip(corpus.science_label, corpus.science_confidence.tolist()))
        phys = [l for l in links if l[0] == "Physics; Applied"]
        weak = [l for l in links if l == (CS_AI, 3)]
        assert len(phys) == 30  # 3 per year over 10 years
        assert len(weak) == 30
        assert cls.classify_science(corpus, "Physics; Applied", 3) != truth["sci"]

    def test_link_written_once(self):
        """A group's science field and a decoy that differ by a tab against a
        space are written as the same cell, and that row only once."""
        groups = (synth.GroupSpec("a", 1.0, science_field="CS;\tAI", science_confidence=3),)
        cfg = make_config(years=(2000, 2000), base_count=5, groups=groups, decoy_links=(("CS; AI", 3, 5),))
        tables, _ = synth.generate(cfg)
        assert sorted(tables["science"]) == [(f"P{k:07d}", "CS; AI", 3) for k in range(5)]


class TestValidation:
    def test_duplicate_group_name(self):
        groups = (synth.GroupSpec("a", 0.1), synth.GroupSpec("a", 0.1))
        with pytest.raises(ConfigError):
            synth.generate(make_config(groups=groups))

    def test_share_out_of_range(self):
        with pytest.raises(ConfigError):
            synth.generate(make_config(groups=(synth.GroupSpec("a", 1.5),)))

    def test_groups_overflow_year(self):
        groups = (synth.GroupSpec("a", 0.7), synth.GroupSpec("b", 0.7))
        with pytest.raises(ConfigError):
            synth.generate(make_config(groups=groups))

    def test_jaccard_with_unknown_group(self):
        groups = (synth.GroupSpec("a", 0.1, jaccard_with="b", jaccard_target=0.1),)
        with pytest.raises(ConfigError):
            synth.generate(make_config(groups=groups))

    def test_jaccard_with_later_group_rejected(self):
        groups = (
            synth.GroupSpec("a", 0.1, jaccard_with="b", jaccard_target=0.1),
            synth.GroupSpec("b", 0.1),
        )
        with pytest.raises(ConfigError):
            synth.generate(make_config(groups=groups))

    def test_jaccard_target_required(self):
        groups = (
            synth.GroupSpec("a", 0.1),
            synth.GroupSpec("b", 0.1, jaccard_with="a"),
        )
        with pytest.raises(ConfigError):
            synth.generate(make_config(groups=groups))

    def test_blank_phrase(self):
        with pytest.raises(ConfigError):
            synth.generate(make_config(groups=(synth.GroupSpec("a", 0.1, phrase="  "),)))

    def test_shadowed_phrases(self):
        groups = (
            synth.GroupSpec("a", 0.1, phrase="neural network"),
            synth.GroupSpec("b", 0.1, phrase="deep neural network"),
        )
        with pytest.raises(ConfigError):
            synth.generate(make_config(groups=groups))

    def test_marker_colliding_with_phrase(self):
        groups = (
            synth.GroupSpec("a", 0.1, phrase="neural network"),
            synth.GroupSpec("b", 0.1, marker="neural"),
        )
        with pytest.raises(ConfigError):
            synth.generate(make_config(groups=groups))

    def test_bad_planted_code(self):
        groups = (synth.GroupSpec("a", 0.1, codes=("123",)),)
        with pytest.raises(ConfigError):
            synth.generate(make_config(groups=groups))

    def test_bad_background_code(self):
        with pytest.raises(ConfigError):
            synth.generate(make_config(background_codes=("NOPE",)))

    def test_no_background_codes(self):
        with pytest.raises(ConfigError, match="background_codes is empty"):
            synth.generate(make_config(background_codes=()))

    def test_bad_scalars(self):
        for kw in (
            {"base_count": 0},
            {"years": (2010, 2000)},
            {"edges_per_patent": -1},
            {"ai_attraction": 0.0},
            {"filler_vocab": 0},
            {"title_len": -1},
            {"class_concentration": 1000.0},  # a background-code weight overflows
            {"class_concentration": -1000.0},  # one underflows to 0
        ):
            with pytest.raises(ConfigError):
                synth.generate(make_config(**kw))

    def test_science_confidence_below_one(self):
        groups = (synth.GroupSpec("a", 0.1, science_field=CS_AI, science_confidence=0),)
        with pytest.raises(ConfigError):
            synth.generate(make_config(groups=groups))

    def test_blank_science_field(self):
        groups = (synth.GroupSpec("a", 0.1, science_field="  "),)
        with pytest.raises(ConfigError, match="empty science field"):
            synth.generate(make_config(groups=groups))


class TestConfigFile:
    def write(self, tmp_path, text):
        path = tmp_path / "case.synth"
        path.write_text(text, encoding="utf-8")
        return str(path)

    def test_round_trip(self, tmp_path):
        path = self.write(
            tmp_path,
            "[synth]\n"
            "rng_seed = 5\n"
            "years = 2000-2004\n"
            "base_count = 50\n"
            "growth = 0.1\n"
            "lag_mean = 3\n"
            "\n"
            "[group:kw]\n"
            "share = 0.1\n"
            "phrase = neural network\n"
            "\n"
            "[group:mix]\n"
            "share = 0.2\n"
            "codes = G06N, -, B25J\n"
            "jaccard_with = kw\n"
            "jaccard_target = 0.2\n"
            "\n"
            "[decoys]\n"
            "links =\n"
            "    Physics; Applied|9|2\n"
            "    Computer Science; Artificial Intelligence|3|1\n",
        )
        cfg = synth.load_synth_config(path)
        assert cfg.rng_seed == 5
        assert cfg.years == (2000, 2004)
        assert cfg.base_count == 50
        assert cfg.growth == (0.1,)
        assert cfg.lag_mean == 3.0
        assert [g.name for g in cfg.groups] == ["kw", "mix"]
        assert cfg.groups[0].phrase == "neural network"
        assert cfg.groups[1].codes == ("G06N", None, "B25J")
        assert cfg.groups[1].jaccard_with == "kw"
        assert cfg.groups[1].jaccard_target == 0.2
        assert cfg.decoy_links == (
            ("Physics; Applied", 9, 2),
            ("Computer Science; Artificial Intelligence", 3, 1),
        )
        corpus, truth = synth_corpus(cfg)
        assert len(corpus.ids) == sum(synth.year_counts(cfg).values())

    def test_background_override(self, tmp_path):
        path = self.write(
            tmp_path,
            "[synth]\nbase_count = 10\nyears = 2000-2001\n"
            "background_codes = G06F, H04L\n",
        )
        cfg = synth.load_synth_config(path)
        assert cfg.background_codes == ("G06F", "H04L")

    def test_empty_background_list(self, tmp_path):
        path = self.write(tmp_path, "[synth]\nbase_count = 10\nbackground_codes = ,\n")
        with pytest.raises(ConfigError, match="background_codes is empty"):
            synth.load_synth_config(path)

    def test_percent_is_literal(self, tmp_path):
        path = self.write(
            tmp_path, "[synth]\nbase_count = 10\nyears = 2000-2001\n\n[group:a]\nshare = 0.1\nphrase = 100% neural\n"
        )
        assert synth.load_synth_config(path).groups[0].phrase == "100% neural"

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            synth.load_synth_config(str(tmp_path / "absent.synth"))

    def test_missing_synth_section(self, tmp_path):
        path = self.write(tmp_path, "[group:a]\nshare = 0.1\n")
        with pytest.raises(ConfigError):
            synth.load_synth_config(path)

    def test_missing_share(self, tmp_path):
        path = self.write(
            tmp_path, "[synth]\nbase_count = 10\n\n[group:a]\nphrase = x\n"
        )
        with pytest.raises(ConfigError):
            synth.load_synth_config(path)

    def test_bad_year_range(self, tmp_path):
        path = self.write(tmp_path, "[synth]\nyears = twenty\n")
        with pytest.raises(ConfigError):
            synth.load_synth_config(path)

    @pytest.mark.parametrize(
        "line, message",
        [
            ("Physics; Applied|0|2", "science confidence below 1"),
            ("|9|2", "empty science field"),
            ("Physics; Applied|9|-1", "negative count -1"),
        ],
        ids=["zero-confidence", "empty-field", "negative-count"],
    )
    def test_bad_decoy_link(self, tmp_path, line, message):
        path = self.write(
            tmp_path, f"[synth]\nbase_count = 10\nyears = 2000-2001\n\n[decoys]\nlinks =\n    {line}\n"
        )
        with pytest.raises(ConfigError, match=message):
            synth.load_synth_config(path)

    def test_bad_number(self, tmp_path):
        path = self.write(
            tmp_path, "[synth]\nbase_count = 10\n\n[group:a]\nshare = lots\n"
        )
        with pytest.raises(ConfigError):
            synth.load_synth_config(path)
