import math
import os
import platform
import random
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from patmetrics import classify as cls
from patmetrics import corpus as corpus_module
from patmetrics.errors import ConfigError

import reference_classify as ref
from helpers import assert_same, build_corpus, ingest_rows, random_corpus, text_heavy_corpus, texts_of, traced_peak


class TestTokenize:
    def test_lowercase_and_separators(self):
        assert cls.tokenize("Deep-Learning, 2.0!") == ["deep", "learning", "2", "0"]

    def test_empty(self):
        assert cls.tokenize("") == []
        assert cls.tokenize("...") == []

    def test_non_ascii(self):
        assert cls.tokenize("\u212aelvin") == ["kelvin"]  # the Kelvin sign lowercases to k
        assert cls.tokenize("ab\ud800cd") == ["ab", "cd"]  # a lone surrogate separates
        assert cls.tokenize("\uff41 x\u00b2y") == ["x", "y"]  # full-width a, superscript 2


#: Characters whose lowercase is ASCII, non-ASCII letters and digits,
#: control and line-break characters, a lone surrogate and an emoji.
TOKEN_ALPHABET = (
    "abcxyzABCXYZ0189 -.,;_/\t\n"
    "\u212a\u0130\u017f\uff21\u00b2\u0663\x00\r\x85\ud800\U0001f600"
)


def test_tokenize_equals_regex_oracle(monkeypatch):
    """The byte-table tokenizer, and the token index that ingest builds,
    equal the regular expression over the lowercased text, on random
    hostile strings, none to five patents of them; ingest tokenizes the
    texts of 2 patents at a time and renumbers ids in blocks of 3, so most
    fields span several of each."""
    monkeypatch.setattr(corpus_module, "_RENUMBER_BLOCK", 3)
    monkeypatch.setattr(corpus_module, "_TEXT_BLOCK", 2)
    rng = random.Random(8800)
    for _ in range(300):
        texts = ["".join(rng.choices(TOKEN_ALPHABET, k=rng.randrange(0, 40))) for _ in range(4 * rng.randrange(6))]
        for text in texts:
            assert cls.tokenize(text) == ref.tokenize(text), repr(text)
        rows = [(f"P{k}", 2000, *texts[4 * k : 4 * k + 4]) for k in range(len(texts) // 4)]
        corpus = ingest_rows({"patents": rows}, window=(2000, 2000))
        assert_same(corpus.tokens(), ref.index_tokens(texts_of(corpus)), "tokens")


class TestPhrasePatents:
    def test_multiword_requires_consecutive_tokens(self):
        m = [("neural", "network")]
        assert ref.match_text(m, "a neural network model")
        assert ref.match_text(m, "NEURAL-NETWORK")
        assert not ref.match_text(m, "neural and network")
        assert not ref.match_text(m, "network neural")

    def test_substring_of_token_does_not_match(self):
        m = [("robot",)]
        assert ref.match_text(m, "the robot arm")
        assert not ref.match_text(m, "robotic arm")  # different token

    def test_phrase_at_text_end(self):
        m = [("machine", "learning")]
        assert ref.match_text(m, "applied machine learning")
        assert not ref.match_text(m, "learning machine")  # reversed


class TestKeywordTable:
    def test_default_table_deduplicated(self):
        phrases = cls.default_keywords()
        assert len(phrases) == 38  # 41 rows, 3 repeated phrases
        assert ("neural", "network") in phrases
        assert ("systems", "and", "control", "theory") in phrases
        assert len(set(phrases)) == len(phrases)

    def test_unknown_category_rejected(self, tmp_path):
        path = tmp_path / "k.tsv"
        path.write_text("phrase\tcategory\nrobot\tvehicles\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="unknown keyword category 'vehicles'"):
            cls.load_keywords(str(path))

    def test_empty_table_rejected(self, tmp_path):
        path = tmp_path / "k.tsv"
        path.write_text("phrase\tcategory\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="no phrases"):
            cls.load_keywords(str(path))


class TestClassifyKeyword:
    def corpus(self):
        return build_corpus(
            {"A": 2000, "B": 2000, "C": 2000, "D": 2000, "E": 2000},
            texts={
                "A": {"abstract": "a deep learning approach"},
                "B": {"claims": "using machine learning for control"},
                "C": {"description": "pattern recognition unit"},
                "D": {"title": "Robot arm"},
                "E": {"abstract": "a learning machine"},  # reversed, no match
            },
        )

    def test_matches_any_of_four_fields(self):
        got = cls.classify_keyword(self.corpus())
        assert got == {"A", "B", "C", "D"}

    def test_custom_table(self):
        assert cls.classify_keyword(self.corpus(), [("learning", "machine")]) == {"E"}


class TestClassifyScience:
    def corpus(self):
        return build_corpus(
            {"A": 2000, "B": 2000, "C": 2000, "D": 2000},
            science=[
                ("A", "Computer Science; Artificial Intelligence", 4),
                ("B", "Computer Science; Artificial Intelligence", 3),  # not above 3
                ("C", "Physics; Applied", 9),  # wrong field
                ("D", "Computer Science; Artificial Intelligence", 9),
            ],
        )

    def test_strictly_above_threshold_and_exact_field(self):
        assert cls.classify_science(self.corpus()) == {"A", "D"}

    def test_threshold_parameter(self):
        assert cls.classify_science(self.corpus(), min_confidence=8) == {"D"}

    def test_other_field(self):
        assert cls.classify_science(self.corpus(), field="Physics; Applied", min_confidence=1) == {"C"}


class TestClassifyWipo:
    def corpus(self):
        return build_corpus(
            {"A": 2000, "B": 2000, "C": 2000, "D": 2000, "E": 2000, "F": 2000},
            codes={
                "A": ["G06N20/00"],  # code rule alone
                "C": ["B25J9/16"],  # prefix without phrase: no match
                "D": ["B25J9/16"],  # prefix plus phrase: combined rule
                "F": ["A01B"],
            },
            texts={
                "B": {"claims": "a fuzzy logic controller"},  # keyword rule
                "D": {"abstract": "fuzzy logic tuning"},
                "E": {"description": "fuzzy logic in description only"},  # excluded field
            },
        )

    def test_rule_kinds_and_field_scope(self):
        got = cls.classify_wipo(self.corpus())
        assert got == {"A", "B", "D"}

    def test_combined_needs_both_sides(self):
        rules = (cls.WipoRule("combined", "B25J", ("fuzzy", "logic")),)
        assert cls.classify_wipo(self.corpus(), rules) == {"D"}

    def test_empty_rules_rejected(self):
        with pytest.raises(ConfigError):
            cls.classify_wipo(self.corpus(), ())

    def test_default_rules_have_each_kind(self):
        kinds = {r.kind for r in cls.default_wipo_rules()}
        assert kinds == {"code", "keyword", "combined"}


class TestClassifyPrefix:
    def corpus(self):
        return build_corpus(
            {"A": 2000, "B": 2000, "C": 2000},
            codes={"A": ["G06N20/00"], "B": ["G06F3/01"], "C": ["H04L9/40"]},
        )

    def test_prefix_depths(self):
        c = self.corpus()
        assert cls.classify_prefix_group(c, "G") == {"A", "B"}
        assert cls.classify_prefix_group(c, "G06") == {"A", "B"}
        assert cls.classify_prefix_group(c, "G06N") == {"A"}
        assert cls.classify_prefix_group(c, "G06N20/00") == {"A"}
        assert cls.classify_prefix_group(c, "X99") == frozenset()

    def test_all_sentinel(self):
        assert cls.classify_prefix_group(self.corpus(), "All") == {"A", "B", "C"}

    def test_empty_prefix_rejected(self):
        with pytest.raises(ConfigError):
            cls.classify_prefix_group(self.corpus(), "  ")


class TestUsptoSeed:
    def corpus(self):
        return build_corpus(
            {"A": 2000, "B": 2001, "C": 2002, "D": 2002, "E": 2003},
            codes={
                "A": ["G06N20/00"],
                "B": ["G06N3/04"],  # shares subclass with A
                "C": ["H04L9/40"],
                "D": ["A01B"],
            },
            cites=[("C", "A"), ("E", "C")],
        )

    def test_no_expansion(self):
        seed = cls.build_uspto_seed(self.corpus(), ["G06N20"], hops=0)
        assert seed == {"A"}

    def test_one_hop_adds_shared_subclass_and_citations(self):
        seed = cls.build_uspto_seed(self.corpus(), ["G06N20"], hops=1)
        # B shares G06N, C cites A; D and E stay out
        assert seed == {"A", "B", "C"}

    def test_two_hops_follow_new_members(self):
        seed = cls.build_uspto_seed(self.corpus(), ["G06N20"], hops=2)
        assert seed == {"A", "B", "C", "E"}

    def test_empty_prefixes_rejected(self):
        with pytest.raises(ConfigError):
            cls.build_uspto_seed(self.corpus(), [], hops=0)


@pytest.mark.parametrize("seed", range(12))
def test_citation_inputs_equal_reference_loops(seed):
    """The seed's citation hop and the citation features over the position
    arrays equal the loops over (citing, cited) id pairs, bit for bit."""
    rng = random.Random(5000 + seed)
    corpus, years, codes, edges, ai = random_corpus(rng)
    ids = sorted(years)
    prefixes = [rng.choice("ABCDEFGH"), rng.choice("ABCDEFGH")]
    for hops in (0, 1, 2):
        seed_ids = cls.build_uspto_seed(corpus, prefixes, hops)
        assert seed_ids == ref.build_uspto_seed(corpus, prefixes, hops), hops
    rows = [corpus.position[p] for p in ids]
    for group in (frozenset(ai), seed_ids, frozenset(), frozenset(ids)):
        got = cls._citation_features(corpus, group)
        assert got.dtype == np.float64 and got.shape == (len(corpus), 2)
        assert np.array_equal(got[rows], ref.citation_features(corpus, ids, group))
    assert cls._citation_features(corpus_module.ingest({})[0], frozenset()).shape == (0, 2)


#: Full CPC codes for the random text corpora: the default WIPO prefixes
#: (G06N, B25J), shared subclasses, and codes that are prefixes of others.
CODES = (
    "G06N20/00", "G06N3/08", "G06N3/04", "G06N3", "G06F40/30", "G10L15/22",
    "B25J9/16", "B25J13/08", "B25J9", "H04L9/40", "A61K31/00", "Y02E10/70",
)
PREFIXES = ("G", "G06", "G06N", "G06N3", "G06N3/0", "B25J9/16", "H04L9/40", "A", "Y", "Z99")


def _phrase_pool():
    phrases = list(cls.default_keywords())
    phrases += [r.phrase for r in cls.default_wipo_rules() if r.phrase]
    return phrases


def random_text(rng, phrases, filler=("widget", "the", "of", "networks")):
    """A short text of whole phrases, phrase heads and tails, and filler, so
    phrases repeat, end texts, and may straddle two fields."""
    words = []
    for _ in range(rng.randrange(0, 4)):
        ph = rng.choice(phrases)
        cut = rng.randrange(1, len(ph) + 1)
        words += rng.choice([list(ph), list(ph[:cut]), list(ph[cut - 1 :]), [rng.choice(filler)] * 2])
    sep = rng.choice([" ", "-", ", ", " . "])
    return sep.join(w.upper() if rng.random() < 0.1 else w for w in words)


def random_text_corpus(rng, straddling, wide=0):
    """A random corpus with phrase-laden texts in every field, full CPC
    codes, and random citations.  Some field pairs end and start with the
    two halves of one of the `straddling` phrases.  One patent's title
    holds `wide` distinct filler tokens more, to widen the vocabulary."""
    phrases = _phrase_pool()
    n = rng.randrange(10, 120)
    years = {f"P{i}": rng.randrange(2000, 2010) for i in range(n)}
    ids = sorted(years)
    codes = {p: rng.sample(CODES, rng.randrange(0, 3)) for p in ids}
    texts = {}
    for p in ids:
        fields = [random_text(rng, phrases) for _ in range(4)]
        for k in range(3):
            if rng.random() < 0.3:
                ph = rng.choice(straddling)
                cut = rng.randrange(1, len(ph))
                fields[k] = " ".join([fields[k], *ph[:cut]])
                fields[k + 1] = " ".join([*ph[cut:], fields[k + 1]])
        texts[p] = dict(zip(("title", "abstract", "claims", "description"), fields))
    if wide:
        texts[rng.choice(ids)]["title"] += " " + " ".join(f"w{k}" for k in range(wide))
    edges = sorted(
        {(a, b) for a, b in (rng.sample(ids, 2) for _ in range(rng.randrange(0, 3 * n))) if years[a] >= years[b]}
    )
    return build_corpus(years, codes=codes, cites=edges, texts=texts)


def scatter(features, width):
    """The feature rows that `cls._features` returns as (indptr, column,
    value), scattered into a dense array of `width` columns, once each row's
    columns are seen to ascend and every stored value to be non-zero."""
    indptr, col, val = features
    row = np.repeat(np.arange(len(indptr) - 1), np.diff(indptr))
    assert (np.diff(row * width + col) > 0).all() and (val != 0).all()
    X = np.zeros((len(indptr) - 1, width))
    X[row, col] = val
    return X


@pytest.mark.parametrize("seed", range(14))
def test_classifiers_equal_reference_loops(seed, monkeypatch):
    """Phrase, prefix and seed matching over the interned indexes, and the
    USPTO vocabularies and feature rows, equal the per-patent loops.
    The USPTO classifier reads its tokens in blocks of 1, 7 or 1024 rows.
    From seed 12 the vocabulary outgrows 65,536 names, so token ids are
    int32 rather than uint16."""
    monkeypatch.setattr(cls, "_ROW_BLOCK", (1, 7, 1024)[seed % 3])
    rng = random.Random(7000 + seed)
    phrases = _phrase_pool()
    chosen = rng.sample([ph for ph in phrases if len(ph) > 1], 6)
    corpus = random_text_corpus(rng, chosen, wide=70_000 if seed >= 12 else 0)
    assert corpus.tokens()["title"].ids.dtype == (np.int32 if seed >= 12 else np.uint16)
    table = (*chosen, ("zeppelin", "widget"))
    rules = (
        cls.WipoRule("code", rng.choice(PREFIXES)),
        cls.WipoRule("keyword", phrase=rng.choice(phrases)),
        cls.WipoRule("combined", rng.choice(PREFIXES), rng.choice(phrases)),
    )
    assert cls.classify_keyword(corpus) == ref.classify_keyword(corpus)
    assert cls.classify_keyword(corpus, table) == ref.classify_keyword(corpus, table)
    assert cls.classify_wipo(corpus) == ref.classify_wipo(corpus)
    assert cls.classify_wipo(corpus, rules) == ref.classify_wipo(corpus, rules)
    for prefix in PREFIXES:
        assert cls.classify_prefix_group(corpus, prefix) == ref.classify_prefix_group(corpus, prefix)
    seeds = {"a": rng.sample(PREFIXES[:-1], 2), "b": [rng.choice(PREFIXES[:-1])], "c": ["G06N3"]}
    for hops in (0, 1, 2):
        for prefixes in seeds.values():
            got = cls.build_uspto_seed(corpus, prefixes, hops)
            assert got == ref.build_uspto_seed(corpus, prefixes, hops), (prefixes, hops)

    hops = rng.randrange(3)
    # the largest seed trains first, so each later matrix is built after a
    # larger one has been released
    order = sorted(seeds, key=lambda c: -len(cls.build_uspto_seed(corpus, seeds[c], hops)))
    cfg = uspto_config(
        components=tuple(order), seed_rules=seeds, expansion_hops=hops,
        vocab_size=rng.randrange(3, 40), epochs=5,
    )
    try:
        model = cls.train_uspto(corpus, cfg)
    except ConfigError:  # a seed that matches nothing, or everything
        return
    ids = list(corpus.ids)
    for comp, want in zip(model.components, ref.train_uspto(corpus, cfg).components, strict=True):
        assert (comp.name, comp.vocab, comp.seed, comp.anti_seed) == (
            want.name, want.vocab, want.seed, want.anti_seed
        )
        assert np.array_equal(comp.weights, want.weights) and comp.bias == want.bias
        assert comp.nonzeros == want.nonzeros
        train_ids = sorted(comp.seed) + sorted(comp.anti_seed)
        assert comp.vocab == ref.top_tokens(corpus, train_ids, cfg.vocab_size)
        cites = cls._citation_features(corpus, comp.seed)
        for rows in (train_ids, ids):
            at = np.array([corpus.position[p] for p in rows], np.int64)
            blocks = cls._field_blocks(corpus, at)
            features = cls._features(blocks, cls._columns(corpus, comp.vocab), len(comp.vocab), cites[at])
            got = scatter(features, len(comp.weights))
            assert np.array_equal(got, ref.features(corpus, rows, comp.vocab, comp.seed))
    assert cls.classify_uspto(corpus, model) == ref.classify_uspto(corpus, model)


class TestInternedEdges:
    def corpus(self):
        return build_corpus(
            {"A": 2000, "B": 2000, "C": 2000},
            codes={"A": ["G06N20/00"], "B": ["H04L9/40"]},
            texts={
                "A": {"title": "a deep", "abstract": "learning model"},  # split phrase
                "B": {"description": "a fuzzy logic neural network"},  # description only
                "C": {"claims": "deep learning"},
            },
        )

    def test_phrase_split_across_fields_does_not_match(self):
        assert cls.classify_keyword(self.corpus(), [("deep", "learning")]) == {"C"}

    def test_description_hit_counts_for_keyword_not_wipo(self):
        c = self.corpus()
        assert cls.classify_keyword(c) == {"B", "C"}
        assert cls.classify_wipo(c, (cls.WipoRule("keyword", phrase=("neural", "network")),)) == set()
        assert cls.classify_wipo(c, (cls.WipoRule("keyword", phrase=("deep", "learning")),)) == {"C"}

    def test_phrase_token_absent_from_corpus(self):
        c = self.corpus()
        assert c.tokens()["title"].id_of("zeppelin") == -1
        assert cls.classify_keyword(c, [("zeppelin",), ("deep", "zeppelin")]) == frozenset()
        rules = (cls.WipoRule("combined", "G06N", ("deep", "zeppelin")),)
        assert cls.classify_wipo(c, rules) == frozenset()

    def test_prefix_after_every_code(self):
        c = self.corpus()
        assert c.codes.names == ("G06N20/00", "H04L9/40")
        assert cls.classify_prefix_group(c, "H04L9/40") == {"B"}
        assert cls.classify_prefix_group(c, "H04L9/400") == frozenset()
        assert cls.classify_prefix_group(c, "Z") == frozenset()


def separable_corpus():
    """20 positives carrying a marker token and Y02 codes, 60 negatives."""
    years, codes, texts = {}, {}, {}
    for i in range(20):
        pid = f"S{i:02d}"
        years[pid] = 2000 + i % 5
        codes[pid] = ["Y02E10/70"]
        texts[pid] = {"abstract": f"w{i:02d} flux capacitor w{i + 1:02d}"}
    for i in range(60):
        pid = f"N{i:02d}"
        years[pid] = 2000 + i % 5
        codes[pid] = ["A01B"]
        texts[pid] = {"abstract": f"w{i:02d} ordinary widget w{i + 1:02d}"}
    return build_corpus(years, codes=codes, texts=texts)


def uspto_config(**kw):
    base = dict(
        components=("core",),
        seed_rules={"core": ("Y02",)},
        expansion_hops=0,
        vocab_size=50,
        epochs=200,
        learning_rate=2.0,
    )
    base.update(kw)
    return cls.UsptoConfig(**base)


class TestUsptoTraining:
    def test_zero_epochs_scores_half(self):
        # every score is exactly 0.5: none lies strictly above 0.5, and all
        # lie above the next float below it
        corpus = separable_corpus()
        model = cls.train_uspto(corpus, uspto_config(epochs=0))
        assert cls.classify_uspto(corpus, model) == frozenset()
        model.config.threshold = math.nextafter(0.5, 0.0)
        assert cls.classify_uspto(corpus, model) == frozenset(corpus.ids)

    def test_anti_seed_deterministic_and_disjoint(self):
        corpus = separable_corpus()
        m1 = cls.train_uspto(corpus, uspto_config(epochs=0))
        m2 = cls.train_uspto(corpus, uspto_config(epochs=0))
        c1, c2 = m1.components[0], m2.components[0]
        assert c1.anti_seed == c2.anti_seed
        assert len(c1.anti_seed) == len(c1.seed)
        assert not (c1.anti_seed & c1.seed)

    @pytest.mark.parametrize("anti_seed_rng", (13, 0, 99))
    def test_anti_seed_equals_reference(self, anti_seed_rng):
        """The anti-seed is drawn by index from the non-seed positions in id
        order, and equals the draw from the sorted list of non-seed ids."""
        ids = [f"P{i:02d}" for i in range(80)]
        random.Random(anti_seed_rng).shuffle(ids)  # positions in no id order
        corpus = build_corpus(
            {p: 2000 + i % 5 for i, p in enumerate(ids)},
            codes={p: ["A01B" if i % 4 else "Y02E10/70"] for i, p in enumerate(ids)},
        )
        cfg = uspto_config(epochs=0, anti_seed_rng=anti_seed_rng)
        got = cls.train_uspto(corpus, cfg).components[0]
        want = ref.train_uspto(corpus, cfg).components[0]
        assert (got.seed, got.anti_seed) == (want.seed, want.anti_seed)

    def test_training_separates_marked_group(self):
        corpus = separable_corpus()
        model = cls.train_uspto(corpus, uspto_config())
        comp = model.components[0]
        above = cls.classify_uspto(corpus, model)
        assert above & (comp.seed | comp.anti_seed) == comp.seed

    def test_classify_recovers_planted_group(self):
        corpus = separable_corpus()
        model = cls.train_uspto(corpus, uspto_config())
        got = cls.classify_uspto(corpus, model)
        truth = {pid for pid in corpus.ids if pid.startswith("S")}
        assert got == truth

    def test_component_without_seed_match_rejected(self):
        corpus = separable_corpus()
        with pytest.raises(ConfigError):
            cls.train_uspto(corpus, uspto_config(seed_rules={"core": ("X99",)}))

    def test_threshold_validation(self):
        with pytest.raises(ConfigError):
            uspto_config(threshold=1.0)
        with pytest.raises(ConfigError):
            uspto_config(threshold=0.0)

    def test_default_components_are_eight(self):
        cfg = cls.UsptoConfig()
        assert len(cfg.components) == 8
        assert len(set(cfg.components)) == 8


def test_empty_rows_and_columns_sum_to_zero():
    """An anti-seed without text and a citation column without a non-zero
    training row are empty segments of the epochs' row and column sums, for
    which `np.add.reduceat` alone would return the next segment's first
    term.  The weights equal the oracle's, and the row without text scores
    exactly 1 / (1 + exp(-bias))."""
    years = {f"S{k}": 2001 for k in range(5)} | {f"N{k}": 2000 for k in range(5)}
    codes = {p: ["Y02E10/70" if p[0] == "S" else "A01B"] for p in years}
    texts = {p: {"abstract": f"flux capacitor w{k}"} for k, p in enumerate(years) if p[0] == "S"}
    texts |= {f"N{k}": {"abstract": f"ordinary widget w{k}"} for k in (0, 1, 3, 4)}
    # a seed patent citing an anti-seed: no training row cites the seed
    corpus = build_corpus(years, codes=codes, cites=[("S0", "N0")], texts=texts)
    cfg = uspto_config(epochs=20)
    model = cls.train_uspto(corpus, cfg)
    comp, want = model.components[0], ref.train_uspto(corpus, cfg).components[0]
    assert comp.anti_seed == {f"N{k}" for k in range(5)}
    assert np.array_equal(comp.weights, want.weights) and comp.bias == want.bias
    assert comp.weights[-2] == 0.0 != comp.weights[-1]  # citations to the seed, then from it
    score = float(1.0 / (1.0 + np.exp(-np.array([comp.bias])))[0])
    model.config.threshold = score
    assert "N2" not in cls.classify_uspto(corpus, model)
    model.config.threshold = math.nextafter(score, 0.0)
    assert "N2" in cls.classify_uspto(corpus, model)


def test_one_feature_matrix_at_a_time():
    """Training holds the non-zero features of one component at a time, at
    `NONZERO_BYTES` each, and scoring one block of `_ROW_BLOCK` rows, plus
    temporaries bounded by one block of rows: the traced heap peak of each
    component's training exceeds its stored non-zeros, and that of scoring
    one block's dense matrix, by no more than one block's tokens at 32
    bytes each and 128 bytes per patent of the corpus (its citation
    features, id sets and the descent's vectors), whatever the number of
    rows.  No dense matrix is held: a component of more than one block of
    rows trains below rows x (vocabulary + 2) x 8 bytes.  (A smaller one may
    not: the per-corpus bytes alone can exceed its dense size.)  Four
    components, each trained alone and then all together, largest first, so
    that the joint peak also shows each component's features freed before
    the next are built; the largest has thousands of rows."""
    corpus = text_heavy_corpus()
    longest = max(np.diff(corpus.tokens()[name].indptr).max() for name in cls.USPTO_TEXT_FIELDS)
    slack = cls._ROW_BLOCK * int(longest) * 32 + 128 * len(corpus)
    seeds = {code.lower(): (code,) for code in ("A01B", "A61K", "B23K", "H04L")}
    cfg = cls.UsptoConfig(components=tuple(seeds), seed_rules=seeds, expansion_hops=0,
                          vocab_size=300, epochs=3)
    components = []
    for comp in cfg.components:
        model, peak = traced_peak(lambda: cls.train_uspto(corpus, replace(cfg, components=(comp,))))
        c = model.components[0]
        rows, stored = len(c.seed) + len(c.anti_seed), c.nonzeros * cls.NONZERO_BYTES
        assert peak - stored < slack, (comp, stored, peak, slack)
        if rows > cls._ROW_BLOCK:
            assert peak < rows * len(c.weights) * 8, (comp, rows, peak)
        components.append(c)
    rows = [len(c.seed) + len(c.anti_seed) for c in components]
    assert rows[0] == max(rows) > rows[-1] and max(rows) > 2000 and min(rows) < cls._ROW_BLOCK
    model, peak = traced_peak(lambda: cls.train_uspto(corpus, cfg))
    stored = max(c.nonzeros for c in components) * cls.NONZERO_BYTES
    assert peak - stored < slack and peak < max(rows) * len(components[0].weights) * 8, (stored, peak, slack)
    _, peak = traced_peak(lambda: cls.classify_uspto(corpus, model))
    assert len(corpus) > 4 * cls._ROW_BLOCK and all(len(c.weights) == 302 for c in components)
    block = cls._ROW_BLOCK * 302 * 8
    assert peak - block < slack, (block, peak)


def test_scoring_gathers_each_block_once(monkeypatch):
    """Scoring takes each block's title, abstract and claims tokens once,
    for every component: 3 `Csr.take` calls per block of rows."""
    monkeypatch.setattr(cls, "_ROW_BLOCK", 7)
    corpus = separable_corpus()
    seeds = {"core": ("Y02",), "rest": ("A01B",)}
    model = cls.train_uspto(corpus, uspto_config(components=tuple(seeds), seed_rules=seeds, epochs=3))
    calls, take = [], corpus_module.Csr.take

    def counted(self, rows):
        calls.append(len(rows))
        return take(self, rows)

    monkeypatch.setattr(corpus_module.Csr, "take", counted)
    cls.classify_uspto(corpus, model)
    assert calls == [min(7, len(corpus) - start) for start in range(0, len(corpus), 7) for _ in range(3)]


#: Each setting acts on one child process only, through its environment:
#: OpenBLAS's thread count and kernel, and numpy's AVX-512 loops.
NUMERIC_SETTINGS = {
    "one-blas-thread": {"OPENBLAS_NUM_THREADS": "1"},
    **{f"blas-{core.lower()}": {"OPENBLAS_CORETYPE": core} for core in ("Sandybridge", "Prescott", "Haswell")},
    "no-avx512": {"NPY_DISABLE_CPU_FEATURES": "X86_V4,AVX512_ICL,AVX512_SPR"},
}


ROOT = Path(__file__).resolve().parents[1]


def run_child(argv, settings):
    """The output of `python *argv` in a child process with `src/` on its
    path and `settings` added to its environment."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), **settings)
    return subprocess.run([sys.executable, *argv], env=env, check=True, capture_output=True, text=True).stdout


@pytest.fixture(scope="module")
def text_heavy_tables(tmp_path_factory):
    """A directory holding the text-heavy workload's configs and the tables
    that `patmetrics synth` writes for it."""
    if platform.machine().lower() not in ("x86_64", "amd64"):
        pytest.skip("the settings name x86-64 BLAS kernels and CPU features")
    tmp = tmp_path_factory.mktemp("text-heavy")
    for name in ("text-heavy.run", "text-heavy.synth", "text-heavy.uspto"):
        shutil.copy(ROOT / "bench" / "workloads" / name, tmp)
    run_child(["-m", "patmetrics", "synth", "--config", str(tmp / "text-heavy.synth"), "--out", str(tmp)], {})
    return tmp


@pytest.fixture(scope="module")
def text_heavy_classify(text_heavy_tables):
    """`classify(name, settings)`, the bytes of each `groups/` file that
    `run --only classify` writes for the text-heavy workload's tables in a
    `patmetrics` process with `settings` added to its environment, and
    those files under the default environment."""
    tmp = text_heavy_tables

    def classify(name, settings):
        out = tmp / name
        argv = ["run", "--config", str(tmp / "text-heavy.run"), "--out", str(out), "--only", "classify"]
        run_child(["-m", "patmetrics", *argv], settings)
        return {f: (out / "groups" / f).read_bytes() for f in sorted(os.listdir(out / "groups"))}

    return classify, classify("default", {})


#: Prints a digest of the weights and biases that the text-heavy USPTO
#: config trains on the tables in the directory argv[1].
WEIGHTS_DIGEST = """
import hashlib, sys
import numpy as np
from patmetrics import classify, io, pipeline
tables = (f"{sys.argv[1]}/{name}.tsv" for name in ("patents", "cpc", "citations", "science"))
model = classify.train_uspto(io.load_corpus(*tables)[0], pipeline.load_uspto_config(f"{sys.argv[1]}/text-heavy.uspto"))
digest = hashlib.sha256()
for c in model.components:
    digest.update(c.weights.tobytes() + np.float64(c.bias).tobytes())
print(digest.hexdigest())
"""


def test_uspto_weights_independent_of_blas_settings(text_heavy_tables):
    """Training takes no matrix product, so the text-heavy weights and
    biases are bit-equal under the default environment and each OpenBLAS
    setting.  numpy's AVX-512 loops still move their last bits, through
    `np.exp`, so the `no-avx512` setting is held to equal memberships only
    (below)."""
    blas = [s for s in NUMERIC_SETTINGS.values() if all(key.startswith("OPENBLAS_") for key in s)]
    assert len(blas) == 4
    digests = {run_child(["-c", WEIGHTS_DIGEST, str(text_heavy_tables)], s) for s in ({}, *blas)}
    assert len(digests) == 1, digests


@pytest.mark.parametrize("name", NUMERIC_SETTINGS)
def test_uspto_members_independent_of_blas_and_simd_settings(text_heavy_classify, name):
    """The USPTO memberships, and so the groups, are equal under each
    setting, the numpy one included, under which the weights differ."""
    if name == "no-avx512":
        try:
            from numpy._core._multiarray_umath import __cpu_features__
        except ImportError:  # numpy 1
            from numpy.core._multiarray_umath import __cpu_features__
        if not __cpu_features__.get("X86_V4"):
            pytest.skip("without X86_V4 there are no AVX-512 loops to turn off")
    classify, default = text_heavy_classify
    assert "USPTO.ids" in default
    assert classify(name, NUMERIC_SETTINGS[name]) == default


def test_trained_group_recovers_what_its_seed_misses(tmp_path):
    """On a desk variant at `base_count = 200` whose USPTO group carries its
    seed code only on about half its members (`codes = Y02E10, -`), the
    trained model finds at least 95% of the planted members, while the seed
    alone holds at most 60%: the expansion the classifier exists for."""
    from patmetrics import pipeline, synth
    from helpers import synth_corpus

    fixtures = Path(__file__).resolve().parents[1] / "fixtures"
    text = (fixtures / "desk.synth").read_text(encoding="utf-8")
    for old, new in [("base_count = 529", "base_count = 200"), ("codes = Y02E10\n", "codes = Y02E10, -\n")]:
        assert text.count(old) == 1
        text = text.replace(old, new)
    (tmp_path / "half.synth").write_text(text, encoding="utf-8")
    corpus, truth = synth_corpus(synth.load_synth_config(str(tmp_path / "half.synth")))
    model = cls.train_uspto(corpus, pipeline.load_uspto_config(str(fixtures / "desk.uspto")))
    planted = truth["USPTO"]
    recall = lambda found: len(found & planted) / len(planted)  # noqa: E731
    assert recall(model.components[0].seed) <= 0.6
    assert recall(cls.classify_uspto(corpus, model)) >= 0.95
