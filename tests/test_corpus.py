import random
from collections import Counter

import numpy as np
import pytest

from patmetrics import classify as cls
from patmetrics import corpus as corpus_module
from patmetrics.corpus import TEXT_FIELDS, Csr, TokenIndexer, distinct
from patmetrics.errors import CpcParseError, DataError
from patmetrics.io import parse_cpc

import reference_corpus as ref_corpus
from helpers import (
    assert_same, build_corpus, classes_at, ingest_rows, text_heavy_corpus, texts_of, tokens_of, traced_peak,
)


def reference_code_index(corpus, rows):
    """The code index as a per-row loader derived it: the accepted codes of
    each patent id gathered in a dict, each row rejected for the reason
    `io.ingest` gives, then every patent's distinct codes numbered in sorted
    order.  Returns the index and the reason (None when accepted) of each
    row."""
    codes: dict[str, list[str]] = {}
    reasons = []
    for pid, raw in rows:
        if pid not in corpus.position:
            reasons.append("unknown_patent")
            continue
        try:
            code = parse_cpc(raw)
        except CpcParseError:
            reasons.append("bad_code")
            continue
        held = codes.setdefault(pid, [])
        reasons.append("duplicate" if code in held else None)
        if code not in held:
            held.append(code)
    names = tuple(sorted({c for cs in codes.values() for c in cs}))
    rank = {c: k for k, c in enumerate(names)}
    by_row = [sorted(rank[c] for c in codes.get(pid, ())) for pid in corpus.ids]
    indptr = np.cumsum([0] + [len(r) for r in by_row]).astype(np.int32)
    ids = np.array([k for r in by_row for k in r], np.int32)
    return Csr(names, indptr, ids), reasons


class TestParseCpc:
    def test_levels(self):
        assert parse_cpc("G06N20/00") == "G06N20/00"

    def test_normalisation(self):
        assert parse_cpc(" g06n ") == "G06N"
        assert parse_cpc("y02e10/70") == "Y02E10/70"

    def test_subclass_only_is_valid(self):
        assert parse_cpc("A01B") == "A01B"

    @pytest.mark.parametrize(
        "bad", ["", "G0", "G06", "I06N", "06NX", "G6N", "GG6N", "G06n2x", "G06N/12"]
    )
    def test_rejects_malformed(self, bad):
        with pytest.raises(CpcParseError):
            parse_cpc(bad)


def patent(pid, year):
    return (pid, year, "", "", "", "")


def ingest(window=(2000, 2010), **tables):
    """The corpus and report of `io.ingest` over the rows of the named
    tables, each table named after itself."""
    return corpus_module.ingest({name: (name, rows) for name, rows in tables.items()}, window=window)


def row_reasons(name, rows, patents, window=(2000, 2010)):
    """The reject reason of each row of table `name` (None when accepted),
    read off the report of ingesting the rows up to it: a row's fate
    depends only on the rows before it."""
    reasons, before = [], Counter()
    for k in range(len(rows) + 1):
        _, report = ingest(window, **{"patents": patents, name: rows[:k]})
        after = report.tables[name].rejected
        if k:
            reasons.append(next(iter(after - before), None))
        before = after
    return reasons


class TestBuilder:
    """The row rules of `io.ingest`, the one builder of a corpus."""

    def test_duplicate_patent_id_aborts(self):
        _, report = ingest(patents=[patent("P1", 2005)])
        assert report.tables["patents"].accepted == 1
        with pytest.raises(DataError):
            ingest(patents=[patent("P1", 2005), patent("P1", 2006)])

    def test_year_outside_window_rejected(self):
        assert row_reasons("patents", [patent("P1", 1999), patent("P2", 2011)], []) == [
            "year_out_of_window", "year_out_of_window",
        ]
        assert len(ingest(patents=[patent("P1", 1999), patent("P2", 2011)])[0]) == 0

    def test_window_bounds_inclusive(self):
        assert row_reasons("patents", [patent("P1", 2000), patent("P2", 2010)], []) == [None, None]

    def test_assignment_rules(self):
        rows = [("P1", "G06N20/00"), ("P1", "G06N20/00"), ("P1", "G06N3/04"), ("P9", "G06N"), ("P1", "bogus!")]
        assert row_reasons("cpc", rows, [patent("P1", 2005)]) == [
            None,
            "duplicate",  # exact duplicate
            None,  # same subclass, new symbol
            "unknown_patent",
            "bad_code",
        ]

    def test_citation_rules(self):
        patents = [patent("P1", 2001), patent("P2", 2005)]
        rows = [("P2", "P1", 2005), ("P2", "P1", 2005), ("P2", "P2", 2005), ("P1", "P2", 2001),
                ("P2", "PX", 2005), ("PX", "P1", 2005)]
        assert row_reasons("citations", rows, patents) == [
            None, "duplicate", "self_citation", "negative_lag", "unknown_cited", "unknown_citing",
        ]
        corpus, _ = ingest(patents=patents, citations=rows)
        assert len(corpus.citing) == 1
        assert corpus.year[corpus.citing[0]] == 2005
        assert (corpus.citing[0], corpus.cited[0]) == (1, 0)

    def test_rejected_record_takes_no_position(self):
        patents = [patent("P1", 2001), patent("P0", 1999), patent("P2", 2005)]
        assert row_reasons("patents", patents, []) == [None, "year_out_of_window", None]
        rows = [("P2", "P0", 2005), ("P2", "P1", 2005)]
        assert row_reasons("citations", rows, patents) == ["unknown_cited", None]
        corpus, _ = ingest(patents=patents, citations=rows)
        assert corpus.position == {"P1": 0, "P2": 1}
        assert (corpus.citing.tolist(), corpus.cited.tolist()) == ([1], [0])

    def test_same_year_citation_allowed(self):
        patents = [patent("P1", 2005), patent("P2", 2005)]
        assert row_reasons("citations", [("P2", "P1", 2005)], patents) == [None]

    def test_science_rules(self):
        rows = [
            ("P1", "Computer Science; Artificial Intelligence", 4),
            ("P1", "Computer Science; Artificial Intelligence", 4),
            ("P1", "Computer Science; Artificial Intelligence", 3),
            ("P1", "  ", 4),
            ("P1", "Physics; Applied", 0),
            ("PX", "Physics; Applied", 5),
        ]
        assert row_reasons("science", rows, [patent("P1", 2005)]) == [
            None, "duplicate", None, "empty_field", "bad_confidence", "unknown_patent",
        ]


class TestCodeIndex:
    @pytest.mark.parametrize("seed", range(12))
    def test_equals_dict_walk(self, seed):
        """Random CPC rows, with unknown and out-of-window patents, bad
        codes, exact and normalised duplicates and codeless patents."""
        rng = random.Random(seed)
        pids = [f"P{i}" for i in range(rng.randrange(1, 60))]
        patents = [patent(pid, rng.randrange(1998, 2011)) for pid in pids]
        pool = ["G06N20/00", " g06n20/00", "G06N", "H04L9/40", "A01B", "y02e10/70",
                "B82Y", "G06F3/01", "bogus", "G6N", ""]
        rows = [
            (rng.choice(pids + ["PX", ""]), rng.choice(pool))
            for _ in range(rng.randrange(0, 200))
        ]
        reasons = row_reasons("cpc", rows, patents, window=(2000, 2009))
        corpus, _ = ingest((2000, 2009), patents=patents, cpc=rows)
        want, want_reasons = reference_code_index(corpus, rows)
        assert reasons == want_reasons
        assert_same(corpus.codes, want, "codes")


class TestCorpusIndexes:
    def test_classes_of_levels(self):
        corpus = build_corpus(
            {"A": 2000, "B": 2001},
            codes={"A": ["G06N20/00", "G06F3/01", "H04L9/40"], "B": []},
        )
        assert classes_at(corpus, 1, "A") == {"G", "H"}
        assert classes_at(corpus, 3, "A") == {"G06", "H04"}
        assert classes_at(corpus, 4, "A") == {"G06N", "G06F", "H04L"}
        assert classes_at(corpus, 4, "B") == set()

    def test_class_index_ids_follow_sorted_names(self):
        corpus = build_corpus(
            {"A": 2000, "B": 2001, "C": 2002},
            codes={"A": ["H04L9/40", "G06N20/00"], "C": ["B82Y10/00", "H04W4/00"]},
        )
        index = corpus.class_index(4)
        assert index.names == ("B82Y", "G06N", "H04L", "H04W")
        assert index.indptr.tolist() == [0, 2, 2, 4]
        assert index.ids.tolist() == [1, 2, 0, 3]
        assert corpus.class_index(4) is index
        with pytest.raises(ValueError):
            corpus.class_index(2)

    def test_arrays_intern_ids_in_record_order(self):
        corpus = build_corpus(
            {"B": 2001, "A": 2000, "C": 2003},
            cites=[("C", "A"), ("B", "A"), ("C", "B")],
            texts={pid: {"title": pid.lower()} for pid in "ABC"},
        )
        assert corpus.ids == ("B", "A", "C")
        assert [tokens_of(corpus, "title", pid) for pid in corpus.ids] == [["b"], ["a"], ["c"]]
        assert corpus.position == {"B": 0, "A": 1, "C": 2}
        assert corpus.year.tolist() == [2001, 2000, 2003]
        assert corpus.citing.tolist() == [2, 0, 2]
        assert corpus.cited.tolist() == [1, 1, 0]
        assert corpus.year[corpus.citing].tolist() == [2003, 2001, 2003]
        assert {a.dtype.name for a in (corpus.year, corpus.citing, corpus.cited)} == {"int32"}

    def test_years(self):
        corpus = build_corpus({"A": 2000, "B": 2000, "C": 2002})
        assert corpus.years() == [2000, 2001, 2002]

    def test_mask_marks_positions(self):
        corpus = build_corpus({"B": 2001, "A": 2000, "C": 2003})
        assert corpus.mask({"A", "C"}).tolist() == [False, True, True]
        assert corpus.mask(set()).tolist() == [False, False, False]
        assert corpus.mask(corpus.ids).tolist() == [True, True, True]
        for ids in ({"A", "C"}, set(), set(corpus.ids)):
            assert corpus.members(corpus.mask(ids)) == ids

    def test_mask_rejects_unknown_id(self):
        corpus = build_corpus({"X": 2000, "Y": 2001})
        with pytest.raises(DataError, match=r"2 group members not in corpus \(e.g. no, nope\)"):
            corpus.mask({"X", "nope", "no"})

    def test_contains_and_len(self):
        corpus = build_corpus({"A": 2000})
        assert "A" in corpus.position and "B" not in corpus.position
        assert len(corpus) == 1


@pytest.mark.parametrize("seed", range(20))
def test_distinct_equals_np_unique(seed):
    """The sort-and-diff `distinct` gives what `np.unique` gives, value for
    value and in the same dtype."""
    rng = np.random.default_rng(9100 + seed)
    for dtype in (np.int32, np.int64):
        span = int(rng.integers(1, 1000))
        values = rng.integers(-span, span, int(rng.integers(0, 300)), dtype=dtype)
        cases = [values, np.sort(values), values[:0], values[:1], np.full(5, -7, dtype)]
        cases.append(np.array([np.iinfo(dtype).min, 0, np.iinfo(dtype).max, 0], dtype))
        for case in cases:
            before = case.copy()
            got, want = distinct(case), np.unique(case)
            assert got.dtype == want.dtype and got.tolist() == want.tolist()
            assert np.array_equal(case, before)  # the input is left as it was


def test_index_tokens_holds_only_its_ids():
    """Building the token index of a generated corpus as ingest builds it,
    the texts of `_TEXT_BLOCK` patents at a time, peaks at no more than
    640 KiB above the arrays it returns (the vocabulary, the last text block
    and a renumbering block): each field's ids are built at 2 bytes a token,
    as its vocabulary fits in 65,536 names, and renumbered where they lie, so
    a second copy of the largest field's ids would not fit in the bound."""
    corpus = text_heavy_corpus()
    texts = texts_of(corpus)
    rows = list(zip(*(texts[name] for name in TEXT_FIELDS)))

    def build():
        indexer = TokenIndexer()
        for start in range(0, len(rows), corpus_module._TEXT_BLOCK):
            indexer.add(rows[start : start + corpus_module._TEXT_BLOCK])
        return indexer.build()

    index, peak = traced_peak(build)
    assert_same(index, corpus.tokens(), "tokens")
    assert {csr.ids.dtype for csr in index.values()} == {np.dtype(np.uint16)}
    size = sum(csr.ids.nbytes + csr.indptr.nbytes for csr in index.values())
    bound = 640 * 2**10
    assert max(csr.ids.nbytes for csr in index.values()) > bound
    assert peak - size <= bound, peak - size


def wide_vocabulary_rows(names, wide_field):
    """Patent rows over the `names` distinct tokens t0, t1, ..., all but
    40,000 of them first seen in the `wide_field` text of the last patent;
    the other fields hold only tokens seen before, so their own ids fit in 2
    bytes whatever the size of the vocabulary."""
    words = [f"t{k}" for k in range(names)]
    early = " ".join(words[:5])
    rows = [("P0", 2000, " ".join(words[:40_000]), early, "", early), ("P1", 2000, "", "", early, "")]
    last = dict.fromkeys(TEXT_FIELDS, early) | {wide_field: " ".join(words[40_000:])}
    return rows + [("P2", 2000, *(last[name] for name in TEXT_FIELDS))]


@pytest.mark.parametrize("names, wide_field", [
    (2**16, "title"), (2**16, "description"),
    (2**16 + 1, "title"), (2**16 + 1, "description"), (120_010, "abstract"),
])
def test_token_ids_two_bytes_while_vocabulary_fits(monkeypatch, names, wide_field):
    """Token ids are uint16 in every field while the shared vocabulary holds
    at most 65,536 names, and int32 in every field past that, also in a
    field whose own ids all fit in 2 bytes, and in fields filled in an
    earlier text block than the one that widens them; the index equals the
    regular expression oracle's."""
    monkeypatch.setattr(corpus_module, "_TEXT_BLOCK", 2)
    rows = wide_vocabulary_rows(names, wide_field)
    corpus = ingest_rows({"patents": rows}, window=(2000, 2000))
    want = np.uint16 if names <= 2**16 else np.int32
    assert len(corpus.tokens()["title"].names) == names
    assert {csr.ids.dtype for csr in corpus.tokens().values()} == {np.dtype(want)}
    assert_same(corpus.tokens(), ref_corpus.index_tokens(texts_of(corpus)), "tokens")


class TestIngestText:
    ROWS = [
        ("P1", 2000, "alpha", "", "", ""),
        ("P0", 1999, "zeppelin", "", "", ""),  # out of the window
        None,  # a short line
        ("", 2000, "zeppelin", "", "", ""),
        ("P2", 2001, "beta gamma", "", "", "omega"),
    ]

    def test_rejected_rows_add_no_tokens(self, monkeypatch):
        monkeypatch.setattr(corpus_module, "_TEXT_BLOCK", 2)
        corpus, report = ingest(patents=self.ROWS)
        assert report.tables["patents"].rejected_total == 3
        assert corpus.tokens()["title"].names == ("alpha", "beta", "gamma", "omega")
        assert [tokens_of(corpus, "title", pid) for pid in corpus.ids] == [["alpha"], ["beta", "gamma"]]
        assert tokens_of(corpus, "description", "P2") == ["omega"]

    def test_strict_ingest_tokenizes_no_row_from_its_first_bad_one(self, monkeypatch):
        seen = []
        token_bytes = corpus_module._token_bytes
        monkeypatch.setattr(corpus_module, "_token_bytes", lambda text: seen.append(text) or token_bytes(text))
        with pytest.raises(DataError, match="patents: line 3: rejected row"):
            corpus_module.ingest({"patents": ("patents", self.ROWS)}, window=(2000, 2010), strict=True)
        assert not {"zeppelin", "beta gamma", "omega"} & set(seen), seen

    def test_corpus_without_text_refuses_its_tokens(self):
        corpus, report = corpus_module.ingest({"patents": ("patents", self.ROWS)}, window=(2000, 2010), text=False)
        assert corpus.token_index is None and corpus.ids == ("P1", "P2")
        assert report.tables["patents"].rejected_total == 3
        for read in (corpus.tokens, lambda: cls.classify_keyword(corpus), lambda: cls.classify_wipo(corpus)):
            with pytest.raises(ValueError, match="ingested with text=False"):
                read()
        assert cls.classify_prefix_group(corpus, "All") == {"P1", "P2"}
