"""Small builders shared by the test modules."""

import os
import subprocess
import sys
import tracemalloc
import weakref
from dataclasses import fields
from functools import cache
from pathlib import Path

import numpy as np

import patmetrics
from patmetrics import corpus as corpus_module
from patmetrics import synth
from patmetrics.corpus import TEXT_FIELDS, Corpus, Csr

#: corpus -> the texts of its patents, one tuple per text field by
#: position, kept from the rows it was ingested from: the raw text that the
#: reference classifiers tokenize themselves, since the corpus keeps none.
_TEXTS = weakref.WeakKeyDictionary()


def ingest_rows(tables, **rules):
    """`io.ingest` of `tables`, name -> rows with each table named after
    itself, every patent row of which must be accepted; the texts of those
    rows are kept for `texts_of`."""
    corpus, _ = corpus_module.ingest({name: (name, rows) for name, rows in tables.items()}, **rules)
    patents = tables["patents"]
    assert len(patents) == len(corpus)  # so row k is the patent at position k
    _TEXTS[corpus] = {name: tuple(row[2 + k] for row in patents) for k, name in enumerate(TEXT_FIELDS)}
    return corpus


def texts_of(corpus):
    """field -> the texts of the patents of `corpus` by position, as the
    rows that `build_corpus` or `synth_corpus` ingested held them."""
    return _TEXTS[corpus]


def tokens_of(corpus, name, patent_id):
    """The tokens of the `name` field of a patent, read from the corpus's
    token index."""
    index = corpus.tokens()[name]
    p = corpus.position[patent_id]
    return [index.names[k] for k in index.ids[index.indptr[p] : index.indptr[p + 1]]]


def build_corpus(
    years,
    codes=None,
    cites=(),
    science=(),
    texts=None,
    window=None,
):
    """Assemble a corpus from plain dicts.

    years: id -> grant year; codes: id -> list of CPC strings;
    cites: (citing, cited) pairs; science: (id, field, confidence);
    texts: id -> dict of field overrides.
    """
    if window is None:
        lo, hi = min(years.values()), max(years.values())
        window = (lo, hi)
    texts = texts or {}
    tables = {
        "patents": [
            (pid, year, *(texts.get(pid, {}).get(name, "") for name in TEXT_FIELDS))
            for pid, year in years.items()
        ],
        "cpc": [(pid, code) for pid, code_list in (codes or {}).items() for code in code_list],
        "citations": [(citing, cited, years[citing]) for citing, cited in cites],
        "science": list(science),
    }
    # strict: a row that is not accepted fails the test that built it
    return ingest_rows(tables, window=window, strict=True)


def classes_at(corpus, level, patent_id):
    """The level-`level` class names of a patent, read from the corpus's
    class index."""
    index = corpus.class_index(level)
    p = corpus.position[patent_id]
    return {index.names[k] for k in index.ids[index.indptr[p] : index.indptr[p + 1]]}


def ids_of(corpus, mask):
    """The ids of the patents a mask marks."""
    return frozenset(corpus.ids[p] for p in np.flatnonzero(mask).tolist())


def codes_by_id(corpus):
    """patent id -> tuple of its CPC codes, sorted, for the patents with
    codes: the per-patent view that the reference loops walk."""
    codes = corpus.codes
    return {
        corpus.ids[p]: tuple(codes.names[k] for k in codes.ids[codes.indptr[p] : codes.indptr[p + 1]])
        for p in np.flatnonzero(np.diff(codes.indptr)).tolist()
    }


def synth_corpus(config):
    """The corpus and ground truth of `synth.generate(config)`: the rows are
    ingested as a synthetic `run` ingests them, each table named after
    itself, in the generator's own window."""
    tables, truth = synth.generate(config)
    return ingest_rows(tables, window=config.years), truth


@cache
def text_heavy_corpus():
    """A generated corpus shaped like the text-heavy workload: about 100
    title, abstract and claims tokens per patent over a 2000-word filler
    vocabulary, and thousands of patents.  Built once per test session."""
    return synth_corpus(synth.SynthConfig(
        rng_seed=5, base_count=60, growth=(0.07,), edges_per_patent=1,
        filler_vocab=2000, abstract_len=60, claims_len=40,
    ))[0]


@cache
def citation_heavy_corpus():
    """The generated corpus of the citation-heavy workload: about 5.6k
    patents and 67k citations, 12 edges per patent.  The synth config is
    read from the benchmark's workload file.  Built once per test session."""
    path = Path(__file__).resolve().parents[1] / "bench" / "workloads" / "citation-heavy.synth"
    return synth_corpus(synth.load_synth_config(str(path)))[0]


def traced_peak(call):
    """`call()` and the peak of the heap it allocated, in bytes."""
    tracemalloc.start()
    try:
        return call(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def assert_same_corpus(got, want):
    """Every field of two corpora is equal: each array in dtype too, and
    the code `Csr` and each `Csr` of the token index field by field."""
    for f in fields(Corpus):
        if f.name != "_caches":
            assert_same(getattr(got, f.name), getattr(want, f.name), f.name)


def assert_same(a, b, name):
    if isinstance(b, dict):
        assert a.keys() == b.keys(), name
        for key in b:
            assert_same(a[key], b[key], f"{name}[{key}]")
    elif isinstance(b, Csr):
        for f in fields(Csr):
            assert_same(getattr(a, f.name), getattr(b, f.name), f"{name}.{f.name}")
    elif isinstance(b, np.ndarray):
        assert a.dtype == b.dtype and np.array_equal(a, b), name
    else:
        assert a == b, name


def citation_triples(corpus):
    """(citing id, cited id, citing grant year) per citation, in corpus
    order."""
    ids = corpus.ids
    return [
        (ids[i], ids[j], year)
        for i, j, year in zip(corpus.citing.tolist(), corpus.cited.tolist(), corpus.year[corpus.citing].tolist())
    ]


def random_corpus(rng, n_max=200, e_max=1000):
    """A messy random corpus: variable codes per patent, random DAG edges."""
    n = rng.randrange(10, n_max)
    years = {f"P{i}": rng.randrange(2000, 2010) for i in range(n)}
    sections = "ABCDEFGH"
    codes = {}
    for p in years:
        k = rng.randrange(0, 4)  # zero codes happens on purpose
        if k:
            drawn = {
                f"{rng.choice(sections)}{rng.randrange(1, 99):02d}"
                f"{rng.choice('ABCDEFGHJKLMNPQRSTUVWXYZ')}"
                for _ in range(k)
            }
            codes[p] = sorted(drawn)
    ids = sorted(years)
    edges = set()
    for _ in range(rng.randrange(0, e_max)):
        a, b = rng.choice(ids), rng.choice(ids)
        if a != b and years[a] >= years[b]:
            edges.add((a, b))
    edges = sorted(edges)
    ai = set(rng.sample(ids, rng.randrange(1, max(2, n // 3))))
    corpus = build_corpus(years, codes=codes, cites=edges)
    return corpus, years, codes, edges, ai


def child_output(code, *argv):
    """What a fresh interpreter prints when it runs `code` with `argv`,
    importing `patmetrics` from the source tree these tests import."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(patmetrics.__file__)))
    result = subprocess.run([sys.executable, "-c", code, *argv], env=env, capture_output=True, text=True, check=True)
    return result.stdout
