"""Small builders shared by the test modules."""

from patmetrics.corpus import Corpus, CorpusBuilder, PatentRecord


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
    b = CorpusBuilder(window=window)
    for pid, year in years.items():
        overrides = (texts or {}).get(pid, {})
        b.add_record(PatentRecord(id=pid, grant_year=year, **overrides))
    for pid, code_list in (codes or {}).items():
        for code in code_list:
            assert b.add_assignment(pid, code) is None, (pid, code)
    for citing, cited in cites:
        assert b.add_citation(citing, cited) is None, (citing, cited)
    for pid, field_label, conf in science:
        assert b.add_science_link(pid, field_label, conf) is None, (pid, field_label)
    return b.build()


def classes_at(corpus, level, patent_id):
    """The level-`level` class names of a patent, read from the corpus's
    class index."""
    index = corpus.class_index(level)
    p = corpus.arrays().position[patent_id]
    return {index.names[k] for k in index.ids[index.indptr[p] : index.indptr[p + 1]]}
