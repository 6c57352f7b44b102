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
