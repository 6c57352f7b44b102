"""`io.ingest` against the per-row oracle `reference_corpus.ingest` on random
tables that hit every reject reason, in both modes: equal corpora field by
field, equal reports byte for byte, and equal `DataError` texts."""

import random
from collections import Counter

import pytest

from patmetrics import corpus as corpus_module
from patmetrics.errors import DataError
from patmetrics.io import parse_cpc

import reference_corpus as ref
from helpers import assert_same_corpus

WINDOW = (2000, 2009)
CODES = ["G06N20/00", " g06n20/00", "G06N 20/00", "g06n", "G06N", "H04L9/40", "A01B", "y02e10/70", "B82Y"]
BAD_CODES = ["bogus", "G6N", "", "G06N/12"]
LABELS = ["CS", " CS ", "Physics; Applied", "cs"]


def maybe_text(rng, value):
    """`value` as a file cell (str) or, as the generator gives it, an int."""
    return str(value) if rng.random() < 0.7 else value


def unique(rows, key):
    """The rows whose `key(*row)` no earlier row has."""
    first = {}
    for row in rows:
        first.setdefault(key(*row), row)
    return list(first.values())


def random_tables(rng):
    """Four tables over a few patent ids, each row bad with the set's own
    rate; at the lower rate the patent table is clean, so that strict mode
    reaches the other tables.  A table is sometimes left out."""
    bad = rng.choice([0.0, 0.05, 0.3])
    messy_patents = bad > 0.1
    pids = [f"P{k}" for k in range(rng.randrange(1, 12))]
    ghosts = ["PX", "", "  "]

    def some_id():
        pid = rng.choice(pids) if rng.random() > bad else rng.choice(pids + ghosts)
        return f" {pid} " if rng.random() < 0.1 else pid

    patents = []
    for pid in pids:
        if messy_patents and rng.random() < 0.2:  # an out-of-window copy first, not a duplicate
            patents.append((pid, maybe_text(rng, rng.choice([1999, 2010])), "t", "", "", ""))
        patents.append((pid, maybe_text(rng, rng.randrange(2000, 2010)), f"title {pid}", "a", "c", "d"))
    for _ in range(rng.randrange(0, 4) if messy_patents else 0):
        patents.insert(rng.randrange(len(patents) + 1), rng.choice([
            None,
            ("", 2001, "", "", "", ""),
            ("  ", 2001, "", "", "", ""),
            ("PY", "20x1", "", "", "", ""),
            ("PY", "", "", "", "", ""),
            ("PZ", 1980, "", "", "", ""),
        ]))
    if rng.random() < 0.1:  # a repeated id after it was accepted aborts
        patents.append((rng.choice(pids), 2005, "", "", "", ""))

    def rows(make, wrong, n_max=40):
        return [
            None if rng.random() < bad / 4 else wrong() if rng.random() < bad else make()
            for _ in range(rng.randrange(0, n_max))
        ]

    cpc = rows(
        lambda: (some_id(), rng.choice(CODES)),
        lambda: (some_id(), rng.choice(BAD_CODES)),
    )

    def citation():
        citing, cited = some_id(), some_id()
        stated = rng.choice([2000, 2005, 2009]) if rng.random() < 0.3 else 2000 + rng.randrange(10)
        return citing, cited, maybe_text(rng, stated)

    citations = rows(
        citation,
        lambda: (some_id(), some_id(), rng.choice(["x", "", "2000.5"])),
        n_max=60,
    )
    # repeat some rows, negative-lag and self citations among them
    citations += rng.sample(citations, min(len(citations), rng.randrange(0, 6)))
    science = rows(
        lambda: (some_id(), rng.choice(LABELS), maybe_text(rng, rng.randrange(1, 6))),
        lambda: (some_id(), rng.choice(["", "   ", "CS"]), rng.choice([0, -1, "0", "x", "4.0"])),
    )
    science += rng.sample(science, min(len(science), rng.randrange(0, 4)))
    if not bad:  # a clean set: drop the repeats and backward citations too
        year = {row[0]: int(row[1]) for row in patents if WINDOW[0] <= int(row[1]) <= WINDOW[1]}
        cpc = unique(cpc, lambda pid, code: (pid.strip(), parse_cpc(code)))
        citations = unique(
            [row for row in citations if year[row[0].strip()] >= year[row[1].strip()]],
            lambda citing, cited, _: (citing.strip(), cited.strip()),
        )
        citations = [row for row in citations if row[0].strip() != row[1].strip()]
        science = unique(science, lambda pid, label, confidence: (pid.strip(), label.strip(), int(confidence)))
    tables = {"patents": patents, "cpc": cpc, "citations": citations, "science": science}
    for name in ("cpc", "citations", "science"):
        if rng.random() < 0.1:
            del tables[name]
    return {name: (f"{name}.tsv", rows) for name, rows in tables.items()}


def outcome(ingest, tables, strict):
    try:
        return ingest(tables, window=WINDOW, strict=strict)
    except DataError as exc:
        return str(exc)


@pytest.mark.parametrize("strict", [False, True], ids=["lenient", "strict"])
def test_ingest_equals_per_row_oracle(strict):
    seen = Counter()
    for seed in range(250):
        tables = random_tables(random.Random(seed))
        got = outcome(corpus_module.ingest, tables, strict)
        want = outcome(ref.ingest, tables, strict)
        if isinstance(want, str):
            assert got == want, seed
            seen["duplicate id" if "duplicate patent id" in want else "strict"] += 1
            continue
        corpus, report = got
        assert_same_corpus(corpus, want[0])
        assert report.format().encode() == want[1].format().encode(), seed
        seen["built"] += 1
        for t in report.tables.values():
            seen.update(t.rejected.keys())
            seen.update(t.warnings.keys())
    # the random tables reach every outcome and, leniently, every reason
    assert seen["built"] and seen["duplicate id"]
    if strict:
        assert seen["strict"]
    else:
        reasons = {reason for names in corpus_module._REJECTS.values() for reason in names}
        assert reasons | {"citing_year_mismatch"} <= set(seen), seen
