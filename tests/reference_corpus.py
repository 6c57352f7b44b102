"""The per-row corpus loader, kept as the oracle for `io.ingest`.

`CorpusBuilder` validates one row at a time, each accepted patent wrapped in
a `PatentRecord` and each science link in a `ScienceLink`; `ingest` feeds it
every row of every table.  This is the loader `io.ingest` replaced, unchanged
but for `CorpusBuilder.build`, which lays the records and links out as the
columns of today's `Corpus`, and the records' texts out as its token index,
tokenized by a regular expression (`index_tokens`).
"""

from __future__ import annotations

import re
from array import array
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from patmetrics.corpus import DEFAULT_WINDOW, TEXT_FIELDS, Corpus, Csr, LoadReport, TableReport, distinct_rows
from patmetrics.errors import CpcParseError, DataError
from patmetrics.io import TABLE_COLUMNS, parse_cpc

_TOKEN_RE = re.compile(r"[a-z0-9]+")


def tokenize(text: str) -> list[str]:
    """Maximal runs of ASCII letters and digits in the lowercased text."""
    return _TOKEN_RE.findall(text.lower())


def index_tokens(fields: Mapping[str, Iterable[str]]) -> dict[str, Csr]:
    """One `Csr` of token ids per field over the sorted vocabulary of all
    fields, row i holding the tokens of text i in text order.  Every
    field's ids are uint16 when the vocabulary holds at most 65,536 names,
    else int32."""
    tokens = {name: [tokenize(text) for text in texts] for name, texts in fields.items()}
    names = tuple(sorted({tok for rows in tokens.values() for row in rows for tok in row}))
    rank = {tok: k for k, tok in enumerate(names)}
    dtype = np.uint16 if len(names) <= 2**16 else np.int32
    out = {}
    for name, rows in tokens.items():
        indptr = np.cumsum([0] + [len(row) for row in rows]).astype(np.int32)
        ids = np.array([rank[tok] for row in rows for tok in row], dtype)
        out[name] = Csr(names, indptr, ids)
    return out


@dataclass(frozen=True, slots=True)
class PatentRecord:
    """One granted patent.  Text fields may be empty but never None-typed away."""

    id: str
    grant_year: int
    title: str = ""
    abstract: str = ""
    claims: str = ""
    description: str = ""


@dataclass(frozen=True, slots=True)
class ScienceLink:
    """A patent-to-science reference with a field label and a reliability
    confidence score (integer, >= 1)."""

    patent: str
    field_label: str
    confidence: int


class CorpusBuilder:
    """Accumulates rows with validation.  add_* methods return None when the
    row was accepted and the rejection reason when it was not.

    A duplicate patent id always raises: downstream identity assumptions
    would silently break otherwise.  Each accepted record takes the next
    position; accepted CPC assignments are kept as a set of (position,
    normalised code) pairs, and accepted citations as position pairs, in
    acceptance order.
    """

    def __init__(self, window: tuple[int, int] = DEFAULT_WINDOW):
        lo, hi = window
        if lo > hi:
            raise ValueError(f"empty corpus window {window!r}")
        self.window = (int(lo), int(hi))
        self._records: list[PatentRecord] = []
        self._position: dict[str, int] = {}
        self._year = array("i")
        self._codes: set[tuple[int, str]] = set()
        self._citing = array("i")
        self._cited = array("i")
        self._cite_seen: set[int] = set()  # citing << 32 | cited
        self._science: list[ScienceLink] = []
        self._sci_seen: set[tuple[str, str, int]] = set()

    def grant_year(self, patent_id: str) -> int:
        return self._year[self._position[patent_id]]

    def add_record(self, rec: PatentRecord) -> str | None:
        if not rec.id:
            return "empty_id"
        if rec.id in self._position:
            raise DataError(f"duplicate patent id {rec.id!r}")
        lo, hi = self.window
        if not (lo <= rec.grant_year <= hi):
            return "year_out_of_window"
        self._position[rec.id] = len(self._records)
        self._year.append(rec.grant_year)
        self._records.append(rec)
        return None

    def add_assignment(self, patent_id: str, raw_code: str) -> str | None:
        i = self._position.get(patent_id)
        if i is None:
            return "unknown_patent"
        try:
            key = (i, parse_cpc(raw_code))
        except CpcParseError:
            return "bad_code"
        if key in self._codes:
            return "duplicate"
        self._codes.add(key)
        return None

    def add_citation(self, citing: str, cited: str) -> str | None:
        i = self._position.get(citing)
        if i is None:
            return "unknown_citing"
        j = self._position.get(cited)
        if j is None:
            return "unknown_cited"
        if i == j:
            return "self_citation"
        key = i << 32 | j
        if key in self._cite_seen:
            return "duplicate"
        if self._year[i] < self._year[j]:
            return "negative_lag"
        self._cite_seen.add(key)
        self._citing.append(i)
        self._cited.append(j)
        return None

    def add_science_link(self, patent_id: str, field_label: str, confidence: int) -> str | None:
        if patent_id not in self._position:
            return "unknown_patent"
        label = field_label.strip()
        if not label:
            return "empty_field"
        if confidence < 1:
            return "bad_confidence"
        key = (patent_id, label, confidence)
        if key in self._sci_seen:
            return "duplicate"
        self._sci_seen.add(key)
        self._science.append(ScienceLink(patent_id, label, confidence))
        return None

    def build(self) -> Corpus:
        year = np.array(self._year, np.int32)
        owners, raws = zip(*self._codes) if self._codes else ((), ())
        names, of_code = np.unique(raws, return_inverse=True)
        links = self._science
        return Corpus(
            ids=tuple(self._position),
            position=dict(self._position),
            year=year,
            token_index=index_tokens({name: [getattr(r, name) for r in self._records] for name in TEXT_FIELDS}),
            codes=distinct_rows(len(year), np.array(owners, np.int64), of_code, tuple(names.tolist())),
            citing=np.array(self._citing, np.int32),
            cited=np.array(self._cited, np.int32),
            science_patent=np.array([self._position[link.patent] for link in links], np.int32),
            science_label=tuple(link.field_label for link in links),
            science_confidence=np.array([link.confidence for link in links], np.int64),
            window=self.window,
        )


def ingest(
    tables: Mapping[str, tuple[str, Iterable[Sequence | None]]],
    *,
    window: tuple[int, int] = DEFAULT_WINDOW,
    strict: bool = False,
) -> tuple[Corpus, LoadReport]:
    """Validate corpus table rows into a `Corpus` and its `LoadReport`, one
    `CorpusBuilder` call per row; the contract of `io.ingest`."""
    builder = CorpusBuilder(window=window)
    report = LoadReport(window=builder.window, strict=strict)

    # Row adders return None for an accepted row and the reason otherwise;
    # a ValueError from an integer cell means the row is malformed.
    def add_patent(row, table):
        pid, year, title, abstract, claims, description = row
        return builder.add_record(
            PatentRecord(pid.strip(), int(year), title, abstract, claims, description)
        )

    def add_cpc(row, table):
        return builder.add_assignment(row[0].strip(), row[1])

    def add_citation(row, table):
        citing = row[0].strip()
        stated_year = int(row[2])
        reason = builder.add_citation(citing, row[1].strip())
        # citing_year is resolved from the citing record; a stated year
        # that disagrees is worth flagging but not fatal.
        if reason is None and builder.grant_year(citing) != stated_year:
            table.warnings["citing_year_mismatch"] += 1
        return reason

    def add_science(row, table):
        return builder.add_science_link(row[0].strip(), row[1], int(row[2]))

    adders = {"patents": add_patent, "cpc": add_cpc, "citations": add_citation, "science": add_science}
    for name in TABLE_COLUMNS:
        if name not in tables:
            continue
        path, rows = tables[name]
        add = adders[name]
        t = report.tables[name] = TableReport(path)
        for lineno, row in enumerate(rows, start=2):
            t.rows += 1
            try:
                reason = "malformed" if row is None else add(row, t)
            except ValueError:
                reason = "malformed"
            if reason is None:
                t.accepted += 1
                continue
            t.rejected[reason] += 1
            if strict:
                raise DataError(f"{path}: line {lineno}: rejected row ({reason})")

    return builder.build(), report

