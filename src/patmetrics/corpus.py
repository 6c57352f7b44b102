"""In-memory patent corpus: records, CPC assignments, citations, science links.

The corpus is immutable once built.  `CorpusBuilder` is the single place where
row-level validation happens; `io.ingest` feeds it every row, whether read
from files or freshly generated.  Builders name the reason for every rejected
row; callers decide whether a rejection is fatal (strict mode) or merely
counted.  A patent is known by its position in `records` order, and a
citation exists only as a (citing, cited) pair of positions in
`Corpus.arrays()`.
"""

from __future__ import annotations

import re
from array import array
from dataclasses import dataclass, field
from itertools import repeat
from typing import Any, Callable, Hashable, Iterable, Iterator

import numpy as np

from .errors import CpcParseError, DataError

# Section letter, two-digit class, subclass letter, optional group/subgroup tail.
_CPC_RE = re.compile(r"^[A-HY][0-9]{2}[A-Z](?:[0-9]+(?:/[0-9]+)?)?$")

#: CPC hierarchy depths usable as a truncation level.
LEVELS = (1, 3, 4)

DEFAULT_WINDOW = (1990, 2019)


@dataclass(frozen=True, slots=True)
class CpcCode:
    """A validated CPC symbol.  Prefix views expose the hierarchy levels."""

    raw: str

    @property
    def subclass4(self) -> str:
        return self.raw[:4]


def parse_cpc(raw: str) -> CpcCode:
    """Normalise and validate a CPC symbol string.

    Whitespace is stripped and letters uppercased.  The symbol must be at
    least subclass-deep (e.g. ``G06N``); a group tail such as ``G06N20/00``
    is allowed.  Raises `CpcParseError` otherwise.
    """
    cleaned = raw.strip().upper().replace(" ", "")
    if not _CPC_RE.match(cleaned):
        raise CpcParseError(f"not a valid CPC symbol: {raw!r}")
    return CpcCode(cleaned)


@dataclass(frozen=True, slots=True)
class PatentRecord:
    """One granted patent.  Text fields may be empty but never None-typed away."""

    id: str
    grant_year: int
    title: str = ""
    abstract: str = ""
    claims: str = ""
    description: str = ""

    def text_fields(self) -> Iterator[tuple[str, str]]:
        yield "title", self.title
        yield "abstract", self.abstract
        yield "claims", self.claims
        yield "description", self.description


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
    position; accepted citations are kept as position pairs, in acceptance
    order.
    """

    def __init__(self, window: tuple[int, int] = DEFAULT_WINDOW):
        lo, hi = window
        if lo > hi:
            raise ValueError(f"empty corpus window {window!r}")
        self.window = (int(lo), int(hi))
        self._records: dict[str, PatentRecord] = {}
        self._position: dict[str, int] = {}
        self._year = array("i")
        self._codes: dict[str, list[CpcCode]] = {}
        self._code_seen: set[tuple[str, str]] = set()
        self._citing = array("i")
        self._cited = array("i")
        self._cite_seen: set[int] = set()  # citing << 32 | cited
        self._science: list[ScienceLink] = []
        self._sci_seen: set[tuple[str, str, int]] = set()

    def grant_year(self, patent_id: str) -> int:
        return self._records[patent_id].grant_year

    def add_record(self, rec: PatentRecord) -> str | None:
        if not rec.id:
            return "empty_id"
        if rec.id in self._records:
            raise DataError(f"duplicate patent id {rec.id!r}")
        lo, hi = self.window
        if not (lo <= rec.grant_year <= hi):
            return "year_out_of_window"
        self._position[rec.id] = len(self._records)
        self._year.append(rec.grant_year)
        self._records[rec.id] = rec
        return None

    def add_assignment(self, patent_id: str, raw_code: str) -> str | None:
        if patent_id not in self._records:
            return "unknown_patent"
        try:
            code = parse_cpc(raw_code)
        except CpcParseError:
            return "bad_code"
        key = (patent_id, code.raw)
        if key in self._code_seen:
            return "duplicate"
        self._code_seen.add(key)
        self._codes.setdefault(patent_id, []).append(code)
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
        if patent_id not in self._records:
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

    def build(self) -> "Corpus":
        year = np.array(self._year, np.int32)
        citing = np.array(self._citing, np.int32)
        return Corpus(
            records=dict(self._records),
            codes={p: tuple(cs) for p, cs in self._codes.items()},
            science=tuple(self._science),
            interned=CorpusArrays(
                tuple(self._records), dict(self._position), year,
                citing, np.array(self._cited, np.int32), year[citing],
            ),
            window=self.window,
        )


@dataclass(frozen=True, eq=False)
class CorpusArrays:
    """Patent ids interned to their positions in `records` order.  `year`
    holds grant years by position; `citing`, `cited` and `citing_year` hold
    one entry per citation, in acceptance order.  Arrays are int32."""

    ids: tuple[str, ...]
    position: dict[str, int]
    year: np.ndarray
    citing: np.ndarray
    cited: np.ndarray
    citing_year: np.ndarray


@dataclass(frozen=True, eq=False)
class ClassIndex:
    """Level-truncated CPC classes per patent position, in CSR form: the
    patent at position i holds the class ids ids[indptr[i]:indptr[i + 1]],
    ascending.  Class ids number the sorted class names, so ascending ids
    are sorted names."""

    names: tuple[str, ...]
    indptr: np.ndarray
    ids: np.ndarray

    def owners(self) -> np.ndarray:
        """The patent position of each entry of `ids`."""
        counts = np.diff(self.indptr)
        return np.repeat(np.arange(len(counts), dtype=np.int32), counts)


@dataclass(frozen=True, eq=False)
class Corpus:
    """Immutable corpus with lazily built indexes.

    `records` preserves insertion order; `interned` holds the patents and
    citations as positions in that order.  All derived indexes are
    deterministic functions of the content.
    """

    records: dict[str, PatentRecord]
    codes: dict[str, tuple[CpcCode, ...]]
    science: tuple[ScienceLink, ...]
    interned: CorpusArrays
    window: tuple[int, int] = DEFAULT_WINDOW
    _caches: dict = field(default_factory=dict, repr=False, compare=False)

    def __len__(self) -> int:
        return len(self.records)

    def __contains__(self, patent_id: str) -> bool:
        return patent_id in self.records

    def ids(self) -> Iterable[str]:
        return self.records.keys()

    def record(self, patent_id: str) -> PatentRecord:
        return self.records[patent_id]

    def codes_of(self, patent_id: str) -> tuple[CpcCode, ...]:
        return self.codes.get(patent_id, ())

    def memo(self, key: Hashable, build: Callable[[], Any], slot: Hashable = None) -> Any:
        """The value derived under `key`, made by `build()` on first use.
        Keys that share a `slot` keep only the latest value."""
        slot = key if slot is None else slot
        if slot not in self._caches or self._caches[slot][0] != key:
            self._caches.pop(slot, None)  # free the old value before building
            self._caches[slot] = (key, build())
        return self._caches[slot][1]

    def arrays(self) -> CorpusArrays:
        """Patents by position in `records` order, citations as positions."""
        return self.interned

    def mask(self, ids: Iterable[str]) -> np.ndarray:
        """Boolean mask over patent positions marking `ids`, the form in
        which `metrics` takes a group.  An id not in the corpus is a
        `DataError`."""
        ids = frozenset(ids)
        position = self.arrays().position
        at = np.fromiter(map(position.get, ids, repeat(-1)), np.int32, len(ids))
        if (at < 0).any():
            unknown = sorted(p for p in ids if p not in position)
            sample = ", ".join(unknown[:3])
            raise DataError(f"{len(unknown)} group members not in corpus (e.g. {sample})")
        mask = np.zeros(len(self), bool)
        mask[at] = True
        return mask

    def class_index(self, level: int) -> ClassIndex:
        """The level-truncated CPC classes of every patent, in CSR form."""
        if level not in LEVELS:
            raise ValueError(f"unsupported CPC level {level!r}, expected one of {LEVELS}")
        return self.memo(("class_index", level), lambda: self._build_class_index(level))

    def _build_class_index(self, level: int) -> ClassIndex:
        names = tuple(sorted({c.raw[:level] for cs in self.codes.values() for c in cs}))
        class_id = {name: k for k, name in enumerate(names)}
        position = self.arrays().position
        n = sum(map(len, self.codes.values()))
        owners = np.fromiter(
            (position[pid] for pid, cs in self.codes.items() for _ in cs), np.int64, n
        )
        ids = np.fromiter(
            (class_id[c.raw[:level]] for cs in self.codes.values() for c in cs), np.int64, n
        )
        # distinct (patent, class) keys, sorted: by position, then by class id
        owners, ids = np.divmod(np.unique(owners * len(names) + ids), len(names))
        indptr = np.zeros(len(position) + 1, np.int32)
        np.cumsum(np.bincount(owners, minlength=len(position)), out=indptr[1:])
        return ClassIndex(names, indptr, ids.astype(np.int32))

    def years(self) -> list[int]:
        lo, hi = self.window
        return list(range(lo, hi + 1))
