"""In-memory patent corpus: records, CPC assignments, citations, science links.

The corpus is immutable once built.  `CorpusBuilder` is the single place where
row-level validation happens; `io.ingest` feeds it every row, whether read
from files or freshly generated.  Builders name the reason for every rejected
row; callers decide whether a rejection is fatal (strict mode) or merely
counted.  A patent is known by its position in `Corpus.records`; a citation
exists only as a (citing, cited) pair of positions, and CPC codes as the
interned rows of `Corpus.codes`.  Text is interned once per corpus, in
`Corpus.tokens()`, for the classifiers to read.
"""

from __future__ import annotations

import re
from array import array
from bisect import bisect_left, bisect_right
from collections import defaultdict
from dataclasses import dataclass, field
from itertools import repeat
from operator import attrgetter
from string import ascii_lowercase, digits
from typing import Any, Callable, Hashable, Iterable, Mapping

import numpy as np

from .errors import CpcParseError, DataError

#: A token is a maximal run of ASCII ``[0-9a-z]`` in the lowercased text.
#: This table keeps those bytes and turns every other byte into a space;
#: after `str.lower()` a non-ASCII character encodes to bytes >= 0x80 only,
#: so it separates tokens too.
_TOKEN_BYTES = bytes(b if chr(b) in digits + ascii_lowercase else 0x20 for b in range(256))

# Section letter, two-digit class, subclass letter, optional group/subgroup tail.
_CPC_RE = re.compile(r"^[A-HY][0-9]{2}[A-Z](?:[0-9]+(?:/[0-9]+)?)?$")

#: CPC hierarchy depths usable as a truncation level.
LEVELS = (1, 3, 4)

DEFAULT_WINDOW = (1990, 2019)

#: The text fields of a record.
TEXT_FIELDS = ("title", "abstract", "claims", "description")


def _token_bytes(text: str) -> list[bytes]:
    """The tokens of `text`, as ASCII bytes."""
    return text.lower().encode("utf-8", "surrogatepass").translate(_TOKEN_BYTES).split()


def tokenize(text: str) -> list[str]:
    """Lowercase ASCII alphanumeric tokens; every other character separates."""
    return [tok.decode("ascii") for tok in _token_bytes(text)]


def parse_cpc(raw: str) -> str:
    """Normalise and validate a CPC symbol string.

    Whitespace is stripped and letters uppercased.  The symbol must be at
    least subclass-deep (e.g. ``G06N``); a group tail such as ``G06N20/00``
    is allowed.  Raises `CpcParseError` otherwise.
    """
    cleaned = raw.strip().upper().replace(" ", "")
    if not _CPC_RE.match(cleaned):
        raise CpcParseError(f"not a valid CPC symbol: {raw!r}")
    return cleaned


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

    def build(self) -> "Corpus":
        year = np.array(self._year, np.int32)
        citing = np.array(self._citing, np.int32)
        owners, raws = zip(*self._codes) if self._codes else ((), ())
        names, of_code = np.unique(raws, return_inverse=True)
        return Corpus(
            records=tuple(self._records),
            ids=tuple(self._position),
            position=dict(self._position),
            year=year,
            codes=_distinct_rows(len(year), np.array(owners, np.int64), of_code, tuple(names.tolist())),
            citing=citing,
            cited=np.array(self._cited, np.int32),
            citing_year=year[citing],
            science=tuple(self._science),
            window=self.window,
        )


@dataclass(frozen=True, eq=False)
class Csr:
    """Rows of ids into sorted `names`, in CSR form: row i (a patent
    position) holds ids[indptr[i]:indptr[i + 1]].  Ids number the sorted
    names, so ascending ids are sorted names.  A row of CPC codes or classes
    holds distinct ids, ascending; a row of text tokens holds them in text
    order."""

    names: tuple[str, ...]
    indptr: np.ndarray
    ids: np.ndarray

    def owners(self) -> np.ndarray:
        """The row of each entry of `ids`."""
        counts = np.diff(self.indptr)
        return np.repeat(np.arange(len(counts), dtype=np.int32), counts)

    def id_of(self, name: str) -> int:
        """The id of `name`, or -1 when it is not among the names."""
        k = bisect_left(self.names, name)
        return k if self.names[k : k + 1] == (name,) else -1

    def carriers(self, prefix: str) -> np.ndarray:
        """Boolean mask over the rows holding a name that starts with
        `prefix`.  Such names are one range of the sorted names."""
        head = lambda name: name[: len(prefix)]  # noqa: E731
        lo, hi = bisect_left(self.names, prefix, key=head), bisect_right(self.names, prefix, key=head)
        held = np.concatenate([[0], np.cumsum((self.ids >= lo) & (self.ids < hi))])
        return held[self.indptr[1:]] > held[self.indptr[:-1]]

    def take(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(i, id) of each entry of the rows `rows` in turn, i indexing
        `rows`; int32 throughout."""
        count = np.diff(self.indptr)[rows]
        # an entry's place in `ids` is its row's start plus its rank in the row
        at = np.repeat(self.indptr[rows] - np.cumsum(count, dtype=np.int32) + count, count)
        at += np.arange(len(at), dtype=np.int32)
        return np.repeat(np.arange(len(rows), dtype=np.int32), count), self.ids[at]


def _distinct_rows(n_rows: int, owners: np.ndarray, ids: np.ndarray, names: tuple[str, ...]) -> Csr:
    """A `Csr` of `n_rows` rows holding the distinct (owner, id) pairs."""
    owners, ids = np.divmod(np.unique(owners.astype(np.int64) * len(names) + ids), max(len(names), 1))
    indptr = np.zeros(n_rows + 1, np.int32)
    np.cumsum(np.bincount(owners, minlength=n_rows), out=indptr[1:])
    return Csr(names, indptr, ids.astype(np.int32))


def index_tokens(fields: Mapping[str, Iterable[str]]) -> dict[str, Csr]:
    """Tokenize every text of each field once: one `Csr` per field, whose
    row i holds the tokens of text i, over one vocabulary shared by all
    fields.  Ids are given in order of first sight, then renumbered in
    token order; only the sorted vocabulary is decoded to `str`."""
    seen: defaultdict[bytes, int] = defaultdict()
    seen.default_factory = seen.__len__  # a new token takes the next id
    csr = {}
    for name, texts in fields.items():
        ids, indptr = [], [0]
        for text in texts:
            ids += map(seen.__getitem__, _token_bytes(text))
            indptr.append(len(ids))
        csr[name] = (np.array(indptr, np.int32), np.array(ids, np.int32))
    vocab = sorted(seen)
    rank = np.empty(len(vocab), np.int32)
    rank[[seen[tok] for tok in vocab]] = np.arange(len(vocab), dtype=np.int32)
    names = tuple(tok.decode("ascii") for tok in vocab)
    return {name: Csr(names, indptr, rank[ids]) for name, (indptr, ids) in csr.items()}


@dataclass(frozen=True, eq=False)
class Corpus:
    """Immutable corpus, every patent known by its position in `records`.

    `ids` and `year` hold each patent's id and grant year by position, and
    `position` maps an id back.  `codes` holds each patent's CPC codes.
    `citing`, `cited` and `citing_year` hold one entry per citation, in
    acceptance order.  Arrays are int32.  All derived indexes are
    deterministic functions of the content.
    """

    records: tuple[PatentRecord, ...]
    ids: tuple[str, ...]
    position: dict[str, int]
    year: np.ndarray
    codes: Csr
    citing: np.ndarray
    cited: np.ndarray
    citing_year: np.ndarray
    science: tuple[ScienceLink, ...]
    window: tuple[int, int] = DEFAULT_WINDOW
    _caches: dict = field(default_factory=dict, repr=False, compare=False)

    def __len__(self) -> int:
        return len(self.records)

    def memo(self, key: Hashable, build: Callable[[], Any], slot: Hashable = None) -> Any:
        """The value derived under `key`, made by `build()` on first use.
        Keys that share a `slot` keep only the latest value."""
        slot = key if slot is None else slot
        if slot not in self._caches or self._caches[slot][0] != key:
            self._caches.pop(slot, None)  # free the old value before building
            self._caches[slot] = (key, build())
        return self._caches[slot][1]

    def mask(self, ids: Iterable[str]) -> np.ndarray:
        """Boolean mask over patent positions marking `ids`, the form in
        which `metrics` takes a group.  An id not in the corpus is a
        `DataError`."""
        ids = frozenset(ids)
        at = np.fromiter(map(self.position.get, ids, repeat(-1)), np.int32, len(ids))
        if (at < 0).any():
            unknown = sorted(p for p in ids if p not in self.position)
            sample = ", ".join(unknown[:3])
            raise DataError(f"{len(unknown)} group members not in corpus (e.g. {sample})")
        mask = np.zeros(len(self), bool)
        mask[at] = True
        return mask

    def tokens(self) -> dict[str, Csr]:
        """The tokens of every patent, one `Csr` per text field."""
        return self.memo("tokens", lambda: index_tokens(
            {name: map(attrgetter(name), self.records) for name in TEXT_FIELDS}
        ))

    def class_index(self, level: int) -> Csr:
        """The level-truncated CPC classes of every patent."""
        if level not in LEVELS:
            raise ValueError(f"unsupported CPC level {level!r}, expected one of {LEVELS}")
        return self.memo(("class_index", level), lambda: self._build_class_index(level))

    def _build_class_index(self, level: int) -> Csr:
        codes = self.codes
        names, of_code = np.unique([raw[:level] for raw in codes.names], return_inverse=True)
        return _distinct_rows(len(self), codes.owners(), of_code[codes.ids], tuple(names.tolist()))

    def years(self) -> list[int]:
        lo, hi = self.window
        return list(range(lo, hi + 1))
