"""In-memory patent corpus: patent columns, CPC codes, citations, science links.

The corpus is immutable once built.  `io.ingest` is the one place that
validates table rows and builds it, whether the rows are read from files or
freshly generated.  A patent is known by its position: its id, its grant
year and each text field's row of tokens sit at that position.  A
citation exists only as a (citing, cited) pair of positions, CPC codes as
the interned rows of `Corpus.codes`, and a science link as one entry of
three columns.  Text is tokenized while it is ingested, a block of patents
at a time by a `TokenIndexer`, and only its token ids are kept, in
`Corpus.tokens()`, for the classifiers to read.
"""

from __future__ import annotations

import re
from array import array
from bisect import bisect_left, bisect_right
from collections import defaultdict
from dataclasses import dataclass, field
from itertools import compress, repeat
from string import ascii_lowercase, digits
from typing import Any, Callable, Hashable, Iterable, Sequence

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

#: The text fields of a patent, each one `Csr` of the token index.
TEXT_FIELDS = ("title", "abstract", "claims", "description")

#: Token ids renumbered per step of `TokenIndexer.build`.
_RENUMBER_BLOCK = 1 << 16


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


def distinct(values: np.ndarray) -> np.ndarray:
    """`np.unique` of the 1-D `values`, by a sort and a diff."""
    values = np.sort(values)
    keep = np.ones(len(values), bool)
    np.not_equal(values[1:], values[:-1], out=keep[1:])
    return values[keep]


def distinct_rows(n_rows: int, owners: np.ndarray, ids: np.ndarray, names: tuple[str, ...]) -> Csr:
    """A `Csr` of `n_rows` rows holding the distinct (owner, id) pairs."""
    owners, ids = np.divmod(distinct(owners.astype(np.int64) * len(names) + ids), max(len(names), 1))
    indptr = np.zeros(n_rows + 1, np.int32)
    np.cumsum(np.bincount(owners, minlength=n_rows), out=indptr[1:])
    return Csr(names, indptr, ids.astype(np.int32))


def interner() -> defaultdict:
    """A dict that gives each key it has not held the next id: 0, 1, ..."""
    ids: defaultdict = defaultdict()
    ids.default_factory = ids.__len__
    return ids


class TokenIndexer:
    """Builds the token index of a corpus from the texts of its patents,
    handed over a block of patents at a time: one `Csr` per text field, row
    i holding the tokens of patent i, over one vocabulary shared by all
    fields.  Each field's ids are built into one 4-byte buffer, in order of
    first sight, and `build` renumbers them in token order in place, a
    fixed block at a time, so the returned arrays are the only token-sized
    ones; only the sorted vocabulary is decoded to `str`."""

    def __init__(self) -> None:
        self._seen = interner()
        self._fields = [(array("i"), array("i", [0])) for _ in TEXT_FIELDS]

    def add(self, texts: Iterable[Sequence[str]]) -> None:
        """Tokenize the next patents, each given as its `TEXT_FIELDS` texts."""
        seen = self._seen.__getitem__
        for (ids, indptr), column in zip(self._fields, zip(*texts)):
            for text in column:
                ids.fromlist(list(map(seen, _token_bytes(text))))
                indptr.append(len(ids))

    def build(self) -> dict[str, Csr]:
        """The index of every text added; its ids are renumbered in place, so call it once."""
        vocab = sorted(self._seen)
        rank = np.empty(len(vocab), np.int32)
        rank[[self._seen[tok] for tok in vocab]] = np.arange(len(vocab), dtype=np.int32)
        fields = [(np.frombuffer(indptr, np.int32), np.frombuffer(ids, np.int32)) for ids, indptr in self._fields]
        for _, ids in fields:
            for start in range(0, len(ids), _RENUMBER_BLOCK):
                block = ids[start : start + _RENUMBER_BLOCK]
                block[:] = rank[block]  # rank[ids] or np.take(..., out=ids) would copy all of ids
        names = tuple(tok.decode("ascii") for tok in vocab)
        return {name: Csr(names, *field) for name, field in zip(TEXT_FIELDS, fields)}


@dataclass(frozen=True, eq=False)
class Corpus:
    """Immutable corpus, every patent known by its position in `ids`.

    `year` holds each patent's grant year by position, and `position` maps
    an id back.  `token_index` holds the tokens of each patent's texts, one
    `Csr` per text field, or None for a corpus ingested without its text;
    the raw text is not kept.  `codes` holds each patent's CPC codes.
    `citing` and `cited` hold one entry per citation, and `science_patent`,
    `science_label` and `science_confidence` one per science link, in
    acceptance order.  Arrays are int32, but for the int64 confidences.  All
    derived indexes are deterministic functions of the content.
    """

    ids: tuple[str, ...]
    position: dict[str, int]
    year: np.ndarray
    token_index: dict[str, Csr] | None
    codes: Csr
    citing: np.ndarray
    cited: np.ndarray
    science_patent: np.ndarray
    science_label: tuple[str, ...]
    science_confidence: np.ndarray
    window: tuple[int, int] = DEFAULT_WINDOW
    _caches: dict = field(default_factory=dict, repr=False, compare=False)

    def __len__(self) -> int:
        return len(self.ids)

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

    def members(self, mask: np.ndarray) -> frozenset[str]:
        """The ids of the patents `mask` marks, the inverse of `mask`."""
        return frozenset(compress(self.ids, mask.tolist()))

    def tokens(self) -> dict[str, Csr]:
        """The tokens of every patent, one `Csr` per text field."""
        if self.token_index is None:
            raise ValueError("the corpus was ingested with text=False: it holds no token index")
        return self.token_index

    def class_index(self, level: int) -> Csr:
        """The level-truncated CPC classes of every patent."""
        if level not in LEVELS:
            raise ValueError(f"unsupported CPC level {level!r}, expected one of {LEVELS}")
        return self.memo(("class_index", level), lambda: self._build_class_index(level))

    def _build_class_index(self, level: int) -> Csr:
        codes = self.codes
        names, of_code = np.unique([raw[:level] for raw in codes.names], return_inverse=True)
        return distinct_rows(len(self), codes.owners(), of_code[codes.ids], tuple(names.tolist()))

    def years(self) -> list[int]:
        lo, hi = self.window
        return list(range(lo, hi + 1))
