"""In-memory patent corpus: patent columns, CPC codes, citations, science links.

The corpus is immutable once built.  `ingest` is the one place that
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

from array import array
from bisect import bisect_left, bisect_right
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from itertools import chain, compress, repeat
from typing import Any, Callable, Hashable, Iterable, Mapping, Sequence

import numpy as np

from .errors import CpcParseError, DataError
from .io import DEFAULT_WINDOW, TABLE_COLUMNS, _token_bytes, parse_cpc

#: CPC hierarchy depths usable as a truncation level.
LEVELS = (1, 3, 4)

#: The text fields of a patent, each one `Csr` of the token index.
TEXT_FIELDS = ("title", "abstract", "claims", "description")

#: Token ids renumbered per step of `TokenIndexer.build`.
_RENUMBER_BLOCK = 1 << 16


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
        `rows`; i is int32, and each id keeps the dtype of `ids`."""
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
    fields.  Each field's ids are built into one buffer, in order of first
    sight, at 2 bytes an id until the vocabulary outgrows 65,536 names and
    every field's buffer widens to 4, and `build` renumbers them in token
    order in place, a fixed block at a time, so the returned arrays are the
    only token-sized ones; only the sorted vocabulary is decoded to `str`."""

    def __init__(self) -> None:
        self._seen = interner()
        self._fields = [[array("H"), array("i", [0])] for _ in TEXT_FIELDS]

    def add(self, texts: Iterable[Sequence[str]]) -> None:
        """Tokenize the next patents, each given as its `TEXT_FIELDS` texts."""
        seen = self._seen.__getitem__
        for field, column in zip(self._fields, zip(*texts)):
            ids, indptr = field
            for text in column:
                row = list(map(seen, _token_bytes(text)))
                try:
                    ids.fromlist(row)  # leaves `ids` as it was when an id overflows
                except OverflowError:  # id 65,536 needs 4 bytes, and all fields share one dtype
                    for each in self._fields:
                        each[0] = array("i", each[0])
                    ids = field[0]
                    ids.fromlist(row)
                indptr.append(len(ids))

    def build(self) -> dict[str, Csr]:
        """The index of every text added; its ids are renumbered in place, so call it once."""
        vocab = sorted(self._seen)
        rank = np.empty(len(vocab), self._fields[0][0].typecode)
        rank[[self._seen[tok] for tok in vocab]] = np.arange(len(vocab), dtype=rank.dtype)
        fields = [(np.frombuffer(indptr, np.int32), np.frombuffer(ids, rank.dtype)) for ids, indptr in self._fields]
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
    `Csr` per text field, or None for a corpus ingested without its text
    (and in `run` once classify is done); the raw text is not kept.  `codes`
    holds each patent's CPC codes.  `citing` and `cited` hold one entry per
    citation, and `science_patent`, `science_label` and `science_confidence`
    one per science link, in acceptance order.  Arrays are int32, but for the int64 confidences
    and the token ids, uint16 up to 65,536 names.  All derived indexes are
    deterministic functions of the content.
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
            raise ValueError("the corpus holds no token index: it was ingested with text=False, "
                             "or its index was released once the classify stage had run")
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


# ---------------------------------------------------------------------------
# ingest

@dataclass
class TableReport:
    path: str
    rows: int = 0
    accepted: int = 0
    rejected: Counter = field(default_factory=Counter)
    warnings: Counter = field(default_factory=Counter)

    @property
    def rejected_total(self) -> int:
        return sum(self.rejected.values())


@dataclass
class LoadReport:
    window: tuple[int, int]
    strict: bool
    tables: dict[str, TableReport] = field(default_factory=dict)

    def format(self) -> str:
        lines = [
            f"corpus window: {self.window[0]}-{self.window[1]}",
            f"mode: {'strict' if self.strict else 'lenient'}",
        ]
        for name in TABLE_COLUMNS:
            if name not in self.tables:
                continue
            t = self.tables[name]
            lines.append(
                f"table {name}: rows={t.rows} accepted={t.accepted} "
                f"rejected={t.rejected_total} ({t.path})"
            )
            for reason in sorted(t.rejected):
                lines.append(f"  rejected {reason}: {t.rejected[reason]}")
            for reason in sorted(t.warnings):
                lines.append(f"  warning {reason}: {t.warnings[reason]}")
        return "\n".join(lines) + "\n"


#: Each table's reject reasons, in order of precedence: a bad row is
#: counted under the first that applies.  A row's reason code is the place
#: of its reason here plus one; 0 means accepted.
_REJECTS = {
    "patents": ("malformed", "empty_id", "year_out_of_window"),
    "cpc": ("malformed", "unknown_patent", "bad_code", "duplicate"),
    "citations": ("malformed", "unknown_citing", "unknown_cited", "self_citation", "negative_lag", "duplicate"),
    "science": ("malformed", "unknown_patent", "empty_field", "bad_confidence", "duplicate"),
}

_INT64 = np.iinfo(np.int64)

#: Accepted patent rows whose texts are tokenized together: the most text
#: that ingest holds beyond the rows its source hands it.
_TEXT_BLOCK = 512


def ingest(
    tables: Mapping[str, tuple[str, Iterable[Sequence | None]]],
    *,
    window: tuple[int, int] = DEFAULT_WINDOW,
    strict: bool = False,
    text: bool = True,
) -> tuple[Corpus, LoadReport]:
    """Validate corpus table rows into a `Corpus` and its `LoadReport`.

    `tables` maps names of `TABLE_COLUMNS` to `(path, rows)`.  Each row
    holds its cells in `TABLE_COLUMNS` order, or is None when its line has
    too few cells; `path` names the table in the report and in errors, which
    count the header as line 1.  In lenient mode bad rows are counted and
    skipped; in strict mode the first bad row raises `DataError` naming the
    file and line.  Duplicate patent ids abort in either mode.

    Patents are checked a row at a time, and the texts of the accepted ones
    tokenized into the corpus's token index a block at a time; with
    `text=False` they are skipped, and the corpus holds no token index.
    No text is kept.  Each other table is read whole, its id cells turned
    into patent positions as the rows stream by, and then checked with
    masks; so a table that fails to read reports that before any bad row.
    """
    lo, hi = window
    if lo > hi:
        raise ValueError(f"empty corpus window {window!r}")
    report = LoadReport(window=(int(lo), int(hi)), strict=strict)

    def rows(name):
        return tables[name][1] if name in tables else ()

    def tally(name, reason, **warnings):
        if name not in tables:
            return
        path, reasons = tables[name][0], _REJECTS[name]
        count = np.bincount(reason, minlength=len(reasons) + 1).tolist()
        if strict and count[0] < len(reason):
            first = int(np.argmax(reason > 0))
            raise DataError(f"{path}: line {first + 2}: rejected row ({reasons[reason[first] - 1]})")
        rejected = Counter(dict(zip(reasons, count[1:])))
        report.tables[name] = TableReport(path, len(reason), count[0], +rejected, +Counter(warnings))

    position, year, token_index, reason = _patents(rows("patents"), report.window, strict, text)
    tally("patents", reason)
    codes, reason = _cpc(rows("cpc"), position, len(year))
    tally("cpc", reason)
    citing, cited, mismatches, reason = _citations(rows("citations"), position, year)
    tally("citations", reason, citing_year_mismatch=mismatches)
    science, reason = _science(rows("science"), position)
    tally("science", reason)
    corpus = Corpus(
        ids=tuple(position), position=position, year=year, token_index=token_index,
        codes=codes, citing=citing, cited=cited, **science, window=report.window,
    )
    return corpus, report


def _reasons(rejects: list[np.ndarray], *keys: np.ndarray) -> np.ndarray:
    """Each row's reason code: k where the k-th of the masks `rejects` is
    the first to mark it, else the next code, for a duplicate, where its
    `keys` equal those of an earlier row, else 0.  Each mask is a function
    of the keys, so a repeat of a rejected row is rejected for the same
    reason: only a repeat of an accepted row is a duplicate."""
    order = np.lexsort(keys)  # stable: a repeat sorts after its first
    repeat = np.zeros(len(order), bool)
    repeat[order[1:][np.logical_and.reduce([key[order[1:]] == key[order[:-1]] for key in keys])]] = True
    return np.select([*rejects, repeat], range(1, len(rejects) + 2), 0)


def _stream(rows: Iterable[Sequence | None], cells, width: int, dtype=np.int32) -> np.ndarray:
    """The `width` ints `cells(row)` of each row, as one array row per table
    row, taken while the rows stream by.  A row that is None or whose
    integer cell does not parse (`cells` raises `ValueError`) is
    (-2, -1, ...): -2 marks it malformed."""
    malformed = (-2,) + (-1,) * (width - 1)

    def each():
        for row in rows:
            try:
                yield malformed if row is None else cells(row)
            except ValueError:
                yield malformed

    return np.fromiter(chain.from_iterable(each()), dtype).reshape(-1, width)


def _patents(rows: Iterable[Sequence | None], window: tuple[int, int], strict: bool, text: bool):
    """Check patent rows in order, for a repeated id aborts only against an
    id already accepted; in strict mode, stop after the first rejected row.
    The position of each accepted id, their grant years, the token index of
    their texts (None unless `text`), and the reason code of each row
    checked.  The texts of `_TEXT_BLOCK` accepted rows are tokenized at
    once, and then dropped."""
    lo, hi = window
    position: dict[str, int] = {}
    year: list[int] = []
    indexer, block = TokenIndexer(), []
    reason = bytearray()
    for row in rows:
        try:
            pid, grant, title, abstract, claims, description = row or ()  # None: a short line
            pid, grant = pid.strip(), int(grant)
        except ValueError:
            k = 1  # malformed
        else:
            if not pid:
                k = 2  # empty_id
            elif pid in position:
                raise DataError(f"duplicate patent id {pid!r}")
            else:
                k = 0 if lo <= grant <= hi else 3  # year_out_of_window
        reason.append(k)
        if k == 0:
            position[pid] = len(year)
            year.append(grant)
            if text:
                block.append((title, abstract, claims, description))
                if len(block) == _TEXT_BLOCK:
                    indexer.add(block)
                    block.clear()
        elif strict:
            break
    indexer.add(block)
    return position, np.array(year, np.int32), indexer.build() if text else None, np.frombuffer(reason, np.uint8)


def _normal_cpc(raw: str) -> str | None:
    try:
        return parse_cpc(raw)
    except CpcParseError:
        return None


def _cpc(rows: Iterable[Sequence | None], position: Mapping[str, int], n_patents: int):
    """The code `Csr` of the accepted CPC rows, and each row's reason code.
    Each distinct code cell is parsed once."""
    cells = interner()
    at, cell = _stream(rows, lambda row: (position.get(row[0].strip(), -1), cells[row[1]]), 2).T
    normal = [_normal_cpc(raw) for raw in cells]
    names = sorted(set(normal) - {None})
    rank = {name: k for k, name in enumerate(names)}
    code = np.array([rank.get(c, -1) for c in normal] + [-1], np.int32)[cell]  # a malformed row reads the last
    reason = _reasons([at == -2, at == -1, code < 0], at, code)
    ok = reason == 0
    held = np.bincount(code[ok], minlength=len(names)) > 0  # only the codes of accepted rows are names
    code = (np.cumsum(held, dtype=np.int32) - 1)[code[ok]]
    return distinct_rows(n_patents, at[ok], code, tuple(names[k] for k in np.flatnonzero(held).tolist())), reason


def _citations(rows: Iterable[Sequence | None], position: Mapping[str, int], year: np.ndarray):
    """The citing and cited positions of the accepted citation rows, how
    many of those state a citing year other than the citing patent's (the
    corpus keeps the patent's: worth flagging, not fatal), and each row's
    reason code."""
    years = year.tolist() + [0]  # an unknown patent, at -1, reads this 0

    def cells(row):
        i, j = position.get(row[0].strip(), -1), position.get(row[1].strip(), -1)
        return i, j, years[i] < years[j], int(row[2]) != years[i]

    i, j, backwards, mismatch = _stream(rows, cells, 4).T
    reason = _reasons([i == -2, i == -1, j == -1, i == j, backwards > 0], i, j)
    ok = reason == 0
    return i[ok], j[ok], int(mismatch[ok].sum()), reason


def _science(rows: Iterable[Sequence | None], position: Mapping[str, int]):
    """The science columns of a `Corpus` for the accepted science rows, and
    each row's reason code.  A confidence that does not fit in 64 bits is
    malformed."""
    labels = interner()  # stripped label -> id

    def cells(row):
        confidence = int(row[2])
        if not _INT64.min <= confidence <= _INT64.max:
            raise ValueError(confidence)
        return position.get(row[0].strip(), -1), labels[row[1].strip()], confidence

    at, label, confidence = _stream(rows, cells, 3, np.int64).T
    empty = labels.get("", -2)  # -2 when no label is empty
    reason = _reasons([at == -2, at == -1, label == empty, confidence < 1], at, label, confidence)
    ok = reason == 0
    names = list(labels)
    return {
        "science_patent": at[ok].astype(np.int32),
        "science_label": tuple(names[k] for k in label[ok].tolist()),
        "science_confidence": confidence[ok],
    }, reason
