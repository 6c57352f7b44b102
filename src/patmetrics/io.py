"""Deterministic readers and writers: config files, corpus tables, metric
series, id lists, SVG line charts, `run.log`, staging directories and the
manifest; and the CPC and token parsers.  It loads no numpy, so neither does
`patmetrics synth`.  It loads OpenSSL (`hashlib`) only to hash a manifest of
at least 1 MiB (`synth`, or a synthetic run's `corpus/`), so a run from
tables never maps it.

A config file holds only the sections and keys its loader names, each key
parsed by the type of the config dataclass field it sets (`typed`) and held
to the rules of that field's `Annotated` metadata (`check`).

All numeric cells are rendered with 6 significant digits, so a
write -> read -> write cycle is a fixed point.  Files always use ``\\n`` line
endings and UTF-8, independent of platform.
"""

from __future__ import annotations

import configparser
import csv
import math
import os
import re
import shutil
from contextlib import contextmanager, suppress
from dataclasses import dataclass
from functools import partial
from html import escape
from operator import itemgetter
from string import ascii_lowercase, digits
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence, TextIO, get_type_hints

from .errors import ConfigError, CpcParseError, DataError

if TYPE_CHECKING:
    from .corpus import Corpus, LoadReport

#: A token is a maximal run of ASCII ``[0-9a-z]`` in the lowercased text.
#: This table keeps those bytes and turns every other byte into a space;
#: after `str.lower()` a non-ASCII character encodes to bytes >= 0x80 only,
#: so it separates tokens too.
_TOKEN_BYTES = bytes(b if chr(b) in digits + ascii_lowercase else 0x20 for b in range(256))

# Section letter, two-digit class, subclass letter, optional group/subgroup tail.
_CPC_RE = re.compile(r"^[A-HY][0-9]{2}[A-Z](?:[0-9]+(?:/[0-9]+)?)?$")

DEFAULT_WINDOW = (1990, 2019)

TABLE_COLUMNS = {
    "patents": ("id", "grant_year", "title", "abstract", "claims", "description"),
    "cpc": ("patent_id", "cpc_code"),
    "citations": ("citing_id", "cited_id", "citing_year"),
    "science": ("patent_id", "field_label", "confidence"),
}


def _create(path: str):
    """Open `path` for writing as UTF-8 with \\n line endings, creating
    its directory first."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    return open(path, "w", encoding="utf-8", newline="\n")


def read_config(path: str, required: str, *optional: str) -> configparser.ConfigParser:
    """The INI file at `path`, its values taken literally (a `%` is a `%`), that
    holds the section `required` and no other but those of `optional`, where
    `group:` stands for every `[group:NAME]`.  A file that cannot be read,
    decoded as UTF-8 or parsed, or misses or adds a section, is a `ConfigError`."""
    parser = configparser.ConfigParser(interpolation=None, default_section="")  # so [DEFAULT] lends no key
    try:
        if not parser.read(path, encoding="utf-8"):
            raise ConfigError(f"cannot read config {path!r}")
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path}: {exc}") from None
    if required not in parser:
        raise ConfigError(f"{path}: missing [{required}] section")
    for section in parser.sections():
        if ("group:" if section.startswith("group:") else section) not in (required, *optional):
            raise ConfigError(f"{path}: [{section}]: unknown section")
    return parser


def options(
    section: configparser.SectionProxy, path: str, keep_blank: Iterable[str] = (), **parsers
) -> dict:
    """`{key: parse(value)}` for each `key=parse` of `parsers` that is set
    in the config `section` of the file at `path`, to be passed as keyword
    arguments to a config dataclass: a key absent or blank is left out, so
    it keeps the field's default.  A key named in `keep_blank` is parsed
    even when blank.  A key of the section with no parser, or a value that
    does not parse, is a `ConfigError` naming the file, section and key."""
    for key in section:
        if key not in parsers:
            raise ConfigError(f"{path}: [{section.name}] {key}: unknown key")
    out = {}
    for key, parse in parsers.items():
        raw = section.get(key, "").strip()
        if raw or (key in keep_blank and key in section):
            try:
                out[key] = parse(raw)
            except ValueError:
                raise ConfigError(f"{path}: [{section.name}] {key}: cannot parse {raw!r}") from None
    return out


def group_sections(
    parser: configparser.ConfigParser, path: str
) -> Iterator[tuple[str, configparser.SectionProxy]]:
    """`(NAME, section)` for each `[group:NAME]` section of the config file
    at `path`.  NAME names the group's files, so a NAME that is empty, `.`
    or `..`, holds `/`, `\\`, `|`, a tab or a line break, or ends in
    `.descendants` is a `ConfigError`."""
    for section in parser.sections():
        if not section.startswith("group:"):
            continue
        name = section[len("group:"):]
        if (name in ("", ".", "..") or name.endswith(".descendants")
                or any(c in name for c in "/\\|\t") or name.splitlines() != [name]):
            raise ConfigError(f"{path}: [{section}] is not a usable group name")
        yield name, parser[section]


def comma_list(text: str, item=str) -> tuple:
    """The non-blank items of a comma-separated `text`, each stripped and
    parsed by `item`."""
    return tuple(item(t.strip()) for t in text.split(",") if t.strip())


def year_range(text: str) -> tuple[int, int]:
    """`LO-HI` as `(LO, HI)`; a `ValueError` unless 0 <= LO <= HI <= 9999."""
    lo, hi = map(int, text.split("-"))
    if not 0 <= lo <= hi <= 9999:
        raise ValueError(f"year range {text!r} is empty or outside 0-9999")
    return lo, hi


def boolean(text: str) -> bool:
    """`true`/`false`, `yes`/`no`, `on`/`off` or `1`/`0`, in any case."""
    try:
        return configparser.ConfigParser.BOOLEAN_STATES[text.lower()]
    except KeyError:
        raise ValueError(text) from None


def cpc_prefix(text: str) -> str:
    """`All`, or in any case a start of a CPC symbol: a section, then its class, subclass, group and subgroup."""
    if text != "All" and not re.fullmatch(r"[A-HY](?:[0-9](?:[0-9](?:[A-Z](?:[0-9]+(?:/[0-9]*)?)?)?)?)?", text.upper()):
        raise ValueError(text)
    return text


#: the parser of a config key, by the type of the config dataclass field it sets; a
#: `-` in a list of `str | None` is None
PARSERS = {
    bool: boolean, int: int, float: float, str: str, int | None: int, float | None: float, str | None: str,
    tuple[int, int]: year_range, tuple[tuple[int, int], ...]: partial(comma_list, item=year_range),
    tuple[str, ...]: comma_list, tuple[int, ...]: partial(comma_list, item=int),
    tuple[float, ...]: partial(comma_list, item=float),
    tuple[str | None, ...]: partial(comma_list, item=lambda t: None if t == "-" else t),
}


def typed(config, *names: str) -> dict:
    """`{name: PARSERS[its type]}` for each of `names`, a field of the config dataclass (or a
    parameter of the function) `config`; with no names, for every field whose type is there."""
    types = get_type_hints(config)
    return {name: PARSERS[types[name]] for name in names or types if names or types[name] in PARSERS}


class Rule(NamedTuple):
    """A rule of a config dataclass field, in its `Annotated` metadata: a value it
    `admits`, or else its field's name and `says` formatted with the value.  A
    rule for `each` item of a tuple (`Range`, `OneOf`) holds for no None."""

    admits: Callable[[object], object]
    says: str
    each: bool = True


def Range(lo: float, hi: float = math.inf, ends: str = "[)") -> Rule:
    """A number from `lo` to `hi`, each end closed or open as `ends` reads.  It
    compares and no more, so NaN lies in no range, an open infinite end refuses
    that infinity, and an int too long for a float is still compared exactly."""
    return Rule(lambda v: (lo < v if ends[0] == "(" else lo <= v) and (v < hi if ends[1] == ")" else v <= hi),
                f"must lie in {ends[0]}{lo}, {hi}{ends[1]}: {{!r}}")


def OneOf(*values) -> Rule:
    return Rule(values.__contains__, f"must be one of {', '.join(map(str, values))}: {{!r}}")


Distinct = Rule(lambda v: len(set(v)) == len(v), "repeats an entry: {!r}", each=False)
NonEmpty = Rule(len, "is empty", each=False)


def check(config, owner: str = "") -> None:
    """A `ConfigError`, led by `owner`, for the first field of the config
    dataclass `config` whose value breaks a `Rule` of its metadata."""
    for name, hint in get_type_hints(type(config), include_extras=True).items():
        value = getattr(config, name)
        for rule in getattr(hint, "__metadata__", ()):
            for v in value if rule.each and isinstance(value, tuple) else (value,):
                if not (v is None or rule.admits(v)):
                    raise ConfigError(f"{owner}{name} " + rule.says.format(v))


def made(path: str, make, *args, **kwargs):
    """`make(*args, **kwargs)`, a `ConfigError` it raises naming the config file at `path`."""
    try:
        return make(*args, **kwargs)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from None


# ---------------------------------------------------------------------------
# corpus tables, their CPC codes and text tokens

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


@contextmanager
def _reading(path: str) -> Iterator[TextIO]:
    """The text file at `path`, opened for reading.  A file that is not
    UTF-8, or a TSV cell over the csv module's field size limit, is a
    `DataError` naming it."""
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            yield fh
    except (UnicodeDecodeError, csv.Error) as exc:
        raise DataError(f"{path}: {exc}") from None


def _read_rows(path: str, table: str) -> Iterator[tuple[str, ...] | None]:
    """The data rows of a TSV table, cells in `TABLE_COLUMNS` order; None
    for a row too short to hold every column."""
    with _reading(path) as fh:
        reader = csv.reader(fh, delimiter="\t", quoting=csv.QUOTE_NONE)
        header = next(reader, None)
        if header is None:
            raise DataError(f"{path}: empty file, expected a header row")
        for name in TABLE_COLUMNS[table]:
            if name not in header:
                raise DataError(f"{path}: missing required column {name!r}")
        cols = [header.index(name) for name in TABLE_COLUMNS[table]]
        pick, last = itemgetter(*cols), max(cols)
        for row in reader:
            yield pick(row) if len(row) > last else None


def load_corpus(
    patents_path: str,
    cpc_path: str | None = None,
    citations_path: str | None = None,
    science_path: str | None = None,
    *,
    window: tuple[int, int] = DEFAULT_WINDOW,
    strict: bool = False,
    text: bool = True,
) -> tuple[Corpus, LoadReport]:
    """Read corpus tables from TSV files and `corpus.ingest` them.  A table
    is read only when `ingest` reaches it."""
    from .corpus import ingest  # only a run loads the corpus and numpy
    paths = zip(TABLE_COLUMNS, (patents_path, cpc_path, citations_path, science_path))
    tables = {name: (path, _read_rows(path, name)) for name, path in paths if path is not None}
    return ingest(tables, window=window, strict=strict, text=text)


def write_corpus(out_dir: str, tables: Mapping[str, Iterable[Sequence]]) -> None:
    """Write the rows of the four corpus tables, cells in `TABLE_COLUMNS`
    order, under `out_dir`."""
    for name, header in TABLE_COLUMNS.items():
        write_table(os.path.join(out_dir, f"{name}.tsv"), header, tables[name])


# ---------------------------------------------------------------------------
# metric series files

@dataclass(frozen=True)
class GroupSeries:
    """An annual metric series for one group (or one group pair); the file
    it is written to names the metric."""

    group: str
    points: tuple[tuple[int, float], ...]

    def __post_init__(self):
        years = [y for y, _ in self.points]
        if years != sorted(set(years)):
            raise ValueError(f"series years must be sorted and unique: {years}")
        for y, v in self.points:
            if not math.isfinite(v):
                raise ValueError(f"non-finite value {v!r} at year {y}")

    def years(self) -> list[int]:
        return [y for y, _ in self.points]

    def values(self) -> list[float]:
        return [v for _, v in self.points]

    def as_dict(self) -> dict[int, float]:
        return dict(self.points)


def fmt_value(v: float | None) -> str:
    """Render a numeric cell with 6 significant digits; None -> empty cell."""
    if v is None:
        return ""
    return format(float(v), ".6g")


def write_series(path: str, series_list: Sequence[GroupSeries]) -> None:
    """Write series as a year-by-group TSV, columns sorted by group name.

    Years missing from a series produce empty cells.  Group names must be
    unique; metric identity is carried by the file name.
    """
    ordered = sorted(series_list, key=lambda s: s.group)
    names = [s.group for s in ordered]
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate group columns in {path}: {names}")
    years = sorted({y for s in ordered for y, _ in s.points})
    lookup = [dict(s.points) for s in ordered]
    with _create(path) as fh:
        fh.write("year\t" + "\t".join(names) + "\n")
        for y in years:
            cells = [fmt_value(d.get(y)) for d in lookup]
            fh.write(str(y) + "\t" + "\t".join(cells) + "\n")


def read_series(path: str) -> list[GroupSeries]:
    """Parse a series TSV back into GroupSeries (one per column).  Every
    data row holds a cell for each column of the header."""
    with _reading(path) as fh:
        reader = csv.reader(fh, delimiter="\t", quoting=csv.QUOTE_NONE)
        header = next(reader, None)
        if not header or header[0] != "year":
            raise DataError(f"{path}: line 1: expected a 'year' first column")
        groups = header[1:]
        if len(set(groups)) != len(groups):
            raise DataError(f"{path}: line 1: repeated group column in {groups}")
        points: list[list[tuple[int, float]]] = [[] for _ in groups]
        prev = None
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            try:
                if len(row) != len(header):
                    raise ValueError(f"{len(row)} cells under a header of {len(header)}")
                year = int(row[0])
                if prev is not None and year <= prev:
                    raise ValueError(f"year {row[0]!r} does not follow {prev}")
                for i, cell in enumerate(row[1:]):
                    if cell != "":
                        value = float(cell)
                        if not math.isfinite(value):
                            raise ValueError(f"non-finite value {cell!r}")
                        points[i].append((year, value))
            except ValueError as exc:
                raise DataError(f"{path}: line {lineno}: {exc}") from None
            prev = year
    return [GroupSeries(g, tuple(pts)) for g, pts in zip(groups, points)]


def write_ids(path: str, ids: Iterable[str]) -> None:
    write_text(path, "".join(pid + "\n" for pid in sorted(ids)))


def read_ids(path: str) -> frozenset[str]:
    with _reading(path) as fh:
        return frozenset(line.strip() for line in fh if line.strip())


def write_table(path: str, header: Sequence[str], rows: Iterable[Sequence[str]]) -> None:
    with _create(path) as fh:
        fh.write("\t".join(header) + "\n")
        for row in rows:
            fh.write("\t".join(str(c) for c in row) + "\n")


def write_text(path: str, text: str) -> None:
    with _create(path) as fh:
        fh.write(text)


# ---------------------------------------------------------------------------
# SVG line charts

_PALETTE = (
    "#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
    "#8c564b", "#17becf", "#7f7f7f", "#bcbd22", "#e377c2",
)

_WIDTH, _HEIGHT = 720, 480
_MARGIN = (56, 20, 42, 30)  # left, right, bottom, top


def _nice_step(span: float, target: int = 5) -> float:
    raw = span / max(target, 1)
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 5.0, 10.0):
        if raw <= mult * mag + 1e-12 * mag:
            return mult * mag
    return 10.0 * mag


def write_svg_lines(path: str, series_list: Sequence[GroupSeries], label: str) -> list[str]:
    """Render series as an SVG line chart with fixed deterministic layout,
    titled and y-labelled `label`.

    Series with fewer than two points are skipped (their names are
    returned so callers can log them); if no series remains, raises
    `DataError`.
    """
    drawable = sorted((s for s in series_list if len(s.points) >= 2), key=lambda s: s.group)
    skipped = sorted(s.group for s in series_list if len(s.points) < 2)
    if not drawable:
        raise DataError(f"{path}: no series with at least 2 points")

    xs = [y for s in drawable for y, _ in s.points]
    ys = [v for s in drawable for _, v in s.points]
    x_min, x_max = min(xs), max(xs)
    y_min, y_max = min(ys), max(ys)
    if x_min == x_max:
        x_min, x_max = x_min - 1, x_max + 1
    if y_min == y_max:
        y_min, y_max = y_min - 1.0, y_max + 1.0

    ml, mr, mb, mt = _MARGIN
    pw = _WIDTH - ml - mr
    ph = _HEIGHT - mt - mb

    def sx(x: float) -> float:
        return ml + (x - x_min) / (x_max - x_min) * pw

    def sy(y: float) -> float:
        return mt + (y_max - y) / (y_max - y_min) * ph

    def f(v: float) -> str:
        return format(v, ".2f")

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" '
        f'height="{_HEIGHT}" viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<text x="{_WIDTH / 2:.0f}" y="{mt - 10}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="14">{escape(label, quote=False)}</text>',
    ]

    axis = 'stroke="black" stroke-width="1"'
    parts.append(f'<line x1="{ml}" y1="{mt}" x2="{ml}" y2="{mt + ph}" {axis}/>')
    parts.append(f'<line x1="{ml}" y1="{mt + ph}" x2="{ml + pw}" y2="{mt + ph}" {axis}/>')

    x_step = max(1, round(_nice_step(x_max - x_min, 6)))
    tick = math.ceil(x_min / x_step) * x_step
    while tick <= x_max:
        px = sx(tick)
        parts.append(f'<line x1="{f(px)}" y1="{mt + ph}" x2="{f(px)}" y2="{mt + ph + 4}" {axis}/>')
        parts.append(
            f'<text x="{f(px)}" y="{mt + ph + 16}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="10">{tick}</text>'
        )
        tick += x_step

    y_step = _nice_step(y_max - y_min, 5)
    ty = math.ceil(y_min / y_step) * y_step
    while ty <= y_max + 1e-9 * y_step:
        py = sy(ty)
        parts.append(f'<line x1="{ml - 4}" y1="{f(py)}" x2="{ml}" y2="{f(py)}" {axis}/>')
        parts.append(
            f'<text x="{ml - 6}" y="{f(py + 3)}" text-anchor="end" '
            f'font-family="sans-serif" font-size="10">{fmt_value(ty)}</text>'
        )
        ty += y_step

    parts.append(
        f'<text x="{ml + pw / 2:.0f}" y="{_HEIGHT - 6}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="11">year</text>'
    )
    cx, cy = 14, mt + ph / 2
    parts.append(
        f'<text x="{cx}" y="{cy:.0f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="11" '
        f'transform="rotate(-90 {cx} {cy:.0f})">{escape(label, quote=False)}</text>'
    )

    for i, s in enumerate(drawable):
        color = _PALETTE[i % len(_PALETTE)]
        coords = " ".join(f"{f(sx(x))},{f(sy(v))}" for x, v in s.points)
        parts.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="{coords}"/>'
        )
        ly = mt + 14 + 14 * i
        lx = ml + pw - 130
        parts.append(
            f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 18}" y2="{ly - 4}" '
            f'stroke="{color}" stroke-width="1.5"/>'
        )
        parts.append(
            f'<text x="{lx + 22}" y="{ly}" font-family="sans-serif" '
            f'font-size="11">{escape(s.group, quote=False)}</text>'
        )

    parts.append("</svg>")
    write_text(path, "\n".join(parts) + "\n")
    return skipped


# ---------------------------------------------------------------------------
# the output directory: run log, staging and manifest

def log(out_dir: str, text: str) -> None:
    """Append a line to the timestamp-free `run.log` (excluded from the manifest)."""
    with open(os.path.join(out_dir, "run.log"), "a", encoding="utf-8", newline="\n") as fh:
        fh.write(text + "\n")


@contextmanager
def staged(out_dir: str, name: str) -> Iterator[str]:
    """A fresh `.NAME.new` in `out_dir` that replaces `NAME` when the block returns and is removed if it raises."""
    path, new = os.path.join(out_dir, name), os.path.join(out_dir, f".{name}.new")
    shutil.rmtree(new, ignore_errors=True)  # left by a killed process
    os.makedirs(new)
    try:
        yield new
    except BaseException:
        shutil.rmtree(new, ignore_errors=True)
        raise
    shutil.rmtree(path, ignore_errors=True)  # none yet, or an earlier run's
    os.rename(new, path)


#: A manifest of at least this many bytes is hashed with OpenSSL, 5.6 times faster on
#: x86-64 with SHA extensions; mapping it costs 3.5 MB and 3 ms (break-even 0.8 MB).
_OPENSSL_FROM = 1 << 20


def _sha256(size: int):
    """The SHA-256 constructor for `size` bytes: below `_OPENSSL_FROM` the
    interpreter's own (`_sha2` on 3.12+, `_sha256` before), else OpenSSL's."""
    if size < _OPENSSL_FROM:
        for name in ("_sha2", "_sha256"):
            with suppress(ImportError):
                return __import__(name).sha256
    import hashlib  # maps OpenSSL: `synth` and a synthetic run's `corpus/` do, a run from tables never
    return hashlib.sha256


def sha256_file(path: str, sha256) -> str:
    """The hex digest of the file at `path` by the SHA-256 constructor `sha256`."""
    digest = sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


def write_manifest(out_dir: str) -> list[str]:
    """Hash every artifact under `out_dir` into a sorted `manifest.txt`.

    Files named `manifest.txt` or `run.log` (`log`) are not listed, nor
    those of a staging directory `.NAME.new` (`staged`) that a killed
    process left.  Returns the relative paths that were hashed.
    """
    rels = []
    for root, dirs, files in os.walk(out_dir):
        dirs[:] = [d for d in dirs if not (d.startswith(".") and d.endswith(".new"))]
        rels += [os.path.relpath(os.path.join(root, name), out_dir).replace(os.sep, "/")
                 for name in files if name not in ("manifest.txt", "run.log")]
    rels.sort()
    sha256 = _sha256(sum(os.path.getsize(os.path.join(out_dir, r)) for r in rels))
    lines = [f"{sha256_file(os.path.join(out_dir, r), sha256)}  {r}" for r in rels]
    write_text(os.path.join(out_dir, "manifest.txt"), "\n".join(lines) + "\n")
    return rels
