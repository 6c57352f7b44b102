"""Synthetic patent corpus generator with planted, recoverable structure.

Groups are planted as per-year index intervals, so sizes and pairwise
overlaps are exact counting results rather than sampling outcomes; only
filler text, background codes, and citation targets use the seeded RNG.
Citation lags follow a geometric distribution truncated to the available
history, which produces the shrinking-lag pattern of recent cohorts.

`generate` emits the rows of the four corpus tables, not a corpus: they are
validated once, by `corpus.ingest`, like tables read from disk.
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass
from itertools import accumulate
from operator import itemgetter

from .errors import ConfigError, CpcParseError
from .io import comma_list, group_sections, options, parse_cpc, read_config, tokenize, year_range

DEFAULT_BACKGROUND_CODES = (
    "A01B", "A61K", "B23K", "B25J", "B29C", "B60L", "B82B", "B82Y",
    "C07D", "C08F", "C12N", "C12Q", "D21H", "E04B", "E21B", "F16H",
    "F25B", "G01N", "G02B", "G06F", "G11C", "H01L", "H02J", "H03M",
    "H04L", "H04W",
)


@dataclass(frozen=True)
class GroupSpec:
    """A planted group.

    `codes` is cycled over members by their within-year position; a None
    entry plants no code on that member.  `jaccard_with` must name an
    earlier group; the planted per-year overlap is sized so the realised
    Jaccard matches `jaccard_target`.
    """

    name: str
    share: float
    phrase: str | None = None
    codes: tuple[str | None, ...] = ()
    science_field: str | None = None
    science_confidence: int = 4
    marker: str | None = None
    jaccard_with: str | None = None
    jaccard_target: float | None = None


@dataclass(frozen=True)
class SynthConfig:
    """A synthesis config; one that `generate` cannot honour is a
    `ConfigError` when it is made."""

    rng_seed: int = 1
    years: tuple[int, int] = (1990, 2019)
    base_count: int = 100
    growth: tuple[float, ...] = ()  # per year-step; empty means flat counts
    groups: tuple[GroupSpec, ...] = ()
    edges_per_patent: int = 4
    ai_attraction: float = 4.0
    lag_mean: float = 8.0
    classes_per_patent_mean: float = 2.0
    class_concentration: float = 1.1
    background_codes: tuple[str, ...] = DEFAULT_BACKGROUND_CODES
    filler_vocab: int = 400
    title_len: int = 6
    abstract_len: int = 30
    claims_len: int = 15
    description_len: int = 20
    decoy_links: tuple[tuple[str, int, int], ...] = ()  # field, confidence, per year

    def __post_init__(self):
        for name in ("ai_attraction", "lag_mean", "classes_per_patent_mean", "class_concentration"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite")
        if not all(map(math.isfinite, self.growth)):
            raise ConfigError(f"growth rates must be finite: {self.growth}")
        if self.base_count < 1:
            raise ConfigError("base_count must be at least 1")
        if self.years[0] > self.years[1]:
            raise ConfigError(f"empty year range {self.years!r}")
        if self.edges_per_patent < 0 or self.lag_mean < 0:
            raise ConfigError("edges_per_patent and lag_mean must be non-negative")
        if min(self.title_len, self.abstract_len, self.claims_len, self.description_len) < 0:
            raise ConfigError("text lengths must be non-negative")
        if self.ai_attraction <= 0:
            raise ConfigError("ai_attraction must be positive")
        if self.filler_vocab < 1:
            raise ConfigError("filler_vocab must be positive")
        if not self.background_codes:
            raise ConfigError("background_codes is empty")
        _code_weights(self)
        seen = set()
        phrases: dict[str, tuple[str, ...]] = {}
        markers: set[str] = set()
        for spec in self.groups:
            if spec.name in seen:
                raise ConfigError(f"duplicate group name {spec.name!r}")
            seen.add(spec.name)
            if not (0.0 <= spec.share <= 1.0):
                raise ConfigError(f"group {spec.name}: share {spec.share} outside [0, 1]")
            for code in spec.codes:
                if code is not None:
                    try:
                        parse_cpc(code)
                    except CpcParseError as exc:
                        raise ConfigError(f"group {spec.name}: {exc}") from None
            if spec.jaccard_with is not None:
                if spec.jaccard_with not in seen - {spec.name}:
                    raise ConfigError(
                        f"group {spec.name}: jaccard_with {spec.jaccard_with!r} "
                        "must name an earlier group"
                    )
                if spec.jaccard_target is None or not (0.0 <= spec.jaccard_target < 1.0):
                    raise ConfigError(f"group {spec.name}: jaccard_target outside [0, 1)")
            if spec.phrase is not None:
                toks = tuple(tokenize(spec.phrase))
                if not toks:
                    raise ConfigError(f"group {spec.name}: empty phrase")
                phrases[spec.name] = toks
            if spec.marker is not None:
                markers.add(spec.marker.lower())
            if spec.science_field is not None:
                _check_link(f"group {spec.name}", spec.science_field, spec.science_confidence)
        # planted phrases must not shadow each other or collide with markers
        items = list(phrases.items())
        for i, (na, pa) in enumerate(items):
            for nb, pb in items[i + 1 :]:
                if _contains_run(pa, pb) or _contains_run(pb, pa):
                    raise ConfigError(
                        f"phrases of groups {na!r} and {nb!r} overlap; recovery "
                        "by keyword would not be exact"
                    )
        for m in markers:
            for name, ph in phrases.items():
                if m in ph:
                    raise ConfigError(f"marker {m!r} collides with phrase of {name!r}")
        for code in self.background_codes:
            try:
                parse_cpc(code)
            except CpcParseError as exc:
                raise ConfigError(f"background code: {exc}") from None
        for field_label, confidence, per_year in self.decoy_links:
            _check_link("decoy link", field_label, confidence)
            if per_year < 0:
                raise ConfigError(f"decoy link {field_label!r}: negative count {per_year}")
        steps = self.years[1] - self.years[0]
        if self.growth and len(self.growth) not in (1, steps):
            raise ConfigError(f"growth schedule needs 1 or {steps} rates, got {len(self.growth)}")


def _code_weights(config: SynthConfig) -> list[float]:
    """Cumulative draw weights 1 / (i + 1) ** class_concentration of the
    background codes; a `ConfigError` when a power overflows or underflows
    to 0, or the total is not finite."""
    c = config.class_concentration
    try:
        cum = list(accumulate(1.0 / (i + 1) ** c for i in range(len(config.background_codes))))
    except (OverflowError, ZeroDivisionError):
        cum = [math.inf]
    if not math.isfinite(cum[-1]):
        raise ConfigError(f"class_concentration {c} puts background-code weights out of float range")
    return cum


def year_counts(config: SynthConfig) -> dict[int, int]:
    """Patents per year under the growth schedule (successive rounding)."""
    lo, hi = config.years
    steps = hi - lo
    growth = config.growth
    counts = {lo: config.base_count}
    for i in range(steps):
        g = growth[i % len(growth)] if growth else 0.0
        counts[lo + 1 + i] = max(1, round(counts[lo + i] * (1.0 + g)))
    return counts


def _check_link(owner: str, field_label: str, confidence: int) -> None:
    """A planted science link must be one the loader accepts."""
    if not field_label.strip():
        raise ConfigError(f"{owner}: empty science field")
    if confidence < 1:
        raise ConfigError(f"{owner}: science confidence below 1")


def _contains_run(haystack: tuple[str, ...], needle: tuple[str, ...]) -> bool:
    k = len(needle)
    return any(haystack[i : i + k] == needle for i in range(len(haystack) - k + 1))


def _place_groups(
    config: SynthConfig, m: int
) -> dict[str, tuple[int, int]]:
    """Per-year interval [start, start+size) for each group; overlap with the
    chained partner is sized from the Jaccard target."""
    pos: dict[str, tuple[int, int]] = {}
    cursor = 0
    for spec in config.groups:
        size = round(spec.share * m)
        if spec.jaccard_with is None or size == 0:
            start = cursor
        else:
            p_start, p_size = pos[spec.jaccard_with]
            t = spec.jaccard_target
            o = round(t * (p_size + size) / (1.0 + t))
            o = min(o, p_size, size)
            start = p_start + p_size - o
        pos[spec.name] = (start, size)
        cursor = max(cursor, start + size)
    if cursor > m:
        raise ConfigError(
            f"planted groups need {cursor} slots but the year has only {m} patents"
        )
    return pos


def _truncated_geometric(rng: random.Random, mean: float, upper: int) -> int:
    if upper <= 0 or mean <= 0:
        return 0
    p = 1.0 / (1.0 + mean)
    u = rng.random()
    draw = int(math.floor(math.log(1.0 - u) / math.log(1.0 - p)))
    return min(draw, upper)


def generate(config: SynthConfig) -> tuple[dict[str, list[tuple]], dict[str, frozenset[str]]]:
    """The rows of the four corpus tables, by table name with cells in
    `io.TABLE_COLUMNS` order, and the ground-truth member sets of each
    group.  Every row is one the loader accepts, and no text cell holds a
    tab or a line break.

    The rows follow from the stream of `random.Random(config.rng_seed)`,
    drawn in this order: per patent its filler words, one insertion point
    per planted phrase and then per marker, and its background codes; per
    year, after its patents, the decoy links; then the citations, in
    patent order."""
    rng = random.Random(config.rng_seed)
    counts = year_counts(config)
    lo, hi = config.years

    filler = [f"w{i:03d}" for i in range(config.filler_vocab)]
    cum_weights = _code_weights(config)
    normal = functools.cache(parse_cpc)
    # the four text fields are consecutive slices of one draw of filler words
    t1 = config.title_len
    t2 = t1 + config.abstract_len
    t3 = t2 + config.claims_len
    n_words = t3 + config.description_len
    phrase = {s.name: tuple(tokenize(s.phrase)) for s in config.groups if s.phrase is not None}
    marker = {s.name: (s.marker.lower(),) for s in config.groups if s.marker is not None}

    tables: dict[str, list[tuple]] = {"patents": [], "cpc": [], "citations": [], "science": []}
    patents, cpc, citations, science = tables.values()
    truth: dict[str, set[str]] = {spec.name: set() for spec in config.groups}
    # each year's citation targets: its group members, and the rest
    pools: dict[int, tuple[list[str], list[str]]] = {}

    for year in range(lo, hi + 1):
        m = counts[year]
        pos = _place_groups(config, m)
        membership: dict[int, list[GroupSpec]] = {}
        for spec in config.groups:
            start, size = pos[spec.name]
            for idx in range(start, start + size):
                membership.setdefault(idx, []).append(spec)

        first = len(patents)
        members, others = pools[year] = ([], [])
        for idx in range(m):
            pid = f"P{first + idx:07d}"
            specs = membership.get(idx, ())

            words = rng.choices(filler, k=n_words)
            abstract = words[t1:t2]
            runs = [phrase[s.name] for s in specs if s.name in phrase]
            runs += [marker[s.name] for s in specs if s.name in marker]
            # every insertion point is drawn against the filler alone, so one
            # planted run can never split another; splicing from the back
            # leaves the earlier points in place, and runs that share a point
            # keep their draw order
            inserts = [(rng.randrange(len(abstract) + 1), run) for run in runs]
            inserts.sort(key=itemgetter(0))
            for at, run in reversed(inserts):
                abstract[at:at] = run

            # filler words hold no tab or line break; a marker may
            texts = (" ".join(words[:t1]), _clean(" ".join(abstract)), " ".join(words[t2:t3]))
            patents.append((pid, year, *texts, " ".join(words[t3:])))

            n_extra = _truncated_geometric(
                rng, max(config.classes_per_patent_mean - 1.0, 0.0), 4
            )
            drawn = rng.choices(config.background_codes, cum_weights=cum_weights, k=1 + n_extra)
            planted = [s.codes[(idx - pos[s.name][0]) % len(s.codes)] for s in specs if s.codes]
            codes = [code for code in planted if code is not None] + drawn
            cpc.extend((pid, code) for code in dict.fromkeys(map(normal, codes)))

            for spec in specs:
                truth[spec.name].add(pid)
                if spec.science_field is not None:
                    science.append((pid, _clean(spec.science_field.strip()), spec.science_confidence))
            (members if specs else others).append(pid)

        for field_label, conf, per_year in config.decoy_links:
            label = _clean(field_label.strip())
            for idx in rng.sample(range(m), min(per_year, m)):
                science.append((patents[first + idx][0], label, conf))

    # citations: each patent cites `edges_per_patent` earlier-or-same-year
    # patents, lag geometric (truncated), group members oversampled as
    # targets; a draw that repeats a pair is retried.  Every year has a
    # patent, so the two pools of a year are never both empty.
    for citing, year, *_ in patents:
        taken = {citing}  # its draws are contiguous, so a repeat is within them
        for _ in range(config.edges_per_patent):
            lag = _truncated_geometric(rng, config.lag_mean, year - lo)
            members, others = pools[year - lag]
            mass = config.ai_attraction * len(members)
            for _attempt in range(4):
                if rng.random() * (mass + len(others)) < mass:
                    cited = members[rng.randrange(len(members))]
                else:
                    cited = others[rng.randrange(len(others))]
                if cited not in taken:
                    taken.add(cited)
                    citations.append((citing, cited, year))
                    break

    # a link is kept once, as written: two groups, or a group and a decoy,
    # may give a patent the same one
    tables["science"] = list(dict.fromkeys(science))
    return tables, {name: frozenset(ids) for name, ids in truth.items()}


def _clean(text: str) -> str:
    """`text` with tabs and line breaks made spaces, fit for a TSV cell."""
    return text.replace("\t", " ").replace("\n", " ").replace("\r", " ")


# ---------------------------------------------------------------------------
# config file parsing

def load_synth_config(path: str) -> SynthConfig:
    """Parse a synthesis config file (ini format, [synth] plus [group:*])."""
    parser = read_config(path)
    if "synth" not in parser:
        raise ConfigError(f"{path}: missing [synth] section")
    groups = []
    for name, section in group_sections(parser, path):
        spec = options(
            section, path, share=float, phrase=str, science_field=str,
            science_confidence=int, marker=str, jaccard_with=str, jaccard_target=float,
            codes=lambda raw: comma_list(raw, lambda t: None if t == "-" else t),
        )
        if "share" not in spec:
            raise ConfigError(f"{path}: [{section.name}] is missing share")
        groups.append(GroupSpec(name=name, **spec))
    settings = options(
        parser["synth"], path, years=year_range, background_codes=comma_list,
        growth=lambda raw: comma_list(raw, float),
        **dict.fromkeys(("rng_seed", "base_count", "edges_per_patent", "filler_vocab",
                         "title_len", "abstract_len", "claims_len", "description_len"), int),
        **dict.fromkeys(("ai_attraction", "lag_mean", "classes_per_patent_mean",
                         "class_concentration"), float),
    )
    if "decoys" in parser:
        decoys = options(parser["decoys"], path, links=_decoy_links)
        if decoys:
            settings["decoy_links"] = decoys["links"]
    try:
        return SynthConfig(groups=tuple(groups), **settings)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def _decoy_links(text: str) -> tuple[tuple[str, int, int], ...]:
    """One `field|confidence|per year` link per non-blank line."""
    links = []
    for line in filter(str.strip, text.splitlines()):
        field_label, confidence, per_year = line.split("|")
        links.append((field_label.strip(), int(confidence), int(per_year)))
    return tuple(links)
