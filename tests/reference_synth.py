"""The synthetic-corpus generator that `synth.generate` replaced, kept as
its oracle.

`generate` draws from the seeded `random.Random` in the order the recorded
digests depend on, and `synth.generate` must give its tables and truth sets
exactly.  The code is the old module's, with the `_validate` checks it ran
first.  It reads the config only through attributes, so a test can hand it
a namespace that has not passed `SynthConfig`'s own checks.
"""

from __future__ import annotations

import functools
import math
import random

from patmetrics.io import parse_cpc, tokenize
from patmetrics.errors import ConfigError, CpcParseError
from patmetrics.synth import GroupSpec, SynthConfig


def year_counts(config: SynthConfig) -> dict[int, int]:
    """Patents per year under the growth schedule (successive rounding)."""
    lo, hi = config.years
    steps = hi - lo
    growth = config.growth
    if growth and len(growth) not in (1, steps):
        raise ConfigError(
            f"growth schedule needs 1 or {steps} rates, got {len(growth)}"
        )
    counts = {lo: config.base_count}
    for i in range(steps):
        g = growth[i % len(growth)] if growth else 0.0
        counts[lo + 1 + i] = max(1, round(counts[lo + i] * (1.0 + g)))
    return counts


def _validate(config: SynthConfig) -> None:
    for name in ("ai_attraction", "lag_mean", "classes_per_patent_mean", "class_concentration"):
        if not math.isfinite(getattr(config, name)):
            raise ConfigError(f"{name} must be finite")
    if not all(map(math.isfinite, config.growth)):
        raise ConfigError(f"growth rates must be finite: {config.growth}")
    if config.base_count < 1:
        raise ConfigError("base_count must be at least 1")
    if config.years[0] > config.years[1]:
        raise ConfigError(f"empty year range {config.years!r}")
    if config.edges_per_patent < 0 or config.lag_mean < 0:
        raise ConfigError("edges_per_patent and lag_mean must be non-negative")
    if config.ai_attraction <= 0:
        raise ConfigError("ai_attraction must be positive")
    if config.filler_vocab < 1:
        raise ConfigError("filler_vocab must be positive")
    if not config.background_codes:
        raise ConfigError("background_codes is empty")
    seen = set()
    phrases: dict[str, tuple[str, ...]] = {}
    markers: set[str] = set()
    for spec in config.groups:
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
    for code in config.background_codes:
        try:
            parse_cpc(code)
        except CpcParseError as exc:
            raise ConfigError(f"background code: {exc}") from None
    for field_label, confidence, per_year in config.decoy_links:
        _check_link("decoy link", field_label, confidence)
        if per_year < 0:
            raise ConfigError(f"decoy link {field_label!r}: negative count {per_year}")


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
    tab or a line break."""
    _validate(config)
    rng = random.Random(config.rng_seed)
    counts = year_counts(config)
    lo, hi = config.years

    filler = [f"w{i:03d}" for i in range(config.filler_vocab)]
    code_weights = [
        1.0 / (i + 1) ** config.class_concentration
        for i in range(len(config.background_codes))
    ]
    normal = functools.cache(parse_cpc)

    tables: dict[str, list[tuple]] = {"patents": [], "cpc": [], "citations": [], "science": []}
    patents, cpc, citations, science = tables.values()
    sci_seen: set[tuple[str, str, int]] = set()

    def link(pid: str, field_label: str, confidence: int) -> None:
        label = field_label.strip()
        if (pid, label, confidence) not in sci_seen:
            sci_seen.add((pid, label, confidence))
            science.append((pid, _clean(label), confidence))

    truth: dict[str, set[str]] = {spec.name: set() for spec in config.groups}
    ids_by_year: dict[int, list[str]] = {}
    ai_by_year: dict[int, list[str]] = {}
    bg_by_year: dict[int, list[str]] = {}
    serial = 0

    for year in range(lo, hi + 1):
        m = counts[year]
        pos = _place_groups(config, m)
        membership: dict[int, list[GroupSpec]] = {}
        for spec in config.groups:
            start, size = pos[spec.name]
            for idx in range(start, start + size):
                membership.setdefault(idx, []).append(spec)

        year_ids = []
        for idx in range(m):
            pid = f"P{serial:07d}"
            serial += 1
            specs = membership.get(idx, [])

            planted_codes = []
            phrase_tokens: list[tuple[str, ...]] = []
            marker_tokens: list[str] = []
            for spec in specs:
                start, _ = pos[spec.name]
                k = idx - start
                if spec.codes:
                    code = spec.codes[k % len(spec.codes)]
                    if code is not None:
                        planted_codes.append(code)
                if spec.phrase is not None:
                    phrase_tokens.append(tuple(tokenize(spec.phrase)))
                if spec.marker is not None:
                    marker_tokens.append(spec.marker.lower())

            title = rng.choices(filler, k=config.title_len)
            abstract = rng.choices(filler, k=config.abstract_len)
            claims = rng.choices(filler, k=config.claims_len)
            description = rng.choices(filler, k=config.description_len)
            # all insertion points are chosen against the filler sequence and
            # applied in one pass, so one planted run can never split another
            inserts = [
                (rng.randrange(len(abstract) + 1), run) for run in phrase_tokens
            ]
            inserts += [
                (rng.randrange(len(abstract) + 1), (tok,)) for tok in marker_tokens
            ]
            if inserts:
                inserts.sort(key=lambda item: item[0])
                merged: list[str] = []
                prev = 0
                for at, run in inserts:
                    merged.extend(abstract[prev:at])
                    merged.extend(run)
                    prev = at
                merged.extend(abstract[prev:])
                abstract = merged

            # filler words hold no tab or line break; a marker may
            texts = (" ".join(title), _clean(" ".join(abstract)), " ".join(claims))
            patents.append((pid, year, *texts, " ".join(description)))

            n_extra = _truncated_geometric(
                rng, max(config.classes_per_patent_mean - 1.0, 0.0), 4
            )
            drawn = rng.choices(config.background_codes, weights=code_weights, k=1 + n_extra)
            cpc.extend((pid, code) for code in dict.fromkeys(map(normal, planted_codes + drawn)))

            for spec in specs:
                truth[spec.name].add(pid)
                if spec.science_field is not None:
                    link(pid, spec.science_field, spec.science_confidence)

            year_ids.append(pid)

        for field_label, conf, per_year in config.decoy_links:
            for idx in rng.sample(range(m), min(per_year, m)):
                link(year_ids[idx], field_label, conf)

        in_ai = {pid for name in truth for pid in truth[name]}
        ids_by_year[year] = year_ids
        ai_by_year[year] = [p for p in year_ids if p in in_ai]
        bg_by_year[year] = [p for p in year_ids if p not in in_ai]

    # citations: each patent cites `edges_per_patent` earlier-or-same-year
    # patents, lag geometric (truncated), AI members oversampled as targets;
    # a draw that repeats a pair is retried
    cite_seen: set[tuple[str, str]] = set()
    for year in range(lo, hi + 1):
        span = year - lo
        for citing in ids_by_year[year]:
            for _ in range(config.edges_per_patent):
                lag = _truncated_geometric(rng, config.lag_mean, span)
                target_year = year - lag
                for _attempt in range(4):
                    ai_pool = ai_by_year[target_year]
                    bg_pool = bg_by_year[target_year]
                    mass_ai = config.ai_attraction * len(ai_pool)
                    mass_bg = float(len(bg_pool))
                    if mass_ai + mass_bg == 0:
                        break
                    if rng.random() * (mass_ai + mass_bg) < mass_ai:
                        cited = ai_pool[rng.randrange(len(ai_pool))]
                    else:
                        cited = bg_pool[rng.randrange(len(bg_pool))]
                    if cited != citing and (citing, cited) not in cite_seen:
                        cite_seen.add((citing, cited))
                        citations.append((citing, cited, year))
                        break

    return tables, {name: frozenset(ids) for name, ids in truth.items()}


def _clean(text: str) -> str:
    """`text` with tabs and line breaks made spaces, fit for a TSV cell."""
    return text.replace("\t", " ").replace("\n", " ").replace("\r", " ")
