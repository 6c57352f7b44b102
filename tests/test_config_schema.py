"""The schema of the run, synthetic-corpus and classifier-training configs:
the keys each section knows, the value each key loads as, and the values
each key accepts.  A key is parsed by the type of the config dataclass field
it sets, and held to the rules of that field's `Annotated` metadata, so these
pin that the types and rules give the same keys, values and bounds as the
parsers and checks once written out by hand in each loader."""

import dataclasses
import math
import re
import typing

import pytest

from patmetrics import classify as cls
from patmetrics import io as pio
from patmetrics import pipeline, synth
from patmetrics.errors import ConfigError

# section -> key -> (raw value, the value it loads as): every key of the run config's own sections
RUN_KEYS = {
    "run": {
        "strict": ("yes", True),
        "window": ("1995-2015", (1995, 2015)),
        "periods": ("1995-2004, 2005-2015", ((1995, 2004), (2005, 2015))),
    },
    "metrics": {
        "levels": ("1, 4", (1, 4)),
        "diversity_universe_3": ("136", 136),
        "diversity_universe_4": ("674", 674),
        "lag_mode": ("first_citation", "first_citation"),
        "zscore": ("generality, avg_citing_classes", ("generality", "avg_citing_classes")),
        "lowess": ("growth, share", ("growth", "share")),
        "lowess_fraction": ("0.5", 0.5),
        "descendants": ("off", False),
    },
    "stats": {
        "compare": ("growth,,share", ("growth", "share")),
        "holm": ("No", False),
        "exact_cutoff": ("25", 25),
    },
}

# group kind -> key -> (raw value, the setting it loads as), besides kind; a uspto group's
# config is checked against `load_uspto_config`
GROUP_KEYS = {
    "keyword": {"keywords": ("default", None)},
    "science": {"field": ("Physics; Applied", "Physics; Applied"), "min_confidence": ("2", 2)},
    "wipo": {"rules": ("default", None)},
    "uspto": {"config": ("tiny.uspto", None)},
    "prefix": {"prefix": ("G06", "G06")},
}

INPUT_KEYS = ("synth", "patents", "cpc", "citations", "science")

SYNTH_KEYS = {
    "synth": {
        "rng_seed": ("7", 7),
        "years": ("2000-2003", (2000, 2003)),
        "base_count": ("12", 12),
        "growth": ("0.1, -0.05, 0.2", (0.1, -0.05, 0.2)),
        "edges_per_patent": ("2", 2),
        "ai_attraction": ("3.5", 3.5),
        "lag_mean": ("2.5", 2.5),
        "classes_per_patent_mean": ("1.5", 1.5),
        "class_concentration": ("1.2", 1.2),
        "background_codes": ("A01B, g06f", ("A01B", "g06f")),
        "filler_vocab": ("40", 40),
        "title_len": ("4", 4),
        "abstract_len": ("8", 8),
        "claims_len": ("3", 3),
        "description_len": ("5", 5),
    },
    "group:kw": {
        "share": ("0.25", 0.25),
        "phrase": ("neural network", "neural network"),
        "codes": ("G06N, -", ("G06N", None)),
        "science_field": ("Computer Science", "Computer Science"),
        "science_confidence": ("3", 3),
        "marker": ("quantumflux", "quantumflux"),
    },
    "group:us": {
        "share": ("0.25", 0.25),
        "jaccard_with": ("kw", "kw"),
        "jaccard_target": ("0.2", 0.2),
    },
    "decoys": {"links": ("Physics|9|1\nChemistry|2|0", (("Physics", 9, 1), ("Chemistry", 2, 0)))},
}

USPTO_KEYS = {
    "uspto": {
        "components": ("ai_core, Vision", ("ai_core", "Vision")),
        "expansion_hops": ("2", 2),
        "vocab_size": ("50", 50),
        "threshold": ("0.4", 0.4),
        "epochs": ("20", 20),
        "learning_rate": ("1.5", 1.5),
        "anti_seed_rng": ("3", 3),
    },
    "seeds": {"ai_core": ("Y02, G06N", ("Y02", "G06N")), "vision": ("G06T", ("G06T",))},
}

CONFIGS = (pipeline.RunConfig, synth.SynthConfig, synth.GroupSpec, cls.UsptoConfig)

# the fields that no key sets: the groups a file's group sections make, the inputs, a
# group's name (its section's NAME), and the sections parsed by hand
NOT_KEYS = {"groups", "synth_path", "table_paths", "name", "decoy_links", "seed_rules"}

# every name a key of some section might have, to probe each section with
CANDIDATES = sorted(
    {f.name for config in CONFIGS for f in dataclasses.fields(config)}
    | {key for keys in (*RUN_KEYS.values(), *GROUP_KEYS.values(), *SYNTH_KEYS.values(), *USPTO_KEYS.values())
       for key in keys}
    | set(INPUT_KEYS) | {"kind"}
)


def ini(sections):
    """The text of a config file with `{section: {key: raw}}`; a line break
    in a raw value continues it on an indented line."""
    lines = []
    for name, keys in sections.items():
        lines += [f"[{name}]", *(f"{key} = " + value.replace("\n", "\n  ") for key, value in keys.items())]
    return "\n".join(lines) + "\n"


def raw(keys):
    return {name: {key: value for key, (value, _) in section.items()} for name, section in keys.items()}


def run_sections():
    """The sections of a run config that sets every key, one group of each kind."""
    groups = {f"group:{kind}": {"kind": kind, **raw({kind: keys})[kind]} for kind, keys in GROUP_KEYS.items()}
    return {"inputs": {"synth": "tiny.synth"}, **groups, **raw(RUN_KEYS)}


@pytest.fixture
def files(tmp_path):
    """`tiny.run`, `tiny.synth` and `tiny.uspto` in `tmp_path`, each setting every key it knows."""
    texts = {"tiny.run": run_sections(), "tiny.synth": raw(SYNTH_KEYS), "tiny.uspto": raw(USPTO_KEYS)}
    for name, sections in texts.items():
        (tmp_path / name).write_text(ini(sections), encoding="utf-8")
    return tmp_path


def test_every_key_loads_as_it_did(files):
    """Each key of each section, set at once, loads to the value the hand-written parsers gave."""
    cfg = pipeline.load_run_config(str(files / "tiny.run"))
    for section, keys in RUN_KEYS.items():
        for key, (_, value) in keys.items():
            assert getattr(cfg, key) == value, (section, key)
    assert cfg.synth_path == str(files / "tiny.synth")
    uspto = pipeline.load_uspto_config(str(files / "tiny.uspto"))
    assert {g.kind: g.settings for g in cfg.groups} == {
        kind: {key: uspto if kind == "uspto" else value for key, (_, value) in keys.items()}
        for kind, keys in GROUP_KEYS.items()
    }

    scfg = synth.load_synth_config(str(files / "tiny.synth"))
    owners = {"synth": scfg, "group:kw": scfg.groups[0], "group:us": scfg.groups[1]}
    for section, keys in SYNTH_KEYS.items():
        for key, (_, value) in keys.items():
            got = scfg.decoy_links if section == "decoys" else getattr(owners[section], key)
            assert got == value, (section, key)
    assert [g.name for g in scfg.groups] == ["kw", "us"]

    for key, (_, value) in USPTO_KEYS["uspto"].items():
        assert getattr(uspto, key) == value, key
    assert uspto.seed_rules == {"ai_core": ("Y02", "G06N"), "Vision": ("G06T",)}


def known_keys():
    """(file, section, the keys it knows) for every section of the three configs."""
    for name, keys in run_sections().items():
        known = INPUT_KEYS if name == "inputs" else keys
        yield "tiny.run", name, set(known)
    spec = set(SYNTH_KEYS["group:kw"]) | set(SYNTH_KEYS["group:us"])  # every group knows them all
    for name, keys in {**SYNTH_KEYS, **USPTO_KEYS}.items():
        known = spec if name.startswith("group:") else set(keys)
        yield "tiny.uspto" if name in USPTO_KEYS else "tiny.synth", name, known


LOADERS = {"tiny.run": pipeline.load_run_config, "tiny.synth": synth.load_synth_config,
           "tiny.uspto": pipeline.load_uspto_config}


@pytest.mark.parametrize("name, section, known", list(known_keys()), ids=[s for _, s, _ in known_keys()])
def test_each_section_knows_only_its_keys(files, name, section, known):
    """A key that its section does not know is refused, whatever other
    section or config dataclass knows it."""
    text = (files / name).read_text(encoding="utf-8")
    for key in CANDIDATES:
        if key in known:
            continue
        (files / name).write_text(text.replace(f"[{section}]\n", f"[{section}]\n{key} = 1\n"), encoding="utf-8")
        with pytest.raises(ConfigError) as info:
            LOADERS[name](str(files / name))
        assert str(info.value) == f"{files / name}: [{section}] {key}: unknown key"


# (field type, raw value, the value it parses as): one per type of `io.PARSERS`
TYPE_SAMPLES = [
    (bool, "On", True),
    (int, "-3", -3),
    (float, "2.5e-1", 0.25),
    (str, "100% AI", "100% AI"),
    (int | None, "4", 4),
    (float | None, "0.2", 0.2),
    (str | None, "x", "x"),
    (tuple[int, int], "1990-2019", (1990, 2019)),
    (tuple[tuple[int, int], ...], "1990-1999, 2000-2009", ((1990, 1999), (2000, 2009))),
    (tuple[str, ...], " a, ,b ", ("a", "b")),
    (tuple[int, ...], "1,3", (1, 3)),
    (tuple[float, ...], "0.1, -1", (0.1, -1.0)),
    (tuple[str | None, ...], "G06N, -", ("G06N", None)),
]


def test_each_field_type_parses_as_before():
    assert set(pio.PARSERS) == {kind for kind, _, _ in TYPE_SAMPLES}
    for kind, text, value in TYPE_SAMPLES:
        assert pio.PARSERS[kind](text) == value, kind


@pytest.mark.parametrize("config", CONFIGS, ids=[c.__name__ for c in CONFIGS])
def test_every_field_is_a_key_or_named(config):
    """A field added with a type that `io.PARSERS` lacks fails here, rather
    than becoming an unknown key for every config that sets it."""
    fields = {f.name for f in dataclasses.fields(config)}
    assert fields - NOT_KEYS <= set(pio.typed(config))
    if config is pipeline.RunConfig:
        assert fields - NOT_KEYS == {key for keys in pipeline.SECTIONS.values() for key in keys}


BIG = "1" + "0" * 400  # an int beyond float range, which `math.isfinite` cannot take

# (file, section, key, raw value, accepted?): both sides of every bound the loaders enforce on a
# key, each set alone in the files of `files`.  A `base_count` or `growth` that takes a year's
# patent count past float range is left out: the loader once passed it on to fail in the generator,
# and now refuses it (`test_synth`, `test_config_fuzz`)
BOUNDARY = [
    ("tiny.run", "run", "window", "1995-2015", True),
    ("tiny.run", "run", "window", "2016-2015", False),
    ("tiny.run", "run", "periods", "1995-2000, 2001-2015", True),
    ("tiny.run", "run", "periods", "1995-2000, 1995-2000", False),
    ("tiny.run", "run", "periods", "1990-2000", False),
    ("tiny.run", "metrics", "levels", "1, 3, 4", True),
    ("tiny.run", "metrics", "levels", "", True),
    *(("tiny.run", "metrics", "levels", lv, False) for lv in ("0", "2", "5", "1, 1")),
    *(("tiny.run", "metrics", f"diversity_universe_{lv}", value, accepted)
      for lv in (3, 4) for value, accepted in (("1", True), (BIG, True), ("0", False), ("-1", False))),
    ("tiny.run", "metrics", "lag_mode", "all_citations", True),
    ("tiny.run", "metrics", "lag_mode", "first_citation", True),
    ("tiny.run", "metrics", "lag_mode", "First_citation", False),
    ("tiny.run", "metrics", "lag_mode", "none", False),
    ("tiny.run", "metrics", "zscore", "generality, avg_citing_classes, avg_citing_classes_cited", True),
    ("tiny.run", "metrics", "zscore", "", True),
    ("tiny.run", "metrics", "zscore", "growth", False),
    ("tiny.run", "metrics", "zscore", "growht", False),
    ("tiny.run", "metrics", "zscore", "diversity_per_patent", True),  # every per-level series has a z-score
    ("tiny.run", "metrics", "zscore", "generality, generality", False),
    ("tiny.run", "metrics", "lowess", "growth, share, counts", True),
    ("tiny.run", "metrics", "lowess", "growth, share, growth", False),
    ("tiny.run", "metrics", "lowess", "growht", False),  # each a series the config writes
    ("tiny.run", "metrics", "lowess", "growth_lowess", False),
    *(("tiny.run", "metrics", "lowess_fraction", value, accepted) for value, accepted in (
        ("1e-9", True), ("1", True), ("0", False), ("1.0000001", False), ("nan", False), ("inf", False))),
    ("tiny.run", "stats", "compare", "growth, share", True),
    ("tiny.run", "stats", "compare", "share, growth, share", False),
    ("tiny.run", "stats", "compare", "growht", False),  # each a series the config writes, or its smoothing
    ("tiny.run", "stats", "compare", "growth_lowess, generality_d1_zscore", True),
    ("tiny.synth", "synth", "years", "1999-2002", True),
    ("tiny.synth", "synth", "years", "2003-2000", False),
    *(("tiny.synth", "synth", "base_count", value, accepted)
      for value, accepted in (("1", True), ("0", False), ("-1", False))),
    *(("tiny.synth", "synth", "growth", value, accepted) for value, accepted in (
        ("-5", True), ("1e3", True), ("0.1, -1, 0.2", True),
        ("nan", False), ("inf", False), ("-inf", False), ("0.1, nan, 0.2", False))),
    *(("tiny.synth", "synth", "edges_per_patent", value, accepted) for value, accepted in (("0", True), ("-1", False))),
    *(("tiny.synth", "synth", "ai_attraction", value, accepted) for value, accepted in (
        ("1e-9", True), ("1e300", True), ("0", False), ("-1", False), ("inf", False), ("nan", False))),
    *(("tiny.synth", "synth", "lag_mean", value, accepted) for value, accepted in (
        ("0", True), ("-0.0", True), ("1e300", True), ("-1e-9", False), ("inf", False), ("nan", False))),
    *(("tiny.synth", "synth", key, value, accepted)
      for key in ("classes_per_patent_mean", "class_concentration") for value, accepted in (
        ("-5", True), ("0", True), ("nan", False), ("inf", False), ("-inf", False))),
    ("tiny.synth", "synth", "classes_per_patent_mean", "1e300", True),
    ("tiny.synth", "synth", "class_concentration", "2000", False),  # a background-code weight overflows
    *(("tiny.synth", "synth", "filler_vocab", value, accepted) for value, accepted in (("1", True), ("0", False))),
    *(("tiny.synth", "synth", key, value, accepted)
      for key in ("title_len", "abstract_len", "claims_len", "description_len")
      for value, accepted in (("0", True), ("-1", False))),
    ("tiny.synth", "synth", "background_codes", "H04W", True),
    ("tiny.synth", "synth", "background_codes", ",", False),
    ("tiny.synth", "synth", "background_codes", "NOPE", False),
    *(("tiny.synth", "group:kw", "share", value, accepted) for value, accepted in (
        ("0", True), ("-0.0", True), ("1", True), ("-1e-9", False), ("1.0000001", False), ("nan", False))),
    *(("tiny.synth", "group:us", "jaccard_target", value, accepted) for value, accepted in (
        ("0", True), ("0.999", True), ("-1e-9", False), ("1", False), ("nan", False))),
    ("tiny.synth", "group:kw", "jaccard_target", "5", False),  # set without jaccard_with, it would be ignored
    ("tiny.synth", "group:kw", "science_confidence", "1", True),
    ("tiny.synth", "group:kw", "science_confidence", "0", False),
    ("tiny.synth", "group:kw", "phrase", "!!!", False),
    ("tiny.synth", "decoys", "links", "Physics|1|0", True),
    ("tiny.synth", "decoys", "links", "Physics|0|1", False),
    ("tiny.synth", "decoys", "links", "Physics|1|-1", False),
    ("tiny.uspto", "uspto", "components", "speech, vision", True),
    ("tiny.uspto", "uspto", "components", ",", False),
    ("tiny.uspto", "uspto", "components", "speech, vision, speech", False),
    *(("tiny.uspto", "uspto", key, value, accepted)
      for key in ("expansion_hops", "epochs") for value, accepted in (("0", True), ("-1", False))),
    *(("tiny.uspto", "uspto", "vocab_size", value, accepted) for value, accepted in (("1", True), ("0", False))),
    *(("tiny.uspto", "uspto", "threshold", value, accepted) for value, accepted in (
        ("1e-9", True), ("0.999999", True), ("0", False), ("1", False), ("nan", False))),
    *(("tiny.uspto", "uspto", "learning_rate", value, accepted) for value, accepted in (
        ("1e300", True), ("-1e300", True), ("0", True), ("nan", False), ("inf", False), ("-inf", False))),
]


@pytest.mark.parametrize("name, section, key, value, accepted", BOUNDARY,
                         ids=[f"{n[5:]}-{s}-{k}={v[:12]}" for n, s, k, v, _ in BOUNDARY])
def test_boundary(files, name, section, key, value, accepted):
    """Each value is accepted or refused, by the loader of its file, as it was when the
    bounds were written out by hand in each loader."""
    sections = {"tiny.run": run_sections(), "tiny.synth": raw(SYNTH_KEYS), "tiny.uspto": raw(USPTO_KEYS)}[name]
    sections[section][key] = value
    if key == "components":  # [seeds] names exactly the components; without it, each has its default rules
        del sections["seeds"]
    (files / name).write_text(ini(sections), encoding="utf-8")
    if accepted:
        LOADERS[name](str(files / name))
    else:
        with pytest.raises(ConfigError, match=f"^{re.escape(str(files / name))}: "):
            LOADERS[name](str(files / name))


# config dataclass -> the file and the sections whose keys set its fields
OWNERS = {pipeline.RunConfig: ("tiny.run", ("run", "metrics", "stats")), synth.SynthConfig: ("tiny.synth", ("synth",)),
          synth.GroupSpec: ("tiny.synth", ("group:kw", "group:us")), cls.UsptoConfig: ("tiny.uspto", ("uspto",))}


def rules():
    """(config, field, its item type, rule) for every rule a config field declares."""
    for config in OWNERS:
        types = typing.get_type_hints(config)
        for name, hint in typing.get_type_hints(config, include_extras=True).items():
            kind = types[name]
            item = typing.get_args(kind)[0] if typing.get_origin(kind) is tuple else kind
            for rule in getattr(hint, "__metadata__", ()):
                yield config, name, item, rule


@pytest.mark.parametrize("config, name, item, rule", list(rules()), ids=[f"{c.__name__}.{n}" for c, n, _, _ in rules()])
def test_boundary_table_probes_every_rule(config, name, item, rule):
    """The table holds an accepted value that each declared rule admits and a
    refused one it does not; and for a `Range`, a refused value beyond each
    end that a value of the field's type can pass (an int cannot reach an
    infinite end)."""
    file, sections = OWNERS[config]
    parse = pio.PARSERS[typing.get_type_hints(config)[name]]
    rows = {True: [], False: []}
    for f, section, key, value, accepted in BOUNDARY:
        if (f, key) == (file, name) and section in sections and value:
            parsed = parse(value)
            rows[accepted].append(parsed if rule.each and isinstance(parsed, tuple) else (parsed,))
    assert any(all(map(rule.admits, items)) for items in rows[True]), "no accepted value"
    assert any(not all(map(rule.admits, items)) for items in rows[False]), "no refused value"
    if rule.says.startswith("must lie in"):  # a `Range`
        inside = [v for items in rows[True] for v in items]
        far = math.inf if float in (item, *typing.get_args(item)) else 10**400  # an int cannot reach inf
        if not rule.admits(-far):
            assert any(v < min(inside) for items in rows[False] for v in items if not rule.admits(v)), "low end"
        if not rule.admits(far):
            assert any(v > max(inside) for items in rows[False] for v in items if not rule.admits(v)), "high end"
