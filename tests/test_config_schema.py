"""The schema of the run, synthetic-corpus and classifier-training configs:
the keys each section knows, and the value each key loads as.  A key is
parsed by the type of the config dataclass field it sets, so these pin that
the types give the same keys and values as the parsers once written out by
hand in each loader."""

import dataclasses

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
