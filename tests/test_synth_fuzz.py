"""`synth.generate` against the oracle `reference_synth.generate` on random
configs and seeds: equal tables and truth sets, or equal `ConfigError`
texts, and tables that strict `io.ingest` accepts row for row."""

import dataclasses
import os
import random
from types import SimpleNamespace

import pytest

from patmetrics import corpus as corpus_module
from patmetrics import synth
from patmetrics.errors import ConfigError

import reference_synth as ref

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
DEFAULTS = {f.name: f.default for f in dataclasses.fields(synth.SynthConfig)}
PHRASES = ["neural network", "fuzzy logic", "swarm", "Deep-Belief net"]
MARKERS = ["QuantumFlux", "tab\tmark", "zeta"]
CODES = ["G06N", "B25J", "Y02E10", "g06n20/00", None]
BACKGROUND = ["G06F", "H04L", "A01B", "G06N20/00", "h04w"]
LINKS = [("CS; AI", 4), ("CS; AI", 3), (" Physics ", 9)]


def random_config(rng):
    """The keyword arguments of a small `SynthConfig`, now and then one that
    fails: groups that overflow a year, a growth schedule of the wrong
    length, a shadowed phrase or a marker inside a phrase."""
    lo = rng.randrange(1990, 2010)
    hi = lo + rng.randrange(0, 5)
    growth = rng.choice([(), (rng.uniform(-0.3, 0.6),), tuple(rng.uniform(0, 0.5) for _ in range(hi - lo))])
    if rng.random() < 0.03:
        growth = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6)
    groups = []
    phrases, markers = rng.sample(PHRASES, 4), rng.sample(MARKERS, 3)
    for i in range(rng.randrange(0, 5)):
        spec = {"name": f"g{i}", "share": rng.choice([0.0, 0.05, 0.1, 0.3, 0.5, 1.0])}
        if rng.random() < 0.5:
            spec["phrase"] = phrases.pop() if rng.random() < 0.97 else "neural"
        if rng.random() < 0.4:
            spec["marker"] = markers.pop() if markers and rng.random() < 0.97 else "network"
        if rng.random() < 0.5:
            spec["codes"] = tuple(rng.choice(CODES) for _ in range(rng.randrange(1, 5)))
        if rng.random() < 0.4:
            spec["science_field"], spec["science_confidence"] = rng.choice(LINKS)
        if groups and rng.random() < 0.6:
            spec["jaccard_with"] = rng.choice(groups).name
            spec["jaccard_target"] = rng.choice([0.0, 0.1, 0.5, 0.9])
        groups.append(synth.GroupSpec(**spec))
    return {
        "rng_seed": rng.randrange(2**32),
        "years": (lo, hi),
        "base_count": rng.randrange(1, 40),
        "growth": growth,
        "groups": tuple(groups),
        "edges_per_patent": rng.choice([0, 1, 3, 8, 60]),
        "ai_attraction": rng.choice([0.5, 1.0, 4, 25.0]),
        "lag_mean": rng.choice([0.0, 0.5, 3.0, 12.0]),
        "classes_per_patent_mean": rng.choice([0.5, 1.0, 2.0, 5.0]),
        "class_concentration": rng.choice([0.0, 1.1, 3.0]),
        "background_codes": tuple(rng.choice(BACKGROUND) for _ in range(rng.randrange(1, 5))),
        "filler_vocab": rng.choice([1, 2, 50, 400]),
        "title_len": rng.choice([0, 1, 6]),
        "abstract_len": rng.choice([0, 1, 5, 30]),
        "claims_len": rng.choice([0, 3]),
        "description_len": rng.choice([0, 4]),
        "decoy_links": tuple(
            (*rng.choice(LINKS), rng.choice([0, 1, 3, 100])) for _ in range(rng.randrange(0, 3))
        ),
    }


def outcome(make):
    try:
        return make()
    except ConfigError as exc:
        return f"ConfigError: {exc}"


def test_generate_equals_oracle_on_random_configs():
    seen = set()
    for seed in range(300):
        kw = random_config(random.Random(seed))
        got = outcome(lambda: synth.generate(synth.SynthConfig(**kw)))
        want = outcome(lambda: ref.generate(SimpleNamespace(**{**DEFAULTS, **kw})))
        assert got == want, seed
        if isinstance(got, str):
            seen.add("overflow" if "slots" in got else "error")
            continue
        tables, truth = got
        _, report = corpus_module.ingest({name: (name, rows) for name, rows in tables.items()}, window=kw["years"], strict=True)
        for name, rows in tables.items():
            assert (report.tables[name].accepted, report.tables[name].warnings) == (len(rows), {}), (seed, name)
        seen |= covered(kw, tables, truth)
    assert seen >= {
        "overflow", "error", "chain", "phrase and marker", "codes with None and repeats", "decoy repeats a link",
        "edges given up", "lag_mean 0", "empty text field", "one filler word",
    }, seen


def covered(kw, tables, truth):
    """The coverage cases that one generated config hits."""
    groups = {g.name: g for g in kw["groups"]}
    hit = set()
    if any(g.jaccard_with and groups[g.jaccard_with].jaccard_with and truth[g.name] for g in groups.values()):
        hit.add("chain")
    with_phrase = set().union(*(truth[g.name] for g in groups.values() if g.phrase))
    with_marker = set().union(*(truth[g.name] for g in groups.values() if g.marker))
    if with_phrase & with_marker:
        hit.add("phrase and marker")
    if any(None in g.codes and len(set(g.codes)) < len(g.codes) and truth[g.name] for g in groups.values()):
        hit.add("codes with None and repeats")
    links = {(g.science_field.strip(), g.science_confidence) for g in groups.values() if g.science_field and truth[g.name]}
    if any((field.strip(), conf) in links and n for field, conf, n in kw["decoy_links"]):
        hit.add("decoy repeats a link")
    if len(tables["citations"]) < kw["edges_per_patent"] * len(tables["patents"]):
        hit.add("edges given up")
    if kw["lag_mean"] == 0 and tables["citations"]:
        hit.add("lag_mean 0")
    if 0 in (kw["title_len"], kw["abstract_len"], kw["claims_len"], kw["description_len"]):
        hit.add("empty text field")
    if kw["filler_vocab"] == 1:
        hit.add("one filler word")
    return hit


@pytest.mark.parametrize("name", ["citation-heavy", "text-heavy"])
def test_generate_equals_oracle_on_workload_configs(name):
    cfg = synth.load_synth_config(os.path.join(ROOT, "bench", "workloads", f"{name}.synth"))
    assert cfg.rng_seed == 20240
    assert synth.generate(cfg) == ref.generate(cfg)
