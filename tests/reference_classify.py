"""Reference implementations of the USPTO classifier's citation inputs.

These are the loops that `patmetrics.classify` replaced with counts over
the corpus's position arrays: the per-patent citation features and the
citation hop of the seed expansion.  They read each citation as a (citing
id, cited id) pair and are kept as test oracles: the feature matrix must be
bit-equal, and the seed equal, to what `patmetrics.classify` returns.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from patmetrics.errors import ConfigError

from helpers import citation_triples


def _pairs(corpus) -> list[tuple[str, str]]:
    return [(citing, cited) for citing, cited, _ in citation_triples(corpus)]


def citation_features(corpus, ids: Sequence[str], seed: frozenset[str]) -> np.ndarray:
    outgoing: dict[str, list[str]] = {}
    incoming: dict[str, list[str]] = {}
    for citing, cited in _pairs(corpus):
        outgoing.setdefault(citing, []).append(cited)
        incoming.setdefault(cited, []).append(citing)
    F = np.zeros((len(ids), 2), dtype=np.float64)
    for i, pid in enumerate(ids):
        back = sum(1 for cited in outgoing.get(pid, ()) if cited in seed)
        fwd = sum(1 for citing in incoming.get(pid, ()) if citing in seed)
        F[i, 0] = math.log1p(back) if back else 0.0
        F[i, 1] = math.log1p(fwd) if fwd else 0.0
    return F


def build_uspto_seed(corpus, prefixes: Sequence[str], hops: int = 0) -> frozenset[str]:
    cleaned = [p.strip().upper() for p in prefixes if p.strip()]
    if not cleaned:
        raise ConfigError("no seed prefixes given")
    seed = {
        pid
        for pid, codes in corpus.codes.items()
        if any(c.raw.startswith(pref) for pref in cleaned for c in codes)
    }
    for _ in range(hops):
        seed_subclasses = {c.subclass4 for pid in seed for c in corpus.codes_of(pid)}
        grown = set(seed)
        for pid, codes in corpus.codes.items():
            if pid not in grown and any(c.subclass4 in seed_subclasses for c in codes):
                grown.add(pid)
        for citing, cited in _pairs(corpus):
            if cited in seed:
                grown.add(citing)
            if citing in seed:
                grown.add(cited)
        if grown == seed:
            break
        seed = grown
    return frozenset(seed)
