"""Reference implementations of the classifiers' per-patent loops.

These are the loops that `patmetrics.classify` replaced with array
operations over the corpus's interned indexes: a regular-expression
tokenizer, phrase matching over token strings, CPC prefixes by
`str.startswith` on each patent's codes, the seed expansion over (citing
id, cited id) pairs, and the USPTO features from one `Counter` of tokens
per patent.  They read each patent's raw text from the rows its corpus was
ingested from (`helpers.texts_of`), never from the corpus's token index.
They are kept as test oracles: memberships and vocabularies must be equal,
and feature matrices bit-equal, to what `patmetrics.classify` returns.
`train_uspto` is the trainer that built each component's whole dense
feature matrix, an absolute-value copy and a scaled copy of it; its
weights and biases must be bit-equal.  Its products and scores take each
dot product over the non-zero entries of a dense row or column in index
order (`_sparse_dot`), the order in which `patmetrics.classify` sums the
same terms by `np.add.reduceat`.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import replace
from typing import Mapping, Sequence

import numpy as np

from patmetrics.classify import (
    TEXT_FIELDS,
    ComponentModel,
    USPTO_TEXT_FIELDS,
    UsptoConfig,
    UsptoModel,
    WIPO_TEXT_FIELDS,
    build_uspto_seed as _interned_seed,
    default_keywords,
    default_wipo_rules,
    phrase_patents,
)
from patmetrics.errors import ConfigError

from helpers import build_corpus, citation_triples, codes_by_id, texts_of
from reference_corpus import index_tokens, tokenize


def _pairs(corpus) -> list[tuple[str, str]]:
    return [(citing, cited) for citing, cited, _ in citation_triples(corpus)]


def match_tokens(phrases: Sequence[tuple[str, ...]], tokens: Sequence[str]) -> bool:
    """Whether some phrase is a run of consecutive `tokens`."""
    n = len(tokens)
    for i in range(n):
        for ph in phrases:
            k = len(ph)
            if i + k <= n and tuple(tokens[i : i + k]) == ph:
                return True
    return False


def match_text(phrases: Sequence[tuple[str, ...]], text: str) -> bool:
    """Whether `phrase_patents` finds one of `phrases` in `text`, the title
    of a one-patent corpus read through this module's token index."""
    corpus = build_corpus({"P": 2000}, texts={"P": {"title": text}})
    corpus = replace(corpus, token_index=index_tokens(texts_of(corpus)))
    return bool(phrase_patents(corpus, phrases, ("title",))[0])


def classify_keyword(corpus, phrases=None) -> frozenset[str]:
    phrases = phrases or default_keywords()
    texts = texts_of(corpus)
    return frozenset(
        pid
        for p, pid in enumerate(corpus.ids)
        if any(match_tokens(phrases, tokenize(texts[name][p])) for name in TEXT_FIELDS)
    )


def classify_wipo(corpus, rules=None) -> frozenset[str]:
    rules = default_wipo_rules() if rules is None else rules
    if not rules:
        raise ConfigError("rule set is empty")
    hits = []
    codes = codes_by_id(corpus)
    texts = texts_of(corpus)
    for p, pid in enumerate(corpus.ids):
        raws = codes.get(pid, ())
        fields = [tokenize(texts[name][p]) for name in WIPO_TEXT_FIELDS]

        def has_phrase(ph):
            return any(match_tokens([ph], tokens) for tokens in fields)

        for rule in rules:
            code_ok = any(raw.startswith(rule.prefix) for raw in raws) if rule.prefix else True
            if rule.kind == "code":
                ok = code_ok
            elif rule.kind == "keyword":
                ok = has_phrase(rule.phrase)
            else:
                ok = code_ok and has_phrase(rule.phrase)
            if ok:
                hits.append(pid)
                break
    return frozenset(hits)


def classify_prefix_group(corpus, prefix: str) -> frozenset[str]:
    if prefix == "All":
        return frozenset(corpus.ids)
    pref = prefix.strip().upper()
    if not pref:
        raise ConfigError("empty CPC prefix")
    return frozenset(
        pid for pid, codes in codes_by_id(corpus).items() if any(c.startswith(pref) for c in codes)
    )


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
    by_id = codes_by_id(corpus)
    seed = {
        pid
        for pid, codes in by_id.items()
        if any(c.startswith(pref) for pref in cleaned for c in codes)
    }
    for _ in range(hops):
        seed_subclasses = {c[:4] for pid in seed for c in by_id.get(pid, ())}
        grown = set(seed)
        for pid, codes in by_id.items():
            if pid not in grown and any(c[:4] in seed_subclasses for c in codes):
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


def _doc_counter(corpus, pid: str) -> Counter:
    p = corpus.position[pid]
    counts: Counter = Counter()
    for name in USPTO_TEXT_FIELDS:
        counts.update(tokenize(texts_of(corpus)[name][p]))
    return counts


def _text_rows(counters: Sequence[Counter], vocab_index: Mapping[str, int]) -> np.ndarray:
    X = np.zeros((len(counters), len(vocab_index)), dtype=np.float64)
    for i, counts in enumerate(counters):
        total = 0
        for tok, n in counts.items():
            if tok in vocab_index:
                total += n
        if total == 0:
            continue
        for tok, n in counts.items():
            j = vocab_index.get(tok)
            if j is not None:
                X[i, j] = n / total
    return X


def top_tokens(corpus, ids: Sequence[str], size: int) -> tuple[str, ...]:
    """The training vocabulary: the `size` most frequent tokens of `ids`."""
    totals: Counter = Counter()
    for pid in ids:
        totals.update(_doc_counter(corpus, pid))
    return tuple(tok for tok, _ in sorted(totals.items(), key=lambda kv: (-kv[1], kv[0]))[:size])


def features(corpus, ids: Sequence[str], vocab: Sequence[str], seed: frozenset[str]) -> np.ndarray:
    counters = [_doc_counter(corpus, pid) for pid in ids]
    vocab_index = {tok: j for j, tok in enumerate(vocab)}
    return np.hstack([_text_rows(counters, vocab_index), citation_features(corpus, ids, seed)])


def _sparse_dot(X: np.ndarray, x: np.ndarray) -> np.ndarray:
    """X @ x, each row's dot product taken over the row's non-zero entries
    in index order as terms[0] + terms[1:].sum(), which is how
    `np.add.reduceat` sums a segment (a left-to-right sum is not), and 0.0
    for a row without one."""
    out = np.zeros(len(X))
    for r, row in enumerate(X):
        nz = np.flatnonzero(row)
        if len(nz):
            terms = row[nz] * x[nz]
            out[r] = terms[0] + terms[1:].sum()
    return out


def classify_uspto(corpus, model) -> frozenset[str]:
    hits = set()
    ids = list(corpus.ids)
    for comp in model.components:
        X = features(corpus, ids, comp.vocab, comp.seed)
        scores = 1.0 / (1.0 + np.exp(-(_sparse_dot(X, comp.weights) + comp.bias)))
        hits.update(pid for pid, s in zip(ids, scores) if s > model.config.threshold)
    return frozenset(hits)


def train_uspto(corpus, config: UsptoConfig | None = None) -> UsptoModel:
    """Descent on a scaled copy of the features, each component's matrix
    alive until the next one is built."""
    cfg = config or UsptoConfig()
    models = []
    for comp in cfg.components:
        seed = _interned_seed(corpus, cfg.seed_rules[comp], cfg.expansion_hops)
        if not seed:
            raise ConfigError(f"component {comp!r}: seed matches no patent")
        pool = sorted(set(corpus.ids) - seed)
        if not pool:
            raise ConfigError(f"component {comp!r}: no negatives left to sample")
        rng = random.Random(f"{cfg.anti_seed_rng}:{comp}")
        anti = frozenset(rng.sample(pool, min(len(seed), len(pool))))

        train_ids = sorted(seed) + sorted(anti)
        y = np.array([1.0] * len(seed) + [0.0] * len(anti))
        vocab = top_tokens(corpus, train_ids, cfg.vocab_size)
        X = features(corpus, train_ids, vocab, seed)
        scales = np.abs(X).max(axis=0)
        scales[scales == 0] = 1.0
        Xs = X / scales

        w = np.zeros(Xs.shape[1])
        b = 0.0
        n = len(train_ids)
        for _ in range(cfg.epochs):
            p = 1.0 / (1.0 + np.exp(-(_sparse_dot(Xs, w) + b)))
            g = p - y
            w -= cfg.learning_rate * _sparse_dot(Xs.T, g) / n
            b -= cfg.learning_rate * g.mean()
        models.append(ComponentModel(comp, vocab, w / scales, float(b), seed, anti, np.count_nonzero(X)))
    return UsptoModel(cfg, models)
