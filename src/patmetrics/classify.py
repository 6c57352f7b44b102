"""Patent classifiers: keyword list, science-reference rule, code/keyword
rule table, CPC-prefix groups, and a trained per-component text classifier.

All classifiers return frozensets of patent ids, so downstream metrics are
indifferent to how a group was produced.  They read text and CPC codes
through the corpus's interned indexes (`Corpus.tokens`, `Corpus.codes`),
so each text field of each patent is tokenized once, while it is ingested,
and phrase and prefix matching are array operations over token and code ids.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from importlib import resources
from typing import Annotated, Iterable, Iterator, Mapping, Sequence

import numpy as np

from .corpus import TEXT_FIELDS, Corpus
from .errors import ConfigError
from .io import Distinct, NonEmpty, OneOf, Range, check, tokenize

#: Science-reference field label and confidence floor used by default.
DEFAULT_SCIENCE_FIELD = "Computer Science; Artificial Intelligence"
DEFAULT_MIN_CONFIDENCE = 3

KEYWORD_CATEGORIES = ("symbols", "learning", "robotics")

#: Text fields searched by the rule-table classifier (descriptions excluded).
WIPO_TEXT_FIELDS = ("title", "abstract", "claims")


def phrase_patents(corpus: Corpus, phrases: Iterable[tuple[str, ...]], fields: Sequence[str]) -> np.ndarray:
    """Position mask of the patents holding one of `phrases` as consecutive
    tokens in one of `fields`: a phrase hits at i where a field's token ids
    read t[i] == p0, t[i + 1] == p1, ... without running past i's row."""
    hit = np.zeros(len(corpus), bool)
    for name in fields:
        toks = corpus.tokens()[name]
        for ph in phrases:
            p = [toks.id_of(tok) for tok in ph]
            if min(p) < 0:
                continue  # a token that no text holds
            at = np.flatnonzero(toks.ids == p[0])
            row = np.searchsorted(toks.indptr, at, side="right") - 1
            ok = at + len(p) <= toks.indptr[row + 1]  # the phrase fits in the row
            for j in range(1, len(p)):
                ok[ok] = toks.ids[at[ok] + j] == p[j]
            hit[row[ok]] = True
    return hit


# ---------------------------------------------------------------------------
# keyword classifier

def _rule_rows(path: str, columns: Sequence[str]) -> Iterator[tuple[int, list[str]]]:
    """(line number, cells) of each non-empty row of a TSV whose header
    starts with `columns`.  A file that is not UTF-8 is a `ConfigError`."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            header = fh.readline().rstrip("\n").split("\t")
            if header[: len(columns)] != list(columns):
                raise ConfigError(f"{path}: expected columns {', '.join(columns)}")
            for lineno, line in enumerate(fh, start=2):
                line = line.rstrip("\n")
                if line:
                    yield lineno, line.split("\t")
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{path}: {exc}") from None


def _packaged(name: str, load):
    """`load` applied to a data file shipped with the package."""
    with resources.as_file(resources.files("patmetrics") / "data" / name) as p:
        return load(str(p))


def load_keywords(path: str) -> tuple[tuple[str, ...], ...]:
    """Read a phrase/category TSV (with header) into its tokenised phrases,
    deduplicated in first-seen order.  The category is checked, not kept."""
    phrases: dict[tuple[str, ...], None] = {}
    for lineno, parts in _rule_rows(path, ("phrase", "category")):
        if len(parts) < 2:
            raise ConfigError(f"{path}: line {lineno}: expected 2 columns")
        if parts[1].strip().lower() not in KEYWORD_CATEGORIES:
            raise ConfigError(f"{path}: line {lineno}: unknown keyword category {parts[1]!r}")
        ph = tuple(tokenize(parts[0]))
        if not ph:
            raise ConfigError(f"{path}: line {lineno}: empty keyword phrase {parts[0]!r}")
        phrases.setdefault(ph)
    if not phrases:
        raise ConfigError(f"{path}: keyword table has no phrases")
    return tuple(phrases)


def default_keywords() -> tuple[tuple[str, ...], ...]:
    """The packaged default keyword list."""
    return _packaged("keywords.tsv", load_keywords)


def classify_keyword(corpus: Corpus, keywords: Sequence[tuple[str, ...]] | None = None) -> frozenset[str]:
    """Patents whose title, abstract, claims, or description contains one of
    the phrases `keywords` (as `load_keywords` returns them; None: the packaged table)."""
    if keywords is None:
        keywords = default_keywords()
    return corpus.members(phrase_patents(corpus, keywords, TEXT_FIELDS))


# ---------------------------------------------------------------------------
# science-reference classifier

def classify_science(
    corpus: Corpus,
    field: str = DEFAULT_SCIENCE_FIELD,
    min_confidence: int = DEFAULT_MIN_CONFIDENCE,
) -> frozenset[str]:
    """Patents with a science reference to the field label `field` whose
    confidence is strictly greater than `min_confidence`."""
    links = np.array([label == field for label in corpus.science_label], bool)
    links &= corpus.science_confidence > min_confidence
    mask = np.zeros(len(corpus), bool)
    mask[corpus.science_patent[links]] = True
    return corpus.members(mask)


# ---------------------------------------------------------------------------
# code/keyword rule classifier

@dataclass(frozen=True)
class WipoRule:
    """One rule: a CPC prefix, a phrase, or a conjunction of both."""

    kind: Annotated[str, OneOf("code", "keyword", "combined")]
    prefix: str = ""
    phrase: tuple[str, ...] = ()

    def __post_init__(self):
        check(self, "rule ")
        if self.kind in ("code", "combined") and not self.prefix:
            raise ConfigError(f"{self.kind} rule needs a code prefix")
        if self.kind in ("keyword", "combined") and not self.phrase:
            raise ConfigError(f"{self.kind} rule needs a phrase")


def load_wipo_rules(path: str) -> tuple[WipoRule, ...]:
    """Read a rule_kind/code_prefix/phrase TSV (with header)."""
    rules = []
    for lineno, parts in _rule_rows(path, ("rule_kind", "code_prefix", "phrase")):
        if not parts[0].strip():
            raise ConfigError(f"{path}: line {lineno}: missing rule_kind")
        parts += [""] * (3 - len(parts))  # trailing empty cells may be dropped
        kind, prefix, phrase_text = parts[0].strip(), parts[1].strip(), parts[2]
        rules.append(WipoRule(kind, prefix.upper(), tuple(tokenize(phrase_text))))
    if not rules:
        raise ConfigError(f"{path}: rule table is empty")
    return tuple(rules)


def default_wipo_rules() -> tuple[WipoRule, ...]:
    """The packaged sample rule table (one rule of each kind)."""
    return _packaged("wipo_rules.tsv", load_wipo_rules)


def classify_wipo(corpus: Corpus, rules: Sequence[WipoRule] | None = None) -> frozenset[str]:
    """Patents satisfying at least one rule.

    Code rules test CPC raw-symbol prefixes; keyword rules search title,
    abstract, and claims; combined rules require both on the same patent.
    """
    if rules is None:
        rules = default_wipo_rules()
    if not rules:
        raise ConfigError("rule set is empty")
    codes = corpus.codes
    has_phrase = {
        ph: phrase_patents(corpus, [ph], WIPO_TEXT_FIELDS)
        for ph in {r.phrase for r in rules if r.kind != "code"}
    }
    hit = np.zeros(len(corpus), bool)
    for rule in rules:
        if rule.kind == "code":
            hit |= codes.carriers(rule.prefix)
        elif rule.kind == "keyword":
            hit |= has_phrase[rule.phrase]
        else:
            hit |= codes.carriers(rule.prefix) & has_phrase[rule.phrase]
    return corpus.members(hit)


# ---------------------------------------------------------------------------
# CPC prefix groups

def classify_prefix_group(corpus: Corpus, prefix: str) -> frozenset[str]:
    """Patents holding a CPC code starting with `prefix`; "All" selects the
    entire corpus."""
    if prefix == "All":
        return frozenset(corpus.ids)
    pref = prefix.strip().upper()
    if not pref:
        raise ConfigError("empty CPC prefix")
    return corpus.members(corpus.codes.carriers(pref))


# ---------------------------------------------------------------------------
# supervised component classifier

DEFAULT_SEED_RULES: dict[str, tuple[str, ...]] = {
    "machine_learning": ("G06N20", "G06N3/08"),
    "evolutionary_computation": ("G06N3/12",),
    "natural_language_processing": ("G06F40",),
    "speech": ("G10L15", "G10L25"),
    "vision": ("G06V", "G06T7"),
    "knowledge_processing": ("G06N5",),
    "planning_control": ("G05B13",),
    "ai_hardware": ("G06N3/06", "G11C11/54"),
}

DEFAULT_COMPONENTS = tuple(DEFAULT_SEED_RULES)

#: Fields pooled into the bag-of-tokens features.
USPTO_TEXT_FIELDS = ("title", "abstract", "claims")

#: Rows whose tokens the USPTO classifier gathers and counts at once, its
#: three text fields together: the bound on its token-sized temporaries, and
#: the rows scored together.
_ROW_BLOCK = 1024

#: Bytes that training holds per non-zero feature: a column index and a
#: value in row order, a row index and a value in column order, and the
#: term of each epoch's row or column sum.
NONZERO_BYTES = 2 * (4 + 8) + 8


@dataclass
class UsptoConfig:
    """Knobs for the component classifier.  `seed_rules` maps component
    name -> CPC prefixes whose carriers become positive training labels."""

    components: Annotated[tuple[str, ...], NonEmpty, Distinct] = DEFAULT_COMPONENTS
    seed_rules: Mapping[str, tuple[str, ...]] = field(
        default_factory=lambda: dict(DEFAULT_SEED_RULES)
    )
    expansion_hops: Annotated[int, Range(0)] = 1
    vocab_size: Annotated[int, Range(1)] = 500
    threshold: Annotated[float, Range(0, 1, "()")] = 0.5
    epochs: Annotated[int, Range(0)] = 150
    learning_rate: Annotated[float, Range(-math.inf, math.inf, "()")] = 2.0
    anti_seed_rng: int = 13

    def __post_init__(self):
        check(self)
        for comp in self.components:
            if not self.seed_rules.get(comp):
                raise ConfigError(f"component {comp!r} has no seed prefixes")


@dataclass
class ComponentModel:
    name: str
    vocab: tuple[str, ...]
    weights: np.ndarray  # vocab dims, then backward-cite and forward-cite dims
    bias: float
    seed: frozenset[str]
    anti_seed: frozenset[str]
    nonzeros: int  # stored non-zero features of the training rows


@dataclass
class UsptoModel:
    config: UsptoConfig
    components: list[ComponentModel]


def build_uspto_seed(
    corpus: Corpus, prefixes: Sequence[str], hops: int = 0
) -> frozenset[str]:
    """Carriers of any seed prefix, expanded `hops` times by shared CPC
    subclass or by a direct citation in either direction."""
    cleaned = [p.strip().upper() for p in prefixes if p.strip()]
    if not cleaned:
        raise ConfigError("no seed prefixes given")
    seed = np.logical_or.reduce([corpus.codes.carriers(pref) for pref in cleaned])
    for _ in range(hops):
        sub = corpus.class_index(4)
        owners = sub.owners()
        grown = seed.copy()
        grown[owners[np.isin(sub.ids, sub.ids[seed[owners]])]] = True
        grown[corpus.citing[seed[corpus.cited]]] = True
        grown[corpus.cited[seed[corpus.citing]]] = True
        if (grown == seed).all():
            break
        seed = grown
    return corpus.members(seed)


def _field_blocks(corpus: Corpus, rows: np.ndarray) -> Iterator[tuple[slice, np.ndarray, np.ndarray]]:
    """(block, i, token id) of each title, abstract and claims token of the
    patent at position rows[block][i], one block of `_ROW_BLOCK` rows at a
    time with its three fields together: the pooled bags of tokens behind
    the text features, in pieces bounded by the block rather than by `rows`."""
    tokens = corpus.tokens()
    for start in range(0, len(rows), _ROW_BLOCK):
        block = slice(start, start + _ROW_BLOCK)
        yield block, *map(np.concatenate, zip(*(tokens[name].take(rows[block]) for name in USPTO_TEXT_FIELDS)))


def _citation_features(corpus: Corpus, seed: frozenset[str]) -> np.ndarray:
    """log1p of each patent's citations to, then from, the seed, one row per
    position; by `math.log1p` of each count, since `np.log1p` may differ in
    the last bit."""
    in_seed = corpus.mask(seed)
    back = np.bincount(corpus.citing[in_seed[corpus.cited]], minlength=len(corpus))
    fwd = np.bincount(corpus.cited[in_seed[corpus.citing]], minlength=len(corpus))
    counts = np.stack([back, fwd], axis=1)
    return np.array([math.log1p(k) for k in range(counts.max(initial=0) + 1)])[counts]


def _vocabulary(corpus: Corpus, rows: np.ndarray, size: int) -> tuple[str, ...]:
    """The `size` most frequent tokens of the patents at positions `rows`,
    ties in id order, which is token order.  The last block's tokens are
    freed on return, before the features are built."""
    names = corpus.tokens()["title"].names
    counts = np.zeros(len(names), np.int64)
    for _, _, tok in _field_blocks(corpus, rows):
        block = np.bincount(tok)
        counts[: len(block)] += block
    top = np.argsort(-counts, kind="stable")[: min(size, np.count_nonzero(counts))]
    return tuple(names[k] for k in top.tolist())


def _columns(corpus: Corpus, vocab: Sequence[str]) -> np.ndarray:
    """The feature column of each token id of the corpus: its place in
    `vocab`, or len(vocab) for a token outside it."""
    words = corpus.tokens()["title"]  # every field's names are the one vocabulary
    known = np.array([words.id_of(tok) for tok in vocab], np.int64)
    column = np.full(len(words.names), len(vocab), np.int32)
    column[known[known >= 0]] = np.flatnonzero(known >= 0)
    return column


def _features(
    blocks: Iterable[tuple], column: np.ndarray, v: int, cites: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Token shares over a vocabulary of `v` tokens, each token id's column
    given by `column` as `_columns` builds it, then `cites`, the log
    citation counts to and from the seed, for the rows whose tokens
    `blocks` holds, as `_field_blocks` yields them: the feature rows of both
    training and scoring, as (indptr, column, value) of their non-zeros, in
    column order within each row.  A share is n / total of in-vocabulary
    token counts.  Each block sorts the row * (v + 2) + column keys of its
    in-vocabulary tokens and non-zero citation features together, and
    counts each run of equal keys.  The counts and totals are integers, so
    exact."""
    sizes, cols, vals = [np.zeros(1, np.int64)], [], []
    for block, i, tok in blocks:
        col = column.take(tok)
        inside = np.flatnonzero(col < v)  # `take` by index, much faster here than a boolean mask
        i, col = i.take(inside), col.take(inside)
        block_cites = cites[block]
        at = np.flatnonzero(block_cites)  # row * 2 + j of each non-zero citation feature
        key = np.sort(np.concatenate([i * np.int64(v + 2) + col, at // 2 * (v + 2) + v + at % 2]))
        first = np.flatnonzero(np.diff(key, prepend=-1))  # where each run of equal keys starts
        row, col = np.divmod(key[first], v + 2)
        val = np.diff(first, append=len(key)) / np.maximum(np.bincount(i, minlength=len(block_cites)), 1)[row]
        val[col >= v] = block_cites.ravel()[at]
        sizes.append(np.bincount(row, minlength=len(block_cites)))
        cols.append(col.astype(np.int32))
        vals.append(val)
    return np.cumsum(np.concatenate(sizes)), np.concatenate(cols), np.concatenate(vals)


def _reduce_segments(ufunc: np.ufunc, terms: np.ndarray, indptr: np.ndarray) -> np.ndarray:
    """`ufunc` over terms[indptr[k] : indptr[k + 1]] for each k, by
    `ufunc.reduceat` over the non-empty segments, and 0.0 for an empty one,
    for which `reduceat` would return terms[indptr[k]]."""
    out = np.zeros(len(indptr) - 1)
    full = indptr[:-1] < indptr[1:]
    out[full] = ufunc.reduceat(terms, indptr[:-1][full])
    return out


def _fit(
    corpus: Corpus, rows: np.ndarray, vocab: Sequence[str], cites: np.ndarray, y: np.ndarray, cfg: UsptoConfig
) -> tuple[np.ndarray, float, int]:
    """The weights and bias that full-batch gradient descent from zero fits
    to the feature rows of the patents at positions `rows`, with labels `y`,
    and the number of non-zero features.  Each epoch's X @ w and X.T @ g are
    sums over the segments of each row, and of each column of a copy in
    column order.  The columns are max-abs scaled during descent only (every
    feature is >= 0, so max-abs is the column max); folding the scales back
    into the weights keeps scoring a plain dot product on raw features.
    Every array is freed on return, before the next component builds its own."""
    indptr, col, val = _features(_field_blocks(corpus, rows), _columns(corpus, vocab), len(vocab), cites[rows])
    order = np.argsort(col, kind="stable")  # column order, rows ascending within each column
    colptr = np.cumsum(np.concatenate([[0], np.bincount(col, minlength=len(vocab) + 2)]))
    scales = _reduce_segments(np.maximum, val[order], colptr)
    scales[scales == 0] = 1.0
    val /= scales[col]
    row = np.repeat(np.arange(len(rows), dtype=np.int32), np.diff(indptr))[order]
    colval = val[order]
    del order
    w, b, terms = np.zeros(len(scales)), 0.0, np.empty(len(val))
    with np.errstate(over="ignore"):  # an exp that overflows to inf gives p = 0, its limit, as intended
        for _ in range(cfg.epochs):
            np.take(w, col, out=terms, mode="clip")  # every index is in range; "clip" skips a buffer
            terms *= val
            p = 1.0 / (1.0 + np.exp(-(_reduce_segments(np.add, terms, indptr) + b)))
            g = p - y
            np.take(g, row, out=terms, mode="clip")
            terms *= colval
            w -= cfg.learning_rate * _reduce_segments(np.add, terms, colptr) / len(rows)
            b -= cfg.learning_rate * g.mean()
    return w / scales, float(b), len(val)


def train_uspto(corpus: Corpus, config: UsptoConfig | None = None) -> UsptoModel:
    """Train one logistic model per component.

    Positives are the (expanded) seed; negatives are an equal-size sample of
    the rest of the corpus drawn with a fixed RNG.  Weights start at zero
    and move by full-batch gradient descent, so zero epochs leaves every
    score at exactly 0.5.
    """
    cfg = config or UsptoConfig()
    by_id = np.argsort(np.array(corpus.ids, dtype=object))  # positions in id order
    models = []
    for comp in cfg.components:
        seed = build_uspto_seed(corpus, cfg.seed_rules[comp], cfg.expansion_hops)
        if not seed:
            raise ConfigError(f"component {comp!r}: seed matches no patent")
        in_seed = corpus.mask(seed)[by_id]
        pool = by_id[~in_seed]
        if not len(pool):
            raise ConfigError(f"component {comp!r}: no negatives left to sample")
        # `sample` draws its indices from the population's size alone
        rng = random.Random(f"{cfg.anti_seed_rng}:{comp}")
        picks = rng.sample(range(len(pool)), min(len(seed), len(pool)))
        anti = frozenset(corpus.ids[p] for p in pool[picks].tolist())

        # the seed, then the anti-seed, each in id order
        rows = np.concatenate([by_id[in_seed], pool[np.sort(picks)]])
        y = np.repeat([1.0, 0.0], [len(seed), len(anti)])
        vocab = _vocabulary(corpus, rows, cfg.vocab_size)
        weights, bias, nonzeros = _fit(corpus, rows, vocab, _citation_features(corpus, seed), y, cfg)
        models.append(ComponentModel(comp, vocab, weights, bias, seed, anti, nonzeros))
    return UsptoModel(cfg, models)


def classify_uspto(corpus: Corpus, model: UsptoModel) -> frozenset[str]:
    """Union of patents scoring strictly above the threshold in any
    component, a block of `_ROW_BLOCK` rows at a time: each block's tokens
    are gathered once, and each component scores them by the row sums of
    its own block of non-zero features, one component at a time."""
    cites = [_citation_features(corpus, comp.seed) for comp in model.components]
    columns = [_columns(corpus, comp.vocab) for comp in model.components]
    hit = np.zeros(len(corpus), bool)
    with np.errstate(over="ignore"):  # an exp that overflows to inf gives a score of 0, its limit, as intended
        for start in range(0, len(corpus), _ROW_BLOCK):
            rows = np.arange(start, min(start + _ROW_BLOCK, len(corpus)))
            blocks = list(_field_blocks(corpus, rows))
            for comp, comp_cites, column in zip(model.components, cites, columns):
                indptr, col, val = _features(blocks, column, len(comp.vocab), comp_cites[rows])
                z = _reduce_segments(np.add, val * comp.weights[col], indptr)
                hit[rows] |= 1.0 / (1.0 + np.exp(-(z + comp.bias))) > model.config.threshold
    return corpus.members(hit)
