"""Scoring: depth-1 subtree F1 against gold trees, plus BLEU / ROUGE-L /
Pearson utilities for baseline comparison and analysis."""

from __future__ import annotations

import math
import re
from collections import Counter, namedtuple
from functools import lru_cache

from .grammar import GoldGrammar, f1_lead
from .tree import parse_serialized, subtrees_of

BLEU_MAX_N = 4
BLEU_EPSILON = 1e-9


ScoreBreakdown = namedtuple("ScoreBreakdown", "precision recall f1 best_gold_tree")


def _f1(precision: float, recall: float) -> float:
    if precision + recall == 0:
        return 0.0
    return 2 * precision * recall / (precision + recall)


def _breakdown(m: int, g: int, n: int, text: str) -> ScoreBreakdown:
    """The scores written out for a gold tree of ``g`` rules, ``m`` of them
    among ``n`` predicted subtrees."""
    precision = m / n if n else 0.0
    recall = m / g if g else 0.0
    return ScoreBreakdown(precision, recall, _f1(precision, recall), text)


def tree_score(pred: frozenset[str], gold_texts) -> ScoreBreakdown:
    """The best exact-match F1 of the predicted depth-1 subtrees, as rule
    texts, against a gold tree's, over gold trees given as the program's
    own canonical serializations, read back unchecked; ties on the exact
    F1 go to the lowest index.  ``best_gold_tree`` holds the best tree's text."""
    n = len(pred)
    best = None
    for text in gold_texts:
        gold = frozenset(subtrees_of(parse_serialized(text)))
        m = len(gold & pred)
        if best is None or f1_lead(m, len(gold), best[0], best[1], n) > 0:
            best = (m, len(gold), text)
    if best is None:
        raise ValueError("gold set must be non-empty")
    m, g, text = best
    return _breakdown(m, g, n, text)


def grammar_score(pred: frozenset[str], grammar: GoldGrammar) -> ScoreBreakdown:
    """:func:`tree_score` over every tree ``grammar`` derives, without
    enumerating them: the scores of :meth:`GoldGrammar.best_tree`, the
    scorer's one entry point, which finds the winning tree, ranked and
    tie-broken as ``tree_score`` ranks them.  ``best_gold_tree`` holds the
    winner's text, and the scores are ``tree_score``'s float expressions;
    a caller that needs the winning tree's rules reads them off the text
    with ``subtrees_of(parse_serialized(text))``."""
    m, g, text = grammar.best_tree(pred)
    return _breakdown(m, g, len(pred), text)


_TOKEN_RE = re.compile(r"\w+|[^\w\s]")


def tokenize(text: str) -> list[str]:
    """Lowercase, whitespace-split, punctuation as separate tokens."""
    return _TOKEN_RE.findall(text.lower())


def _ngrams(tokens, n: int) -> Counter:
    return Counter(zip(*(tokens[i:] for i in range(n))))


def _lcs_masks(tokens) -> dict[str, int]:
    """Bit j of a token's mask is set where ``tokens[j]`` is that token."""
    masks: dict[str, int] = {}
    for j, y in enumerate(tokens):
        masks[y] = masks.get(y, 0) | 1 << j
    return masks


# Distinct reference texts whose prepared form the text metrics remember.
# A run compares many candidates with the reference of each pattern, so a
# few dozen entries cover it; bounded, so a long run of varied references
# cannot grow the memo without end.
_REFERENCE_MEMO_SIZE = 32


@lru_cache(maxsize=_REFERENCE_MEMO_SIZE)
def _reference(text: str) -> tuple[tuple[str, ...], tuple[Counter, ...], dict[str, int]]:
    """The reference side of :func:`bleu` and :func:`rouge_l`, prepared
    once per distinct text: its tokens, its n-gram counts for
    n = 1..BLEU_MAX_N and the LCS bit masks of its tokens.  Every caller
    shares these values, so none may mutate them."""
    tokens = tuple(tokenize(text))
    grams = tuple(_ngrams(tokens, n) for n in range(1, BLEU_MAX_N + 1))
    return tokens, grams, _lcs_masks(tokens)


def _clipped_precisions(cand: list[str], ref_grams) -> list[float]:
    """Clipped n-gram precisions of ``cand`` for n = 1, 2, ... against the
    reference's n-gram counts ``ref_grams``, one per n."""
    precisions: list[float] = []
    for n, ref_counts in enumerate(ref_grams, start=1):
        total = len(cand) - n + 1
        if total <= 0:
            precisions.append(0.0)
            continue
        clipped = 0
        for gram, count in _ngrams(cand, n).items():
            ref_count = ref_counts.get(gram)
            if ref_count:
                clipped += count if count < ref_count else ref_count
        precisions.append(clipped / total)
    return precisions


def bleu(candidate: str, reference: str) -> float:
    """Document-level BLEU-4: geometric mean of clipped n-gram precisions
    times the brevity penalty; a zero precision is floored at epsilon."""
    cand = tokenize(candidate)
    ref, ref_grams, _ = _reference(reference)
    if not cand:
        return 0.0
    log_sum = 0.0
    for p in _clipped_precisions(cand, ref_grams):
        log_sum += math.log(p or BLEU_EPSILON)
    geo_mean = math.exp(log_sum / BLEU_MAX_N)
    brevity = 1.0 if len(cand) >= len(ref) else math.exp(1 - len(ref) / len(cand))
    return brevity * geo_mean


def _lcs_length(a, masks: dict[str, int], width: int) -> int:
    """Length of a longest common subsequence of ``a`` and the ``width``
    tokens whose :func:`_lcs_masks` are ``masks``, bit-parallel over them
    (Allison and Dix, IPL 1986; Hyyrö, AWOCA 2004).

    Bit j of ``v`` is 0 where row i of the LCS table steps up at column j, so
    the zeros of ``v`` count the LCS of ``a[:i]`` and the other side.  Python
    ints are ``width`` bits wide: each token of ``a`` costs O(width/w) word
    operations.
    """
    full = (1 << width) - 1
    v = full
    for x in a:
        u = v & masks.get(x, 0)
        v = ((v + u) | (v - u)) & full
    return width - v.bit_count()


def rouge_l(candidate: str, reference: str) -> float:
    """Token-level LCS F1."""
    cand = tokenize(candidate)
    ref, _, masks = _reference(reference)
    if not cand or not ref:
        return 0.0
    lcs = _lcs_length(cand, masks, len(ref))
    return _f1(lcs / len(cand), lcs / len(ref))


def _t_two_sided_p(t: float, df: int) -> float:
    """P(|T| >= |t|) for Student's t with a positive integer ``df``.

    One minus the finite series for A(t|df) in Abramowitz & Stegun 26.7.3
    (odd df) and 26.7.4 (even df), with theta = atan(t / sqrt(df)): exact up
    to rounding, with no iteration to convergence.
    """
    t = abs(t)
    root_df = math.sqrt(df)
    hyp = math.hypot(t, root_df)
    sin_theta, cos_theta = t / hyp, root_df / hyp
    term, series = 1.0, 0.0
    for j in range(2 + df % 2, df + 1, 2):
        series += term
        term *= cos_theta * cos_theta * (j - 1) / j
    central = sin_theta * series
    if df % 2:
        central = 2 / math.pi * (math.atan2(t, root_df) + cos_theta * central)
    return max(0.0, 1.0 - central)


def _deviations(values: list[float]) -> list[float]:
    """Deviations from the mean, less their own mean: the corrected two-pass
    algorithm (Chan, Golub and LeVeque, 1983).  Values a few ulps apart have
    a float mean whose rounding error is as large as their spread."""
    mean = sum(values) / len(values)
    deviations = [v - mean for v in values]
    residue = sum(deviations) / len(values)
    return [d - residue for d in deviations]


def pearson(xs, ys) -> tuple[float, float, float]:
    """Sample Pearson correlation with a t statistic and its two-sided p
    from the t distribution (n - 2 degrees of freedom)."""
    xs = [float(x) for x in xs]
    ys = [float(y) for y in ys]
    if len(xs) != len(ys):
        raise ValueError(f"length mismatch: {len(xs)} vs {len(ys)}")
    n = len(xs)
    if n < 3:
        raise ValueError("need at least 3 paired observations")
    # Tested on the values themselves: the mean of equal floats can round
    # away from them, leaving sxx or syy a tiny nonzero residue.
    if min(xs) == max(xs) or min(ys) == max(ys):
        raise ValueError("correlation undefined for a constant input")
    dxs = _deviations(xs)
    dys = _deviations(ys)
    sxx = sum(dx * dx for dx in dxs)
    syy = sum(dy * dy for dy in dys)
    if sxx == 0 or syy == 0:
        raise ValueError("correlation undefined for a constant input")
    sxy = sum(dx * dy for dx, dy in zip(dxs, dys))
    r = max(-1.0, min(1.0, sxy / math.sqrt(sxx * syy)))
    if abs(r) == 1.0:
        return r, math.inf if r > 0 else -math.inf, 0.0
    t = r * math.sqrt((n - 2) / (1 - r * r))
    return r, t, _t_two_sided_p(t, n - 2)
