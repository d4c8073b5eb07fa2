import math
from collections import Counter

import pytest
from hypothesis import example, given
from hypothesis import strategies as hs

from sewtree.metrics import (
    BLEU_EPSILON,
    _f1,
    _reference,
    _lcs_length,
    _lcs_masks,
    bleu,
    ngram_precisions,
    pearson,
    rouge_l,
    tokenize,
    tree_score,
)

from helpers import counter_bleu, quadratic_lcs_length, quadratic_rouge_l, subtree_set

SKIRT = "(ABC_1 (AB_1 (AB A B)) C)"


class TestSubtreeF1:
    """``tree_score`` against one gold tree: exact-match F1 of the
    predicted subtree set against that tree's."""

    def test_identity(self):
        b = tree_score(subtree_set(SKIRT), [SKIRT])
        assert b.f1 == 1.0 and b.best_gold_tree == SKIRT

    def test_partial_overlap(self):
        b = tree_score(subtree_set("(AB A B)"), ["(ABC (AB A B) C)"])
        assert (b.precision, b.recall) == (1.0, 0.5)
        assert b.f1 == pytest.approx(2 / 3)

    def test_disjoint(self):
        assert tree_score(subtree_set("(AB A B)"), ["(CD C D)"]).f1 == 0.0

    def test_empty_prediction_zero(self):
        b = tree_score(subtree_set("A"), [SKIRT])
        assert (b.precision, b.recall, b.f1) == (0.0, 0.0, 0.0)

    def test_symmetric_for_single_trees(self):
        a, b = "(ABC (AB A B) C)", SKIRT
        assert tree_score(subtree_set(a), [b]).f1 == tree_score(subtree_set(b), [a]).f1


class TestTreeScore:
    def test_max_attains_identity(self):
        golds = ["(ABC (AB A B) C)", SKIRT, "(ABC A (BC B C))"]
        pred = subtree_set(SKIRT)
        b = tree_score(pred, golds)
        assert b.f1 == 1.0 and b.best_gold_tree == SKIRT

    def test_tie_lowest_index(self):
        # Each gold tree matches one of the two predicted subtrees in three
        # rules (F1 = 0.4); the first listed wins, not the smaller text.
        pred = subtree_set("(AB A B)") | subtree_set("(CD C D)")
        first = "(ABCD A (BCD B (CD C D)))"
        second = "(ABCD (ABC (AB A B) C) D)"
        for golds in ([first, second], [second, first]):
            b = tree_score(pred, golds)
            assert b.f1 == 0.4
            assert b.best_gold_tree == golds[0]

    def test_adding_gold_never_decreases(self):
        pred = subtree_set(SKIRT)
        golds = ["(ABC (AB A B) C)"]
        before = tree_score(pred, golds).f1
        golds.append(SKIRT)
        assert tree_score(pred, golds).f1 >= before

    def test_empty_gold_set_rejected(self):
        with pytest.raises(ValueError):
            tree_score(subtree_set(SKIRT), [])


class TestTokenize:
    def test_labels_and_punctuation(self):
        assert tokenize("Sew (A) to (B).") == ["sew", "(", "a", ")", "to", "(", "b", ")", "."]

    def test_empty(self):
        assert tokenize("") == []

    def test_whitespace_collapse(self):
        assert tokenize("A  B") == ["a", "b"]


class TestBleu:
    def test_identity(self):
        text = "Sew the Over Skirt (A) to the Under Skirt (B)."
        assert bleu(text, text) == pytest.approx(1.0)

    def test_disjoint_near_zero(self):
        assert bleu("alpha beta gamma delta", "one two three four") <= 1e-6

    def test_empty_candidate(self):
        assert bleu("", "reference text") == 0.0

    def test_hand_computed_example(self):
        # candidate "a b c d" vs reference "a b c e":
        # p1 = 3/4, p2 = 2/3, p3 = 1/2, p4 = 0 -> epsilon; equal lengths, BP = 1
        expected = (0.75 * (2 / 3) * 0.5 * BLEU_EPSILON) ** 0.25
        assert bleu("a b c d", "a b c e") == pytest.approx(expected, rel=1e-9)

    def test_precisions_hand_counted(self):
        assert ngram_precisions("a b c d", "a b c e") == pytest.approx(
            [0.75, 2 / 3, 0.5, 0.0]
        )

    def test_brevity_penalty(self):
        # candidate is a 4-token prefix of an 8-token reference: p1..p4 = 1
        expected = math.exp(1 - 8 / 4)
        assert bleu("a b c d", "a b c d e f g h") == pytest.approx(expected)

    def test_unigram_invariant_under_permutation(self):
        ref = "sew a to b\nsew c to d\nsew e to f"
        cand = "sew c to d\nsew e to f\nsew a to b"
        assert ngram_precisions(cand, ref, 1) == ngram_precisions(ref, ref, 1)


class TestRougeL:
    def test_identity(self):
        assert rouge_l("Sew (A) to (B).", "Sew (A) to (B).") == 1.0

    def test_hand_computed(self):
        # LCS("a c", "a b c d") = 2; P = 1, R = 0.5, F1 = 2/3
        assert rouge_l("a c", "a b c d") == pytest.approx(2 / 3)

    def test_disjoint(self):
        assert rouge_l("x y", "a b") == 0.0

    def test_empty(self):
        assert rouge_l("", "a b") == 0.0
        assert rouge_l("a b", "") == 0.0

    @given(hs.text(alphabet="abc d", min_size=1).filter(lambda s: s.strip()))
    def test_self_similarity_one(self, text):
        assert rouge_l(text, text) == pytest.approx(1.0)


def sliced_ngram_precisions(candidate, reference, max_n=4):
    """Clipped n-gram precisions with one tuple slice per position: the
    oracle for ``ngram_precisions``."""

    def ngrams(tokens, n):
        return Counter(tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1))

    cand = tokenize(candidate)
    ref = tokenize(reference)
    precisions = []
    for n in range(1, max_n + 1):
        cand_grams = ngrams(cand, n)
        total = sum(cand_grams.values())
        if total == 0:
            precisions.append(0.0)
            continue
        ref_grams = ngrams(ref, n)
        clipped = sum(min(count, ref_grams[gram]) for gram, count in cand_grams.items())
        precisions.append(clipped / total)
    return precisions


def sliced_bleu(candidate, reference):
    """BLEU-4 with epsilon smoothing over :func:`sliced_ngram_precisions`:
    the oracle for ``bleu``."""
    cand = tokenize(candidate)
    ref = tokenize(reference)
    if not cand:
        return 0.0
    log_sum = 0.0
    for p in sliced_ngram_precisions(candidate, reference, 4):
        if p == 0.0:
            p = BLEU_EPSILON
        log_sum += math.log(p)
    geo_mean = math.exp(log_sum / 4)
    brevity = 1.0 if len(cand) >= len(ref) else math.exp(1 - len(ref) / len(cand))
    return brevity * geo_mean


def f_beta(lcs, n_cand, n_ref, beta=1.0):
    """The LCS F-measure with weight ``beta``, written out; at beta = 1 the
    oracle for ``rouge_l``'s F1."""
    if lcs == 0:
        return 0.0
    precision = lcs / n_cand
    recall = lcs / n_ref
    beta_sq = beta**2
    return (1 + beta_sq) * precision * recall / (recall + beta_sq * precision)


@hs.composite
def token_pairs(draw):
    """Two token lists over one small alphabet of Unicode tokens, each of
    0 to 200 tokens: across the 64- and 128-bit word boundaries."""
    alphabet = draw(hs.lists(hs.text(min_size=1, max_size=3), min_size=1, max_size=5, unique=True))
    sides = []
    for _ in range(2):
        n = draw(hs.integers(0, 200))
        sides.append(draw(hs.lists(hs.sampled_from(alphabet), min_size=n, max_size=n)))
    return sides


WORDS = ["sew", "the", "(A)", "(B)", "to", "itself", ".", ",", "Ärmel", "袖", "\n"]
texts = hs.lists(hs.sampled_from(WORDS), max_size=120).map(" ".join)


class TestFastPathsMatchReference:
    @given(token_pairs())
    @example([[], ["a"]])
    @example([["a"] * 65, []])
    @example([["x", "y"] * 64, ["y", "x"] * 65])
    def test_lcs_length_matches_quadratic_table(self, pair):
        a, b = pair
        expected = quadratic_lcs_length(a, b)
        assert _lcs_length(a, _lcs_masks(b), len(b)) == expected
        assert _lcs_length(b, _lcs_masks(a), len(a)) == expected

    @given(texts, texts, hs.integers(1, 6))
    def test_bleu_matches_sliced_ngrams(self, candidate, reference, max_n):
        assert ngram_precisions(candidate, reference, max_n) == sliced_ngram_precisions(
            candidate, reference, max_n
        )
        assert bleu(candidate, reference) == sliced_bleu(candidate, reference)

    @given(texts, texts)
    def test_rouge_l_matches_beta_formula(self, candidate, reference):
        cand, ref = tokenize(candidate), tokenize(reference)
        expected = f_beta(quadratic_lcs_length(cand, ref), len(cand), len(ref)) if cand and ref else 0.0
        assert rouge_l(candidate, reference) == expected

    @given(hs.integers(1, 10**6), hs.integers(1, 10**6), hs.data())
    def test_f1_is_the_beta_formula_bit_for_bit(self, n_cand, n_ref, data):
        lcs = data.draw(hs.integers(0, min(n_cand, n_ref)))
        assert _f1(lcs / n_cand, lcs / n_ref) == f_beta(lcs, n_cand, n_ref)


# Few distinct tokens, so short texts repeat tokens and n-grams.
short_texts = hs.lists(hs.sampled_from(["a", "b", "(A)", "."]), max_size=8).map(" ".join)


class TestPreparedReference:
    """``bleu`` and ``rouge_l`` take the reference side from a bounded memo;
    every value must equal a fresh computation of both sides."""

    @given(hs.one_of(texts, short_texts), hs.one_of(texts, short_texts))
    @example("", "")
    @example("", "a b")
    @example("a b", "")
    @example("a", "a b c d e")
    @example("a a a", "a a b b")
    @example("a a a a a", "a a")
    @example("sew the (A) . sew the (A) .", "sew the (A) .")
    def test_equal_to_the_counter_and_table_oracles(self, candidate, reference):
        assert bleu(candidate, reference) == counter_bleu(candidate, reference)
        assert rouge_l(candidate, reference) == quadratic_rouge_l(candidate, reference)

    @given(hs.lists(hs.one_of(texts, short_texts), min_size=2, max_size=8), texts, hs.randoms())
    def test_many_candidates_in_any_order_see_an_unchanged_reference(
        self, candidates, reference, random
    ):
        expected = {c: (counter_bleu(c, reference), quadratic_rouge_l(c, reference)) for c in candidates}
        shuffled = list(candidates)
        random.shuffle(shuffled)
        for order in (candidates, shuffled, candidates):
            for candidate in order:
                assert (bleu(candidate, reference), rouge_l(candidate, reference)) == expected[candidate]

    def test_one_reference_is_prepared_once(self):
        reference = "sew the (A) to the (B) . sew the (A) to itself ."
        bleu("sew", reference)
        hits = _reference.cache_info().hits
        for candidate in ("sew the (A)", "the (B) to", "itself ."):
            bleu(candidate, reference)
            rouge_l(candidate, reference)
        assert _reference.cache_info().hits == hits + 6

    def test_memo_is_bounded(self):
        bound = _reference.cache_info().maxsize
        assert bound is not None
        for i in range(bound + 10):
            reference = f"sew piece {i} to piece {i + 1}"
            candidate = f"sew piece {i}"
            assert bleu(candidate, reference) == counter_bleu(candidate, reference)
            assert rouge_l(candidate, reference) == quadratic_rouge_l(candidate, reference)
        assert _reference.cache_info().currsize <= bound


class TestPearson:
    def test_exact_linear(self):
        r, t, p = pearson([1, 2, 3], [2, 4, 6])
        assert r == 1.0 and p == 0.0

    def test_anti_linear(self):
        r, _, _ = pearson([1, 2, 3], [3, 2, 1])
        assert r == -1.0

    def test_hand_computed(self):
        # xs=(1,2,3,4), ys=(1,3,2,5): Sxy=5.5, Sxx=5, Syy=8.75
        expected = 5.5 / math.sqrt(5 * 8.75)
        r, t, p = pearson([1, 2, 3, 4], [1, 3, 2, 5])
        assert r == pytest.approx(expected, abs=1e-12)
        assert t == pytest.approx(expected * math.sqrt(2 / (1 - expected**2)))
        assert 0 < p < 1

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            pearson([1, 2, 3], [1, 2])

    def test_constant_input(self):
        with pytest.raises(ValueError):
            pearson([1, 1, 1], [1, 2, 3])

    def test_constant_input_with_inexact_mean(self):
        # The float mean of these equal values is not exactly the value.
        with pytest.raises(ValueError):
            pearson([25.626540053341827] * 5, [1, 2, 3, 4, 5])
        with pytest.raises(ValueError):
            pearson([1, 2, 3, 4, 5], [25.626540053341827] * 5)

    def test_exact_line_a_few_ulps_wide(self):
        # The mean of the ys rounds to 1.0, an error as large as their spread.
        xs = [0.0, 0.0, 0.0, 2**-52]
        ys = [2 * x + 1 for x in xs]
        assert pearson(xs, ys)[0] == 1.0
        assert pearson([x + 1 for x in xs], ys)[0] == 1.0

    def test_too_short(self):
        with pytest.raises(ValueError):
            pearson([1, 2], [1, 2])

    @given(
        hs.lists(hs.floats(-100, 100), min_size=4, max_size=12),
        hs.floats(0.5, 10),
        hs.floats(-5, 5),
    )
    def test_affine_invariance(self, xs, scale, shift):
        ys = [2 * x + 1 for x in xs]
        try:
            r1, _, _ = pearson(xs, ys)
            r2, _, _ = pearson([scale * x + shift for x in xs], ys)
        except ValueError:
            return  # constant draws
        assert r2 == pytest.approx(r1, abs=1e-6)
        r3, _, _ = pearson([-x for x in xs], ys)
        assert r3 == pytest.approx(-r1, abs=1e-6)


# Two-sided p-values 2 * scipy.special.stdtr(df, -|t|) (scipy 1.17) for the t
# of pearson(*_table_sample(df + 2, k)), k = -3, 15, -90.
STDTR_P_VALUES = {
    1: (0.9910226080717813, 0.6478405610946996, 0.20066778025925577),
    2: (0.851003862531208, 0.37700392133360405, 0.052261779266945516),
    3: (0.9660490498395509, 0.3737842653851665, 0.013052280529151491),
    4: (0.8234525251138568, 0.36734513097901766, 0.0032501472995855522),
    5: (0.9437342436521435, 0.20597997416723868, 0.001208952696301674),
    6: (0.6687244522230781, 0.36861625350602845, 0.0003317293093618134),
    7: (0.6738012793265848, 0.12242076667297308, 0.000582634228021768),
    8: (0.8373090404541974, 0.3198133559280934, 0.0002173370696561592),
    9: (0.826856137706317, 0.2892995548413163, 8.309049847182879e-05),
    10: (0.49154536410475846, 0.5279015985094448, 2.5239140436475244e-05),
    11: (0.9382707864019953, 0.20355165301001876, 8.052502128041509e-05),
    12: (0.7768359025843671, 0.33566267891436646, 2.7739784776873304e-05),
    13: (0.946406933464719, 0.2281646546705162, 1.964270660406776e-05),
    14: (0.843591731133204, 0.25841743122654276, 7.728832403841916e-06),
    15: (0.754106823934544, 0.2863064233115107, 3.0490868380734306e-06),
    16: (0.9245897466240854, 0.19220197686086965, 2.3395356528453494e-06),
    17: (0.668784854438773, 0.314566754655312, 7.976529384995529e-07),
    18: (0.8381741335001532, 0.12366456012059382, 3.390661996010787e-06),
    19: (0.8189675548132548, 0.2602862189511835, 1.237441460665335e-06),
    20: (0.8142111998994458, 0.2477521549931437, 6.400251074398758e-07),
    21: (0.5428191086673311, 0.4271767122365453, 2.178030271618598e-07),
    22: (0.9856022437032954, 0.1896921025544245, 1.1036081069829058e-06),
    23: (0.7638336273657244, 0.2924677028896925, 4.0869921560142755e-07),
    24: (0.9021125717924564, 0.21329238081179938, 3.8549865182921617e-07),
    25: (0.8241149488258237, 0.23963193325884133, 1.782521533660257e-07),
    26: (0.7530092940438154, 0.26566281879012105, 8.27159786202801e-08),
    27: (0.8907680888299659, 0.19268687549999128, 8.147873537222336e-08),
    28: (0.6851462268602951, 0.2924665107334065, 2.981239404927174e-08),
    29: (0.9082625714326442, 0.13077931876622811, 1.6461212921498348e-07),
    30: (0.8133076633746272, 0.24289676130474894, 5.956955503150612e-08),
    31: (0.8102245555972594, 0.2350573084935215, 3.565164222519067e-08),
    32: (0.5766710193247979, 0.381877865183665, 1.2504684202598729e-08),
    33: (0.950641851498445, 0.18679809528113756, 7.427177055864505e-08),
    34: (0.7629916580330492, 0.2735533194669528, 2.8673523654957777e-08),
    35: (0.882045481458438, 0.20828318806069832, 3.122002928495727e-08),
    36: (0.8167695064582915, 0.23168189570847442, 1.586251890674137e-08),
    37: (0.7559331507704182, 0.2553291754728121, 8.086067474074382e-09),
    38: (0.874457323463834, 0.19377879445023777, 9.060579519542508e-09),
    39: (0.6975383270281218, 0.27983667227720266, 3.462230929174114e-09),
    40: (0.9491984050524283, 0.13679963333327033, 2.1013707437122196e-08),
    41: (0.8105549248116639, 0.2346136910605065, 7.622472442531682e-09),
    42: (0.8082734092243556, 0.22891687389986695, 4.991326332303737e-09),
    43: (0.6001620857371964, 0.35536550027222, 1.7818150675470566e-09),
    44: (0.9297895704446586, 0.1862557001147682, 1.1178535063880415e-08),
    45: (0.7642270398662717, 0.2626930631210448, 4.45800475025245e-09),
    46: (0.8702423225943395, 0.20600370296221548, 5.278954494365031e-09),
    47: (0.813014734015952, 0.22725645904659705, 2.8621360011781146e-09),
    48: (0.7589820941210345, 0.2489459295565703, 1.5562007195400919e-09),
    49: (0.8645560068258836, 0.19479307381362315, 1.8816837313784245e-09),
    50: (0.7068626263148007, 0.27148142939222897, 7.439956121912328e-10),
    51: (0.9767616504168811, 0.14168119591724215, 4.6397434675659395e-09),
    52: (0.8089270906199825, 0.22977007929392546, 1.6982937975703113e-09),
    53: (0.807116150632288, 0.22529768794758961, 1.1831615409018867e-09),
    54: (0.6175837988850317, 0.33765503053505597, 4.2916045785809286e-10),
    55: (0.9156315231660289, 0.18645232039589912, 2.715885946878995e-09),
    56: (0.7658497926396247, 0.2555552413907821, 1.1141419519483328e-09),
    57: (0.8623197649698809, 0.20481337499961508, 1.3911624427272905e-09),
    58: (0.8107658865286628, 0.2244275533017127, 7.919562396246125e-10),
    59: (0.7616697303913414, 0.24454326976194127, 4.519322752022467e-10),
    60: (0.8577771638984799, 0.1956688723034321, 5.734582857219224e-10),
    97: (0.8050835882627446, 0.21898252380856192, 4.4110748877052846e-11),
    200: (0.8322120218025221, 0.20371951650556758, 3.669866406092136e-12),
    998: (0.8029287566004275, 0.21227808348781796, 1.5269631259205882e-13),
    5000: (0.791703559859897, 0.21659587963313265, 6.774126136773653e-14),
}


def _table_sample(n, k):
    xs = [float(i) for i in range(n)]
    ys = [((i * i * 7 + 3 * i) % 11) - 5 + k * i / n**1.5 for i in range(n)]
    return xs, ys


@pytest.mark.parametrize("df", sorted(STDTR_P_VALUES))
def test_pearson_p_matches_recorded_stdtr(df):
    for k, expected in zip((-3, 15, -90), STDTR_P_VALUES[df]):
        _, _, p = pearson(*_table_sample(df + 2, k))
        assert p == pytest.approx(expected, abs=1e-9), (df, k)
