"""Detectors against the named examples and the brute-force oracles."""

import random

import pytest

import oracles
from splitrep.detect import (
    GapConvention,
    ViolationKind,
    count_nondisjoint_occurrences,
    find_disjoint_pair,
    find_reversed_split_t_overlap,
    find_split_t_overlap,
    find_t_overlap_factor,
    is_t_overlap,
)
from splitrep.words import from_letters, parse_word, word


def w2(text):
    return parse_word(text, 2)


class TestIsTOverlap:
    def test_entente(self):
        assert is_t_overlap(from_letters("entente"), 1)

    def test_0011_not_square(self):
        assert not is_t_overlap(w2("0011"), 0)

    def test_inpinpin_is_2_overlap(self):
        assert is_t_overlap(from_letters("inpinpin"), 2)

    def test_0_overlap_is_square(self):
        assert is_t_overlap(w2("0101"), 0)
        assert is_t_overlap(w2("00"), 0)

    def test_matches_oracle(self):
        for syms in oracles.all_words_upto(2, 9):
            w = word(syms, 2)
            for t in range(4):
                assert is_t_overlap(w, t) == oracles.is_t_overlap(syms, t), (syms, t)


class TestFindTOverlapFactor:
    def test_0120120(self):
        v = find_t_overlap_factor(parse_word("0120120", 3), 1)
        assert v is not None
        assert v.x_span == (0, 6)
        assert v.kind is ViolationKind.T_OVERLAP

    def test_0011_absent(self):
        assert find_t_overlap_factor(w2("0011"), 1) is None

    def test_011_square(self):
        v = find_t_overlap_factor(w2("011"), 0)
        assert v is not None
        assert v.repetition.symbols == (1, 1)

    def test_monotone_in_t(self):
        # a t-overlap factor implies t'-overlap factors for all t' < t
        for syms in oracles.all_words_upto(2, 12):
            w = word(syms, 2)
            found = [find_t_overlap_factor(w, t) is not None for t in range(4)]
            for t in range(3):
                if found[t + 1]:
                    assert found[t], (syms, t)


class TestFindSplit:
    def test_contentment(self):
        w = from_letters("contentment")
        v = find_split_t_overlap(w, 2)
        assert v is not None
        assert oracles.is_t_overlap(tuple(v.repetition.symbols), 2)

    def test_00110(self):
        v = find_split_t_overlap(w2("00110"), 1)
        assert v is not None
        assert v.x_span == (0, 1) and v.z_span == (4, 4)
        assert v.repetition.symbols == (0, 0, 0)

    def test_0011_absent(self):
        assert find_split_t_overlap(w2("0011"), 1) is None

    def test_subsumes_contiguous_under_empty_gap(self):
        # any t-overlap factor splits as x.z with empty gap
        for syms in oracles.all_words_upto(2, 10):
            w = word(syms, 2)
            for t in (0, 1, 2):
                if find_t_overlap_factor(w, t) is not None:
                    assert find_split_t_overlap(w, t) is not None, (syms, t)


class TestFindReversedSplit:
    def test_independent(self):
        w = from_letters("independent")
        v = find_reversed_split_t_overlap(w, 1)
        assert v is not None
        assert oracles.is_t_overlap(tuple(v.repetition.symbols), 1)

    def test_0011_absent(self):
        assert find_reversed_split_t_overlap(w2("0011"), 1) is None

    def test_000_unary(self):
        v = find_reversed_split_t_overlap(w2("000"), 0)
        assert v is not None
        assert v.repetition.symbols == (0, 0)


class TestFindDisjointPair:
    def test_0111000(self):
        assert find_disjoint_pair(w2("0111000"), 2) is None

    def test_zeros(self):
        v = find_disjoint_pair(w2("000000"), 3)
        assert v is not None
        assert v.x_span == (0, 2) and v.z_span == (3, 5)

    def test_0001110_extensions_all_die(self):
        for a in "01":
            assert find_disjoint_pair(w2("0001110" + a), 2) is not None


class TestCountNondisjoint:
    def test_overlapping(self):
        assert count_nondisjoint_occurrences(w2("01010"), w2("010")) == 2

    def test_unary(self):
        assert count_nondisjoint_occurrences(w2("000"), w2("00")) == 2

    def test_long_period(self):
        assert count_nondisjoint_occurrences(w2("010101010"), w2("0101010")) == 2


@pytest.mark.parametrize("t", [0, 1, 2, 3])
def test_detectors_match_oracle_binary_up_to_9(t):
    for syms in oracles.all_words_upto(2, 9):
        w = word(syms, 2)
        got = find_t_overlap_factor(w, t)
        want = oracles.find_t_overlap_factor(syms, t)
        assert (got is None) == (want is None), (syms, t)
        if got is not None:
            assert (got.x_span[0], got.x_span[1]) == want
        got = find_split_t_overlap(w, t)
        want = oracles.find_split(syms, t)
        assert (got is None) == (want is None), (syms, t)
        if got is not None:
            assert (*got.x_span, *got.z_span) == want, (syms, t)
        got = find_reversed_split_t_overlap(w, t)
        want = oracles.find_reversed_split(syms, t)
        assert (got is None) == (want is None), (syms, t)
        if got is not None:
            assert (*got.x_span, *got.z_span) == want, (syms, t)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_disjoint_matches_oracle_binary_up_to_12(n):
    for syms in oracles.all_words_upto(2, 12):
        w = word(syms, 2)
        got = find_disjoint_pair(w, n)
        want = oracles.find_disjoint(syms, n)
        assert (got is None) == (want is None), (syms, n)
        if got is not None:
            assert (got.x_span[0], got.z_span[0]) == want, (syms, n)


def test_disjoint_matches_oracle_on_long_random_words():
    # factor lengths around the birthday threshold k**n ~ L**2: some words
    # have no disjoint pair, others have their least pair far into the word
    rng = random.Random(5)
    found = 0
    for _ in range(60):
        k = rng.randint(2, 4)
        syms = tuple(rng.randrange(k) for _ in range(rng.randint(200, 400)))
        n = rng.randint(1, 40 // k)
        got = find_disjoint_pair(word(syms, k), n)
        want = oracles.find_disjoint(syms, n)
        assert (got is None) == (want is None), (syms, n)
        if got is not None:
            assert (got.x_span[0], got.z_span[0]) == want, (syms, n)
            found += 1
    assert 0 < found < 60


def test_gap_required_convention_differs():
    # 00111 has a contiguous 111 but no split with a nonempty gap
    w = w2("00111")
    assert find_split_t_overlap(w, 1, GapConvention.EMPTY_OK) is not None
    assert find_split_t_overlap(w, 1, GapConvention.GAP_REQUIRED) is None


def test_proposition_closure_overlapping_pair_gives_overlap():
    # two overlapping equal factors but no disjoint pair -> a 1-overlap factor
    for syms in oracles.all_words_upto(2, 12):
        w = word(syms, 2)
        for n in (2, 3):
            if oracles.find_disjoint(syms, n) is not None:
                continue
            pair = None
            for i in range(len(syms) - n + 1):
                for j in range(i + 1, min(i + n, len(syms) - n + 1)):
                    if syms[i : i + n] == syms[j : j + n]:
                        pair = (i, j)
                        break
                if pair:
                    break
            if pair is None:
                continue
            i, j = pair
            region = word(syms[i : j + n], 2)
            assert find_t_overlap_factor(region, 1) is not None, (syms, n)
