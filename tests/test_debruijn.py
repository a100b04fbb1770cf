"""Feedback function, cycle joining, de Bruijn words, and the two constructions."""

from itertools import product

import pytest

import oracles
from splitrep.counting import theorem_sum_bound
from splitrep.debruijn import (
    CyclePartition,
    SuccessorRule,
    construct_c2_lower,
    construct_c3_lower,
    cycle_partition,
    debruijn_order3_special,
    debruijn_order_n,
    feedback_f,
    shift_map_F,
    tau_sequence,
)
from splitrep.detect import find_disjoint_pair


class TestFeedback:
    def test_binary(self):
        assert feedback_f(2, 0, 1, 1) == 0

    def test_ternary(self):
        assert feedback_f(3, 2, 2, 1) == 0

    def test_aba_returns_b(self):
        for k in range(2, 7):
            for a in range(k):
                for b in range(k):
                    assert feedback_f(k, a, b, a) == b


class TestShiftMap:
    def test_example(self):
        assert shift_map_F(2, (0, 1, 1)) == (1, 1, 0)

    def test_fixed_points(self):
        for k in range(2, 6):
            for a in range(k):
                assert shift_map_F(k, (a, a, a)) == (a, a, a)

    @pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
    def test_bijective(self, k):
        images = {shift_map_F(k, w) for w in product(range(k), repeat=3)}
        assert len(images) == k ** 3


class TestCyclePartition:
    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_partitions_all_triples(self, k):
        part = cycle_partition(k)
        seen = [w for cyc in part.cycles for w in cyc]
        assert len(seen) == k ** 3
        assert len(set(seen)) == k ** 3

    def test_representatives_are_least(self):
        part = cycle_partition(3)
        for cyc, rep in zip(part.cycles, part.representatives):
            assert rep == min(cyc) == cyc[0]

    def test_cycles_closed_under_shift(self):
        part = cycle_partition(2)
        for cyc in part.cycles:
            for i, w in enumerate(cyc):
                assert shift_map_F(2, w) == cyc[(i + 1) % len(cyc)]


class TestTau:
    def test_decreasing_pair_is_empty(self):
        # for a < b the pair (b, a) admits no representative b a c
        for k in range(2, 6):
            for b in range(k):
                for a in range(b):
                    assert tau_sequence(k, b, a) == [], (k, b, a)

    def test_successor_g_aba(self):
        for k in range(2, 6):
            rule = SuccessorRule(k)
            for a in range(k):
                for b in range(a + 1, k):
                    assert rule.next_symbol(a, b, a) == b, (k, a, b)

    def test_successor_cycles_through_all_triples(self):
        for k in (2, 3):
            rule = SuccessorRule(k)
            seq = [0, 0, 0]
            for _ in range(k ** 3 - 3):
                seq.append(rule.next_symbol(seq[-3], seq[-2], seq[-1]))
            wins = {
                tuple(seq[(i + j) % len(seq)] for j in range(3))
                for i in range(len(seq))
            }
            assert len(wins) == k ** 3


class TestDeBruijnWords:
    @pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
    def test_order3_special_census_and_pairs(self, k):
        w = debruijn_order3_special(k)
        assert len(w) == k ** 3 + 2
        syms = list(w.symbols)
        wins = [tuple(syms[i : i + 3]) for i in range(len(syms) - 2)]
        assert len(wins) == k ** 3
        assert len(set(wins)) == k ** 3
        for a in range(k):
            for b in range(a + 1, k):
                pats = ([a, b, a, b], [b, a, b, a])
                assert any(
                    syms[i : i + 4] in pats for i in range(len(syms) - 3)
                ), (k, a, b)

    @pytest.mark.parametrize(
        "k,n",
        [(2, 1), (2, 3), (3, 2), (2, 5), (3, 4), (4, 3), (6, 3), (2, 10), (4, 8)],
    )
    def test_order_n_census(self, k, n):
        w = debruijn_order_n(k, n)
        assert len(w) == k ** n + n - 1
        syms = w.symbols
        wins = {syms[i : i + n] for i in range(len(syms) - n + 1)}
        assert len(wins) == k ** n

    def test_unary(self):
        assert debruijn_order_n(1, 4).symbols == (0, 0, 0, 0)


class TestConstructions:
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_c2_length_and_validity(self, k):
        w = construct_c2_lower(k)
        assert len(w) == k * k + k + 1
        assert find_disjoint_pair(w, 2) is None

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_c3_length_and_validity(self, k):
        w = construct_c3_lower(k)
        assert len(w) == k ** 3 + k * k + k + 2
        assert find_disjoint_pair(w, 3) is None

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_constructions_meet_period_sum_bound(self, k):
        assert len(construct_c2_lower(k)) == theorem_sum_bound(k, 2)
        assert len(construct_c3_lower(k)) == theorem_sum_bound(k, 3)

    def test_order3_words_equal_the_rescanning_versions(self):
        # the sites come from one scan of the de Bruijn word; the oracle
        # re-finds each one in the word as it stands after every insertion
        for k in range(2, 17):
            special = debruijn_order3_special(k)
            assert list(special.symbols) == oracles.debruijn_order3_special(k), k
            c3 = construct_c3_lower(k)
            assert list(c3.symbols) == oracles.construct_c3_lower(k), k

    def test_c2_binary_is_known_extremal_word(self):
        assert str(construct_c2_lower(2)) == "0001110"
