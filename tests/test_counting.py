"""Counting formulas, the occurrence-cap lemma, and the closed-form bounds."""

from fractions import Fraction

import pytest

import oracles
from splitrep.counting import (
    BudgetExceededError,
    c_bounds,
    corollary_bound,
    max_nondisjoint_cap,
    mobius,
    occurrence_witness,
    period_census,
    pigeonhole_bound,
    primitive_count,
    s_upper_bounds,
    smallest_periods,
    theorem_sum_bound,
    unbordered_count,
)
from splitrep.detect import count_nondisjoint_occurrences
from splitrep.words import occurrences, parse_word, word


class TestMobius:
    def test_small_values(self):
        assert [mobius(d) for d in range(1, 11)] == [1, -1, -1, 0, -1, 1, -1, 0, 0, 1]

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            mobius(0)


class TestPrimitiveCount:
    def test_binary_length_1(self):
        assert primitive_count(2, 1) == 2

    def test_binary_length_4(self):
        assert primitive_count(2, 4) == 12

    def test_unary(self):
        assert primitive_count(1, 1) == 1
        assert all(primitive_count(1, n) == 0 for n in range(2, 8))

    @pytest.mark.parametrize("k,max_n", [(2, 9), (3, 7)])
    def test_matches_enumeration(self, k, max_n):
        for n in range(1, max_n + 1):
            brute = sum(
                1 for syms in oracles.all_words(k, n) if oracles.is_primitive(syms)
            )
            assert primitive_count(k, n) == brute, (k, n)


class TestUnborderedCount:
    def test_examples(self):
        assert unbordered_count(2, 2) == 2
        assert unbordered_count(2, 4) == 6
        assert unbordered_count(2, 12) == 1116

    @pytest.mark.parametrize("k", [2, 3])
    def test_recurrence_matches_enumeration_up_to_10(self, k):
        for n in range(1, 11):
            if k ** n > 300_000:
                break
            brute = sum(
                1 for syms in oracles.all_words(k, n) if oracles.is_unbordered(syms)
            )
            assert unbordered_count(k, n) == brute, (k, n)

    def test_degree_12_polynomial(self):
        for k in (2, 3, 4, 5):
            poly = k ** 12 - k ** 11 - k ** 10 + k ** 6 + k ** 5 - k ** 2
            assert unbordered_count(k, 12) == poly, k

    def test_lower_bound_fraction(self):
        for k in (2, 3, 4, 5):
            for n in range(1, 13):
                lhs = Fraction(unbordered_count(k, n))
                rhs = k ** n * (1 - Fraction(1, k) - Fraction(1, k * k))
                assert lhs >= rhs, (k, n)


class TestPeriodCensus:
    def test_binary_2(self):
        assert period_census(2, 2) == {1: 2, 2: 2}

    def test_binary_3(self):
        assert period_census(2, 3) == {1: 2, 2: 2, 3: 4}

    def test_unary(self):
        assert period_census(1, 5) == {1: 1}

    def test_budget_error(self):
        with pytest.raises(BudgetExceededError):
            period_census(10, 12)

    @pytest.mark.parametrize("k,n", [(1, 4), (2, 1), (2, 6), (3, 4)])
    def test_smallest_periods_in_value_order(self, k, n):
        # entry v is the word whose base-k value is v, first letter highest
        want = []
        for v in range(k ** n):
            syms = [v // k ** (n - 1 - i) % k for i in range(n)]
            want.append(oracles.period(syms))
        assert smallest_periods(k, n) == tuple(want)

    @pytest.mark.parametrize("k", [2, 3])
    def test_census_identities_up_to_8(self, k):
        # census[p] counts primitive words for small p; census[n] the unbordered
        for n in range(1, 9):
            census = period_census(k, n)
            assert sum(census.values()) == k ** n
            for p in range(1, n // 2 + 2):
                assert census.get(p, 0) == primitive_count(k, p), (k, n, p)
            assert census.get(n, 0) == unbordered_count(k, n), (k, n)


class TestOccurrenceCap:
    def test_examples(self):
        assert max_nondisjoint_cap(parse_word("00", 2)) == 2
        assert max_nondisjoint_cap(parse_word("010", 2)) == 2
        assert max_nondisjoint_cap(parse_word("0011", 2)) == 1

    def test_witness_examples(self):
        assert occurrence_witness(parse_word("010", 2)).symbols == (0, 1, 0, 1, 0)
        assert occurrence_witness(parse_word("00", 2)).symbols == (0, 0, 0)
        # unbordered x: the word itself achieves the cap of 1
        assert occurrence_witness(parse_word("0011", 2)).symbols == (0, 0, 1, 1)

    def test_witness_attains_cap_without_disjoint_pair(self):
        # every binary x up to length 6
        for n in range(1, 7):
            for syms in oracles.all_words(2, n):
                x = word(syms, 2)
                cap = max_nondisjoint_cap(x)
                w = occurrence_witness(x)
                assert count_nondisjoint_occurrences(w, x) == cap, syms
                pos = occurrences(w, x)
                assert all(q - p < n for p, q in zip(pos, pos[1:])), syms

    def test_cap_is_a_true_bound_exhaustively(self):
        # over all binary w (<= 12) and x (<= 4): no-two-disjoint => count <= cap
        caps = {}
        for n in range(1, 5):
            for xs in oracles.all_words(2, n):
                caps[xs] = -(-n // oracles.period(xs))
        for ws in oracles.all_words_upto(2, 12):
            L = len(ws)
            for n in range(1, 5):
                if n > L:
                    break
                counts = {}
                firsts = {}
                disjoint = set()
                for i in range(L - n + 1):
                    f = ws[i : i + n]
                    counts[f] = counts.get(f, 0) + 1
                    if f not in firsts:
                        firsts[f] = i
                    elif i - firsts[f] >= n:
                        disjoint.add(f)
                for f, c in counts.items():
                    if f not in disjoint:
                        assert c <= caps[f], (ws, f)


class TestBounds:
    def test_pigeonhole(self):
        assert pigeonhole_bound(2, 2) == 9
        assert pigeonhole_bound(1, 1) == 1
        assert pigeonhole_bound(2, 3) == 26

    def test_theorem_sum(self):
        assert theorem_sum_bound(2, 2) == 7
        assert theorem_sum_bound(2, 3) == 16
        for k in range(2, 7):
            assert theorem_sum_bound(k, 2) == k * k + k + 1, k

    def test_theorem_sum_k3(self):
        for k in range(2, 6):
            assert theorem_sum_bound(k, 3) == k ** 3 + k * k + k + 2, k

    def test_corollary_values(self):
        assert corollary_bound(2, 2) == 14
        assert corollary_bound(2, 4) == 59
        assert corollary_bound(3, 2) == 22

    def test_corollary_rejects_unary(self):
        with pytest.raises(ValueError):
            corollary_bound(1, 3)

    def test_ordering_sum_below_corollary(self):
        for k in (2, 3, 4):
            for n in range(2, 9):
                assert theorem_sum_bound(k, n) <= corollary_bound(k, n), (k, n)

    def test_sum_below_pigeonhole(self):
        for k in (1, 2, 3):
            for n in range(1, 8):
                if k ** n <= 10_000:
                    assert theorem_sum_bound(k, n) <= pigeonhole_bound(k, n)

    def test_c_bounds_report(self):
        report = c_bounds(2, 2)
        assert report.theorem_sum_bound == 7
        assert report.pigeonhole == 9
        assert report.corollary_bound == 14
        assert report.best == 7
        assert sum(report.lemma_per_word_caps.values()) == 4


class TestSUpperBounds:
    def test_t0_exact(self):
        for k in (1, 2, 5):
            assert s_upper_bounds(k, 0).best == k

    def test_unary_exact(self):
        # S(1,1) = 2: the pigeonhole-factor bound k**(k+1) + k - 1 needs k >= 2
        assert s_upper_bounds(1, 1).best == 2
        assert s_upper_bounds(1, 3).best == 8
        assert s_upper_bounds(1, 4).best == 11

    def test_t1_special_case_wins(self):
        report = s_upper_bounds(2, 1, c_values={(2, 1): 2, (2, 3): 16})
        assert report.entries["pigeonhole-factor"] == ("<=", 9)
        assert report.entries["composition"] == ("<=", 16)
        assert report.best == 9

    def test_composition_uses_supplied_values(self):
        report = s_upper_bounds(2, 2, c_values={(2, 2): 7, (2, 8): 123})
        assert report.entries["composition"] == ("<=", 123)
