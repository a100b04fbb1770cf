"""Search engines and drivers: oracle agreement, determinism, checkpoints."""

import concurrent.futures
import os
import random
import subprocess
import sys
import time

import pytest

import oracles
from splitrep import counting
from splitrep.detect import (
    GapConvention,
    find_reversed_split_t_overlap,
    find_split_t_overlap,
    find_t_overlap_factor,
)
from splitrep.engines import DisjointFactorEngine, SplitOverlapEngine
from splitrep.knownvalues import load_known_cells
from splitrep.search import (
    Checkpoint,
    ProblemKind,
    SearchBudget,
    SearchProblem,
    SearchState,
    SearchStatus,
    certified_cap,
    extend_check,
    frontier_lower_bound,
    load_checkpoint,
    longest_avoiding,
    verify_witness,
)
from splitrep.search import _plan_tasks, _run_task
from splitrep.words import Word, format_word, parse_word, word


def outcome_key(outcome):
    """Everything that must be deterministic (elapsed excluded)."""
    return (
        outcome.max_length,
        outcome.status,
        tuple(w.symbols for w in outcome.witnesses),
        outcome.nodes_explored,
        outcome.budget_used,
    )


class TestEngineAgainstOracle:
    """The incremental checkers accept a word iff it is violation-free."""

    @pytest.mark.parametrize("kind,param", [("C", 1), ("C", 2), ("C", 3)])
    def test_disjoint_engine_binary_up_to_12(self, kind, param):
        for syms in oracles.all_words_upto(2, 12):
            engine = DisjointFactorEngine(2, param)
            want = not oracles.violates_problem(syms, "C", param)
            accepted = all(engine.try_push(a) for a in syms[:-1])
            if accepted and syms:
                # the batched check at the last node; the enumeration
                # reaches every (word, letter) pair this way
                tokens = engine.verdicts(range(2))
                assert (tokens[syms[-1]] is not None) == want, syms
                accepted = engine.try_push(syms[-1])
            assert accepted == want, syms

    @pytest.mark.parametrize("t", [0, 1, 2, 3])
    @pytest.mark.parametrize("rev", [False, True])
    @pytest.mark.parametrize("convention", list(GapConvention))
    def test_split_engine_binary_up_to_10(self, t, rev, convention):
        kind = "R" if rev else "S"
        for syms in oracles.all_words_upto(2, 10):
            engine = SplitOverlapEngine(2, t, convention, reversed_mode=rev)
            accepted = all(engine.try_push(a) for a in syms)
            want = not oracles.violates_problem(
                syms, kind, t, min_gap=convention.min_gap
            )
            assert accepted == want, (syms, t, kind, convention)

    @pytest.mark.parametrize("t", [0, 1, 2])
    @pytest.mark.parametrize("rev", [False, True])
    def test_split_engine_ternary_up_to_7(self, t, rev):
        kind = "R" if rev else "S"
        for syms in oracles.all_words_upto(3, 7):
            engine = SplitOverlapEngine(3, t, reversed_mode=rev)
            accepted = all(engine.try_push(a) for a in syms)
            assert accepted == (not oracles.violates_problem(syms, kind, t)), (
                syms, t, kind,
            )

    @pytest.mark.parametrize("n", [2, 3])
    def test_capacity_bound_never_undercuts_true_max(self, n):
        # max_reachable_length is the pruning certificate: compare it with
        # the true best extension found by oracle-checked enumeration
        def true_max(prefix):
            best = len(prefix)
            stack = [list(prefix)]
            while stack:
                cur = stack.pop()
                for a in (0, 1):
                    ext = cur + [a]
                    if not oracles.violates_problem(tuple(ext), "C", n):
                        best = max(best, len(ext))
                        stack.append(ext)
            return best

        for syms in oracles.all_words_upto(2, 6):
            engine = DisjointFactorEngine(2, n)
            if not all(engine.try_push(a) for a in syms):
                continue
            assert engine.max_reachable_length() >= true_max(list(syms)), syms

    def test_achievable_cap_prune_agrees_with_plain_exhaustion(self):
        # collect_all_witnesses disables every prune; the default path uses
        # the certificate prune. Same maximum, same lex-least witness.
        for kind, k, param in [("C", 2, 2), ("C", 2, 3), ("C", 3, 2)]:
            problem = SearchProblem(ProblemKind(kind), k, param)
            pruned = longest_avoiding(problem)
            plain = longest_avoiding(problem, collect_all_witnesses=True)
            assert pruned.max_length == plain.max_length
            assert pruned.witness == plain.witnesses[0]

    def test_pop_restores_state(self):
        rng = random.Random(7)
        for kind in ("C", "S", "R"):
            if kind == "C":
                engine = DisjointFactorEngine(2, 3)
            else:
                engine = SplitOverlapEngine(2, 2, reversed_mode=kind == "R")
            for _ in range(2000):
                if engine.word and rng.random() < 0.4:
                    engine.pop()
                else:
                    a = rng.randrange(2)
                    before = list(engine.word)
                    if not engine.try_push(a):
                        assert engine.word == before
            # drain and confirm the empty-state invariants
            while engine.word:
                engine.pop()
            if kind == "C":
                assert not engine.earliest and not engine.remaining
                assert engine.bound == counting.theorem_sum_bound(2, 3)
            else:
                assert engine.text == ""
                assert all(not d for d in engine.tdicts)
                assert not engine.td_trail

    @pytest.mark.parametrize(
        "k,n", [(1, 3), (2, 2), (2, 3), (2, 4), (2, 5), (3, 2), (3, 3)]
    )
    def test_bound_is_period_sum_less_forfeits(self, k, n):
        # the exact value, from the word alone: the period sum T less, for
        # every factor x whose window has closed (its first start s has
        # s + 2n <= L), the occurrences of its cap that x did not use
        def from_word(w):
            seen = {}  # factor -> [first start, occurrences]
            for s in range(len(w) - n + 1):
                seen.setdefault(tuple(w[s : s + n]), [s, 0])[1] += 1
            return counting.theorem_sum_bound(k, n) - sum(
                counting.max_nondisjoint_cap(Word(x, k)) - count
                for x, (s, count) in seen.items()
                if s + 2 * n <= len(w)
            )

        rng = random.Random(5)
        engine = DisjointFactorEngine(k, n)
        for _ in range(3000):
            if engine.word and rng.random() < 0.3:
                engine.pop()
            else:
                engine.try_push(rng.randrange(k))
            assert engine.max_reachable_length() == from_word(engine.word), (
                engine.word
            )

    @pytest.mark.parametrize("k,n", [(1, 3), (2, 2), (2, 3), (2, 5), (3, 2)])
    def test_disjoint_state_matches_replay(self, k, n):
        # after every push or pop, the capacity bookkeeping (and with it the
        # reachability bound) equals that of a fresh engine fed the word
        def state(e):
            return (e.word, e.grams, e.earliest, e.remaining, e.bound,
                    e.max_reachable_length())

        rng = random.Random(11)
        engine = DisjointFactorEngine(k, n)
        for _ in range(3000):
            if engine.word and rng.random() < 0.35:
                engine.pop()
            else:
                engine.try_push(rng.randrange(k))
            fresh = DisjointFactorEngine(k, n)
            assert all(fresh.try_push(a) for a in engine.word)
            assert state(engine) == state(fresh), engine.word
            assert len(engine.trail) == len(engine.word)


class TestIndexAgainstReference:
    """Factor lookups in the word's own text, and the threat tables checked
    per letter, answer exactly as an index of every length does, on long
    words.

    Random push/pop walks: letters are random, or copied from a random
    earlier position so that long repeated factors (and hence long-factor
    queries that succeed) occur. Every step compares can_extend for every
    letter, the batched verdicts and their run rows, and the try_push
    verdict with the reference engine, checks that verdicts on a random
    subset of the letters, in random order, agree with the full batch,
    checks the longest repeated suffix of every prefix against brute force
    and that it is the longest run at the last position, and probes the
    factor lookup in `text` on factors of the current word of every length
    directly. After every push and pop the capped threat tables are checked
    against an eager rebuild from the word and its runs.
    """

    STEPS = 1000
    MAX_DEPTH = 170

    @pytest.mark.parametrize("kind", ["S", "R"])
    @pytest.mark.parametrize("t", [0, 1, 2, 3, 4])
    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_random_walks_agree(self, k, t, kind):
        rev = kind == "R"
        for convention in GapConvention:
            rng = random.Random(f"{k}-{t}-{kind}-{convention.value}")
            # draws the subsets and the last descent apart from rng, so the
            # walks stay the same
            subset_rng = random.Random(f"subsets-{k}-{t}-{kind}-{convention.value}")
            engine = SplitOverlapEngine(k, t, convention, reversed_mode=rev)
            ref = oracles.AllLengthsSplitEngine(
                k, t, convention.min_gap, reversed_mode=rev
            )
            word = engine.word
            lrs = []  # brute-force longest repeated suffix of each prefix
            armed = []  # per position: every threat it arms, of any length
            qtop = 1  # 1 + the longest lrs seen on the walk
            raised = []  # the word when a push last raised qtop
            copy_from = None
            for _ in range(self.STEPS):
                assert engine.lrs == lrs, word
                self._check_threat_tables(engine, armed, qtop)
                verdicts = [ref.can_extend(a) for a in range(k)]
                assert [engine.can_extend(a) for a in range(k)] == verdicts, word
                # tokens come back in the order the letters are given
                tokens = engine.verdicts(range(k - 1, -1, -1))[::-1]
                assert [tok is not None for tok in tokens] == verdicts, word
                for a, tok in enumerate(tokens):
                    assert tok is None or tok == ref._row(a), word
                subset = subset_rng.sample(range(k), subset_rng.randint(1, k))
                assert engine.verdicts(subset) == [tokens[a] for a in subset], word
                if (
                    not any(verdicts)
                    or len(word) >= self.MAX_DEPTH
                    or (word and rng.random() < 0.01)
                ):
                    for _ in range(rng.randrange(1, min(len(word), 40) + 1)):
                        engine.pop()
                        ref.pop()
                        lrs.pop()
                        armed.pop()
                    copy_from = None
                    continue
                if copy_from is None and len(word) > 20 and rng.random() < 0.05:
                    copy_from = rng.randrange(len(word) - 1)
                if copy_from is not None:
                    a = word[copy_from]
                    copy_from += 1
                else:
                    a = rng.randrange(k)
                pushed = engine.try_push(a)
                assert ref.try_push(a) == pushed == verdicts[a], word
                if pushed:
                    lrs.append(oracles.longest_repeated_suffix(word))
                    # every repeated suffix is a run: lrs is the longest run
                    assert max(engine.runs[-1].values(), default=0) == lrs[-1]
                    armed.append(self._threats_at_end(engine))
                    if lrs[-1] + 1 > qtop:
                        qtop = lrs[-1] + 1
                        raised = word.copy()
                else:
                    copy_from = None
                self._probe_factor_lookup(engine, ref, rng)
            assert engine.word == ref.word
            if not t:
                continue  # no threats, and no letter repeats: qtop stays 1
            # pop below the push that last raised qtop, then descend again
            # by the same letters: each position now arms every length up
            # to qtop at once
            assert raised, (k, t, kind, convention)
            common = 0
            while common < min(len(word), len(raised)) and word[common] == raised[common]:
                common += 1
            depth = subset_rng.randrange(min(common, len(raised) - 1) + 1)
            while len(word) > depth:
                engine.pop()
                armed.pop()
                self._check_threat_tables(engine, armed, qtop)
            for a in raised[depth:]:
                assert engine.try_push(a), raised
                armed.append(self._threats_at_end(engine))
                self._check_threat_tables(engine, armed, qtop)

    @pytest.mark.parametrize("kind", ["S", "R"])
    @pytest.mark.parametrize("t", [1, 2, 3])
    @pytest.mark.parametrize("k", [2, 3])
    def test_verdicts_depend_on_the_word_alone(self, k, t, kind):
        # the restarts frontier reuses a word's tokens whenever it comes back
        # to the word. Random walks, as above, keep each word's first tokens
        # and compare them with fresh ones on every later visit. Half the
        # backtracks then head back, letter by letter, to a prefix of a word
        # whose push raised qtop, as a dive below a cut incumbent does, so
        # that many visits come after qtop has grown
        engine = SplitOverlapEngine(k, t, reversed_mode=kind == "R")
        word = engine.word
        rng = random.Random(f"word-alone-{k}-{t}-{kind}")
        first = {}  # text -> (tokens, qtop when they were made)
        raised = []  # the words whose push raised qtop
        pending = []  # letters still to push on the way back, last first
        after_raise = 0
        copy_from = None
        for _ in range(3000):
            tokens = engine.verdicts(range(min(max(word, default=-1) + 2, k)))
            if engine.text in first:
                kept, qtop = first[engine.text]
                assert tokens == kept, word
                after_raise += engine.qtop > qtop
            else:
                first[engine.text] = tokens, engine.qtop
            live = [a for a, tok in enumerate(tokens) if tok is not None]
            if pending:
                a = pending.pop()
                assert a in live, word
            elif not live or len(word) >= 120 or (word and rng.random() < 0.03):
                for _ in range(rng.randrange(1, len(word) + 1)):
                    engine.pop()
                if raised and rng.random() < 0.5:
                    target = rng.choice(raised)
                    target = target[: rng.randrange(len(target) + 1)]
                    while word != target[: len(word)]:
                        engine.pop()
                    pending = target[len(word) :][::-1]
                copy_from = None
                continue
            else:
                if copy_from is None and len(word) > 20 and rng.random() < 0.05:
                    copy_from = rng.randrange(len(word) - 1)
                a = rng.choice(live)
                if copy_from is not None and word[copy_from] in live:
                    a = word[copy_from]
                    copy_from += 1
                else:
                    copy_from = None
            qtop = engine.qtop
            engine.commit(a, tokens[a])
            if engine.qtop > qtop:
                raised.append(word.copy())
        assert after_raise > 0

    def test_long_threat_at_minimum_gap(self):
        # the last letter completes x . y . z with |y| = 1 (the least gap the
        # convention allows) and a 14-letter z: x pins the period block, so
        # z is a 14-letter threat, barred through the length-14 threat
        # table under its first 13 letters, which end the word
        text = (
            "2102221110211022022020222212212110021112211200211112212120002121"
            "1122121200021"
        )
        convention = GapConvention.GAP_REQUIRED
        engine = SplitOverlapEngine(3, 4, convention)
        assert all(engine.try_push(int(c)) for c in text[:-1])
        assert not engine.can_extend(int(text[-1]))
        assert find_split_t_overlap(parse_word(text[:-1], 3), 4, convention) is None
        v = find_split_t_overlap(parse_word(text, 3), 4, convention)
        assert v.x_span == (44, 61) and v.z_span == (63, 76)

    def test_short_run_split_threat_at_suffix(self):
        # the last letter completes x = 01101 (period 3 plus two letters)
        # before z = 1011: x.z is the 3-overlap 011.011.011 with
        # m < |x| < m + t, which no armed threat covers; the check finds it
        # by looking x up from the suffix z
        text = "0000000110101011"
        engine = SplitOverlapEngine(2, 3)
        assert all(engine.try_push(int(c)) for c in text[:-1])
        assert not engine.can_extend(int(text[-1]))
        assert find_split_t_overlap(parse_word(text[:-1], 2), 3) is None
        v = find_split_t_overlap(parse_word(text, 2), 3)
        assert v.x_span == (6, 10) and v.z_span == (12, 15)

    @pytest.mark.parametrize("kind", ["S", "R"])
    def test_contiguous_overlap_above_mfit(self, kind):
        # under GAP_REQUIRED with t = 1, 0101 leaves no room for a split of
        # period 2 (mfit = 1), so only the contiguous check, in the same
        # period pass, bars 0: 01010 is the 1-overlap 01.01.0. 1 completes
        # a split, x = 1 and z = 11 around the gap 0
        convention = GapConvention.GAP_REQUIRED
        engine = SplitOverlapEngine(2, 1, convention, reversed_mode=kind == "R")
        assert all(engine.try_push(a) for a in (0, 1, 0, 1))
        assert engine.verdicts((0, 1)) == [None, None]
        find_split = find_reversed_split_t_overlap if kind == "R" else find_split_t_overlap
        assert find_split(parse_word("01010", 2), 1, convention) is None
        assert find_t_overlap_factor(parse_word("01010", 2), 1).x_span == (0, 4)
        assert find_split(parse_word("01011", 2), 1, convention) is not None

    @staticmethod
    def _threats_at_end(engine):
        """(q, value) of every threat the last position arms, of any length:
        q in [m + t - r, m] for each period m >= t whose run r >= t, the q
        letters from the end less m (split) or m + t (reversed)."""
        word = engine.word
        k = engine.k
        t = engine.t
        start0 = len(word) - (t if engine.rev else 0)
        threats = []
        for m, r in engine.runs[-1].items():
            if m >= t and r >= t:
                for q in range(m + t - r, m + 1):
                    v = 0
                    for c in word[start0 - m : start0 - m + q]:
                        v = v * k + c
                    threats.append((q, v))
        return threats

    @staticmethod
    def _check_threat_tables(engine, armed, qtop):
        # eager tables: every position's threats, earliest position first;
        # the engine keeps exactly lengths 1..qtop of them
        assert engine.qtop == qtop
        assert not engine.lrs or engine.lrs[-1] + 1 <= qtop
        want = [{} for _ in range(qtop + 1)]
        for p, threats in enumerate(armed):
            for q, v in threats:
                if q <= qtop:
                    want[q].setdefault(v, p)
        assert engine.tdicts == want, engine.word
        # each threat sits in the trail of the position that owns it, so
        # pop removes it with that position
        length = {id(d): q for q, d in enumerate(engine.tdicts)}
        owned = sorted(
            (length[id(d)], v, p)
            for p, trail in enumerate(engine.td_trail)
            for d, v in trail
        )
        assert owned == sorted(
            (q, v, p) for q, d in enumerate(want) for v, p in d.items()
        ), engine.word

    @staticmethod
    def _probe_factor_lookup(engine, ref, rng):
        # the engine's lookup: x occurs ending at or before bound iff
        # text.find(x, 0, bound + 1) >= 0, for bound + 1 > 0 (str.find counts
        # a negative end from the back). Every length, bounds within 3 of the
        # factor's end, and about 30% of the probes for an absent factor
        text = engine.text
        assert text == "".join(map(chr, engine.word))
        L = len(text)
        k = engine.k
        for s in range(1, L + 1):
            end = rng.randrange(s - 1, L)
            x = text[end + 1 - s : end + 1]
            if rng.random() < 0.3:
                # change the last letter: usually a factor that does not occur
                x = x[:-1] + chr((ord(x[-1]) + 1) % k)
            v = 0
            for c in x:
                v = v * k + ord(c)
            e = ref.fdicts[s].get(v)
            for bound in (end + rng.randrange(-3, 4), -1 - end % 3):
                found = bound + 1 > 0 and text.find(x, 0, bound + 1) >= 0
                assert found == (e is not None and e <= bound), (x, bound)


class TestExhaustiveAgreement:
    """longest_avoiding matches naive enumerate-all-words-by-length."""

    CELLS = [
        ("C", 2, 1, 3), ("C", 2, 2, 8), ("C", 2, 3, 17), ("C", 1, 3, 6),
        ("S", 2, 0, 3), ("S", 2, 1, 5), ("S", 2, 2, 13), ("S", 1, 2, 6),
        ("R", 2, 0, 3), ("R", 2, 1, 5), ("R", 2, 2, 16), ("R", 1, 2, 6),
    ]

    @pytest.mark.parametrize("kind,k,param,maxlen", CELLS)
    def test_agreement(self, kind, k, param, maxlen):
        want_len, want_witness, saturated = oracles.longest_by_enumeration(
            k, kind, param, maxlen
        )
        assert saturated, "enumeration bound too small"
        problem = SearchProblem(ProblemKind(kind), k, param)
        out = longest_avoiding(problem)
        assert out.status is SearchStatus.EXACT
        assert out.max_length == want_len
        assert out.witness.symbols == want_witness


class TestCertifiedCap:
    """The early-stop cap never undercuts a known value, and is computed
    only where a search can reach it."""

    def test_never_below_known_values(self):
        for cell in load_known_cells():
            problem = SearchProblem(ProblemKind(cell.table), cell.k, cell.param)
            cap = certified_cap(problem)
            assert cap is None or cap >= cell.value, cell

    @pytest.mark.parametrize("kind", ["S", "R"])
    def test_unary_cells_single_task(self, kind):
        for cell in load_known_cells():
            if cell.table == kind and cell.k == 1:
                problem = SearchProblem(ProblemKind(kind), 1, cell.param)
                out = longest_avoiding(problem, SearchBudget(split_depth=0))
                assert out.status is SearchStatus.EXACT, cell
                assert out.max_length == cell.value, cell

    def test_unreachable_split_bounds_are_not_computed(self):
        # the composition bound gives 227,500 against S(2,3) = 47
        assert certified_cap(SearchProblem(ProblemKind.SPLIT_OVERLAP, 2, 3)) is None


class TestSearchBudget:
    @pytest.mark.parametrize("seconds", [-1, -0.5, float("nan")])
    def test_rejects_negative_or_nan_seconds(self, seconds):
        with pytest.raises(ValueError):
            SearchBudget(seconds=seconds)
        assert SearchBudget(seconds=float("inf")).seconds == float("inf")


class TestSearchProperties:
    def test_maximality_of_witnesses(self):
        for kind, k, param in [("C", 2, 3), ("S", 2, 2), ("R", 2, 2), ("S", 3, 1)]:
            problem = SearchProblem(ProblemKind(kind), k, param)
            out = longest_avoiding(problem)
            state = SearchState(problem)
            for a in out.witness.symbols:
                assert state.push(a)
            for a in range(k):
                assert not state.can_extend(a), (kind, k, param, a)

    @pytest.mark.parametrize(
        "kind,k,param,split_depth,nodes,witness",
        [
            ("C", 2, 4, None, 51153, "01010100100110110111111100000001"),
            ("S", 2, 2, None, 839, "000110100111"),
            ("S", 3, 1, None, 224, "012021012"),
            ("R", 2, 2, None, 1095, "010001100111001"),
            ("R", 3, 1, None, 236, "012010210"),
            ("C", 3, 3, None, 363, "00000101011002020210220121212222211111200"),
            ("C", 2, 4, 0, 8373, "01010100100110110111111100000001"),
            ("C", 3, 3, 0, 185, "00000101011002020210220121212222211111200"),
        ],
    )
    def test_pinned_nodes_and_witness(self, kind, k, param, split_depth, nodes, witness):
        # node counts and lex-least witnesses recorded with one engine check
        # per extension attempt; checking a node's letters together must
        # not move them
        problem = SearchProblem(ProblemKind(kind), k, param)
        out = longest_avoiding(problem, SearchBudget(split_depth=split_depth))
        assert out.status is SearchStatus.EXACT
        assert out.nodes_explored == nodes
        assert format_word(out.witness) == witness

    def test_witness_canonical_first_occurrences_increasing(self):
        for kind, k, param in [("C", 3, 2), ("S", 3, 1), ("R", 4, 1)]:
            out = longest_avoiding(SearchProblem(ProblemKind(kind), k, param))
            seen = []
            for a in out.witness.symbols:
                if a not in seen:
                    seen.append(a)
            assert seen == sorted(seen)

    def test_collect_all_witnesses(self):
        # all canonical maximal words, lexicographically least first
        problem = SearchProblem(ProblemKind.SPLIT_OVERLAP, 2, 1)
        out = longest_avoiding(problem, collect_all_witnesses=True)
        assert out.max_length == 4
        assert [str(w) for w in out.witnesses] == ["0011", "0101", "0110"]
        for w in out.witnesses:
            assert verify_witness(problem, w)

    def test_monotone_in_t(self):
        s_vals = [
            longest_avoiding(SearchProblem(ProblemKind.SPLIT_OVERLAP, 2, t)).max_length
            for t in range(3)
        ]
        assert s_vals == sorted(s_vals)

    def test_monotone_in_n(self):
        c_vals = [
            longest_avoiding(
                SearchProblem(ProblemKind.DISJOINT_FACTORS, 2, n)
            ).max_length
            for n in range(1, 5)
        ]
        assert c_vals == sorted(c_vals)
        assert c_vals == [2, 7, 16, 32]

    def test_node_budget_gives_lower_bound_status(self):
        problem = SearchProblem(ProblemKind.DISJOINT_FACTORS, 2, 4)
        out = longest_avoiding(problem, SearchBudget(nodes=50, split_depth=0))
        assert out.status is SearchStatus.LOWER_BOUND
        assert out.nodes_explored == 50

    @pytest.mark.parametrize(
        "kind,k,param,depth,tasks,nodes",
        [("C", 2, 4, 7, 64, 127), ("S", 4, 1, 6, 70, 162), ("R", 4, 1, 6, 70, 162)],
    )
    def test_pinned_task_plan(self, kind, k, param, depth, tasks, nodes):
        # split depth, prefix count and the attempts spent finding them
        got = _plan_tasks(SearchProblem(ProblemKind(kind), k, param))
        assert (got[0], len(got[1]), got[2]) == (depth, tasks, nodes)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_seconds_caps_the_whole_search(self, workers):
        # S(2,3) takes about a minute in 64 tasks; the cap holds across all
        # of them, not per task (a second per task would take over a minute)
        problem = SearchProblem(ProblemKind.SPLIT_OVERLAP, 2, 3)
        t0 = time.monotonic()
        out = longest_avoiding(problem, SearchBudget(seconds=1.0, workers=workers))
        assert time.monotonic() - t0 < 5
        assert out.status is SearchStatus.LOWER_BOUND

    def test_one_period_table_per_disjoint_search(self, monkeypatch):
        # the planner, every task's replay and certified_cap share one
        # enumeration of the 2**6 length-6 words; the outcome is the one
        # recorded when each engine enumerated them itself
        repeats = []
        product = counting.product

        def counted(*args, repeat):
            repeats.append(repeat)
            return product(*args, repeat=repeat)

        monkeypatch.setattr(counting, "product", counted)
        counting.smallest_periods.cache_clear()
        counting.theorem_sum_bound.cache_clear()
        problem = SearchProblem(ProblemKind.DISJOINT_FACTORS, 2, 6)
        out = longest_avoiding(problem, SearchBudget(nodes=200))
        assert repeats == [6]
        assert (out.max_length, out.status, out.nodes_explored) == (
            96, SearchStatus.LOWER_BOUND, 12927,
        )
        assert format_word(out.witness) == (
            "000011100000000000100001000101001001001100011000110101010101100101"
            "110110110111100111111111101000"
        )

    def test_short_budget_on_a_large_period_table(self):
        # 2**16 words enumerated once, not once per planned task (11 s)
        counting.smallest_periods.cache_clear()
        counting.theorem_sum_bound.cache_clear()
        problem = SearchProblem(ProblemKind.DISJOINT_FACTORS, 2, 16)
        t0 = time.monotonic()
        out = longest_avoiding(problem, SearchBudget(seconds=0.05))
        assert time.monotonic() - t0 < 2
        assert out.status is SearchStatus.LOWER_BOUND

    def test_short_budget_while_the_period_table_is_built(self):
        # the 2**20 periods take seconds to enumerate; the deadline is
        # tested between blocks of words, and no engine is built in time
        problem = SearchProblem(ProblemKind.DISJOINT_FACTORS, 2, 20)
        seed = parse_word("0011", 2)
        for run in (
            lambda budget: longest_avoiding(problem, budget),
            lambda budget: frontier_lower_bound(problem, budget),
            lambda budget: frontier_lower_bound(problem, budget, seed=seed),
        ):
            counting.smallest_periods.cache_clear()
            t0 = time.monotonic()
            out = run(SearchBudget(seconds=0.05))
            assert time.monotonic() - t0 < 1
            assert out.status is SearchStatus.LOWER_BOUND
            assert out.nodes_explored == 0
        assert format_word(out.witness) == "0011"
        counting.smallest_periods.cache_clear()
        with pytest.raises(ValueError, match="not violation-free"):
            frontier_lower_bound(
                problem, SearchBudget(seconds=0.05), seed=parse_word("0" * 41, 2)
            )

    def test_short_budget_on_a_huge_alphabet(self):
        # the split engine sets up nothing per letter of the alphabet,
        # which the replay of every planned task would repeat
        problem = SearchProblem(ProblemKind.SPLIT_OVERLAP, 200_000, 1)
        t0 = time.monotonic()
        out = longest_avoiding(problem, SearchBudget(seconds=0.5))
        assert time.monotonic() - t0 < 2
        assert out.status is SearchStatus.LOWER_BOUND

    def test_task_past_its_deadline_returns_at_once(self):
        problem = SearchProblem(ProblemKind.DISJOINT_FACTORS, 2, 4)
        task = (problem, [0, 0], None, None, time.monotonic() - 1, False, False)
        result = _run_task(task)
        assert result.nodes == 0 and not result.exhausted
        assert result.best == [0, 0]

    def test_verify_witness_examples(self):
        c3 = SearchProblem(ProblemKind.DISJOINT_FACTORS, 2, 3)
        assert verify_witness(c3, parse_word("0000010101111100", 2))
        s2 = SearchProblem(ProblemKind.SPLIT_OVERLAP, 2, 2)
        assert verify_witness(s2, parse_word("000110100111", 2))
        s1 = SearchProblem(ProblemKind.SPLIT_OVERLAP, 2, 1)
        assert not verify_witness(s1, parse_word("00110", 2))


class TestExtendCheck:
    def test_agrees_with_full_detection_randomized(self):
        rng = random.Random(20240808)
        problems = [
            SearchProblem(ProblemKind.DISJOINT_FACTORS, 2, 2),
            SearchProblem(ProblemKind.DISJOINT_FACTORS, 2, 3),
            SearchProblem(ProblemKind.SPLIT_OVERLAP, 2, 1),
            SearchProblem(ProblemKind.SPLIT_OVERLAP, 2, 2),
            SearchProblem(ProblemKind.SPLIT_OVERLAP, 3, 1),
            SearchProblem(ProblemKind.REVERSED_SPLIT_OVERLAP, 2, 1),
            SearchProblem(ProblemKind.REVERSED_SPLIT_OVERLAP, 2, 2),
            SearchProblem(ProblemKind.REVERSED_SPLIT_OVERLAP, 3, 1),
        ]
        events = 0
        while events < 5_000:
            problem = rng.choice(problems)
            state = SearchState(problem)
            while True:
                a = rng.randrange(problem.k)
                ok = extend_check(state, a)
                extended = Word(tuple(state.word) + (a,), problem.k)
                assert ok == verify_witness(problem, extended), (state.word, a)
                events += 1
                if not ok or len(state.word) > 18 or events >= 5_000:
                    break
                state.push(a)

    def test_specific_extension_examples(self):
        problem = SearchProblem(ProblemKind.DISJOINT_FACTORS, 2, 2)
        state = SearchState(problem)
        for a in (0, 0, 0, 1, 1, 1):
            assert state.push(a)
        assert extend_check(state, 0)
        state.push(0)  # 0001110 reached
        assert not extend_check(state, 0)
        assert not extend_check(state, 1)


class TestDeterminismAcrossWorkers:
    @pytest.mark.parametrize("k,n", [(3, 3), (4, 3), (5, 2)])
    def test_cap_hit_one_vs_two_workers(self, k, n):
        # the first task to reach the certified cap ends the search; on a
        # pool the started tasks finish and the rest are dropped
        problem = SearchProblem(ProblemKind.DISJOINT_FACTORS, k, n)
        single = longest_avoiding(problem, SearchBudget(workers=1))
        multi = longest_avoiding(problem, SearchBudget(workers=2))
        assert outcome_key(single) == outcome_key(multi)
        assert multi.status is SearchStatus.EXACT
        assert multi.max_length == certified_cap(problem)

    def test_never_more_workers_than_tasks(self, monkeypatch):
        # a stand-in pool that records its size and runs the tasks here,
        # so the huge count never starts a process
        sizes, cancels = [], []

        class InProcessPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def map(self, fn, tasks):
                return map(fn, tasks)

            def shutdown(self, wait=True, *, cancel_futures=False):
                cancels.append(cancel_futures)

        def no_fork():
            raise AssertionError("a pool of 10**6 workers must never start")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
        monkeypatch.setattr(os, "fork", no_fork)
        problem = SearchProblem(ProblemKind.DISJOINT_FACTORS, 2, 3)
        tasks = len(_plan_tasks(problem)[1])
        out = longest_avoiding(problem, SearchBudget(workers=10**6))
        assert sizes == [tasks] and cancels == [True]
        assert outcome_key(out) == outcome_key(longest_avoiding(problem))
        assert out.max_length == certified_cap(problem)  # a cap hit

    def test_c24_one_vs_many_workers(self):
        problem = SearchProblem(ProblemKind.DISJOINT_FACTORS, 2, 4)
        single = longest_avoiding(problem, SearchBudget(workers=1))
        multi = longest_avoiding(problem, SearchBudget(workers=8))
        assert outcome_key(single) == outcome_key(multi)
        assert single.max_length == 32

    def test_split_search_workers(self):
        problem = SearchProblem(ProblemKind.SPLIT_OVERLAP, 2, 2)
        single = longest_avoiding(problem, SearchBudget(workers=1))
        multi = longest_avoiding(problem, SearchBudget(workers=4))
        assert outcome_key(single) == outcome_key(multi)

    def test_budgeted_runs_identical(self):
        problem = SearchProblem(ProblemKind.REVERSED_SPLIT_OVERLAP, 2, 3)
        a = longest_avoiding(problem, SearchBudget(nodes=2_000, workers=1))
        b = longest_avoiding(problem, SearchBudget(nodes=2_000, workers=6))
        assert outcome_key(a) == outcome_key(b)
        assert a.status is SearchStatus.LOWER_BOUND


class TestImport:
    def test_import_loads_no_process_pool(self):
        # the pool modules are imported only when a search starts a pool, so
        # `import splitrep` stays cheap for the CLI and short searches
        import splitrep

        src = os.path.dirname(os.path.dirname(splitrep.__file__))
        code = (
            "import sys, splitrep; "
            "print(sorted(m for m in ('multiprocessing', 'concurrent.futures')"
            " if m in sys.modules))"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": src}, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"


class TestFrontier:
    def test_zero_budget(self):
        problem = SearchProblem(ProblemKind.DISJOINT_FACTORS, 2, 6)
        out = frontier_lower_bound(problem, SearchBudget(nodes=0))
        assert out.max_length == 0
        assert out.status is SearchStatus.LOWER_BOUND

    @pytest.mark.parametrize("dive_nodes", [0, -5])
    def test_rejects_dive_nodes_below_one(self, dive_nodes):
        # a dive of no nodes never moves the count, so the dives never end
        problem = SearchProblem(ProblemKind.SPLIT_OVERLAP, 3, 2)
        with pytest.raises(ValueError, match="dive_nodes"):
            frontier_lower_bound(
                problem, SearchBudget(nodes=1000), strategy="restarts",
                dive_nodes=dive_nodes,
            )

    @pytest.mark.parametrize(
        "budget,match",
        [
            (SearchBudget(nodes=1000, workers=2), "one worker"),
            (SearchBudget(nodes=1000, split_depth=0), "split depth"),
            (SearchBudget(nodes=1000, split_depth=3), "split depth"),
        ],
    )
    def test_rejects_the_exact_search_options(self, budget, match):
        # a frontier search runs one task on one worker
        problem = SearchProblem(ProblemKind.SPLIT_OVERLAP, 2, 2)
        with pytest.raises(ValueError, match=match):
            frontier_lower_bound(problem, budget)

    def test_lex_respects_budget_and_improves(self):
        problem = SearchProblem(ProblemKind.DISJOINT_FACTORS, 2, 5)
        small = frontier_lower_bound(problem, SearchBudget(nodes=200))
        large = frontier_lower_bound(problem, SearchBudget(nodes=20_000))
        assert small.max_length <= large.max_length
        assert large.max_length >= 40

    def test_c27_best_effort_target(self):
        problem = SearchProblem(ProblemKind.DISJOINT_FACTORS, 2, 7)
        out = frontier_lower_bound(problem, SearchBudget(nodes=300_000))
        assert out.max_length >= 150
        assert verify_witness(problem, out.witness)

    @pytest.mark.parametrize(
        "kind,k,param,nodes,seed,length,witness",
        [
            # the benchmark's lex cell
            (
                "C", 2, 6, 60_000, None, 99,
                "00000000000100001000011000101000111001001001011001101101101010"
                "1010111010011110111101111111111100000",
            ),
            (
                "C", 2, 5, 2_000, "0000010001100101", 43,
                "0000010001100101001110101101101111111110000",
            ),
        ],
    )
    def test_lex_pinned(self, kind, k, param, nodes, seed, length, witness):
        problem = SearchProblem(ProblemKind(kind), k, param)
        out = frontier_lower_bound(
            problem, SearchBudget(nodes=nodes), strategy="lex",
            seed=None if seed is None else parse_word(seed, k),
        )
        assert out.nodes_explored == nodes
        assert out.max_length == length
        assert format_word(out.witness) == witness

    @pytest.mark.parametrize(
        "kind,k,param,seed,nodes,witness",
        [
            ("S", 3, 1, "0102", 170, "012021012"),
            ("R", 3, 1, "0120", 98, "012010210"),
            ("C", 3, 3, "0011", 8_606, "00110000020202101010220121212222211111200"),
        ],
    )
    def test_lex_from_seed_exhausts_pinned(self, kind, k, param, seed, nodes, witness):
        # the walk pops back through every frame of the seed, so each
        # resumed frame's canonical letters show in the node count: with
        # k = 3 a frame may hold one, two or three letters
        problem = SearchProblem(ProblemKind(kind), k, param)
        out = frontier_lower_bound(
            problem, SearchBudget(nodes=10**6), strategy="lex",
            seed=parse_word(seed, k),
        )
        assert out.nodes_explored == nodes
        assert format_word(out.witness) == witness

    def test_seed_is_respected(self):
        problem = SearchProblem(ProblemKind.SPLIT_OVERLAP, 2, 2)
        seed = parse_word("000110", 2)
        out = frontier_lower_bound(problem, SearchBudget(nodes=100), seed=seed)
        assert out.max_length >= 6

    def test_restarts_deterministic(self):
        problem = SearchProblem(ProblemKind.SPLIT_OVERLAP, 3, 2)
        a = frontier_lower_bound(problem, SearchBudget(nodes=20_000), rng_seed=5)
        b = frontier_lower_bound(problem, SearchBudget(nodes=20_000), rng_seed=5)
        assert outcome_key(a) == outcome_key(b)
        assert verify_witness(problem, a.witness)

    @pytest.mark.parametrize(
        "kind,k,t,start",
        [
            # the first 110 letters of long stored words; no S(3,2) word over
            # 100 letters is known (the table gives >= 98), so S(4,2) stands
            # in for the split kind
            (
                "R", 2, 4,
                "00010000001101101110000110101111000001110011010100000110111110"
                "011010010000011011110010010000011010010111111000",
            ),
            (
                "S", 4, 2,
                "00010023111300113331222113212233103323132011231220133112031032"
                "003113010213021120213311021223113002130120332300",
            ),
        ],
    )
    def test_long_witness_replays_in_reference_engine(self, kind, k, t, start):
        # above 100 letters verify_witness replays the package engine; the
        # reference engine shares no code with it
        problem = SearchProblem(ProblemKind(kind), k, t)
        out = frontier_lower_bound(
            problem, SearchBudget(nodes=3_000), seed=parse_word(start, k),
            strategy="restarts", rng_seed=2, dive_nodes=200,
        )
        assert out.max_length >= len(start) > 100
        ref = oracles.AllLengthsSplitEngine(
            k, t, problem.convention.min_gap, reversed_mode=kind == "R"
        )
        assert all(ref.try_push(a) for a in out.witness.symbols)
        engine = problem.engine()
        assert all(engine.try_push(a) for a in out.witness.symbols)
        assert [engine.can_extend(a) for a in range(k)] == [
            ref.can_extend(a) for a in range(k)
        ]


@pytest.fixture(params=[None, 1, 8], ids=["memo-default", "memo-1", "memo-8"])
def memo_words(request, monkeypatch):
    """Run a restarts pin at the default verdict-cache bound and at bounds
    of 1 and 8 words, which drop filed words all the time: the cache must
    not move the search path at any size."""
    import splitrep.search as search_mod

    if request.param is not None:
        monkeypatch.setattr(search_mod, "_MEMO_WORDS", request.param)


class TestRestartsRegression:
    """Pinned outcomes of the restarts strategy, recorded with an engine
    rebuilt from scratch for every dive and no verdict cache: keeping one
    live engine across dives, and reusing a word's verdicts, must not move
    the search path, hence nodes, reach and witness."""

    @pytest.mark.parametrize(
        "kind,k,t,start,tie_swap,max_length,witness",
        [
            (
                "R", 2, 4,
                "00110101101000100110001111000000111000011111110000011",
                0.3,
                85,
                "0010001110010110100110101000000001101101111001000110111111100"
                "100100011011110011011000",
            ),
            (
                "S", 3, 2,
                "00001021210201022201122011020111201102",
                0.3,
                72,
                "0112101200112220211100120021122100022112021100122011002210112"
                "20021011202",
            ),
            (
                "R", 2, 4,
                "00110101101000100110001111000000111000011111110000011",
                0,
                63,
                "001101011010010010000111110000011100000011001001111110010001100",
            ),
            # a start word that is not canonical: replaying it takes letters
            # beyond those filed for its prefixes
            (
                "S", 3, 2, "2120", 0.3, 73,
                "2110012211102221101202112000120221002122011021200221012200112"
                "202110022101",
            ),
        ],
    )
    def test_pinned_outcome(
        self, kind, k, t, start, tie_swap, max_length, witness, memo_words
    ):
        problem = SearchProblem(ProblemKind(kind), k, t)
        out = frontier_lower_bound(
            problem, SearchBudget(nodes=6_000), seed=parse_word(start, k),
            strategy="restarts", rng_seed=11, dive_nodes=200, tie_swap=tie_swap,
        )
        assert out.nodes_explored == 6_000
        assert out.max_length == max_length
        assert format_word(out.witness) == witness
        assert verify_witness(problem, out.witness)

    @pytest.mark.parametrize(
        "kind,k,t,convention,nodes,rng_seed,dive_nodes,max_length,witness",
        [
            # from the empty word at the default dive_nodes
            (
                "R", 2, 4, "empty-ok", 20_000, 1, 8_000, 54,
                "001101011010001001100011100000111111100001111000000111",
            ),
            (
                "S", 3, 2, "empty-ok", 20_000, 1, 8_000, 56,
                "00112222102011100021012011001210112001211020011210021102",
            ),
            (
                "S", 3, 2, "gap-required", 6_000, 7, 200, 52,
                "0111120220100221000222120210022120012010212001022120",
            ),
            # the disjoint-factor engine runs restarts uncached
            (
                "C", 2, 5, "empty-ok", 6_000, 3, 200, 55,
                "0110100011111111101110111000001001001010101011001100110",
            ),
        ],
    )
    def test_pinned_from_empty_word(
        self, kind, k, t, convention, nodes, rng_seed, dive_nodes, max_length,
        witness, memo_words,
    ):
        problem = SearchProblem(ProblemKind(kind), k, t, GapConvention(convention))
        out = frontier_lower_bound(
            problem, SearchBudget(nodes=nodes), strategy="restarts",
            rng_seed=rng_seed, dive_nodes=dive_nodes,
        )
        assert out.nodes_explored == nodes
        assert out.max_length == max_length
        assert format_word(out.witness) == witness
        assert verify_witness(problem, out.witness)

    @pytest.mark.parametrize("bound", [1, 8])
    def test_verdict_cache_stays_within_its_bound(self, monkeypatch, bound):
        import splitrep.search as search_mod

        class Recorded(search_mod.OrderedDict):
            sizes = []

            def __setitem__(self, key, value):
                super().__setitem__(key, value)
                self.sizes.append(len(self))

        monkeypatch.setattr(search_mod, "_MEMO_WORDS", bound)
        monkeypatch.setattr(search_mod, "OrderedDict", Recorded)
        frontier_lower_bound(
            SearchProblem(ProblemKind.SPLIT_OVERLAP, 3, 2), SearchBudget(nodes=3_000),
            strategy="restarts", rng_seed=4, dive_nodes=200,
        )
        assert max(Recorded.sizes) == bound

    def test_pinned_checkpoint_and_resume(self, tmp_path, memo_words):
        problem = SearchProblem(ProblemKind.SPLIT_OVERLAP, 3, 2)
        path = tmp_path / "s32.ckpt"
        witness = "01120120211022011100102110002210220011002221002201"
        part = frontier_lower_bound(
            problem, SearchBudget(nodes=3_000), strategy="restarts", rng_seed=4,
            dive_nodes=200, checkpoint_path=path,
        )
        assert (part.nodes_explored, format_word(part.witness)) == (3_000, witness)
        cp = load_checkpoint(path)
        assert (cp.budget_nodes, cp.nodes, cp.best_len) == (3_000, 3_000, 50)
        assert cp.best == cp.prefix == witness
        resumed = frontier_lower_bound(
            problem, SearchBudget(nodes=3_000), strategy="restarts", rng_seed=4,
            dive_nodes=200, checkpoint_path=path, resume=cp,
        )
        assert resumed.nodes_explored == 6_000
        assert format_word(resumed.witness) == witness
        assert load_checkpoint(path).nodes == 6_000

    def test_deadline_stops_a_long_budget(self):
        # the deadline is tested on the run's node count: a 200-node dive
        # never counts to 4096 on its own
        problem = SearchProblem(ProblemKind.SPLIT_OVERLAP, 3, 2)
        t0 = time.monotonic()
        out = frontier_lower_bound(
            problem, SearchBudget(nodes=10**9, seconds=0.5), strategy="restarts",
            dive_nodes=200,
        )
        assert time.monotonic() - t0 < 5
        assert 0 < out.nodes_explored < 10**9

    @pytest.mark.parametrize("rng_seed", [0, 1, 2, 3])
    def test_start_word_with_violation_raises(self, rng_seed):
        problem = SearchProblem(ProblemKind.REVERSED_SPLIT_OVERLAP, 2, 4)
        # twelve 0s are the 4-overlap 0000.0000.0000
        start = parse_word("0" * 12 + "00110101101000100110001111", 2)
        with pytest.raises(ValueError):
            frontier_lower_bound(
                problem, SearchBudget(nodes=6_000), seed=start,
                strategy="restarts", rng_seed=rng_seed, dive_nodes=200,
            )


class TestCheckpoints:
    def test_round_trip_bit_exact(self, tmp_path):
        problem = SearchProblem(ProblemKind.SPLIT_OVERLAP, 2, 3)
        path = tmp_path / "run.ckpt"
        frontier_lower_bound(
            problem, SearchBudget(nodes=5_000), strategy="lex", checkpoint_path=path
        )
        first = path.read_text()
        cp = load_checkpoint(path)
        assert cp.render() == first
        path.write_text(cp.render())
        assert load_checkpoint(path).render() == first

    def test_resume_continues_accumulating(self, tmp_path):
        # pinned: a resumed lex run restarts at the checkpointed prefix, the
        # word where the first run stopped
        problem = SearchProblem(ProblemKind.DISJOINT_FACTORS, 2, 5)
        path = tmp_path / "c25.ckpt"
        witness = "00000000010001000110010101010110100111011101111111110000"
        part = frontier_lower_bound(
            problem, SearchBudget(nodes=3_000), strategy="lex", checkpoint_path=path
        )
        assert format_word(part.witness) == witness
        cp = load_checkpoint(path)
        assert cp.nodes == part.nodes_explored
        assert cp.prefix == "000000000100010001100101010101111111101001110"
        resumed = frontier_lower_bound(
            problem, SearchBudget(nodes=3_000), strategy="lex",
            checkpoint_path=path, resume=cp,
        )
        assert resumed.nodes_explored == 6_000
        assert format_word(resumed.witness) == witness
        cp = load_checkpoint(path)
        assert cp.prefix == "0000000001000100011001100101010110111101"

    def test_resume_pinned_ternary(self, tmp_path):
        # k = 3: the canonical letter count of the resumed frames grows from
        # one to three along the prefix
        problem = SearchProblem(ProblemKind.DISJOINT_FACTORS, 3, 4)
        path = tmp_path / "c34.ckpt"
        witness = (
            "0010200000001100020100120021002201110101011201210122020202110212"
            "02210222111111121121122121212222222001"
        )
        part = frontier_lower_bound(
            problem, SearchBudget(nodes=20_000), seed=parse_word("0010200", 3),
            strategy="lex", checkpoint_path=path,
        )
        assert (part.nodes_explored, format_word(part.witness)) == (20_000, witness)
        cp = load_checkpoint(path)
        assert cp.prefix == (
            "0010200000001100020100120021002201110101011201210122020202110212"
            "02211111222222212121221"
        )
        resumed = frontier_lower_bound(
            problem, SearchBudget(nodes=20_000), strategy="lex",
            checkpoint_path=path, resume=cp,
        )
        assert resumed.nodes_explored == 40_000
        assert format_word(resumed.witness) == witness
        cp = load_checkpoint(path)
        assert cp.nodes == 40_000
        assert cp.prefix == (
            "0010200000001100020100120021002201110101011201210122020202110212"
            "0221221221022211111211211222222200"
        )

    def test_parse_truncated_raises_value_error(self, tmp_path):
        problem = SearchProblem(ProblemKind.SPLIT_OVERLAP, 2, 3)
        path = tmp_path / "run.ckpt"
        frontier_lower_bound(
            problem, SearchBudget(nodes=1_000), strategy="lex", checkpoint_path=path
        )
        text = path.read_text()
        for cut in (text.index("param="), text.index("nodes="), len(text) // 2):
            with pytest.raises(ValueError):
                Checkpoint.parse(text[:cut])

    def test_interrupted_write_keeps_previous_checkpoint(self, tmp_path, monkeypatch):
        import splitrep.search as search_mod

        problem = SearchProblem(ProblemKind.SPLIT_OVERLAP, 2, 3)
        path = tmp_path / "run.ckpt"
        frontier_lower_bound(
            problem, SearchBudget(nodes=1_000), strategy="lex", checkpoint_path=path
        )
        before = path.read_text()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run.ckpt"]

        def killed(src, dst):
            raise KeyboardInterrupt  # the process dies before the rename

        monkeypatch.setattr(search_mod.os, "replace", killed)
        with pytest.raises(KeyboardInterrupt):
            frontier_lower_bound(
                problem, SearchBudget(nodes=2_000), strategy="lex",
                checkpoint_path=path,
            )
        assert path.read_text() == before
        assert load_checkpoint(path).nodes == 1_000
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run.ckpt"]

    @pytest.mark.parametrize("strategy", ["lex", "restarts"])
    def test_checkpoints_written_during_the_run(self, tmp_path, monkeypatch, strategy):
        import splitrep.search as search_mod

        written = []
        write = search_mod._write_checkpoint

        def recorded(path, problem, budget_nodes, best, prefix, nodes, settings):
            written.append(nodes)
            write(path, problem, budget_nodes, best, prefix, nodes, settings)

        monkeypatch.setattr(search_mod, "CHECKPOINT_EVERY", 1_000)
        monkeypatch.setattr(search_mod, "_write_checkpoint", recorded)
        path = tmp_path / "run.ckpt"
        frontier_lower_bound(
            SearchProblem(ProblemKind.SPLIT_OVERLAP, 2, 3), SearchBudget(nodes=3_500),
            strategy=strategy, dive_nodes=200, checkpoint_path=path,
        )
        # one write each CHECKPOINT_EVERY nodes, then the final one
        assert written == [1_000, 2_000, 3_000, 3_500]
        assert load_checkpoint(path).nodes == 3_500

    SETTINGS = {"strategy": "restarts", "rng_seed": 4, "dive_nodes": 200, "tie_swap": 0.3}

    @pytest.mark.parametrize(
        "name,other",
        [("strategy", "lex"), ("rng_seed", 5), ("dive_nodes", 201), ("tie_swap", 0.5)],
    )
    def test_resume_rejects_other_settings(self, tmp_path, name, other):
        problem = SearchProblem(ProblemKind.SPLIT_OVERLAP, 2, 3)
        path = tmp_path / "run.ckpt"
        frontier_lower_bound(
            problem, SearchBudget(nodes=1_000), checkpoint_path=path, **self.SETTINGS
        )
        cp = load_checkpoint(path)
        assert cp.settings() == self.SETTINGS
        with pytest.raises(ValueError, match=name):
            frontier_lower_bound(
                problem, SearchBudget(nodes=10), resume=cp,
                **{**self.SETTINGS, name: other},
            )
        # "auto" is stored as the strategy it picks, restarts for S
        settings = {**self.SETTINGS, "strategy": "auto"}
        out = frontier_lower_bound(problem, SearchBudget(nodes=10), resume=cp, **settings)
        assert out.nodes_explored == 1_010

    def test_resume_rejects_other_problem(self, tmp_path):
        problem = SearchProblem(ProblemKind.SPLIT_OVERLAP, 2, 3)
        path = tmp_path / "run.ckpt"
        frontier_lower_bound(
            problem, SearchBudget(nodes=1_000), strategy="lex", checkpoint_path=path
        )
        cp = load_checkpoint(path)
        other = SearchProblem(ProblemKind.SPLIT_OVERLAP, 2, 2)
        with pytest.raises(ValueError):
            frontier_lower_bound(other, SearchBudget(nodes=10), resume=cp)
