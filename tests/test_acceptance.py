"""Acceptance gate: every stated criterion at its stated tolerance.

Each criterion records one PASS/FAIL line (printed in the terminal summary
and written to acceptance_report.txt under .pytest_cache/d/splitrep/, with
calibration_report.txt beside it). The long-budget exact cells
C(2,5), S(2,3) and R(2,3) carry the "stretch" marker; deselect them with
-m "not stretch" for a quick run.
"""

import json
import random
import time

import pytest

import oracles
from splitrep.cli import main as cli_main
from splitrep.counting import (
    max_nondisjoint_cap,
    occurrence_witness,
    period_census,
    primitive_count,
    theorem_sum_bound,
    unbordered_count,
)
from splitrep.debruijn import construct_c2_lower, construct_c3_lower, debruijn_order3_special
from splitrep.detect import (
    GapConvention,
    count_nondisjoint_occurrences,
    find_disjoint_pair,
    find_reversed_split_t_overlap,
    find_split_t_overlap,
    find_t_overlap_factor,
)
from splitrep.knownvalues import load_known_cells
from splitrep.search import (
    ProblemKind,
    SearchBudget,
    SearchProblem,
    SearchState,
    SearchStatus,
    extend_check,
    frontier_lower_bound,
    longest_avoiding,
    verify_witness,
)
from splitrep.words import Word, format_word, occurrences, parse_word, word

_cache: dict = {}


def exact_search(kind, k, param):
    key = (kind, k, param)
    if key not in _cache:
        t0 = time.monotonic()
        out = longest_avoiding(SearchProblem(ProblemKind(kind), k, param))
        _cache[key] = (out, time.monotonic() - t0)
    return _cache[key]


def run_cells(cells, limit_seconds):
    """Run each (kind, k, param, want) cell; return failure list, max time."""
    failures = []
    slowest = 0.0
    for kind, k, param, want in cells:
        out, elapsed = exact_search(kind, k, param)
        slowest = max(slowest, elapsed)
        if out.status is not SearchStatus.EXACT:
            failures.append(f"{kind}({k},{param}) not exact")
        elif out.max_length != want:
            failures.append(f"{kind}({k},{param}) = {out.max_length}, want {want}")
        elif elapsed > limit_seconds:
            failures.append(f"{kind}({k},{param}) took {elapsed:.0f}s")
    return failures, slowest


class TestCriterion1TableC:
    def test_required_cells(self, record):
        cells = [("C", 1, n, 2 * n - 1) for n in range(1, 8)]
        cells += [("C", 2, 2, 7), ("C", 2, 3, 16), ("C", 2, 4, 32),
                  ("C", 3, 2, 13), ("C", 4, 2, 21), ("C", 5, 2, 31)]
        failures, slowest = run_cells(cells, 60)
        record(
            f"criterion 1 (table C required cells, exact, <60s): "
            f"{'FAIL ' + '; '.join(failures) if failures else f'PASS ({len(cells)} cells, slowest {slowest:.1f}s)'}"
        )
        assert not failures

    @pytest.mark.stretch
    def test_stretch_c25(self, record):
        failures, slowest = run_cells([("C", 2, 5, 59)], 600)
        record(
            f"criterion 1 stretch (C(2,5)=59 exact): "
            f"{'FAIL ' + '; '.join(failures) if failures else f'PASS ({slowest:.1f}s)'}"
        )
        assert not failures

    def test_stretch_c33_c43(self, record):
        failures, slowest = run_cells([("C", 3, 3, 41), ("C", 4, 3, 86)], 600)
        record(
            f"criterion 1 stretch (C(3,3)=41, C(4,3)=86 exact): "
            f"{'FAIL ' + '; '.join(failures) if failures else f'PASS ({slowest:.1f}s)'}"
        )
        assert not failures

    def test_c26_lower_bound_mode(self, record):
        problem = SearchProblem(ProblemKind.DISJOINT_FACTORS, 2, 6)
        out = frontier_lower_bound(problem, SearchBudget(nodes=500_000))
        ok = out.max_length >= 90 and verify_witness(problem, out.witness)
        record(
            f"criterion 1 (C(2,6) lower-bound mode >= 90): "
            f"{'PASS' if ok else 'FAIL'} (reached {out.max_length})"
        )
        assert ok


class TestCriterion2TableS:
    def test_required_cells(self, record):
        cells = [("S", 1, 0, 1)] + [("S", 1, t, 3 * t - 1) for t in range(1, 5)]
        cells += [("S", 2, 0, 2), ("S", 2, 1, 4), ("S", 2, 2, 12),
                  ("S", 3, 1, 9), ("S", 4, 1, 31)]
        failures, slowest = run_cells(cells, 120)
        record(
            f"criterion 2 (table S required cells, exact, <120s): "
            f"{'FAIL ' + '; '.join(failures) if failures else f'PASS ({len(cells)} cells, slowest {slowest:.1f}s)'}"
        )
        assert not failures

    @pytest.mark.stretch
    def test_stretch_s23(self, record):
        failures, slowest = run_cells([("S", 2, 3, 47)], 600)
        record(
            f"criterion 2 stretch (S(2,3)=47 exact): "
            f"{'FAIL ' + '; '.join(failures) if failures else f'PASS ({slowest:.1f}s)'}"
        )
        assert not failures

    def test_s32_lower_bound_mode(self, record):
        problem = SearchProblem(ProblemKind.SPLIT_OVERLAP, 3, 2)
        out = frontier_lower_bound(problem, SearchBudget(nodes=2_000_000))
        ok = out.max_length >= 80 and verify_witness(problem, out.witness)
        record(
            f"criterion 2 (S(3,2) lower-bound mode >= 80): "
            f"{'PASS' if ok else 'FAIL'} (reached {out.max_length})"
        )
        assert ok


class TestCriterion3TableR:
    def test_required_cells(self, record):
        cells = [("R", 2, 1, 4), ("R", 2, 2, 15), ("R", 3, 1, 9), ("R", 4, 1, 30)]
        failures, slowest = run_cells(cells, 120)
        record(
            f"criterion 3 (table R required cells, exact, <120s): "
            f"{'FAIL ' + '; '.join(failures) if failures else f'PASS ({len(cells)} cells, slowest {slowest:.1f}s)'}"
        )
        assert not failures

    @pytest.mark.stretch
    def test_stretch_r23(self, record):
        failures, slowest = run_cells([("R", 2, 3, 46)], 600)
        record(
            f"criterion 3 stretch (R(2,3)=46 exact): "
            f"{'FAIL ' + '; '.join(failures) if failures else f'PASS ({slowest:.1f}s)'}"
        )
        assert not failures

    @pytest.mark.stretch
    def test_r24_lower_bound_mode(self, record):
        problem = SearchProblem(ProblemKind.REVERSED_SPLIT_OVERLAP, 2, 4)
        out = frontier_lower_bound(problem, SearchBudget(nodes=3_000_000))
        ok = out.max_length >= 150 and verify_witness(problem, out.witness)
        record(
            f"criterion 3 (R(2,4) lower-bound mode >= 150): "
            f"{'PASS' if ok else 'FAIL'} (reached {out.max_length})"
        )
        assert ok


# cells whose exact search is too large for the acceptance budget; their
# known witnesses are still validated
_NO_SEARCH = {("C", 2, 6)}
_STRETCH_SEARCH = {("C", 2, 5), ("S", 2, 3), ("R", 2, 3)}


class TestCriterion4Witnesses:
    def test_known_witnesses_validate(self, record):
        failures = []
        checked = 0
        for cell in load_known_cells():
            if cell.witness is None:
                continue
            w = cell.witness_word()
            problem = SearchProblem(ProblemKind(cell.table), cell.k, cell.param)
            if len(w) != cell.value:
                failures.append(f"{cell.table}({cell.k},{cell.param}) length")
            if not verify_witness(problem, w):
                failures.append(f"{cell.table}({cell.k},{cell.param}) invalid")
            checked += 1
        record(
            f"criterion 4 (known witness words parse, length, validity): "
            f"{'FAIL ' + '; '.join(failures) if failures else f'PASS ({checked} words)'}"
        )
        assert not failures

    def test_lower_bound_witnesses_pass_detectors(self, record):
        # a >= cell's word comes from a budgeted search, and above 100
        # letters verify_witness replays it through the engine that found
        # it; the detectors share no code with the engines. EMPTY_OK bars
        # every split that GAP_REQUIRED bars, so one run covers both
        split_finder = {"S": find_split_t_overlap, "R": find_reversed_split_t_overlap}
        failures = []
        checked = 0
        for cell in load_known_cells():
            if cell.witness is None or cell.relation != ">=":
                continue
            w = cell.witness_word()
            name = f"{cell.table}({cell.k},{cell.param})"
            if len(w) != cell.value:
                failures.append(f"{name} length")
            if cell.table == "C":
                clean = find_disjoint_pair(w, cell.param) is None
            else:
                clean = (
                    find_t_overlap_factor(w, cell.param) is None
                    and split_finder[cell.table](w, cell.param, GapConvention.EMPTY_OK)
                    is None
                )
            if not clean:
                failures.append(f"{name} violation")
            checked += 1
        record(
            f"criterion 4 (>= witness words pass the detectors): "
            f"{'FAIL ' + '; '.join(failures) if failures else f'PASS ({checked} words)'}"
        )
        assert not failures and checked

    def test_search_reproduces_lex_least_witnesses(self, record, pytestconfig):
        failures = []
        checked = 0
        skipped = []
        stretch_on = "not stretch" not in pytestconfig.getoption("-m")
        for cell in load_known_cells():
            if cell.witness is None or cell.relation != "=":
                continue
            key = (cell.table, cell.k, cell.param)
            if key in _NO_SEARCH:
                skipped.append(key)
                continue
            if key in _STRETCH_SEARCH and not stretch_on:
                skipped.append(key)
                continue
            out, _ = exact_search(*key)
            if not cell.lex_least:
                # validity-only cell: value must still match
                if out.max_length != cell.value:
                    failures.append(f"{key} value")
                continue
            if format_word(out.witness) != cell.witness:
                failures.append(f"{key} witness mismatch")
            checked += 1
        note = f" (skipped: {sorted(skipped)})" if skipped else ""
        record(
            f"criterion 4 (search lex-least witness equals known word): "
            f"{'FAIL ' + '; '.join(failures) if failures else f'PASS ({checked} cells)'}{note}"
        )
        assert not failures


class TestCriterion5Constructions:
    def test_closure(self, record):
        failures = []
        slowest = 0.0
        for k in range(2, 6):
            t0 = time.monotonic()
            w2 = construct_c2_lower(k)
            w3 = construct_c3_lower(k)
            elapsed = time.monotonic() - t0
            slowest = max(slowest, elapsed)
            if len(w2) != theorem_sum_bound(k, 2) or len(w2) != k * k + k + 1:
                failures.append(f"c2(k={k}) length")
            if len(w3) != theorem_sum_bound(k, 3) or len(w3) != k ** 3 + k * k + k + 2:
                failures.append(f"c3(k={k}) length")
            if find_disjoint_pair(w2, 2) is not None:
                failures.append(f"c2(k={k}) disjoint pair")
            if find_disjoint_pair(w3, 3) is not None:
                failures.append(f"c3(k={k}) disjoint pair")
            if elapsed > 10:
                failures.append(f"k={k} took {elapsed:.0f}s")
        record(
            f"criterion 5 (construction lengths meet period-sum bound, k=2..5): "
            f"{'FAIL ' + '; '.join(failures) if failures else f'PASS (slowest {slowest:.2f}s)'}"
        )
        assert not failures


class TestCriterion6DeBruijn:
    def test_order3_special(self, record):
        failures = []
        slowest = 0.0
        for k in range(2, 7):
            t0 = time.monotonic()
            w = debruijn_order3_special(k)
            elapsed = time.monotonic() - t0
            slowest = max(slowest, elapsed)
            syms = list(w.symbols)
            wins = [tuple(syms[i : i + 3]) for i in range(len(syms) - 2)]
            if len(set(wins)) != k ** 3 or len(wins) != k ** 3:
                failures.append(f"k={k} census")
            for a in range(k):
                for b in range(a + 1, k):
                    pats = ([a, b, a, b], [b, a, b, a])
                    if not any(
                        syms[i : i + 4] in pats for i in range(len(syms) - 3)
                    ):
                        failures.append(f"k={k} pair {a},{b}")
            if elapsed > 5:
                failures.append(f"k={k} took {elapsed:.1f}s")
        record(
            f"criterion 6 (special order-3 de Bruijn words, k=2..6): "
            f"{'FAIL ' + '; '.join(failures) if failures else f'PASS (slowest {slowest:.2f}s)'}"
        )
        assert not failures


class TestCriterion7Counting:
    def test_identities(self, record):
        failures = []
        for k in (2, 3):
            for n in range(1, 9):
                census = period_census(k, n)
                for p in range(1, n // 2 + 2):
                    if census.get(p, 0) != primitive_count(k, p):
                        failures.append(f"census({k},{n})[{p}]")
                if census.get(n, 0) != unbordered_count(k, n):
                    failures.append(f"census({k},{n})[{n}]")
        for k in (2, 3):
            for n in range(1, 11):
                brute = sum(
                    1
                    for syms in oracles.all_words(k, n)
                    if oracles.is_unbordered(syms)
                )
                if unbordered_count(k, n) != brute:
                    failures.append(f"unbordered({k},{n})")
        for k in (2, 3, 4, 5):
            poly = k ** 12 - k ** 11 - k ** 10 + k ** 6 + k ** 5 - k ** 2
            if unbordered_count(k, 12) != poly:
                failures.append(f"u_{k}(12)")
            for n in range(1, 13):
                if unbordered_count(k, n) * k * k < k ** n * (k * k - k - 1):
                    failures.append(f"u_{k}({n}) fraction bound")
        record(
            f"criterion 7 (counting identities): "
            f"{'FAIL ' + '; '.join(failures[:5]) if failures else 'PASS'}"
        )
        assert not failures


class TestCriterion8OccurrenceCap:
    def test_cap_and_witness(self, record):
        failures = []
        caps = {}
        for n in range(1, 5):
            for xs in oracles.all_words(2, n):
                caps[xs] = -(-n // oracles.period(xs))
        for ws in oracles.all_words_upto(2, 12):
            total = len(ws)
            for n in range(1, 5):
                if n > total:
                    break
                counts, firsts, disjoint = {}, {}, set()
                for i in range(total - n + 1):
                    f = ws[i : i + n]
                    counts[f] = counts.get(f, 0) + 1
                    if f not in firsts:
                        firsts[f] = i
                    elif i - firsts[f] >= n:
                        disjoint.add(f)
                for f, c in counts.items():
                    if f not in disjoint and c > caps[f]:
                        failures.append(f"cap exceeded: {ws} {f}")
        for n in range(1, 7):
            for xs in oracles.all_words(2, n):
                x = word(xs, 2)
                cap = max_nondisjoint_cap(x)
                w = occurrence_witness(x)
                if count_nondisjoint_occurrences(w, x) != cap:
                    failures.append(f"witness count: {xs}")
                pos = occurrences(w, x)
                if any(q - p >= n for p, q in zip(pos, pos[1:])):
                    failures.append(f"witness disjoint: {xs}")
        record(
            f"criterion 8 (occurrence-cap lemma, exhaustive): "
            f"{'FAIL ' + '; '.join(failures[:5]) if failures else 'PASS'}"
        )
        assert not failures


class TestCriterion9Detectors:
    def test_oracle_equivalence_up_to_12(self, record):
        failures = []
        for syms in oracles.all_words_upto(2, 12):
            w = word(syms, 2)
            for t in range(4):
                got = find_t_overlap_factor(w, t)
                want = oracles.find_t_overlap_factor(syms, t)
                if (got is None) != (want is None) or (
                    got is not None and (got.x_span[0], got.x_span[1]) != want
                ):
                    failures.append(f"factor {syms} t={t}")
                got = find_split_t_overlap(w, t)
                want = oracles.find_split(syms, t)
                if (got is None) != (want is None) or (
                    got is not None and (*got.x_span, *got.z_span) != want
                ):
                    failures.append(f"split {syms} t={t}")
                got = find_reversed_split_t_overlap(w, t)
                want = oracles.find_reversed_split(syms, t)
                if (got is None) != (want is None) or (
                    got is not None and (*got.x_span, *got.z_span) != want
                ):
                    failures.append(f"reversed {syms} t={t}")
            for n in range(1, 4):
                got = find_disjoint_pair(w, n)
                want = oracles.find_disjoint(syms, n)
                if (got is None) != (want is None) or (
                    got is not None and (got.x_span[0], got.z_span[0]) != want
                ):
                    failures.append(f"disjoint {syms} n={n}")
            if failures:
                break
        record(
            f"criterion 9 (detector oracle equivalence, binary <=12, t<=3, n<=3): "
            f"{'FAIL ' + '; '.join(failures[:3]) if failures else 'PASS'}"
        )
        assert not failures

    def test_extend_check_random_events(self, record):
        rng = random.Random(1234)
        problems = [
            SearchProblem(ProblemKind.DISJOINT_FACTORS, 2, 2),
            SearchProblem(ProblemKind.DISJOINT_FACTORS, 2, 3),
            SearchProblem(ProblemKind.DISJOINT_FACTORS, 3, 2),
            SearchProblem(ProblemKind.SPLIT_OVERLAP, 2, 1),
            SearchProblem(ProblemKind.SPLIT_OVERLAP, 2, 2),
            SearchProblem(ProblemKind.SPLIT_OVERLAP, 3, 1),
            SearchProblem(ProblemKind.REVERSED_SPLIT_OVERLAP, 2, 1),
            SearchProblem(ProblemKind.REVERSED_SPLIT_OVERLAP, 2, 2),
            SearchProblem(ProblemKind.REVERSED_SPLIT_OVERLAP, 3, 1),
        ]
        events = 0
        mismatches = 0
        while events < 100_000:
            problem = rng.choice(problems)
            state = SearchState(problem)
            while events < 100_000:
                a = rng.randrange(problem.k)
                ok = extend_check(state, a)
                extended = Word(tuple(state.word) + (a,), problem.k)
                if ok != verify_witness(problem, extended):
                    mismatches += 1
                events += 1
                if not ok or len(state.word) > 14:
                    break
                state.push(a)
        record(
            f"criterion 9 (extend_check vs full detection, {events} events): "
            f"{'PASS' if mismatches == 0 else f'FAIL ({mismatches} mismatches)'}"
        )
        assert mismatches == 0


class TestCriterion10Calibration:
    def test_adopted_convention_reproduces_tables(self, record, reports):
        cells = [("S", 1, 4), ("S", 2, 12), ("R", 1, 4), ("R", 2, 15)]
        lines = []
        failures = []
        for convention in GapConvention:
            for kind, t, want in cells:
                problem = SearchProblem(ProblemKind(kind), 2, t, convention=convention)
                got = longest_avoiding(problem).max_length
                lines.append(f"{kind}(2,{t}) {convention.value}: {got} want {want}")
                if convention is GapConvention.EMPTY_OK and got != want:
                    failures.append(f"{kind}(2,{t})={got}")
        artifact = reports / "calibration_report.txt"
        header = [
            "convention calibration: S(2,1)=4 S(2,2)=12 R(2,1)=4 R(2,2)=15",
            "adopted: empty-ok (contiguous t-overlap factors always violate)",
            "",
        ]
        artifact.write_text("\n".join(header + lines) + "\n")
        record(
            f"criterion 10 (convention calibration S/R(2,1..2)): "
            f"{'FAIL ' + '; '.join(failures) if failures else 'PASS (report in calibration_report.txt)'}"
        )
        assert not failures


class TestCriterion11Determinism:
    def test_c24_reports_identical_across_workers(self, record, capsys):
        reports = []
        for threads in ("1", "8"):
            code = cli_main(
                ["search", "C", "--k", "2", "--n", "4", "--json",
                 "--threads", threads]
            )
            assert code == 0
            data = json.loads(capsys.readouterr().out)
            data["elapsed"] = None
            data["params"]["threads"] = None
            reports.append(json.dumps(data, sort_keys=True))
        ok = reports[0] == reports[1]
        record(
            f"criterion 11 (C(2,4) search: 1 vs 8 workers, identical reports "
            f"modulo elapsed): {'PASS' if ok else 'FAIL'}"
        )
        assert ok
