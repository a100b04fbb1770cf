"""Per-layer probes: fixed inputs, timed from the benchmark's own code.

Every traced run makes the same probes, whatever the workload, so their
numbers compare across workloads and commits. Each probe times calls into
one module of the package:

  engines     try_push+pop and can_extend at depths 40/80/120 while
              replaying a stored long word, and the factor/threat index
              size at depth 120
  search      verify_witness at 50 and 100 letters
  detect      each finder on a violation-free word (accept: full scan) and
              on a planted copy (reject: early exit), at 50 and 100 letters
  counting    s_upper_bounds over a fixed list, period_census(2, 16)
  debruijn    order-3 special word and the C(k,3) construction at k=8
  words       border_array on a 2000-letter word
  knownvalues load_known_cells
  cli         main(["search", ...]) minus the same library call
"""

from __future__ import annotations

import contextlib
import io
import random
import statistics
import time

from splitrep import cli, counting, debruijn, detect, knownvalues, search, words
from splitrep.search import SearchBudget
from splitrep.words import Word

from tracer import Missing
from workloads import load_witnesses, problem_of

_clock = time.perf_counter


def _median_time(fn, reps: int) -> float:
    times = []
    for _ in range(reps):
        t0 = _clock()
        fn()
        times.append(_clock() - t0)
    return statistics.median(times)


# engine probes: (kind letter in the metric name, stored word key)
ENGINE_WORDS = [("C", ("C", 2, 7)), ("S", ("S", 4, 2)), ("R", ("R", 2, 4))]
DEPTHS = (40, 80, 120)


def _index_entries(engine):
    fdicts = getattr(engine, "fdicts", None)
    tdicts = getattr(engine, "tdicts", None)
    if fdicts is None or tdicts is None:
        return Missing("engine has no fdicts/tdicts")
    return sum(len(d) for d in fdicts) + sum(len(d) for d in tdicts)


def engine_probes(witnesses, reps: int) -> dict:
    out = {}
    for letter, key in ENGINE_WORDS:
        problem = problem_of(*key)
        symbols = witnesses[key].symbols
        for depth in DEPTHS:
            engine = problem.engine()
            for a in symbols[:depth]:
                if not engine.try_push(a):
                    raise RuntimeError(f"stored word for {key} rejected at replay")
            a = symbols[depth]

            def push_pop():
                engine.try_push(a)
                engine.pop()

            out[f"engines.push_us.{letter}.d{depth}"] = 1e6 * _median_time(push_pop, reps)
            out[f"engines.check_us.{letter}.d{depth}"] = 1e6 * _median_time(
                lambda: engine.can_extend(a), reps
            )
            if depth == 120 and letter != "C":
                out[f"engines.index_entries.{letter}.d120"] = _index_entries(engine)
    return out


# detect probes: finder short name -> (finder name, stored word key)
FINDERS = {
    "t_overlap": ("find_t_overlap_factor", ("R", 2, 4)),
    "split": ("find_split_t_overlap", ("S", 4, 2)),
    "reversed": ("find_reversed_split_t_overlap", ("R", 2, 4)),
    "disjoint": ("find_disjoint_pair", ("C", 2, 7)),
}


def plant(w: Word, kind: str, param: int, rng: random.Random, at: int) -> Word:
    """A copy of w (same length) with a violation of the kind written into it.

    C: a length-n factor copied to a disjoint later position. S/R: a random
    t-overlap r = u u u[:t] cut into nonempty pieces written a gap apart, in
    the order x..z with x.z = r (S) or z.x = r (R). The violation starts at
    `at`; the detectors scan by start position, so they exit part-way.
    """
    s = list(w.symbols)
    n = len(s)
    p = at
    if kind == "C":
        q = p + param + n // 8
        s[q : q + param] = s[p : p + param]
    else:
        m = max(param, 1) + 1
        u = [rng.randrange(w.k) for _ in range(m)]
        r = u + u + u[:param]
        a = rng.randrange(1, len(r))
        first, second = (r[:a], r[a:]) if kind == "S" else (r[a:], r[:a])
        q = p + len(first) + n // 8
        s[p : p + len(first)] = first
        s[q : q + len(second)] = second
    if len(s) != n:
        raise ValueError(f"a {kind} violation does not fit in {n} letters")
    return Word(tuple(s), w.k)


def _contiguous_plant(w: Word, t: int, rng: random.Random) -> Word:
    """w with a t-overlap u u u[:t] written a quarter of the way in."""
    s = list(w.symbols)
    u = [rng.randrange(w.k) for _ in range(max(t, 1) + 1)]
    r = u + u + u[:t]
    p = len(s) // 4
    s[p : p + len(r)] = r
    return Word(tuple(s), w.k)


def detect_probes(witnesses, lengths: dict[int, int], reps: int) -> dict:
    """lengths maps the length named in the metric to the length used."""
    out = {}
    rng = random.Random(0)
    for short, (fname, key) in FINDERS.items():
        finder = getattr(detect, fname)
        kind, k, param = key
        for label, length in lengths.items():
            good = Word(witnesses[key].symbols[:length], k)
            if short == "t_overlap":
                bad = _contiguous_plant(good, param, rng)
            else:
                bad = plant(good, kind, param, rng, at=length // 4)
            if finder(good, param) is not None or finder(bad, param) is None:
                raise RuntimeError(f"{fname} gave a wrong verdict at {length} letters")
            n = reps if label <= 50 else 1
            out[f"detect.{short}_ms.accept.L{label}"] = 1e3 * _median_time(
                lambda: finder(good, param), n
            )
            out[f"detect.{short}_ms.reject.L{label}"] = 1e3 * _median_time(
                lambda: finder(bad, param), n
            )
    return out


def verify_probes(witnesses, lengths: dict[int, int], reps: int) -> dict:
    out = {}
    problem = problem_of("R", 2, 4)
    for label, length in lengths.items():
        w = Word(witnesses[("R", 2, 4)].symbols[:length], 2)
        if not search.verify_witness(problem, w):
            raise RuntimeError("verify_witness rejected a stored word")
        n = reps if label <= 50 else 1
        out[f"search.verify_ms.L{label}"] = 1e3 * _median_time(
            lambda: search.verify_witness(problem, w), n
        )
    return out


def module_probes(witnesses, tiny: bool) -> dict:
    reps = 1 if tiny else 3
    out = {}
    pairs = [(2, 1), (2, 2)] if tiny else [(2, 1), (2, 2), (3, 1), (4, 1), (5, 1), (2, 3)]
    out["counting.s_upper_bounds_s"] = _median_time(
        lambda: [counting.s_upper_bounds(k, t) for k, t in pairs], reps
    )
    out["counting.period_census_s"] = _median_time(
        lambda: counting.period_census(2, 8 if tiny else 16), reps
    )
    kmax = 3 if tiny else 8
    out["debruijn.special_s.k8"] = _median_time(
        lambda: debruijn.debruijn_order3_special(kmax), 5
    )
    out["debruijn.c3_s.k8"] = _median_time(lambda: debruijn.construct_c3_lower(kmax), 5)
    symbols = (witnesses[("S", 4, 2)].symbols * 5)[:2000]
    long_word = Word(symbols, 4)
    out["words.border_array_us"] = 1e6 * _median_time(
        lambda: words.border_array(long_word), 5 if tiny else 50
    )
    out["knownvalues.load_s"] = _median_time(knownvalues.load_known_cells, 10)
    problem = problem_of("C", 2, 3 if tiny else 4)
    argv = ["search", "C", "--k", "2", "--n", str(problem.param), "--json"]

    def via_cli():
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        if code != 0:
            raise RuntimeError(f"cli search exited {code}")

    lib = _median_time(lambda: search.longest_avoiding(problem, SearchBudget()), reps + 2)
    out["cli.overhead_s"] = _median_time(via_cli, reps + 2) - lib
    return out


def run_all(tiny: bool) -> dict:
    witnesses = load_witnesses()
    lengths = {50: 24, 100: 32} if tiny else {50: 50, 100: 100}
    reps = 5 if tiny else 200
    out = {}
    out.update(engine_probes(witnesses, reps))
    out.update(verify_probes(witnesses, lengths, 1 if tiny else 3))
    out.update(detect_probes(witnesses, lengths, 1 if tiny else 3))
    out.update(module_probes(witnesses, tiny))
    return out
