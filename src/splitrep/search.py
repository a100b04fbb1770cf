"""Exhaustive extremal searches for the longest words avoiding a repetition kind.

Three problem kinds: no two disjoint occurrences of a length-n factor
(the quantity C(k,n)), no split occurrence of a t-overlap (S(k,t)), and
no reversed split occurrence (R(k,t)). Every search runs one walk,
_walk, which drives the problem's engine directly: depth-first through
the k-ary extension tree with canonical symmetry breaking (first
occurrences of letters in increasing order), the engine's incremental
suffix-anchored checks asked once per node, a node budget and a
deadline. Each search supplies its policy through three hooks: visit(),
called after every accepted letter, says whether to descend, back up or
stop; fill(count), when given, supplies a frame's letters and their
verdict tokens the first time the walk visits it; save(nodes), when
given, is called every CHECKPOINT_EVERY nodes of the run.

- _dfs keeps the best word, stops with an exact result when a word
  reaches a certified upper bound, and prunes by reachability. It runs
  the tasks of longest_avoiding, and the lex frontier, which resumes it
  from a checkpointed prefix;
- _enumerate_prefixes records the words of the split depth;
- _frontier_restarts dives below random cuts of the incumbent. Its
  fill() shuffles the letters, and on a split kind takes the tokens from
  the run's own verdict cache, an LRU of at most _MEMO_WORDS (1024)
  words, which also serves its moves between dives. The cache moves no
  node count, reach or witness.

Determinism: letters are tried in increasing order, so the first word
found at any length is the lexicographically least; node budgets are
counted in extension attempts, and a budget of N tries exactly N. A
search is split at a fixed depth into independent subtree tasks, run in
turn or on a process pool of at most one worker per task. The tasks, their
budgets and the merge depend on the problem alone and results are read in
task order, so any worker count reports the same outcome. A task reaching a
certified cap ends the search; SearchBudget.seconds caps the whole search.
"""

from __future__ import annotations

import contextlib
import enum
import os
import random
import time
from dataclasses import dataclass, field
from functools import lru_cache

from . import counting
from .detect import (
    GapConvention,
    find_disjoint_pair,
    find_reversed_split_t_overlap,
    find_split_t_overlap,
    find_t_overlap_factor,
)
from .engines import MAX_SPLIT_K, DisjointFactorEngine, SplitOverlapEngine
from .words import Word, format_word, parse_word

# above this length verify_witness trades the quartic independent detectors
# for the incremental scanner (split/reversed kinds only)
_VERIFY_BRUTE_FORCE_LIMIT = 100

_TARGET_TASKS = 48
_MAX_SPLIT_DEPTH = 12

# words whose verdict tokens a restarts run keeps, least recently used dropped
_MEMO_WORDS = 1024


class ProblemKind(enum.Enum):
    DISJOINT_FACTORS = "C"
    SPLIT_OVERLAP = "S"
    REVERSED_SPLIT_OVERLAP = "R"


class SearchStatus(enum.Enum):
    EXACT = "exact"
    LOWER_BOUND = "lower-bound"


@dataclass(frozen=True)
class SearchProblem:
    """An avoidance property: kind, alphabet size, and the n or t parameter."""

    kind: ProblemKind
    k: int
    param: int
    convention: GapConvention = GapConvention.EMPTY_OK

    def __post_init__(self):
        if self.k < 1:
            raise ValueError(f"alphabet size must be >= 1, got {self.k}")
        if self.kind is ProblemKind.DISJOINT_FACTORS:
            if self.param < 1:
                raise ValueError("factor length must be >= 1")
        elif self.param < 0:
            raise ValueError("t must be >= 0")
        elif self.k > MAX_SPLIT_K:  # the split engine's letters are chr() values
            raise ValueError(f"alphabet size must be <= {MAX_SPLIT_K}, got {self.k}")

    def engine(self):
        if self.kind is ProblemKind.DISJOINT_FACTORS:
            return DisjointFactorEngine(self.k, self.param)
        return SplitOverlapEngine(
            self.k,
            self.param,
            convention=self.convention,
            reversed_mode=self.kind is ProblemKind.REVERSED_SPLIT_OVERLAP,
        )

    def describe(self) -> str:
        return f"{self.kind.value}(k={self.k}, {self.param_name}={self.param})"

    @property
    def param_name(self) -> str:
        return "n" if self.kind is ProblemKind.DISJOINT_FACTORS else "t"


@dataclass(frozen=True)
class SearchBudget:
    """Limits for one search. nodes is the per-task extension-attempt cap."""

    nodes: int | None = None
    seconds: float | None = None    # whole-search wall clock; no Exact status if hit
    split_depth: int | None = None  # None: choose from the problem; 0: single task
    workers: int = 1

    def __post_init__(self):
        if self.nodes is not None and self.nodes < 0:
            raise ValueError(f"node budget must be >= 0, got {self.nodes}")
        if self.seconds is not None and not self.seconds >= 0:  # NaN too
            raise ValueError(f"seconds must be >= 0, got {self.seconds}")
        if self.split_depth is not None and self.split_depth < 0:
            raise ValueError(f"split depth must be >= 0, got {self.split_depth}")
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")

    def describe(self) -> str:
        parts = []
        if self.nodes is not None:
            parts.append(f"nodes<={self.nodes}")
        if self.seconds is not None:
            parts.append(f"seconds<={self.seconds}")
        return ", ".join(parts) if parts else "unbounded"


@dataclass(frozen=True)
class SearchOutcome:
    max_length: int
    status: SearchStatus
    witnesses: tuple[Word, ...]
    nodes_explored: int
    elapsed: float
    budget_used: str

    @property
    def witness(self) -> Word | None:
        return self.witnesses[0] if self.witnesses else None


class SearchState:
    """The public single-letter interface to a problem's engine; the
    searches drive the engine itself, through _walk."""

    def __init__(self, problem: SearchProblem):
        self.problem = problem
        self.engine = problem.engine()

    @property
    def word(self) -> list[int]:
        return self.engine.word

    def can_extend(self, letter: int) -> bool:
        return self.engine.can_extend(letter)

    def push(self, letter: int) -> bool:
        return self.engine.try_push(letter)

    def pop(self) -> None:
        self.engine.pop()


def extend_check(state: SearchState, letter: int) -> bool:
    """True iff appending letter introduces no violation (state unchanged)."""
    return state.can_extend(letter)


# what a walk's visit() asks for after each accepted letter
_DESCEND, _BACK, _STOP = 0, 1, 2


def _walk(
    engine,
    visit,
    *,
    max_nodes: int | None = None,
    deadline: float | None = None,
    clock: int = 0,
    resume: bool = False,
    fill=None,
    save=None,
) -> tuple[int, str]:
    """The depth-first walk below the engine's word that every search runs.

    A frame per depth holds [letters, tokens, next index, letter count].
    The walk owns the canonical-letter rule: a frame's count is its
    parent's, plus one when the letter taken was the parent's last, capped
    at k; the frames the walk starts with get theirs from the engine's
    word. With resume, the walk goes on as if it had come to the engine's
    word from the empty word: it starts with a frame per letter of the
    word, that letter's smaller siblings done. A frame's letters and their
    engine verdicts are filled in when it is first visited: the first count
    letters in increasing order, or whatever fill(count) returns as
    (letters, tokens), tokens[i] being letters[i]'s verdict. Each letter
    tried is one node: a budget of max_nodes tries exactly that many. The
    deadline is tested every 4096 nodes of the caller's running count,
    clock + nodes, and save(clock + nodes) is called each time that count
    reaches a multiple of CHECKPOINT_EVERY. After each accepted letter,
    visit() returns _DESCEND, _BACK (undo the letter) or _STOP.

    Returns the nodes tried and why the walk ended: "exhausted", "budget",
    "deadline" or "stopped". The engine is left where the walk ended.
    """
    k = engine.k
    verdicts, commit, pop = engine.verdicts, engine.commit, engine.pop
    descend, back = _DESCEND, _BACK
    if max_nodes is None:
        max_nodes = -1  # never equal to the count
    word = engine.word
    frames = []
    if resume:
        for i, a in enumerate(word):
            frames.append([None, None, a + 1, min(max(word[:i], default=-1) + 2, k)])
    frames.append([None, None, 0, min(max(word, default=-1) + 2, k)])
    nodes = 0
    while frames:
        frame = frames[-1]
        letters, tokens, i, count = frame
        if letters is None:
            if fill is None:
                letters = range(count)
                tokens = verdicts(letters)
            else:
                letters, tokens = fill(count)
            frame[0], frame[1] = letters, tokens
        if i >= len(letters):
            frames.pop()
            if frames:
                pop()
            continue
        if nodes == max_nodes:
            return nodes, "budget"
        if (
            deadline is not None
            and (clock + nodes) % 4096 == 0
            and time.monotonic() > deadline
        ):
            return nodes, "deadline"
        frame[2] = i + 1
        nodes += 1
        if save is not None and (clock + nodes) % CHECKPOINT_EVERY == 0:
            save(clock + nodes)
        token = tokens[i]
        if token is not None:
            a = letters[i]
            commit(a, token)
            action = visit()
            if action == descend:
                grow = a == count - 1 and count < k
                frames.append([None, None, 0, count + 1 if grow else count])
            elif action == back:
                pop()
            else:
                return nodes, "stopped"
    return nodes, "exhausted"


@dataclass
class _TaskResult:
    best: list[int]
    nodes: int
    exhausted: bool
    cap_hit: bool
    all_best: list[list[int]] = field(default_factory=list)


def _dfs(
    engine,
    *,
    max_nodes: int | None,
    cap: int | None,
    deadline: float | None,
    collect_all: bool = False,
    achievable_cap: bool = False,
    best: list[int] | None = None,
    resume: bool = False,
    save=None,
) -> _TaskResult:
    """Depth-first walk below the engine's word, letters in increasing order.

    Starts with best = the incumbent, else the engine's word. cap is a
    certified upper bound: the first word reaching it ends the walk
    (unless collect_all). When a matching lower-bound certificate exists
    (achievable_cap), branches that cannot reach the cap are pruned
    outright; otherwise pruning is against the best length found so far.
    When collect_all, the result also lists every maximal-length word
    seen. resume goes on with a walk that has reached the engine's word
    (see _walk), and save(best, word, nodes) is called every
    CHECKPOINT_EVERY nodes.
    """
    word = engine.word
    if best is None:
        best = word.copy()
    all_best: list[list[int]] = [word.copy()] if collect_all else []
    # reachability pruning loses tied maxima, which only matters to collect_all
    bound_fn = (
        engine.max_reachable_length
        if not collect_all and hasattr(engine, "max_reachable_length")
        else None
    )
    floor = cap - 1 if (achievable_cap and cap is not None) else None

    def visit():
        nonlocal best, all_best
        depth = len(word)
        if depth > len(best):
            best = word.copy()
            if collect_all:
                all_best = [word.copy()]
            elif cap is not None and depth >= cap:
                return _STOP
        elif collect_all and depth == len(best):
            all_best.append(word.copy())
        if bound_fn is not None and bound_fn() <= (
            len(best) if floor is None else floor
        ):
            return _BACK
        return _DESCEND

    nodes, why = _walk(
        engine, visit, max_nodes=max_nodes, deadline=deadline, resume=resume,
        save=save and (lambda nodes: save(best, word, nodes)),
    )
    return _TaskResult(best, nodes, why == "exhausted", why == "stopped", all_best)


def _replay(problem: SearchProblem, prefix: list[int]):
    engine = problem.engine()
    _move_to(engine, prefix)
    return engine


def _move_to(engine, target: list[int], tokens_of=None) -> None:
    """Pop the engine back to its longest common prefix with target, then
    push the rest of target: the engine _replay(target) builds, without
    redoing the shared prefix. With tokens_of, a restarts run's verdict
    cache (see _frontier_restarts), each push commits its word's cached
    token instead of checking again."""
    word = engine.word
    common = 0
    for a, b in zip(word, target):
        if a != b:
            break
        common += 1
    while len(word) > common:
        engine.pop()
    for a in target[common:]:
        tokens = None if tokens_of is None else tokens_of(engine.text)
        if tokens is None or a >= len(tokens):  # a seed need not be canonical
            if engine.try_push(a):
                continue
        elif tokens[a] is not None:
            engine.commit(a, tokens[a])
            continue
        raise ValueError(f"prefix is not violation-free: {target}")


def _enumerate_prefixes(
    problem: SearchProblem, depth: int
) -> tuple[list[list[int]], int, list[int]]:
    """All canonical violation-free words of exactly the given length, in
    lexicographic order, plus attempts spent and the longest word seen."""
    engine = problem.engine()
    word = engine.word
    out: list[list[int]] = []
    best: list[int] = []

    def visit():
        nonlocal best
        if len(word) > len(best):
            best = word.copy()
        if len(word) == depth:
            out.append(word.copy())
            return _BACK
        return _DESCEND

    nodes, _ = _walk(engine, visit)
    return out, nodes, best


def _plan_tasks(problem: SearchProblem, split_depth: int | None = None):
    """Prefix tasks at split_depth (0: the empty word alone), or when it is
    None at the smallest depth giving a healthy task count.

    Returns (depth, prefixes, attempts spent, longest word seen); no
    prefixes when the whole tree is shallower than the depth. A function
    of the problem alone (never of the worker count), so reports are
    identical across pool sizes.
    """
    if split_depth == 0:
        return 0, [[]], 0, []
    depths = range(1, _MAX_SPLIT_DEPTH + 1) if split_depth is None else [split_depth]
    for depth in depths:
        prefixes, nodes, best = _enumerate_prefixes(problem, depth)
        if len(prefixes) >= _TARGET_TASKS or len(best) < depth:
            break
    return depth, prefixes, nodes, best


def _run_task(args) -> _TaskResult:
    # deadline is absolute on the system-wide monotonic clock, which forked
    # workers share
    problem, prefix, max_nodes, cap, deadline, achievable, collect_all = args
    return _dfs(
        _replay(problem, prefix), max_nodes=max_nodes, cap=cap,
        deadline=deadline, collect_all=collect_all, achievable_cap=achievable,
    )


def certified_cap(problem: SearchProblem) -> int | None:
    """A proven upper bound usable as an early-stop depth, if affordable.

    Only the exact S/R bounds (k when t = 0, 3t - 1 when k = 1) can stop a
    split-kind search; the others lie far above any length it reaches, so
    they are not computed.
    """
    k, param = problem.k, problem.param
    if problem.kind is not ProblemKind.DISJOINT_FACTORS:
        return counting.s_upper_bounds(k, param).best if param == 0 or k == 1 else None
    try:
        return counting.theorem_sum_bound(k, param)
    except counting.BudgetExceededError:
        return None


def _cap_achievable(problem: SearchProblem, cap: int) -> bool:
    """True when an explicit construction certifies a word of the cap length.

    Holds for disjoint-factor problems with n in {1, 2, 3} (single letters,
    and the two de Bruijn based constructions) and for unary alphabets.
    The certificate lets the search prune everything that cannot reach the
    cap while still reporting the lexicographically least cap-achiever.
    """
    if problem.kind is not ProblemKind.DISJOINT_FACTORS:
        return False
    k, n = problem.k, problem.param
    if k == 1:
        return cap == 2 * n - 1
    if n == 1:
        return cap == k
    from . import debruijn  # deferred: only needed for this certificate

    try:
        if n == 2:
            w = debruijn.construct_c2_lower(k)
        elif n == 3:
            w = debruijn.construct_c3_lower(k)
        else:
            return False
        return len(w) == cap and verify_witness(problem, w)
    except (ValueError, debruijn.ConstructionError):
        return False


def longest_avoiding(
    problem: SearchProblem,
    budget: SearchBudget = SearchBudget(),
    collect_all_witnesses: bool = False,
) -> SearchOutcome:
    """Length of the longest violation-free word, with the lex-least witness.

    Exact when the tree is exhausted or a certified upper bound is reached;
    LOWER_BOUND when a node or time budget stops the walk first.
    collect_all_witnesses gathers every maximal word (lex order) and forces
    full exhaustion; meant for small problems.
    """
    start = time.monotonic()
    deadline = start + budget.seconds if budget.seconds is not None else None
    if _out_of_time_for_periods(problem, deadline):
        return _merge(problem, budget, [_TaskResult([], 0, False, False)], 0, start)
    cap = None if collect_all_witnesses else certified_cap(problem)
    achievable = cap is not None and _cap_achievable(problem, cap)
    if _past(deadline):
        return _merge(problem, budget, [_TaskResult([], 0, False, False)], 0, start)
    _, prefixes, prefix_nodes, prefix_best = _plan_tasks(
        problem, 0 if collect_all_witnesses else budget.split_depth
    )
    if not prefixes:
        # the whole tree is shallower than the split depth
        result = _TaskResult(prefix_best, prefix_nodes, True, False)
        return _merge(problem, budget, [result], 0, start)
    if _past(deadline):
        # the planner's longest word is the lower bound; no task is run
        result = _TaskResult(prefix_best, 0, False, False)
        return _merge(problem, budget, [result], prefix_nodes, start)
    tasks = [
        (problem, p, budget.nodes, cap, deadline, achievable, collect_all_witnesses)
        for p in prefixes
    ]
    results: list[_TaskResult] = []
    with contextlib.ExitStack() as stack:
        run = map
        if budget.workers > 1 and len(tasks) > 1:
            from concurrent.futures import ProcessPoolExecutor  # loaded only for a pool
            pool = ProcessPoolExecutor(min(budget.workers, len(tasks)))
            # leaving drops the tasks not yet handed to a worker; the rest finish
            stack.callback(pool.shutdown, cancel_futures=True)
            run = pool.map
        for result in run(_run_task, tasks):  # in task order either way
            results.append(result)
            if result.cap_hit:
                break
    return _merge(problem, budget, results, prefix_nodes, start)


def _past(deadline: float | None) -> bool:
    return deadline is not None and time.monotonic() > deadline


def _out_of_time_for_periods(problem: SearchProblem, deadline: float | None) -> bool:
    """True when the deadline passes before the period table that every
    disjoint-factor engine reads is built; no engine can be built then."""
    return (
        problem.kind is ProblemKind.DISJOINT_FACTORS
        and counting.smallest_periods(problem.k, problem.param, deadline) is None
    )


def _merge(
    problem: SearchProblem,
    budget: SearchBudget,
    results: list[_TaskResult],
    prefix_nodes: int,
    start: float,
) -> SearchOutcome:
    nodes = prefix_nodes + sum(r.nodes for r in results)
    best = max((r.best for r in results), key=len)  # the first of the longest
    cap_hit = any(r.cap_hit for r in results)
    exhausted = all(r.exhausted for r in results)
    status = SearchStatus.EXACT if (cap_hit or exhausted) else SearchStatus.LOWER_BOUND
    # every maximal word, when the (single) task collected them
    all_best = [w for r in results for w in r.all_best]
    if all_best:
        witnesses = tuple(Word(tuple(w), problem.k) for w in sorted(all_best))
    else:
        witnesses = (Word(tuple(best), problem.k),)
    used = (
        "exhausted"
        if status is SearchStatus.EXACT
        else f"stopped ({budget.describe()})"
    )
    return SearchOutcome(
        max_length=len(best),
        status=status,
        witnesses=witnesses,
        nodes_explored=nodes,
        elapsed=time.monotonic() - start,
        budget_used=used,
    )


def verify_witness(problem: SearchProblem, w: Word) -> bool:
    """Re-check a word against the problem with the standalone detectors.

    A split-kind violation is a contiguous t-overlap factor or an x y z
    structure whose outer pieces assemble the t-overlap (see detect).
    Uses the independent (non-incremental) detectors; beyond the quartic
    detectors' practical range the incremental scanner stands in, for the
    split kinds only.
    """
    if problem.kind is ProblemKind.DISJOINT_FACTORS:
        return find_disjoint_pair(w, problem.param) is None
    if len(w) <= _VERIFY_BRUTE_FORCE_LIMIT:
        if find_t_overlap_factor(w, problem.param) is not None:
            return False
        if problem.kind is ProblemKind.SPLIT_OVERLAP:
            return find_split_t_overlap(w, problem.param, problem.convention) is None
        return (
            find_reversed_split_t_overlap(w, problem.param, problem.convention)
            is None
        )
    engine = problem.engine()
    return all(engine.try_push(a) for a in w.symbols)


# --- budgeted frontier search with checkpointing ---------------------------

CHECKPOINT_MAGIC = "splitrep-checkpoint-v2"
CHECKPOINT_EVERY = 1_000_000  # nodes between checkpoint writes within a run


@dataclass(frozen=True)
class Checkpoint:
    """Resumable single-task DFS position: problem, best so far, prefix,
    nodes, and the frontier settings a resume must repeat."""

    problem: SearchProblem
    budget_nodes: int | None
    best_len: int
    best: str
    prefix: str
    nodes: int
    strategy: str
    rng_seed: int
    dive_nodes: int
    tie_swap: float

    def settings(self) -> dict:
        return {
            "strategy": self.strategy,
            "rng_seed": self.rng_seed,
            "dive_nodes": self.dive_nodes,
            "tie_swap": self.tie_swap,
        }

    def render(self) -> str:
        p = self.problem
        lines = [
            CHECKPOINT_MAGIC,
            f"kind={p.kind.value}",
            f"k={p.k}",
            f"param={p.param}",
            f"convention={p.convention.value}",
            f"budget_nodes={'' if self.budget_nodes is None else self.budget_nodes}",
            f"best_len={self.best_len}",
            f"best={self.best}",
            f"prefix={self.prefix}",
            f"nodes={self.nodes}",
            *(f"{name}={value}" for name, value in self.settings().items()),
        ]
        return "\n".join(lines) + "\n"

    @staticmethod
    def parse(text: str) -> "Checkpoint":
        lines = text.splitlines()
        if not lines or lines[0] != CHECKPOINT_MAGIC:
            raise ValueError(f"not a {CHECKPOINT_MAGIC} file")
        fields = dict(line.split("=", 1) for line in lines[1:] if "=" in line)
        try:
            problem = SearchProblem(
                kind=ProblemKind(fields["kind"]),
                k=int(fields["k"]),
                param=int(fields["param"]),
                convention=GapConvention(fields["convention"]),
            )
            return Checkpoint(
                problem=problem,
                budget_nodes=(
                    int(fields["budget_nodes"]) if fields["budget_nodes"] else None
                ),
                best_len=int(fields["best_len"]),
                best=fields["best"],
                prefix=fields["prefix"],
                nodes=int(fields["nodes"]),
                strategy=fields["strategy"],
                rng_seed=int(fields["rng_seed"]),
                dive_nodes=int(fields["dive_nodes"]),
                tie_swap=float(fields["tie_swap"]),
            )
        except KeyError as exc:
            raise ValueError(f"checkpoint has no {exc.args[0]!r} field") from None


def frontier_lower_bound(
    problem: SearchProblem,
    budget: SearchBudget,
    seed: Word | None = None,
    strategy: str = "auto",
    rng_seed: int = 0,
    dive_nodes: int = 8_000,
    tie_swap: float = 0.3,
    checkpoint_path=None,
    resume: Checkpoint | None = None,
) -> SearchOutcome:
    """Best-effort longest word within a budget; always a LOWER_BOUND status.

    Two strategies: "lex" walks the tree depth-first in letter order
    (resumable from a checkpointed DFS prefix; with reachability pruning
    for the disjoint-factor kind); "restarts" repeatedly cuts the incumbent
    at a random depth and re-dives with shuffled letter order, which
    reaches much deeper on the split kinds. "auto" picks "lex" for
    disjoint factors and "restarts" otherwise. Both are deterministic
    given the budget and rng_seed. The node budget applies to this
    invocation; a resumed run gets a fresh budget while nodes_explored
    accumulates across runs. A checkpoint records the strategy, rng_seed,
    dive_nodes and tie_swap, and a resume with other values raises
    ValueError. A resumed restarts run seeds its RNG from rng_seed and the
    nodes already counted, so it is deterministic but does not repeat the
    dives of a run that was never stopped.
    """
    if strategy == "auto":
        strategy = (
            "lex" if problem.kind is ProblemKind.DISJOINT_FACTORS else "restarts"
        )
    if strategy not in ("lex", "restarts"):
        raise ValueError(f"unknown frontier strategy {strategy!r}")
    if dive_nodes < 1:
        raise ValueError(f"dive_nodes must be >= 1, got {dive_nodes}")
    if budget.workers != 1:
        raise ValueError(f"a frontier search runs on one worker, not {budget.workers}")
    if budget.split_depth is not None:
        raise ValueError("a frontier search runs one task: it takes no split depth")
    settings = {
        "strategy": strategy,
        "rng_seed": rng_seed,
        "dive_nodes": dive_nodes,
        "tie_swap": float(tie_swap),  # as a checkpoint reads it back
    }
    start = time.monotonic()
    deadline = start + budget.seconds if budget.seconds is not None else None
    if resume is not None:
        if resume.problem != problem:
            raise ValueError("checkpoint is for a different problem")
        for name, value in resume.settings().items():
            if value != settings[name]:
                raise ValueError(
                    f"checkpoint was written with {name}={value}, "
                    f"not {settings[name]}"
                )
        best = list(parse_word(resume.best, problem.k).symbols)
        base_nodes = resume.nodes
    else:
        best = list(seed.symbols) if seed is not None else []
        base_nodes = 0
    max_nodes = budget.nodes
    if max_nodes is None and strategy == "restarts":
        max_nodes = 1_000_000
    save = None
    if checkpoint_path is not None:

        def save(best, prefix, nodes):
            _write_checkpoint(
                checkpoint_path, problem, max_nodes, best, prefix,
                base_nodes + nodes, settings,
            )

    # a lex run resumes from the word where it stopped
    prefix = best
    if resume is not None and strategy == "lex":
        prefix = list(parse_word(resume.prefix, problem.k).symbols)
    if _out_of_time_for_periods(problem, deadline):
        # no engine, so no node; the start word is checked without one
        if not verify_witness(problem, Word(tuple(best), problem.k)):
            raise ValueError(f"prefix is not violation-free: {best}")
        nodes = 0
    elif strategy == "lex":
        # replaying best checks it, a resumed one too
        engine = _replay(problem, best)
        _move_to(engine, prefix)
        # walk the tree in letter order as if the walk had reached prefix
        result = _dfs(
            engine, max_nodes=max_nodes, cap=None, deadline=deadline, best=best,
            resume=True, save=save,
        )
        best, nodes = result.best, result.nodes
        prefix = engine.word
    else:
        # one live engine for every dive: each dive pops back to its common
        # prefix with the cut incumbent instead of replaying the cut
        engine = _replay(problem, best)
        rng = random.Random(rng_seed * 1_000_003 + base_nodes)
        best, nodes = _frontier_restarts(
            engine, best, max_nodes, deadline, save, rng, dive_nodes, tie_swap,
        )
        prefix = best
    if save is not None:
        save(best, prefix, nodes)
    return SearchOutcome(
        max_length=len(best),
        status=SearchStatus.LOWER_BOUND,
        witnesses=(Word(tuple(best), problem.k),),
        nodes_explored=base_nodes + nodes,
        elapsed=time.monotonic() - start,
        budget_used=f"stopped ({budget.describe()})",
    )


def _frontier_restarts(
    engine, best, max_nodes, deadline, save, rng, dive_nodes, tie_swap
):
    """Randomized dives below random cuts of the incumbent, deepest-biased.

    Each dive is a walk of at most dive_nodes nodes whose fill() shuffles
    each frame's letters. Sideways moves (tie_swap) sometimes replace the
    incumbent with an equal-length word, drifting across plateaus; the cut
    window widens while the best length stagnates.

    The dives and the moves between them come back to words they have
    checked, so on a split kind the run keeps a verdict cache: each word's
    tokens, for its canonical letter count, filed under the engine's text
    in an LRU of at most _MEMO_WORDS words. fill() and _move_to read it. A
    split engine's verdicts depend on the word alone (see engines), so the
    cache moves no node count, reach or witness. The disjoint-factor
    engine's verdicts cost one dict lookup per letter, no more than a cache
    lookup, so its runs are not cached.
    """
    word = engine.word
    k, verdicts = engine.k, engine.verdicts
    improved = False

    def visit():
        nonlocal best, improved
        if len(word) > len(best):
            best = word.copy()
            improved = True
        elif len(word) == len(best) and tie_swap and rng.random() < tie_swap:
            best = word.copy()
        return _DESCEND

    tokens_of = None
    if isinstance(engine, SplitOverlapEngine):

        @lru_cache(maxsize=_MEMO_WORDS)
        def tokens_of(text):
            # text is the key only: the engine stands at that word. The
            # count is the one _walk gives the word's frame
            return verdicts(range(min(max(word, default=-1) + 2, k)))

    def fill(count):
        tokens = verdicts(range(count)) if tokens_of is None else tokens_of(engine.text)
        letters = list(range(count))
        rng.shuffle(letters)
        return letters, [tokens[a] for a in letters]

    save_best = save and (lambda nodes: save(best, best, nodes))
    nodes = 0
    stale = 0  # dives since the incumbent last improved; widens the cut window
    while nodes < max_nodes:
        window = 40 + 20 * (stale // 64)
        if not best:
            cut = 0
        elif rng.random() < 0.8:
            cut = len(best) - rng.randrange(1, min(len(best), window) + 1)
        else:
            cut = rng.randrange(0, len(best) + 1)
        _move_to(engine, best[:cut], tokens_of)
        improved = False
        dive, why = _walk(
            engine, visit, max_nodes=min(dive_nodes, max_nodes - nodes),
            deadline=deadline, clock=nodes, fill=fill, save=save_best,
        )
        nodes += dive
        if why == "deadline":
            break
        stale = 0 if improved else stale + 1
    return best, nodes


def _write_checkpoint(path, problem, budget_nodes, best, prefix, nodes, settings):
    cp = Checkpoint(
        problem=problem,
        budget_nodes=budget_nodes,
        best_len=len(best),
        best=format_word(Word(tuple(best), problem.k)),
        prefix=format_word(Word(tuple(prefix), problem.k)),
        nodes=nodes,
        **settings,
    )
    # write-then-rename: a kill mid-write leaves the previous checkpoint intact
    tmp = f"{os.fspath(path)}.tmp"
    try:
        with open(tmp, "w") as fh:
            fh.write(cp.render())
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def load_checkpoint(path) -> Checkpoint:
    with open(path) as fh:
        return Checkpoint.parse(fh.read())
