"""Exhaustive extremal searches for the longest words avoiding a repetition kind.

Three problem kinds: no two disjoint occurrences of a length-n factor
(the quantity C(k,n)), no split occurrence of a t-overlap (S(k,t)), and
no reversed split occurrence (R(k,t)). The search is a depth-first walk
of the k-ary extension tree with canonical symmetry breaking (first
occurrences of letters in increasing order), incremental suffix-anchored
violation checks, and an optional certified depth cap: when a word
reaches a proven upper bound the search stops with an exact result.

Determinism: letters are tried in increasing order, so the first word
found at any length is the lexicographically least; node budgets are
counted in extension attempts. A search is split at a fixed depth into
independent subtree tasks executed by a worker pool; the task list, the
per-task budgets and the merge are functions of the problem alone, so
runs with different worker counts report identical outcomes.
"""

from __future__ import annotations

import contextlib
import enum
import multiprocessing
import os
import random
import time
from dataclasses import dataclass

from . import counting
from .detect import (
    GapConvention,
    find_disjoint_pair,
    find_reversed_split_t_overlap,
    find_split_t_overlap,
    find_t_overlap_factor,
)
from .engines import DisjointFactorEngine, SplitOverlapEngine
from .words import Word, format_word, parse_word

# above this length verify_witness trades the quartic independent detectors
# for the incremental scanner (split/reversed kinds only)
_VERIFY_BRUTE_FORCE_LIMIT = 100

_TARGET_TASKS = 48
_MAX_SPLIT_DEPTH = 12


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
    seconds: float | None = None    # wall-clock cap; when it fires, no Exact status
    split_depth: int | None = None  # None: choose from the problem; 0: single task
    workers: int = 1

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
    """DFS-facing wrapper pairing an engine with the canonical-letter rule."""

    def __init__(self, problem: SearchProblem):
        self.problem = problem
        self.engine = problem.engine()
        self.maxused = [-1]

    @property
    def word(self) -> list[int]:
        return self.engine.word

    def can_extend(self, letter: int) -> bool:
        return self.engine.can_extend(letter)

    def push(self, letter: int) -> bool:
        if self.engine.try_push(letter):
            self.maxused.append(max(self.maxused[-1], letter))
            return True
        return False

    def pop(self) -> None:
        self.engine.pop()
        self.maxused.pop()

    def to_word(self) -> Word:
        return Word(tuple(self.engine.word), self.problem.k)


def extend_check(state: SearchState, letter: int) -> bool:
    """True iff appending letter introduces no violation (state unchanged)."""
    return state.can_extend(letter)


@dataclass
class _TaskResult:
    best_len: int
    best: list[int]
    nodes: int
    exhausted: bool
    cap_hit: bool


def _dfs(
    state: SearchState,
    *,
    max_nodes: int | None,
    cap: int | None,
    deadline: float | None,
    collect_all: bool = False,
    achievable_cap: bool = False,
) -> tuple[_TaskResult, list[list[int]]]:
    """Depth-first walk below the current state, letters in increasing order.

    Starts with best = current word. cap is a certified upper bound: the
    first word reaching it ends the walk (unless collect_all). When a
    matching lower-bound certificate exists (achievable_cap), branches
    that cannot reach the cap are pruned outright; otherwise pruning is
    against the best length found so far. Returns the task result and,
    when collect_all, every maximal-length word seen.
    """
    engine = state.engine
    word = engine.word
    maxused = state.maxused
    k = state.problem.k
    base_depth = len(word)
    best_len = len(word)
    best = word.copy()
    all_best: list[list[int]] = [word.copy()] if collect_all else []
    nodes = 0
    next_letter = [0]
    exhausted = True
    cap_hit = False
    # reachability pruning loses tied maxima, which only matters to collect_all
    bound_fn = (
        engine.max_reachable_length
        if not collect_all and hasattr(engine, "max_reachable_length")
        else None
    )
    floor = cap - 1 if (achievable_cap and cap is not None) else None
    while next_letter:
        a = next_letter[-1]
        if a > min(maxused[-1] + 1, k - 1):
            next_letter.pop()
            if next_letter:
                state.pop()
            continue
        next_letter[-1] += 1
        nodes += 1
        if max_nodes is not None and nodes > max_nodes:
            nodes -= 1
            exhausted = False
            break
        if deadline is not None and nodes % 4096 == 0 and time.monotonic() > deadline:
            exhausted = False
            break
        if engine.try_push(a):
            maxused.append(max(maxused[-1], a))
            depth = len(word)
            if depth > best_len:
                best_len = depth
                best = word.copy()
                if collect_all:
                    all_best = [word.copy()]
                if cap is not None and best_len >= cap and not collect_all:
                    exhausted = False
                    cap_hit = True
                    break
            elif collect_all and depth == best_len:
                all_best.append(word.copy())
            if bound_fn is not None and bound_fn() <= (
                best_len if floor is None else floor
            ):
                state.pop()
            else:
                next_letter.append(0)
    while len(word) > base_depth:
        state.pop()
    return _TaskResult(best_len, best, nodes, exhausted, cap_hit), all_best


def _replay(problem: SearchProblem, prefix: list[int]) -> SearchState:
    state = SearchState(problem)
    _move_to(state, prefix)
    return state


def _move_to(state: SearchState, target: list[int]) -> None:
    """Pop state back to its longest common prefix with target, then push
    the rest of target: the state _replay(target) builds, without redoing
    the shared prefix."""
    word = state.engine.word
    common = 0
    for a, b in zip(word, target):
        if a != b:
            break
        common += 1
    while len(word) > common:
        state.pop()
    for a in target[common:]:
        if not state.push(a):
            raise ValueError(f"prefix is not violation-free: {target}")


def _enumerate_prefixes(
    problem: SearchProblem, depth: int
) -> tuple[list[list[int]], int, int, list[int]]:
    """All canonical violation-free words of exactly the given length, in
    lexicographic order, plus attempts spent and the longest word seen."""
    state = SearchState(problem)
    word = state.engine.word
    out: list[list[int]] = []
    nodes = 0
    best_len = 0
    best: list[int] = []
    next_letter = [0]
    while next_letter:
        a = next_letter[-1]
        if a > min(state.maxused[-1] + 1, problem.k - 1):
            next_letter.pop()
            if next_letter:
                state.pop()
            continue
        next_letter[-1] += 1
        nodes += 1
        if state.push(a):
            if len(word) > best_len:
                best_len = len(word)
                best = word.copy()
            if len(word) == depth:
                out.append(word.copy())
                state.pop()
            else:
                next_letter.append(0)
    return out, nodes, best_len, best


def _plan_tasks(problem: SearchProblem):
    """Prefix tasks at the smallest depth giving a healthy task count.

    A function of the problem alone (never of the worker count), so
    reports are identical across pool sizes.
    """
    for depth in range(1, _MAX_SPLIT_DEPTH + 1):
        prefixes, nodes, best_len, best = _enumerate_prefixes(problem, depth)
        if len(prefixes) >= _TARGET_TASKS or best_len < depth:
            return depth, prefixes, nodes, best_len, best
    return _MAX_SPLIT_DEPTH, prefixes, nodes, best_len, best


def _run_task(args) -> _TaskResult:
    problem, prefix, max_nodes, cap, time_left, achievable = args
    state = _replay(problem, prefix)
    deadline = time.monotonic() + time_left if time_left is not None else None
    result, _ = _dfs(
        state, max_nodes=max_nodes, cap=cap, deadline=deadline,
        achievable_cap=achievable,
    )
    return result


def certified_cap(problem: SearchProblem) -> int | None:
    """A proven upper bound usable as an early-stop depth, if affordable."""
    try:
        if problem.kind is ProblemKind.DISJOINT_FACTORS:
            return counting.theorem_sum_bound(problem.k, problem.param)
        return counting.s_upper_bounds(problem.k, problem.param).best
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
    cap = None if collect_all_witnesses else certified_cap(problem)
    achievable = cap is not None and _cap_achievable(problem, cap)
    split_depth = budget.split_depth
    if collect_all_witnesses:
        split_depth = 0
    if split_depth == 0:
        state = SearchState(problem)
        result, all_best = _dfs(
            state,
            max_nodes=budget.nodes,
            cap=cap,
            deadline=deadline,
            collect_all=collect_all_witnesses,
            achievable_cap=achievable,
        )
        return _merge(problem, budget, [result], 0, True, start, all_best)

    if split_depth is None:
        split_depth, prefixes, prefix_nodes, prefix_best_len, prefix_best = (
            _plan_tasks(problem)
        )
    else:
        prefixes, prefix_nodes, prefix_best_len, prefix_best = _enumerate_prefixes(
            problem, split_depth
        )
    if not prefixes:
        # the whole tree is shallower than the split depth
        result = _TaskResult(prefix_best_len, prefix_best, prefix_nodes, True, False)
        return _merge(problem, budget, [result], 0, True, start, [])
    tasks = [
        (
            problem,
            p,
            budget.nodes,
            cap,
            None if deadline is None else deadline - time.monotonic(),
            achievable,
        )
        for p in prefixes
    ]
    results: list[_TaskResult] = []
    if budget.workers > 1 and len(tasks) > 1:
        with multiprocessing.Pool(budget.workers) as pool:
            for result in pool.imap(_run_task, tasks):
                results.append(result)
                if result.cap_hit:
                    pool.terminate()
                    break
    else:
        for task in tasks:
            result = _run_task(task)
            results.append(result)
            if result.cap_hit:
                break
    return _merge(problem, budget, results, prefix_nodes, True, start, [])


def _merge(
    problem: SearchProblem,
    budget: SearchBudget,
    results: list[_TaskResult],
    prefix_nodes: int,
    prefixes_exhausted: bool,
    start: float,
    all_best: list[list[int]],
) -> SearchOutcome:
    nodes = prefix_nodes + sum(r.nodes for r in results)
    best_len = max(r.best_len for r in results)
    best = next(r.best for r in results if r.best_len == best_len)
    cap_hit = any(r.cap_hit for r in results)
    exhausted = all(r.exhausted or r.cap_hit for r in results) and prefixes_exhausted
    status = SearchStatus.EXACT if (cap_hit or exhausted) else SearchStatus.LOWER_BOUND
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
        max_length=best_len,
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

CHECKPOINT_MAGIC = "splitrep-checkpoint-v1"


@dataclass(frozen=True)
class Checkpoint:
    """Resumable single-task DFS position: problem, best so far, prefix, nodes."""

    problem: SearchProblem
    budget_nodes: int | None
    best_len: int
    best: str
    prefix: str
    nodes: int

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
        ]
        return "\n".join(lines) + "\n"

    @staticmethod
    def parse(text: str) -> "Checkpoint":
        lines = text.splitlines()
        if not lines or lines[0] != CHECKPOINT_MAGIC:
            raise ValueError("not a checkpoint file")
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
    checkpoint_every: int = 1_000_000,
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
    accumulates across runs.
    """
    if strategy == "auto":
        strategy = (
            "lex" if problem.kind is ProblemKind.DISJOINT_FACTORS else "restarts"
        )
    if strategy == "lex":
        return _frontier_lex(
            problem, budget, seed, checkpoint_path, checkpoint_every, resume
        )
    if strategy == "restarts":
        return _frontier_restarts(
            problem, budget, seed, rng_seed, dive_nodes, tie_swap,
            checkpoint_path, checkpoint_every, resume,
        )
    raise ValueError(f"unknown frontier strategy {strategy!r}")


def _frontier_lex(
    problem: SearchProblem,
    budget: SearchBudget,
    seed: Word | None,
    checkpoint_path,
    checkpoint_every: int,
    resume: Checkpoint | None,
) -> SearchOutcome:
    start = time.monotonic()
    deadline = start + budget.seconds if budget.seconds is not None else None
    if resume is not None:
        if resume.problem != problem:
            raise ValueError("checkpoint is for a different problem")
        prefix = parse_word(resume.prefix, problem.k)
        state = _replay(problem, list(prefix.symbols))
        base_nodes = resume.nodes
        best = list(parse_word(resume.best, problem.k).symbols)
        next_letter = [a + 1 for a in prefix.symbols] + [0]
    elif seed is not None:
        state = _replay(problem, list(seed.symbols))
        base_nodes = 0
        best = list(seed.symbols)
        next_letter = [a + 1 for a in seed.symbols] + [0]
    else:
        state = SearchState(problem)
        base_nodes = 0
        best = []
        next_letter = [0]

    engine = state.engine
    word = engine.word
    maxused = state.maxused
    k = problem.k
    best_len = max(len(best), len(word))
    nodes = 0
    max_nodes = budget.nodes
    last_checkpoint = 0
    bound_fn = getattr(engine, "max_reachable_length", None)
    while next_letter:
        a = next_letter[-1]
        if a > min(maxused[-1] + 1, k - 1):
            next_letter.pop()
            if next_letter:
                state.pop()
            continue
        next_letter[-1] += 1
        nodes += 1
        if max_nodes is not None and nodes > max_nodes:
            nodes -= 1
            break
        if deadline is not None and nodes % 4096 == 0 and time.monotonic() > deadline:
            break
        if checkpoint_path is not None and nodes - last_checkpoint >= checkpoint_every:
            last_checkpoint = nodes
            _write_checkpoint(
                checkpoint_path, problem, max_nodes, best_len, best, word,
                base_nodes + nodes,
            )
        if engine.try_push(a):
            maxused.append(max(maxused[-1], a))
            if len(word) > best_len:
                best_len = len(word)
                best = word.copy()
            if bound_fn is not None and bound_fn() <= best_len:
                state.pop()
            else:
                next_letter.append(0)
    if checkpoint_path is not None:
        _write_checkpoint(
            checkpoint_path, problem, max_nodes, best_len, best, word,
            base_nodes + nodes,
        )
    return SearchOutcome(
        max_length=best_len,
        status=SearchStatus.LOWER_BOUND,
        witnesses=(Word(tuple(best), k),),
        nodes_explored=base_nodes + nodes,
        elapsed=time.monotonic() - start,
        budget_used=f"stopped ({budget.describe()})",
    )


def _frontier_restarts(
    problem: SearchProblem,
    budget: SearchBudget,
    seed: Word | None,
    rng_seed: int,
    dive_nodes: int,
    tie_swap: float,
    checkpoint_path,
    checkpoint_every: int,
    resume: Checkpoint | None,
) -> SearchOutcome:
    """Randomized dives below random cuts of the incumbent, deepest-biased.

    Sideways moves (tie_swap) sometimes replace the incumbent with an
    equal-length word, drifting across plateaus; the cut window widens
    while the best length stagnates.
    """
    start = time.monotonic()
    deadline = start + budget.seconds if budget.seconds is not None else None
    if resume is not None:
        if resume.problem != problem:
            raise ValueError("checkpoint is for a different problem")
        best = list(parse_word(resume.best, problem.k).symbols)
        base_nodes = resume.nodes
    else:
        best = list(seed.symbols) if seed is not None else []
        base_nodes = 0
    rng = random.Random(rng_seed * 1_000_003 + base_nodes)
    k = problem.k
    # one live state for every dive: each dive pops back to its common
    # prefix with the cut incumbent instead of replaying the cut from scratch
    state = _replay(problem, best)
    engine = state.engine
    word = engine.word
    maxused = state.maxused
    nodes = 0
    max_nodes = budget.nodes if budget.nodes is not None else 1_000_000
    last_checkpoint = 0
    stop = False
    stale = 0  # dives since the incumbent last improved; widens the cut window
    while not stop and nodes < max_nodes:
        window = 40 + 20 * (stale // 64)
        if not best:
            cut = 0
        elif rng.random() < 0.8:
            cut = len(best) - rng.randrange(1, min(len(best), window) + 1)
        else:
            cut = rng.randrange(0, len(best) + 1)
        _move_to(state, best[:cut])
        letters = list(range(min(maxused[-1] + 2, k)))
        rng.shuffle(letters)
        stack = [[letters, 0]]
        dive = 0
        improved = False
        while stack and dive < dive_nodes:
            frame = stack[-1]
            letters, idx = frame
            if idx >= len(letters):
                stack.pop()
                if stack:
                    state.pop()
                continue
            frame[1] += 1
            a = letters[idx]
            nodes += 1
            dive += 1
            if nodes >= max_nodes:
                break
            if (
                deadline is not None
                and nodes % 4096 == 0
                and time.monotonic() > deadline
            ):
                stop = True
                break
            if (
                checkpoint_path is not None
                and nodes - last_checkpoint >= checkpoint_every
            ):
                last_checkpoint = nodes
                _write_checkpoint(
                    checkpoint_path, problem, max_nodes, len(best), best, best,
                    base_nodes + nodes,
                )
            if engine.try_push(a):
                maxused.append(max(maxused[-1], a))
                if len(word) > len(best):
                    best = word.copy()
                    improved = True
                elif (
                    len(word) == len(best)
                    and tie_swap
                    and rng.random() < tie_swap
                ):
                    best = word.copy()
                ls = list(range(min(maxused[-1] + 2, k)))
                rng.shuffle(ls)
                stack.append([ls, 0])
        stale = 0 if improved else stale + 1
    if checkpoint_path is not None:
        _write_checkpoint(
            checkpoint_path, problem, max_nodes, len(best), best, best,
            base_nodes + nodes,
        )
    return SearchOutcome(
        max_length=len(best),
        status=SearchStatus.LOWER_BOUND,
        witnesses=(Word(tuple(best), k),),
        nodes_explored=base_nodes + nodes,
        elapsed=time.monotonic() - start,
        budget_used=f"stopped ({budget.describe()})",
    )


def _write_checkpoint(path, problem, budget_nodes, best_len, best, word, nodes):
    cp = Checkpoint(
        problem=problem,
        budget_nodes=budget_nodes,
        best_len=best_len,
        best=format_word(Word(tuple(best), problem.k)),
        prefix=format_word(Word(tuple(word), problem.k)),
        nodes=nodes,
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
