"""The benchmark's workloads: fixed lists of operations on the public API.

A workload is a list of operations run in order, each one a closed-loop call
into the library followed by a check of its output against an answer known
independently of the code under test. run.py repeats the list (one "pass")
for the requested time. Every pass of a workload does the same work: the
seed picks the inputs once, when the list is built.

  exact     the exact table cells that finish well inside the acceptance
            budget, on one worker; checked against known_values.json
  pool      the same cells with workers=2
  frontier  fixed node budgets started from stored long words (words of
            65-134 letters), rng seed taken from the workload seed; every
            witness must pass verify_witness
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from typing import Callable

from splitrep import knownvalues, search
from splitrep.search import ProblemKind, SearchBudget, SearchProblem, SearchStatus
from splitrep.words import Word, format_word, parse_word

_clock = time.perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))

EXACT_CELLS = [
    ("C", 2, 4), ("C", 3, 3), ("C", 4, 3), ("C", 5, 2),
    ("S", 2, 2), ("S", 3, 1), ("S", 4, 1),
    ("R", 2, 2), ("R", 3, 1), ("R", 4, 1),
] + [(kind, 1, t) for kind in "SR" for t in range(5)]
TINY_EXACT_CELLS = [("C", 2, 3), ("S", 2, 2), ("R", 2, 2), ("S", 1, 2), ("R", 1, 3)]

# (kind, k, param, strategy); restarts cells start from a stored long word
FRONTIER_CELLS = [
    ("C", 2, 6, "lex"),
    ("S", 3, 2, "restarts"),
    ("R", 2, 4, "restarts"),
    ("S", 5, 1, "restarts"),
    ("R", 3, 2, "restarts"),
]
FRONTIER_LEX_NODES = 60_000
FRONTIER_NODES = 12_000       # per restarts cell
FRONTIER_DIVE_NODES = 200     # short dives: many per cell, so the seed moves cost little

@dataclass
class OpResult:
    """What one operation did and whether its output checked out.

    nodes counts extension attempts (search nodes). work_s is the time spent
    in the search call itself; verify_s is the time of the verify_witness
    check that follows it. counts holds the deterministic counters the
    compare step diffs.
    """

    ok: bool
    nodes: int = 0
    reach: int = 0
    work_s: float = 0.0
    verify_s: float | None = None
    counts: dict = field(default_factory=dict)
    note: str = ""


@dataclass
class Op:
    name: str
    run: Callable[[], OpResult]


def cell_tag(kind: str, k: int, param: int) -> str:
    return f"{kind}{k}_{param}"


def problem_of(kind: str, k: int, param: int) -> SearchProblem:
    return SearchProblem(ProblemKind(kind), k, param)


def load_witnesses() -> dict[tuple[str, int, int], Word]:
    """The stored long violation-free words, keyed by (kind, k, param)."""
    with open(os.path.join(HERE, "witnesses.json")) as fh:
        raw = json.load(fh)["witnesses"]
    return {
        (w["kind"], w["k"], w["param"]): parse_word(w["word"], w["k"]) for w in raw
    }


def _timed_verify(problem: SearchProblem, w: Word) -> tuple[bool, float]:
    t0 = _clock()
    ok = search.verify_witness(problem, w)
    return ok, _clock() - t0


def exact_op(cell: knownvalues.KnownCell, workers: int) -> Op:
    problem = problem_of(cell.table, cell.k, cell.param)
    tag = cell_tag(cell.table, cell.k, cell.param)
    want_word = cell.witness if cell.lex_least else None

    def run() -> OpResult:
        t0 = _clock()
        out = search.longest_avoiding(problem, SearchBudget(workers=workers))
        work = _clock() - t0
        verified, verify_s = _timed_verify(problem, out.witness)
        notes = []
        if out.status is not SearchStatus.EXACT:
            notes.append(f"status {out.status.value}")
        if out.max_length != cell.value:
            notes.append(f"length {out.max_length} != {cell.value}")
        if want_word is not None and format_word(out.witness) != want_word:
            notes.append("witness is not the known lex-least word")
        if not verified:
            notes.append("witness failed verify_witness")
        return OpResult(
            ok=not notes, nodes=out.nodes_explored, reach=out.max_length,
            work_s=work, verify_s=verify_s,
            counts={f"nodes.{tag}": out.nodes_explored}, note="; ".join(notes),
        )

    return Op(f"{'pool' if workers > 1 else 'exact'}:{tag}", run)


def frontier_op(kind, k, param, strategy, nodes, start, rng_seed) -> Op:
    problem = problem_of(kind, k, param)
    tag = cell_tag(kind, k, param)
    floor = len(start) if start is not None else 0

    def run() -> OpResult:
        t0 = _clock()
        out = search.frontier_lower_bound(
            problem, SearchBudget(nodes=nodes), seed=start, strategy=strategy,
            rng_seed=rng_seed, dive_nodes=FRONTIER_DIVE_NODES,
        )
        work = _clock() - t0
        verified, verify_s = _timed_verify(problem, out.witness)
        notes = []
        if not verified:
            notes.append("witness failed verify_witness")
        if out.max_length < floor:
            notes.append(f"reach {out.max_length} below the start word ({floor})")
        return OpResult(
            ok=not notes, nodes=out.nodes_explored, reach=out.max_length,
            work_s=work, verify_s=verify_s,
            counts={
                f"nodes.{tag}": out.nodes_explored,
                f"reach.{tag}": out.max_length,
            },
            note="; ".join(notes),
        )

    return Op(f"frontier:{tag}", run)


def build(workload: str, seed: int, tiny: bool = False) -> list[Op]:
    """The operation list of one pass. The seed picks inputs; it never
    changes how much work the list holds."""
    if workload in ("exact", "pool"):
        cells = {(c.table, c.k, c.param): c for c in knownvalues.load_known_cells()}
        wanted = TINY_EXACT_CELLS if tiny else EXACT_CELLS
        workers = 2 if workload == "pool" else 1
        return [exact_op(cells[key], workers) for key in wanted]
    if workload == "frontier":
        witnesses = load_witnesses()
        ops = []
        for kind, k, param, strategy in FRONTIER_CELLS:
            if strategy == "lex":
                budget = 500 if tiny else FRONTIER_LEX_NODES
                ops.append(frontier_op(kind, k, param, strategy, budget, None, 0))
            else:
                budget = 300 if tiny else FRONTIER_NODES
                ops.append(frontier_op(kind, k, param, strategy, budget,
                                       witnesses[(kind, k, param)], seed))
        return ops
    raise ValueError(f"unknown workload {workload!r}")
