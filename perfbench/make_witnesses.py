"""Regenerate perfbench/witnesses.json, the benchmark's fixed long words.

Each entry is a violation-free word found by a budgeted frontier search (or
built by a de Bruijn construction) and checked with verify_witness before it
is written. The benchmark uses them as start words for the frontier
workload, and as the inputs of the engine probes (depths 40/80/120) and
of the detector and verifier probes.

Run from the repository root (takes a few minutes on one core):

    python3 perfbench/make_witnesses.py
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from splitrep import debruijn  # noqa: E402
from splitrep.search import (  # noqa: E402
    ProblemKind,
    SearchBudget,
    SearchProblem,
    frontier_lower_bound,
    verify_witness,
)
from splitrep.words import format_word  # noqa: E402

# (kind, k, param, node budget, rng_seed); restarts strategy throughout
SEARCHES = [
    ("S", 3, 2, 300_000, 0),
    ("R", 2, 4, 300_000, 0),
    ("S", 5, 1, 300_000, 0),
    ("R", 3, 2, 300_000, 0),
    ("S", 4, 2, 6_000, 0),
]


def main() -> int:
    out = []
    for kind, k, param, nodes, rng_seed in SEARCHES:
        problem = SearchProblem(ProblemKind(kind), k, param)
        outcome = frontier_lower_bound(
            problem, SearchBudget(nodes=nodes), strategy="restarts",
            rng_seed=rng_seed,
        )
        w = outcome.witness
        if not verify_witness(problem, w):
            raise SystemExit(f"{problem.describe()}: witness failed verification")
        out.append({"kind": kind, "k": k, "param": param, "word": format_word(w)})
        print(f"{problem.describe()}: {len(w)} letters", flush=True)
    w = debruijn.debruijn_order_n(2, 7)
    problem = SearchProblem(ProblemKind.DISJOINT_FACTORS, 2, 7)
    if not verify_witness(problem, w):
        raise SystemExit("de Bruijn word failed verification")
    out.append({"kind": "C", "k": 2, "param": 7, "word": format_word(w)})
    print(f"{problem.describe()}: {len(w)} letters")
    with open(os.path.join(HERE, "witnesses.json"), "w") as fh:
        json.dump({"witnesses": out}, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
