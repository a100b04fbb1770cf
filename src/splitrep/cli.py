"""Command-line interface: analyze words, run searches, evaluate bounds,
emit constructions, and reproduce the known-value tables.

Exit codes: 0 success (exact results, clean diffs), 2 usage error (one
`splitrep: error: ...` line on stderr), 3 search finished with a lower
bound only, 4 table diff mismatch, 5 internal validation failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import time
from dataclasses import dataclass, field

from . import counting, debruijn
from .detect import (
    GapConvention,
    count_nondisjoint_occurrences,
    find_disjoint_pair,
    find_reversed_split_t_overlap,
    find_split_t_overlap,
    find_t_overlap_factor,
)
from .knownvalues import exact_c_values, load_known_cells
from .search import (
    ProblemKind,
    SearchBudget,
    SearchProblem,
    SearchStatus,
    frontier_lower_bound,
    load_checkpoint,
    longest_avoiding,
    verify_witness,
)
from .words import (
    Word,
    border_array,
    format_word,
    is_primitive,
    is_unbordered,
    occurrences,
    parse_word,
    period,
)

VERSION = "0.1.0"

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_LOWER_BOUND = 3
EXIT_TABLE_MISMATCH = 4
EXIT_VALIDATION = 5

# cells run exactly by the default `table` command (a few minutes in total;
# C(2,5) alone is most of it); everything else is skipped unless a per-cell
# budget is supplied
DEFAULT_TABLE_CELLS = {
    "C": {(1, 1), (1, 2), (1, 3), (1, 4), (1, 5), (1, 6), (1, 7),
          (2, 1), (2, 2), (2, 3), (2, 4), (2, 5), (3, 1), (3, 2), (3, 3),
          (4, 1), (4, 2), (4, 3), (5, 1), (5, 2)},
    "S": {(1, 0), (1, 1), (1, 2), (1, 3), (1, 4),
          (2, 0), (2, 1), (2, 2), (3, 0), (3, 1), (4, 0), (4, 1), (5, 0)},
    "R": {(1, 0), (1, 1), (1, 2), (1, 3), (1, 4),
          (2, 0), (2, 1), (2, 2), (3, 0), (3, 1), (4, 0), (4, 1), (5, 0)},
}


@dataclass(frozen=True)
class RunReport:
    """One run's inputs and results; renders to text and to JSON losslessly."""

    command: str
    params: dict
    outcome: dict
    status: str
    nodes: int | None = None
    elapsed: float | None = None
    version: str = VERSION

    def to_json(self) -> str:
        return json.dumps(dataclasses.asdict(self), indent=2, sort_keys=True)

    @staticmethod
    def from_json(text: str) -> "RunReport":
        return RunReport(**json.loads(text))

    def to_text(self) -> str:
        lines = [f"splitrep {self.version}: {self.command}"]
        for key, value in self.params.items():
            lines.append(f"  {key} = {value}")
        lines.append(f"status: {self.status}")
        for key, value in self.outcome.items():
            if isinstance(value, list) and value and isinstance(value[0], dict):
                lines.append(f"{key}:")
                for item in value:
                    cells = "  ".join(f"{ik}={iv}" for ik, iv in item.items())
                    lines.append(f"  {cells}")
            else:
                lines.append(f"{key}: {value}")
        if self.nodes is not None:
            lines.append(f"nodes: {self.nodes}")
        if self.elapsed is not None:
            lines.append(f"elapsed: {self.elapsed:.3f}s")
        return "\n".join(lines)


def _emit(args, report: RunReport) -> None:
    text = report.to_json() if getattr(args, "json", False) else report.to_text()
    try:
        print(text)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout early. Point fd 1 at devnull so that the
        # flush at exit does not raise again, and keep the command's exit code
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def _parse_word_arg(text: str, k: int | None) -> Word:
    if text == "":
        raise ValueError("empty word")
    if k is None:
        try:
            probe = [int(p) for p in (text.split(",") if "," in text else text)]
        except ValueError:
            raise ValueError(f"cannot parse word {text!r}") from None
        k = max(probe) + 1
    return parse_word(text, k)


def cmd_analyze(args) -> int:
    w = _parse_word_arg(args.word, args.k)
    convention = GapConvention(args.convention)
    if args.n is not None and args.n < 1:
        raise ValueError("--n must be >= 1")
    if args.t is not None and args.t < 0:
        raise ValueError("--t must be >= 0")
    outcome: dict = {
        "word": format_word(w),
        "length": len(w),
        "alphabet": w.k,
        "period": period(w),
        "border_lengths": list(border_array(w).longest_border),
        "primitive": is_primitive(w),
        "unbordered": is_unbordered(w),
    }
    if args.n is not None:
        v = find_disjoint_pair(w, args.n)
        outcome["disjoint_pair"] = _violation_dict(v) if v else (
            f"no disjoint length-{args.n} pair"
        )
    if args.t is not None:
        t = args.t
        # selector flags restrict which findings are reported; default all
        all_kinds = not (args.split or args.reversed or args.overlap)
        if args.overlap or all_kinds:
            v = find_t_overlap_factor(w, t)
            outcome["t_overlap_factor"] = _violation_dict(v) if v else (
                f"no {t}-overlap factor"
            )
        if args.split or all_kinds:
            v = find_split_t_overlap(w, t, convention)
            outcome["split_t_overlap"] = _violation_dict(v) if v else (
                f"no split {t}-overlap"
            )
        if args.reversed or all_kinds:
            v = find_reversed_split_t_overlap(w, t, convention)
            outcome["reversed_split_t_overlap"] = _violation_dict(v) if v else (
                f"no reversed split {t}-overlap"
            )
    report = RunReport(
        command="analyze",
        params={"word": args.word, "k": w.k, "t": args.t, "n": args.n,
                "convention": convention.value},
        outcome=outcome,
        status="ok",
    )
    _emit(args, report)
    return EXIT_OK


def _violation_dict(v) -> dict:
    return {
        "kind": v.kind.value,
        "t_or_n": v.t_or_n,
        "x_span": list(v.x_span),
        "z_span": list(v.z_span) if v.z_span else None,
        "repetition": format_word(v.repetition),
    }


def _problem_from_args(args) -> SearchProblem:
    kind = ProblemKind(args.kind)
    if kind is ProblemKind.DISJOINT_FACTORS:
        if args.n is None:
            raise ValueError("C searches need --n")
        param = args.n
    else:
        if args.t is None:
            raise ValueError(f"{kind.value} searches need --t")
        param = args.t
    return SearchProblem(
        kind=kind, k=args.k, param=param,
        convention=GapConvention(args.convention),
    )


def cmd_search(args) -> int:
    problem = _problem_from_args(args)
    budget = SearchBudget(
        nodes=args.budget,
        seconds=args.seconds,
        split_depth=args.split_depth,
        workers=args.threads,
    )
    frontier = args.frontier or args.checkpoint or args.resume
    # options the chosen mode would ignore are errors, not silent no-ops
    if args.seed is not None and not frontier:
        raise ValueError("--seed is a frontier start word: it needs --frontier")
    if args.seed is not None and args.resume:
        raise ValueError("--seed cannot go with --resume: the checkpoint has the word")
    if frontier and args.split_depth is not None:
        raise ValueError("frontier mode runs one task: drop --split-depth")
    if frontier and args.threads != 1:
        raise ValueError("frontier mode runs on one worker: --threads must be 1")
    start = time.monotonic()
    if frontier:
        seed = _parse_word_arg(args.seed, problem.k) if args.seed else None
        try:
            resume = load_checkpoint(args.resume) if args.resume else None
            outcome = frontier_lower_bound(
                problem, budget, seed=seed, checkpoint_path=args.checkpoint,
                resume=resume,
            )
        except OSError as exc:  # the checkpoint file cannot be read or written
            raise ValueError(str(exc)) from exc
    else:
        outcome = longest_avoiding(problem, budget)
    verified = verify_witness(problem, outcome.witness)
    report = RunReport(
        command="search",
        params={
            "kind": problem.kind.value,
            "k": problem.k,
            problem.param_name: problem.param,
            "convention": problem.convention.value,
            "budget_nodes": args.budget,
            "threads": args.threads,
        },
        outcome={
            "max_length": outcome.max_length,
            "witness": format_word(outcome.witness),
            "witness_verified": verified,
            "budget_used": outcome.budget_used,
        },
        status=outcome.status.value,
        nodes=outcome.nodes_explored,
        elapsed=time.monotonic() - start,
    )
    _emit(args, report)
    if not verified:
        return EXIT_VALIDATION
    return EXIT_OK if outcome.status is SearchStatus.EXACT else EXIT_LOWER_BOUND


def cmd_bounds(args) -> int:
    if args.family == "C":
        if args.n is None:
            raise ValueError("bounds --family C needs --n")
        report_data = counting.c_bounds(args.k, args.n)
        param = args.n
    else:
        if args.t is None:
            raise ValueError("bounds --family S or R needs --t")
        report_data = counting.s_upper_bounds(
            args.k, args.t, c_values=exact_c_values() if args.use_known else None
        )
        param = args.t
    entries = {
        label: f"{rel} {value}"
        for label, (rel, value) in report_data.entries.items()
    }
    outcome = {"bounds": entries, "best": str(report_data.best)}
    if report_data.lemma_per_word_caps is not None:
        outcome["period_census"] = {
            str(p): c for p, c in sorted(report_data.lemma_per_word_caps.items())
        }
    report = RunReport(
        command="bounds",
        params={"family": args.family, "k": args.k, "param": param},
        outcome=outcome,
        status="ok",
    )
    _emit(args, report)
    return EXIT_OK


def cmd_construct(args) -> int:
    start = time.monotonic()
    try:
        if args.what == "c2":
            w = debruijn.construct_c2_lower(args.k)
            problem = SearchProblem(ProblemKind.DISJOINT_FACTORS, args.k, 2)
            checks = {
                "length": len(w),
                "expected_length": args.k ** 2 + args.k + 1,
                "no_disjoint_length_2_pair": verify_witness(problem, w),
            }
        elif args.what == "c3":
            w = debruijn.construct_c3_lower(args.k)
            problem = SearchProblem(ProblemKind.DISJOINT_FACTORS, args.k, 3)
            checks = {
                "length": len(w),
                "expected_length": args.k ** 3 + args.k ** 2 + args.k + 2,
                "no_disjoint_length_3_pair": verify_witness(problem, w),
            }
        elif args.what == "debruijn":
            n = args.n if args.n is not None else 3
            if n == 3 and args.special:
                w = debruijn.debruijn_order3_special(args.k)
            else:
                w = debruijn.debruijn_order_n(args.k, n)
            checks = {
                "length": len(w),
                "expected_length": args.k ** n + n - 1 + (2 if args.special and n == 3 else 0),
                "window_census": "each window exactly once (validated)",
            }
        else:  # witness
            if args.x is None:
                raise ValueError("construct witness needs --x")
            x = _parse_word_arg(args.x, args.k)
            w = counting.occurrence_witness(x)
            checks = {
                "length": len(w),
                "occurrences": count_nondisjoint_occurrences(w, x),
                "cap": counting.max_nondisjoint_cap(x),
                "no_disjoint_pair_of_x": _no_disjoint_of(w, x),
            }
    except debruijn.ConstructionError as exc:
        print(f"construction failed: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    failed = any(v is False for v in checks.values())
    report = RunReport(
        command="construct",
        params={"what": args.what, "k": args.k, "n": args.n, "x": args.x},
        outcome={"word": format_word(w), **checks},
        status="ok" if not failed else "validation-failed",
        elapsed=time.monotonic() - start,
    )
    _emit(args, report)
    return EXIT_VALIDATION if failed else EXIT_OK


def _no_disjoint_of(w: Word, x: Word) -> bool:
    """True iff no two occurrences of x in w are disjoint: every pair of
    them overlaps, which holds iff the first and the last do."""
    pos = occurrences(w, x)
    return not pos or pos[-1] - pos[0] < len(x)


def cmd_table(args) -> int:
    table = {"1": "C", "2": "S", "3": "R"}[args.table]
    cells = [c for c in load_known_cells() if c.table == table]
    budget_nodes = args.budget_per_cell
    budget = SearchBudget(nodes=budget_nodes)
    rows = []
    mismatches = 0
    start = time.monotonic()
    total_nodes = 0
    for cell in cells:
        kind = ProblemKind(table)
        problem = SearchProblem(kind, cell.k, cell.param)
        in_default = (cell.k, cell.param) in DEFAULT_TABLE_CELLS[table]
        row = {
            "k": cell.k,
            problem.param_name: cell.param,
            "expected": f"{cell.relation} {cell.value}",
        }
        if in_default:
            outcome = longest_avoiding(problem)
        elif budget_nodes:
            outcome = frontier_lower_bound(problem, budget)
        else:
            row["computed"] = "skipped"
            row["ok"] = True
            rows.append(row)
            continue
        total_nodes += outcome.nodes_explored
        if outcome.status is SearchStatus.EXACT:
            row["computed"] = f"= {outcome.max_length}"
            if cell.relation == "=":
                row["ok"] = outcome.max_length == cell.value
            else:
                row["ok"] = outcome.max_length >= cell.value
            if cell.witness and cell.lex_least and cell.relation == "=":
                row["witness_match"] = format_word(outcome.witness) == cell.witness
                row["ok"] = row["ok"] and row["witness_match"]
        else:
            row["computed"] = f">= {outcome.max_length}"
            # a lower bound can never contradict an exact value from above
            row["ok"] = (
                outcome.max_length <= cell.value
                if cell.relation == "="
                else True
            )
        if not row["ok"]:
            mismatches += 1
        rows.append(row)
    report = RunReport(
        command="table",
        params={"table": args.table, "budget_per_cell": budget_nodes},
        outcome={"rows": rows, "mismatches": mismatches},
        status="ok" if mismatches == 0 else "mismatch",
        nodes=total_nodes,
        elapsed=time.monotonic() - start,
    )
    _emit(args, report)
    return EXIT_OK if mismatches == 0 else EXIT_TABLE_MISMATCH


class _Parser(argparse.ArgumentParser):
    """Raises ValueError on bad input, so that main reports every usage
    error, argparse's own included; add_subparsers makes its subparsers
    of this class too."""

    def error(self, message):
        raise ValueError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="splitrep",
        description="Repetition detectors, extremal searches, bounds and "
        "constructions for split overlaps and disjoint factor occurrences.",
    )
    parser.add_argument("--version", action="version", version=VERSION)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="periods, borders and violations of a word")
    p.add_argument("word")
    p.add_argument("--k", type=int, default=None, help="alphabet size")
    p.add_argument("--t", type=int, default=None, help="report t-overlap findings")
    p.add_argument("--n", type=int, default=None, help="report disjoint pair findings")
    p.add_argument("--split", action="store_true", help="only split findings")
    p.add_argument("--reversed", action="store_true", help="only reversed findings")
    p.add_argument("--overlap", action="store_true", help="only contiguous findings")
    p.add_argument("--convention", choices=[c.value for c in GapConvention],
                   default=GapConvention.EMPTY_OK.value)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("search", help="exact or budgeted extremal search")
    p.add_argument("kind", choices=["C", "S", "R"])
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--t", type=int, default=None)
    p.add_argument("--budget", type=int, default=None, help="node budget per task")
    p.add_argument("--seconds", type=float, default=None)
    p.add_argument("--threads", type=int, default=1,
                   help="worker processes for the exact search, at most one "
                   "per task; any count gives the same result")
    p.add_argument("--split-depth", type=int, default=None,
                   help="task split depth for the exact search")
    p.add_argument("--frontier", action="store_true",
                   help="budgeted lower-bound mode (single task, one worker)")
    p.add_argument("--seed", default=None,
                   help="start word for frontier mode; not with --resume")
    p.add_argument("--checkpoint", default=None, help="checkpoint file path")
    p.add_argument("--resume", default=None, help="resume from checkpoint file")
    p.add_argument("--convention", choices=[c.value for c in GapConvention],
                   default=GapConvention.EMPTY_OK.value)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("bounds", help="closed-form and composed bounds")
    p.add_argument("--family", choices=["C", "S", "R"], required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--t", type=int, default=None)
    p.add_argument("--use-known", action="store_true",
                   help="compose with known exact C values")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("construct", help="explicit constructions")
    p.add_argument("what", choices=["c2", "c3", "debruijn", "witness"])
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--x", default=None, help="pattern word for witness")
    p.add_argument("--special", action="store_true",
                   help="order-3 de Bruijn word with abab/baba coverage")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("table", help="recompute a known-value table and diff")
    p.add_argument("table", choices=["1", "2", "3"])
    p.add_argument("--budget-per-cell", type=int, default=None)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_table)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except ValueError as exc:  # rejected input: one line, exit code 2
        print(f"{parser.prog}: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
