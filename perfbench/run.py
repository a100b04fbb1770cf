"""splitrep benchmark: end-to-end and per-layer performance of the library.

Run from the repository root:

    python3 perfbench/run.py --workload exact --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --compare perfbench/results/A.json perfbench/results/B.json

--trace 0 repeats the workload's pass (see workloads.py) in one process,
closed loop, for about --seconds seconds and prints the end-to-end metrics.
--trace 1 makes one untraced pass, one pass with every library entry point
wrapped in spans (tracer.py), and the fixed layer probes (probes.py), and
prints the per-layer metrics. Every output is checked; the last line of
stdout is one JSON object with correct/attempted/failed/metrics. The full
result, with the run context and the deterministic counts, goes to
perfbench/results/ (or --out). --compare names every deterministic count
that differs between two result files and exits 1 if any does. --tiny
shrinks every input for a quick smoke run; metric names stay the same.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

from tracer import Missing, Tracer

_clock = time.perf_counter

# name, unit, better, bound (share of the parent's median)
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("wall_s", "s", "lower", 0.25),
    ("nodes_per_s", "1/s", "higher", 0.25),
    ("reach", "letters", "higher", 0.05),
    ("peak_rss_mb", "MB", "lower", 0.1),
]

EXACT_TAGS = ["C2_4", "C3_3", "C4_3", "C5_2", "S2_2", "S3_1", "S4_1", "R2_2", "R3_1", "R4_1"]
FRONTIER_TAGS = ["C2_6", "S3_2", "R2_4", "S5_1", "R3_2"]

# name, unit, better, the end-to-end metric (workload.metric) it should move
PER_LAYER = [
    ("engines.try_push.calls", "count", "lower", "exact.nodes_per_s frontier.nodes_per_s"),
    ("engines.try_push.accept_ratio", "ratio", "higher", "exact.nodes_per_s frontier.nodes_per_s"),
    ("engines.try_push.self_s", "s", "lower", "exact.nodes_per_s frontier.nodes_per_s"),
    ("engines.pop.self_s", "s", "lower", "exact.nodes_per_s frontier.nodes_per_s"),
]
for _kind in "CSR":
    for _d in (40, 80, 120):
        PER_LAYER.append((f"engines.push_us.{_kind}.d{_d}", "us", "lower", "frontier.nodes_per_s"))
        PER_LAYER.append((f"engines.check_us.{_kind}.d{_d}", "us", "lower", "frontier.nodes_per_s"))
for _kind in "SR":
    PER_LAYER.append((f"engines.index_entries.{_kind}.d120", "count", "lower",
                      "frontier.nodes_per_s frontier.peak_rss_mb"))
PER_LAYER += [
    (f"search.nodes.{tag}", "count", "lower", "exact.wall_s pool.wall_s")
    for tag in EXACT_TAGS + ["unary"]
] + [
    (f"search.nodes.{tag}", "count", "lower", "frontier.reach") for tag in FRONTIER_TAGS
] + [
    ("search.tasks", "count", "higher", "pool.wall_s"),
    ("search.max_task_share", "ratio", "lower", "pool.wall_s"),
    ("search.plan_s", "s", "lower", "pool.wall_s"),
    ("search.pool_speedup", "ratio", "higher", "pool.wall_s"),
    ("search.dfs_self_s", "s", "lower", "exact.wall_s"),
    ("search.replay_s", "s", "lower", "frontier.nodes_per_s"),
    ("search.certified_cap_s", "s", "lower", "exact.wall_s"),
    ("search.verify_ms.L50", "ms", "lower", "none (output checks are not timed end to end)"),
    ("search.verify_ms.L100", "ms", "lower", "none (output checks are not timed end to end)"),
]
for _finder in ("t_overlap", "split", "reversed", "disjoint"):
    for _path in ("accept", "reject"):
        for _length in (50, 100):
            PER_LAYER.append((f"detect.{_finder}_ms.{_path}.L{_length}", "ms", "lower",
                              "none (output checks are not timed end to end)"))
PER_LAYER += [
    ("counting.s_upper_bounds_s", "s", "lower", "exact.wall_s (certified_cap)"),
    ("counting.period_census_s", "s", "lower", "exact.wall_s (certified_cap)"),
    ("debruijn.special_s.k8", "s", "lower", "none"),
    ("debruijn.c3_s.k8", "s", "lower", "exact.wall_s (cap certificate of C(k,3))"),
    ("words.border_array_us", "us", "lower", "none"),
    ("knownvalues.load_s", "s", "lower", "setup_s"),
    ("cli.overhead_s", "s", "lower", "exact.wall_s"),
    ("trace.overhead_s", "s", "lower", "none (traced wall_s minus untraced)"),
]

SETUP_CODE = (
    "import time; t0 = time.perf_counter(); import splitrep; "
    "from splitrep.knownvalues import load_known_cells; load_known_cells(); "
    "print(time.perf_counter() - t0)"
)
SETUP_RUNS = 7


def measure_setup(runs: int) -> float:
    """Median time to import the package and load known_values.json, each
    in a fresh interpreter (after one warm-up that fills the bytecode cache)."""
    env = dict(os.environ, PYTHONPATH=SRC)
    times = []
    for i in range(runs + 1):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE], env=env, cwd=ROOT,
            capture_output=True, text=True, timeout=60, check=True,
        )
        if i:
            times.append(float(proc.stdout.strip()))
    return statistics.median(times)


def git_commit() -> str:
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def peak_rss_mb() -> float:
    """Peak resident set of this process plus the largest waited-for child
    (pool workers, set-up interpreters); ru_maxrss is in KiB on Linux."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024


def run_passes(ops, seconds: float, min_passes: int = 1, tracer=None):
    """Repeat the op list until another pass would end well past `seconds`.

    Returns per-op lists of (elapsed, OpResult) and the pass wall times.
    An op that raises is a failed op, never an aborted run.
    """
    from workloads import OpResult

    records = [[] for _ in ops]
    walls: list[float] = []
    start = _clock()
    while True:
        t_pass = _clock()
        for i, op in enumerate(ops):
            if tracer is not None:
                tracer.op = i
            t0 = _clock()
            try:
                res = op.run()
            except Exception as exc:  # a failed operation is counted, not fatal
                res = OpResult(ok=False, note=f"{type(exc).__name__}: {exc}")
            records[i].append((_clock() - t0, res))
        walls.append(_clock() - t_pass)
        elapsed = _clock() - start
        if len(walls) >= min_passes and elapsed + 0.5 * statistics.median(walls) > seconds:
            return records, walls


def check_records(ops, records) -> tuple[int, int, list[str]]:
    """attempted, failed, and the failure notes. A repeat of an op whose
    deterministic counts differ from its first pass is a failure too."""
    attempted = failed = 0
    notes = []
    for op, recs in zip(ops, records):
        first = recs[0][1]
        for n, (_, res) in enumerate(recs):
            attempted += 1
            problem = res.note if not res.ok else ""
            if res.ok and n and (res.counts, res.nodes, res.reach) != (
                first.counts, first.nodes, first.reach
            ):
                problem = "counts differ from the first pass"
            if not res.ok or problem:
                failed += 1
                notes.append(f"{op.name} (pass {n + 1}): {problem or 'failed'}")
    return attempted, failed, notes


def summarize(ops, records) -> tuple[dict, dict]:
    """End-to-end values from per-op medians across passes, plus detail.

    wall_s counts the library calls under test (searches), not the output
    checks that follow them: the quartic detectors behind verify_witness
    swing by up to 1.7x with contention on the host, and would drown the
    search time they are meant to check.
    """
    work = [statistics.median(r.work_s for _, r in recs) for recs in records]
    nodes = sum(recs[0][1].nodes for recs in records)
    reach = sum(recs[0][1].reach for recs in records)
    values = {
        "wall_s": sum(work),
        "nodes_per_s": nodes / sum(work),
        "reach": reach,
    }
    detail = {
        "passes": len(records[0]),
        "nodes_per_pass": nodes,
        "ops": [
            {"name": op.name, "median_s": m, "nodes": recs[0][1].nodes,
             "reach": recs[0][1].reach, "samples_s": [t for t, _ in recs],
             "work_samples_s": [r.work_s for _, r in recs],
             "verify_samples_s": [r.verify_s for _, r in recs]}
            for op, m, recs in zip(ops, work, records)
        ],
    }
    return values, detail


def counts_of(records) -> dict:
    counts = {}
    for recs in records:
        counts.update(recs[0][1].counts)
    return counts


def layer_metrics(tracer, records, walls_untraced, walls_traced, speedup) -> dict:
    """Per-layer values from the traced pass (spans) of this workload."""
    missing = set(tracer.missing)

    def needs(name: str, value):
        return Missing(f"{name} not found") if name in missing else value

    out = {}
    calls = tracer.calls("engines.try_push")
    accepted = tracer.agg["engines.try_push"].true_results if calls else 0
    engine_gone = any(m.startswith("splitrep.engines.") for m in missing)
    for name, value in [
        ("engines.try_push.calls", calls),
        ("engines.try_push.accept_ratio", accepted / calls if calls else 0.0),
        ("engines.try_push.self_s", tracer.self_time("engines.try_push")),
        ("engines.pop.self_s", tracer.self_time("engines.pop")),
    ]:
        out[name] = Missing("engine class or method not found") if engine_gone else value
    counts = counts_of(records)
    for tag in EXACT_TAGS + FRONTIER_TAGS:
        out[f"search.nodes.{tag}"] = counts.get(f"nodes.{tag}", 0)
    out["search.nodes.unary"] = sum(
        v for k, v in counts.items() if k.startswith(("nodes.S1_", "nodes.R1_"))
    )
    plans = tracer.observed.get("search._plan_tasks", [])
    out["search.tasks"] = needs(
        "splitrep.search._plan_tasks", sum(len(result[1]) for _, result in plans if result)
    )
    biggest = total = 0
    for args, _ in tracer.observed.get("search._merge", []):
        results, prefix_nodes = args[2], args[3]
        biggest += max(r.nodes for r in results)
        total += prefix_nodes + sum(r.nodes for r in results)
    out["search.max_task_share"] = needs(
        "splitrep.search._merge", biggest / total if total else 0.0
    )
    out["search.plan_s"] = needs("splitrep.search._plan_tasks",
                                 tracer.total("search._plan_tasks"))
    out["search.pool_speedup"] = speedup
    out["search.dfs_self_s"] = needs("splitrep.search._dfs", tracer.self_time("search._dfs"))
    out["search.replay_s"] = needs("splitrep.search._replay", tracer.total("search._replay"))
    out["search.certified_cap_s"] = needs("splitrep.search.certified_cap",
                                          tracer.total("search.certified_cap"))
    out["trace.overhead_s"] = walls_traced[0] - walls_untraced[0]
    return out


def trace_counts(tracer, probe_values: dict) -> dict:
    """Deterministic counts only a traced run sees: tasks per searched cell
    and the index size of the engine probes."""
    from workloads import cell_tag

    counts = {}
    for args, result in tracer.observed.get("search._plan_tasks", []):
        p = args[0]
        counts[f"tasks.{cell_tag(p.kind.value, p.k, p.param)}"] = len(result[1])
    for letter in "SR":
        v = probe_values.get(f"engines.index_entries.{letter}.d120")
        if isinstance(v, int):
            counts[f"index_entries.{letter}.d120"] = v
    return counts


def measure_untraced(args, ops):
    """Passes for about args.seconds; returns values, counts, detail and
    every (op, records) pair run, for checking."""
    setup_s = measure_setup(2 if args.tiny else SETUP_RUNS)
    records, _ = run_passes(ops, args.seconds)
    values, detail = summarize(ops, records)
    values["setup_s"] = setup_s
    values["peak_rss_mb"] = peak_rss_mb()
    return values, counts_of(records), detail, ops, records, None


def measure_traced(args, ops):
    """One untraced pass, one traced pass, the other half of the exact/pool
    pair (for search.pool_speedup), then the layer probes."""
    import probes
    import workloads

    untraced, walls_untraced = run_passes(ops, 0)
    tracer = Tracer()
    tracer.install()
    try:
        traced, walls_traced = run_passes(ops, 0, tracer=tracer)
    finally:
        tracer.uninstall()
    checked_ops, checked = ops + ops, untraced + traced
    speedup = 0.0
    other = {"exact": "pool", "pool": "exact"}.get(args.workload)
    if other:
        other_ops = workloads.build(other, args.seed, args.tiny)
        other_records, other_walls = run_passes(other_ops, 0)
        walls = {args.workload: walls_untraced[0], other: other_walls[0]}
        speedup = walls["exact"] / walls["pool"]
        checked_ops += other_ops
        checked += other_records
    values = layer_metrics(tracer, traced, walls_untraced, walls_traced, speedup)
    probe_values = probes.run_all(args.tiny)
    values.update(probe_values)
    counts = counts_of(traced)
    counts.update(trace_counts(tracer, probe_values))
    _, detail = summarize(ops, traced)
    detail["untraced_wall_s"] = walls_untraced[0]
    detail["traced_wall_s"] = walls_traced[0]
    return values, counts, detail, checked_ops, checked, tracer.dump()


def metric_entry(value, unit: str) -> dict:
    if isinstance(value, Missing):
        return {"value": None, "unit": unit, "missing": value.reason}
    return {"value": value, "unit": unit}


def run_benchmark(args) -> int:
    import workloads

    context = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "loadavg_1m_start": os.getloadavg()[0],
        "seed": args.seed,
        "git_commit": git_commit(),
    }
    ops = workloads.build(args.workload, args.seed, args.tiny)
    measure = measure_traced if args.trace else measure_untraced
    values, counts, detail, checked_ops, checked, trace_dump = measure(args, ops)
    attempted, failed, notes = check_records(checked_ops, checked)
    context["loadavg_1m_end"] = os.getloadavg()[0]
    specs = PER_LAYER if args.trace else END_TO_END
    metrics = {spec[0]: metric_entry(values[spec[0]], spec[1]) for spec in specs}
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "context": context,
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "failures": notes[:50],
        "metrics": metrics,
        "counts": counts,
        "detail": detail,
    }
    if trace_dump is not None:
        result["per_layer_targets"] = {name: moves for name, _, _, moves in PER_LAYER}
        result["trace_data"] = trace_dump
    out_path = args.out or os.path.join(
        HERE, "results",
        f"{args.workload}{'-tiny' if args.tiny else ''}-seed{args.seed}-trace{args.trace}.json",
    )
    os.makedirs(os.path.dirname(os.path.abspath(out_path)), exist_ok=True)
    with open(out_path, "w") as fh:
        json.dump(result, fh, indent=1)
        fh.write("\n")

    for name, entry in metrics.items():
        shown = entry.get("missing") or entry["value"]
        print(f"{args.workload}.{name} = {shown} {entry['unit']}")
    print(f"fail_ratio = {failed}/{attempted} operations")
    print(f"passes = {detail['passes']} (each metric is built from per-op medians)")
    for note in notes[:10]:
        print(f"FAILED: {note}")
    print(f"result file: {os.path.relpath(out_path, ROOT)}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


def compare(path_a: str, path_b: str) -> int:
    """Name every deterministic count that differs; exit 1 if any does."""
    with open(path_a) as fh:
        a = json.load(fh)
    with open(path_b) as fh:
        b = json.load(fh)
    if a["seed"] != b["seed"]:
        print(f"note: seeds differ ({a['seed']} vs {b['seed']}); frontier "
              "counts depend on the seed")
    ca, cb = a["counts"], b["counts"]
    differ = 0
    for key in sorted(set(ca) | set(cb)):
        if key not in ca or key not in cb:
            print(f"only in {'A' if key in ca else 'B'}: {key}")
        elif ca[key] != cb[key]:
            differ += 1
            print(f"COUNT DIFFERS: {key}: A={ca[key]} B={cb[key]}")
    for name in sorted(set(a["metrics"]) & set(b["metrics"])):
        va, vb = a["metrics"][name]["value"], b["metrics"][name]["value"]
        if isinstance(va, (int, float)) and isinstance(vb, (int, float)) and va:
            print(f"{name}: A={va:.6g} B={vb:.6g} ({(vb - va) / va:+.1%})")
    print(f"{differ} deterministic count(s) differ")
    return 1 if differ else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=["exact", "pool", "frontier"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny inputs (smoke runs)")
    parser.add_argument("--out", default=None, help="result file path")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.workload is None:
        parser.error("--workload is required")
    if not os.path.isfile(os.path.join(SRC, "splitrep", "__init__.py")):
        print(f"error: no splitrep package under {SRC}; run from a repository "
              "checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    return run_benchmark(args)


if __name__ == "__main__":
    sys.exit(main())
