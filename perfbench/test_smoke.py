"""Smoke test of the benchmark at tiny sizes (about a minute).

Runs every workload untraced and traced with --tiny and checks the output
contract: the last stdout line is one JSON object with exactly correct,
attempted, failed and metrics, and every metric named in BENCHMARK.json is
printed with its unit. Also checks that the metric tables in run.py match
BENCHMARK.json, that --compare names a changed count, and that the
benchmark refuses to run without the package sources.

    python3 -m pytest perfbench/test_smoke.py     or     python3 perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "results", "smoke")
sys.path.insert(0, HERE)

import run  # noqa: E402


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _run(workload: str, trace: int, cwd: str = ROOT) -> tuple[dict, str]:
    out = os.path.join(OUT, f"{workload}-trace{trace}.json")
    proc = subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
         "--workload", workload, "--seed", "3", "--seconds", "1",
         "--trace", str(trace), "--tiny", "--out", out],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1]), out


def test_tables_match_benchmark_json():
    spec = _spec()
    assert [
        (m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]
    ] == [tuple(m) for m in run.END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        (name, unit, better) for name, unit, better, _ in run.PER_LAYER
    ]
    assert [w["name"] for w in spec["workloads"]] == ["exact", "pool", "frontier"]


def test_every_metric_printed_with_unit():
    spec = _spec()
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            last, _ = _run(workload, trace)
            assert set(last) == {"correct", "attempted", "failed", "metrics"}
            assert last["correct"] is True and last["failed"] == 0
            assert isinstance(last["attempted"], int) and last["attempted"] >= 1
            want = {m["name"]: m["unit"] for m in spec[key]}
            assert set(last["metrics"]) == set(want), (workload, trace)
            for name, unit in want.items():
                entry = last["metrics"][name]
                assert entry["unit"] == unit, name
                assert isinstance(entry["value"], (int, float)), (workload, name)
            if trace == 0:
                for m in spec["end_to_end"]:
                    assert last["metrics"][m["name"]]["value"] > 0, (workload, m["name"])


def test_compare_names_changed_counts():
    _, path = _run("exact", 0)
    with open(path) as fh:
        result = json.load(fh)
    key = sorted(result["counts"])[0]
    result["counts"][key] += 1
    changed = path.replace(".json", "-changed.json")
    with open(changed, "w") as fh:
        json.dump(result, fh)
    compare = [sys.executable, os.path.join(HERE, "run.py"), "--compare"]
    same = subprocess.run(compare + [path, path], capture_output=True, text=True)
    assert same.returncode == 0, same.stdout
    diff = subprocess.run(compare + [path, changed], capture_output=True, text=True)
    assert diff.returncode == 1
    assert f"COUNT DIFFERS: {key}" in diff.stdout


def test_refuses_to_run_without_sources():
    bare = os.path.join(OUT, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "exact", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
    shutil.rmtree(bare)


if __name__ == "__main__":
    for name, fn in list(globals().items()):
        if name.startswith("test_"):
            fn()
            print(f"{name}: ok")
