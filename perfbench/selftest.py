"""Self-test of the benchmark on reduced-size inputs.

Run from the repository root::

    python3 perfbench/selftest.py

For every workload it checks that an untraced and a traced run emit every
metric ``BENCHMARK.json`` names, with its unit; that both runs produce the
same output digest; that another seed yields other inputs; and that the
benchmark refuses to run, without printing a result, when the program's
sources are absent.  Exits non-zero on the first failure.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, List, Tuple

ROOT = Path(__file__).resolve().parent.parent

#: Metrics the benchmark's design promises, beyond what BENCHMARK.json lists.
REQUIRED_END_TO_END = {"wall_s", "setup_s", "peak_rss_mib", "recall", "sim_latency_s", "overhead_ratio"}
REQUIRED_LAYERS = {
    "sim", "net.medium", "net.radio", "net.faces", "net.leaky_bucket", "net.reliability",
    "net.topology", "node.device", "core.discovery", "core.lqt", "bloom", "data.store",
    "core.retrieval", "core.cdi", "core.assignment", "core.mdr", "mobility",
    "experiments.runner",
}


def run(args: List[str], cwd: Path = ROOT) -> Tuple[int, List[str]]:
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )
    return completed.returncode, completed.stdout.strip().splitlines()


def bench(workload: str, seed: int, trace: int) -> Tuple[dict, Dict[str, List[str]]]:
    code, lines = run(
        ["--workload", workload, "--seed", str(seed), "--seconds", "0", "--trace", str(trace), "--small"]
    )
    check(code == 0, f"{workload} seed {seed} trace {trace}: exit code {code}")
    result = json.loads(lines[-1])
    check(set(result) == {"correct", "attempted", "failed", "metrics"}, f"result keys {set(result)}")
    check(result["correct"] is True, f"{workload} trace {trace}: outputs not correct")
    check(result["attempted"] >= 1, f"{workload}: nothing attempted")
    info: Dict[str, List[str]] = {}
    for line in lines[:-1]:
        if line.startswith("perfbench "):
            kind, _, rest = line[len("perfbench "):].partition(" ")
            info.setdefault(kind, []).append(rest)
    return result, info


def check(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"selftest FAILED: {message}")


def check_metrics(result: dict, declared: List[dict], label: str) -> None:
    emitted = result["metrics"]
    names = {m["name"] for m in declared}
    check(set(emitted) == names, f"{label}: emitted {sorted(set(emitted) ^ names)} differ from BENCHMARK.json")
    for metric in declared:
        check(metric["better"] in ("lower", "higher"), f"{metric['name']}: no direction")
        value = emitted[metric["name"]]
        check(value["unit"] == metric["unit"], f"{label}: {metric['name']} unit {value['unit']}")
        check(isinstance(value["value"], (int, float)), f"{label}: {metric['name']} not a number")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end, per_layer = spec["end_to_end"], spec["per_layer"]
    check(REQUIRED_END_TO_END <= {m["name"] for m in end_to_end}, "end-to-end metrics missing")
    layer_names = {m["name"] for m in per_layer}
    for layer in REQUIRED_LAYERS:
        check({f"{layer}.self_s", f"{layer}.calls"} <= layer_names, f"layer {layer} missing")
    for workload in [w["name"] for w in spec["workloads"]]:
        untraced, untraced_info = bench(workload, 1, 0)
        check_metrics(untraced, end_to_end, f"{workload} untraced")
        traced, traced_info = bench(workload, 1, 1)
        check_metrics(traced, per_layer, f"{workload} traced")
        check(len(traced_info["digest"]) == 1, f"{workload}: traced and untraced digests differ")
        check(
            traced_info["digest"] == untraced_info["digest"],
            f"{workload}: digest depends on tracing",
        )
        coverage = traced["metrics"]["trace.coverage"]["value"]
        check(coverage >= 0.95, f"{workload}: self times cover only {coverage:.3f} of traced wall")
        _, other_info = bench(workload, 2, 0)
        check(other_info["inputs"] != untraced_info["inputs"], f"{workload}: seed does not change inputs")
        check(other_info["digest"] != untraced_info["digest"], f"{workload}: seed does not change outputs")
        print(f"selftest {workload}: ok (coverage {coverage:.3f})")

    with tempfile.TemporaryDirectory() as tmp:
        bare = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
        code, lines = run(["--workload", spec["workloads"][0]["name"], "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=bare)
        check(code != 0, "runs without the program's sources")
        check(not any(line.startswith("{") for line in lines), "printed a result without sources")
    print("selftest: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
