"""Self-test of the benchmark itself, at tiny size.

    python3 e2ebench/selftest.py

Run from the repository root; it takes about a minute.  It checks that

- every workload runs, checks its outputs and prints every end-to-end metric
  of BENCHMARK.json with its unit, and a traced run every per-layer metric;
- the traced run prints the same output digest as the untraced one;
- a deliberately wrong expectation is counted as failed ops;
- in a directory holding only BENCHMARK.json and the benchmark, the run
  exits non-zero without printing a result.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED = 3


class SelfTestError(Exception):
    pass


def require(cond: bool, message: str) -> None:
    if not cond:
        raise SelfTestError(message)


def bench(workload: str, trace: int, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "e2ebench", "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def parse(done: subprocess.CompletedProcess, label: str) -> tuple[dict, str]:
    require(done.returncode == 0, f"{label}: exit {done.returncode}: {done.stderr[-500:]}")
    lines = done.stdout.splitlines()
    result = json.loads(lines[-1])
    require(set(result) == {"correct", "attempted", "failed", "metrics"},
            f"{label}: result keys {sorted(result)}")
    require(result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1,
            f"{label}: outputs failed their checks: {lines[:-1]}")
    digests = [line.split()[-1] for line in lines if line.startswith("digest ")]
    require(len(digests) == 1, f"{label}: expected one digest line")
    return result, digests[0]


def same_metrics(result: dict, wanted: list[dict], label: str) -> None:
    got = result["metrics"]
    require(set(got) == {m["name"] for m in wanted},
            f"{label}: metrics {sorted(got)} differ from BENCHMARK.json")
    for m in wanted:
        entry = got[m["name"]]
        require(entry["unit"] == m["unit"], f"{label}: {m['name']} unit {entry['unit']!r}")
        require(isinstance(entry["value"], (int, float)), f"{label}: {m['name']} not a number")


def check_workloads(spec: dict) -> None:
    for w in spec["workloads"]:
        name = w["name"]
        plain, digest = parse(bench(name, 0), f"{name} untraced")
        same_metrics(plain, spec["end_to_end"], f"{name} untraced")
        for m in ("ops_per_s", "op_p50_ms", "setup_s", "peak_rss_mb"):
            require(plain["metrics"][m]["value"] > 0, f"{name}: {m} is not positive")
        traced, traced_digest = parse(bench(name, 1), f"{name} traced")
        same_metrics(traced, spec["per_layer"], f"{name} traced")
        require(digest == traced_digest, f"{name}: traced digest differs from untraced")
        print(f"ok {name}: {plain['attempted']} ops checked, digest {digest[:12]}")


def check_wrong_expectation() -> None:
    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
    import run
    import workloads

    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".e2ebench_selftest-") as workdir:
        wl = workloads.AnalyzeMix(SEED, workdir, tiny=True)
        good = run.measure(wl, 0.0)
        wl.expect_uniform = False  # every generated chain is in fact uniform
        bad = run.measure(wl, 0.0)
    share = [r.failed / r.attempted for r in (good, bad)]
    require(share[0] == 0.0 and share[1] > share[0],
            f"wrong expectation not counted: fail share {share[0]} -> {share[1]}")
    print(f"ok wrong expectation: fail share {share[0]} -> {share[1]:.3f}")


def check_bare_directory() -> None:
    bare = tempfile.mkdtemp(dir=ROOT, prefix=".e2ebench_selftest-")
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "e2ebench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        done = bench("analyze-mix", 0, cwd=bare)
        require(done.returncode != 0, "bare directory: exit code 0")
        require('"metrics"' not in done.stdout, "bare directory: printed a result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print(f"ok bare directory: exit {done.returncode}, no result")


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    try:
        check_workloads(spec)
        check_wrong_expectation()
        check_bare_directory()
    except SelfTestError as exc:
        print(f"FAIL {exc}")
        return 1
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
