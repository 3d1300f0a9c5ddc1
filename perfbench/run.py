"""Benchmark of the checked-out ``aspec`` package: three closed-loop workloads.

    python3 perfbench/run.py --workload cli-mix --seed 1 --seconds 30 --trace 0

--trace 0 prints the end-to-end metrics of one workload (op latency p50/p90,
ops per second, set-up time, peak memory); --trace 1 runs the same kind of
ops under timing wrappers and prints per-layer metrics plus the tracing
overhead.  Outputs of every op are checked outside the timed region.  The
last line of stdout is one JSON object: correct, attempted, failed, metrics.
See perfbench/README.md for the workloads and the metric map.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from importlib import metadata
from pathlib import Path

# BLAS threads are pinned before numpy loads, here and in every child process
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(PINNED)

import numpy as np  # noqa: E402

import inputs  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
SETUP_REPEATS = 3  # set-ups per run; setup_s is their median
IMPORT_PROBES = 3
CLI_TIMEOUT_S = 60
WORKER_SLACK_S = 100


class BenchError(RuntimeError):
    """The run cannot produce a result (missing package, crashed worker, detached tracing)."""


def child_env() -> dict:
    env = dict(os.environ, **PINNED)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])])
    return env


def run_worker(args: list[str], result: Path, seconds: float) -> dict:
    """Run worker.py in a fresh interpreter and return the JSON it wrote to ``result``, its last argument."""
    proc = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), *args, str(result)],
        env=child_env(),
        cwd=ROOT,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        timeout=seconds + WORKER_SLACK_S,
    )
    if proc.returncode != 0:
        raise BenchError(f"worker {args[0]} failed with exit {proc.returncode}:\n{proc.stderr[-3000:]}")
    return json.loads(result.read_text())


def run_cli(argv: list[str]) -> tuple[float, subprocess.CompletedProcess]:
    t = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "aspec.cli", *argv],
        env=child_env(),
        cwd=ROOT,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        timeout=CLI_TIMEOUT_S,
    )
    return time.perf_counter() - t, proc


def children_peak_rss_mb() -> float:
    # ru_maxrss of waited-for children is the largest single child, in KiB on Linux
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024


# ---------------------------------------------------------------------------
# untraced runs: end-to-end metrics
# ---------------------------------------------------------------------------


def cli_mix(seed: int, seconds: float, work: Path) -> tuple[list[float], list[float], list[dict], float]:
    inputs.write_cli_inputs(seed, work)
    # set-up of a CLI user: a fresh interpreter importing the package and doing one op
    warm = inputs.cli_argv(inputs.cli_op(0), seed, work)
    setups = []
    for _ in range(SETUP_REPEATS):
        dt, proc = run_cli(warm)
        if proc.returncode != 0:
            raise BenchError(f"warm-up op failed: {proc.stderr[-2000:]}")
        setups.append(dt)
    latencies, records, timed, i = [], [], 0.0, 0
    while timed < seconds or i % inputs.CLI_PERIOD or not latencies:
        op = inputs.cli_op(i)
        dt, proc = run_cli(inputs.cli_argv(op, seed, work))
        latencies.append(dt * 1000)
        records.append({"op": op, "code": proc.returncode, "stdout": proc.stdout})
        timed += dt
        i += 1
    peak = children_peak_rss_mb()  # taken before the checker process runs
    outputs = work / "outputs.json"
    outputs.write_text(json.dumps(records))
    check = run_worker(["clicheck", str(seed), str(work), str(outputs)], work / "check.json", seconds)
    return setups, latencies, check["failures"], peak


def in_process(workload: str, seed: int, seconds: float, work: Path) -> tuple[list[float], list[float], list[dict], float]:
    # the timed phase is split over SETUP_REPEATS fresh interpreters, each paying the set-up once
    # and running whole periods of the schedule
    setups, latencies, failures, start = [], [], [], 0
    for w in range(SETUP_REPEATS):
        res = run_worker(["run", workload, str(seed), str(start), str(seconds / SETUP_REPEATS)], work / f"run{w}.json", seconds)
        setups.append(res["setup_s"])
        latencies += res["latencies_ms"]
        failures += res["failures"]
        start = res["next"]
    return setups, latencies, failures, children_peak_rss_mb()


def end_to_end(workload: str, seed: int, seconds: float, work: Path) -> tuple[dict, int, list[dict]]:
    if workload == "cli-mix":
        setups, latencies, failures, peak = cli_mix(seed, seconds, work)
    else:
        setups, latencies, failures, peak = in_process(workload, seed, seconds, work)
    lat = np.asarray(latencies)
    p50, p90 = np.percentile(lat, [50, 90])
    metrics = {
        "op_ms_p50": (p50, "ms"),
        "op_ms_p90": (p90, "ms"),
        "ops_per_s": (len(lat) / (lat.sum() / 1000), "1/s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (peak, "MB"),
    }
    print(f"{workload}: {len(lat)} ops, {int((lat > p90).sum())} beyond p90; set-ups {[round(s, 4) for s in setups]}")
    print(f"{workload}: fail_frac {len(failures) / len(lat):.4f} ({len(failures)} of {len(lat)} ops failed)")
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, len(lat), failures


# ---------------------------------------------------------------------------
# traced runs: per-layer metrics
# ---------------------------------------------------------------------------


def import_times() -> dict:
    """Cumulative import times of ``import aspec.cli`` in a fresh interpreter, from -X importtime."""
    probes = []
    for _ in range(IMPORT_PROBES):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import aspec.cli"],
            env=child_env(),
            cwd=ROOT,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
            timeout=CLI_TIMEOUT_S,
        )
        if proc.returncode != 0:
            raise BenchError(f"import aspec.cli failed: {proc.stderr[-2000:]}")
        # lines come in completion order, children before their parent; reversed,
        # each line's ancestors are the names on a stack indexed by depth
        totals = {"aspec_cli": 0, "scipy": 0, "harness": 0, "numpy": 0}
        stack: list[str] = []
        for line in reversed(proc.stderr.splitlines()):
            if not line.startswith("import time:") or "imported package" in line:
                continue
            _, cum_us, name = line[len("import time:") :].split("|")
            depth = (len(name) - len(name.lstrip(" ")) - 1) // 2
            name = name.strip()
            stack[depth:] = [name]
            outer = [s.split(".")[0] for s in stack[:depth]]
            if depth == 0 and name.split(".")[0] == "aspec":
                totals["aspec_cli"] += int(cum_us)
            if name == "aspec.harness":
                totals["harness"] += int(cum_us)
            for pkg in ("scipy", "numpy"):
                if name.split(".")[0] == pkg and pkg not in outer:
                    totals[pkg] += int(cum_us)
        probes.append({f"import.{k}_ms": v / 1000 for k, v in totals.items()})
    return {k: {"value": statistics.median(p[k] for p in probes), "unit": "ms"} for k in probes[0]}


def per_layer(workload: str, seed: int, seconds: float, work: Path) -> tuple[dict, int, list]:
    if workload == "cli-mix":
        inputs.write_cli_inputs(seed, work)
    spans = OUT / f"spans-{workload}.jsonl"  # the latest traced run of each workload
    res = run_worker(["trace", workload, str(seed), str(seconds), str(work), str(spans)], work / "trace.json", seconds)
    metrics = {**import_times(), **res["metrics"]}
    print(f"{workload}: traced {res['attempted']} ops; spans in {spans.relative_to(ROOT)}")
    return metrics, res["attempted"], res["failures"]


# ---------------------------------------------------------------------------


def environment() -> dict:
    head = ROOT / ".git" / "HEAD"
    commit = "unknown"
    if head.is_file():
        ref = head.read_text().strip()
        target = ROOT / ".git" / ref[5:] if ref.startswith("ref: ") else None
        commit = target.read_text().strip() if target and target.is_file() else ref
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    try:
        scipy = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        scipy = "absent"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": PINNED,
        "nproc": os.cpu_count(),
        "commit": commit,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be a nonnegative integer")
    if not (SRC / "aspec" / "__init__.py").is_file():
        print(f"error: no package to benchmark at {SRC / 'aspec'}", file=sys.stderr)
        return 2
    work = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        measure = per_layer if args.trace else end_to_end
        metrics, attempted, failures = measure(args.workload, args.seed, args.seconds, work)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for failure in failures[:5]:
        print(f"failed op: {failure}", file=sys.stderr)
    print("environment: " + json.dumps(environment()))
    for name, m in metrics.items():
        print(f"  {name:<44} {m['value']:>14.6g} {m['unit']}")
    result = {"correct": not failures, "attempted": attempted, "failed": len(failures), "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
