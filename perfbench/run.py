"""phsolve benchmark: run a workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S
    python3 perfbench/run.py --selftest

Each workload runs in its own fresh Python process (worker.py) that calls
phsolve.cli.main in-process in a closed loop with one client.  Setup time
is the median over that process and SETUP_PROBES more processes that only
set up, half of them started before it and half after.  BLAS and OpenMP threads are pinned to the number of CPUs this
process may use.  The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics: the end_to_end metrics of
BENCHMARK.json with --trace 0, its per_layer metrics with --trace 1.
README.md explains the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
SETUP_PROBES = 4
WORKER_TIMEOUT_S = 150
PROBE_TIMEOUT_S = 30

sys.path.insert(0, str(HERE))
from workloads import WORKLOADS  # noqa: E402


def nproc():
    return len(os.sched_getaffinity(0))


def git_commit():
    """HEAD of the checkout, read from .git; None outside a git checkout."""
    git = ROOT / ".git"
    try:
        ref = (git / "HEAD").read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        if (git / name).exists():
            return (git / name).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def spawn(name, seed, seconds, trace, extra, timeout):
    """Run worker.py to completion and return its JSON result."""
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(nproc())
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", name, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(trace), "--workdir", str(OUT / name), *extra,
        "--spawned", repr(time.clock_gettime(time.CLOCK_MONOTONIC)),
    ]
    done = subprocess.run(
        cmd, stdout=subprocess.PIPE, text=True, env=env, timeout=timeout, check=False
    )
    if done.returncode != 0:
        raise RuntimeError(f"worker for {name} exited with status {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def _spread(values):
    if len(values) < 2:
        return ""
    q = statistics.quantiles(values, n=4)
    return f", quartiles {q[0]:.4g}..{q[2]:.4g}"


def measure(name, seed, seconds, trace, extra=(), probes=SETUP_PROBES):
    """Run one workload.  Returns the result record: attempted, failed,
    env, and metrics as name -> (value, note); the per-layer metrics
    are present only when traced."""
    def probe():
        return spawn(name, seed, 0, 0, ("--setup-only", *extra), PROBE_TIMEOUT_S)["setup_s"]

    # probes before and after the measured process, so a slow spell of the
    # machine during one of them moves the median less
    setups = [probe() for _ in range(probes // 2)]
    raw = spawn(name, seed, seconds, trace, extra, WORKER_TIMEOUT_S)
    setups += [raw["setup_s"], *(probe() for _ in range(probes - probes // 2))]
    answers, errors = raw["answer_s"], raw["discretization_error"]
    if not answers:
        raise RuntimeError(f"no call on {name} returned")
    attempted, failed = raw["attempted"], raw["failed"]
    metrics = {
        "answer_s": (statistics.median(answers),
                     f"median of {len(answers)} calls{_spread(answers)}"),
        "setup_s": (statistics.median(setups),
                    f"median of {len(setups)} processes{_spread(setups)}"),
        "peak_rss_mb": (raw["peak_rss_mb"], "ru_maxrss of the workload process"),
        "discretization_error": (
            statistics.median(errors) if errors else math.nan,
            f"median of {len(errors)} calls{_spread(errors)}",
        ),
        "failed_frac": (failed / attempted, f"{failed} of {attempted} calls"),
    }
    if trace:
        rows, traced = raw["layers"], raw["traced_answer_s"]
        if not rows:
            raise RuntimeError(f"no traced call on {name} returned")
        for key in rows[0]:
            values = [row[key] for row in rows]
            metrics[key] = (statistics.median(values), f"median of {len(values)} traced calls")
        base, slow = statistics.median(answers), statistics.median(traced)
        metrics["trace_overhead"] = (
            slow / base - 1.0, f"traced {slow:.4f} s / untraced {base:.4f} s - 1"
        )
    env = {"seed": seed, "nproc": nproc(), "git_commit": git_commit(), **raw["env"]}
    return {"attempted": attempted, "failed": failed, "metrics": metrics, "env": env}


def report(name, seed, trace, result, spec):
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    print(f"workload {name}  seed {seed}  trace {trace}  "
          f"calls {result['attempted']} (+1 warm-up)  failed {result['failed']}")
    for key, (value, note) in result["metrics"].items():
        print(f"  {key:28s} {value:<14.6g} {units.get(key, 'ratio'):6s} {note}")
    print("env " + json.dumps(result["env"]))


def select(result, spec, trace, prefix=""):
    """The metrics BENCHMARK.json lists for this mode, with its units; a
    value that could not be measured is null."""
    out = {}
    for m in spec["per_layer" if trace else "end_to_end"]:
        value = result["metrics"][m["name"]][0]
        out[prefix + m["name"]] = {
            "value": value if math.isfinite(value) else None,
            "unit": m["unit"],
        }
    return out


def selftest(spec):
    """Run every workload once on tiny grids, traced, and check that every
    listed metric is produced and every check passes; then check that a
    deliberately wrong expectation fails every call."""
    problems = []
    for name in WORKLOADS:
        result = measure(name, 1, 0, 1, ("--smoke",), probes=0)
        report(name, 1, 1, result, spec)
        for trace in (0, 1):
            names = {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}
            if missing := names - set(result["metrics"]):
                problems.append(f"{name}: no metric {sorted(missing)}")
        if result["failed"]:
            problems.append(f"{name}: {result['failed']} calls failed their check")
    result = measure("wellposed", 1, 0, 0, ("--smoke", "--wrong-expectation"), probes=0)
    if result["metrics"]["failed_frac"][0] != 1.0:
        problems.append("a wrong expectation did not fail every call")
    for line in problems:
        print("selftest FAIL: " + line)
    print("selftest " + ("failed" if problems else "ok"))
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not (ROOT / "src" / "phsolve" / "__init__.py").is_file():
        print(f"error: no phsolve sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.selftest:
        return selftest(spec)
    if args.workload is None:
        parser.error("--workload is required")
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    attempted = failed = 0
    metrics = {}
    for name in names:
        result = measure(name, args.seed, args.seconds, args.trace)
        report(name, args.seed, args.trace, result, spec)
        record = OUT / name / f"result-trace{args.trace}.json"
        record.write_text(json.dumps(result, indent=1) + "\n")
        attempted += result["attempted"]
        failed += result["failed"]
        prefix = f"{name}." if args.workload == "all" else ""
        metrics.update(select(result, spec, args.trace, prefix))
    print(json.dumps(
        {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    ))
    return 0


if __name__ == "__main__":
    sys.exit(main())
