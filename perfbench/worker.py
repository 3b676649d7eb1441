"""One workload in a fresh Python process.

Sets up (imports phsolve, numpy and scipy from the checkout's src/ and
writes the workload's input), makes one discarded warm-up call, then calls
phsolve.cli.main in a closed loop with one client until the given seconds
have passed.  Every call's artifacts are checked.  With --trace 1 the loop
alternates untraced and traced calls.  Prints one JSON object of raw
samples as its last line; run.py turns the samples into metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import io
import json
import math
import platform
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import phsolve  # noqa: E402
from phsolve import cli  # noqa: E402

import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402


def blas_record():
    """BLAS builds of numpy and scipy, and the thread count of every
    OpenBLAS library loaded in this process."""
    record = {}
    for mod in (np, scipy):
        blas = mod.show_config(mode="dicts")["Build Dependencies"]["blas"]
        record[f"{mod.__name__}_blas"] = f"{blas['name']} {blas['version']}"
    threads = {}
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line and ".so" in line}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
            "openblas_get_num_threads",
        ):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads[Path(lib).name] = fn()
                break
    record["blas_threads"] = threads
    return record


def call_once(argv, out, tracer=None):
    """One cli.main call, traced when a tracer is given; returns (exit code,
    seconds).  An exception escaping cli.main counts as exit code None."""
    shutil.rmtree(out, ignore_errors=True)  # no stale artifact can pass a check
    args = [*argv, "--out", str(out)]
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            if tracer is not None:
                return tracer.call(cli.main, args)
            start = time.perf_counter()
            code = cli.main(args)
            return code, time.perf_counter() - start
        except Exception:
            traceback.print_exc()
            return None, math.nan


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned", type=float, required=True, help="CLOCK_MONOTONIC at spawn")
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--smoke", action="store_true", help="tiny grids")
    parser.add_argument(
        "--wrong-expectation", action="store_true", help="expect another exit code"
    )
    args = parser.parse_args()
    if not Path(phsolve.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"phsolve imported from {phsolve.__file__}, not from {ROOT / 'src'}")

    wl = workloads.WORKLOADS[args.workload]
    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    argv, expect, exact = workloads.prepare(wl, args.seed, workdir, smoke=args.smoke)
    setup_s = time.clock_gettime(time.CLOCK_MONOTONIC) - args.spawned
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return
    if args.wrong_expectation:
        expect = {**expect, "exit": expect["exit"] + 1}

    out = workdir / "out"
    call_once(argv, out)  # warm-up, discarded
    tracer = Tracer() if args.trace else None
    samples = {"answer_s": [], "traced_answer_s": [], "discretization_error": [], "layers": []}
    attempted = failed = 0
    deadline = time.perf_counter() + args.seconds
    while True:
        for traced in (False, True) if tracer else (False,):
            if traced:
                tracer.install()
                try:
                    code, took = call_once(argv, out, tracer)
                finally:
                    tracer.uninstall()
                if code is not None:
                    layers = tracer.layer_metrics(wl.spans)
                    layers["cli.write_bytes"] = sum(f.stat().st_size for f in out.iterdir())
                    samples["layers"].append(layers)
                    samples["traced_answer_s"].append(took)
            else:
                code, took = call_once(argv, out)
                if code is not None:
                    samples["answer_s"].append(took)
            ok, error = workloads.check(wl, code, out, expect, exact)
            attempted += 1
            failed += not ok
            if not math.isnan(error):
                samples["discretization_error"].append(error)
        if time.perf_counter() >= deadline:
            break
    shutil.rmtree(out, ignore_errors=True)
    if tracer:
        tracer.write(workdir / "spans.npz")

    env = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        **blas_record(),
    }
    print(
        json.dumps(
            {
                "setup_s": setup_s,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "attempted": attempted,
                "failed": failed,
                "env": env,
                **samples,
            }
        )
    )


if __name__ == "__main__":
    main()
