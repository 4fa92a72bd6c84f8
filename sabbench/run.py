#!/usr/bin/env python3
"""Benchmark of sablab's four workloads, from a checkout of the repository.

    python3 sabbench/run.py --workload certify --seed 1 --seconds 20 --trace 0
    python3 sabbench/run.py --workload all --smoke

One process runs one workload with one Python thread, in a closed loop:
each call waits for the last.  After set-up it repeats whole rounds of the
workload's fixed calls until ``--seconds`` have passed (at least two
rounds).  The last line of standard output is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics``.

* ``--trace 0`` reports the end-to-end metrics: ``round_ref`` (the mean
  program time of a round divided by the mean time of a fixed reference
  computation timed between rounds, which cancels much of the change in
  the speed the host gives this process), ``setup_s`` (the median of five
  imports of sablab in a fresh interpreter plus the median of five input
  constructions) and ``peak_rss_mb``.
* ``--trace 1`` runs untraced rounds for the first half of the time and
  traced rounds for the rest, and reports the per-layer metrics per traced
  round plus ``trace.overhead_s``, the traced minus the untraced median
  round time.  The span table goes to ``sabbench/_out/``.

Earlier lines print the numeric environment, the round time in seconds
(``round_s``) and each workload's own rates (``fbs_points_per_s``,
``amp_updates_per_s``, ...) by name and unit.
``--smoke`` runs a tiny size with every check on, to catch rot quickly.
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
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("certify", "simulate-wide", "search-small", "verify-suite")
SETUP_REPEATS = 5
MIN_ROUNDS = 2

# Pin BLAS to one thread unless the caller chose otherwise: multi-threaded
# OpenBLAS has an intermittent cliff on the small complex matmuls of qsim.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np  # noqa: E402  (after the thread setting)


def environment() -> dict:
    import sablab

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "openblas_num_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "kernel_backend": getattr(sablab, "kernel_backend", None),
        "machine": platform.machine(),
    }


def _reference_once() -> float:
    start = time.perf_counter()
    total = Fraction(0)
    for i in range(1, 3_000):
        total += Fraction(1, i % 97 + 1)
    table: dict = {}
    for i in range(25_000):
        key = (i & 1023, i % 7)
        table[key] = table.get(key, 0) + i
    small = np.linspace(0.0, 1.0, 11 * 256).reshape(11, 256)
    for _ in range(1_000):
        small = small - 1e-3 * (small[:, :1] * small[:1])
        small[np.abs(small) < 1e-9] = 0.0
    big = np.ones(1 << 19, dtype=np.complex128)  # 8 MiB, updated in place
    for _ in range(24):
        np.multiply(big, 1.0 + 0.0j, out=big)
    return time.perf_counter() - start


def reference() -> float:
    """Seconds for a fixed mix of rational, interpreter, small-array and large-array work.

    Each part follows the host's speed for one kind of sablab work: Fraction
    and small arrays for the LP solvers, the 8 MiB passes for the kernels.

    Timed between rounds, so ``round_ref`` can state the round time in units
    of what the host delivered to this process over the same run.  The
    median of three repeats damps the reference's own jitter.  It makes no
    BLAS call, so the BLAS thread setting does not move it.
    """
    return statistics.median(_reference_once() for _ in range(3))


def _import_seconds() -> float:
    """Time to import the package in a fresh interpreter, as a user's first call pays it."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
            "import sablab, sablab.cli; print(time.perf_counter() - t)")
    proc = subprocess.run([sys.executable, "-c", code, str(SRC)], stdout=subprocess.PIPE, text=True, check=True)
    return float(proc.stdout)


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def run_workload(args) -> int:
    if not (SRC / "sablab" / "__init__.py").is_file():
        print(f"sabbench: no sablab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    import workloads  # imports numpy and sablab

    cls = workloads.WORKLOADS[args.workload]
    builds = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        wl = cls(args.seed, smoke=args.smoke)
        builds.append(time.perf_counter() - start)
    setup_s = _median([_import_seconds() for _ in range(SETUP_REPEATS)]) + _median(builds)
    setup_errors = list(getattr(wl, "setup_errors", ()))

    untraced: list = []
    traced: list = []
    layer_rounds: list[dict] = []
    tracer = None
    begin = time.perf_counter()
    deadline = begin + args.seconds
    switch = begin + args.seconds / 2 if args.trace else deadline
    index = 0
    refs = [reference()]
    try:
        while True:
            now = time.perf_counter()
            done = len(untraced) + len(traced)
            if args.trace:
                if tracer is None and untraced and now >= switch:
                    import tracing

                    tracer = tracing.Tracer()
                    tracer.install()
                if traced and now >= deadline:
                    break
            elif done >= MIN_ROUNDS and now >= deadline:
                break
            r = workloads.Round()
            wl.round(r, index)
            refs.append(reference())
            index += 1
            if tracer is None:
                untraced.append(r)
            else:
                traced.append(r)
                table = tracer.span_table()
                layer_rounds.append(tracer.collect(table))
                tracer.reset()
    finally:
        if tracer is not None:
            tracer.uninstall()
        close = getattr(wl, "close", None)
        if close is not None:
            close()

    rounds = untraced + traced
    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    env = environment()
    print("env " + json.dumps(env, sort_keys=True))
    print(f"workload {args.workload} seed {args.seed} rounds {len(rounds)} "
          f"(traced {len(traced)}) attempted {attempted} failed {failed}")
    for err in setup_errors:
        print(f"FAILED [setup] {err}", file=sys.stderr)

    if args.trace:
        metrics = {}
        for name, (unit, _) in tracing.LAYER_METRICS.items():
            value = sum(m[name] for m in layer_rounds) / len(layer_rounds)
            metrics[name] = {"value": int(value) if unit != "s" and value == int(value) else value, "unit": unit}
        overhead = _median([r.seconds for r in traced]) - _median([r.seconds for r in untraced])
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
        workloads.OUT_DIR.mkdir(exist_ok=True)
        out = workloads.OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        out.write_text(json.dumps({"workload": args.workload, "seed": args.seed, "env": env,
                                   "traced_rounds": len(traced), "unhooked": tracer.unhooked,
                                   "per_layer": metrics, "spans_last_round": table},
                                  indent=1, sort_keys=True), encoding="utf-8")
    else:
        metrics = {
            "round_ref": {"value": statistics.fmean(r.seconds for r in rounds) / statistics.fmean(refs), "unit": "ref"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MB"},
        }
    print(f"detail round_s {_median([r.seconds for r in rounds]):.6g} s")
    for name, value, unit in cls.details(rounds):
        print(f"detail {name} {value:.6g} {unit}")
    for name, m in metrics.items():
        print(f"metric {name} {m['value']:.6g} {m['unit']}")
    result = {
        "correct": failed == 0 and not setup_errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result, sort_keys=True))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, so peak RSS is per workload."""
    summary = {}
    code = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        for line in lines[:-1]:
            print(f"[{name}] {line}")
        if proc.returncode != 0 or not lines:
            print(f"[{name}] exited with {proc.returncode}", file=sys.stderr)
            code = 1
            continue
        summary[name] = json.loads(lines[-1])
        code = code or (0 if summary[name]["correct"] else 1)
    print(json.dumps(summary, sort_keys=True))
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, help="measured time (default 20, or 0 with --smoke)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, every check on")
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = 0.0 if args.smoke else 20.0
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
