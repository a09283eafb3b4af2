"""Run one benchmark workload against a real ``repro serve`` process.

Usage, from the root of a checkout::

    python3 wfbench/run.py --workload attack-batch --seed 1 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics (tracing off); ``--trace 1``
prints the per-layer metrics and the stage budget from a traced run.  The
last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  Every answer is checked
against an exact oracle; any mismatch or failed operation makes the exit
code nonzero.  Each result, with its provenance header, is appended to
``.bench_results/history.jsonl`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", required=True, choices=("attack-batch", "trace-idle", "serve-open")
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale", choices=("full", "small"), default="full",
        help="input sizes; 'small' is for the benchmark's self-tests",
    )
    return parser.parse_args(argv)


def git_sha(root: Path) -> str:
    """The checkout's commit, or ``unknown`` outside a git repository."""
    if not (root / ".git").exists():
        return "unknown"
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=root, capture_output=True, text=True, check=True, timeout=10,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def main(argv=None) -> int:
    args = parse_args(argv)
    # A terminated run still stops the servers it started (``finally``).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(
            f"error: {root} holds no repro sources (src/repro); run from a checkout's root",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, str(root / "src"))
    sys.path.insert(0, str(HERE))
    # Client and server share this box's cores: one BLAS thread each, or
    # OpenBLAS's spinning workers of one process steal the other's core.
    # Set before NumPy loads; the server inherits it.
    os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    import numpy as np

    from server import checkout_env

    # This process compiles kernels and makes temp files too: keep them in
    # the checkout, like the server's.
    env = checkout_env(root)
    os.environ.update(REPRO_KERNEL_CACHE=env["REPRO_KERNEL_CACHE"], TMPDIR=env["TMPDIR"])

    from openloop import InvalidRun
    from runner import run_traced, run_untraced
    from workloads import FULL, SMALL, WORKLOADS

    spec = json.loads((root / "BENCHMARK.json").read_text())
    names = [entry["name"] for entry in spec["per_layer" if args.trace else "end_to_end"]]
    workload = WORKLOADS[args.workload](args.seed, SMALL if args.scale == "small" else FULL)
    started = time.time()
    try:
        outcome = (run_traced if args.trace else run_untraced)(workload, root, args.seconds, names)
    except InvalidRun as error:
        print(f"invalid run: {error}", file=sys.stderr)
        return 3
    provenance = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "scale": args.scale,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "native_kernels": outcome.kernels,
        "git_sha": git_sha(root),
        "started_at": started,
    }
    for line in outcome.lines:
        print(line)
    for problem in outcome.problems:
        print(f"CORRECTNESS: {problem}")
    correct = not outcome.problems
    result = {
        "correct": correct,
        "attempted": int(outcome.attempted),
        "failed": int(outcome.failed),
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in outcome.metrics.items()
        },
    }
    history = root / ".bench_results"
    history.mkdir(exist_ok=True)
    with open(history / "history.jsonl", "a", encoding="utf-8") as sink:
        sink.write(json.dumps({"provenance": provenance, "result": result}) + "\n")
    print("provenance " + json.dumps(provenance))
    print(json.dumps(result))
    return 0 if correct and outcome.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
