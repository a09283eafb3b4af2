"""Self-tests of the benchmark itself.

Run from the root of a checkout::

    python3 wfbench/selftest.py

* every workload, at the small scale, prints exactly the metric names and
  units ``BENCHMARK.json`` lists (end-to-end with ``--trace 0``, per-layer
  with ``--trace 1``);
* flipping one label of the exact oracle trips the correctness gate and
  makes the run exit nonzero;
* a stub RSF1 server that stalls once shows the stall in the open-loop
  generator's due-time latencies, of the stalled request and of the
  requests queued behind it.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import socket
import subprocess
import sys
import threading
import time
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import numpy as np  # noqa: E402

from repro.serving import protocol  # noqa: E402

import openloop  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )


class MetricNames(unittest.TestCase):
    """Small runs emit every declared metric, with its declared unit."""

    def check(self, workload: str, trace: int, declared) -> None:
        result = _run("--workload", workload, "--seed", "3", "--seconds", "2",
                      "--trace", str(trace), "--scale", "small")
        self.assertEqual(result.returncode, 0, result.stderr[-2000:])
        line = json.loads(result.stdout.strip().splitlines()[-1])
        self.assertEqual(set(line), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(line["correct"])
        self.assertGreaterEqual(line["attempted"], 1)
        got = {name: entry["unit"] for name, entry in line["metrics"].items()}
        self.assertEqual(got, {entry["name"]: entry["unit"] for entry in declared})

    def test_every_workload(self) -> None:
        for entry in SPEC["workloads"]:
            for trace, declared in ((0, SPEC["end_to_end"]), (1, SPEC["per_layer"])):
                with self.subTest(workload=entry["name"], trace=trace):
                    self.check(entry["name"], trace, declared)


class CorrectnessGate(unittest.TestCase):
    """One wrong oracle label must fail the run."""

    def test_flipped_label_fails_the_run(self) -> None:
        honest = oracle.Oracle.rankings

        def flipped(self, queries, top_n):
            rankings = honest(self, queries, top_n)
            rankings[0]["labels"][0] += "-flipped"
            return rankings

        oracle.Oracle.rankings = flipped
        output = io.StringIO()
        try:
            with contextlib.redirect_stdout(output):
                code = run.main(
                    ["--workload", "trace-idle", "--seed", "4", "--seconds", "1"]
                    + ["--scale", "small"]
                )
        finally:
            oracle.Oracle.rankings = honest
        self.assertNotEqual(code, 0)
        self.assertIs(json.loads(output.getvalue().strip().splitlines()[-1])["correct"], False)


class StubServer:
    """Answers QUERY frames in order, sleeping ``stall_s`` before answering
    the ``stall_at``-th one."""

    def __init__(self, stall_at: int, stall_s: float) -> None:
        self.stall_at, self.stall_s = stall_at, stall_s
        self.listener = socket.create_server(("127.0.0.1", 0))
        self.address = self.listener.getsockname()
        self.thread = threading.Thread(target=self.serve, daemon=True)
        self.thread.start()

    def serve(self) -> None:
        conn, _ = self.listener.accept()
        with conn:
            answered = 0
            while True:
                try:
                    _, payload = protocol.recv_frame(conn)
                except protocol.ProtocolError:
                    return
                batch, _, _ = protocol.decode_query(payload)
                if answered == self.stall_at:
                    time.sleep(self.stall_s)
                answered += 1
                conn.sendall(protocol.encode_result(0, [(["stub"], [1.0])] * len(batch)))

    def close(self) -> None:
        self.listener.close()
        self.thread.join(timeout=5)


class OpenLoopHonesty(unittest.TestCase):
    """Latency is charged from the due time, so a stall delays everything
    queued behind it; the generator itself stays on schedule."""

    def test_stall_shows_in_due_time_latency(self) -> None:
        interval, stall_at, stall_s = 0.02, 10, 0.3
        stub = StubServer(stall_at, stall_s)
        frame = protocol.encode_query(np.zeros((1, 4)), 1)
        events = [openloop.Event(due=i * interval, conn=0, frame=frame) for i in range(16)]
        try:
            result = openloop.run_open_loop(stub.address, events, 1)
        finally:
            stub.close()
        latency = [event.latency_s for event in result.events]
        self.assertTrue(result.valid, f"generator late p99 {result.late_p99_s()}")
        self.assertLess(max(latency[:stall_at]), 0.1)
        self.assertGreaterEqual(latency[stall_at], stall_s)
        # Queued behind the stall: request i waits out the rest of it.
        for i in range(stall_at + 1, len(events)):
            self.assertGreaterEqual(latency[i], stall_s - (i - stall_at) * interval - 0.005)
        self.assertGreaterEqual(result.backlog, 1)


if __name__ == "__main__":
    os.chdir(ROOT)
    unittest.main(verbosity=2)
