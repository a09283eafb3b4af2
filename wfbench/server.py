"""Start, probe and stop one ``repro serve`` process for the benchmark.

The server runs exactly as its users start it — ``python -m repro serve``
from the checkout's ``src`` tree — with the default serial executor and
one replica.  Its default tenant is kept tiny; every workload provisions a
named tenant over the wire instead.  Everything the process writes (the
compiled-kernel cache, temp files) stays inside the checkout.
"""

from __future__ import annotations

import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.obs import parse_prometheus
from repro.serving.protocol import FrontendClient

_READY = re.compile(r" on (?P<host>[^:\s]+):(?P<port>\d+) ")
_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


def checkout_env(root: Path) -> Dict[str, str]:
    """Environment for every process the benchmark starts: sources from the
    checkout, kernel cache and temp files under ``.bench_build``."""
    build = root / ".bench_build"
    (build / "tmp").mkdir(parents=True, exist_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env["REPRO_KERNEL_CACHE"] = str(build / "kernels")
    env["TMPDIR"] = str(build / "tmp")
    # The server announces its port with a plain print; unbuffered, the
    # line reaches the pipe at once instead of when a block fills.
    env["PYTHONUNBUFFERED"] = "1"
    return env


class ServerProcess:
    """One ``repro serve`` child process on an ephemeral port."""

    def __init__(
        self,
        root: Path,
        *,
        index_args: List[str],
        trace_sample: int = 0,
        start_timeout_s: float = 60.0,
    ) -> None:
        command = [
            sys.executable, "-m", "repro", "serve",
            "--port", "0",
            # The default tenant is a placeholder; workloads use a named one.
            "--references", "64", "--classes", "8",
            "--slow-query-ms", "0",
            "--trace-sample", str(trace_sample),
            *index_args,
        ]
        self.started_at = time.perf_counter()
        self._process = subprocess.Popen(
            command,
            cwd=root,
            env=checkout_env(root),
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
        )
        deadline = time.monotonic() + start_timeout_s
        line = ""
        while time.monotonic() < deadline:
            line = self._process.stdout.readline()
            if not line or _READY.search(line):
                break
        match = _READY.search(line)
        if match is None:
            self.stop()
            raise RuntimeError(f"repro serve did not come up (last line: {line!r})")
        self.host = match.group("host")
        self.port = int(match.group("port"))

    @property
    def pid(self) -> int:
        """The server's process id."""
        return self._process.pid

    def client(self) -> FrontendClient:
        """A fresh blocking connection to the server."""
        return FrontendClient(self.host, self.port)

    def cpu_seconds(self) -> float:
        """User + system CPU the server has used so far."""
        fields = Path(f"/proc/{self.pid}/stat").read_text().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / _CLOCK_TICKS

    def peak_rss_mb(self) -> float:
        """The server's peak resident set (``VmHWM``) in MiB."""
        for line in Path(f"/proc/{self.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing from /proc status")

    def stop(self) -> None:
        """Interrupt the server (its Ctrl-C path) and wait for it to exit."""
        process = self._process
        if process.poll() is None:
            process.send_signal(signal.SIGINT)
            try:
                process.wait(timeout=20)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait()
        if process.stdout is not None:
            process.stdout.close()


def scrape(client: FrontendClient) -> Dict[str, Dict]:
    """The server's metric families, parsed from the ``metrics`` control op."""
    return parse_prometheus(client.metrics()["exposition"])


def family_delta(before: Dict[str, Dict], after: Dict[str, Dict], name: str) -> Optional[Dict]:
    """``after - before`` of one counter/histogram family, sample by sample,
    so quantiles and means cover only the interval between two scrapes."""
    if name not in after:
        return None
    previous = {
        (sample, tuple(sorted(labels.items()))): value
        for sample, labels, value in (before.get(name) or {"samples": []})["samples"]
    }
    samples = [
        (sample, labels, value - previous.get((sample, tuple(sorted(labels.items()))), 0.0))
        for sample, labels, value in after[name]["samples"]
    ]
    return dict(after[name], samples=samples)


# The server histograms and counters a traced phase folds in.
SERVER_FAMILIES = (
    "repro_frontend_request_seconds",
    "repro_frontend_decode_seconds",
    "repro_frontend_encode_seconds",
    "repro_scheduler_queue_wait_seconds",
    "repro_scheduler_batch_size",
    "repro_scheduler_cache_hits_total",
    "repro_scheduler_cache_misses_total",
    "repro_trace_span_seconds",
)


class Metered:
    """Server CPU, client CPU and, when traced, server-metric deltas
    across one timed phase (the scrapes bracket the phase only)."""

    def __init__(self, server: ServerProcess, client: FrontendClient, *, traced: bool) -> None:
        self.server, self.client, self.traced = server, client, traced
        self.before = scrape(client) if traced else {}
        self.server_cpu = server.cpu_seconds()
        self.client_cpu = time.process_time()

    def close(self) -> Tuple[float, float, Dict[str, Optional[Dict]]]:
        """``(server CPU s, client CPU s, {family: delta})`` since start."""
        server_cpu = self.server.cpu_seconds() - self.server_cpu
        client_cpu = time.process_time() - self.client_cpu
        deltas: Dict[str, Optional[Dict]] = {}
        if self.traced:
            after = scrape(self.client)
            deltas = {name: family_delta(self.before, after, name) for name in SERVER_FAMILIES}
        return server_cpu, client_cpu, deltas
