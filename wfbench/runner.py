"""The run procedure every workload shares: set-up, the timed phase, the
checks, and — for a traced run — the stage budget and the in-process peel.
"""

from __future__ import annotations

import statistics
import time
from pathlib import Path
from typing import Dict, Sequence, Tuple

import numpy as np

from repro.config import ClassifierConfig
from repro.serving import BatchScheduler, DeploymentManager, ReplicaSet, ShardedReferenceStore
from repro.serving.bench import _shard_index_factory
from repro.serving.protocol import FrontendClient

from measure import (
    TAIL, Budget, Spans, counter_total, hist_mean, hist_quantile, hist_summary, percentile_ms,
)
from server import ServerProcess
from workloads import DIM, K, SERVER_BATCH, Outcome, Phase, Workload


# ------------------------------------------------------------- stage budget
def server_layers(phase: Phase) -> Dict[str, float]:
    """Per-request / per-batch server stage means from histogram deltas.

    Batch stages come from trace spans, which every traced query in a
    batch repeats: dividing their sum by the ``scatter`` count gives the
    per-batch time weighted by the queries in each batch.
    """
    delta = phase.metrics_delta
    spans = delta.get("repro_trace_span_seconds")
    batches, _ = hist_summary(spans, stage="scatter")

    def per_batch(stage: str) -> float:
        return hist_summary(spans, stage=stage)[1] / batches if batches else 0.0

    return {
        "request": hist_mean(delta.get("repro_frontend_request_seconds")),
        "decode": hist_mean(delta.get("repro_frontend_decode_seconds")),
        "encode": hist_mean(delta.get("repro_frontend_encode_seconds")),
        "queue_wait": hist_mean(delta.get("repro_scheduler_queue_wait_seconds")),
        "batch_execute": per_batch("batch_execute"),
        "batch_assemble": per_batch("batch_assemble"),
        "scatter": per_batch("scatter"),
        "shard_scan": per_batch("shard_scan"),
        "merge": per_batch("merge"),
    }


def stage_budget(workload: Workload, phase: Phase, spans: Spans) -> Budget:
    """The workload's client stages, client framing and the server's
    self-times, per latency sample.

    The server's whole share is ``frontend.request`` (decode through
    encode); it is split into self-times that add back up to it, with
    ``frontend.dispatch`` the part outside decode, encode and the batch the
    request's queries waited for and ran in (the executor hop, per-query
    submits and cache lookups, result gathering).  ``frontend.dispatch``
    and ``classifier.vote`` are not measured but derived as leftovers, so
    the server's stages add up to the mean ``frontend.request`` by
    construction.  What the stages leave of the client's p50 — the socket,
    the event loop's read and anything unmeasured — is the residual.
    """
    budget = Budget(workload.budget_unit, phase.p50_s)
    for stage, seconds in workload.client_stages(phase, spans):
        budget.add(stage, seconds)
    layers = server_layers(phase)
    requests = max(phase.requests, 1)
    framing = spans.total("protocol.encode") + spans.total("protocol.decode")
    budget.add("protocol.client", framing / requests)
    budget.add("frontend.decode", layers["decode"])
    budget.add("frontend.encode", layers["encode"])
    batch = layers["queue_wait"] + layers["batch_execute"]
    budget.add(
        "frontend.dispatch",
        layers["request"] - layers["decode"] - layers["encode"] - batch,
        derived=True,
    )
    budget.add("scheduler.queue_wait", layers["queue_wait"])
    budget.add("scheduler.batch_assemble", layers["batch_assemble"])
    budget.add("store.scatter", layers["scatter"] - layers["shard_scan"])
    budget.add("store.shard_scan", layers["shard_scan"])
    budget.add("store.merge", layers["merge"])
    budget.add(
        "classifier.vote",
        layers["batch_execute"] - layers["batch_assemble"] - layers["scatter"] - layers["merge"],
        derived=True,
    )
    return budget


# ----------------------------------------------------------- in-process peel
def peel(workload: Workload, blocks: Sequence[np.ndarray], seconds: float) -> Dict[str, float]:
    """Replay the phase's request blocks in process, on a deployment built
    the way ``repro serve`` builds a wire-provisioned tenant.

    Times ``ServingSnapshot.predict`` (the store and vote alone), then
    ``BatchScheduler.classify`` (scheduler plus store) on the same blocks,
    and the ``DeploymentManager`` copy-on-write swaps of the same writes.
    """
    store = ShardedReferenceStore(
        DIM,
        n_shards=2,
        executor=ReplicaSet.in_process(1, router="least_loaded"),
        index_factory=_shard_index_factory(workload.index, workload.rerank, bits=workload.bits),
    )
    manager = DeploymentManager(store, ClassifierConfig(k=K))
    try:
        workload.mirror(manager)
        if workload.index == "ivfpq":
            manager.requantize()
        swaps = []
        for label, fresh in workload.writes:
            start = time.perf_counter()
            manager.replace_class(label, fresh)
            swaps.append(time.perf_counter() - start)
        snapshot = manager.snapshot()
        predict, total = [], []
        with BatchScheduler(manager, max_batch_size=SERVER_BATCH, max_latency_s=0.002) as scheduler:
            deadline = time.perf_counter() + seconds
            for block in blocks:
                queries = block.astype(np.float32).astype(np.float64)
                start = time.perf_counter()
                snapshot.predict(queries)
                predict.append(time.perf_counter() - start)
                start = time.perf_counter()
                scheduler.classify(queries)
                total.append(time.perf_counter() - start)
                if time.perf_counter() > deadline:
                    break
    finally:
        manager.close()
    return {
        "predict_s": float(np.mean(predict)) if predict else 0.0,
        "scheduler_overhead_s": float(np.mean(np.subtract(total, predict))) if total else 0.0,
        "swap_s": float(np.mean(swaps)) if swaps else 0.0,
    }


# -------------------------------------------------------------- run procedure
def _start(
    workload: Workload, root: Path, trace_sample: int
) -> Tuple[ServerProcess, FrontendClient, float]:
    """Start a server, provision the tenant; returns it with ``setup_s``."""
    server = ServerProcess(root, index_args=workload.index_args, trace_sample=trace_sample)
    workload.writes = []  # a fresh tenant
    try:
        client = server.client()
        workload.provision(client)
        return server, client, time.perf_counter() - server.started_at
    except BaseException:
        server.stop()
        raise


def _setup_once(workload: Workload, root: Path) -> float:
    """One throw-away set-up: start, provision, stop; returns ``setup_s``."""
    server, client, setup_s = _start(workload, root, trace_sample=0)
    client.close()
    server.stop()
    return setup_s


def run_untraced(workload: Workload, root: Path, seconds: float, names: Sequence[str]) -> Outcome:
    """End-to-end metrics, tracing off.  The set-ups are spread before and
    after the timed phase, so that their median spans more than one spell
    of the machine's speed; the last one before the phase serves it."""
    out = Outcome()
    workload.prepare()
    before = (workload.scale.setups + 1) // 2
    setups = [_setup_once(workload, root) for _ in range(before - 1)]
    server, client, setup_s = _start(workload, root, trace_sample=0)
    setups.append(setup_s)
    try:
        out.kernels = client.stats().get("native_kernels", {})
        phase = workload.phase(server, client, seconds, Spans(enabled=False))
        _check_phase(workload, phase, out)
        workload.after(client, phase, out)
        rss_mb = server.peak_rss_mb()
    finally:
        client.close()
        server.stop()
    setups += [_setup_once(workload, root) for _ in range(workload.scale.setups - before)]
    out.metric("setup_s", statistics.median(setups), "s")
    out.metric("throughput_per_s", phase.items / phase.seconds, "1/s")
    out.metric("p50_ms", percentile_ms(phase.latencies, 50), "ms")
    out.metric(f"p{TAIL}_ms", percentile_ms(phase.latencies, TAIL), "ms")
    out.metric("rss_mb", rss_mb, "MiB")
    out.lines.append(
        f"{workload.name}: {len(phase.latencies)} latency samples, {phase.items} items in "
        f"{phase.seconds:.2f} s, setups {', '.join(f'{s:.3f}' for s in setups)} s"
    )
    return _order(out, names)


def run_traced(workload: Workload, root: Path, seconds: float, names: Sequence[str]) -> Outcome:
    """Per-layer metrics: half the time untraced, half on a server with
    every query traced, then the in-process peel."""
    out = Outcome()
    workload.prepare()
    half = seconds / 2.0
    server, client, _ = _start(workload, root, trace_sample=0)
    try:
        plain = workload.phase(server, client, half, Spans(enabled=False))
    finally:
        client.close()
        server.stop()
    _check_phase(workload, plain, out)
    spans = Spans(enabled=True)
    server, client, _ = _start(workload, root, trace_sample=1)
    try:
        out.kernels = client.stats().get("native_kernels", {})
        phase = workload.phase(server, client, half, spans)
        _check_phase(workload, phase, out)
        workload.after(client, phase, out)
    finally:
        client.close()
        server.stop()
    peeled = peel(workload, phase.queries, workload.scale.peel_seconds)
    budget = stage_budget(workload, phase, spans)
    out.lines += budget.lines()
    layers = server_layers(phase)
    delta = phase.metrics_delta
    queries = sum(len(block) for block in phase.queries) or 1
    hits = counter_total(delta.get("repro_scheduler_cache_hits_total"))
    misses = counter_total(delta.get("repro_scheduler_cache_misses_total"))
    batches, _ = hist_summary(delta.get("repro_scheduler_batch_size"))
    us = 1e6
    rtts = [r for r in phase.rtts if np.isfinite(r)]
    embedded = max(sum(spans.values.get("nn.embed_batch", [])), 1)
    wait = delta.get("repro_scheduler_queue_wait_seconds")
    metrics = {
        "traces.extract_us": (spans.mean("traces.extract") * us, "us"),
        "traces.packets": (float(np.mean(spans.values.get("traces.packets", [0.0]))), "count"),
        "nn.embed_us": (spans.total("nn.embed") / embedded * us, "us"),
        "nn.embed_batch": (float(np.mean(spans.values.get("nn.embed_batch", [0.0]))), "count"),
        "protocol.rtt_us": (float(np.median(rtts)) * us if rtts else 0.0, "us"),
        "protocol.bytes_per_query": ((phase.request_bytes + phase.reply_bytes) / queries, "B"),
        "frontend.request_us": (layers["request"] * us, "us"),
        "frontend.decode_us": (layers["decode"] * us, "us"),
        "frontend.encode_us": (layers["encode"] * us, "us"),
        "scheduler.queue_wait_us": (hist_quantile(wait, 0.5) * us, "us"),
        "scheduler.queue_wait_p99_us": (hist_quantile(wait, 0.99) * us, "us"),
        "scheduler.batch_size": (hist_mean(delta.get("repro_scheduler_batch_size")), "count"),
        "scheduler.batches": (batches, "count"),
        "scheduler.cache_hit_ratio": (hits / (hits + misses) if hits + misses else 0.0, "ratio"),
        "scheduler.overhead_us": (peeled["scheduler_overhead_s"] * us, "us"),
        "store.scatter_us": (layers["scatter"] * us, "us"),
        "store.shard_scan_us": (layers["shard_scan"] * us, "us"),
        "store.merge_us": (layers["merge"] * us, "us"),
        "store.predict_us": (peeled["predict_s"] * us, "us"),
        "manager.swap_ms": (peeled["swap_s"] * 1e3, "ms"),
        "manager.swaps": (float(len(workload.writes)), "count"),
        "server.cpu_ms_per_kq": (phase.server_cpu_s * 1e3 / (queries / 1e3), "ms/kq"),
        "client.cpu_ms_per_kq": (phase.client_cpu_s * 1e3 / (queries / 1e3), "ms/kq"),
        "loadgen.late_p99_ms": (percentile_ms(phase.late, 99), "ms"),
        "loadgen.backlog": (float(phase.backlog), "count"),
        "obs.trace_overhead": (phase.p50_s / plain.p50_s, "ratio"),
        "budget.residual_us": (budget.residual_s * us, "us"),
    }
    for name, (value, unit) in metrics.items():
        out.metric(name, value, unit)
    out.lines.append(
        f"{workload.name} traced: {len(phase.latencies)} latency samples "
        f"(untraced half: {len(plain.latencies)}); client p50 {phase.p50_s * 1e3:.3f} ms traced, "
        f"{plain.p50_s * 1e3:.3f} ms untraced"
    )
    return _order(out, names)


def _check_phase(workload: Workload, phase: Phase, out: Outcome) -> None:
    """Count the phase's operations and failures; check its answers."""
    out.attempted += phase.requests
    out.failed += phase.failed
    workload.check(phase, out)


def _order(out: Outcome, names: Sequence[str]) -> Outcome:
    """Keep exactly the metrics ``BENCHMARK.json`` declares, in its order;
    a declared metric that was not measured is a bug."""
    missing = [name for name in names if name not in out.metrics]
    if missing:
        raise RuntimeError(f"metrics not measured: {missing}")
    out.metrics = {name: out.metrics[name] for name in names}
    return out
