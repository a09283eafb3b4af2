"""The benchmark's three workloads.

* ``attack-batch`` — the attacker's whole path at saturation: fresh
  captures are extracted, embedded at the model's default batch size and
  classified in requests of the server's max batch size (exact index).
* ``trace-idle`` — the same path one capture at a time, closed loop.
* ``serve-open`` — server only: a fixed-rate open loop of embedding
  requests plus page-update writes against a 4-bit IVF-PQ tenant.

Every workload provisions a named tenant on a real ``repro serve`` process
over RSF1 (``tenant create``, ``add``, and ``requantize`` for IVF-PQ),
checks every answer against an exact oracle, and measures only the
program: input generation happens outside every timed section.  The run
procedure they share is in :mod:`runner`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.serving import protocol
from repro.serving.protocol import FrontendClient, ProtocolError
from repro.traces import SequenceExtractor

import inputs
from measure import Spans, percentile_ms
from openloop import Event, InvalidRun, run_open_loop
from oracle import Oracle, foreign_labels, mismatches
from server import Metered, ServerProcess

TENANT = "bench"
DIM = 32  # the embedding model's (Table I) output width
K = 50  # `repro serve`'s default neighbours per query
TOP_N = 10  # ranked labels compared per query
SERVER_BATCH = 64  # `repro serve`'s default --batch-size
EMBED_BATCH = 256  # EmbeddingModel.embed's default batch size
# The monitored site (and the server-only corpus) is part of a workload's
# definition, like its rate: ``--seed`` varies the visits, captures,
# model, queries and writes, not the catalogue of pages whose sizes set
# the per-capture cost.
SITE_SEED = 101


@dataclass(frozen=True)
class Scale:
    """Input sizes and run shape; ``SMALL`` is for the self-tests.

    Rates and shares marked *unverified* are the benchmark's own choices:
    nothing in the repository or the paper gives an observed value for
    them (see wfbench/README.md, "Traffic").
    """

    pages: int = 250
    reference_visits: int = 4
    references_per_page: int = 16
    victim_visits: int = 2
    update_every_s: float = 0.4  # unverified: timed seconds between page updates
    probe: int = 256
    # Set-ups per untraced run, spread before and after the timed phase;
    # their median is ``setup_s``.
    setups: int = 5
    open_classes: int = 200
    open_per_class: int = 80
    # Below the seed's one-connection capacity (~18 requests/s with the
    # idle-flush stall), so the seed's backlog stays bounded.
    open_rate: float = 12.0  # requests per second on the query connection
    open_per_request: int = 8  # unverified
    open_write_rate: float = 2.0  # unverified: replace_class writes per second
    open_revisits: float = 0.1  # `repro serve-bench`'s --revisit-fraction default
    peel_seconds: float = 2.0


FULL = Scale()
SMALL = replace(
    FULL,
    pages=24,
    reference_visits=2,
    references_per_page=6,
    victim_visits=1,
    probe=64,
    setups=2,
    open_classes=24,
    open_per_class=40,
    peel_seconds=0.5,
)


@dataclass
class Outcome:
    """What a workload measured and checked."""

    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    metrics: Dict[str, Tuple[float, str]] = field(default_factory=dict)
    lines: List[str] = field(default_factory=list)
    kernels: Dict = field(default_factory=dict)

    def metric(self, name: str, value: float, unit: str) -> None:
        """Record one reported metric."""
        self.metrics[name] = (float(value), unit)


@dataclass
class Phase:
    """One timed phase's raw records (latencies in seconds)."""

    latencies: List[float] = field(default_factory=list)
    rtts: List[float] = field(default_factory=list)
    items: int = 0  # traces (attacker's path) or queries (server only)
    requests: int = 0
    failed: int = 0
    seconds: float = 0.0
    queries: List[np.ndarray] = field(default_factory=list)
    replies: List[Dict] = field(default_factory=list)
    server_cpu_s: float = 0.0
    client_cpu_s: float = 0.0
    metrics_delta: Dict[str, Optional[Dict]] = field(default_factory=dict)
    # How long the load generator held each request back: send minus due
    # time in the open loop; the untimed input generation before each timed
    # section in the closed loops.
    late: List[float] = field(default_factory=list)
    backlog: int = 0
    request_bytes: int = 0
    reply_bytes: int = 0
    update_rtts: List[float] = field(default_factory=list)
    write_points: List[int] = field(default_factory=list)  # requests sent before each write

    @property
    def p50_s(self) -> float:
        """Median client latency."""
        return percentile_ms(self.latencies, 50) / 1e3


# ------------------------------------------------------------------ workloads
class Workload:
    """One workload: inputs, provisioning, the timed phase and its checks."""

    name = ""
    index = "exact"  # the tenant's per-shard k-NN engine (`repro serve --index`)
    bits = 8
    rerank = 0
    budget_unit = ""  # what one latency sample covers, for the stage budget

    @property
    def index_args(self) -> List[str]:
        """The ``repro serve`` flags selecting the tenant's index."""
        return ["--index", self.index, "--bits", str(self.bits), "--rerank", str(self.rerank)]

    def __init__(self, seed: int, scale: Scale) -> None:
        self.seed, self.scale = seed, scale
        self.adds: List[Tuple[str, np.ndarray]] = []
        self.writes: List[Tuple[str, np.ndarray]] = []

    # Subclasses fill these in.
    def prepare(self) -> None:
        """Generate every input up front (untimed)."""

    def provision(self, client: FrontendClient) -> None:
        """Provision the tenant and get its first answer (part of setup)."""

    def phase(
        self, server: ServerProcess, client: FrontendClient, seconds: float, spans: Spans
    ) -> Phase:
        """The timed phase."""
        raise NotImplementedError

    def final_oracle(self) -> Oracle:
        """The exact oracle over the tenant's references after every write."""
        oracle = Oracle(DIM, K)
        self.mirror(oracle)
        for label, fresh in self.writes:
            oracle.replace_class(label, fresh)
        return oracle

    def check(self, phase: Phase, out: Outcome) -> None:
        """Correctness of the timed phase's answers."""
        served = [p for reply in phase.replies if reply is not None for p in reply["predictions"]]
        foreign = foreign_labels(served, self.tenant_labels())
        if foreign is not None:
            out.problems.append(f"a served label {foreign!r} is not one of the tenant's")

    def after(self, client: FrontendClient, phase: Phase, out: Outcome) -> None:
        """Update latency and the post-phase probe."""

    def client_stages(self, phase: Phase, spans: Spans) -> List[Tuple[str, float]]:
        """Client-side self-times (means, seconds) of one latency sample
        ahead of the request it sends; the server's stages follow."""
        return []

    def tenant_labels(self) -> set:
        """Every label the tenant may answer with."""
        return {label for label, _ in self.adds}

    def mirror(self, into) -> None:
        """Replay the adds into ``into`` (the oracle or an in-process
        ``DeploymentManager``; both take ``add_class``)."""
        for label, embeddings in self.adds:
            into.add_class(label, embeddings)

    def _send_adds(self, client: FrontendClient) -> None:
        client.create_tenant(TENANT)
        for label, embeddings in self.adds:
            client.add_class(label, embeddings, tenant=TENANT)


def _classify(client: FrontendClient, block: np.ndarray, phase: Phase) -> Optional[Dict]:
    """One timed classify round trip; a failure is recorded, not raised."""
    start = time.perf_counter()
    try:
        reply = client.classify(block, top_n=TOP_N, tenant=TENANT)
    except ProtocolError as error:
        phase.rtts.append(float("inf"))
        phase.failed += 1
        if not error.recoverable:
            raise
        return None
    phase.rtts.append(time.perf_counter() - start)
    return reply


class AttackerPath(Workload):
    """The attacker's path, closed loop: each timed section takes ``block``
    fresh captures, extracts them, embeds them at batch ``block`` and
    classifies them in requests of at most ``SERVER_BATCH`` queries."""

    block = EMBED_BATCH
    # One latency sample per timed section (capture → prediction) rather
    # than per classify request (its round trip).
    section_latency = False

    def prepare(self) -> None:
        scale = self.scale
        self.crawl = inputs.crawl(
            SITE_SEED, self.seed, scale.pages, scale.reference_visits, scale.victim_visits
        )
        self.reference_captures = inputs.reference_captures(
            self.crawl, scale.references_per_page, self.seed + 1
        )
        self.extractor = SequenceExtractor()
        self.stream = inputs.CaptureStream(self.crawl.visits, self.extractor, self.seed + 2)
        self.model = inputs.train_model(self.crawl, self.extractor, self.seed)
        self.labels = list(self.reference_captures)
        self.visits_by_page: Dict[str, List] = {}
        for visit in self.crawl.references:
            self.visits_by_page.setdefault(visit.page_id, []).append(visit)

    def embed(
        self, captures: Sequence, spans: Optional[Spans] = None, batch_size: int = EMBED_BATCH
    ) -> np.ndarray:
        """capture → ``extract_array`` → ``EmbeddingModel.embed``."""
        if spans is not None and spans.enabled:
            arrays = []
            for capture in captures:
                with spans.span("traces.extract"):
                    arrays.append(self.extractor.extract_array(capture).T)
                spans.add("traces.packets", len(capture.packets))
            with spans.span("nn.embed"):
                embeddings = self.model.embed(np.stack(arrays), batch_size=batch_size)
            spans.add("nn.embed_batch", len(arrays))
            return embeddings
        arrays = np.stack([self.extractor.extract_array(capture).T for capture in captures])
        return self.model.embed(arrays, batch_size=batch_size)

    def provision(self, client: FrontendClient) -> None:
        flat = [capture for label in self.labels for capture in self.reference_captures[label]]
        embeddings = self.embed(flat)
        per_page = self.scale.references_per_page
        self.adds = [
            (label, embeddings[i * per_page : (i + 1) * per_page])
            for i, label in enumerate(self.labels)
        ]
        self._send_adds(client)
        client.classify(embeddings[:1], top_n=TOP_N, tenant=TENANT)

    def check(self, phase: Phase, out: Outcome) -> None:
        """Every timed answer must be bit-identical to the exact oracle,
        which replays each page update where it happened in the phase."""
        oracle = Oracle(DIM, K)
        self.mirror(oracle)
        served: List[Dict] = []
        expected: List[Dict] = []
        start = 0
        for position, stop in enumerate(phase.write_points + [len(phase.queries)]):
            answered = [
                (block, reply)
                for block, reply in zip(phase.queries[start:stop], phase.replies[start:stop])
                if reply is not None
            ]
            if answered:
                served += [p for _, reply in answered for p in reply["predictions"]]
                expected += oracle.rankings(np.concatenate([block for block, _ in answered]), TOP_N)
            if position < len(phase.write_points):
                oracle.replace_class(*self.writes[position])
            start = stop
        bad = mismatches(served, expected)
        if bad:
            out.problems.append(
                f"{len(bad)} of {len(served)} timed rankings differ from the exact oracle "
                f"(first at query {bad[0]})"
            )

    def update(self, client: FrontendClient, phase: Phase, rng: np.random.Generator) -> None:
        """One page update between timed captures: fresh references for a
        random page (extracted and embedded off the clock), then a timed
        ``replace_class`` round trip."""
        label = self.labels[int(rng.integers(len(self.labels)))]
        visits = self.visits_by_page[label]
        captures = [
            inputs.reobserve(visits[i % len(visits)].capture, rng)
            for i in range(self.scale.references_per_page)
        ]
        fresh = self.embed(captures)
        start = time.perf_counter()
        try:
            client.replace_class(label, fresh, tenant=TENANT)
        except ProtocolError:
            phase.update_rtts.append(float("inf"))
            phase.failed += 1
            return
        phase.update_rtts.append(time.perf_counter() - start)
        phase.write_points.append(len(phase.queries))
        self.writes.append((label, fresh))

    @staticmethod
    def time_protocol(phase: Phase, spans: Spans) -> None:
        """Client framing cost and bytes of the phase's requests, re-encoded
        and re-decoded off the clock (``FrontendClient`` does both inline)."""
        for block, reply in zip(phase.queries, phase.replies):
            with spans.span("protocol.encode"):
                frame = protocol.encode_query(block, TOP_N, tenant=TENANT)
            phase.request_bytes += len(frame)
            if reply is None:
                continue
            payload = protocol.encode_json(protocol.RESULT, reply)
            phase.reply_bytes += len(payload)
            with spans.span("protocol.decode"):
                protocol.decode_json(payload[protocol.HEADER.size :])

    def phase(self, server, client, seconds, spans) -> Phase:
        phase = Phase()
        metered = Metered(server, client, traced=spans.enabled)
        wall_limit = time.perf_counter() + 3 * seconds + 30
        rng = np.random.default_rng(self.seed + 4)
        next_update = self.scale.update_every_s
        while phase.seconds < seconds and time.perf_counter() < wall_limit:
            if phase.seconds >= next_update:
                self.update(client, phase, rng)
                next_update += self.scale.update_every_s
            ready = time.perf_counter()
            captures = self.stream.take(self.block)  # input generation: untimed
            start = time.perf_counter()
            phase.late.append(start - ready)
            embeddings = self.embed(captures, spans, batch_size=self.block)
            answered = True
            for offset in range(0, self.block, SERVER_BATCH):
                block = embeddings[offset : offset + SERVER_BATCH]
                reply = _classify(client, block, phase)
                answered = answered and reply is not None
                phase.queries.append(block)
                phase.replies.append(reply)
                phase.requests += 1
            elapsed = time.perf_counter() - start
            if self.section_latency:
                phase.latencies.append(elapsed if answered else float("inf"))
            phase.seconds += elapsed
            phase.items += self.block
        if not self.section_latency:
            phase.latencies = phase.rtts
        phase.server_cpu_s, phase.client_cpu_s, phase.metrics_delta = metered.close()
        if spans.enabled:
            self.time_protocol(phase, spans)
        return phase

    def after(self, client: FrontendClient, phase: Phase, out: Outcome) -> None:
        out.attempted += len(phase.update_rtts)
        out.metric("update_p50_ms", percentile_ms(phase.update_rtts, 50), "ms")
        # A probe after every update: bit-identical again; top-1 agreement.
        oracle = self.final_oracle()
        captures = self.stream.take(self.scale.probe)
        probe = self.embed(captures)
        served = []
        for start in range(0, len(probe), SERVER_BATCH):
            block = probe[start : start + SERVER_BATCH]
            served += client.classify(block, top_n=TOP_N, tenant=TENANT)["predictions"]
        expected = oracle.rankings(probe, TOP_N)
        out.attempted += len(probe)
        bad = mismatches(served, expected)
        if bad:
            out.problems.append(
                f"{len(bad)} of {len(probe)} post-phase probe rankings differ from the oracle"
            )
        agreement = np.mean([s["labels"][:1] == e["labels"][:1] for s, e in zip(served, expected)])
        out.metric("top1_agreement", float(agreement), "ratio")


class AttackBatch(AttackerPath):
    """Saturation over the attacker's whole path, batched."""

    name = "attack-batch"
    budget_unit = "per 64-query classify request"


class TraceIdle(AttackerPath):
    """One capture at a time: extract, embed at batch 1, classify 1 query."""

    name = "trace-idle"
    block = 1
    section_latency = True
    budget_unit = "per capture: extract, embed at batch 1, classify"

    def client_stages(self, phase, spans) -> List[Tuple[str, float]]:
        return [
            ("traces.extract", spans.mean("traces.extract")),
            ("nn.embed", spans.mean("nn.embed")),
        ]


class ServeOpen(Workload):
    """Fixed-rate open loop of embedding requests plus page-update writes."""

    name = "serve-open"

    index = "ivfpq"
    bits = 4
    rerank = 64

    def prepare(self) -> None:
        scale = self.scale
        self.corpus = inputs.corpus(
            SITE_SEED, scale.open_classes, scale.open_per_class, DIM, "page-u"
        )
        self.adds = [(label, self.corpus.references[label]) for label in self.corpus.labels]

    def provision(self, client: FrontendClient) -> None:
        self._send_adds(client)
        client.requantize(tenant=TENANT)
        client.classify(self.corpus.centres[:1], top_n=TOP_N, tenant=TENANT)

    def _events(
        self, seconds: float, spans: Spans
    ) -> Tuple[List[Event], List[Tuple[str, np.ndarray]]]:
        scale = self.scale
        n_requests = max(1, int(round(seconds * scale.open_rate)))
        window = max(1, int(round(scale.open_rate / scale.open_write_rate)))
        self.stream = inputs.query_stream(
            self.corpus, n_requests, scale.open_per_request, window, scale.open_revisits,
            self.seed + 5,
        )
        events = []
        for i, block in enumerate(self.stream):
            with spans.span("protocol.encode"):
                frame = protocol.encode_query(block, TOP_N, tenant=TENANT)
            events.append(Event(due=i / scale.open_rate, conn=0, frame=frame))
        rng = np.random.default_rng(self.seed + 6)
        writes = []
        for j in range(max(1, int(seconds * scale.open_write_rate))):
            label = self.corpus.labels[int(rng.integers(len(self.corpus.labels)))]
            fresh = inputs.page_update(self.corpus, label, rng)
            body = {"op": "replace", "label": label, "tenant": TENANT,
                    "embeddings": [[float(v) for v in row] for row in fresh]}
            events.append(Event(due=(j + 0.5) / scale.open_write_rate, conn=1,
                                frame=protocol.encode_json(protocol.CONTROL, body)))
            writes.append((label, fresh))
        events.sort(key=lambda event: event.due)
        return events, writes

    def phase(self, server, client, seconds, spans) -> Phase:
        events, writes = self._events(seconds, spans)  # input generation: untimed
        phase = Phase()
        metered = Metered(server, client, traced=spans.enabled)
        result = run_open_loop((server.host, server.port), events, 2)
        phase.server_cpu_s, phase.client_cpu_s, phase.metrics_delta = metered.close()
        self.loop = result
        queries = [event for event in events if event.conn == 0]
        updates = [event for event in events if event.conn == 1]
        phase.latencies = [event.latency_s for event in queries]
        phase.rtts = [
            event.replied - event.sent if event.reply_type == protocol.RESULT else float("inf")
            for event in queries
        ]
        phase.requests = len(queries)
        phase.late = result.late
        if not result.valid:
            late_ms = result.late_p99_s() * 1e3
            raise InvalidRun(
                f"the open-loop generator fell behind (late p99 {late_ms:.1f} ms); "
                "the run measures the generator, not the server"
            )
        phase.backlog = result.backlog
        for event, block in zip(queries, self.stream):
            phase.request_bytes += len(event.frame)
            phase.reply_bytes += protocol.HEADER.size + len(event.reply)
            if event.reply_type != protocol.RESULT:
                phase.failed += 1
                phase.replies.append(None)
                continue
            with spans.span("protocol.decode"):
                phase.replies.append(protocol.decode_json(event.reply))
            phase.queries.append(block)
            phase.items += len(block)
        last_reply = max(
            (event.replied for event in queries if event.reply_type == protocol.RESULT),
            default=seconds,
        )
        phase.seconds = max(last_reply, 1e-9)
        for event, write in zip(updates, writes):
            if event.reply_type == protocol.CONTROL:
                phase.update_rtts.append(event.replied - event.sent)
                self.writes.append(write)
            else:
                phase.update_rtts.append(float("inf"))
                phase.failed += 1
        return phase

    def after(self, client, phase, out) -> None:
        allowed = self.tenant_labels()
        out.attempted += len(phase.update_rtts)
        out.metric("update_p50_ms", percentile_ms(phase.update_rtts, 50), "ms")
        # The oracle replays the acknowledged writes, then scores a probe.
        oracle = self.final_oracle()
        probe = inputs.query_stream(
            self.corpus, max(1, self.scale.probe // SERVER_BATCH), SERVER_BATCH, 1, 0.0,
            self.seed + 7,
        )
        served = []
        for block in probe:
            served += client.classify(block, top_n=TOP_N, tenant=TENANT)["predictions"]
        queries = probe.reshape(-1, DIM)
        out.attempted += len(queries)
        foreign = foreign_labels(served, allowed)
        if foreign is not None:
            out.problems.append(f"a probe label {foreign!r} is not one of the tenant's")
        expected = oracle.rankings(queries, 1)
        agreement = np.mean([s["labels"][:1] == e["labels"] for s, e in zip(served, expected)])
        out.metric("top1_agreement", float(agreement), "ratio")

    budget_unit = "per 8-query request, due to reply"

    def client_stages(self, phase, spans) -> List[Tuple[str, float]]:
        late = [max(0.0, event.late_s) for event in self.loop.events if event.conn == 0]
        return [("loadgen.late", float(np.mean(late)))]


WORKLOADS: Dict[str, Callable[[int, Scale], Workload]] = {
    AttackBatch.name: AttackBatch,
    TraceIdle.name: TraceIdle,
    ServeOpen.name: ServeOpen,
}


