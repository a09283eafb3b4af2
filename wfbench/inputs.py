"""Seeded inputs: crawl captures for the attacker's path, and an embedding
corpus plus an open-world query stream for the server-only workload.

Everything here is input generation.  Workloads call it before (or, for
per-block capture variants, between) timed sections, so none of its cost
lands in a timed number or in ``setup_s``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from repro.config import EmbeddingHyperparameters, TrainingConfig
from repro.core.embedding import EmbeddingModel
from repro.core.trainer import ContrastiveTrainer
from repro.net.capture import PacketCapture
from repro.serving.loadgen import open_world_mix
from repro.traces import SequenceExtractor, TraceDataset
from repro.web.crawler import Crawler, LabeledCapture
from repro.web.generators import WikipediaLikeGenerator


# ------------------------------------------------------------ crawl captures
@dataclass
class Crawl:
    """Genuine page loads of one seeded Wikipedia-like site.

    ``references`` are the crawler's visits used to build the tenant;
    ``visits`` are separate victim visits that timed captures derive from.
    """

    references: List[LabeledCapture]
    visits: List[LabeledCapture]


def crawl(
    site_seed: int, seed: int, n_pages: int, reference_visits: int, victim_visits: int
) -> Crawl:
    """Crawl ``n_pages`` pages of the site ``site_seed`` generates:
    reference visits, then separate victim visits, both seeded by ``seed``."""
    site = WikipediaLikeGenerator(n_pages=n_pages, seed=site_seed).generate()
    references = Crawler(seed=seed).crawl(site, visits_per_page=reference_visits)
    visits = Crawler(seed=seed + 7919).crawl(site, visits_per_page=victim_visits)
    return Crawl(references, visits)


def reobserve(capture: PacketCapture, rng: np.random.Generator) -> PacketCapture:
    """A fresh observation of one page load: the same packets minus a few
    the sniffer missed (3 to 12 of them, chosen by ``rng``; an unverified
    count — the simulated network has no loss model to derive it from).

    Simulating a page load costs ~2 ms of Python per capture, several times
    the attacker's own per-capture work, so timed captures re-observe a
    pool of genuine loads instead of crawling anew.  Each re-observation
    drops a different packet set, so its extracted sequences (and hence its
    embedding) differ from every other capture's.
    """
    packets = capture.packets
    drop = rng.choice(len(packets), size=int(rng.integers(3, 13)), replace=False)
    keep = np.ones(len(packets), dtype=bool)
    keep[drop] = False
    return PacketCapture(
        client_ip=capture.client_ip,
        packets=[packet for packet, kept in zip(packets, keep.tolist()) if kept],
    )


def train_model(found: Crawl, extractor: SequenceExtractor, seed: int) -> EmbeddingModel:
    """The attacker's provisioned model: the Table I architecture, trained
    briefly with contrastive pairs on the reference crawl.

    Training matters for more than accuracy: an untrained network maps
    every trace into a ~1e-3 ball, where the server's result cache (which
    keys on embeddings rounded to 1e-6) would conflate distinct captures.
    Adam stands in for Table I's SGD so that two epochs suffice.
    """
    traces = [
        extractor.extract(labeled.capture, label=labeled.page_id, website=labeled.website)
        for labeled in found.references
    ]
    model = EmbeddingModel(
        extractor.max_sequences,
        EmbeddingHyperparameters(optimizer="adam", learning_rate=0.01, dropout=0.0),
        seed=seed,
    )
    config = TrainingConfig(epochs=2, pairs_per_epoch=2048, seed=seed)
    ContrastiveTrainer(model, config).fit(TraceDataset.from_traces(traces))
    return model


class CaptureStream:
    """Endless fresh captures, each a re-observation of a random victim visit.

    Two re-observations can still extract to the same sequences (dropping
    either of two equal-sized packets of one run, or any two equal-sized
    packets past the fixed sequence length), and a repeated query would be
    answered from the server's result cache.  The stream therefore
    remembers what ``extractor`` makes of every capture and draws again on
    a repeat, so no capture repeats in a run.
    """

    def __init__(
        self, visits: List[LabeledCapture], extractor: SequenceExtractor, seed: int
    ) -> None:
        self._visits = visits
        self._extractor = extractor
        self._rng = np.random.default_rng(seed)
        self._seen: set = set()

    def take(self, n: int) -> List[PacketCapture]:
        """The next ``n`` captures."""
        captures: List[PacketCapture] = []
        while len(captures) < n:
            visit = self._visits[int(self._rng.integers(len(self._visits)))]
            capture = reobserve(visit.capture, self._rng)
            signature = self._extractor.extract_array(capture).tobytes()
            if signature in self._seen:
                continue
            self._seen.add(signature)
            captures.append(capture)
        return captures


def reference_captures(
    found: Crawl, per_class: int, seed: int
) -> Dict[str, List[PacketCapture]]:
    """``per_class`` reference captures per page, re-observed from its
    genuine reference visits (round-robin over the visits)."""
    rng = np.random.default_rng(seed)
    by_page: Dict[str, List[LabeledCapture]] = {}
    for labeled in found.references:
        by_page.setdefault(labeled.page_id, []).append(labeled)
    return {
        page: [reobserve(visits[i % len(visits)].capture, rng) for i in range(per_class)]
        for page, visits in by_page.items()
    }


# -------------------------------------------------- server-only embeddings
@dataclass
class Corpus:
    """A clustered embedding corpus: one cluster per monitored page."""

    labels: List[str]
    centres: np.ndarray
    references: Dict[str, np.ndarray]

    def flat(self) -> Tuple[np.ndarray, List[str]]:
        """All reference rows with their labels, in class order."""
        rows = [self.references[label] for label in self.labels]
        names = [label for label in self.labels for _ in range(self.references[label].shape[0])]
        return np.concatenate(rows), names


def corpus(seed: int, n_classes: int, per_class: int, dim: int, prefix: str) -> Corpus:
    """``n_classes`` clusters of ``per_class`` references in ``dim`` dims."""
    rng = np.random.default_rng(seed)
    centres = rng.standard_normal((n_classes, dim)) * 10.0
    labels = [f"{prefix}{i:05d}" for i in range(n_classes)]
    references = {
        label: centres[i] + rng.standard_normal((per_class, dim))
        for i, label in enumerate(labels)
    }
    return Corpus(labels, centres, references)


def page_update(found: Corpus, label: str, rng: np.random.Generator) -> np.ndarray:
    """Fresh references for an updated page: its cluster drifts a little."""
    centre = found.centres[found.labels.index(label)]
    per_class = found.references[label].shape[0]
    drift = 0.5 * rng.standard_normal(centre.shape[0])
    return centre + drift + rng.standard_normal((per_class, centre.shape[0]))


def query_stream(
    found: Corpus,
    n_requests: int,
    per_request: int,
    window: int,
    revisit_fraction: float,
    seed: int,
) -> np.ndarray:
    """``(n_requests, per_request, dim)`` open-world query blocks.

    :func:`~repro.serving.loadgen.open_world_mix`, with its defaults (20 %
    unmonitored pages, Zipf exponent 1.2, as in ``repro serve-bench``),
    draws monitored visits with Zipf class popularity.  Exact
    revisits are then placed inside each ``window`` of requests — the
    stretch between two page updates — because an update bumps the tenant
    generation and with it invalidates every cached answer.
    """
    rng = np.random.default_rng(seed)
    references, labels = found.flat()
    total = n_requests * per_request
    queries, _ = open_world_mix(
        references,
        total,
        class_mix="zipf",
        reference_labels=labels,
        rng=rng,
    )
    per_window = window * per_request
    for start in range(0, total, per_window):
        stop = min(start + per_window, total)
        span = stop - start
        n_revisits = int(round(span * revisit_fraction))
        if span < 2 or n_revisits == 0:
            continue
        # A revisit repeats a query sent earlier in the same window.
        targets = start + 1 + rng.choice(span - 1, size=min(n_revisits, span - 1), replace=False)
        for target in np.sort(targets).tolist():
            queries[target] = queries[start + int(rng.integers(0, target - start))]
    return queries.reshape(n_requests, per_request, -1)
