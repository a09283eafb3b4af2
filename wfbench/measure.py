"""Timing helpers: client-side spans, percentiles, server histogram deltas
and the stage budget."""

from __future__ import annotations

import bisect
import math
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.obs import LATENCY_BUCKETS_S, histogram_quantile

# The highest percentile every workload's sample count supports with at
# least ten samples beyond it (each run records well over 100 latencies).
TAIL = 90


class Spans:
    """Durations (seconds) recorded by the benchmark around calls into one
    layer, and the counts that go with them (packets, batch sizes).

    Kept in memory as plain lists and summarised when the run ends; a
    disabled recorder costs one attribute test per call site.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.values: Dict[str, List[float]] = {}

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Time the block under ``name`` (a no-op when disabled)."""
        if not self.enabled:
            yield
            return
        start = time.perf_counter()
        try:
            yield
        finally:
            self.values.setdefault(name, []).append(time.perf_counter() - start)

    def add(self, name: str, value: float) -> None:
        """Record one externally measured duration or count."""
        if self.enabled:
            self.values.setdefault(name, []).append(value)

    def total(self, name: str) -> float:
        """Sum of every duration recorded under ``name``."""
        return float(sum(self.values.get(name, ())))

    def mean(self, name: str) -> float:
        """Mean duration under ``name`` (0 when nothing was recorded)."""
        values = self.values.get(name)
        return float(np.mean(values)) if values else 0.0


def percentile_ms(latencies_s: Sequence[float], q: float) -> float:
    """The ``q``-th percentile in milliseconds; a failed request is passed
    as ``inf`` and so misses every limit."""
    if not latencies_s:
        raise ValueError("no latency samples")
    return float(np.percentile(np.asarray(latencies_s, dtype=np.float64), q)) * 1e3


def bucket_width_s(value_s: float) -> float:
    """Width of the server latency-histogram bucket holding ``value_s``."""
    edges = (0.0,) + tuple(LATENCY_BUCKETS_S)
    position = min(max(bisect.bisect_left(edges, value_s), 1), len(edges) - 1)
    return edges[position] - edges[position - 1]


def hist_summary(family: Optional[Dict], **labels: str) -> Tuple[float, float]:
    """``(count, sum)`` of a (delta) histogram family, optionally filtered
    to one label set; zeros when the family saw nothing."""
    count = total = 0.0
    for sample, sample_labels, value in (family or {"samples": []})["samples"]:
        if any(sample_labels.get(key) != want for key, want in labels.items()):
            continue
        if sample.endswith("_count"):
            count += value
        elif sample.endswith("_sum"):
            total += value
    return count, total


def hist_mean(family: Optional[Dict], **labels: str) -> float:
    """Mean observation of a (delta) histogram family (0 when empty)."""
    count, total = hist_summary(family, **labels)
    return total / count if count else 0.0


def hist_quantile(family: Optional[Dict], q: float) -> float:
    """The ``q``-quantile of a (delta) histogram family (0 when empty)."""
    value = histogram_quantile(family, q) if family is not None else math.nan
    return 0.0 if math.isnan(value) else value


def counter_total(family: Optional[Dict]) -> float:
    """Sum of a (delta) counter family's samples."""
    if family is None:
        return 0.0
    return float(sum(value for _, _, value in family["samples"]))


class Budget:
    """Per-stage self-times (means, seconds) that should add up to the
    client's median latency; what they miss is the residual.

    A *derived* stage is not measured but computed as what its enclosing
    measured span leaves over; the table marks it.  Whether the stages sum
    to client p50 within one bucket is reported, not enforced.
    """

    def __init__(self, unit: str, client_p50_s: float) -> None:
        self.unit = unit
        self.client_p50_s = client_p50_s
        self.stages: List[Tuple[str, float]] = []
        self.derived: set = set()

    def add(self, stage: str, seconds: float, *, derived: bool = False) -> None:
        """Append one stage's self-time."""
        self.stages.append((stage, seconds))
        if derived:
            self.derived.add(stage)

    @property
    def residual_s(self) -> float:
        """Client p50 minus the sum of every stage."""
        return self.client_p50_s - sum(seconds for _, seconds in self.stages)

    @property
    def within_bucket(self) -> bool:
        """Whether the stages sum to client p50 within one histogram bucket."""
        return abs(self.residual_s) <= bucket_width_s(self.client_p50_s)

    def lines(self) -> List[str]:
        """A printable self-time table."""
        out = [f"stage budget ({self.unit}; means, client p50 = {self.client_p50_s * 1e6:.1f} us)"]
        for stage, seconds in self.stages + [("residual", self.residual_s)]:
            share = 100.0 * seconds / self.client_p50_s if self.client_p50_s else 0.0
            mark = "  (derived)" if stage in self.derived else ""
            out.append(f"  {stage:<26} {seconds * 1e6:12.1f} us {share:7.1f} %{mark}")
        out.append(
            f"  sums to client p50 within one bucket "
            f"({bucket_width_s(self.client_p50_s) * 1e6:.1f} us): "
            f"{'yes' if self.within_bucket else 'NO'} (report only)"
        )
        return out
