"""The benchmark's correctness gate: an exact in-process oracle.

The oracle is the repository's own flat exact path — ``ReferenceStore`` +
``ExactIndex`` + ``KNNClassifier`` — fed the same reference rows, in the
same order, and the same writes the server received.  Queries reach it the
way the wire delivers them: rounded to float32, then widened back to
float64.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.config import ClassifierConfig
from repro.core import ExactIndex, KNNClassifier, ReferenceStore


def wire_rounded(queries: np.ndarray) -> np.ndarray:
    """Queries as the server decodes them from a QUERY frame."""
    return np.asarray(queries, dtype=np.float32).astype(np.float64)


class Oracle:
    """Exact k-NN rankings over a mirror of the tenant's references."""

    def __init__(self, dim: int, k: int) -> None:
        self.store = ReferenceStore(dim, index=ExactIndex())
        self.classifier = KNNClassifier(self.store, ClassifierConfig(k=k))

    def add_class(self, label: str, embeddings: np.ndarray) -> None:
        """Mirror one ``add`` control op."""
        self.store.add(embeddings, [label] * len(embeddings))

    def replace_class(self, label: str, embeddings: np.ndarray) -> None:
        """Mirror one ``replace`` control op."""
        self.store.replace_class(label, embeddings)

    def rankings(self, queries: np.ndarray, top_n: int) -> List[Dict]:
        """``{"labels", "scores"}`` per query, as a RESULT frame carries them."""
        predictions = self.classifier.predict(wire_rounded(queries))
        return [
            {
                "labels": list(prediction.ranked_labels[:top_n]),
                "scores": [float(score) for score in prediction.scores[:top_n]],
            }
            for prediction in predictions
        ]


def mismatches(served: Sequence[Dict], expected: Sequence[Dict]) -> List[int]:
    """Positions whose served ranking is not bit-identical to the oracle's."""
    if len(served) != len(expected):
        raise ValueError(f"{len(served)} served rankings for {len(expected)} queries")
    return [
        position
        for position, (got, want) in enumerate(zip(served, expected))
        if got["labels"] != want["labels"] or got["scores"] != want["scores"]
    ]


def foreign_labels(served: Sequence[Dict], allowed: set) -> Optional[str]:
    """The first served label that is not one of the tenant's, if any."""
    for ranking in served:
        for label in ranking["labels"]:
            if label not in allowed:
                return label
    return None
