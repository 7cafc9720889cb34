"""Deterministic stochastic-Kronecker (R-MAT) graph generator.

The SSC reference implementations benchmark on Kronecker graphs produced
by SNAP's ``krongen``; this is the same family generated in-process so
the sparse-workload benchmarks need no binary fixtures.  Each of the
``edge_factor * 2**scale`` edge samples descends ``scale`` levels of the
2x2 initiator matrix (the Graph500 R-MAT probabilities by default),
choosing one quadrant per level — a vectorised NumPy walk driven by
``np.random.default_rng(seed)``, so a ``(scale, edge_factor, seed,
initiator)`` tuple always yields the same graph on every platform.

Duplicate samples are dropped and self-loops kept by the shared
:func:`repro.datasets.core.from_edges` semantics, so ``m`` is the
*distinct* edge count (slightly below ``edge_factor * n``, as with real
R-MAT exports).
"""

from __future__ import annotations

import numpy as np

from .core import DatasetError, GraphDataset, from_edges

__all__ = ["DEFAULT_INITIATOR", "kronecker"]

#: Graph500 R-MAT initiator probabilities (a, b, c, d).
DEFAULT_INITIATOR: tuple[float, float, float, float] = (0.57, 0.19, 0.19, 0.05)


def kronecker(
    scale: int,
    edge_factor: int = 8,
    *,
    seed: int = 0,
    initiator: tuple[float, float, float, float] = DEFAULT_INITIATOR,
    name: str | None = None,
) -> GraphDataset:
    """Generate a ``2**scale``-vertex stochastic Kronecker graph.

    ``edge_factor`` edge samples are drawn per vertex; after dedup the
    dataset carries the surviving distinct edges.  Deterministic in all
    parameters.
    """
    spec = f"kron:scale={scale},edges={edge_factor},seed={seed}"
    if scale < 0 or scale > 30:
        raise DatasetError("spec", f"scale must be in [0, 30], got {scale}", source=spec)
    if edge_factor < 0:
        raise DatasetError(
            "spec", f"edge_factor must be >= 0, got {edge_factor}", source=spec
        )
    if seed < 0:
        raise DatasetError("spec", f"seed must be >= 0, got {seed}", source=spec)
    probs = np.asarray(initiator, dtype=np.float64)
    if probs.shape != (4,) or (probs < 0).any():
        raise DatasetError(
            "spec", f"initiator must be 4 non-negative weights, got {initiator!r}",
            source=spec,
        )
    total = float(probs.sum())
    if total <= 0:
        raise DatasetError("spec", "initiator weights sum to zero", source=spec)
    probs = probs / total
    n = 1 << scale
    m_samples = edge_factor * n
    rng = np.random.default_rng(seed)
    src = np.zeros(m_samples, dtype=np.int64)
    dst = np.zeros(m_samples, dtype=np.int64)
    # Quadrant thresholds: a | b | c | d over [0, 1).
    t_ab = probs[0] + probs[1]
    t_abc = t_ab + probs[2]
    for _level in range(scale):
        u = rng.random(m_samples)
        right = (u >= probs[0]) & (u < t_ab) | (u >= t_abc)  # quadrants b, d
        lower = u >= t_ab  # quadrants c, d
        src = (src << 1) | lower.astype(np.int64)
        dst = (dst << 1) | right.astype(np.int64)
    edges = np.stack([src, dst], axis=1)
    return from_edges(
        name or spec,
        edges,
        n=n,
        source=spec,
        meta={
            "format": "kronecker",
            "scale": scale,
            "edge_factor": edge_factor,
            "seed": seed,
            "initiator": tuple(round(float(p), 6) for p in probs),
            "samples": int(m_samples),
        },
    )
