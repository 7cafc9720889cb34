"""Graph-based partitioning of matrix algorithms for systolic arrays.

A full reproduction of Moreno & Lang (ICPP 1988): the transformational
partitioning methodology (dependence graph -> transformed graph -> G-graph
-> G-sets -> array), its application to transitive closure, the linear /
two-dimensional / fixed-size arrays it derives, the Sec. 4 evaluation
measures, and the baselines the paper argues against — all executable on
a cycle-level systolic-array simulator.

Quickstart::

    import numpy as np
    from repro import partition_transitive_closure
    from repro.algorithms.warshall import random_adjacency, warshall

    impl = partition_transitive_closure(n=12, m=4, geometry="linear")
    print(impl.report.row())          # throughput, utilization, D_IO, ...
    a = random_adjacency(12, seed=0)
    assert np.array_equal(impl.run(a), warshall(a))

Package map (see DESIGN.md for the full inventory):

* :mod:`repro.core` — the methodology: graph IR, analyses,
  transformations, G-graphs, G-sets, schedules, metrics;
* :mod:`repro.algorithms` — dependence-graph front-ends (transitive
  closure stages of Figs. 10-17, LU, Faddeev, Givens) and software
  oracles;
* :mod:`repro.arrays` — array topologies, execution plans, the
  cycle-level simulator, the Fig. 21 host interface, fault analysis;
* :mod:`repro.partitioning` — coalescing (Fig. 1), sub-algorithm
  decomposition (Fig. 3) and the hybrid scheme; cut-and-pile (Fig. 2),
  the paper's scheme, is :func:`repro.core.partitioner.partition`;
* :mod:`repro.baselines` — Kung's fixed-size array [23] and the
  Núñez-Torralba block partitioning [22];
* :mod:`repro.viz` — ASCII renderings of the figures.
"""

from __future__ import annotations

from importlib import import_module
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:
    from .core.ggraph import GGraph, group_by_columns, group_by_rows  # noqa: F401
    from .core.graph import DependenceGraph, NodeKind, PortRef, port  # noqa: F401
    from .core.partitioner import (  # noqa: F401
        PartitionedImplementation,
        partition,
        partition_transitive_closure,
    )
    from .core.semiring import (  # noqa: F401
        BOOLEAN,
        COUNTING,
        MAX_MIN,
        MIN_PLUS,
        REAL,
        SEMIRINGS,
        Semiring,
    )
    from .core.verify import VerificationReport, verify_implementation  # noqa: F401

__version__ = "1.0.0"

#: Public name -> defining submodule, imported on first access (PEP 562):
#: ``python -m repro closure`` never pays for networkx or the array
#: pipeline it does not use.  Must list exactly the names imported under
#: ``TYPE_CHECKING`` above (tests/test_api.py checks this).
_LAZY = {
    "PartitionedImplementation": ".core.partitioner",
    "partition": ".core.partitioner",
    "partition_transitive_closure": ".core.partitioner",
    "DependenceGraph": ".core.graph",
    "NodeKind": ".core.graph",
    "PortRef": ".core.graph",
    "port": ".core.graph",
    "GGraph": ".core.ggraph",
    "group_by_columns": ".core.ggraph",
    "group_by_rows": ".core.ggraph",
    "VerificationReport": ".core.verify",
    "verify_implementation": ".core.verify",
    "Semiring": ".core.semiring",
    "BOOLEAN": ".core.semiring",
    "MIN_PLUS": ".core.semiring",
    "MAX_MIN": ".core.semiring",
    "COUNTING": ".core.semiring",
    "REAL": ".core.semiring",
    "SEMIRINGS": ".core.semiring",
}

__all__ = [*_LAZY, "__version__"]


def __getattr__(name: str) -> Any:
    try:
        module = _LAZY[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        ) from None
    value = getattr(import_module(module, __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    dunders = (k for k in globals() if k.startswith("__") and k.endswith("__"))
    return sorted({*__all__, *dunders})
