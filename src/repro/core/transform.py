"""Generic dependence-graph transformations (Sec. 2 step 1, Fig. 4).

The methodology removes implementation-hostile properties by *rewriting
the graph*:

* :func:`prune_superfluous` — delete operations that provably do not
  change their value (Fig. 11), stretching the data lines across them;
* :func:`pipeline_broadcasts` — replace every one-to-many fan-out by a
  pipelined chain threaded through the consumers (Fig. 4a);
  consumers forward the operand on their output port, so no extra
  hardware nodes are needed where a consumer already occupies the slot.

The transitive-closure front-end (:mod:`repro.algorithms.transitive_closure`)
derives Fig. 11 as ``prune_superfluous(tc_full(n), is_superfluous)`` and
Fig. 12 by :meth:`~repro.core.graph.DependenceGraph.rewire`-ing each
level's row and column broadcasts into chains that run outward from the
source, both ways.  :func:`pipeline_broadcasts` is a different model:
one chain per value, in ``order_key`` order, which takes every fan-out
to 1 (experiment F04).  The flipped and delayed stages (Figs. 13-16) are
built directly; DESIGN.md ("Two pipelining models") says why.
"""

from __future__ import annotations

from typing import Callable, Hashable

from ..obs.tracing import stage_span
from .analysis import find_broadcasts
from .graph import (
    DependenceGraph,
    NodeId,
    NodeKind,
    PortRef,
    port,
)

__all__ = [
    "prune_superfluous",
    "pipeline_broadcasts",
    "TransformError",
]


class TransformError(ValueError):
    """Raised when a rewrite cannot be applied."""


def prune_superfluous(
    dg: DependenceGraph,
    is_superfluous: Callable[[DependenceGraph, NodeId], bool],
    carrier_role: str = "a",
) -> DependenceGraph:
    """Remove op nodes whose result provably equals one of their operands.

    ``is_superfluous(dg, nid)`` marks removable op nodes;
    ``carrier_role`` names the operand whose value the node would have
    produced (for the Warshall ``mac`` this is ``a`` — see the
    superfluous-node argument of Sec. 3.1).  Consumers are rewired to the
    carrier's producer, transitively, so chains of superfluous nodes
    collapse to their first real producer.
    """
    with stage_span(
        "transform.prune_superfluous", graph=dg.name,
        nodes_in=len(dg), edges_in=dg.g.number_of_edges(),
    ) as sp:
        out = dg.copy(name=f"{dg.name}/pruned")
        # Resolve replacement references in topological order so that chains
        # of superfluous nodes collapse in one pass.
        replacement: dict[NodeId, tuple[Hashable, str]] = {}
        doomed: list[NodeId] = []
        for nid in out.topological_order():
            if out.kind(nid) is not NodeKind.OP or not is_superfluous(out, nid):
                continue
            ops = out.operands(nid)
            if carrier_role not in ops:
                raise TransformError(
                    f"superfluous node {nid!r} has no {carrier_role!r} operand"
                )
            ref = ops[carrier_role]
            # If the carrier itself was superfluous, chase it.
            while ref[0] in replacement and ref[1] == "out":
                ref = replacement[ref[0]]
            replacement[nid] = ref
            doomed.append(nid)
        # Rewire all consumers of doomed nodes.
        for nid in list(out.g.nodes):
            for role, (src, sport) in list(out.operands(nid).items()):
                if src in replacement:
                    ref = replacement[src] if sport == "out" else None
                    if ref is None:
                        # A forwarding port of a removed node: the forwarded
                        # operand is whatever the removed node consumed there.
                        fref = dg.operands(src)[sport]
                        while fref[0] in replacement and fref[1] == "out":
                            fref = replacement[fref[0]]
                        ref = fref
                    out.rewire(nid, role, PortRef(*ref))
        for nid in reversed(doomed):
            out.remove_node(nid)
        sp.tag("pruned", len(doomed))
        sp.tag("nodes_out", len(out))
        sp.tag("edges_out", out.g.number_of_edges())
    return out


def pipeline_broadcasts(
    dg: DependenceGraph,
    order_key: Callable[[DependenceGraph, NodeId], tuple] | None = None,
    fanout_threshold: int = 1,
) -> DependenceGraph:
    """Replace every broadcast by a chain through its consumers (Fig. 4a).

    For each value with more than ``fanout_threshold`` consuming nodes,
    the consumers are sorted by ``order_key`` (default: their position,
    then their id) and re-wired so that consumer ``i`` reads the value
    from consumer ``i-1``'s forwarding port.  Op nodes forward operands on
    the port named after the consuming role; pass/delay nodes forward on
    ``out``.  Output nodes cannot forward and are left reading the source
    directly (collecting a result is host wiring, not array wiring).

    The chain's direction is entirely determined by ``order_key``: a
    cyclic key that places the broadcast source first gives the
    one-directional chains of Fig. 13 (positions are left unchanged).
    """

    def default_key(g: DependenceGraph, nid: NodeId) -> tuple:
        p = g.pos(nid)
        return (p if p is not None else (), repr(nid))

    key = order_key or default_key
    with stage_span(
        "transform.pipeline_broadcasts", graph=dg.name,
        nodes_in=len(dg), edges_in=dg.g.number_of_edges(),
    ) as sp:
        out = dg.copy(name=f"{dg.name}/pipelined")
        report = find_broadcasts(out, fanout_threshold=fanout_threshold)
        chained = 0
        for (src, sport), _count in report.sources:
            consumers: list[tuple[NodeId, str]] = []
            for nid in list(out.g.successors(src)):
                for role, ref in out.operands(nid).items():
                    if ref == (src, sport):
                        consumers.append((nid, role))
            # Group roles per consumer: a node reading the value on several
            # ports receives it once and fans it out internally (operands may
            # share a reference), so the chain hops nodes, not roles.
            roles_of: dict[NodeId, list[str]] = {}
            for nid, role in consumers:
                if out.kind(nid) is not NodeKind.OUTPUT:
                    roles_of.setdefault(nid, []).append(role)
            if len(roles_of) <= fanout_threshold:
                continue
            chain = sorted(roles_of, key=lambda nid: key(out, nid))
            prev_ref: PortRef = PortRef(src, sport)
            for nid in chain:
                for role in roles_of[nid]:
                    out.rewire(nid, role, prev_ref)
                if out.kind(nid) is NodeKind.OP:
                    prev_ref = port(nid, roles_of[nid][0])
                else:  # PASS / DELAY forward on their out port
                    prev_ref = PortRef(nid, "out")
            chained += 1
        sp.tag("broadcasts", len(report.sources))
        sp.tag("chained", chained)
        sp.tag("nodes_out", len(out))
        sp.tag("edges_out", out.g.number_of_edges())
    return out
