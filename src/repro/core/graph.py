"""Fully-parallel dependence-graph IR.

The paper describes algorithms by their *fully-parallel dependence graph*
(Section 1): nodes are operations, edges are data communications, all loops
are unfolded, all inputs/outputs are available in parallel, and every
operation takes unit time.  This module provides that IR.

Node kinds
----------
``INPUT``
    A primary input of the algorithm (one element of the input matrix).
``CONST``
    A compile-time constant (e.g. the always-1 diagonal of the adjacency
    matrix after Fig. 11's simplification).
``OP``
    A computation node.  Each op node carries an ``opcode`` naming its
    semantics (resolved by :mod:`repro.core.evaluate`) and a set of operand
    *roles* (named input ports).  The transitive-closure primitive is the
    semiring multiply-accumulate ``mac: out = a (+) (b (x) c)``.
``PASS``
    A data-transmission node: forwards its single operand unchanged.  Pass
    nodes are what broadcasting turns into after the pipelining
    transformation of Fig. 4a / Fig. 12 — they occupy an array slot but do
    no arithmetic.
``DELAY``
    A pure timing node inserted by the regularization transformation
    (Fig. 4b / Fig. 15); semantically identical to ``PASS`` but accounted
    separately because it exists only to equalise path lengths.
``OUTPUT``
    A primary output (one element of the result matrix).

Output ports
------------
Systolic cells *forward* their operands: a cell that computes
``a (+) (b (x) c)`` also passes ``b`` and ``c`` on to its neighbours.  An
op node therefore exposes output port ``"out"`` (its result) plus one port
per operand role (the forwarded operand).  Operand references are plain
node ids (shorthand for the producer's ``"out"`` port) or
:class:`PortRef` objects naming a forwarding port.

Positions
---------
Every node may carry a ``pos`` attribute — a tuple of coordinates giving
the node a place in the drawing the paper reasons about (for transitive
closure: ``(level k, row, col)``).  Transformations rewrite positions;
analyses (flow direction, regularity) read them.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Hashable, Iterator, Mapping

import networkx as nx

__all__ = [
    "NodeKind",
    "OP_ROLES",
    "DependenceGraph",
    "GraphError",
    "PortRef",
    "port",
    "node_counts",
]

NodeId = Hashable


class GraphError(ValueError):
    """Raised when a dependence graph violates a structural invariant."""


class NodeKind(enum.Enum):
    """The role a node plays in the dependence graph."""

    INPUT = "input"
    CONST = "const"
    OP = "op"
    PASS = "pass"
    DELAY = "delay"
    OUTPUT = "output"

    @property
    def is_compute(self) -> bool:
        """True for nodes that perform arithmetic (occupy a PE usefully)."""
        return self is NodeKind.OP

    @property
    def occupies_slot(self) -> bool:
        """True for nodes that consume one array cell-cycle when executed."""
        return self in (NodeKind.OP, NodeKind.PASS, NodeKind.DELAY)


#: Operand roles required by each opcode, in canonical order.
OP_ROLES: dict[str, tuple[str, ...]] = {
    # semiring multiply-accumulate: out = a (+) (b (x) c)
    "mac": ("a", "b", "c"),
    # field ops used by the Section 4.3 workloads (LU, Givens, Faddeev...)
    "add": ("a", "b"),
    "sub": ("a", "b"),
    "mul": ("a", "b"),
    "div": ("a", "b"),
    # out = a - b*c (Gaussian elimination inner update)
    "msub": ("a", "b", "c"),
    # Givens rotation generation: emits the (c, s) pair as one value
    "rotg": ("a", "b"),
    # Givens rotation application halves: out = c*a + s*b / -s*a + c*b
    "rota": ("a", "b", "r"),
    "rotb": ("a", "b", "r"),
    # unary negate / reciprocal
    "neg": ("a",),
    "recip": ("a",),
}


@dataclass(frozen=True)
class PortRef:
    """Reference to a specific output port of a node.

    Plain node ids are shorthand for their ``"out"`` port; use
    :func:`port` to read a forwarded operand instead.
    """

    node: Hashable
    port: str = "out"


def port(nid: Hashable, name: str) -> PortRef:
    """Reference output port ``name`` of node ``nid``."""
    return PortRef(nid, name)


def _split_source(src: Hashable) -> tuple[Hashable, str]:
    """Normalise a source reference to ``(node id, port name)``."""
    if isinstance(src, PortRef):
        return src.node, src.port
    return src, "out"


@dataclass(frozen=True)
class NodeView:
    """Immutable snapshot of one node's attributes (convenience accessor)."""

    id: NodeId
    kind: NodeKind
    opcode: str | None
    pos: tuple | None
    comp_time: int
    tag: str | None
    value: Any


class DependenceGraph:
    """A fully-parallel dependence graph backed by :class:`networkx.DiGraph`.

    Operand wiring is stored on each consumer node (attribute
    ``operands``: role -> ``(producer id, producer port)``); the networkx
    edges mirror the wiring with parallel operand edges collapsed, and are
    used for traversal, topological ordering and analyses.

    The class enforces single assignment (each node added once), port
    completeness for op nodes, and acyclicity (checked by
    :meth:`validate` / :meth:`topological_order`).
    """

    def __init__(self, name: str = "graph") -> None:
        self.name = name
        self.g = nx.DiGraph()
        self._inputs: list[NodeId] = []
        self._outputs: list[NodeId] = []

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _add_node(self, nid: NodeId, kind: NodeKind, **attrs: Any) -> NodeId:
        if nid in self.g:
            raise GraphError(f"node {nid!r} added twice")
        self.g.add_node(nid, kind=kind, operands={}, **attrs)
        return nid

    def add_input(self, nid: NodeId, pos: tuple | None = None, tag: str | None = None) -> NodeId:
        """Add a primary-input node."""
        self._add_node(nid, NodeKind.INPUT, pos=pos, tag=tag, comp_time=0)
        self._inputs.append(nid)
        return nid

    def add_const(self, nid: NodeId, value: Any, pos: tuple | None = None) -> NodeId:
        """Add a constant node carrying ``value``."""
        return self._add_node(nid, NodeKind.CONST, value=value, pos=pos, comp_time=0)

    def add_op(
        self,
        nid: NodeId,
        opcode: str,
        operands: Mapping[str, "NodeId | PortRef"],
        pos: tuple | None = None,
        comp_time: int = 1,
        tag: str | None = None,
    ) -> NodeId:
        """Add a computation node.

        Parameters
        ----------
        opcode:
            Key into :data:`OP_ROLES`.
        operands:
            Mapping from role name to the producer (node id or
            :class:`PortRef`); must supply exactly the roles the opcode
            requires.
        """
        roles = OP_ROLES.get(opcode)
        if roles is None:
            raise GraphError(f"unknown opcode {opcode!r}")
        if set(operands) != set(roles):
            raise GraphError(
                f"opcode {opcode!r} requires roles {roles}, got {tuple(operands)}"
            )
        self._add_node(nid, NodeKind.OP, opcode=opcode, pos=pos, comp_time=comp_time, tag=tag)
        for role, src in operands.items():
            self._wire(src, nid, role)
        return nid

    def add_pass(
        self,
        nid: NodeId,
        src: "NodeId | PortRef",
        pos: tuple | None = None,
        kind: NodeKind = NodeKind.PASS,
        tag: str | None = None,
    ) -> NodeId:
        """Add a pass-through (or, with ``kind=DELAY``, a delay) node."""
        if kind not in (NodeKind.PASS, NodeKind.DELAY):
            raise GraphError(f"add_pass kind must be PASS or DELAY, got {kind}")
        self._add_node(nid, kind, pos=pos, comp_time=1, tag=tag)
        self._wire(src, nid, "a")
        return nid

    def add_delay(
        self,
        nid: NodeId,
        src: "NodeId | PortRef",
        pos: tuple | None = None,
        tag: str | None = None,
    ) -> NodeId:
        """Add a delay node (regularization padding, Fig. 4b / Fig. 15)."""
        return self.add_pass(nid, src, pos=pos, kind=NodeKind.DELAY, tag=tag)

    def add_output(
        self,
        nid: NodeId,
        src: "NodeId | PortRef",
        pos: tuple | None = None,
        tag: str | None = None,
    ) -> NodeId:
        """Add a primary-output node fed by ``src``."""
        self._add_node(nid, NodeKind.OUTPUT, pos=pos, tag=tag, comp_time=0)
        self._wire(src, nid, "a")
        self._outputs.append(nid)
        return nid

    def _wire(self, src: Hashable, dst: NodeId, role: str) -> None:
        src_node, src_port = _split_source(src)
        if src_node not in self.g:
            raise GraphError(f"edge from unknown node {src_node!r}")
        if src_node == dst:
            # A node consuming its own output has no legal firing time;
            # graph-level self-loops are always a construction bug.
            # (Relation-level self-loops in *datasets* are fine — they
            # become diagonal matrix entries, never FPDG edges; see
            # repro.datasets.core.)
            raise GraphError(
                f"self-loop: node {dst!r} cannot consume its own output"
            )
        if src_port != "out" and src_port not in self.output_ports(src_node):
            raise GraphError(
                f"node {src_node!r} has no output port {src_port!r} "
                f"(available: {self.output_ports(src_node)})"
            )
        self.g.nodes[dst]["operands"][role] = (src_node, src_port)
        self.g.add_edge(src_node, dst)

    def rewire(self, dst: NodeId, role: str, new_src: "NodeId | PortRef") -> None:
        """Re-point operand ``role`` of ``dst`` at a different producer.

        Used by transformations (e.g. broadcast serialization re-points a
        consumer at its upstream neighbour's forwarding port).
        """
        ops = self.g.nodes[dst]["operands"]
        if role not in ops:
            raise GraphError(f"node {dst!r} has no operand role {role!r}")
        old_node, _ = ops.pop(role)
        # Drop the structural edge unless another role still reads it.
        if all(s != old_node for s, _ in ops.values()):
            self.g.remove_edge(old_node, dst)
        self._wire(new_src, dst, role)

    def remove_node(self, nid: NodeId) -> None:
        """Remove ``nid`` (callers must have rewired its consumers first)."""
        consumers = [c for c in self.g.successors(nid)]
        if consumers:
            raise GraphError(f"cannot remove {nid!r}: still feeds {consumers[:3]}")
        self.g.remove_node(nid)
        if nid in self._inputs:
            self._inputs.remove(nid)
        if nid in self._outputs:
            self._outputs.remove(nid)

    def output_ports(self, nid: NodeId) -> tuple[str, ...]:
        """Output ports exposed by ``nid`` (see module docstring)."""
        d = self.g.nodes[nid]
        if d["kind"] is NodeKind.OP:
            return ("out",) + OP_ROLES[d["opcode"]]
        return ("out",)

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @property
    def inputs(self) -> tuple[NodeId, ...]:
        """Primary inputs in insertion order."""
        return tuple(self._inputs)

    @property
    def outputs(self) -> tuple[NodeId, ...]:
        """Primary outputs in insertion order."""
        return tuple(self._outputs)

    def kind(self, nid: NodeId) -> NodeKind:
        """Kind of node ``nid``."""
        return self.g.nodes[nid]["kind"]

    def node(self, nid: NodeId) -> NodeView:
        """An immutable attribute snapshot for ``nid``."""
        d = self.g.nodes[nid]
        return NodeView(
            id=nid,
            kind=d["kind"],
            opcode=d.get("opcode"),
            pos=d.get("pos"),
            comp_time=d.get("comp_time", 1),
            tag=d.get("tag"),
            value=d.get("value"),
        )

    def pos(self, nid: NodeId) -> tuple | None:
        """Drawing position of ``nid`` (or None)."""
        return self.g.nodes[nid].get("pos")

    def operands(self, nid: NodeId) -> dict[str, tuple[NodeId, str]]:
        """Mapping role -> ``(producer id, producer port)``."""
        return dict(self.g.nodes[nid]["operands"])

    def consumers(self, nid: NodeId, out_port: str | None = None) -> list[tuple[NodeId, str]]:
        """Consumers of ``nid``: list of ``(consumer id, role)``.

        With ``out_port`` given, only consumers reading that port.
        """
        result = []
        for succ in self.g.successors(nid):
            for role, (src, sport) in self.g.nodes[succ]["operands"].items():
                if src == nid and (out_port is None or sport == out_port):
                    result.append((succ, role))
        return result

    def nodes_of_kind(self, *kinds: NodeKind) -> Iterator[NodeId]:
        """Iterate node ids whose kind is in ``kinds``."""
        want = set(kinds)
        for nid, d in self.g.nodes(data=True):
            if d["kind"] in want:
                yield nid

    def __len__(self) -> int:
        return self.g.number_of_nodes()

    def __contains__(self, nid: NodeId) -> bool:
        return nid in self.g

    def __repr__(self) -> str:  # noqa: D105
        c = node_counts(self)
        return (
            f"<DependenceGraph {self.name!r}: {c[NodeKind.OP]} ops, "
            f"{c[NodeKind.PASS]} passes, {c[NodeKind.DELAY]} delays, "
            f"{c[NodeKind.INPUT]} in, {c[NodeKind.OUTPUT]} out>"
        )

    # ------------------------------------------------------------------
    # Structural checks
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Check the invariants every stage of the pipeline must keep.

        * acyclic (the FPDG has all loops unfolded);
        * every op node has exactly the ports its opcode requires;
        * pass/delay/output nodes have exactly one operand;
        * source nodes (inputs/constants) have none.
        """
        if not nx.is_directed_acyclic_graph(self.g):
            cycle = nx.find_cycle(self.g)
            raise GraphError(f"graph has a cycle: {cycle[:4]}...")
        for nid in self.nodes_of_kind(NodeKind.OP):
            opcode = self.g.nodes[nid]["opcode"]
            roles = set(OP_ROLES[opcode])
            have = set(self.g.nodes[nid]["operands"])
            if have != roles:
                raise GraphError(f"op {nid!r} ({opcode}) has ports {have}, needs {roles}")
        for nid in self.nodes_of_kind(NodeKind.PASS, NodeKind.DELAY, NodeKind.OUTPUT):
            n_ops = len(self.g.nodes[nid]["operands"])
            if n_ops != 1:
                raise GraphError(f"{self.kind(nid).value} node {nid!r} has {n_ops} operands")
        for nid in self.nodes_of_kind(NodeKind.INPUT, NodeKind.CONST):
            if self.g.nodes[nid]["operands"]:
                raise GraphError(f"source node {nid!r} has operands")

    def topological_order(self) -> list[NodeId]:
        """Nodes in a topological order (validates acyclicity)."""
        try:
            return list(nx.topological_sort(self.g))
        except nx.NetworkXUnfeasible as exc:
            raise GraphError("graph has a cycle") from exc

    def critical_path_length(self) -> int:
        """Length (in unit-time node executions) of the longest path.

        The paper: a direct pipelined implementation of the graph has
        minimum delay *determined by the longest path in the graph*.  Only
        slot-occupying nodes contribute time.
        """
        dist: dict[NodeId, int] = {}
        for nid in self.topological_order():
            t = 1 if self.kind(nid).occupies_slot else 0
            preds = list(self.g.predecessors(nid))
            dist[nid] = t + (max(dist[p] for p in preds) if preds else 0)
        return max(dist.values(), default=0)

    # ------------------------------------------------------------------
    # Copy
    # ------------------------------------------------------------------
    def copy(self, name: str | None = None) -> "DependenceGraph":
        """Deep structural copy (operand maps are copied per node)."""
        out = DependenceGraph(name or self.name)
        out.g = self.g.copy()
        for nid in out.g.nodes:
            out.g.nodes[nid]["operands"] = dict(out.g.nodes[nid]["operands"])
        out._inputs = list(self._inputs)
        out._outputs = list(self._outputs)
        return out


def node_counts(dg: DependenceGraph) -> dict[NodeKind, int]:
    """Histogram of node kinds (Fig. 10/11 bookkeeping)."""
    counts = {k: 0 for k in NodeKind}
    for _, d in dg.g.nodes(data=True):
        counts[d["kind"]] += 1
    return counts
