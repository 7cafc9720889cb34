"""Tests for the dependence-graph IR."""

from __future__ import annotations

import pytest

from repro.core.graph import (
    DependenceGraph,
    GraphError,
    NodeKind,
    PortRef,
    node_counts,
    port,
)


def small_graph() -> DependenceGraph:
    dg = DependenceGraph("small")
    dg.add_input("x", pos=(0, 0))
    dg.add_input("y", pos=(0, 1))
    dg.add_const("one", True)
    dg.add_op("m", "mac", {"a": "x", "b": "y", "c": "one"}, pos=(1, 0))
    dg.add_pass("p", "m", pos=(1, 1))
    dg.add_output("o", "p")
    return dg


def test_construction_and_counts() -> None:
    dg = small_graph()
    dg.validate()
    c = node_counts(dg)
    assert c[NodeKind.INPUT] == 2
    assert c[NodeKind.CONST] == 1
    assert c[NodeKind.OP] == 1
    assert c[NodeKind.PASS] == 1
    assert c[NodeKind.OUTPUT] == 1
    assert len(dg) == 6
    assert "m" in dg and "zzz" not in dg


def test_inputs_outputs_order() -> None:
    dg = small_graph()
    assert dg.inputs == ("x", "y")
    assert dg.outputs == ("o",)


def test_duplicate_node_rejected() -> None:
    dg = small_graph()
    with pytest.raises(GraphError, match="twice"):
        dg.add_input("x")


def test_unknown_opcode_rejected() -> None:
    dg = DependenceGraph()
    dg.add_input("x")
    with pytest.raises(GraphError, match="unknown opcode"):
        dg.add_op("bad", "frobnicate", {"a": "x"})


def test_wrong_roles_rejected() -> None:
    dg = DependenceGraph()
    dg.add_input("x")
    with pytest.raises(GraphError, match="requires roles"):
        dg.add_op("m", "mac", {"a": "x", "b": "x"})


def test_edge_from_unknown_node_rejected() -> None:
    dg = DependenceGraph()
    dg.add_input("x")
    with pytest.raises(GraphError, match="unknown node"):
        dg.add_op("m", "mac", {"a": "x", "b": "ghost", "c": "x"})


def test_unknown_output_port_rejected() -> None:
    dg = DependenceGraph()
    dg.add_input("x")
    dg.add_pass("p", "x")
    with pytest.raises(GraphError, match="no output port"):
        dg.add_pass("q", port("p", "b"))


def test_op_forwarding_ports() -> None:
    dg = small_graph()
    assert dg.output_ports("m") == ("out", "a", "b", "c")
    assert dg.output_ports("p") == ("out",)


def test_same_source_multiple_roles() -> None:
    """An op may read one producer on several ports (boundary self-wiring)."""
    dg = DependenceGraph()
    dg.add_input("x")
    dg.add_op("m", "mac", {"a": "x", "b": "x", "c": "x"})
    dg.validate()
    assert dg.operands("m") == {"a": ("x", "out"), "b": ("x", "out"), "c": ("x", "out")}


def test_consumers_by_port() -> None:
    dg = DependenceGraph()
    dg.add_input("x")
    dg.add_input("y")
    dg.add_op("m", "mac", {"a": "x", "b": "x", "c": "y"})
    dg.add_pass("f", port("m", "b"))
    assert dg.consumers("m") == [("f", "a")]
    assert dg.consumers("x") == [("m", "a"), ("m", "b")]
    assert ("f", "a") in dg.consumers("m", out_port="b")
    assert dg.consumers("m", out_port="out") == []


def test_rewire_moves_operand() -> None:
    dg = DependenceGraph()
    dg.add_input("x")
    dg.add_input("y")
    dg.add_pass("p", "x")
    dg.rewire("p", "a", "y")
    assert dg.operands("p") == {"a": ("y", "out")}
    assert not dg.g.has_edge("x", "p")
    assert dg.g.has_edge("y", "p")


def test_rewire_keeps_shared_structural_edge() -> None:
    dg = DependenceGraph()
    dg.add_input("x")
    dg.add_input("y")
    dg.add_op("m", "mac", {"a": "x", "b": "x", "c": "y"})
    dg.rewire("m", "b", "y")
    # a still reads x, so the x->m edge must survive.
    assert dg.g.has_edge("x", "m")
    assert dg.operands("m")["b"] == ("y", "out")


def test_rewire_unknown_role() -> None:
    dg = DependenceGraph()
    dg.add_input("x")
    dg.add_pass("p", "x")
    with pytest.raises(GraphError, match="no operand role"):
        dg.rewire("p", "zz", "x")


def test_remove_node_requires_no_consumers() -> None:
    dg = DependenceGraph()
    dg.add_input("x")
    dg.add_pass("p", "x")
    with pytest.raises(GraphError, match="still feeds"):
        dg.remove_node("x")
    dg2 = DependenceGraph()
    dg2.add_input("x")
    dg2.add_input("dead")
    dg2.remove_node("dead")
    assert "dead" not in dg2
    assert dg2.inputs == ("x",)


def test_validate_detects_missing_role_after_manual_edit() -> None:
    dg = small_graph()
    del dg.g.nodes["m"]["operands"]["b"]
    with pytest.raises(GraphError, match="has ports"):
        dg.validate()


def test_topological_order_and_critical_path() -> None:
    dg = small_graph()
    order = dg.topological_order()
    assert order.index("x") < order.index("m") < order.index("p") < order.index("o")
    # x -> m(1) -> p(1) -> o : two slot nodes on the longest path.
    assert dg.critical_path_length() == 2


def test_cycle_detected() -> None:
    dg = DependenceGraph()
    dg.add_input("x")
    dg.add_pass("p", "x")
    dg.g.add_edge("p", "p2")  # forge a bad edge to form a cycle
    dg.g.add_edge("p2", "p")
    with pytest.raises(GraphError, match="cycle"):
        dg.topological_order()


def test_copy_is_independent() -> None:
    dg = small_graph()
    cp = dg.copy("clone")
    cp.rewire("p", "a", "x")
    assert dg.operands("p") == {"a": ("m", "out")}
    assert cp.operands("p") == {"a": ("x", "out")}
    assert cp.name == "clone"


def test_positions() -> None:
    dg = small_graph()
    assert dg.pos("m") == (1, 0)
    assert dg.pos("one") is None


def test_node_view() -> None:
    dg = small_graph()
    view = dg.node("m")
    assert view.kind is NodeKind.OP
    assert view.opcode == "mac"
    assert view.comp_time == 1
    cview = dg.node("one")
    assert cview.value is True


def test_kind_properties() -> None:
    assert NodeKind.OP.is_compute
    assert not NodeKind.PASS.is_compute
    for k in (NodeKind.OP, NodeKind.PASS, NodeKind.DELAY):
        assert k.occupies_slot
    for k in (NodeKind.INPUT, NodeKind.CONST, NodeKind.OUTPUT):
        assert not k.occupies_slot


def test_portref_helpers() -> None:
    ref = port("m", "b")
    assert isinstance(ref, PortRef)
    assert ref.node == "m" and ref.port == "b"
