"""The edge-list parser's two paths must agree on every input.

``load_edgelist`` tries a whole-buffer parse first and falls back to
the line-by-line parse when it cannot prove the input well-formed.  For
any file both routes must give the same :class:`GraphDataset` (edges,
``n`` and ``meta``) or the same :class:`DatasetError` (reason, line and
message).  The slow route is forced by making the whole-buffer parse
decline.
"""

from __future__ import annotations

import gzip

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets import DatasetError, load_edgelist
from repro.datasets import edgelist


def outcome(path, **kw):
    try:
        ds = load_edgelist(path, **kw)
    except DatasetError as exc:
        return ("error", exc.reason, exc.line, str(exc))
    return ("ok", ds.name, ds.n, ds.edges.tolist(), ds.meta)


def both_paths(path, monkeypatch, **kw):
    fast = outcome(path, **kw)
    with monkeypatch.context() as m:
        m.setattr(edgelist, "_parse_buffer", lambda buf, comment: None)
        slow = outcome(path, **kw)
    return fast, slow


good_ids = st.one_of(
    st.integers(0, 300).map(str),
    st.integers(0, 300).map(lambda v: f"00{v}"),
)
any_ids = st.one_of(
    good_ids,
    st.integers(-50, -1).map(str),
    st.integers(2**63, 2**64).map(str),
    st.sampled_from(("x", "1.5", "+3", "1_0", "0x1", "")),
)
seps = st.sampled_from((" ", "\t", "  ", " \t", "\t\t"))
pads = st.sampled_from(("", " ", "\t", "  "))
ends = st.sampled_from(("\n", "\r\n", "\r"))


@st.composite
def lines(draw, ids) -> str:
    kind = draw(st.sampled_from(
        ("pair", "pair", "pair", "pair", "comment", "blank", "triple",
         "single")
    ))
    if kind == "comment":
        return draw(pads) + "#" + draw(st.sampled_from(
            ("", " Nodes: 5 Edges: 9", "\tFromNodeId\tToNodeId", " 1 2 3")))
    if kind == "blank":
        return draw(pads)
    count = {"pair": 2, "triple": 3, "single": 1}[kind]
    words = [draw(ids) for _ in range(count)]
    sep = draw(seps)
    return draw(pads) + sep.join(words) + draw(pads)


@st.composite
def documents(draw, ids=any_ids) -> str:
    body = draw(st.lists(lines(ids), max_size=12))
    end = draw(ends)
    text = end.join(body)
    if body and draw(st.booleans()):
        text += end  # final newline, or none
    return text


# Digit-only documents reach the whole-buffer parse's line-shape check;
# the rest exercise its refusals.
@given(text=st.one_of(documents(good_ids), documents()), gz=st.booleans())
@settings(max_examples=200, deadline=None, derandomize=True, database=None)
def test_fast_and_slow_paths_agree(text: str, gz: bool, tmp_path_factory) -> None:
    path = tmp_path_factory.mktemp("fuzz") / ("g.txt.gz" if gz else "g.txt")
    data = text.encode()
    path.write_bytes(gzip.compress(data) if gz else data)
    mp = pytest.MonkeyPatch()
    try:
        fast, slow = both_paths(path, mp)
    finally:
        mp.undo()
    assert fast == slow


@pytest.mark.parametrize(
    "text",
    (
        "# SNAP header\n# FromNodeId\tToNodeId\n0\t1\n1\t2\n",
        "0 1\r\n1 2\r\n",
        "0 1\r1 2\r",
        "\n\n  0 1  \n\n\t1\t2\t\n# mid-file comment\n2 0",
        "",
        "\n \n",
        "# only comments\n",
    ),
)
def test_fast_path_engages_on_well_formed_input(text, tmp_path,
                                               monkeypatch) -> None:
    # The whole-buffer parse must really run on plain SNAP input, or the
    # agreement above says nothing about it.
    assert edgelist._parse_buffer(text.encode(), "#") is not None
    path = tmp_path / "g.txt"
    path.write_bytes(text.encode())
    fast, slow = both_paths(path, monkeypatch)
    assert fast == slow and fast[0] == "ok"


@pytest.mark.parametrize(
    ("text", "reason", "line"),
    (
        ("0 1\n1 2 3\n", "parse", 2),
        ("0 1 2\n3\n", "parse", 1),
        ("0\n1 2 3\n", "parse", 1),
        ("0 1\n\n# c\nx 2\n", "parse", 4),
        ("0 1\r\n5\r\n", "parse", 2),
        ("0 1 # trailing comment\n", "parse", 1),
        ("0 -3\n", "vertex-out-of-range", None),
        (f"0 {2**63}\n", "parse", None),
    ),
)
def test_malformed_input_errors_agree(text, reason, line, tmp_path,
                                      monkeypatch) -> None:
    path = tmp_path / "bad.txt"
    path.write_bytes(text.encode())
    fast, slow = both_paths(path, monkeypatch)
    assert fast == slow
    assert fast[:3] == ("error", reason, line)


def test_remap_and_explicit_n_agree(tmp_path, monkeypatch) -> None:
    path = tmp_path / "g.txt"
    path.write_text("100\t7\n7 9000\n100 7\n")
    for kw in ({"remap": True}, {"n": 9001}, {"n": 10}):
        fast, slow = both_paths(path, monkeypatch, **kw)
        assert fast == slow, kw


def test_non_utf8_bytes_are_a_parse_error(tmp_path) -> None:
    path = tmp_path / "g.txt"
    path.write_bytes(b"0 1\n\xff\xfe 2\n")
    with pytest.raises(DatasetError) as exc:
        load_edgelist(path)
    assert exc.value.reason == "parse"


def test_truncated_gzip_is_an_io_error(tmp_path) -> None:
    blob = gzip.compress(b"".join(b"%d\t%d\n" % (i, i + 1) for i in range(500)))
    path = tmp_path / "cut.txt.gz"
    path.write_bytes(blob[: len(blob) // 2])
    with pytest.raises(DatasetError) as exc:
        load_edgelist(path)
    assert exc.value.reason == "io"


def test_corrupt_gzip_is_an_io_error(tmp_path) -> None:
    blob = bytearray(gzip.compress(b"0 1\n" * 400))
    blob[len(blob) // 2] ^= 0xFF
    path = tmp_path / "bad.txt.gz"
    path.write_bytes(bytes(blob))
    with pytest.raises(DatasetError) as exc:
        load_edgelist(path)
    assert exc.value.reason == "io"


def test_fast_path_returns_int64_pairs() -> None:
    out = edgelist._parse_buffer(b"# h\n3\t4\n5 6", "#")
    assert out is not None and out.dtype == np.int64
    assert out.tolist() == [[3, 4], [5, 6]]
