"""SNAP-style edge-list loader (plain text, optionally gzipped).

The format is the one SNAP exports and the SSC reference implementations
consume: one ``FromNodeId<whitespace>ToNodeId`` pair per line, with
``#``-prefixed comment/header lines.  Tabs and spaces both separate
(SNAP uses tabs; hand-written fixtures often use spaces).  A trailing
``.gz`` suffix selects transparent gzip decompression.

Vertex-id semantics follow :func:`repro.datasets.core.from_edges`:
duplicates dropped, self-loops kept, malformed or out-of-range ids raise
a structured :class:`~repro.datasets.core.DatasetError` carrying the
line number.  External id spaces (non-contiguous SNAP exports) load with
``remap=True``.

The file is read once into memory.  A whole-buffer parse handles input
it can prove well-formed (ASCII digits and whitespace, two ids per
line); anything else goes through the line-by-line parse, which accepts
what Python's ``int`` accepts and alone reports a malformed line.
"""

from __future__ import annotations

import gzip
import io
import re
import zlib
from pathlib import Path
from typing import Iterator

import numpy as np

from .core import DatasetError, GraphDataset, from_edges

__all__ = ["load_edgelist", "save_edgelist"]

#: Bytes the whole-buffer parse accepts once comment lines are gone.
_PLAIN = b"0123456789 \t\n"
#: Longest id the whole-buffer parse converts: 18 digits fit in int64.
_MAX_DIGITS = 18


def _read_bytes(path: Path) -> bytes:
    if path.suffix == ".gz":
        with gzip.open(path, "rb") as fh:
            return fh.read()
    return path.read_bytes()


def _parse_buffer(buf: bytes, comment: str) -> np.ndarray | None:
    """Whole-buffer parse to an ``(m, 2)`` id array.

    Returns ``None`` unless the buffer is provably well-formed, so the
    caller falls back to :func:`_parse_lines` and gets the same edges
    or the same line-numbered error.
    """
    if not buf.isascii():  # the line parse owns UTF-8 decoding
        return None
    if b"\r" in buf:  # universal newlines, as in text mode
        buf = buf.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    if comment:
        if not comment.isascii() or comment != comment.strip():
            return None
        mark = comment.encode()
        if mark in buf:
            buf = re.sub(
                rb"(?m)^[ \t]*" + re.escape(mark) + rb"[^\n]*", b"", buf
            )
    if buf.translate(None, _PLAIN):
        return None
    a = np.frombuffer(buf, dtype=np.uint8)
    digit = a >= ord("0")
    starts = np.flatnonzero(digit & ~np.concatenate(([False], digit[:-1])))
    if not starts.size:
        return np.empty((0, 2), dtype=np.int64)
    ends = np.flatnonzero(digit & ~np.concatenate((digit[1:], [False]))) + 1
    if int((ends - starts).max()) > _MAX_DIGITS or starts.size % 2:
        return None
    # Line of every token: exactly two tokens on each non-blank line.
    line = np.searchsorted(np.flatnonzero(a == ord("\n")), starts)
    first, second = line[0::2], line[1::2]
    if not np.array_equal(first, second) or (np.diff(first) <= 0).any():
        return None
    ids = np.fromstring(buf, dtype=np.int64, sep=" ")
    return ids.reshape(-1, 2) if ids.size == starts.size else None


def _parse_lines(
    lines: Iterator[str], source: str, comment: str
) -> list[tuple[int, int]]:
    edges: list[tuple[int, int]] = []
    for lineno, line in enumerate(lines, start=1):
        text = line.strip()
        if not text or (comment and text.startswith(comment)):
            continue
        parts = text.split()
        if len(parts) != 2:
            raise DatasetError(
                "parse",
                f"expected 'src dst', got {text!r}",
                source=source,
                line=lineno,
            )
        try:
            edges.append((int(parts[0]), int(parts[1])))
        except ValueError:
            raise DatasetError(
                "parse",
                f"non-integer vertex id in {text!r}",
                source=source,
                line=lineno,
            ) from None
    return edges


def load_edgelist(
    path: str | Path,
    *,
    n: int | None = None,
    remap: bool = False,
    comment: str = "#",
    name: str | None = None,
) -> GraphDataset:
    """Load a SNAP-style edge list into a :class:`GraphDataset`.

    ``n`` bounds the id space (ids must be ``< n``); without it the
    vertex count is inferred as ``max id + 1`` (or the distinct-id count
    under ``remap=True``).
    """
    p = Path(path)
    source = str(p)
    try:
        buf = _read_bytes(p)
    except (OSError, EOFError, zlib.error) as exc:
        # EOFError: a truncated gzip stream; zlib.error: a corrupt one.
        raise DatasetError("io", str(exc), source=source) from None
    pairs: np.ndarray | list[tuple[int, int]] | None
    pairs = _parse_buffer(buf, comment)
    if pairs is None:
        text = io.TextIOWrapper(io.BytesIO(buf), encoding="utf-8")
        try:
            pairs = _parse_lines(iter(text), source, comment)
        except UnicodeDecodeError as exc:
            raise DatasetError(
                "parse", f"not UTF-8 text: {exc}", source=source
            ) from None
    return from_edges(
        name or p.name.removesuffix(".gz").removesuffix(".txt"),
        pairs,
        n=n,
        remap=remap,
        source=source,
        meta={"format": "edgelist", "lines": len(pairs)},
    )


def save_edgelist(ds: GraphDataset, path: str | Path) -> Path:
    """Write a dataset back out in the SNAP tab-separated format."""
    p = Path(path)
    p.parent.mkdir(parents=True, exist_ok=True)
    opener = gzip.open if p.suffix == ".gz" else open
    with opener(p, "wt", encoding="utf-8") as fh:  # type: ignore[operator]
        fh.write(f"# Directed graph: {ds.name}\n")
        fh.write(f"# Nodes: {ds.n} Edges: {ds.m}\n")
        fh.write("# FromNodeId\tToNodeId\n")
        for src, dst in ds.edges.tolist():
            fh.write(f"{src}\t{dst}\n")
    return p
