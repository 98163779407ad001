"""The ``.rcsr`` binary CSR container: versioned, checksummed, mmap-aligned.

Parsing a SNAP-style edge list costs minutes at the 10M+-edge scale (text
decode, label compaction, CSR build), yet the resulting structure is just
three flat ``int64`` arrays.  This module freezes those arrays into a
binary container that :func:`numpy.memmap` can map directly, so loading a
packed graph costs one sequential read of its arrays, not a rebuild, and
multiple processes share its pages through the OS page cache instead of
re-pickling CSR arrays into shared memory.

Layout (little-endian, all offsets from the start of the file)::

    offset  size  field
    ------  ----  -----------------------------------------------
       0      4   magic  b"RCSR"
       4      2   format version (currently 1)
       6      2   flags (reserved, must be 0)
       8      8   n  (number of nodes)
      16      8   m  (number of undirected edges)
      24      8   byte offset of indptr   (int64[n + 1])
      32      8   byte offset of degrees  (int64[n])
      40      8   byte offset of indices  (int64[2m])
      48      4   CRC32 of header bytes 0..47
      52     12   zero padding
      64      –   array sections, each aligned to 64 bytes

Every array section starts on a 64-byte boundary (cache-line aligned, and
trivially page-alignable by the mapper), arrays are stored exactly as the
kernels consume them (``<i8``), and the header checksum catches truncated
or bit-rotted headers before any array is interpreted.  The payload has no
checksum; the reader checks that it describes a graph on ``n`` nodes
instead (``indptr`` never decreases, ``degrees`` are its row lengths, every
neighbor id is in ``[0, n)``), so a corrupt file is refused at load rather
than answering queries with nodes that do not exist.  The format is
versioned: readers reject files whose version they do not understand
rather than misparsing them.
"""

from __future__ import annotations

import struct
import zlib
from pathlib import Path

import numpy as np

from repro.exceptions import GraphError
from repro.graph.graph import Graph

#: First bytes of every ``.rcsr`` file.
MAGIC = b"RCSR"

#: Format version written by :func:`write_graph_binary`.
FORMAT_VERSION = 1

#: Conventional file extension (the registry sniffs magic bytes, so the
#: extension is advisory).
EXTENSION = ".rcsr"

#: Array sections start on multiples of this (cache-line alignment; the
#: header occupies exactly one unit).
ALIGNMENT = 64

_HEADER_STRUCT = struct.Struct("<4sHHQQQQQI12x")
HEADER_SIZE = _HEADER_STRUCT.size
assert HEADER_SIZE == ALIGNMENT

_ARRAY_DTYPE = np.dtype("<i8")


def _align(offset: int) -> int:
    return (offset + ALIGNMENT - 1) // ALIGNMENT * ALIGNMENT


def _section_offsets(n: int, m: int) -> tuple[int, int, int, int]:
    """Byte offsets of (indptr, degrees, indices) plus the total file size."""
    indptr_off = _align(HEADER_SIZE)
    degrees_off = _align(indptr_off + (n + 1) * _ARRAY_DTYPE.itemsize)
    indices_off = _align(degrees_off + n * _ARRAY_DTYPE.itemsize)
    total = indices_off + 2 * m * _ARRAY_DTYPE.itemsize
    return indptr_off, degrees_off, indices_off, total


def write_graph_binary(graph: Graph, path: str | Path) -> Path:
    """Serialize ``graph`` to ``path`` in the ``.rcsr`` format.

    Returns the path written.  The file is written in place (no atomic
    rename): pack into a temporary name yourself if readers may race.
    """
    path = Path(path)
    n, m = graph.num_nodes, graph.num_edges
    indptr_off, degrees_off, indices_off, _ = _section_offsets(n, m)
    header = bytearray(
        _HEADER_STRUCT.pack(
            MAGIC, FORMAT_VERSION, 0, n, m,
            indptr_off, degrees_off, indices_off, 0,
        )
    )
    checksum = zlib.crc32(bytes(header[:48]))
    struct.pack_into("<I", header, 48, checksum)

    with path.open("wb") as handle:
        handle.write(bytes(header))
        for offset, array in (
            (indptr_off, graph.indptr),
            (degrees_off, graph.degrees),
            (indices_off, graph.indices),
        ):
            handle.write(b"\x00" * (offset - handle.tell()))
            np.ascontiguousarray(array, dtype=_ARRAY_DTYPE).tofile(handle)
    return path


def _read_header(path: Path) -> tuple[int, int, int, int, int]:
    """Validate the header of ``path``; returns ``(n, m, *array offsets)``."""
    try:
        with path.open("rb") as handle:
            raw = handle.read(HEADER_SIZE)
    except OSError as exc:
        raise GraphError(f"cannot read {path}: {exc}") from exc
    if len(raw) < HEADER_SIZE:
        raise GraphError(
            f"{path} is not an .rcsr graph: file shorter than the "
            f"{HEADER_SIZE}-byte header"
        )
    magic, version, flags, n, m, indptr_off, degrees_off, indices_off, crc = (
        _HEADER_STRUCT.unpack(raw)
    )
    if magic != MAGIC:
        raise GraphError(
            f"{path} is not an .rcsr graph (bad magic {magic!r})"
        )
    if zlib.crc32(raw[:48]) != crc:
        raise GraphError(f"{path}: corrupt .rcsr header (CRC mismatch)")
    if version != FORMAT_VERSION:
        raise GraphError(
            f"{path}: unsupported .rcsr version {version} "
            f"(this reader understands version {FORMAT_VERSION})"
        )
    if flags != 0:
        raise GraphError(f"{path}: unknown .rcsr flags {flags:#06x}")
    expected = _section_offsets(n, m)
    if (indptr_off, degrees_off, indices_off) != expected[:3]:
        raise GraphError(f"{path}: corrupt .rcsr header (bad section offsets)")
    if path.stat().st_size < expected[3]:
        raise GraphError(
            f"{path}: truncated .rcsr file "
            f"(need {expected[3]} bytes, have {path.stat().st_size})"
        )
    return n, m, indptr_off, degrees_off, indices_off


def sniff(path: str | Path) -> bool:
    """Whether ``path`` starts with the ``.rcsr`` magic bytes."""
    try:
        with Path(path).open("rb") as handle:
            return handle.read(len(MAGIC)) == MAGIC
    except OSError:
        return False


def read_graph_binary(path: str | Path, *, mmap: bool = True) -> Graph:
    """Load an ``.rcsr`` graph, memory-mapped by default.

    With ``mmap=True`` the CSR arrays are read-only :func:`numpy.memmap`
    views, whose pages are shared across processes through the page cache.
    With ``mmap=False`` the arrays are read eagerly into private memory.
    Either way the payload is checked once, which reads every page; a
    payload that does not describe a graph on ``n`` nodes raises
    :class:`~repro.exceptions.GraphError`.
    """
    path = Path(path)
    n, m, indptr_off, degrees_off, indices_off = _read_header(path)
    sections = (
        (indptr_off, n + 1),
        (degrees_off, n),
        (indices_off, 2 * m),
    )
    if mmap:
        arrays = [
            np.memmap(path, dtype=_ARRAY_DTYPE, mode="r", offset=offset, shape=(count,))
            for offset, count in sections
        ]
    else:
        arrays = []
        with path.open("rb") as handle:
            for offset, count in sections:
                handle.seek(offset)
                arrays.append(np.fromfile(handle, dtype=_ARRAY_DTYPE, count=count))
    indptr, degrees, indices = arrays
    backing = {
        "kind": "mmap" if mmap else "binary",
        "path": str(path),
        "offsets": {
            "indptr": indptr_off,
            "degrees": degrees_off,
            "indices": indices_off,
        },
        "n": n,
        "m": m,
    }
    try:
        graph = Graph.from_csr_arrays(
            n, m, indptr, indices, degrees, backing=backing
        )
        _check_payload(n, indptr, degrees, indices)
    except GraphError as exc:
        raise GraphError(f"{path}: corrupt .rcsr payload ({exc})") from exc
    return graph


def _check_payload(
    n: int, indptr: np.ndarray, degrees: np.ndarray, indices: np.ndarray
) -> None:
    """Raise :class:`GraphError` unless the arrays describe a graph on ``n``
    nodes."""
    row_lengths = np.diff(indptr)
    if row_lengths.size and row_lengths.min() < 0:
        raise GraphError("indptr decreases")
    if not np.array_equal(row_lengths, degrees):
        raise GraphError("degrees differ from the indptr row lengths")
    if indices.size:
        low, high = int(indices.min()), int(indices.max())
        if low < 0 or high >= n:
            raise GraphError(
                f"neighbor ids span [{low}, {high}], outside [0, {n})"
            )
