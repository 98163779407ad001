"""The ``.rwix`` binary walk-sketch container: versioned, checksummed, mmap-aligned.

A walk-sketch index stores precomputed random-walk *endpoints* for a set of
(hub node, bucket) pairs so the serving layer can answer hot-seed queries by
reusing stored samples instead of regenerating them.  The container mirrors
the ``.rcsr`` graph format (:mod:`repro.graph.binfmt`): a 64-byte CRC-checked
header followed by 64-aligned little-endian array sections that
:func:`numpy.memmap` can map directly.

Layout (little-endian, all offsets from the start of the file)::

    offset  size  field
    ------  ----  -----------------------------------------------
       0      4   magic  b"RWIX"
       4      2   format version (currently 2)
       6      2   flags (reserved, must be 0)
       8      8   S  (number of sketches)
      16      8   E  (total stored endpoints across all sketches)
      24      8   n  (node count of the graph the index was built for)
      32      8   m  (edge count of the graph the index was built for)
      40      8   graph fingerprint (see :func:`graph_fingerprint`)
      48      4   CRC32 of header bytes 0..47
      52     12   zero padding
      64      –   array sections (:data:`SECTIONS`), each aligned to 64 bytes:
                    nodes      int32[S]    hub/seed node per sketch
                    kinds      int64[S]    walk law (0=poisson, 1=geometric)
                    buckets    float64[S]  law parameter (t or alpha)
                    ptr        int64[S+1]  prefix offsets into endpoints
                    endpoints  int32[E]    walk endpoints, concatenated

Section offsets are derived from ``(S, E)`` rather than stored, so a header
that passes its CRC fully determines the file geometry.  Node ids take 4
bytes (:data:`NODE_DTYPE`), so an index covers graphs of up to
``2**31 - 1`` nodes and its endpoints cost 4 bytes per stored walk;
version 1 stored them as ``int64`` and is refused, since an index is
derived data that ``repro-cli index build`` remakes.  The ``(n, m,
fingerprint)`` triple is the staleness/epoch contract: a reader must refuse
to serve an index against a graph whose shape or content fingerprint
differs from what the index was built on — stored endpoints would then be
samples from the *wrong* distribution.
"""

from __future__ import annotations

import struct
import zlib
from pathlib import Path
from typing import Any

import numpy as np

from repro.exceptions import WalkIndexError
from repro.graph.graph import Graph

#: First bytes of every ``.rwix`` file.
MAGIC = b"RWIX"

#: Format version written by :func:`write_index_file` (2: ``<i4`` node ids).
FORMAT_VERSION = 2

#: Conventional file extension (readers sniff magic bytes; advisory only).
EXTENSION = ".rwix"

#: Array sections start on multiples of this (cache-line alignment; the
#: header occupies exactly one unit).
ALIGNMENT = 64

_HEADER_STRUCT = struct.Struct("<4sHHQQQQQI12x")
HEADER_SIZE = _HEADER_STRUCT.size
assert HEADER_SIZE == ALIGNMENT

_INT_DTYPE = np.dtype("<i8")

#: Dtype of both node-id sections, ``nodes`` and ``endpoints``.
NODE_DTYPE = np.dtype("<i4")

#: Largest node count whose ids fit :data:`NODE_DTYPE`.
MAX_NODES = int(np.iinfo(NODE_DTYPE).max)

#: Every array section in file order: name, dtype, and element count as a
#: function of ``(S, E)``.  The geometry, the writer and the reader all read
#: this one table.
SECTIONS = (
    ("nodes", NODE_DTYPE, lambda s, e: s),
    ("kinds", _INT_DTYPE, lambda s, e: s),
    ("buckets", np.dtype("<f8"), lambda s, e: s),
    ("ptr", _INT_DTYPE, lambda s, e: s + 1),
    ("endpoints", NODE_DTYPE, lambda s, e: e),
)

#: Walk-law codes stored in the ``kinds`` section.
KIND_POISSON = 0
KIND_GEOMETRIC = 1
KIND_NAMES = {KIND_POISSON: "poisson", KIND_GEOMETRIC: "geometric"}
KIND_CODES = {name: code for code, name in KIND_NAMES.items()}

#: Cap on how many ``indices`` elements feed the content fingerprint; keeps
#: fingerprinting O(1)-ish on billion-edge graphs while still sampling the
#: whole adjacency range.
_FINGERPRINT_SAMPLE = 65536


def graph_fingerprint(graph: Graph) -> int:
    """A cheap 64-bit content fingerprint binding an index to one graph.

    High 32 bits: CRC32 of the full ``indptr`` array (any change to any
    degree moves every later entry).  Low 32 bits: CRC32 of an evenly
    strided sample of ``indices``.  Combined with the exact ``(n, m)``
    stored alongside it in the header, this catches rebuilt, edited, and
    swapped graphs without hashing gigabytes of adjacency data.  It reads
    ``graph.compacted()``: an overlay fingerprints as its compaction, which
    is byte-identical to the graph rebuilt from its edges.
    """
    graph = graph.compacted()
    indptr = np.ascontiguousarray(graph.indptr, dtype=_INT_DTYPE)
    high = zlib.crc32(indptr.tobytes())
    indices = graph.indices
    if indices.size:
        stride = max(1, indices.size // _FINGERPRINT_SAMPLE)
        sample = np.ascontiguousarray(indices[::stride], dtype=_INT_DTYPE)
    else:
        sample = np.zeros(0, dtype=_INT_DTYPE)
    low = zlib.crc32(sample.tobytes())
    return (high << 32) | low


def _align(offset: int) -> int:
    return (offset + ALIGNMENT - 1) // ALIGNMENT * ALIGNMENT


def _section_offsets(num_sketches: int, total_endpoints: int) -> dict[str, int]:
    """Byte offsets of every section plus the total file size."""
    offsets: dict[str, int] = {}
    end = HEADER_SIZE
    for name, dtype, count in SECTIONS:
        offsets[name] = _align(end)
        end = offsets[name] + count(num_sketches, total_endpoints) * dtype.itemsize
    offsets["total"] = end
    return offsets


def check_node_count(graph_n: int) -> None:
    """Refuse a graph whose node ids would wrap in the ``<i4`` node sections."""
    if graph_n > MAX_NODES:
        raise WalkIndexError(
            f"a graph of {graph_n} nodes cannot be indexed: .rwix stores node "
            f"ids as 4-byte integers (at most {MAX_NODES} nodes)"
        )


def _validate_payload(
    path: Path,
    *,
    graph_n: int,
    nodes: np.ndarray,
    kinds: np.ndarray,
    buckets: np.ndarray,
    ptr: np.ndarray,
    total_endpoints: int,
) -> None:
    """Reject payloads whose arrays cannot describe a well-formed index."""
    if ptr.size and (ptr[0] != 0 or ptr[-1] != total_endpoints):
        raise WalkIndexError(
            f"{path}: corrupt .rwix payload (sketch pointers do not span "
            f"the endpoint section)"
        )
    if np.any(np.diff(ptr) < 0):
        raise WalkIndexError(
            f"{path}: corrupt .rwix payload (sketch pointers not monotone)"
        )
    if nodes.size and (nodes.min() < 0 or nodes.max() >= graph_n):
        raise WalkIndexError(
            f"{path}: corrupt .rwix payload (sketch node outside 0..{graph_n - 1})"
        )
    unknown = set(np.unique(kinds).tolist()) - set(KIND_NAMES)
    if unknown:
        raise WalkIndexError(
            f"{path}: corrupt .rwix payload (unknown walk-law codes {sorted(unknown)})"
        )
    if buckets.size and not np.all(np.isfinite(buckets)):
        raise WalkIndexError(
            f"{path}: corrupt .rwix payload (non-finite bucket parameter)"
        )
    poisson = buckets[kinds == KIND_POISSON]
    if poisson.size and poisson.min() <= 0:
        raise WalkIndexError(
            f"{path}: corrupt .rwix payload (poisson bucket t must be positive)"
        )
    geometric = buckets[kinds == KIND_GEOMETRIC]
    if geometric.size and (geometric.min() <= 0 or geometric.max() >= 1):
        raise WalkIndexError(
            f"{path}: corrupt .rwix payload (geometric bucket alpha must be in (0, 1))"
        )


def write_index_file(
    path: str | Path,
    *,
    graph_n: int,
    graph_m: int,
    fingerprint: int,
    nodes: np.ndarray,
    kinds: np.ndarray,
    buckets: np.ndarray,
    ptr: np.ndarray,
    endpoints: np.ndarray,
) -> Path:
    """Serialize a walk-sketch index to ``path`` in the ``.rwix`` format.

    Returns the path written.  Like :func:`repro.graph.binfmt.write_graph_binary`
    the file is written in place — pack into a temporary name yourself if
    readers may race.  A graph of more than :data:`MAX_NODES` nodes is
    refused before the file is opened.
    """
    check_node_count(graph_n)
    path = Path(path)
    num_sketches = int(nodes.shape[0])
    total_endpoints = int(endpoints.shape[0])
    offsets = _section_offsets(num_sketches, total_endpoints)
    header = bytearray(
        _HEADER_STRUCT.pack(
            MAGIC, FORMAT_VERSION, 0,
            num_sketches, total_endpoints,
            graph_n, graph_m, fingerprint, 0,
        )
    )
    checksum = zlib.crc32(bytes(header[:48]))
    struct.pack_into("<I", header, 48, checksum)

    arrays = {
        "nodes": nodes, "kinds": kinds, "buckets": buckets, "ptr": ptr,
        "endpoints": endpoints,
    }
    with path.open("wb") as handle:
        handle.write(bytes(header))
        for name, dtype, _ in SECTIONS:
            handle.write(b"\x00" * (offsets[name] - handle.tell()))
            np.ascontiguousarray(arrays[name], dtype=dtype).tofile(handle)
    return path


def _read_header(path: Path) -> tuple[int, int, int, int, int]:
    """Validate the header; returns ``(S, E, graph_n, graph_m, fingerprint)``."""
    try:
        with path.open("rb") as handle:
            raw = handle.read(HEADER_SIZE)
    except OSError as exc:
        raise WalkIndexError(f"cannot read {path}: {exc}") from exc
    if len(raw) < HEADER_SIZE:
        raise WalkIndexError(
            f"{path} is not an .rwix walk index: file shorter than the "
            f"{HEADER_SIZE}-byte header"
        )
    magic, version, flags, num_sketches, total_endpoints, graph_n, graph_m, \
        fingerprint, crc = _HEADER_STRUCT.unpack(raw)
    if magic != MAGIC:
        raise WalkIndexError(
            f"{path} is not an .rwix walk index (bad magic {magic!r})"
        )
    if zlib.crc32(raw[:48]) != crc:
        raise WalkIndexError(f"{path}: corrupt .rwix header (CRC mismatch)")
    if version != FORMAT_VERSION:
        raise WalkIndexError(
            f"{path}: unsupported .rwix version {version} "
            f"(this reader understands version {FORMAT_VERSION}; rebuild it "
            f"with `repro-cli index build`)"
        )
    if flags != 0:
        raise WalkIndexError(f"{path}: unknown .rwix flags {flags:#06x}")
    total = _section_offsets(num_sketches, total_endpoints)["total"]
    if path.stat().st_size < total:
        raise WalkIndexError(
            f"{path}: truncated .rwix file "
            f"(need {total} bytes, have {path.stat().st_size})"
        )
    return num_sketches, total_endpoints, graph_n, graph_m, fingerprint


def sniff(path: str | Path) -> bool:
    """Whether ``path`` starts with the ``.rwix`` magic bytes."""
    try:
        with Path(path).open("rb") as handle:
            return handle.read(len(MAGIC)) == MAGIC
    except OSError:
        return False


def read_index_file(path: str | Path, *, mmap: bool = True) -> dict[str, Any]:
    """Load a ``.rwix`` file, memory-mapped by default.

    Returns a dict with the header metadata, the five array sections, and a
    ``backing`` description (``kind`` is ``"mmap"`` or ``"binary"``).  The
    payload is structurally validated (pointer monotonicity, node range,
    known walk-law codes, parameter ranges) before it is returned, so
    callers never see a half-believable index.  The endpoint section is
    left unread; :meth:`WalkIndex.lookup` range-checks each slice it serves.
    """
    path = Path(path)
    num_sketches, total_endpoints, graph_n, graph_m, fingerprint = _read_header(path)
    offsets = _section_offsets(num_sketches, total_endpoints)
    arrays: dict[str, np.ndarray] = {}
    if mmap:
        for name, dtype, count in SECTIONS:
            arrays[name] = np.memmap(
                path, dtype=dtype, mode="r", offset=offsets[name],
                shape=(count(num_sketches, total_endpoints),),
            )
    else:
        with path.open("rb") as handle:
            for name, dtype, count in SECTIONS:
                handle.seek(offsets[name])
                arrays[name] = np.fromfile(
                    handle, dtype=dtype, count=count(num_sketches, total_endpoints)
                )
    _validate_payload(
        path,
        graph_n=graph_n,
        nodes=arrays["nodes"],
        kinds=arrays["kinds"],
        buckets=arrays["buckets"],
        ptr=arrays["ptr"],
        total_endpoints=total_endpoints,
    )
    return {
        "num_sketches": num_sketches,
        "total_endpoints": total_endpoints,
        "graph_n": graph_n,
        "graph_m": graph_m,
        "fingerprint": fingerprint,
        **arrays,
        "backing": {
            "kind": "mmap" if mmap else "binary",
            "path": str(path),
            "offsets": {k: v for k, v in offsets.items() if k != "total"},
            "bytes": offsets["total"],
        },
    }
