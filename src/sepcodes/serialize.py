"""Bit-exact graph6 serialization and the plain edge-list text format.

graph6 short form only (order <= 62): one header byte order+63, then the
upper-triangle adjacency bits in column-major order packed big-endian six
per byte, each byte offset by 63 and the last byte zero-padded.
"""

from __future__ import annotations

from math import comb

from .errors import FormatError
from .graphs import MAX_VERTICES, Graph, build_graph, graph_code, graph_from_code

# Payload bit t is bit t of graph_code, as both number the vertex pairs in
# the same column-major order; a six-bit group holds it at 5 - t % 6, so
# this table reverses a group's bits, both ways.
_REVERSED = [int(f"{v:06b}"[::-1], 2) for v in range(64)]


def emit_graph6(g: Graph) -> bytes:
    code = graph_code(g)
    nbytes = (comb(g.order, 2) + 5) // 6
    return bytes([g.order + 63] + [_REVERSED[code >> 6 * b & 63] + 63 for b in range(nbytes)])


def parse_graph6(data: bytes | str) -> Graph:
    if isinstance(data, str):
        try:
            data = data.encode("ascii")
        except UnicodeEncodeError as exc:
            raise FormatError(f"graph6 input is not ASCII: {exc}") from None
    data = data.strip()
    if not data:
        raise FormatError("empty graph6 input")
    header = data[0]
    if header == 126:
        raise FormatError("multi-byte graph6 order (n > 62) is not supported")
    if not 63 <= header <= 63 + MAX_VERTICES:
        raise FormatError(f"invalid graph6 header byte {header}")
    order = header - 63
    if order == 0:
        raise FormatError("graphs of order 0 are not supported")
    nbits = comb(order, 2)
    nbytes = (nbits + 5) // 6
    payload = data[1:]
    if len(payload) != nbytes:
        raise FormatError(
            f"graph6 payload has {len(payload)} bytes, expected {nbytes} for order {order}"
        )
    code = 0
    for b, byte in enumerate(payload):
        if not 63 <= byte <= 126:
            raise FormatError(f"graph6 payload byte {byte} outside [63, 126]")
        code |= _REVERSED[byte - 63] << 6 * b
    if code >> nbits:
        raise FormatError("nonzero padding bits in graph6 payload")
    return graph_from_code(order, code)


def emit_edge_list(g: Graph) -> str:
    edges = g.edges()
    lines = [f"{g.order} {len(edges)}"]
    lines.extend(f"{u} {v}" for u, v in edges)
    return "\n".join(lines) + "\n"


def parse_edge_list(text: str) -> Graph:
    lines = [ln for ln in (raw.strip() for raw in text.splitlines()) if ln]
    if not lines:
        raise FormatError("empty edge-list input")
    head = lines[0].split()
    if len(head) != 2:
        raise FormatError(f"expected header 'n m', got {lines[0]!r}")
    try:
        order, m = int(head[0]), int(head[1])
    except ValueError:
        raise FormatError(f"non-integer header {lines[0]!r}") from None
    if len(lines) - 1 != m:
        raise FormatError(f"header announces {m} edges but {len(lines) - 1} lines follow")
    edges = []
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise FormatError(f"expected edge line 'u v', got {ln!r}")
        try:
            edges.append((int(parts[0]), int(parts[1])))
        except ValueError:
            raise FormatError(f"non-integer edge line {ln!r}") from None
    try:
        return build_graph(order, edges)
    except ValueError as exc:
        raise FormatError(str(exc)) from None
