"""Bit-exact graph6 text encoding, a text format over `Graph.code`.

Order prefix: one byte n + 63 for n <= 62, else '~' followed by three
bytes holding n in 18 bits, 6 bits per byte, most significant group
first.  Adjacency: the upper-triangle bits in column order x(0,1), x(0,2),
x(1,2), x(0,3), ..., which is colex pair order, so the bit stream is
`Graph.code` read from its lowest bit.  It is zero-padded to a multiple
of 6, and each 6-bit group (first bit most significant) + 63 is printed
as one byte.
"""

from __future__ import annotations

from math import comb

from .errors import DomainError
from .graphs import MAX_ORDER, Graph

# Six code bits, lowest first, read as a graph6 group (first bit most
# significant): the bit reversal, which is its own inverse.
_REVERSED = [int(f"{v:06b}"[::-1], 2) for v in range(64)]


def _encode_order(n: int) -> str:
    if n <= 62:
        return chr(n + 63)
    return "~" + "".join(chr(((n >> s) & 63) + 63) for s in (12, 6, 0))


def encode(g: Graph) -> str:
    code = g.code
    body = (chr(_REVERSED[code >> s & 63] + 63) for s in range(0, comb(g.n, 2), 6))
    return _encode_order(g.n) + "".join(body)


def decode(s: str) -> Graph:
    s = s.strip()
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<"):]
    if not s:
        raise DomainError("empty graph6 string")
    vals = [ord(ch) - 63 for ch in s]
    if min(vals) < 0 or max(vals) > 63:
        bad = next(ch for ch, v in zip(s, vals) if not 0 <= v <= 63)
        raise DomainError(f"byte {bad!r} outside graph6 range")
    if vals[0] == 63:  # '~' long form
        if len(vals) < 4:
            raise DomainError("truncated graph6 order")
        n = vals[1] << 12 | vals[2] << 6 | vals[3]
        body = vals[4:]
    else:
        n = vals[0]
        body = vals[1:]
    if not 1 <= n <= MAX_ORDER:
        raise DomainError(f"graph6 order {n} unsupported (1..{MAX_ORDER})")
    m = comb(n, 2)
    if len(body) != (m + 5) // 6:
        raise DomainError("graph6 body length does not match the order")
    code = 0
    for v in reversed(body):
        code = code << 6 | _REVERSED[v]
    if code >> m:
        raise DomainError("nonzero padding bits")
    return Graph.from_code(n, code)
