"""Bit-exact graph6 text encoding, a text format over `Graph.code`.

Order prefix: one byte n + 63 for n <= 62, else '~' followed by three
bytes holding n in 18 bits, 6 bits per byte, most significant group
first.  Adjacency: the upper-triangle bits in column order x(0,1), x(0,2),
x(1,2), x(0,3), ..., which is colex pair order, so the bit stream is
`Graph.code` read from its lowest bit.  It is zero-padded to a multiple
of 6, and each 6-bit group (first bit most significant) + 63 is printed
as one byte.

Both directions work on whole words.  `encode` spreads the code's 6-bit
groups into byte lanes (group g from offset 6g to offset 8g) in
log2(groups) rounds of masked shifts (`graphs.shift_rounds`, cached per
group count), writes the lanes out with `int.to_bytes`, and maps each
lane to its printed byte with one `bytes.translate`.  `decode` checks
the byte range by deleting the printable bytes (another `translate`),
maps the body back into lanes, reads them with `int.from_bytes` and
gathers the groups again.
"""

from __future__ import annotations

from functools import cache
from math import comb

from .errors import DomainError
from .graphs import MAX_ORDER, Graph, gather, shift_rounds, spread

# Six code bits, lowest first, read as a graph6 group (first bit most
# significant): the bit reversal, which is its own inverse.  `_TO_TEXT`
# maps a byte lane of six code bits to its printed byte and `_FROM_TEXT`
# maps a printed byte back; `decode` rejects bytes outside '?'..'~' first.
_REVERSED = [int(f"{v:06b}"[::-1], 2) for v in range(64)]
_TO_TEXT = bytes(_REVERSED[v & 63] + 63 for v in range(256))
_FROM_TEXT = bytes(_REVERSED[v - 63 & 63] for v in range(256))
_PRINTED = bytes(range(63, 127))  # '?'..'~'


@cache
def _lane_rounds(groups: int) -> list[tuple[int, int, int]]:
    """Rounds that move 6-bit group g of a code to byte lane g (offset 6g
    to offset 8g), cached per group count."""
    return shift_rounds((6 * g, 6, 2 * g) for g in range(groups))


def _encode_order(n: int) -> str:
    if n <= 62:
        return chr(n + 63)
    return "~" + "".join(chr(((n >> s) & 63) + 63) for s in (12, 6, 0))


def encode(g: Graph) -> str:
    groups = (comb(g.n, 2) + 5) // 6
    lanes = spread(g.code, _lane_rounds(groups)).to_bytes(groups, "little")
    return _encode_order(g.n) + lanes.translate(_TO_TEXT).decode("ascii")


def decode(s: str) -> Graph:
    s = s.strip()
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<"):]
    if not s:
        raise DomainError("empty graph6 string")
    raw = s.encode("ascii", "ignore")
    if len(raw) < len(s) or raw.translate(None, _PRINTED):  # a byte dropped or left over
        bad = next(ch for ch in s if not 63 <= ord(ch) <= 126)
        raise DomainError(f"byte {bad!r} outside graph6 range")
    if raw[0] == 126:  # '~' long form
        if len(raw) < 4:
            raise DomainError("truncated graph6 order")
        n = raw[1] - 63 << 12 | raw[2] - 63 << 6 | raw[3] - 63
        body = raw[4:]
    else:
        n = raw[0] - 63
        body = raw[1:]
    if not 1 <= n <= MAX_ORDER:
        raise DomainError(f"graph6 order {n} unsupported (1..{MAX_ORDER})")
    m = comb(n, 2)
    groups = (m + 5) // 6
    if len(body) != groups:
        raise DomainError("graph6 body length does not match the order")
    code = gather(int.from_bytes(body.translate(_FROM_TEXT), "little"), _lane_rounds(groups))
    if code >> m:
        raise DomainError("nonzero padding bits")
    return Graph.from_code(n, code)
