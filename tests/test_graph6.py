import pytest

from recomp.errors import DomainError
from recomp.graph6 import decode, encode
from recomp.graphs import Graph


def reference_encode(g: Graph) -> str:
    """Independent oracle: build the bit string explicitly, then pack."""
    if g.n <= 62:
        head = chr(g.n + 63)
    else:
        head = "~" + chr((g.n >> 12 & 63) + 63) + chr((g.n >> 6 & 63) + 63) + chr((g.n & 63) + 63)
    bitstring = ""
    for col in range(1, g.n):
        for row in range(col):
            bitstring += "1" if g.has_edge(row, col) else "0"
    while len(bitstring) % 6:
        bitstring += "0"
    body = "".join(chr(int(bitstring[i : i + 6], 2) + 63) for i in range(0, len(bitstring), 6))
    return head + body


def test_known_encodings():
    assert encode(Graph.cycle(5)) == "Dhc"
    assert encode(Graph.empty(1)) == "@"
    assert encode(Graph.complete(2)) == "A_"
    assert decode("A_") == Graph.complete(2)


def test_matches_reference_encoder(rng):
    for _ in range(100):
        n = rng.randint(1, 62)
        g = Graph.random(n, rng)
        assert encode(g) == reference_encode(g)


def test_roundtrip(rng):
    for _ in range(500):
        n = rng.randint(1, 62)
        g = Graph.random(n, rng, p=rng.random())
        s = encode(g)
        assert decode(s) == g
        assert encode(decode(s)) == s


def test_long_form_orders(rng):
    for n in (63, 64):
        g = Graph.random(n, rng)
        s = encode(g)
        assert s.startswith("~")
        assert s == reference_encode(g)
        assert decode(s) == g


def test_header_stripping():
    assert decode(">>graph6<<Dhc") == Graph.cycle(5)


def test_rejects_malformed():
    with pytest.raises(DomainError):
        decode("")
    with pytest.raises(DomainError):
        decode("D" + chr(200))  # byte outside range
    with pytest.raises(DomainError):
        decode("Dhc?")  # body too long
    with pytest.raises(DomainError):
        decode("Dh")  # body too short
    with pytest.raises(DomainError):
        decode("Dhd")  # nonzero padding bits (C5 tail group + stray bit)


def test_networkx_interop_if_available(rng):
    nx = pytest.importorskip("networkx")
    for _ in range(50):
        n = rng.choice((rng.randint(1, 30), rng.randint(62, 64)))  # both order prefixes
        g = Graph.random(n, rng, rng.choice((0.1, 0.5, 0.9)))
        nxg = nx.Graph()
        nxg.add_nodes_from(range(n))
        nxg.add_edges_from(g.edges())
        assert nx.to_graph6_bytes(nxg, header=False).decode().strip() == encode(g)
