from math import comb

import pytest

from recomp.errors import DomainError
from recomp.graph6 import decode, encode
from recomp.graphs import Graph

from graph_reference import groupwise_decode, groupwise_encode, rowwise_rows


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


MALFORMED = [
    ("", "empty graph6 string"),
    (">>graph6<<", "empty graph6 string"),
    ("D" + chr(200), "byte 'È' outside graph6 range"),
    ("Dh c", "byte ' ' outside graph6 range"),
    ("Dhc?", "graph6 body length does not match the order"),  # body too long
    ("Dh", "graph6 body length does not match the order"),  # body too short
    ("Dhd", "nonzero padding bits"),  # C5 tail group + stray bit
    ("A`", "nonzero padding bits"),
    ("?", "graph6 order 0 unsupported (1..64)"),
    ("~??", "truncated graph6 order"),
    ("~?A??", "graph6 order 128 unsupported (1..64)"),
    ("~??~", "graph6 body length does not match the order"),
]


def test_rejects_malformed():
    for text, message in MALFORMED:
        with pytest.raises(DomainError) as err:
            decode(text)
        assert str(err.value) == message


def test_rejects_nonzero_padding_in_long_form():
    text = encode(Graph.empty(63))  # 1953 bits: 3 padding bits in the last group
    with pytest.raises(DomainError) as err:
        decode(text[:-1] + chr(63 + 1))
    assert str(err.value) == "nonzero padding bits"
    assert decode(text[:-1] + chr(63 + 8)).has_edge(61, 62)


def oracle_graphs(n, rng):
    """Empty, complete, and random graphs of order n at several densities."""
    yield Graph.empty(n)
    yield Graph.complete(n)
    for p in (0.1, 0.5, 0.9):
        yield Graph.random(n, rng, p)


@pytest.mark.parametrize("n", range(1, 65))
def test_encode_decode_match_groupwise_oracle(n, rng):
    for g in oracle_graphs(n, rng):
        text = encode(g)
        assert text == groupwise_encode(g)
        order, code = groupwise_decode(text)
        assert order == n and decode(text).adj == rowwise_rows(n, code) == g.adj


def oracle_message(text):
    with pytest.raises(DomainError) as err:
        groupwise_decode(text)
    return str(err.value)


@pytest.mark.parametrize("n", range(1, 65))
def test_rejects_like_groupwise_oracle(n, rng):
    pad = -comb(n, 2) % 6  # padding bits, the low bits of the last printed group
    for g in oracle_graphs(n, rng):
        text = encode(g)
        bad_texts = [text[:-1] + chr(63 + (ord(text[-1]) - 63 ^ 1 << b)) for b in range(pad)]
        for ch in ("!", ">", "\x7f", "\x00", "È", "€", chr(1000)):  # outside '?'..'~', not stripped
            at = rng.randrange(len(text) + 1)
            bad_texts.append(text[:at] + ch + text[at:])
        bad_texts += [text + "?", text[:-1]]  # a group too many, one too few
        for bad in bad_texts:
            with pytest.raises(DomainError) as err:
                decode(bad)
            assert str(err.value) == oracle_message(bad)


def test_networkx_interop_if_available(rng):
    nx = pytest.importorskip("networkx")
    for _ in range(50):
        n = rng.choice((rng.randint(1, 30), rng.randint(62, 64)))  # both order prefixes
        g = Graph.random(n, rng, rng.choice((0.1, 0.5, 0.9)))
        nxg = nx.Graph()
        nxg.add_nodes_from(range(n))
        nxg.add_edges_from(g.edges())
        assert nx.to_graph6_bytes(nxg, header=False).decode().strip() == encode(g)
