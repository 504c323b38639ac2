from fractions import Fraction

import numpy as np
import pytest

from recomp.errors import DomainError, NonPrimeModulus
from recomp.linalg import (
    ExactMatrix,
    ModMatrix,
    _bareiss_rank,
    binomial,
    cramer_determinant,
    kernel_basis_mod,
    rank_exact,
    rank_mod,
)


def test_rank_exact_basics():
    assert rank_exact([[1 if i == j else 0 for j in range(5)] for i in range(5)]) == 5
    assert rank_exact([[1] * 6 for _ in range(4)]) == 1
    assert rank_exact([[0, 0], [0, 0]]) == 0
    assert rank_exact([[2, 4], [1, 2]]) == 1


def test_rank_exact_w23_v6_full_row_rank():
    from recomp.incidence import build_w

    w = build_w(2, 3, 6)
    assert rank_exact(w.array) == 15


def test_rank_exact_fraction_entries():
    m = ExactMatrix([[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 5), Fraction(1, 7)]])
    assert rank_exact(m) == 2
    singular = ExactMatrix([[Fraction(1, 2), Fraction(1, 4)], [Fraction(2, 3), Fraction(1, 3)]])
    assert rank_exact(singular) == 1


def test_rank_exact_transpose_invariant(rng):
    for _ in range(50):
        r, c = rng.randint(1, 7), rng.randint(1, 7)
        m = [[rng.randint(-4, 4) for _ in range(c)] for _ in range(r)]
        t = [list(row) for row in zip(*m)]
        assert rank_exact(m) == rank_exact(t)


def test_bareiss_agrees_with_certificate_path(rng):
    # low-rank products force the Bareiss lane; compare on full-rank too
    for _ in range(40):
        r, c = rng.randint(2, 8), rng.randint(2, 8)
        rk = rng.randint(1, min(r, c))
        a = [[rng.randint(-5, 5) for _ in range(rk)] for _ in range(r)]
        b = [[rng.randint(-5, 5) for _ in range(c)] for _ in range(rk)]
        m = [[sum(a[i][t] * b[t][j] for t in range(rk)) for j in range(c)] for i in range(r)]
        got = rank_exact(m)
        assert got == _bareiss_rank(m) <= rk
        assert got == np.linalg.matrix_rank(np.array(m, dtype=float))


def test_bareiss_handles_large_entries():
    big = 10**30
    m = [[big, big + 1], [1, 1]]
    assert rank_exact(m) == 2
    assert rank_exact([[big, 2 * big], [3 * big, 6 * big]]) == 1


def test_rank_mod_basics():
    ident = ModMatrix([[1 if i == j else 0 for j in range(4)] for i in range(4)], 2)
    assert rank_mod(ident) == 4
    assert kernel_basis_mod(ident) == []
    ones = ModMatrix([[1] * 6 for _ in range(6)], 2)
    assert rank_mod(ones) == 1
    with pytest.raises(NonPrimeModulus):
        ModMatrix([[1]], 4)


def test_rank_mod_le_rank_exact(rng):
    for _ in range(50):
        r, c = rng.randint(1, 7), rng.randint(1, 7)
        rows = [[rng.randint(0, 1) for _ in range(c)] for _ in range(r)]
        for p in (2, 3, 5):
            assert rank_mod(ModMatrix(rows, p)) <= rank_exact(rows)


def test_kernel_vectors_annihilate(rng):
    for p in (2, 3, 5):
        for _ in range(25):
            r, c = rng.randint(1, 6), rng.randint(1, 8)
            m = ModMatrix([[rng.randint(0, p - 1) for _ in range(c)] for _ in range(r)], p)
            basis = kernel_basis_mod(m)
            assert len(basis) == c - rank_mod(m)
            for vec in basis:
                assert all(x == 0 for x in m.mul_vector(vec))
            if basis:
                stacked = ModMatrix(list(basis), p)
                assert rank_mod(stacked) == len(basis)  # linear independence


def test_mod_transpose_and_gf2_packing(rng):
    rows = [[rng.randint(0, 1) for _ in range(9)] for _ in range(5)]
    m2 = ModMatrix(rows, 2)
    assert m2.row_entries(0) == rows[0]
    assert rank_mod(m2) == rank_mod(ModMatrix(rows, 2).transpose())


def test_mod_transpose_is_entrywise(rng):
    from recomp.incidence import build_w

    for p in (2, 3):
        mats = [build_w(2, 4, 10).mod(p)]
        for _ in range(20):
            r, c = rng.randint(1, 12), rng.randint(1, 70)
            mats.append(ModMatrix([[rng.randint(0, p - 1) for _ in range(c)] for _ in range(r)], p))
        for m in mats:
            t = m.transpose()
            assert (t.nrows, t.ncols, t.p) == (m.ncols, m.nrows, p)
            for i in range(m.nrows):
                for j, x in enumerate(m.row_entries(i)):
                    assert t.row_entries(j)[i] == x


def test_rank_exact_agrees_with_sympy(rng):
    sympy = pytest.importorskip("sympy")
    for _ in range(60):
        r, c = rng.randint(1, 7), rng.randint(1, 7)
        m = [[rng.randint(-6, 6) for _ in range(c)] for _ in range(r)]
        if rng.random() < 0.5:  # rank-deficient stack: rows repeated and combined
            m = m + [[2 * x - y for x, y in zip(m[0], m[-1])], list(m[0])]
        if rng.random() < 0.5:
            m = [[Fraction(x, rng.randint(1, 5)) for x in row] for row in m]
        assert rank_exact(m) == sympy.Matrix(m).rank()


def test_binomial():
    assert binomial(6, -1) == 0
    assert binomial(6, 2) == 15
    assert binomial(10, 3) == 120
    assert binomial(4, 7) == 0
    with pytest.raises(DomainError):
        binomial(-1, 0)


def test_cramer_determinant():
    assert cramer_determinant(6, 4) == 1 - 3 == -2 == -binomial(2, 1)
    assert cramer_determinant(10, 5) == -binomial(6, 2) == -15
    for v in range(5, 21):
        for k in range(4, v):
            assert cramer_determinant(v, k) != 0
    with pytest.raises(DomainError):
        cramer_determinant(6, 3)
    with pytest.raises(DomainError):
        cramer_determinant(6, 6)
