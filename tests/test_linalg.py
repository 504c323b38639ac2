from fractions import Fraction

import numpy as np
import pytest

from recomp import linalg
from recomp.errors import DomainError, NonPrimeModulus
from recomp.incidence import build_w
from recomp.linalg import (
    ModMatrix,
    _echelon_gfp,
    _reduce_gfp,
    binomial,
    is_prime,
    kernel_basis_mod,
    rank_exact,
    rank_mod,
)

from graph_reference import mul_vector, row_entries, transpose


P31 = (1 << 31) - 1


def _fraction_rank(m):
    """Reference rational rank: Gauss-Jordan elimination over Fractions."""
    work = [[Fraction(x) for x in row] for row in m]
    rank = 0
    for col in range(len(work[0])):
        piv = next((i for i in range(rank, len(work)) if work[i][col]), None)
        if piv is None:
            continue
        work[rank], work[piv] = work[piv], work[rank]
        for i in range(len(work)):
            if i != rank and work[i][col]:
                f = work[i][col] / work[rank][col]
                work[i] = [a - f * b for a, b in zip(work[i], work[rank])]
        rank += 1
    return rank


def _scalar_rref(rows, p, upward=True):
    """Reference GF(p) RREF, one entry at a time: (nonzero rows, pivot
    columns).  Without `upward`, only the rows below each pivot are
    cleared: the row echelon form of the forward pass."""
    work = [[x % p for x in row] for row in rows]
    pivots = []
    for col in range(len(work[0])):
        r = len(pivots)
        piv = next((i for i in range(r, len(work)) if work[i][col]), None)
        if piv is None:
            continue
        work[r], work[piv] = work[piv], work[r]
        inv = pow(work[r][col], p - 2, p)
        work[r] = [x * inv % p for x in work[r]]
        for i in range(len(work)) if upward else range(r + 1, len(work)):
            if i != r and work[i][col]:
                f = work[i][col]
                work[i] = [(a - f * b) % p for a, b in zip(work[i], work[r])]
        pivots.append(col)
    return work[: len(pivots)], pivots


def _scalar_kernel(rref, pivots, ncols, p):
    basis = []
    for free in range(ncols):
        if free in pivots:
            continue
        vec = [0] * ncols
        vec[free] = 1
        for i, pc in enumerate(pivots):
            vec[pc] = (-rref[i][free]) % p
        basis.append(tuple(vec))
    return basis


def _low_rank(rng, r, c, rk, lo=-5, hi=5):
    a = [[rng.randint(lo, hi) for _ in range(rk)] for _ in range(r)]
    b = [[rng.randint(lo, hi) for _ in range(c)] for _ in range(rk)]
    return [[sum(a[i][t] * b[t][j] for t in range(rk)) for j in range(c)] for i in range(r)]


def test_rank_exact_basics():
    assert rank_exact([[1 if i == j else 0 for j in range(5)] for i in range(5)]) == 5
    assert rank_exact([[1] * 6 for _ in range(4)]) == 1
    assert rank_exact([[0, 0], [0, 0]]) == 0
    assert rank_exact([[2, 4], [1, 2]]) == 1


def test_rank_exact_w23_v6_full_row_rank():
    w = build_w(2, 3, 6)
    assert rank_exact(w.array) == 15


def test_rank_exact_fraction_entries():
    m = [[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 5), Fraction(1, 7)]]
    assert rank_exact(m) == 2
    singular = [[Fraction(1, 2), Fraction(1, 4)], [Fraction(2, 3), Fraction(1, 3)]]
    assert rank_exact(singular) == 1


def test_rank_exact_transpose_invariant(rng):
    for _ in range(50):
        r, c = rng.randint(1, 7), rng.randint(1, 7)
        m = [[rng.randint(-4, 4) for _ in range(c)] for _ in range(r)]
        t = [list(row) for row in zip(*m)]
        assert rank_exact(m) == rank_exact(t)


def test_rank_exact_agrees_with_fraction_reference(rng):
    # low-rank products force the certificate lane; compare on full-rank too
    for _ in range(40):
        r, c = rng.randint(2, 8), rng.randint(2, 8)
        rk = rng.randint(1, min(r, c))
        m = _low_rank(rng, r, c, rk)
        got = rank_exact(m)
        assert got == _fraction_rank(m) <= rk
        assert got == np.linalg.matrix_rank(np.array(m, dtype=float))


def test_bareiss_handles_large_entries():
    big = 10**30
    m = [[big, big + 1], [1, 1]]
    assert rank_exact(m) == 2
    assert rank_exact([[big, 2 * big], [3 * big, 6 * big]]) == 1


def test_rank_exact_when_first_prime_is_unlucky():
    # the rank mod 2^31 - 1 is too low; its kernel lifts, but the exact check
    # rejects the lift and the next prime decides (under python -O too)
    assert rank_exact([[P31, 0], [0, 1]]) == 2
    assert rank_exact(np.array([[P31, 1, 0], [0, 1, 1], [0, 0, P31]])) == 3


def test_certificate_fallback_when_lift_is_corrupted(monkeypatch, rng):
    # adding 1 to every lifted entry moves each vector off the kernel of a
    # matrix with a nonzero row sum, so the exact check fails and no
    # unverified rank is returned: primes run on until their product passes
    # the Hadamard bound, and the largest rank seen is the answer
    real_lift = linalg._lift
    calls = []

    def corrupted(basis, p):
        calls.append(p)
        lifted = real_lift(basis, p)
        return None if lifted is None else lifted + 1

    monkeypatch.setattr(linalg, "_lift", corrupted)
    cases = [_low_rank(rng, rng.randint(2, 6), rng.randint(2, 6), 1, 1, 5) for _ in range(8)]
    cases += [[[P31, 0], [0, 1]], [[1, 2], [2, 4], [3, 6]]]
    cases.append([[10**12, 2 * 10**12], [1, 2]])  # Hadamard bound above 2^31: two primes
    q2 = 2147483629  # the second prime tried, unlucky here: the first prime's rank stands
    cases.append([[q2, 0, 0], [0, 1, 0], [0, 0, 0]])
    for m in cases:
        assert rank_exact(m) == _fraction_rank(m)
    assert len(calls) >= len(cases) and len(set(calls)) == 2


def test_rank_deficient_certified_by_one_forward_pass(monkeypatch, rng):
    # a rank-deficient matrix whose kernel lifts is decided at the first
    # prime: one forward pass, whose echelon is then reduced, never redone
    calls = []

    def counted(name):
        real = getattr(linalg, name)
        return lambda *args: calls.append(name) or real(*args)

    monkeypatch.setattr(linalg, "_echelon_gfp", counted("_echelon_gfp"))
    monkeypatch.setattr(linalg, "_reduce_gfp", counted("_reduce_gfp"))
    cases = [[[1, 2], [2, 4], [3, 6]], [[2, 3, 5], [4, 6, 10], [1, -7, 2], [3, -4, 7]]]
    cases += [_low_rank(rng, rng.randint(3, 8), rng.randint(3, 8), 2) for _ in range(10)]
    cases.append(np.vstack([build_w(2, 4, 7).array, build_w(1, 4, 7).array]))
    for m in cases:
        calls.clear()
        assert rank_exact(m) == _fraction_rank(np.asarray(m).tolist())
        assert calls == ["_echelon_gfp", "_reduce_gfp"]


BAD_ARRAYS = [
    np.array([[1.5, 2]]),
    np.array([[1 + 0j, 2]]),
    np.zeros((0, 3), dtype=np.int64),
    np.zeros((3, 0), dtype=np.int64),
    np.zeros((2, 2, 2), dtype=np.int64),
]


@pytest.mark.parametrize("bad", BAD_ARRAYS)
def test_validation_rejects_bad_arrays(bad):
    with pytest.raises(DomainError):
        rank_exact(bad)
    with pytest.raises(DomainError):
        ModMatrix(bad, 3)


def test_validation_rejects_bad_lists():
    entries = "matrix entries must be integers or Fractions"
    cases = [
        ([], "matrix dimensions must be positive"),
        ([[]], "matrix dimensions must be positive"),
        ([[1, 2], [3]], "ragged rows"),
        ([[0.5, 1], [1, 2]], entries),
        ([[1, 2.0]], entries),
        ([[1j, 1]], entries),
    ]
    for bad, message in cases:
        with pytest.raises(DomainError) as err:
            rank_exact(bad)
        assert str(err.value) == message
        with pytest.raises(DomainError) as err:
            ModMatrix(bad, 5)
        assert str(err.value) == message


def test_validation_modulus_is_an_int():
    rows = [[1, 2, 0], [2, 1, 0]]  # rank 1 over GF(3), 2 over the rationals
    m = ModMatrix(rows, np.int64(3))
    assert type(m.p) is int and m.p == 3
    assert rank_mod(m) == rank_mod(ModMatrix(rows, 3)) == 1
    assert kernel_basis_mod(m) == kernel_basis_mod(ModMatrix(rows, 3))
    w = build_w(2, 3, 6)
    assert rank_mod(w.mod(np.int64(3))) == rank_mod(w.mod(3))
    for bad in (3.0, 3.5):
        with pytest.raises(TypeError):
            ModMatrix(rows, bad)


def test_rank_exact_integer_dtypes():
    base = [[3, 1, 4], [1, 5, 9], [4, 6, 13]]  # third row = first + second
    for dtype in (np.uint8, np.int8, np.int32, np.int64, np.uint64, bool, object):
        arr = np.array(base, dtype=dtype)
        assert rank_exact(arr) == _fraction_rank(arr.astype(np.int64).tolist())
    huge = np.array([[2**64 - 1, 1], [2**64 - 1, 1]], dtype=np.uint64)
    assert rank_exact(huge) == 1
    assert rank_mod(ModMatrix(huge, 3)) == 1
    fractions = np.array([[Fraction(1, 2), Fraction(1, 3)], [Fraction(3, 2), 1]], dtype=object)
    assert rank_exact(fractions) == 1


def _two_steps(m):
    """The forward pass of m and its reduction: (echelon rows, pivots, RREF rows)."""
    rows, pivots = _echelon_gfp(m.rows, m.p)
    echelon = rows.tolist()
    return echelon, pivots, _reduce_gfp(rows, pivots, m.p).tolist()


def _check_against_scalar_rref(rows, p):
    """Both elimination steps, rank_mod and kernel_basis_mod over GF(p)
    against the scalar reference."""
    m = ModMatrix(rows, p)
    ref_echelon, ref_pivots = _scalar_rref(rows, p, upward=False)
    ref_rows = _scalar_rref(rows, p)[0]
    assert _two_steps(m) == (ref_echelon, ref_pivots, ref_rows)
    assert rank_mod(m) == len(ref_pivots)
    assert kernel_basis_mod(m) == _scalar_kernel(ref_rows, ref_pivots, len(rows[0]), p)


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 17, P31, 2147483659])
def test_odd_prime_kernel_matches_scalar_rref(rng, p):
    mats = [
        build_w(2, 3, 6).array.tolist(),
        build_w(4, 6, 9).array.tolist(),  # more rows than columns
        build_w(1, 2, 5).array.T.tolist(),
        np.vstack([build_w(2, 4, 7).array, build_w(1, 4, 7).array]).tolist(),
    ]
    for _ in range(25):
        r, c = rng.randint(1, 9), rng.randint(1, 9)
        mats.append([[rng.randrange(p) for _ in range(c)] for _ in range(r)])
        rows = _low_rank(rng, r, c, rng.randint(1, min(r, c)), 0, p - 1)
        mats.append(rows + rows[:1])  # rank deficient, a repeated row
    for rows in mats:
        _check_against_scalar_rref(rows, p)


def test_gf2_kernel_matches_scalar_rref(rng):
    # pins the basis order that incidence.kernel_graphs_mod2 reads
    mats = [build_w(2, k, v).array.T.tolist() for k, v in ((2, 4), (3, 6), (4, 7), (4, 8), (5, 9))]
    for _ in range(40):
        r, c = rng.randint(1, 12), rng.randint(1, 70)  # rows of up to 9 bytes
        mats.append([[rng.randint(0, 1) for _ in range(c)] for _ in range(r)])
        rows = _low_rank(rng, r, c, rng.randint(1, min(r, c)), 0, 1)
        mats.append(rows + rows[:1])  # rank deficient, a repeated row
    for rows in mats:
        _check_against_scalar_rref(rows, 2)


def _full_row_rank_early(rng, r, c, p):
    """An r x c matrix, r < c, of rank r whose last pivot is column r - 1:
    unit lower triangular times [upper triangular | random]."""
    upper = [
        [0] * i + [rng.randint(1, p - 1)] + [rng.randrange(p) for _ in range(c - i - 1)]
        for i in range(r)
    ]
    lower = [[rng.randrange(p) for _ in range(i)] + [1] + [0] * (r - i - 1) for i in range(r)]
    return [[sum(lower[i][t] * upper[t][j] for t in range(r)) % p for j in range(c)] for i in range(r)]


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13, 17, P31, 2147483659])
def test_forward_pass_matches_scalar_reference_on_shapes(rng, p):
    mats = [[[0]], [[1]], [[p - 1]], [[0] * 5 for _ in range(4)]]
    for _ in range(6):
        r, c = rng.randint(1, 9), rng.randint(1, 9)
        mats.append([[rng.randrange(p) for _ in range(c)]])  # one row
        mats.append([[rng.randrange(p)] for _ in range(r)])  # one column
        mats.append([[0, 0] + [rng.randrange(p) for _ in range(c)] for _ in range(r)])
        mats.append([[rng.randrange(p) for _ in range(12)] for _ in range(2)])  # wide
        mats.append([[rng.randrange(p) for _ in range(2)] for _ in range(12)])  # tall
        early = _full_row_rank_early(rng, r, r + rng.randint(1, 6), p)
        assert _scalar_rref(early, p)[1] == list(range(r))  # full row rank at column r - 1
        mats.append(early)
        rows = _low_rank(rng, r, c + 3, rng.randint(1, min(r, c)), 0, p - 1)
        mats.append(rows + [[0] * (c + 3)] + rows[:1])
    for rows in mats:
        _check_against_scalar_rref(rows, p)


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
                assert all(x == 0 for x in mul_vector(m, vec))
            if basis:
                stacked = ModMatrix(list(basis), p)
                assert rank_mod(stacked) == len(basis)  # linear independence


def test_mod_transpose_and_gf2_packing(rng):
    rows = [[rng.randint(0, 1) for _ in range(9)] for _ in range(5)]
    m2 = ModMatrix(rows, 2)
    assert row_entries(m2, 0) == rows[0]
    assert rank_mod(m2) == rank_mod(transpose(ModMatrix(rows, 2)))


def test_mod_transpose_is_entrywise(rng):
    for p in (2, 3):
        mats = [build_w(2, 4, 10).mod(p)]
        for _ in range(20):
            r, c = rng.randint(1, 12), rng.randint(1, 70)
            mats.append(ModMatrix([[rng.randint(0, p - 1) for _ in range(c)] for _ in range(r)], p))
        for m in mats:
            t = transpose(m)
            assert (t.nrows, t.ncols, t.p) == (m.ncols, m.nrows, p)
            for i in range(m.nrows):
                for j, x in enumerate(row_entries(m, i)):
                    assert row_entries(t, j)[i] == x


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
    # the 2x2 system of the a0/a1 identities has determinant
    # C(v-4, k-4) - C(v-3, k-3) = -C(v-4, k-3), nonzero for 4 <= k <= v-1
    assert binomial(2, 0) - binomial(3, 1) == -2 == -binomial(2, 1)
    assert binomial(6, 1) - binomial(7, 2) == -15 == -binomial(6, 2)
    for v in range(5, 21):
        for k in range(4, v):
            delta = binomial(v - 4, k - 4) - binomial(v - 3, k - 3)
            assert delta == -binomial(v - 4, k - 3) != 0


def test_is_prime_matches_sieve():
    limit = 100_000
    sieve = [False, False] + [True] * (limit - 2)
    for q in range(2, 317):
        if sieve[q]:
            sieve[q * q :: q] = [False] * len(range(q * q, limit, q))
    assert [is_prime(q) for q in range(-3, limit)] == [False] * 3 + sieve


def test_is_prime_large_and_adversarial():
    for carmichael in (561, 41041, 825265):
        assert not is_prime(carmichael)
    for p in (P31, 2147483659, (1 << 61) - 1):
        assert is_prime(p)
    assert not is_prime((1 << 61) + 1) and not is_prime(P31 * 2147483659)
    # strong pseudoprime to every prime base up to 37 (Sorenson & Webster)
    assert not is_prime(318665857834031151167461)
    with pytest.raises(DomainError):
        is_prime(linalg._MR_LIMIT)  # the least strong pseudoprime to bases up to 41
    assert not is_prime(linalg._MR_LIMIT - 1)
