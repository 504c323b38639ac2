"""Exact rational and prime-field dense linear algebra.

Rank over the rationals runs fraction-free Bareiss elimination on Python
ints (entries stay exact minors, division is always exact).  A sound
short-circuit runs first: the rank modulo the fixed prime 2^31 - 1, done
vectorized in int64, is a lower bound on the rational rank, so when it
already equals min(rows, cols) the answer is certified without any big
arithmetic.  Deficient-rank inputs fall through to Bareiss.

GF(2) matrices pack each row into one int and eliminate with xor; other
primes use scalar arithmetic.  Pivoting is always the first nonzero entry
in row-major order so kernel bases are reproducible.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, gcd
from typing import Sequence

import numpy as np

from .errors import DomainError, NonPrimeModulus, VerificationError

_CERT_PRIME = (1 << 31) - 1  # Mersenne prime; products fit in int64


def is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


def binomial(n: int, k: int) -> int:
    """C(n, k), with 0 for k < 0 or k > n."""
    if n < 0:
        raise DomainError(f"binomial needs n >= 0, got {n}")
    if k < 0 or k > n:
        return 0
    return comb(n, k)


def cramer_determinant(v: int, k: int) -> int:
    """The 2x2 system determinant C(v-4, k-4) - C(v-3, k-3), guaranteed
    equal to -C(v-4, k-3) and nonzero for 4 <= k <= v - 1."""
    if not 4 <= k <= v - 1:
        raise DomainError(f"need 4 <= k <= v-1, got k={k}, v={v}")
    delta = binomial(v - 4, k - 4) - binomial(v - 3, k - 3)
    if delta != -binomial(v - 4, k - 3) or delta == 0:
        raise VerificationError(f"Cramer determinant {delta} at v={v}, k={k} is not -C(v-4, k-3)")
    return delta


class ExactMatrix:
    """Dense matrix over the rationals (int or Fraction entries)."""

    def __init__(self, rows: Sequence[Sequence[int | Fraction]]):
        self.entries = [list(r) for r in rows]
        if not self.entries or not self.entries[0]:
            raise DomainError("matrix dimensions must be positive")
        self.nrows = len(self.entries)
        self.ncols = len(self.entries[0])
        if any(len(r) != self.ncols for r in self.entries):
            raise DomainError("ragged rows")

    def transpose(self) -> "ExactMatrix":
        return ExactMatrix(list(map(list, zip(*self.entries))))

    def integer_rows(self) -> list[list[int]]:
        """Rows rescaled to integers (row scaling preserves rank)."""
        out = []
        for row in self.entries:
            denom = 1
            for x in row:
                if isinstance(x, Fraction):
                    denom = denom * x.denominator // gcd(denom, x.denominator)
            out.append([int(x * denom) for x in row])
        return out


def _rank_mod_prime_numpy(rows: list[list[int]], p: int) -> int:
    m = np.array(rows, dtype=np.int64) % p
    nr, nc = m.shape
    r = 0
    for col in range(nc):
        nz = np.nonzero(m[r:, col])[0]
        if len(nz) == 0:
            continue
        piv = r + int(nz[0])
        if piv != r:
            m[[r, piv]] = m[[piv, r]]
        inv = pow(int(m[r, col]), p - 2, p)
        m[r, col:] = m[r, col:] * inv % p
        factors = m[r + 1 :, col].copy()
        m[r + 1 :, col:] = (m[r + 1 :, col:] - factors[:, None] * m[r, col:][None, :]) % p
        r += 1
        if r == nr:
            break
    return r


def _bareiss_rank(rows: list[list[int]]) -> int:
    mat = [list(r) for r in rows]
    nr, nc = len(mat), len(mat[0])
    rank = 0
    prev = 1
    for col in range(nc):
        piv = next((i for i in range(rank, nr) if mat[i][col]), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        prow = mat[rank]
        p = prow[col]
        for i in range(rank + 1, nr):
            row = mat[i]
            f = row[col]
            for c in range(col + 1, nc):
                row[c] = (p * row[c] - f * prow[c]) // prev
            row[col] = 0
        prev = p
        rank += 1
        if rank == nr:
            break
    return rank


def rank_exact(m: ExactMatrix | Sequence[Sequence[int | Fraction]] | np.ndarray) -> int:
    """Rank over the rationals, exact (no floating point)."""
    if isinstance(m, np.ndarray):
        rows = [[int(x) for x in r] for r in m]
    elif isinstance(m, ExactMatrix):
        rows = m.integer_rows()
    else:
        rows = ExactMatrix(m).integer_rows()
    bound = max((abs(x) for row in rows for x in row), default=0)
    if bound < _CERT_PRIME:
        r = _rank_mod_prime_numpy(rows, _CERT_PRIME)
        if r == min(len(rows), len(rows[0])):
            return r
    return _bareiss_rank(rows)


class ModMatrix:
    """Dense matrix over GF(p); rows are packed ints when p = 2."""

    def __init__(self, rows: Sequence[Sequence[int]] | np.ndarray, p: int):
        if not is_prime(p):
            raise NonPrimeModulus(f"{p} is not prime")
        self.p = p
        if isinstance(rows, np.ndarray):
            if rows.ndim != 2:
                raise DomainError("matrix must be two-dimensional")
            mat = rows.astype(np.int64) % p
        else:
            mat = [list(int(x) % p for x in r) for r in rows]
        if not len(mat) or not len(mat[0]):
            raise DomainError("matrix dimensions must be positive")
        self.nrows = len(mat)
        self.ncols = len(mat[0])
        if isinstance(mat, list) and any(len(r) != self.ncols for r in mat):
            raise DomainError("ragged rows")
        if p == 2:
            packed = np.packbits(np.asarray(mat, dtype=np.uint8), axis=1, bitorder="little")
            self.rows: list = [int.from_bytes(r.tobytes(), "little") for r in packed]
        else:
            self.rows = mat if isinstance(mat, list) else mat.tolist()

    def row_entries(self, i: int) -> list[int]:
        if self.p == 2:
            return [(self.rows[i] >> c) & 1 for c in range(self.ncols)]
        return list(self.rows[i])

    def transpose(self) -> "ModMatrix":
        return ModMatrix(list(zip(*map(self.row_entries, range(self.nrows)))), self.p)

    def mul_vector(self, vec: Sequence[int]) -> list[int]:
        if self.p == 2:
            vmask = sum((v & 1) << c for c, v in enumerate(vec))
            return [(row & vmask).bit_count() & 1 for row in self.rows]
        return [
            sum(a * b for a, b in zip(self.row_entries(i), vec)) % self.p
            for i in range(self.nrows)
        ]


def _rref_gf2(m: ModMatrix) -> tuple[list[int], list[int]]:
    work = list(m.rows)
    pivots = []
    r = 0
    for col in range(m.ncols):
        piv = next((i for i in range(r, len(work)) if work[i] >> col & 1), None)
        if piv is None:
            continue
        work[r], work[piv] = work[piv], work[r]
        for i in range(len(work)):
            if i != r and work[i] >> col & 1:
                work[i] ^= work[r]
        pivots.append(col)
        r += 1
        if r == len(work):
            break
    return work, pivots


def _rref_modp(m: ModMatrix) -> tuple[list[list[int]], list[int]]:
    p = m.p
    work = [list(r) for r in m.rows]
    pivots = []
    r = 0
    for col in range(m.ncols):
        piv = next((i for i in range(r, len(work)) if work[i][col]), None)
        if piv is None:
            continue
        work[r], work[piv] = work[piv], work[r]
        inv = pow(work[r][col], p - 2, p)
        work[r] = [x * inv % p for x in work[r]]
        for i in range(len(work)):
            if i != r and work[i][col]:
                f = work[i][col]
                work[i] = [(a - f * b) % p for a, b in zip(work[i], work[r])]
        pivots.append(col)
        r += 1
        if r == len(work):
            break
    return work, pivots


def rank_mod(m: ModMatrix) -> int:
    """Rank over GF(p)."""
    if m.p == 2:
        return len(_rref_gf2(m)[1])
    return len(_rref_modp(m)[1])


def kernel_basis_mod(m: ModMatrix) -> list[tuple[int, ...]]:
    """Basis of the right null space {x : m x = 0 over GF(p)}, one vector
    per free column, in column order."""
    p = m.p
    if p == 2:
        rref, pivots = _rref_gf2(m)
        entry = lambda i, c: rref[i] >> c & 1
    else:
        rref, pivots = _rref_modp(m)
        entry = lambda i, c: rref[i][c]
    pivot_set = set(pivots)
    basis = []
    for free in range(m.ncols):
        if free in pivot_set:
            continue
        vec = [0] * m.ncols
        vec[free] = 1
        for i, pc in enumerate(pivots):
            vec[pc] = (-entry(i, free)) % p
        basis.append(tuple(vec))
    return basis
