"""Exact rational and prime-field dense linear algebra.

Elimination runs in two steps.  The forward pass, `_echelon_gfp`, brings
a numpy array of residues to row echelon form: each column pivots on its
first nonzero entry at or below the current row, the pivot row is scaled
to a leading 1, and only the rows below it are updated.  A rank reads the
forward pass alone.  A kernel needs the reduced row echelon form (RREF):
`_reduce_gfp` clears each pivot column above its pivot, over the r pivot
rows only, last pivot first.  The RREF of a matrix is unique and its
pivot columns do not depend on the elimination order, so kernel bases
are reproducible.  Every prime runs these two steps, on residues in the
narrowest dtype that holds each intermediate of a row update, at most
p(p - 1) (a residue plus p - 1 times another): uint8 for p(p - 1) < 256,
that is p <= 13; int64 for p < 2^31; Python ints in an object array
above.  Over GF(2) a row update is an xor of the pivot row's tail.

Rank over the rationals: the rank r modulo 2^31 - 1 is a lower bound,
and the answer when it equals min(rows, cols).  Otherwise the same
echelon is reduced, with no second forward pass, and the GF(p) kernel of
the smaller side is lifted to integer vectors by rational reconstruction
(von zur Gathen & Gerhard, Modern Computer Algebra, 5.10), in integers
throughout, and checked against the matrix in exact integer arithmetic;
the vectors are independent (each is nonzero only at its own free column
among the free columns), so the rank is at most r.  When a lift or a
check fails, the next prime below 2^31 is tried; once the product of the
primes exceeds the Hadamard bound, the largest rank seen is the rational
rank (Dixon, Numer. Math. 40, 1982).  No floating point is involved.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from math import comb, gcd, isqrt, lcm, prod
from numbers import Rational
from typing import Iterator, Sequence

import numpy as np

from .errors import DomainError, NonPrimeModulus, VerificationError

_CERT_PRIME = (1 << 31) - 1  # Mersenne prime; products of residues fit in int64
_INT64_MAX = (1 << 63) - 1


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3317044064679887385961981  # least strong pseudoprime to all of _MR_BASES


def is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin, exact below _MR_LIMIT (Sorenson & Webster,
    Math. Comp. 86, 2017; the bases up to 37 alone fail at 3.2e23)."""
    if p >= _MR_LIMIT:
        raise DomainError(f"primality is decided only below {_MR_LIMIT}, got {p}")
    if p < 2:
        return False
    for a in _MR_BASES:
        if p % a == 0:
            return p == a
    s = ((p - 1) & (1 - p)).bit_length() - 1  # p - 1 = d * 2^s with d odd
    for a in _MR_BASES:
        x = pow(a, (p - 1) >> s, p)
        if x != 1 and all(pow(x, 1 << r, p) != p - 1 for r in range(s)):
            return False
    return True


def binomial(n: int, k: int) -> int:
    """C(n, k), with 0 for k < 0 or k > n."""
    if n < 0:
        raise DomainError(f"binomial needs n >= 0, got {n}")
    if k < 0 or k > n:
        return 0
    return comb(n, k)


def _integer_array(m: Sequence[Sequence[int | Fraction]] | np.ndarray) -> np.ndarray:
    """m with its rows rescaled to integers (row scaling preserves rank):
    an int64 array, or an object array of Python ints when an entry does
    not fit in int64.  An ndarray must be two-dimensional, nonempty, and
    of integer or object dtype; nested rows must be nonempty, of one
    length, with integer, Fraction or bool entries."""
    if isinstance(m, np.ndarray):
        if m.ndim != 2:
            raise DomainError("matrix must be two-dimensional")
        if m.dtype.kind not in "biuO":
            raise DomainError(f"matrix entries must be integers, got dtype {m.dtype}")
        if not m.size:
            raise DomainError("matrix dimensions must be positive")
        if m.dtype != object and (m.dtype != np.uint64 or m.max() <= _INT64_MAX):
            return m.astype(np.int64)
        m = m.tolist()
    rows = [list(r) for r in m]
    if not rows or not rows[0]:
        raise DomainError("matrix dimensions must be positive")
    if any(len(r) != len(rows[0]) for r in rows):
        raise DomainError("ragged rows")
    if not all(isinstance(x, (Rational, np.bool_)) for r in rows for x in r):
        raise DomainError("matrix entries must be integers or Fractions")
    scaled = []
    for row in rows:
        denom = lcm(*(x.denominator for x in row if isinstance(x, Fraction)))
        scaled.append([int(x * denom) for x in row])
    return _int_rows(scaled)


def _int_rows(rows: list[list[int]]) -> np.ndarray:
    """Rows of Python ints as an int64 array, or as an object array when an
    entry does not fit in int64."""
    fits = all(-_INT64_MAX <= x <= _INT64_MAX for row in rows for x in row)
    return np.array(rows, dtype=np.int64 if fits else object)


def _residues(a: np.ndarray, p: int) -> np.ndarray:
    """Entries of an integer array mod p, in the narrowest dtype that holds
    every intermediate of `_eliminate`, at most p(p - 1): uint8 for
    p(p - 1) < 256 (p <= 13), int64 for p < 2^31, Python ints in an object
    array otherwise."""
    if p * (p - 1) < 256:
        return (a % p).astype(np.uint8)
    if p <= _CERT_PRIME:
        return (a % p).astype(np.int64, copy=False)
    return a.astype(object) % p


def _eliminate(work: np.ndarray, rows: np.ndarray, r: int, col: int, p: int) -> None:
    """Clear column col of the given rows of work with its pivot row r,
    whose entry there is 1: over GF(2) by xor, otherwise moving only the
    pivot row's nonzero columns."""
    if p == 2:
        work[rows, col:] ^= work[r, col:]
        return
    cols = col + work[r, col:].nonzero()[0]
    block = rows[:, None], cols
    # adding (p - f) times the pivot row keeps entries at most p(p - 1)
    work[block] = (work[block] + (p - work[rows, col][:, None]) * work[r, cols]) % p


def _echelon_gfp(a: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """Row echelon form over GF(p) of an array of residues in [0, p): the
    nonzero rows, each with a leading 1, and their pivot columns.  Only
    the rows below each pivot are updated."""
    work = a.copy()
    nrows = work.shape[0]
    pivots: list[int] = []
    for col in range(work.shape[1]):
        r = len(pivots)
        below = work[r:, col].nonzero()[0]
        if not below.size:
            continue
        if below[0]:
            work[[r, r + below[0]]] = work[[r + below[0], r]]
        inv = pow(int(work[r, col]), -1, p)
        if inv != 1:
            work[r, col:] = work[r, col:] * inv % p
        if below.size > 1:  # the swapped-down row is zero in this column
            _eliminate(work, r + below[1:], r, col, p)
        pivots.append(col)
        if len(pivots) == nrows:
            break
    return work[: len(pivots)], pivots


def _reduce_gfp(echelon: np.ndarray, pivots: list[int], p: int) -> np.ndarray:
    """The reduced row echelon form, in place, of `_echelon_gfp`'s rows:
    each pivot column cleared above its pivot, last pivot first, so no
    cleared entry is filled in again."""
    for r in range(len(pivots) - 1, 0, -1):
        above = echelon[:r, pivots[r]].nonzero()[0]
        if above.size:
            _eliminate(echelon, above, r, pivots[r], p)
    return echelon


def _kernel_vectors(rref: np.ndarray, pivots: list[int], ncols: int, p: int) -> np.ndarray:
    """Basis of the right null space from an RREF, one row per free column
    in column order: 1 at the free column, minus that column of the RREF at
    the pivot columns, 0 elsewhere."""
    free = np.setdiff1d(np.arange(ncols), pivots)
    basis = np.zeros((len(free), ncols), dtype=rref.dtype)
    basis[np.arange(len(free)), free] = 1
    basis[:, pivots] = (p - rref[:, free].T) % p  # -x would wrap in uint8
    return basis


def _rational(u: int, p: int, bound: int) -> tuple[int, int] | None:
    """The fraction a/b = u mod p with |a|, b <= bound, if there is one (then
    it is unique, since 2 bound^2 < p), as (a, b) in lowest terms with
    b > 0: the half extended Euclid."""
    r0, r1, s0, s1 = p, u, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1, s0, s1 = r1, r0 - q * r1, s1, s0 - q * s1
    if abs(s1) > bound or gcd(r1, s1) != 1:
        return None
    return (r1, s1) if s1 > 0 else (-r1, -s1)


def _lift(basis: np.ndarray, p: int) -> np.ndarray | None:
    """Integer vectors, one per row of a GF(p) basis: each entry by rational
    reconstruction, then the row's denominators cleared; None when an entry
    has no reconstruction."""
    bound = isqrt(p // 2)
    rows = []
    for vec in basis.tolist():
        fracs = [_rational(u, p, bound) for u in vec]
        if None in fracs:
            return None
        denom = lcm(*(b for _, b in fracs))
        rows.append([a * (denom // b) for a, b in fracs])
    return _int_rows(rows)


def _magnitude(a: np.ndarray) -> int:
    return max(int(a.max()), -int(a.min()))


def _kernel_lifts(a: np.ndarray, rref: np.ndarray, pivots: list[int], p: int) -> bool:
    """Do the lifted GF(p) kernel vectors of a lie in its rational kernel?
    The product is exact: int64 when the magnitudes bound it below 2^63,
    Python ints otherwise."""
    lifted = _lift(_kernel_vectors(rref, pivots, a.shape[1], p), p)
    if lifted is None:
        return False
    if a.dtype == lifted.dtype == np.int64 and (
        _magnitude(a) * _magnitude(lifted) * a.shape[1] <= _INT64_MAX
    ):
        product = a @ lifted.T
    else:
        product = a.astype(object) @ lifted.T.astype(object)
    return not product.any()


def _hadamard_bound(a: np.ndarray) -> int:
    """A bound on |det| of every square submatrix of a, which has no more
    columns than rows: the product of the ncols largest row norms, each
    rounded up."""
    norms = sorted((isqrt(sum(x * x for x in row)) + 1 for row in a.tolist()), reverse=True)
    return prod(norms[: a.shape[1]])


def _cert_primes() -> Iterator[int]:
    """The primes below 2^31, in descending order."""
    yield _CERT_PRIME
    for q in range(_CERT_PRIME - 2, 2, -2):
        if is_prime(q):
            yield q


def rank_exact(m: Sequence[Sequence[int | Fraction]] | np.ndarray) -> int:
    """Rank over the rationals, exact (no floating point)."""
    a = _integer_array(m)
    if a.shape[0] < a.shape[1]:
        a = a.T  # certify the smaller kernel
    best, modulus, hadamard = 0, 1, None
    for p in _cert_primes():
        echelon, pivots = _echelon_gfp(_residues(a, p), p)
        rank = len(pivots)
        if rank == a.shape[1] or _kernel_lifts(a, _reduce_gfp(echelon, pivots, p), pivots, p):
            return rank
        best = max(best, rank)
        modulus *= p
        if hadamard is None:
            hadamard = _hadamard_bound(a)
        if modulus > hadamard:
            return best
    raise VerificationError("ran out of primes below 2^31")


class ModMatrix:
    """Dense matrix over GF(p): `rows` is an array of residues in [0, p),
    in the dtype that `_residues` picks for p."""

    def __init__(self, rows: Sequence[Sequence[int]] | np.ndarray, p: int):
        p = operator.index(p)  # a numpy p becomes an int; a float raises
        if not is_prime(p):
            raise NonPrimeModulus(f"{p} is not prime")
        self.p = p
        self.rows = _residues(_integer_array(rows), p)
        self.nrows, self.ncols = self.rows.shape


def rank_mod(m: ModMatrix) -> int:
    """Rank over GF(p)."""
    return len(_echelon_gfp(m.rows, m.p)[1])


def kernel_basis_mod(m: ModMatrix) -> list[tuple[int, ...]]:
    """Basis of the right null space {x : m x = 0 over GF(p)}, one vector
    per free column, in column order."""
    echelon, pivots = _echelon_gfp(m.rows, m.p)
    rref = _reduce_gfp(echelon, pivots, m.p)
    return list(map(tuple, _kernel_vectors(rref, pivots, m.ncols, m.p).tolist()))
