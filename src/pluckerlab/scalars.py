"""Exact field arithmetic and the dense matrix kernel shared by every module.

Two exact coefficient fields are supported: the rationals (``fractions.Fraction``)
and a prime field Z/p with a fixed large prime, default p = 2^31 - 1.  All
arithmetic is exact.  The one use of floating point, the float64 matrix
product of :func:`submul_mod_p`, keeps every partial sum an integer below
2^53, so it returns exact integers, and its int64 matmul keeps every
partial sum below 2^63, so it never wraps (both proved in its docstring).

Matrices inside the library are unboxed: rows or 2-D arrays of residues in
[0, p) over F_p, of Fractions over Q (``_dtype`` gives the array dtype).
Elimination is one row loop plus one array kernel.  The row loop,
:func:`_eliminate`, returns the rank and the determinant of list rows: of
integer rows by fraction-free (Bareiss) elimination, of residue rows by
Gaussian elimination mod p, with one pivot search, row swap and sign for
both.  It gives the rank over Q and every determinant (``_det``), over Q on
the rows with their denominators cleared (``_rows_as_integers``).  The array
kernel, :func:`rank_mod_p`, gives every rank over F_p by blocked Gaussian
elimination on a numpy array: it reduces a panel of ``_PANEL`` rows to
reduced row echelon form one pivot at a time, then updates every row below
it at once with :func:`submul_mod_p`, so on a large matrix most of the
work is one exact matrix product per panel.  Every rank goes through one entry,
``_rank(A, field)``, and ``mat_det`` and ``bundle_pairs_p1.divisor_value`` feed
``_det``; its matrices are at most 12 x 12, where plain ints beat numpy's
per-call overhead.  ``_boxed`` is the one way out to a ``DenseMatrix``, for
``bundle_pairs_p1.det_map_matrix``; ``mat_det`` unboxes a ``DenseMatrix``
once (``_unboxed_rows``, which refuses entries that are no field element or
of mixed fields), and so does
``grassmann.plucker_embed``.  ``exterior.wedge_rank`` hands ``_rank`` a Schur
complement it scatters straight from a vector's dense vector: residues over
F_p, and over Q integers, c_0 times the complement, formed by
:func:`submul_mod_p` over Z with no division.  The elimination
update forms products of two residues, so the arrays are int64 only when
(p - 1)^2 < 2^63 (p below about 2^31.5); for larger primes the same
elimination runs on an object array of Python ints, which cannot overflow.
``_residue_dtype`` holds that rule, and :func:`rank_mod_p` refuses any
other dtype, an object entry that is not a Python int and any entry outside
[0, p), since int64 array arithmetic wraps around without a warning, and a
modulus that is not prime.  Its panel step delays the reduction mod p for
as many updates as int64 holds.  ``submul_mod_p``
forms S - X Y mod p on the same arrays, for that Schur complement and for
the panel update of :func:`rank_mod_p`.  Over
int64 residues X is balanced into (-p/2, p/2]; a short inner dimension k,
with k (p // 2)^2 + p < 2^63, takes one int64 matmul against a balanced Y,
and a longer one float64 GEMMs against Y split into 16-bit limbs, chunked
along the inner dimension so every sum stays exact (the technique of
FFLAS-FFPACK: Dumas, Giorgi and Pernet, ACM TOMS 35(3), 2008).  Over object
arrays it works in Python ints, one outer product of nonzeros per inner
index.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Sequence, Union

import numpy as np

DEFAULT_PRIME = 2**31 - 1

# Miller-Rabin with these bases is deterministic far beyond 2^64.
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


@lru_cache(maxsize=None)
def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test for 0 <= n < 2^64."""
    if n < 2:
        return False
    for q in _WITNESSES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class Fp:
    """Immutable element of the prime field Z/p."""

    __slots__ = ("v", "p")

    def __init__(self, v: int, p: int):
        self.v = v % p
        self.p = p

    def _coerce(self, other) -> "Fp":
        if isinstance(other, Fp):
            if other.p != self.p:
                raise ValueError(f"mixed moduli {self.p} and {other.p}")
            return other
        if isinstance(other, int):
            return Fp(other, self.p)
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        return o if o is NotImplemented else Fp(self.v + o.v, self.p)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        return o if o is NotImplemented else Fp(self.v - o.v, self.p)

    def __rsub__(self, other):
        o = self._coerce(other)
        return o if o is NotImplemented else Fp(o.v - self.v, self.p)

    def __mul__(self, other):
        o = self._coerce(other)
        return o if o is NotImplemented else Fp(self.v * o.v, self.p)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        if o.v == 0:
            raise ZeroDivisionError("division by zero in prime field")
        return Fp(self.v * pow(o.v, -1, self.p), self.p)

    def __neg__(self):
        return Fp(-self.v, self.p)

    def __pow__(self, e: int):
        if e < 0 and not self.v:
            raise ZeroDivisionError("negative power of zero in prime field")
        return Fp(pow(self.v, e, self.p), self.p)

    def __eq__(self, other):
        return isinstance(other, Fp) and self.v == other.v and self.p == other.p

    def __hash__(self):
        return hash((self.v, self.p))

    def __bool__(self):
        return self.v != 0

    def __repr__(self):
        return f"Fp({self.v} mod {self.p})"


Scalar = Union[Fraction, Fp]


@dataclass(frozen=True)
class RationalField:
    """The field of arbitrary-precision rationals."""

    name = "q"

    def zero(self) -> Fraction:
        return Fraction(0)

    def one(self) -> Fraction:
        return Fraction(1)

    def from_int(self, n: int) -> Fraction:
        return Fraction(n)

    def sample(self, rng: random.Random) -> Fraction:
        # Small numerators/denominators keep exact arithmetic fast while
        # avoiding accidental degeneracies.
        return Fraction(rng.randint(-100, 100), rng.randint(1, 10))

    def element_to_str(self, x: Fraction) -> str:
        return f"{x.numerator}/{x.denominator}"

    def element_from_str(self, s: str) -> Fraction:
        num, _, den = s.partition("/")
        den = int(den) if den else 1
        if not den:
            raise ValueError(f"zero denominator in {s!r}")
        return Fraction(int(num), den)

    def is_element(self, x) -> bool:
        return isinstance(x, Fraction)

    # Kernels that loop over many scalars run on the unboxed representation;
    # for the rationals it is the Fraction itself.
    def unbox(self, x: Fraction) -> Fraction:
        if not isinstance(x, Fraction):
            raise ValueError(f"{x!r} is not an element of Q")
        return x

    def box(self, c: Fraction) -> Fraction:
        return c


@dataclass(frozen=True)
class PrimeField:
    """The prime field Z/p for a fixed prime p."""

    p: int = DEFAULT_PRIME

    name = "fp"

    def __post_init__(self):
        if not isinstance(self.p, int):
            raise ValueError(f"modulus must be an int, not {self.p!r}")
        if self.p >= 2**64:
            raise ValueError(f"modulus {self.p} is not below 2^64")
        if not _is_prime(self.p):
            raise ValueError(f"modulus {self.p} is not prime")

    def zero(self) -> Fp:
        return Fp(0, self.p)

    def one(self) -> Fp:
        return Fp(1, self.p)

    def from_int(self, n: int) -> Fp:
        return Fp(n, self.p)

    def sample(self, rng: random.Random) -> Fp:
        return Fp(rng.randrange(self.p), self.p)

    def element_to_str(self, x: Fp) -> str:
        return str(x.v)

    def element_from_str(self, s: str) -> Fp:
        # An explicit base refuses a non-string: int(3.7) would truncate.
        return Fp(int(s, 10), self.p)

    def is_element(self, x) -> bool:
        return isinstance(x, Fp) and x.p == self.p

    # Unboxed elements are plain ints, reduced mod p only when boxed again.
    def unbox(self, x: Fp) -> int:
        if type(x) is not Fp:
            raise ValueError(f"{x!r} is not an element of Z/{self.p}")
        if x.p != self.p:
            raise ValueError(f"mixed moduli {x.p} and {self.p}")
        return x.v

    def box(self, c: int) -> Fp:
        return Fp(c, self.p)


Field = Union[RationalField, PrimeField]

QQ = RationalField()


def field_of(x: Scalar) -> Field:
    if isinstance(x, Fraction):
        return QQ
    if isinstance(x, Fp):
        return PrimeField(x.p)
    raise TypeError(f"not a field element: {x!r}")


def field_from_name(name: str, prime: int = DEFAULT_PRIME) -> Field:
    if name == "q":
        return QQ
    if name == "fp":
        return PrimeField(prime)
    raise ValueError(f"unknown field tag {name!r}")


@dataclass(frozen=True)
class DenseMatrix:
    """Immutable row-major dense matrix of field elements."""

    rows: int
    cols: int
    entries: tuple

    def __post_init__(self):
        if len(self.entries) != self.rows * self.cols:
            raise ValueError("entries length must equal rows * cols")

    @staticmethod
    def from_rows(rows: Sequence[Sequence[Scalar]]) -> "DenseMatrix":
        r = len(rows)
        c = len(rows[0]) if r else 0
        flat = []
        for row in rows:
            if len(row) != c:
                raise ValueError("ragged rows")
            flat.extend(row)
        return DenseMatrix(r, c, tuple(flat))



def _unboxed_rows(M: DenseMatrix) -> tuple[Field, list[list]]:
    """The field of a nonempty matrix and its entries unboxed, as rows;
    raises ``ValueError`` on entries that are not field elements or that
    lie in different fields."""
    try:
        field = field_of(M.entries[0])
        unbox = field.unbox
        flat = [unbox(e) for e in M.entries]
    except TypeError as e:
        raise ValueError(str(e)) from None
    except ValueError:
        raise ValueError("mixed-field entries") from None
    c = M.cols
    return field, [flat[i : i + c] for i in range(0, len(flat), c)]


def _rows_as_integers(rows) -> tuple[list[list[int]], int]:
    """Rows of Fractions or ints, each times the lcm of its denominators,
    and the product of those lcms.  Clearing denominators row by row leaves
    the rank unchanged and multiplies the determinant by that product."""
    out, scale = [], 1
    for row in rows:
        l = math.lcm(*(e.denominator for e in row))
        out.append([e.numerator * (l // e.denominator) for e in row])
        scale *= l
    return out, scale


def _eliminate(rows: list[list[int]], p) -> tuple[int, int]:
    """(rank, det) of integer rows (p None) or of rows of residues in
    [0, p), by elimination in place; residues stay in [0, p), so a zero test
    is a test mod p.  det is an integer, to be reduced mod p, and is the
    determinant only when the rows are square.

    Both fields share the pivot search, the row swap and its sign.  d is
    the minor on the rows and pivot columns eliminated so far: over Z the
    last pivot of fraction-free (Bareiss) elimination, which divides the
    next update exactly (Bareiss, Math. Comp. 22, 1968); mod p the product
    of the pivots of Gaussian elimination.  The residue update lists the
    nonzero entries of the pivot row's tail once, as (column, value) pairs,
    and changes each row that is nonzero in the pivot column at those
    columns only, so a sparse matrix (a P^1 value matrix has m nonzeros in
    each of its rm-entry rows) costs its nonzeros, not its area (Duff,
    Erisman and Reid, Direct Methods for Sparse Matrices, 1986).  The
    Bareiss update scales every entry, so it takes whole row tails.
    """
    m = len(rows)
    n = len(rows[0]) if m else 0
    r, sign, d = 0, 1, 1
    for c in range(n):
        for piv in range(r, m):
            if rows[piv][c]:
                break
        else:
            continue
        if piv != r:
            rows[r], rows[piv] = rows[piv], rows[r]
            sign = -sign
        pv, tail = rows[r][c], rows[r][c + 1 :]
        if p is None:
            for ri in rows[r + 1 :]:
                f = ri[c]
                ri[c + 1 :] = [(pv * x - f * y) // d for x, y in zip(ri[c + 1 :], tail)]
            d = pv
        else:
            inv = pow(pv, -1, p)
            nonzero = [(j, y) for j, y in enumerate(tail, c + 1) if y]
            for ri in rows[r + 1 :]:
                if ri[c]:
                    f = ri[c] * inv % p
                    for j, y in nonzero:
                        ri[j] = (ri[j] - f * y) % p
            d = d * pv % p
        r += 1
    return r, sign * d if r == n else 0


def _residue_dtype(p: int):
    """Array dtype for residues mod p under :func:`rank_mod_p`: int64 only
    while every product of two residues fits, (p - 1)^2 < 2^63; otherwise
    object, whose Python ints cannot overflow."""
    return np.int64 if (p - 1) ** 2 < 2**63 else object


def _dtype(field: Field):
    """Array dtype of unboxed entries: ``_residue_dtype(p)`` over F_p,
    object (Fractions) over Q."""
    p = _modulus(field)
    return object if p is None else _residue_dtype(p)


# Entries from which _mod_p takes the floor remainder instead of ``%``.  Best
# times on a 2-vCPU VM, numpy 2.4, p = 2^31 - 1, int64 in (-(p-1)^2, (p-1)^2),
# for ``%`` and the floor remainder: 15 entries 0.8 and 2.0 us, 128 1.3 and
# 2.1 us, 512 2.8 and 3.0 us, 2048 8.8 and 7.3 us, 65536 245 and 90 us.
_FLOOR_FROM = 512


def _mod_p(a: np.ndarray, p: int) -> np.ndarray:
    """a mod p in place, in [0, p) for any sign of a; returns a.

    The reduction depends on the size of a.  Int64 arrays of at least
    ``_FLOOR_FROM`` entries take the floor remainder a - (a // p) p, equal to
    ``a % p``: numpy divides by a scalar without a hardware division in
    ``//`` but not in ``%``, so on the 64 x 425 blocks of a (4,3) wedge map
    it is about five times faster.  But it makes three passes and a
    temporary, so smaller ones, the 15- to 84-entry vectors of a dense
    ``wedge`` sum, multiple or gather, take ``%`` in one pass; the two cost
    the same near 512 entries.  Object arrays, where each operation is a
    Python call, take ``%``."""
    if a.size < _FLOOR_FROM or a.dtype == object:
        a %= p
    else:
        a -= a // p * p
    return a


# Rows per panel of rank_mod_p.  The panel's pivot loop costs about b rank-1
# updates of b rows per panel, the update of the rows below one pass per
# panel, so b trades the one against the other.  Medians of 5 alternating
# rounds on a 2-vCPU VM, p = 2^31 - 1, one BLAS thread, with the delayed
# reduction, for b = 16, 32, 64: the 64^2 S of a (3,3) non-member 0.97,
# 1.01, 1.22 ms; a 425^2 (4,3) S 26, 24, 28 ms; a 1485^2 (4,3) tangent
# array of rank 210 0.33, 0.20, 0.18 s and a 2751^2 (5,3) S 5.4, 3.5, 2.7 s.
_PANEL = 32


def rank_mod_p(A: np.ndarray, p: int) -> int:
    """Rank over F_p of an array of residues in [0, p) with dtype
    ``_residue_dtype(p)``, by blocked Gaussian elimination that overwrites
    A, as in FFLAS-FFPACK (Dumas, Giorgi and Pernet, ACM TOMS 35(3), 2008;
    Jeannerod, Pernet and Storjohann, J. Symb. Comput. 56, 2013).

    A modulus that is not prime is refused, and so is any other dtype, an
    object entry that is not a Python int, or an entry outside [0, p):
    int64 arithmetic on arrays wraps around without a warning, and numpy
    integers wrap inside object arrays too, so the dtype, the entry type and
    the range are what keep every product of two residues exact.

    A is eliminated ``_PANEL`` rows at a time.  Each panel T is reduced to
    reduced row echelon form by one rank-1 update per pivot: with T[i, c]
    the pivot and inv its inverse, T[:, c:] -= f T[i, c:] for f = T[:, c]
    inv, except f_i = 1 - inv, which clears column c off row i and scales
    row i by inv in the same step.  f is zero off the rows that are nonzero
    in column c, read with one ``nonzero``, so only those rows are updated:
    the panel in place when that is every row, the pivot row alone, scaled
    by inv, when it is the only one, and otherwise those rows gathered and
    written back.  A sparse panel skips most of the work.

    The reduction mod p is delayed (Dumas, Giorgi and Pernet, ACM TOMS
    35(3), 2008): an entry is reduced by :func:`_mod_p` only where it is
    read as a residue, column c before its zero test and the pivot row
    before it is used as y, and the whole tail T[:, c:] only once the
    panel has had J = (2^63 - p - 1) // (p - 1)^2 updates since its last
    reduction.  J is 2 at p = 2^31 - 1, 1 for the int64 primes above 2^31,
    and beyond any panel at small primes.  The int64 bound: a reduced entry
    lies in [0, p), f is reduced from the product of a reduced entry of
    column c and inv, and y is reduced, so each update subtracts f y in
    [0, (p - 1)^2], and after j updates since the last reduction every
    entry a of T[:, c:] lies in [-j (p - 1)^2, p).  With j <= J that is
    inside int64, and so is its reduction: ``%`` cannot overflow, and the
    floor remainder a - a // p * p passes through a // p * p, which lies in
    [a - p + 1, a], so above -J (p - 1)^2 - p + 1 > -2^63, because
    J (p - 1)^2 + p < 2^63 by the choice of J.  J >= 1 for every int64
    prime: J = 0 would need p (p - 1) + 2 > 2^63, and p (p - 1) + 2 <=
    2^63 holds up to 3037000493, the largest prime with int64 residues.
    Object arrays, whose Python ints cannot overflow but grow, take J = 1,
    one reduction per pivot.

    The panel's k pivot rows E are then the identity mod p on its pivot
    columns P, so every later row x is reduced by x[P] E: the rows below
    become ``rest[:, ~P] - rest[:, P] E[:, ~P]``, formed in place by
    :func:`submul_mod_p` from E[:, ~P] reduced into [0, p) (the only part
    of the panel read again), whose inner dimension is k <= ``_PANEL`` and
    whose docstring proves the product exact.  The rank grows by k, and the panel
    and the columns P are dropped: the non-pivot columns at or past the new
    width are copied into the pivot columns before it, so the rows left
    stay a view of A.  A panel with no pivot is all zero and is dropped
    alone.
    """
    if not isinstance(p, int) or not _is_prime(p):
        raise ValueError(f"modulus {p!r} is not prime")
    dtype = np.dtype(_residue_dtype(p))
    if A.dtype != dtype:
        raise ValueError(f"residues mod {p} need dtype {dtype}, not {A.dtype}")
    if dtype == object and A.size:
        others = set(map(type, A.ravel().tolist())) - {int}
        if others:
            names = ", ".join(sorted(t.__name__ for t in others))
            raise ValueError(f"object entries must be Python ints, not {names}")
    if A.size and (A.min() < 0 or A.max() >= p):
        raise ValueError(f"entries must be residues in [0, {p})")
    budget = 1 if dtype == object else (2**63 - p - 1) // (p - 1) ** 2
    rank = 0
    while A.shape[0] and A.shape[1]:
        T, rest = A[:_PANEL], A[_PANEL:]
        pivots, rows, pending = [], T.shape[0], 0
        for c in range(T.shape[1]):
            i = len(pivots)
            if i == rows:
                break
            if pending == budget:
                _mod_p(T[:, c:], p)
                pending = 0
            elif pending:
                _mod_p(T[:, c], p)
            nz = T[:, c].nonzero()[0]
            whole = nz.size == rows
            at = i if whole else int(nz.searchsorted(i))
            if at == nz.size:
                continue
            if nz[at] != i:
                T[[i, nz[at]]] = T[[nz[at], i]]
                nz[at] = i
            if pending:
                _mod_p(T[i, c:], p)
            inv = pow(int(T[i, c]), -1, p)
            if nz.size == 1:
                T[i, c:] = _mod_p(T[i, c:] * inv, p)
            else:
                tail = T[:, c:] if whole else T[nz, c:]
                f = _mod_p(tail[:, 0] * inv, p)
                f[at] = (1 - inv) % p
                tail -= f[:, None] * tail[at]
                if not whole:
                    T[nz, c:] = tail
                pending += 1
            pivots.append(c)
        k = len(pivots)
        if not k:
            A = rest
            continue
        rank += k
        n = A.shape[1] - k
        if not rest.shape[0] or not n:
            break
        P = np.array(pivots)
        kept = np.ones(A.shape[1], dtype=bool)
        kept[P] = False
        X, moved, into = rest[:, P], n + np.flatnonzero(kept[n:]), P[P < n]
        rest[:, into] = rest[:, moved]
        cols = np.arange(n)
        cols[into] = moved
        A = rest[:, :n]
        Y = T[:k, cols]
        if pending:
            _mod_p(Y, p)
        submul_mod_p(A, X, Y, p)
    return rank


def submul_mod_p(S: np.ndarray, X: np.ndarray, Y: np.ndarray, p) -> None:
    """S <- (S - X Y) mod p in place, for residue arrays in [0, p) of dtype
    ``_residue_dtype(p)``: S is m x n, X is m x k and Y is k x n.  With p
    None, on object arrays of integers, S <- S - X Y over Z, unreduced: the
    Schur step of ``exterior.wedge_rank`` over Q.

    Over int64 residues X is balanced into (-p/2, p/2], so |x| <= h =
    p // 2, and the product is exact on one of two routes.

    Short products, k h^2 + p < 2^63 (k <= 8 at p = 2^31 - 1), run as one
    int64 matmul on X and Y both balanced.  Each product of two entries is
    at most h^2 in magnitude, so every partial sum of a dot product, in
    whatever order it is added, is at most k h^2 < 2^63, and an entry s of
    S in [0, p) becomes s - (X Y)_ij of magnitude below k h^2 + p < 2^63,
    before :func:`_mod_p` reduces it.  Numpy's integer matmul wraps around
    without a warning, so this bound is the only guard.

    Longer products run on float64 BLAS.  Y is split at 2^16 into limbs Y =
    2^16 Y_hi + Y_lo, both in [0, 2^16) because p < 2^32 here.  A product of
    an X entry and a limb is then below (h + 1) 2^16 in magnitude, so a
    chunk of at most ``2^53 // ((h + 1) 2^16)`` inner indices sums to below
    2^53 in magnitude, and so does every partial sum, in whatever order and
    grouping BLAS adds: each is an integer that float64 holds exactly, so
    each of the two GEMMs of a chunk returns its exact integer result, hi or
    lo.  Cast to int64, hi is reduced mod p, so 2^16 hi < 2^48, and an entry
    s of S becomes s - 2^16 hi - lo, of magnitude below 2^54, before it is
    reduced mod p again.

    Both routes update S 64 rows at a time, which bounds the temporaries,
    and skip a row block of X that is all zero.  Object arrays (p above
    2^31.5, or None) take the product in Python ints, which cannot overflow,
    as one outer product per inner index j, of X[:, j]'s nonzero entries by
    Y[j]'s, subtracted from S at those rows and columns; where p is set, S
    is reduced once at the end.  So sparse blocks pay for their nonzero
    products alone: the Schur blocks X and Y of a (4,3) member over Q are
    about 16% nonzero.
    """
    if S.dtype == object:
        for j in range(X.shape[1]):
            rows, cols = np.flatnonzero(X[:, j]), np.flatnonzero(Y[j])
            if rows.size and cols.size:
                S[np.ix_(rows, cols)] -= np.multiply.outer(X[rows, j], Y[j, cols])
        if p is not None:
            S %= p
        return
    h, k = p // 2, X.shape[1]
    Xb = np.where(X > h, X - p, X)
    short = k * h * h + p < 2**63
    if short:
        Yb = np.where(Y > h, Y - p, Y)
    else:
        chunk = 2**53 // ((h + 1) << 16)
        Xb = Xb.astype(np.float64)
        Y_hi, Y_lo = (Y >> 16).astype(np.float64), (Y & 0xFFFF).astype(np.float64)
    for i in range(0, S.shape[0], 64):
        x, block = Xb[i : i + 64], S[i : i + 64]
        if not x.any():
            continue
        if short:
            block -= x @ Yb
            _mod_p(block, p)
            continue
        for j in range(0, k, chunk):
            xj = x[:, j : j + chunk]
            hi = _mod_p((xj @ Y_hi[j : j + chunk]).astype(np.int64), p)
            block -= (hi << 16) + (xj @ Y_lo[j : j + chunk]).astype(np.int64)
            _mod_p(block, p)


def _rank(A, field: Field) -> int:
    """Rank over ``field`` of unboxed entries, given as rows or as a 2-D
    array: residues in [0, p) over F_p, Fractions or ints over Q.

    Over F_p it is :func:`rank_mod_p`, which overwrites A when A already is
    an array of dtype ``_residue_dtype(p)`` (no copy is made); over Q it is
    :func:`_eliminate`, fraction-free, on the rows with their denominators
    cleared."""
    p = _modulus(field)
    if p is not None:
        return rank_mod_p(np.asarray(A, dtype=_residue_dtype(p)), p)
    rows, _ = _rows_as_integers(A.tolist() if isinstance(A, np.ndarray) else A)
    return _eliminate(rows, None)[0]


def _boxed(A, field: Field) -> DenseMatrix:
    """The ``DenseMatrix`` of unboxed entries, given as rows or as a 2-D
    array.  Entries are boxed from ``tolist``, never as numpy scalars; over Q
    they must already be Fractions."""
    A = np.asarray(A, dtype=object)
    return DenseMatrix(*A.shape, tuple(map(field.box, A.ravel().tolist())))


def mat_det(M: DenseMatrix) -> Scalar:
    """Exact determinant of a square matrix, by :func:`_det`.

    The 0 x 0 determinant is the empty product, the plain int 1.
    """
    if M.rows != M.cols:
        raise ValueError("determinant of a non-square matrix")
    if M.rows == 0:
        return 1
    field, rows = _unboxed_rows(M)
    return _det(rows, field)


def _modulus(field: Field):
    """p for Z/p, None for the rationals."""
    return field.p if isinstance(field, PrimeField) else None


def _det(rows: list[list], field: Field) -> Scalar:
    """Boxed determinant of a nonempty square matrix of unboxed rows (residues
    in [0, p), or Fractions), by :func:`_eliminate`: on the residues in
    place, over Q on the rows with their denominators cleared."""
    p = _modulus(field)
    if p is not None:
        return field.box(_eliminate(rows, p)[1])
    rows, scale = _rows_as_integers(rows)
    return Fraction(_eliminate(rows, None)[1], scale)


def poly_interpolate(xs: Sequence[Scalar], ys: Sequence[Scalar]) -> list[Scalar]:
    """Coefficients (ascending degree) of the unique interpolating polynomial.

    Exact Lagrange interpolation; the evaluation points must be pairwise
    distinct elements of one field, and the values elements of the same
    field, or ``ValueError`` is raised.  Points and values are unboxed once
    and the basis polynomials are formed on residues (one modular inverse
    each) or on Fractions; only the returned coefficients are boxed.
    """
    if len(xs) != len(ys) or not xs:
        raise ValueError("need equally many points and values")
    try:
        field = field_of(xs[0])
    except TypeError as e:
        raise ValueError(str(e)) from None
    us, vs = [field.unbox(x) for x in xs], [field.unbox(y) for y in ys]
    if len(set(us)) != len(us):
        raise ValueError("evaluation points must be pairwise distinct")
    p = _modulus(field)
    coeffs = [0] * len(us)
    for i, xi in enumerate(us):
        basis, denom = [1], 1
        for j, xj in enumerate(us):
            if j != i:
                # basis * (X - xj), ascending degree.
                basis = [a - xj * b for a, b in zip([0, *basis], [*basis, 0])]
                denom *= xi - xj
        w = vs[i] / denom if p is None else vs[i] * pow(denom, -1, p)
        coeffs = [c + w * b for c, b in zip(coeffs, basis)]
    return [field.box(c if p is None else c % p) for c in coeffs]
