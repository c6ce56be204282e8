"""Exterior algebra over an exact field with bitmask-indexed basis.

A degree-k basis element e_I of wedge^k(V), with dim V = n <= 64, is labelled
by the strictly increasing index set I in {1, ..., n}, encoded as the bitmask
with bit (i-1) set for each i in I.

Representation.  An ``ExteriorVector`` holds its coefficients unboxed
(residues in [0, p) over F_p, Fractions over Q) in one or both of two
forms, each built from the other the first time it is read: a private
mask -> coefficient dict of its nonzero terms (``_coeffs``), and a dense
lex-order vector of integers x over a denominator d, read-only, with u = x
/ d (``_dense_vector``).  Over F_p x holds the residues with d = 1 (int64
while (p - 1)^2 < 2^63, Python ints above); over Q it holds numerators over
a common denominator d, which is not reduced to the lcm.  A vector built
from terms, through the public constructor (which unboxes each coefficient
through ``field.unbox``, refusing non-elements) or through ``_trusted``
(unboxed and reduced), is born with its dict; every gather output and
every sum, negative or multiple of operands that hold dense vectors is
born with its dense vector alone (``_from_dense``), and a dict built from
it lists its terms in lex order.  ``is_zero`` and the term counts that
choose a wedge path read whichever form is there.  ``terms`` is a
read-only boxed view for the API, built on first access and cached.

Sign kernel.  e_I ^ e_J = (-1)^s e_{I+J} for disjoint I and J, where s counts
the pairs i in I, j in J with i > j: the inversions of the merge permutation
interleaving the two sorted index sets.  Counted from the side of J, s is the
number of bits of J that have an odd number of bits of I above them, so with
``_odd_above(I)``, the mask of those bit positions cached once per basis mask,
the sign is the parity of ``popcount(J & _odd_above(I))``.  Every sign in the
package (``wedge``, the wedge-multiplication maps, the tangent systems and
the shuffle expansion of the wedge form) is read off this one mask.

``wedge`` has two paths: a scan of its own term pairs, and a gather on the
inputs' cached dense vectors.  The rule that picks one (``_gathers``) reads
only the operands' shapes and term counts, never which form they hold.  On
int64 residues a signed sum of T reduced products is exact only while T *
p < 2^63 (``_exact``, the one statement of that bound), and a gather row
sums C(a + b, a) of them (proved in ``_gather``), so past that bound every
wedge scans its pairs.  Otherwise a degree-a by degree-b wedge gathers when
u has at least C(n - b, a) terms and v at least C(n - a, b): as many as the
masks disjoint from one term of the other, the length of a table row.
Then the C(n, a) * C(n - a, b) disjoint pairs of the tables are no more
than v's terms paired with every coordinate of u, nor u's terms with every
coordinate of v, so the table is never larger than one operand's dense
vector times the other's term count.  Their term pairs must also number
at least max(C(n, a), C(n, b)), the longer dense vector: at top degree, a
+ b = n, both floors are 1, and the one-term vectors e_{1..20} and
e_{21..40} would otherwise build dense vectors of C(40, 20) entries.
Sparse vectors, and large n, scan their pairs (``_wedge_walk``), signing
each one off ``_odd_above``, and never build a table.  The gather reads
every disjoint pair from ``_wedge_gather(n, a, b)`` (the wedge table below,
one row per output coordinate, each pair with its int64 +-1 sign) and sums
the signed products by output coordinate, over the product dx * dy of the
inputs' denominators: one multiply by the sign array signs every product.
On int64 residues each product is reduced mod p before it is signed, so
each term lies in (-p, p); Python ints are signed and summed as they are
and reduced once mod p.  Every reduction of an int64 array goes
through :func:`pluckerlab.scalars._mod_p`, which picks ``%`` or the floor
remainder by the array's size.  The summed vector is the result, born
dense (``_from_dense``).  ``top_wedge_coefficient`` checks its slots once
and folds ``wedge`` over all but the last two, so each head step takes the
route ``_gathers`` picks.  When ``wedge`` would gather the step before
last, it and the last step are one gather (``_gather_top``), boxing only
the final scalar: the sum of sign * x_I * y_J * z_{(I | J)^c} over the
T = C(n, a) * C(n - a, b) disjoint pairs (I, J) of ``_wedge_gather(n, a,
b)``, each complement read off the one-row table ``_wedge_gather(n, a + b,
n - a - b)`` and each sign the product of the two tables' signs.  On int64
residues that is exact while T * p < 2^63 (``_exact`` again), and past it,
or when the step before last scans, the last two steps are two wedges.
The wedge of the rows of a matrix, the Plucker vector of
``grassmann.plucker_embed`` and of ``bundle_pairs_p1.classify_point``, is
``_wedge_rows``: the rows, given dense, become dense vectors and fold by
``_gather`` alone, so the vector is born dense and no step walks term
pairs; past ``_DENSE_ROWS_MAX`` table entries, as for a sparse 8 x 64
matrix, the rows fold through ``wedge`` instead.  Outputs are built through
``ExteriorVector._trusted``, which skips the per-term checks of the public
constructor, so nothing on these paths is boxed.

Wedge table.  ``_wedge_gather(n, a, b)``, built once per shape straight
from its entries, has one row per degree-(a + b) mask K in lex order, and
lists the C(a + b, a) splittings of K as I | J, from
``itertools.combinations`` over K's bits with I in lex order: the lex
position of I, that of J, and the int64 sign, +-1, off ``_odd_above(I)``.
It is the one cached table that enumerates masks; every other wedge table
is derived from it.  In the matrix of t |-> u ^ t on wedge^s(V), each
entry (I, J, sign) of row K of ``_wedge_gather(n, a, s)`` puts sign * u_I
at row K, column J, and every other entry is zero: ``_wedge_array`` fills
an array of unboxed entries with one fancy-index assignment of u's dense
vector (x / d as Fractions over Q) times the signs, one multiply, reduced
mod p by ``_mod_p`` over F_p.  The blocks of the tangent systems of
``plucker_form.tangent_codim`` are such arrays, each with its sign.  The
gather in ``wedge``, the fused top step (``_top_gather``) and
``wedge_rank`` (``_schur_scatter``, below) read the same table.

Rank.  The table entries of u's lex-first term c_0 e_mu0 form a diagonal
block of the wedge matrix: rows mu0 | t and columns t for the C(n - a, s)
masks t disjoint from mu0, entries +-c_0.  So ``wedge_rank``, over either
field, counts those pivots at once and hands only the Schur complement S
of that block (``_wedge_schur``) to ``scalars._rank``.  The wedge matrix
itself is never built: ``_schur_scatter(n, a, s, i0)``, cached per pivot
mask in a bounded cache, maps every table entry to its place in S, in X
(the pivot columns), in Y (the pivot rows) or, for the pivot's own
entries, in a trailing block D, so one fancy-index assignment of the
signed entries of u's dense vector x fills them all, and
:func:`pluckerlab.scalars.submul_mod_p` forms the complement.  Over F_p
the entries are residues and it forms S -= X D^-1 Y: the panel step of
:func:`pluckerlab.scalars.rank_mod_p`, taken once on a panel whose pivot
block is known without elimination; ``rank_mod_p`` then takes the same
step, panel by panel, on S.  Over Q, with u = x / d and c_0 = x[i0], the
same buffer holds Python ints and S is scaled by c_0, so S' = c_0 S - X
diag(sign) Y, c_0 times the complement of the map of x (d times u's), is
an integer matrix formed with no division; Bareiss elimination ranks it.
A decomposable u has rank C(n - a, s), so its S is zero (the Plucker
relations in the chart c_0 != 0) and Grassmannian members get their rank
with no elimination at all.

The sign convention for contraction is fixed so that
``contract(phi, e_{phi + {j}}) = (-1)^pos e_j`` where pos is the 1-based
position of j inside the sorted set phi + {j}.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

import numpy as np

from .scalars import (
    Field,
    Scalar,
    _dtype,
    _mod_p,
    _modulus,
    _rank,
    _residue_dtype,
    _rows_as_integers,
    submul_mod_p,
)


def _mask_from_indices(indices: Iterable[int], n: int) -> int:
    mask = 0
    for i in indices:
        if not 1 <= i <= n:
            raise ValueError(f"index {i} out of range 1..{n}")
        bit = 1 << (i - 1)
        if mask & bit:
            raise ValueError(f"repeated index {i}")
        mask |= bit
    return mask


@lru_cache(maxsize=None)
def _indices_from_mask(mask: int) -> tuple[int, ...]:
    out = []
    i = 1
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return tuple(out)


@lru_cache(maxsize=None)
def _odd_above(mu: int) -> int:
    """Mask of the bits j with an odd number of bits of mu above j.

    For disjoint masks, e_mu ^ e_mv = -e_{mu|mv} exactly when
    ``(mv & _odd_above(mu)).bit_count()`` is odd.
    """
    out = 0
    while mu:
        low = mu & -mu
        out ^= low - 1
        mu ^= low
    return out


@lru_cache(maxsize=None)
def lex_masks(n: int, k: int) -> tuple[int, ...]:
    """All degree-k basis masks on n letters, ordered by their index tuples."""
    if k < 0 or k > n:
        return ()
    return tuple(
        _mask_from_indices(c, n) for c in itertools.combinations(range(1, n + 1), k)
    )


@lru_cache(maxsize=None)
def _lex_position(n: int, k: int) -> dict[int, int]:
    """Position of each degree-k mask in ``lex_masks(n, k)``."""
    return {m: i for i, m in enumerate(lex_masks(n, k))}


@lru_cache(maxsize=None)
def _wedge_gather(n: int, a: int, b: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The disjoint pairs of the wedge of a degree-a by a degree-b vector,
    grouped by output coordinate: the one index table of every wedge kernel.

    Row K belongs to the K-th mask of ``lex_masks(n, a + b)`` and lists its
    C(a + b, a) splittings I | J, with I in lex order: the lex position of
    I, that of J, and the sign of e_I ^ e_J = sign * e_{I|J}, int64 +-1 off
    ``_odd_above(I)``, so one multiply signs a row of products.  It is
    built entry by entry, C(n, a) * C(n - a, b) of them.
    """
    u_pos, v_pos = _lex_position(n, a), _lex_position(n, b)
    u_at, v_at, sign = [], [], []
    for K in lex_masks(n, a + b):
        for I in itertools.combinations([1 << i for i in range(n) if K >> i & 1], a):
            mu = sum(I)
            mv = K ^ mu
            u_at.append(u_pos[mu])
            v_at.append(v_pos[mv])
            sign.append(1 - 2 * ((mv & _odd_above(mu)).bit_count() & 1))
    shape = (-1, math.comb(a + b, a))
    return (
        np.array(u_at, dtype=np.intp).reshape(shape),
        np.array(v_at, dtype=np.intp).reshape(shape),
        np.array(sign, dtype=np.int64).reshape(shape),
    )


@dataclass(frozen=True)
class MultiIndex:
    """A strictly increasing subset of {1, ..., n} as a bitmask."""

    mask: int
    n: int

    def __post_init__(self):
        if not 0 < self.n <= 64:
            raise ValueError("ambient dimension must be in 1..64")
        if self.mask < 0 or self.mask >> self.n:
            raise ValueError("mask has bits outside the ambient dimension")

    @classmethod
    def from_indices(cls, indices: Iterable[int], n: int) -> "MultiIndex":
        return cls(_mask_from_indices(indices, n), n)

    @property
    def degree(self) -> int:
        return self.mask.bit_count()

    @property
    def indices(self) -> tuple[int, ...]:
        return _indices_from_mask(self.mask)


class ExteriorVector:
    """Homogeneous element of wedge^k(V): a sparse mask -> coefficient map,
    a dense lex-order vector, or both (see the module docstring)."""

    __slots__ = ("n", "degree", "field", "_dict", "_terms", "_dense")

    def __init__(self, n: int, degree: int, terms: dict, field: Field):
        if not 0 < n <= 64:
            raise ValueError("ambient dimension must be in 1..64")
        if not 0 <= degree <= n:
            raise ValueError("degree out of range")
        clean = {}
        for mask, coeff in terms.items():
            if mask.bit_count() != degree or mask >> n:
                raise ValueError(f"mask {mask:b} has wrong degree or range")
            if c := field.unbox(coeff):
                clean[mask] = c
        self.n, self.degree, self.field = n, degree, field
        self._dict, self._terms, self._dense = clean, None, None

    @classmethod
    def _trusted(
        cls, n: int, degree: int, coeffs, field: Field, dense=None
    ) -> "ExteriorVector":
        """Construct without the checks of ``__init__``: the caller passes only
        nonzero unboxed coefficients, on masks of this degree within range,
        or None and a read-only dense vector (x, d) (see :func:`_from_dense`)."""
        self = object.__new__(cls)
        self.n, self.degree, self.field = n, degree, field
        self._dict, self._terms, self._dense = coeffs, None, dense
        return self

    @property
    def _coeffs(self) -> dict:
        """The mask -> unboxed coefficient dict of the nonzero terms; for a
        vector born dense, built from its dense vector on first read, in lex
        order, and kept."""
        if self._dict is None:
            x, d = self._dense
            nz = np.flatnonzero(x)
            masks = map(lex_masks(self.n, self.degree).__getitem__, nz.tolist())
            cs = x[nz].tolist()
            if _modulus(self.field) is None:
                cs = [Fraction(c, d) for c in cs]
            self._dict = dict(zip(masks, cs))
        return self._dict

    @property
    def terms(self) -> Mapping[int, Scalar]:
        """Read-only mask -> boxed coefficient view, built on first access."""
        if self._terms is None:
            box = self.field.box
            self._terms = MappingProxyType({m: box(c) for m, c in self._coeffs.items()})
        return self._terms

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(n: int, degree: int, field: Field) -> "ExteriorVector":
        return ExteriorVector(n, degree, {}, field)

    @staticmethod
    def basis(n: int, indices: Iterable[int], field: Field) -> "ExteriorVector":
        mask = _mask_from_indices(indices, n)
        return ExteriorVector(n, mask.bit_count(), {mask: field.one()}, field)

    # -- queries -----------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        if self._dict is None:
            return not self._dense[0].any()
        return not self._dict

    def coefficient(self, index) -> Scalar:
        mask = index.mask if isinstance(index, MultiIndex) else index
        return self.field.box(self._coeffs[mask]) if mask in self._coeffs else self.field.zero()

    # -- algebra -----------------------------------------------------------

    def _check_compatible(self, other: "ExteriorVector"):
        if self.n != other.n or self.degree != other.degree:
            raise ValueError("shape mismatch")
        if self.field is not other.field and self.field != other.field:
            raise ValueError("field mismatch")

    # Sums, negatives and multiples keep the unboxed coefficients reduced mod
    # p.  When every operand holds a dense vector they work on those and the
    # result is born dense: on Q a sum lies over the lcm of the operands'
    # denominators, so a chain of sums keeps the lcm of its inputs', and a
    # multiple over the product of the denominators.  Otherwise they walk the
    # dicts, drop zeros themselves and build through ``_trusted``.  On int64
    # residues a sum is below 2p and a product below (p - 1)^2 < 2^63, both
    # inside the dtype; dense results are reduced by ``_mod_p``.

    def __add__(self, other: "ExteriorVector") -> "ExteriorVector":
        self._check_compatible(other)
        p = _modulus(self.field)
        if self._dense is not None and other._dense is not None:
            (x, dx), (y, dy) = self._dense, other._dense
            L = math.lcm(dx, dy)  # 1 over F_p
            z = x * (L // dx) + y * (L // dy) if p is None else _mod_p(x + y, p)
            return _from_dense(z, L, self.n, self.degree, self.field)
        coeffs = dict(self._coeffs)
        for m, c in other._coeffs.items():
            total = coeffs.pop(m, 0) + c
            if p is not None and total >= p:
                total -= p
            if total:
                coeffs[m] = total
        return ExteriorVector._trusted(self.n, self.degree, coeffs, self.field)

    def __sub__(self, other: "ExteriorVector") -> "ExteriorVector":
        return self + (-other)

    def __neg__(self) -> "ExteriorVector":
        p = _modulus(self.field)
        if self._dense is not None:
            x, d = self._dense
            z = -x if p is None else _mod_p(-x, p)
            return _from_dense(z, d, self.n, self.degree, self.field)
        items = self._coeffs.items()
        coeffs = {m: -c for m, c in items} if p is None else {m: p - c for m, c in items}
        return ExteriorVector._trusted(self.n, self.degree, coeffs, self.field)

    def scale(self, scalar: Scalar) -> "ExteriorVector":
        s, p = self.field.unbox(scalar), _modulus(self.field)
        if self._dense is not None:
            x, d = self._dense
            z, d = (x * s.numerator, d * s.denominator) if p is None else (_mod_p(x * s, p), d)
            return _from_dense(z, d, self.n, self.degree, self.field)
        items = self._coeffs.items() if s else ()  # s * c is nonzero for nonzero s, c
        coeffs = {m: s * c for m, c in items} if p is None else {m: s * c % p for m, c in items}
        return ExteriorVector._trusted(self.n, self.degree, coeffs, self.field)

    def __rmul__(self, scalar) -> "ExteriorVector":
        if isinstance(scalar, int):
            scalar = self.field.from_int(scalar)
        return self.scale(scalar)

    def leading_mask(self) -> int:
        """Mask of the lexicographically smallest nonzero coordinate."""
        if self.is_zero:
            raise ValueError("zero vector has no leading term")
        return min(self._coeffs, key=_indices_from_mask)

    def normalized(self) -> "ExteriorVector":
        """Canonical projective representative: leading coefficient one."""
        lead = self.coefficient(self.leading_mask())
        if lead == self.field.one():
            return self
        return self.scale(self.field.one() / lead)

    def __eq__(self, other):
        return (
            isinstance(other, ExteriorVector)
            and self.n == other.n
            and self.degree == other.degree
            and self.field == other.field
            and self._coeffs == other._coeffs
        )

    def __repr__(self):
        if self.is_zero:
            return f"ExteriorVector(0; n={self.n}, k={self.degree})"
        parts = [
            f"{c!r}*e{list(_indices_from_mask(m))}"
            for m, c in sorted(self.terms.items(), key=lambda kv: _indices_from_mask(kv[0]))
        ]
        return " + ".join(parts)

    # -- serialization -----------------------------------------------------

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "degree": self.degree,
            "terms": [
                [list(_indices_from_mask(m)), self.field.element_to_str(self.field.box(c))]
                for m, c in sorted(
                    self._coeffs.items(), key=lambda kv: _indices_from_mask(kv[0])
                )
            ],
        }

    @staticmethod
    def from_json(data: dict, field: Field) -> "ExteriorVector":
        missing = [k for k in ("n", "degree", "terms") if k not in data]
        if missing:
            raise ValueError(f"record lacks {', '.join(missing)}")
        n, degree = data["n"], data["degree"]
        if type(n) is not int or type(degree) is not int:
            raise ValueError("n and degree must be integers")
        try:
            terms = {_mask_from_indices(i, n): field.element_from_str(s) for i, s in data["terms"]}
        except (TypeError, AttributeError):
            raise ValueError("terms must be [[indices], coefficient string] pairs") from None
        return ExteriorVector(n, degree, terms, field)


def _term_count(u: ExteriorVector) -> int:
    """Number of nonzero terms of u, read off its dict or its dense vector."""
    if u._dict is None:
        return int(np.count_nonzero(u._dense[0]))
    return len(u._dict)


@lru_cache(maxsize=None)
def _gather_floor(n: int, a: int, b: int) -> tuple[int, int, int]:
    """(C(n - b, a), C(n - a, b), max(C(n, a), C(n, b))): the least term
    count of u, that of v, and the least term-pair count with which a
    degree-a by degree-b wedge u ^ v on n letters gathers
    (:func:`_gathers`).  The first two are the masks disjoint from one term
    of the other operand, the third the length of the longer dense vector."""
    return math.comb(n - b, a), math.comb(n - a, b), max(math.comb(n, a), math.comb(n, b))


# math.comb cached per shape: the term counts that the exactness checks of
# every wedge and top wedge read.
_comb = lru_cache(maxsize=None)(math.comb)


@lru_cache(maxsize=None)
def _exact(p, terms: int) -> bool:
    """Whether a signed sum of ``terms`` products, each reduced mod p, is
    exact over F_p (over Q when p is None): always on Python ints, and on
    int64 residues while terms * p < 2^63, as each signed term lies in
    (-p, p).  A gather row sums C(a + b, a) terms (:func:`_gather`), the
    fused top step T = C(n, a) * C(n - a, b) (:func:`_gather_top`)."""
    return p is None or _residue_dtype(p) is not np.int64 or terms * p < 2**63


def _gathers(p, n: int, a: int, b: int, nu: int, nv: int) -> bool:
    """Whether a wedge of an nu-term degree-a vector by an nv-term degree-b
    vector on n letters, over F_p (over Q when p is None), gathers through
    the cached tables; it reads only shapes and term counts.

    It gathers when nu >= C(n - b, a), nv >= C(n - a, b) and nu * nv >=
    max(C(n, a), C(n, b)), and the C(a + b, a)-term row sums are exact
    (:func:`_exact`): past that guard the wedge scans its pairs.
    The table's C(n, a) * C(n - a, b) = C(n, b) * C(n - b, a) pairs are
    then at most C(n, a) * nv and nu * C(n, b): it is never larger than one
    operand's dense vector times the other's term count, and every wedge
    with at least as many term pairs as the table meets both floors.
    Sparse wedges, and at n = 64 the table can reach 10^9 masks, scan their
    own pairs instead.  At top degree, a + b = n, both floors are 1, and the
    third keeps two one-term vectors from building dense vectors of C(n, a)
    entries: no dense vector is longer than the pairs scanned instead."""
    fu, fv, fd = _gather_floor(n, a, b)
    return nu >= fu and nv >= fv and nu * nv >= fd and _exact(p, _comb(a + b, a))


def _dense_vector(u: ExteriorVector) -> tuple[np.ndarray, int]:
    """u as (x, d), u = x / d with x a read-only dense lex-order vector of
    integers: over F_p the residues in [0, p) as ``_residue_dtype(p)`` and
    d = 1, over Q the numerators over a common denominator d of the
    coefficients, as Python ints.  A vector born with its dict gets x on
    first use, over the lcm of its denominators, and keeps it; a vector
    born dense holds x over whatever common denominator built it."""
    if u._dense is None:
        cs, d = list(u._dict.values()), 1
        if _modulus(u.field) is None:
            (cs,), d = _rows_as_integers([cs])
        x = np.zeros(math.comb(u.n, u.degree), dtype=_dtype(u.field))
        at = _lex_position(u.n, u.degree)
        x[np.fromiter(map(at.__getitem__, u._dict), dtype=np.intp, count=len(cs))] = cs
        x.flags.writeable = False
        u._dense = x, d
    return u._dense


def _from_dense(z: np.ndarray, d: int, n: int, k: int, field: Field) -> ExteriorVector:
    """The degree-k vector z / d, z a dense lex-order vector of integers,
    reduced mod p over F_p (where d = 1), born holding z alone, which
    becomes read-only: its dict is built only if something reads it."""
    z.flags.writeable = False
    return ExteriorVector._trusted(n, k, None, field, (z, d))


def _gather(x: np.ndarray, y: np.ndarray, n: int, a: int, b: int, p) -> np.ndarray:
    """Dense vector of the wedge of the dense degree-a vector x and the dense
    degree-b vector y, lex order throughout, over the product of their
    denominators; reduced mod p, or not at all when p is None (over Q).

    Output coordinate K sums the C(a + b, a) pairs of row K of
    ``_wedge_gather(n, a, b)``, each product times its sign, +-1.  Python
    ints (p above 2^31.5, or Q) are exact at any size: the products are
    signed, summed, and reduced once.  Exactness in int64: x and y hold
    residues in [0, p), so each product is at most (p - 1)^2 < 2^63, which
    ``_residue_dtype(p) is np.int64`` guarantees; reduced mod p and signed,
    each term lies in (-p, p); so every partial sum of a row is below
    C(a + b, a) * p in magnitude, below 2^63 by the check in
    :func:`_exact`.
    """
    u_at, v_at, sign = _wedge_gather(n, a, b)
    prod = x[u_at] * y[v_at]
    if x.dtype != object:
        _mod_p(prod, p)
    prod *= sign
    z = prod.sum(axis=1)
    return z if p is None else _mod_p(z, p)


@lru_cache(maxsize=None)
def _top_gather(n: int, a: int, b: int) -> tuple[np.ndarray, ...]:
    """The T = C(n, a) * C(n - a, b) terms of the top coefficient of x ^ y ^ z,
    for x of degree a, y of degree b and z of degree n - a - b, one row of
    ``_wedge_gather(n, a, b)`` for each mask I | J: the positions of I in x
    and of J in y, as in that table, a column with the position in z of each
    row's complement (I | J)^c, and the sign, +-1, of e_I ^ e_J ^ e_{(I |
    J)^c} for each term, flat in row-major order.

    The one-row table ``_wedge_gather(n, a + b, n - a - b)`` lists the masks
    I | J in lex order, the order of the rows, so its column K holds row K's
    complement and sign.  Only the signs are a new array: T int64 entries.
    """
    u_at, v_at, sign = _wedge_gather(n, a, b)
    _, w_at, w_sign = _wedge_gather(n, a + b, n - a - b)
    return u_at, v_at, w_at.T, (sign * w_sign.T).ravel()


def _gather_top(x: np.ndarray, y: np.ndarray, z: np.ndarray, n: int, a: int, b: int, p):
    """The top coefficient of x ^ y ^ z (see :func:`_top_gather`), x, y and
    z dense lex-order vectors, as a one-entry array over the product of
    their denominators.  The sum is not reduced mod p: its one caller,
    :func:`top_wedge_coefficient`, boxes it, and ``PrimeField.box`` reduces.

    Python ints are exact at any size.  Exactness in int64: x * y is reduced
    mod p, then times z and reduced again, each product at most (p - 1)^2
    < 2^63; each signed term lies in (-p, p), so every partial sum of the
    signed dot product is below T * p in magnitude, and T * p < 2^63 by the
    check of :func:`_exact`.
    """
    u_at, v_at, w_at, sign = _top_gather(n, a, b)
    if x.dtype == object:
        return (x[u_at] * y[v_at] * z[w_at]).reshape(1, -1) @ sign
    prod = _mod_p(_mod_p(x[u_at] * y[v_at], p) * z[w_at], p)
    return prod.reshape(1, -1) @ sign


# Table entries that one step of the dense fold of _wedge_rows may read, the
# same 10^5 as the CLI's budget of coefficients per vector.  The fold reads
# its tables and allocates dense vectors whatever the rows hold, so past it,
# where a sparse 8 x 64 matrix would allocate C(64, 8) = 4.4 * 10^9 entries
# and a 64 x 64 one C(64, 32) = 1.8 * 10^18 on the way, the rows fold
# through wedge instead.
_DENSE_ROWS_MAX = 10**5


def _wedge_rows(rows: Sequence[Sequence], n: int, field: Field) -> ExteriorVector:
    """The wedge of the rows of an r x n matrix, r >= 1, given as rows of n
    unboxed entries (residues in [0, p), or Fractions): the degree-r vector
    whose coordinate on each r-subset of the columns is that r x r minor.

    Each row becomes a dense vector x_k, residues, or over Q the numerators
    over the row's lcm d_k, and the rows fold by :func:`_gather`: x_0 ^ ...
    ^ x_k is gathered with x_{k + 1} through ``_wedge_gather(n, k + 1, 1)``,
    whose C(n, k + 2) rows sum k + 2 signed terms each.  Every step is
    exact: (k + 2) * p < 2^63 for every int64 residue prime, as k + 2 <= 64
    (:func:`_exact`).  The result is born dense, over the product of the
    d_k.  No step reads more than r * C(n, min(r, n // 2)) table entries,
    C(n, min(r, n // 2)) being the largest C(n, j) with j <= r; past
    ``_DENSE_ROWS_MAX`` of them the rows fold through :func:`wedge` as
    degree-1 vectors, so each step takes the route :func:`_gathers` picks
    and a sparse wide or large matrix never builds its dense vectors."""
    r, p = len(rows), _modulus(field)
    if r * _comb(n, min(r, n // 2)) > _DENSE_ROWS_MAX:
        terms = ({1 << j: c for j, c in enumerate(row) if c} for row in rows)
        return functools.reduce(wedge, (ExteriorVector._trusted(n, 1, t, field) for t in terms))
    d = 1
    if p is None:
        rows, d = _rows_as_integers(rows)
    X = np.array(rows, dtype=_dtype(field))
    z = X[0]
    for k in range(1, r):
        z = _gather(z, X[k], n, k, 1, p)
    return _from_dense(z, d, n, r, field)


def wedge(u: ExteriorVector, v: ExteriorVector) -> ExteriorVector:
    """Bilinear wedge product, signed by the merge permutation parity."""
    if u.n != v.n:
        raise ValueError("ambient dimension mismatch")
    if u.field is not v.field and u.field != v.field:
        raise ValueError("field mismatch")
    n, a, b = u.n, u.degree, v.degree
    if a + b > n:
        raise ValueError(f"degree overflow: {a} + {b} > {n}")
    field, p = u.field, _modulus(u.field)
    if _gathers(p, n, a, b, _term_count(u), _term_count(v)):
        (x, dx), (y, dy) = _dense_vector(u), _dense_vector(v)
        return _from_dense(_gather(x, y, n, a, b, p), dx * dy, n, a + b, field)
    return ExteriorVector._trusted(n, a + b, _wedge_walk(u._coeffs, v._coeffs, p), field)


def _wedge_walk(ut: dict, vt: dict, p) -> dict:
    """Nonzero terms of the wedge of the terms ut by the terms vt, unboxed:
    masks to ints reduced mod p, or to Fractions when p is None.  Scans the
    pairs of ut and vt, signing each disjoint pair by the mask
    ``_odd_above(mu)``."""
    acc: dict = {}
    get = acc.get
    for mu, cu in ut.items():
        odd = _odd_above(mu)
        for mv, cv in vt.items():
            if not mu & mv:
                m = mu | mv
                x = cu * cv
                acc[m] = get(m, 0) + (-x if (mv & odd).bit_count() & 1 else x)
    if p is None:
        return {m: c for m, c in acc.items() if c}
    return {m: x for m, c in acc.items() if (x := c % p)}


def top_wedge_coefficient(vectors: Sequence[ExteriorVector]) -> Scalar:
    """Coefficient of e_{1..n} in the ordered wedge of the given vectors.

    The degrees must add up to the ambient dimension exactly.  It folds
    :func:`wedge` over all but the last two slots.  When :func:`wedge` would
    gather the step before last and the sum of its T terms is exact
    (:func:`_exact`), the last two steps are one gather (:func:`_gather_top`)
    and only that scalar is boxed; otherwise they are two more wedges.
    """
    if not vectors:
        raise ValueError("empty wedge")
    n, field = vectors[0].n, vectors[0].field
    if sum(v.degree for v in vectors) != n:
        raise ValueError("degrees must sum to the ambient dimension")
    for v in vectors:
        if v.n != n:
            raise ValueError("ambient dimension mismatch")
        if v.field is not field and v.field != field:
            raise ValueError("field mismatch")
    if len(vectors) < 3:
        return functools.reduce(wedge, vectors).coefficient((1 << n) - 1)
    *head, v, w = vectors
    u = functools.reduce(wedge, head)
    p, a, b = _modulus(field), u.degree, v.degree
    terms = _comb(n, a) * _comb(n - a, b)
    if _gathers(p, n, a, b, _term_count(u), _term_count(v)) and _exact(p, terms):
        (x, dx), (y, dy), (z, dz) = _dense_vector(u), _dense_vector(v), _dense_vector(w)
        top = _gather_top(x, y, z, n, a, b, p)[0]
        return field.box(int(top) if p is not None else Fraction(top, dx * dy * dz))
    return wedge(wedge(u, v), w).coefficient((1 << n) - 1)


def _contract_mask(phi_mask: int, w: ExteriorVector) -> ExteriorVector:
    """contract(phi, w) on unboxed coefficients.  Term c e_mask of w with
    phi inside mask contributes (-1)^pos c to e_j, j = mask minus phi; no
    two terms share j, so nothing is summed and no coefficient vanishes."""
    p, out = _modulus(w.field), {}
    for mask, c in w._coeffs.items():
        if mask & phi_mask != phi_mask:
            continue
        jbit = mask ^ phi_mask
        if (phi_mask & (jbit - 1)).bit_count() & 1:  # pos even
            out[jbit] = c
        else:
            out[jbit] = -c if p is None else p - c
    return ExteriorVector._trusted(w.n, 1, out, w.field)


def contract(phi: MultiIndex, w: ExteriorVector) -> ExteriorVector:
    """Interior product of w with the dual basis covector labelled by phi."""
    if phi.n != w.n:
        raise ValueError("ambient dimension mismatch")
    if phi.degree != w.degree - 1:
        raise ValueError("contraction degree must be one less than the vector degree")
    return _contract_mask(phi.mask, w)


def plucker_relations_hold(w: ExteriorVector) -> bool:
    """Classical decomposability test: contract(phi, w) ^ w = 0 for all phi.

    Exact for every degree; serves as the independent oracle for the rank
    based criterion in :mod:`pluckerlab.grassmann`.
    """
    if w.is_zero:
        raise ValueError("zero vector")
    r, n = w.degree, w.n
    if r <= 1 or r + 1 > n:
        return True
    for phi_mask in lex_masks(n, r - 1):
        v = _contract_mask(phi_mask, w)
        if v.is_zero:
            continue
        if not wedge(v, w).is_zero:
            return False
    return True


def random_exterior(
    n: int, degree: int, field: Field, rng: random.Random
) -> ExteriorVector:
    """Dense random vector with all coefficients sampled; retried if zero."""
    if not 0 < n <= 64:
        raise ValueError("ambient dimension must be in 1..64")
    if degree > n:
        raise ValueError(f"degree {degree} exceeds ambient dimension {n}")
    while True:
        terms = {m: field.sample(rng) for m in lex_masks(n, degree)}
        vec = ExteriorVector(n, degree, terms, field)
        if not vec.is_zero:
            return vec


def _check_wedge_degree(n: int, a: int, s: int) -> None:
    """Refuse a map t |-> u ^ t from wedge^s(V) for a negative s, or for a
    degree-a u with a + s > n."""
    if s < 0:
        raise ValueError(f"negative degree s = {s}")
    if a + s > n:
        raise ValueError("degree overflow")


def _wedge_array(u: ExteriorVector, s: int, sign: int = 1) -> np.ndarray:
    """The matrix of t |-> sign * u ^ t on wedge^s(V) as an array of unboxed
    entries, zero where empty (``Fraction(0)`` over Q).  Each entry (I, J)
    of row K of ``_wedge_gather(n, a, s)`` puts u_I, read off u's dense
    vector (x / d as Fractions over Q), times sign and the entry's sign at
    row K, column J; reduced mod p over F_p."""
    n, a, p = u.n, u.degree, _modulus(u.field)
    _check_wedge_degree(n, a, s)
    x, d = _dense_vector(u)
    if p is None:
        x = x / Fraction(d)
    u_at, v_at, signs = _wedge_gather(n, a, s)
    A = np.full((len(u_at), _comb(n, s)), u.field.unbox(u.field.zero()), dtype=x.dtype)
    entries = x[u_at] * (signs * sign)
    A[np.arange(len(u_at))[:, None], v_at] = entries if p is None else _mod_p(entries, p)
    return A


@lru_cache(maxsize=16)
def _schur_scatter(n: int, a: int, s: int, i0: int) -> tuple[np.ndarray, np.ndarray]:
    """Where each entry of ``_wedge_gather(n, a, s)`` lands when the pivot is
    the block of the i0-th degree-a mask (see :func:`_wedge_schur`), and the
    signs of that block's entries.

    The first array gives each entry's position in one flat buffer laid out
    S | X | Y | D, with S = A[R', C'] (mr x mc), X = A[R', C0] (mr x k), Y =
    A[R0, C'] (k x mc), all row-major, and D the k pivots.  R' and C' keep
    their ascending order; pivot j is the j-th table entry of I = i0 in
    row-major order, at row ``R0[j]`` and column ``C0[j]``, and sits at
    position j of X's columns, of Y's rows and of D.  The second array holds
    the pivots' signs, int64 +-1, in that order.  The cache is bounded: one
    entry costs 277 KB at (12, 4, 4) and about 6 MB at (15, 5, 5), beside
    the 832 KB and 18 MB of the ``_wedge_gather`` table it indexes.
    """
    u_at, v_at, sign = _wedge_gather(n, a, s)
    nrows, ncols = u_at.shape[0], _comb(n, s)
    pivot = u_at == i0
    rows0, cols0 = np.flatnonzero(pivot.any(axis=1)), v_at[pivot]
    k = len(cols0)
    mr, mc = nrows - k, ncols - k
    maps = []
    for size, pivots in ((nrows, rows0), (ncols, cols0)):
        # Each row (column) -> its index among the non-pivot ones, or, for
        # a pivot, its index j.
        is_pivot = np.zeros(size, dtype=bool)
        is_pivot[pivots] = True
        at = np.cumsum(~is_pivot) - 1
        at[pivots] = np.arange(k)
        maps.append((is_pivot, at))
    (row_piv, row_at), (col_piv, col_at) = maps
    i, j = row_at[:, None], col_at[v_at]
    where = np.where(
        row_piv[:, None],
        mr * (mc + k) + i * mc + j,
        np.where(col_piv[v_at], mr * mc + i * k + j, i * mc + j),
    )
    # The pivots' own entries, the only ones in a pivot row and a pivot
    # column (see :func:`_wedge_schur`), are pivots 0 to k - 1 in row-major
    # order.
    where[pivot] = mr * (mc + k) + k * mc + np.arange(k)
    return where, sign[pivot]


def _wedge_schur(u: ExteriorVector, s: int) -> tuple[int, np.ndarray]:
    """For nonzero u, (k, S) with rank(t |-> u ^ t on wedge^s(V)) = k +
    rank(S), over F_p or Q.

    Let u = x / d, x its dense vector (d = 1 over F_p), and A the matrix of
    t |-> x ^ t, d times that of u, so of the same rank.  u's lex-first term
    is c_0 / d e_mu0, c_0 = x[i0] the first nonzero entry of x.  The term's
    C(n - a, s) entries sit at rows R0 = {mu0 | t} and columns C0 = {t}, t
    disjoint from mu0, and the block D = A[R0, C0] is diagonal with entries
    +-c_0 (the table's signs): an entry at row mu0 | t, column t' in C0
    needs t' inside mu0 | t, and as t' misses mu0 that means t' = t.  So
    k = |C0| and rank(A) is k plus the rank of the Schur complement
    A[R', C'] - A[R', C0] D^-1 A[R0, C'], R' and C' the other rows and
    columns (rank additivity, Guttman 1946), or of any nonzero multiple of
    it.  A itself is never built: every entry of ``_wedge_gather`` is signed
    at once and scattered straight into S = A[R', C'], X = A[R', C0],
    Y = A[R0, C'] and D through the cached ``_schur_scatter(n, a, s, i0)``.
    Over F_p the entries are reduced mod p, X is scaled by D^-1 and
    :func:`pluckerlab.scalars.submul_mod_p` forms S - X D^-1 Y mod p.  Over
    Q they stay Python ints, S is scaled by c_0 and the same call forms c_0
    times the complement, S' = c_0 S - X diag(sign) Y, an integer matrix:
    no division, no prime and no height bound.
    """
    n, a, p = u.n, u.degree, _modulus(u.field)
    x, _ = _dense_vector(u)
    i0 = int(np.flatnonzero(x)[0])
    u_at, _, sign = _wedge_gather(n, a, s)
    where, d_sign = _schur_scatter(n, a, s, i0)
    k = len(d_sign)
    mr, mc = u_at.shape[0] - k, _comb(n, s) - k
    buf = np.zeros(mr * mc + (mr + mc) * k + k, dtype=x.dtype)
    buf[where] = x[u_at] * sign if p is None else _mod_p(x[u_at] * sign, p)
    S = buf[: mr * mc].reshape(mr, mc)
    X = buf[mr * mc : mr * (mc + k)].reshape(mr, k)
    Y = buf[mr * (mc + k) : mr * (mc + k) + k * mc].reshape(k, mc)
    X *= d_sign  # c_0 D^-1; over F_p (-p, p) times a residue fits the dtype
    if p is None:
        S *= x[i0]
    else:
        X *= pow(int(x[i0]), -1, p)
        _mod_p(X, p)
    submul_mod_p(S, X, Y, p)
    return k, S


def wedge_rank(u: ExteriorVector, s: int) -> int:
    """Rank of the matrix of t |-> u ^ t on wedge^s(V), lex bases on both
    sides, over F_p or Q.

    The matrix is never built, let alone boxed.  A zero u has rank 0,
    returned before anything is allocated.  Otherwise u's lex-first term's
    diagonal block gives C(n - a, s) pivots at once, and the Schur
    complement S of that block (:func:`_wedge_schur`), scattered straight
    from u's dense vector and formed by
    :func:`pluckerlab.scalars.submul_mod_p`, is all that is left to
    ``_rank``: blocked elimination mod p, or Bareiss over Q.  Over Q, with
    u = x / d and c_0 = x[i0] the pivot's numerator, S is the integer
    matrix S' = c_0 S - X diag(sign) Y on Python ints, c_0 times the
    complement of the map of x, so no division is made.  When S is zero, as it is for a decomposable u (the
    Plucker relations in the chart of that term), nothing is eliminated.
    A negative s is refused.
    """
    _check_wedge_degree(u.n, u.degree, s)
    if u.is_zero:
        return 0
    k, S = _wedge_schur(u, s)
    rows = S.any(axis=1)
    if not rows.any():
        return k
    # Zero rows and columns add nothing to the rank; a sparse u leaves many.
    # Rebinding S frees the scatter buffer (S, X and Y) before elimination.
    S = S[rows].compress(S.any(axis=0), axis=1)
    return k + _rank(S, u.field)
