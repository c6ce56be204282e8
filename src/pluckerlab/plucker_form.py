"""The total wedge form on m-tuples of degree-r vectors, its polars, and
the local data of its zero divisor: multiplicity at a point, tangent systems
of the singular strata, and the diagonal specialization.

Conventions.  All slot tuples live in wedge^r(V) with dim V = n = r*m.  A
point of the product of projective spaces is stored with each slot scaled so
its lexicographically smallest nonzero coordinate is one.  Every sign is
obtained by evaluating wedges in natural slot order, never from a separate
permutation-parity formula; the Taylor-coefficient identity (checked by the
test suite) pins the convention.

The lattice of slot subsets has one walk, a memo of ordered wedges w_S
filled on demand (``_SlotWedges``).  ``multiplicity_at`` reads the full
wedge's prefix chain first and stops each later level at its first nonzero
w_S; ``_tangent_array`` reads the level of its stratum and the one below
it.  ``polar`` and ``expand_form`` walk their subsets on their own.

Tangent systems are built once, as one array of unboxed entries (residues
over F_p, Fractions over Q) filled block by block from
``exterior._wedge_array``, and ``tangent_codim`` ranks that array through
``scalars._rank`` over either field; it is never boxed.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .exterior import (
    ExteriorVector,
    MultiIndex,
    _indices_from_mask,
    _odd_above,
    _wedge_array,
    lex_masks,
    top_wedge_coefficient,
    wedge,
    wedge_rank,
)
from .scalars import Field, Scalar, _dtype, _rank


@dataclass(frozen=True)
class PointTuple:
    """An m-tuple of nonzero degree-r vectors, one per projective factor."""

    r: int
    m: int
    slots: tuple

    @classmethod
    def of(cls, slots: Sequence[ExteriorVector]) -> "PointTuple":
        if not slots:
            raise ValueError("empty tuple")
        r = slots[0].degree
        m = len(slots)
        n = r * m
        field = slots[0].field
        norm = []
        for s in slots:
            if s.degree != r or s.n != n:
                raise ValueError("all slots must share degree r and ambient r*m")
            if s.field is not field and s.field != field:
                raise ValueError("field mismatch between slots")
            if s.is_zero:
                raise ValueError("slots must be nonzero")
            norm.append(s.normalized())
        return cls(r, m, tuple(norm))

    @classmethod
    def diagonal(cls, w: ExteriorVector, m: int) -> "PointTuple":
        return cls.of([w] * m)

    @property
    def n(self) -> int:
        return self.r * self.m

    @property
    def field(self) -> Field:
        return self.slots[0].field


def eval_form(p: PointTuple) -> Scalar:
    """Coefficient of the top basis element in the ordered wedge of all slots."""
    return top_wedge_coefficient(p.slots)


def expand_form(r: int, m: int):
    """Shuffle expansion of the total wedge form.

    Returns one entry per ordered partition of {1, ..., r*m} into m blocks of
    size r: a tuple of the m block MultiIndexes together with the sign of the
    corresponding shuffle permutation.  The number of entries is
    (rm)! / (r!)^m.
    """
    n = r * m
    if n > 64:
        raise ValueError("ambient dimension exceeds 64")
    full = (1 << n) - 1
    out = []

    def rec(remaining: int, blocks: tuple, acc_mask: int, parity: int):
        if len(blocks) == m:
            out.append((blocks, -1 if parity else 1))
            return
        free = _indices_from_mask(remaining)
        for comb in itertools.combinations(free, r):
            bm = 0
            for i in comb:
                bm |= 1 << (i - 1)
            rec(
                remaining ^ bm,
                blocks + (MultiIndex(bm, n),),
                acc_mask | bm,
                parity ^ ((bm & _odd_above(acc_mask)).bit_count() & 1),
            )

    rec(full, (), 0, 0)
    return out


def expand_form_term_count(r: int, m: int) -> int:
    return math.factorial(r * m) // math.factorial(r) ** m


def evaluate_expansion(expansion, p: PointTuple) -> Scalar:
    """Sum of sign * product of slot coordinates over a shuffle expansion."""
    total = p.field.zero()
    for blocks, sign in expansion:
        prod = p.field.one()
        for slot, block in zip(p.slots, blocks):
            c = slot.terms.get(block.mask)
            if c is None:
                prod = None
                break
            prod = prod * c
        if prod is not None:
            total = total + (prod if sign > 0 else -prod)
    return total


def polar(k: int, w: PointTuple, t: Sequence[ExteriorVector]) -> Scalar:
    """k-th Taylor coefficient of the form along the line w + eps*t.

    Computed as the sum over all k-subsets S of the slot set of the ordered
    wedge with t substituted in the slots of S.  No extra signs enter: the
    substitution keeps natural slot order.
    """
    m = w.m
    if not 0 <= k <= m:
        raise ValueError("polar order out of range")
    if len(t) != m:
        raise ValueError("direction tuple has wrong length")
    for ti in t:
        if ti.n != w.n or ti.degree != w.r:
            raise ValueError("direction slots must share degree r and ambient r*m")
        if ti.field is not w.field and ti.field != w.field:
            raise ValueError("field mismatch")
    total = w.field.zero()
    for S in itertools.combinations(range(m), k):
        sset = set(S)
        vecs = [t[i] if i in sset else w.slots[i] for i in range(m)]
        total = total + top_wedge_coefficient(vecs)
    return total


class _SlotWedges(dict):
    """The lattice of slot subsets, filled on demand: ``self[smask]`` is w_S,
    the ordered wedge of the slots in S, keyed by the bitmask of S over slot
    positions (bit i = slot i).

    A missing w_S is built as w_{S - max S} ^ w_{max S} and kept, so reading
    the full set builds the prefix chain w_{0}, w_{0,1}, ... in m - 1 wedges,
    and every later read reuses what earlier reads built.
    """

    def __init__(self, slots: Sequence[ExteriorVector]):
        self.slots = slots

    def __missing__(self, smask: int) -> ExteriorVector:
        top = smask.bit_length() - 1
        rest = smask ^ (1 << top)
        w = wedge(self[rest], self.slots[top]) if rest else self.slots[top]
        self[smask] = w
        return w


def _masks(m: int, size: int):
    """Bitmasks of the size-element subsets of the m slots, in lex order."""
    return (sum(1 << i for i in S) for S in itertools.combinations(range(m), size))


def multiplicity_at(p: PointTuple) -> int:
    """Multiplicity of the zero divisor of the form at the given point: the
    largest k with every ordered wedge w_S, |S| = m-k+1, vanishing.  Always
    at most m-1 because the slots are nonzero.

    Reads the full wedge first (the prefix chain, m-1 wedges) and returns 0
    when it is nonzero.  Otherwise it tests the sizes 2, ..., m-1 in
    ascending order, each level stopping at its first nonzero w_S; the first
    all-zero level, of size s, gives m-s+1, and 1 when none is all zero.

    Proof.  Zero levels are upward closed: if every w_S with |S| = s
    vanishes, so does every w_T with |T| = s+1, which is w_{T - max T} ^
    w_{max T}.  So the all-zero sizes are s0, s0+1, ..., m+1 for one s0 (the
    level of size m+1 is empty, hence vacuously zero), the multiplicity is
    m-s0+1, and s0 >= 2 because the slots are nonzero.  A nonzero full
    wedge means s0 = m+1, and 0 is returned.  Otherwise s0 <= m: the first
    all-zero size among 2, ..., m-1 is s0 when s0 < m, and when there is
    none s0 = m, so 1 is returned.  By associativity of ^ every memo entry
    equals the ordered wedge of its slots, whichever split built it, so
    each test reads the same vectors as a walk over whole levels would.
    """
    m = p.m
    memo = _SlotWedges(p.slots)
    if not memo[(1 << m) - 1].is_zero:
        return 0
    for size in range(2, m):
        if all(memo[smask].is_zero for smask in _masks(m, size)):
            return m - size + 1
    return 1


def _tangent_array(p: PointTuple, k: int) -> np.ndarray:
    """Matrix of the conditions for a direction tuple t to be tangent to the
    k-th singular stratum at p, as an array of unboxed entries of dtype
    ``_dtype(p.field)``, zero where empty.

    Rows are indexed by pairs (slot subset S with |S| = m-k+1, top-degree
    basis mask); columns by (slot, degree-r basis mask).  For each S the
    condition is the vanishing of the eps-coefficient of the ordered wedge
    over S of (w_s + eps*t_s); the block of columns for slot i inside S is
    (+-1) times the matrix of t |-> t ^ w_{S - i}, the sign coming from
    moving t_i to the front across blocks of degree r.
    """
    r, m, n, field = p.r, p.m, p.n, p.field
    ncols_slot = len(lex_masks(n, r))
    cols_total = m * ncols_slot
    zero, dtype = field.unbox(field.zero()), _dtype(field)
    if k == 0:
        return np.full((0, cols_total), zero, dtype=dtype)
    if not 1 <= k <= m - 1:
        raise ValueError("singularity order must be in 0..m-1")
    ssize = m - k + 1
    # Multiplicity at least k means the level of size ssize is all zero.
    memo = _SlotWedges(p.slots)
    if not all(memo[smask].is_zero for smask in _masks(m, ssize)):
        raise ValueError("point does not lie on the k-th singular stratum")
    rows_per_block = len(lex_masks(n, r * ssize))
    subsets = list(itertools.combinations(range(m), ssize))
    A = np.full((len(subsets) * rows_per_block, cols_total), zero, dtype=dtype)
    for b, (S, smask) in enumerate(zip(subsets, _masks(m, ssize))):
        rows = slice(b * rows_per_block, (b + 1) * rows_per_block)
        for pos, i in enumerate(S):
            # Substituting t_i in place inside the ordered wedge over S equals
            # (-1)^(r*(pos + |S| - 1)) times u ^ t_i with u = w_{S - i}.
            sign = -1 if (r * (pos + ssize - 1)) & 1 else 1
            cols = slice(i * ncols_slot, (i + 1) * ncols_slot)
            A[rows, cols] = _wedge_array(memo[smask ^ (1 << i)], r, sign)
    return A


def tangent_codim(p: PointTuple, k: int) -> int:
    """Codimension of the tangent space to the k-th singular stratum at p,
    i.e. the rank of its defining linear system: C(m, m-k+1) * C(rm,
    r(m-k+1)) rows and m * C(rm, r) columns, filled and ranked unboxed."""
    return _rank(_tangent_array(p, k), p.field)


def diagonal_multiplicity(w: ExteriorVector) -> int:
    """Multiplicity of the divisor at the diagonal point of w, from powers
    of w alone: the largest k with w^(m-k+1) = 0."""
    if w.is_zero:
        raise ValueError("zero vector")
    r, n = w.degree, w.n
    if r == 0 or n % r:
        raise ValueError("ambient dimension must be a multiple of the degree")
    m = n // r
    power = w
    for j in range(2, m + 1):
        power = wedge(power, w)
        if power.is_zero:
            return m - j + 1
    return 0


def diagonal_tangent_codim(w: ExteriorVector, m: int) -> int:
    """Codimension of the tangent space to the deepest singular stratum at the
    diagonal point (w, ..., w), through the Kronecker factorization of its
    tangent system.  Equals ``tangent_codim(PointTuple.diagonal(w, m), m - 1)``.

    Lemma.  Let M be the matrix of t |-> w ^ t on wedge^r(V), lex bases on
    both sides, and let B be the C(m,2) x m matrix with rows indexed by the
    slot pairs S = {i < j} in lex order, B[S, i] = (-1)^r, B[S, j] = 1 and
    zeros elsewhere.  Then the tangent system of ``tangent_codim`` at the
    diagonal point and k = m - 1 is B (x) M, so its rank is rank(B) *
    rank(M) over any field.

    Proof.  At k = m - 1 the slot subsets have size 2.  The point stores the
    normalized c*w in every slot, so the block of subset S and slot i is
    (-1)^(r*(pos+1)) times the matrix of t |-> c*w ^ t, with pos the position
    of i in S: (-1)^r c*M for i, c*M for j, zero for the other slots.  The
    common scalar c does not change the rank, so the system is B (x) M.  Pick
    invertible P, Q, P', Q' with P B Q = diag(I_a, 0) and P' M Q' =
    diag(I_b, 0).  Then (P (x) P') (B (x) M) (Q (x) Q') = (P B Q) (x) (P' M Q')
    has exactly a*b nonzero entries, in distinct rows and columns, and
    P (x) P' and Q (x) Q' are invertible; so rank(B (x) M) = a*b.

    rank(B) is computed in w's field, never from a closed form: for odd r, B
    is the oriented incidence matrix of the complete graph, of rank m - 1;
    for even r it is the unsigned one, of rank m in characteristic other
    than 2 (m >= 3), but m - 1 over F_2.

    The point must lie on the stratum: w ^ w = 0.  For odd r that holds in
    every characteristic, because the terms of w ^ w cancel in pairs
    (e_I ^ e_J = -e_J ^ e_I), so only even r needs the square.
    """
    if w.is_zero:
        raise ValueError("zero vector")
    r = w.degree
    if m < 2 or w.n != r * m:
        raise ValueError("need m >= 2 and ambient dimension degree * m")
    if r % 2 == 0 and not wedge(w, w).is_zero:
        raise ValueError("diagonal point does not lie on the deepest singular stratum")
    return _diagonal_kronecker_codim(w, m)


def _diagonal_kronecker_codim(w: ExteriorVector, m: int) -> int:
    """rank(B) * ``wedge_rank(w, r)`` for a w known to satisfy w ^ w = 0."""
    return _slot_pair_rank(w.degree % 2, m, w.field) * wedge_rank(w, w.degree)


@lru_cache(maxsize=None)
def _slot_pair_rank(r_parity: int, m: int, field: Field) -> int:
    """Rank of the signed slot-pair/slot incidence matrix B of
    :func:`diagonal_tangent_codim`."""
    one, lead = field.unbox(field.one()), field.unbox(field.from_int(-1 if r_parity else 1))
    rows = []
    for i, j in itertools.combinations(range(m), 2):
        row = [0] * m
        row[i], row[j] = lead, one
        rows.append(row)
    return _rank(rows, field)
