"""Reference routes that the tests compare the library against.

Each one boxes what the library keeps unboxed, or takes the long way round
that the library avoids: the boxed wedge-multiplication matrix and the
boxed tangent system are the references for ``wedge_rank`` and the
Kronecker route of ``diagonal_tangent_codim``; ``mat_rank`` ranks a boxed
matrix through the library's one rank entry, so the row loop
``_eliminate`` (fraction-free over Q) and the array kernel ``rank_mod_p``
(over F_p) can be checked against each other on the same integer matrix;
``loop_rank_mod_p`` is the unblocked, one-pivot-at-a-time Gaussian
elimination that ``rank_mod_p`` ran before it was blocked into panels;
``reference_wedge`` signs each pair of index tuples by counting the
inversions of their concatenation, and ``reference_top_wedge`` folds it over
the slots of a top wedge; ``reference_wedge_gather`` builds the wedge's index
table by scanning every pair of masks and sorting the disjoint ones by
output coordinate; ``evaluation_matrix`` sums each section's boxed terms
c u^a v^(d - a) at each point, straight from ``pair.sections``;
``reference_multiplicity`` folds ``wedge`` over every slot subset, with no
memo and no early exit.  None of them is part of the package's API.
"""

from __future__ import annotations

import itertools
import math
import random
from typing import Sequence

import numpy as np

from pluckerlab.bundle_pairs_p1 import BundlePairP1, P1Point
from pluckerlab.exterior import (
    ExteriorVector,
    MultiIndex,
    _lex_position,
    _odd_above,
    _wedge_array,
    lex_masks,
    wedge,
)
from pluckerlab.plucker_form import PointTuple, _tangent_array
from pluckerlab.scalars import (
    DenseMatrix,
    Field,
    Scalar,
    _boxed,
    _rank,
    _residue_dtype,
    _unboxed_rows,
)


def rows_of(M: DenseMatrix) -> list[tuple]:
    """The rows of M, in order."""
    return [M.entries[i : i + M.cols] for i in range(0, M.rows * M.cols, M.cols)]


def transpose(M: DenseMatrix) -> DenseMatrix:
    return DenseMatrix.from_rows(list(zip(*rows_of(M))))


def mat_rank(M: DenseMatrix) -> int:
    """Exact rank of a boxed matrix over its coefficient field."""
    if M.rows == 0 or M.cols == 0:
        return 0
    field, rows = _unboxed_rows(M)
    return _rank(rows, field)


def loop_rank_mod_p(A: np.ndarray, p: int) -> int:
    """Rank over F_p of an array of residues in [0, p) with dtype
    ``_residue_dtype(p)``, by Gaussian elimination that overwrites A.

    Any other dtype, or an entry outside [0, p), is refused: int64
    arithmetic on arrays wraps around without a warning, so the dtype and
    the range are what keep every product of two residues exact.  It
    reduces with plain ``%``, not the kernel's ``_mod_p``, so a fault in
    that reduction cannot hide in the reference as well.
    """
    dtype = np.dtype(_residue_dtype(p))
    if A.dtype != dtype:
        raise ValueError(f"residues mod {p} need dtype {dtype}, not {A.dtype}")
    if A.size and (A.min() < 0 or A.max() >= p):
        raise ValueError(f"entries must be residues in [0, {p})")
    m, n = A.shape
    r = 0
    for c in range(n):
        if r == m:
            break
        nz = np.nonzero(A[r:, c])[0]
        if nz.size == 0:
            continue
        piv = r + int(nz[0])
        if piv != r:
            A[[r, piv]] = A[[piv, r]]
        inv = pow(int(A[r, c]), -1, p)
        A[r, c:] = A[r, c:] * inv % p
        below = A[r + 1 :, c]
        nzb = np.nonzero(below)[0]
        if nzb.size:
            f = below[nzb]
            A[r + 1 + nzb, c:] = (A[r + 1 + nzb, c:] - np.outer(f, A[r, c:])) % p
        r += 1
    return r


def inversions(seq) -> int:
    """Number of pairs out of order in seq."""
    return sum(1 for i, j in itertools.combinations(range(len(seq)), 2) if seq[i] > seq[j])


def reference_wedge(u: ExteriorVector, v: ExteriorVector) -> ExteriorVector:
    """Wedge from index tuples: the sign of e_I ^ e_J is the parity of the
    inversions of the concatenation I + J, with no masks and no tables."""
    field, n = u.field, u.n
    acc = {}
    for I, cu in ((MultiIndex(m, n).indices, c) for m, c in u.terms.items()):
        for J, cv in ((MultiIndex(m, n).indices, c) for m, c in v.terms.items()):
            if set(I) & set(J):
                continue
            c = cu * cv
            if inversions(I + J) % 2:
                c = -c
            K = tuple(sorted(I + J))
            acc[K] = acc[K] + c if K in acc else c
    out = ExteriorVector.zero(n, u.degree + v.degree, field)
    for K, c in acc.items():
        out = out + ExteriorVector.basis(n, K, field).scale(c)
    return out


def reference_top_wedge(slots: Sequence[ExteriorVector]) -> Scalar:
    """Coefficient of e_{1..n} in the ordered wedge of the slots, folded
    left to right by :func:`reference_wedge`."""
    acc = slots[0]
    for v in slots[1:]:
        acc = reference_wedge(acc, v)
    return acc.coefficient((1 << acc.n) - 1)


def reference_wedge_gather(n: int, a: int, b: int) -> tuple[np.ndarray, ...]:
    """``exterior._wedge_gather(n, a, b)`` the long way: scan all C(n, a) *
    C(n, b) pairs of a degree-a mask I and a degree-b mask J, keep the
    disjoint ones with the output coordinate of I | J, the positions of I
    and J and the sign off ``_odd_above(I)``, and sort them by output
    coordinate with a stable argsort, so each row lists I in lex order."""
    out_pos = _lex_position(n, a + b)
    rows = [
        (out_pos[mu | mv], i, j, 1 - 2 * ((mv & _odd_above(mu)).bit_count() & 1))
        for i, mu in enumerate(lex_masks(n, a))
        for j, mv in enumerate(lex_masks(n, b))
        if not mu & mv
    ]
    out, u_at, v_at, sign = np.array(rows, dtype=np.int64).reshape(-1, 4).T
    order = np.argsort(out, kind="stable")
    shape = (-1, math.comb(a + b, a))
    return tuple(t[order].reshape(shape) for t in (u_at, v_at, sign))


def mat_vec(M: DenseMatrix, v: Sequence[Scalar]) -> list[Scalar]:
    """M v on boxed scalars."""
    if len(v) != M.cols:
        raise ValueError("dimension mismatch")
    return [sum(x * y for x, y in zip(row, v)) for row in rows_of(M)]


def random_matrix(rows: int, cols: int, field: Field, rng: random.Random) -> DenseMatrix:
    """A rows x cols matrix of ``field.sample`` draws, row-major."""
    return DenseMatrix(rows, cols, tuple(field.sample(rng) for _ in range(rows * cols)))


def wedge_matrix(u: ExteriorVector, s: int) -> DenseMatrix:
    """Boxed matrix of t |-> u ^ t on wedge^s(V), in lex bases on both sides."""
    return _boxed(_wedge_array(u, s), u.field)


def build_tangent_system(p: PointTuple, k: int) -> DenseMatrix:
    """Boxed tangent system of the k-th singular stratum at p, the matrix
    that ``tangent_codim`` ranks."""
    return _boxed(_tangent_array(p, k), p.field)


def reference_multiplicity(p: PointTuple) -> int:
    """Multiplicity of the form's zero divisor at p, straight from its
    definition: the largest k in 0..m with the ordered wedge of the slots in
    S zero for every S of size m - k + 1, each wedge folded left to right
    from the slots alone."""
    m = p.m
    zero_at = {size: True for size in range(1, m + 2)}
    for size in range(1, m + 1):
        for S in itertools.combinations(range(m), size):
            acc = p.slots[S[0]]
            for i in S[1:]:
                acc = wedge(acc, p.slots[i])
            zero_at[size] = zero_at[size] and acc.is_zero
    return max(k for k in range(m + 1) if zero_at[m - k + 1])


def evaluation_matrix(pair: BundlePairP1, points: Sequence[P1Point]) -> DenseMatrix:
    """Boxed rm x rm matrix: one row per section, an r-column block per
    point.  Entry (s, i*r + j) is component j of section s at point i,
    sum_a c_a u^a v^(d_j - a) in boxed field arithmetic, read off
    ``pair.sections`` and not off the terms the kernel keeps unboxed."""
    if len(points) != pair.m:
        raise ValueError(f"need {pair.m} points")
    zero = pair.field.zero()
    rows = [
        [
            sum((c * pt.u**a * pt.v ** (len(form) - 1 - a) for a, c in enumerate(form)), zero)
            for pt in points
            for form in section
        ]
        for section in pair.sections
    ]
    return DenseMatrix.from_rows(rows)


def change_basis(pair: BundlePairP1, G: DenseMatrix) -> BundlePairP1:
    """The pair with its section basis replaced by G applied to it: row i of
    G gives new section i as a combination of the old sections."""
    rm = pair.r * pair.m
    if G.rows != rm or G.cols != rm:
        raise ValueError(f"basis change must be {rm} x {rm}")
    flat = [[c for f in section for c in f] for section in pair.sections]
    columns = DenseMatrix.from_rows(list(zip(*flat)))
    ends = list(itertools.accumulate(d + 1 for d in pair.splitting))
    new_sections = []
    for g in rows_of(G):
        row = mat_vec(columns, g)
        new_sections.append(tuple(tuple(row[e - d - 1 : e]) for d, e in zip(pair.splitting, ends)))
    return BundlePairP1(pair.r, pair.m, pair.splitting, tuple(new_sections), pair.field)


def from_coefficients(
    n: int, degree: int, coeffs: Sequence[Scalar], field: Field
) -> ExteriorVector:
    """The vector of this degree with the given coefficients, in lex basis
    order."""
    masks = lex_masks(n, degree)
    if len(coeffs) != len(masks):
        raise ValueError("coefficient count mismatch")
    return ExteriorVector(n, degree, dict(zip(masks, coeffs)), field)


def coefficient_vector(u: ExteriorVector) -> list[Scalar]:
    """u's boxed coefficients in the lex basis order of its degree."""
    return [u.coefficient(m) for m in lex_masks(u.n, u.degree)]
