"""Reference routes that the tests compare the library against.

Each one boxes what the library keeps unboxed, or takes the long way round
that the library avoids: the boxed wedge-multiplication matrix and the
boxed tangent system are the references for ``wedge_rank`` and the
Kronecker route of ``diagonal_tangent_codim``; ``mat_rank`` ranks a boxed
matrix through the library's one rank entry, so the row loop
``_eliminate`` (fraction-free over Q) and the array kernel ``rank_mod_p``
(over F_p) can be checked against each other on the same integer matrix.
None of them is part of the package's API.
"""

from __future__ import annotations

import itertools
import random
from typing import Sequence

from pluckerlab.bundle_pairs_p1 import BundlePairP1, P1Point, _section_values
from pluckerlab.exterior import ExteriorVector, _wedge_array, lex_masks
from pluckerlab.plucker_form import PointTuple, _tangent_array
from pluckerlab.scalars import DenseMatrix, Field, Scalar, _boxed, _rank, _unboxed_rows


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


def evaluation_matrix(pair: BundlePairP1, points: Sequence[P1Point]) -> DenseMatrix:
    """Boxed rm x rm matrix: one row per section, an r-column block per point."""
    if len(points) != pair.m:
        raise ValueError(f"need {pair.m} points")
    return _boxed(_section_values(pair, points), pair.field)


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
