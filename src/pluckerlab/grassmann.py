"""Decomposability criteria, diagonal codimension thresholds, and the
reconstruction classifier for Grassmannian cone membership.

Two independent decomposability routes are kept side by side: the rank of
the wedge-multiplication map (``mu_rank``) and the classical contraction
relations (:func:`pluckerlab.exterior.plucker_relations_hold`).  The test
suite cross-asserts them; disagreement is a hard failure, never resolved by
preferring one side.
"""

from __future__ import annotations

import enum
import itertools
import math
import random
from dataclasses import dataclass
from typing import Optional, Sequence

from .exterior import ExteriorVector, _wedge_rows, wedge, wedge_rank
# tangent_codim stays importable from here: bench/tests reaches it as
# grassmann.tangent_codim.
from .plucker_form import (  # noqa: F401
    _diagonal_kronecker_codim,
    _slot_pair_rank,
    tangent_codim,
)
from .scalars import DenseMatrix, Field, Scalar, _unboxed_rows, mat_det


@dataclass(frozen=True)
class GrassPoint:
    """A point of the Grassmannian cone: a full-rank r x n matrix together
    with the wedge of its rows (whose coordinates are the r x r minors in
    column-subset order)."""

    r: int
    n: int
    basis_matrix: DenseMatrix
    plucker: ExteriorVector


def plucker_embed(A: DenseMatrix) -> GrassPoint:
    """Wedge of the rows of a full-rank r x n matrix: its C(n, r) coordinates
    are the r x r minors.  The unboxed rows go to
    :func:`pluckerlab.exterior._wedge_rows` as they are, which folds them as
    dense vectors by gathers, so the point is born dense, sparse rows too;
    only past its bound on table entries, as for a sparse 8 x 64 matrix,
    does each step take the route of ``wedge``."""
    r, n = A.rows, A.cols
    if not 0 < r <= n <= 64:
        raise ValueError("need 1 <= rows <= cols <= 64")
    field, rows = _unboxed_rows(A)
    vec = _wedge_rows(rows, n, field)
    if vec.is_zero:
        raise ValueError("matrix is rank deficient")
    return GrassPoint(r, n, A, vec)


def mu_rank(w: ExteriorVector, s: int) -> int:
    """Rank of the wedge-multiplication map t |-> w ^ t on degree-s vectors."""
    if w.is_zero:
        raise ValueError("zero vector")
    if s < 1:
        raise ValueError("s must be at least 1")
    if w.degree + s > w.n:
        raise ValueError("degree overflow")
    return wedge_rank(w, s)


def codim_threshold(r: int, m: int) -> int:
    """Minimal codimension of the tangent space to the deepest singular
    stratum at a diagonal point, attained exactly on the Grassmannian cone.

    Equals m * binom((m-1)r, r) for even r and (m-1) * binom((m-1)r, r) for
    odd r.  This is the value over a field of characteristic other than 2;
    :func:`field_codim_threshold` gives it over any field.  Requires m >= 3:
    at m = 2 every point of the stratum has codimension m - 1 = 1, which
    carries no membership information.
    """
    if m < 3:
        raise ValueError("threshold formula requires m >= 3")
    B = math.comb((m - 1) * r, r)
    return m * B if r % 2 == 0 else (m - 1) * B


def field_codim_threshold(r: int, m: int, field: Field) -> int:
    """The threshold of :func:`codim_threshold` over the given field:
    rank_F(B) * binom((m-1)r, r), with B the slot-pair/slot incidence matrix
    of :func:`pluckerlab.plucker_form.diagonal_tangent_codim`.

    It equals ``codim_threshold(r, m)`` unless r is even and the field has
    characteristic 2, where rank_F(B) is m - 1 instead of m.  A decomposable
    w has ``mu_rank(w, r) == binom((m-1)r, r)`` over every field, which
    gives the threshold.
    """
    if m < 3:
        raise ValueError("threshold formula requires m >= 3")
    return _slot_pair_rank(r % 2, m, field) * math.comb((m - 1) * r, r)


class Verdict(enum.Enum):
    IN_GRASSMANNIAN = "InGrassmannian"
    FAILS_MULTIPLICITY = "FailsMultiplicity"
    FAILS_TANGENT_BOUND = "FailsTangentBound"


@dataclass(frozen=True)
class ClassifierVerdict:
    tag: Verdict
    threshold: int
    observed_codim: Optional[int] = None

    def __post_init__(self):
        present = self.observed_codim is not None
        if present == (self.tag is Verdict.FAILS_MULTIPLICITY):
            raise ValueError(
                "observed_codim must be present exactly when the diagonal "
                "multiplicity test passes"
            )


def classify_membership(w: ExteriorVector, m: int) -> ClassifierVerdict:
    """Decide whether a nonzero degree-r vector lies on the Grassmannian
    cone, using only the divisor-side data of the diagonal point.

    First the diagonal multiplicity must reach m-1.  It does exactly when
    w ^ w = 0, which for odd r holds in every characteristic (see
    :func:`pluckerlab.plucker_form.diagonal_tangent_codim`), so only even r
    takes the square and discrimination for odd r happens entirely through
    the tangent bound.  In characteristic 2 the square of every w vanishes,
    so there too only the tangent bound discriminates.  Then the codimension
    of the tangent space at the deepest stratum, from the Kronecker
    factorization of its system, is compared with the threshold in w's field
    (:func:`field_codim_threshold`): equality characterizes membership.
    """
    if m < 3:
        raise ValueError("classification requires m >= 3")
    if w.is_zero:
        raise ValueError("zero vector")
    r = w.degree
    if w.n != r * m:
        raise ValueError("ambient dimension must equal degree * m")
    threshold = field_codim_threshold(r, m, w.field)
    if r % 2 == 0 and not wedge(w, w).is_zero:
        return ClassifierVerdict(Verdict.FAILS_MULTIPLICITY, threshold)
    c_o = _diagonal_kronecker_codim(w, m)
    if c_o == threshold:
        return ClassifierVerdict(Verdict.IN_GRASSMANNIAN, threshold, c_o)
    if c_o < threshold:
        raise AssertionError(
            f"observed codimension {c_o} below the provable minimum {threshold}"
        )
    return ClassifierVerdict(Verdict.FAILS_TANGENT_BOUND, threshold, c_o)


def ev_m_det(points: Sequence[GrassPoint]) -> Scalar:
    """Determinant of the stacked basis matrices of m subspace points.

    Zero exactly when the union of the subspaces lies in a hyperplane.
    """
    m = len(points)
    if m == 0:
        raise ValueError("empty tuple")
    r, n = points[0].r, points[0].n
    if n != r * m:
        raise ValueError("need n = r * m for a square evaluation matrix")
    if any(pt.r != r or pt.n != n for pt in points):
        raise ValueError("shape mismatch between points")
    entries = itertools.chain.from_iterable(pt.basis_matrix.entries for pt in points)
    return mat_det(DenseMatrix(n, n, tuple(entries)))


def _random_point(r: int, n: int, free: int, field: Field, rng: random.Random) -> GrassPoint:
    """Plucker point of a random full-rank r x n matrix whose columns after
    the first `free` are zero, drawn row by row and resampled while
    degenerate.  Refused when no such matrix exists, which would resample
    forever."""
    if not 0 < r <= free <= n <= 64:
        raise ValueError(f"no full-rank {r} x {n} matrix with {free} nonzero columns, n <= 64")
    zero = field.zero()
    while True:
        entries = (field.sample(rng) if j < free else zero for _ in range(r) for j in range(n))
        try:
            return plucker_embed(DenseMatrix(r, n, tuple(entries)))
        except ValueError:
            continue


def random_grass_point(
    r: int, n: int, field: Field, rng: random.Random
) -> GrassPoint:
    """Plucker point of a random full-rank r x n matrix (resampled if
    degenerate, which has negligible probability over a large field)."""
    return _random_point(r, n, n, field, rng)


def random_hyperplane_point(
    r: int, n: int, field: Field, rng: random.Random
) -> GrassPoint:
    """Plucker point of a random full-rank r x n matrix whose last column is
    zero, so that the subspace lies in the hyperplane x_n = 0 (resampled if
    degenerate)."""
    return _random_point(r, n, n - 1, field, rng)
