"""Split bundle pairs on the projective line and their determinant divisors.

A pair is a splitting type (d_1, ..., d_r) with sum r*(m-1) together with the
complete monomial section basis: component i carries the forms u^a v^(d_i-a).
Binary forms are coefficient tuples; points of the line are stored with the
canonical representative (u, 1), or (1, 0) at infinity.  Every evaluation of
a section at a point goes through one kernel, :func:`_section_values`, which
takes the monomial values u^a v^(d-a) once per point and degree and adds
each nonzero term of each section into the value matrix: row i*r + j holds
component j at point i, one column per section, reduced mod p.

The kernel works on unboxed coefficients (ints mod p, or Fractions) from the
terms a pair stores, and the matrix is read in one layout.  At m points it
is the classifying rows stacked: ``divisor_value`` passes it straight to
``scalars._det``, the determinant of the one row-elimination loop
(``scalars._eliminate``, whose residue update touches only the pivot row's
nonzeros), and ``two_point_surjectivity`` ranks it at two points.  At one
point it is the r x rm matrix whose row space is the classifying map's
image: ``classify_point`` hands it to ``exterior._wedge_rows``, the Plucker
vector of a matrix that ``grassmann.plucker_embed`` also uses: the rows
become dense vectors and fold by gathers, so the image is born dense, and
the fused top step of ``top_wedge_coefficient`` and ``span_dimension``,
which ranks the points' dense vectors, read it as it is.  Only returned
scalars are boxed.

The determinant of binary forms is expanded symbolically by one Leibniz fold,
:func:`_leibniz`, on the same unboxed terms: at one point it gives the
determinant map d_E, at m points the coefficient tensor of the symbolic
witness.  It never evaluates a section, so both stay checks independent of
``_section_values``.  d_E is built once per pair and cached unboxed,
:func:`_det_map_rows`: ``det_map_rank`` ranks it as it is, ``lambda_image``
multiplies it by the unboxed functional, and only ``det_map_matrix`` boxes it.

Every search for a sampled point tuple at which the determinant is nonzero
(``has_plucker_form``, the fit of ``diagonal_factor_check`` and the
p1-no-form suite) is one loop, :func:`_first_nonzero_sample`.

The determinant divisor is the vanishing of the determinant of the m-point
evaluation matrix.  On the line it factors as a constant times the r-th power
of the pairwise-difference product; both the sampled and the fully symbolic
verification of that identity live here.
"""

from __future__ import annotations

import dataclasses
import itertools
import random
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Sequence

import numpy as np

from .exterior import ExteriorVector, _dense_vector, _wedge_rows, lex_masks
from .scalars import (
    DEFAULT_PRIME,
    DenseMatrix,
    Field,
    PrimeField,
    Scalar,
    _boxed,
    _det,
    _modulus,
    _rank,
    field_from_name,
    field_of,
)

@dataclass(frozen=True)
class P1Point:
    """Point of the projective line, canonical representative fixed."""

    u: Scalar
    v: Scalar

    @classmethod
    def of(cls, u: Scalar, v: Scalar) -> "P1Point":
        if v:
            one = v / v
            return cls(u / v, one)
        if not u:
            raise ValueError("(0, 0) is not a point")
        return cls(u / u, v)

    @classmethod
    def affine(cls, x: Scalar) -> "P1Point":
        return cls.of(x, field_of(x).one())

    @classmethod
    def infinity(cls, field: Field) -> "P1Point":
        return cls(field.one(), field.zero())


def _monomials(pt: P1Point, d: int, field: Field) -> list:
    """Unboxed values of the monomials u^a v^(d-a) at pt, a ascending."""
    u, v, p = field.unbox(pt.u), field.unbox(pt.v), _modulus(field)
    if p is None:
        return [u**a * v ** (d - a) for a in range(d + 1)]
    return [pow(u, a, p) * pow(v, d - a, p) % p for a in range(d + 1)]


@dataclass(frozen=True)
class BundlePairP1:
    """Split bundle with its full monomial-coordinate section space."""

    r: int
    m: int
    splitting: tuple
    sections: tuple
    field: Field
    # Per section, its nonzero terms unboxed: (component j, exponent a, c).
    terms: tuple = dataclasses.field(init=False, repr=False, compare=False)

    def __post_init__(self):
        r, rm, splitting = self.r, self.r * self.m, self.splitting
        if len(splitting) != r:
            raise ValueError(f"splitting must have {r} degrees, got {len(splitting)}")
        if sum(splitting) != r * (self.m - 1):
            raise ValueError(f"splitting must sum to {r * (self.m - 1)}, got {sum(splitting)}")
        if any(d < 0 for d in splitting):
            raise ValueError("negative summand: the section space falls short of dimension r*m")
        if len(self.sections) != rm:
            raise ValueError(f"need {rm} sections, got {len(self.sections)}")
        unbox = self.field.unbox
        terms, rows = [], []
        for section in self.sections:
            if len(section) != r:
                raise ValueError(f"each section needs {r} components")
            if any(len(f) != d + 1 for f, d in zip(section, splitting)):
                raise ValueError("component length must be its splitting degree plus one")
            forms = [[unbox(c) for c in f] for f in section]
            nonzero = ((j, a, c) for j, f in enumerate(forms) for a, c in enumerate(f) if c)
            terms.append(tuple(nonzero))
            rows.append([c for f in forms for c in f])
        object.__setattr__(self, "terms", tuple(terms))
        if _rank(rows, self.field) != rm:
            raise ValueError("sections are linearly dependent")


@dataclass(frozen=True)
class DivisorReport:
    """Outcome of the diagonal-factorization identity check."""

    constant_c: Optional[Scalar]
    trials: int
    all_matched: bool


def make_pair(
    splitting: Sequence[int], m: int, field: Field = PrimeField(DEFAULT_PRIME)
) -> BundlePairP1:
    """Complete monomial pair for a splitting type summing to r*(m-1)."""
    splitting = tuple(splitting)
    if m < 2:
        raise ValueError("need m >= 2")
    zero, one = field.zero(), field.one()
    sections = tuple(
        tuple(
            tuple(one if (j, b) == (i, a) else zero for b in range(dj + 1))
            for j, dj in enumerate(splitting)
        )
        for i, d in enumerate(splitting)
        for a in range(d + 1)
    )
    return BundlePairP1(len(splitting), m, splitting, sections, field)


def is_balanced(pair: BundlePairP1) -> bool:
    return all(d == pair.m - 1 for d in pair.splitting)


def _section_values(pair: BundlePairP1, points: Sequence[P1Point]) -> list[list]:
    """The value matrix: row i*r + j holds component j at point i, one
    column per section, unboxed (residues in [0, p), or Fractions).  Each
    section's nonzero terms c u^a v^(d_j - a) are added in, with the
    monomial values taken once per point and degree; several terms of one
    section may share a component.  Only the entries a term adds to are
    reduced; the rest stay zero."""
    field, r, p = pair.field, pair.r, _modulus(pair.field)
    zero = field.unbox(field.zero())
    rows = [[zero] * len(pair.terms) for _ in range(r * len(points))]
    for base, pt in zip(range(0, r * len(points), r), points):
        table = {d: _monomials(pt, d, field) for d in set(pair.splitting)}
        at = [table[d] for d in pair.splitting]
        for s, terms in enumerate(pair.terms):
            for j, a, c in terms:
                row = rows[base + j]
                x = row[s] + c * at[j][a]
                row[s] = x if p is None else x % p
    return rows


def divisor_value(pair: BundlePairP1, points: Sequence[P1Point]) -> Scalar:
    """Value at the chosen representatives of the multihomogeneous form
    cutting the determinant divisor."""
    if len(points) != pair.m:
        raise ValueError(f"need {pair.m} points")
    return _det(_section_values(pair, points), pair.field)


def sample_affine_point(field: Field, rng: random.Random) -> P1Point:
    return P1Point.affine(field.sample(rng))


def sample_points(pair_m: int, field: Field, rng: random.Random) -> list[P1Point]:
    return [sample_affine_point(field, rng) for _ in range(pair_m)]


def sample_distinct_points(
    count: int, field: Field, rng: random.Random
) -> list[P1Point]:
    """`count` distinct affine points; refused when the field has fewer."""
    p = _modulus(field)
    if p is not None and count > p:
        raise ValueError(f"F_{p} has fewer than {count} affine points")
    pts: list[P1Point] = []
    seen = set()
    while len(pts) < count:
        p = sample_affine_point(field, rng)
        if p.u not in seen:
            seen.add(p.u)
            pts.append(p)
    return pts


def _first_nonzero_sample(pair: BundlePairP1, trials: int, rng: random.Random):
    """The first of up to `trials` sampled tuples of m distinct points at
    which the determinant is nonzero, as (trial, points, value); None when
    it reads zero at every one.  A repeated point would make every
    determinant zero, so the points are distinct."""
    for trial in range(trials):
        pts = sample_distinct_points(pair.m, pair.field, rng)
        value = divisor_value(pair, pts)
        if value:
            return trial, pts, value
    return None


def has_plucker_form(pair: BundlePairP1, trials: int, seed: int) -> bool:
    """Randomized test for non-degeneracy of the evaluation determinant.

    True as soon as one sampled tuple of distinct points gives a nonzero
    value; over a large prime field the chance that a nonzero form
    evaluates to zero at all `trials` samples is at most
    (total degree / p)^trials.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    return _first_nonzero_sample(pair, trials, random.Random(seed)) is not None


def pairwise_product(points: Sequence[P1Point], power: int, field: Field) -> Scalar:
    """Product over i < j of (u_i v_j - u_j v_i)^power."""
    total = field.one()
    for i in range(len(points)):
        for j in range(i + 1, len(points)):
            d = points[i].u * points[j].v - points[j].u * points[i].v
            total = total * d**power
    return total


def diagonal_factor_check(pair: BundlePairP1, trials: int, seed: int) -> DivisorReport:
    """Fit det = c * prod_{i<j}(u_i v_j - u_j v_i)^r at one generic sample and
    verify the identity exactly at `trials` further samples.

    For a balanced splitting the value is additionally matched against the
    r-th power of the rank-one divisor, up to a second fitted constant.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    field = pair.field
    rng = random.Random(seed)
    first = _first_nonzero_sample(pair, 32, rng)
    if first is None:
        raise ValueError("degenerate pair: the determinant vanishes identically")
    _, pts, det0 = first
    c = det0 / pairwise_product(pts, pair.r, field)
    balanced = is_balanced(pair)
    base = None
    c_power = None
    if balanced and pair.r > 1:
        base = make_pair((pair.m - 1,), pair.m, field)
        c_power = det0 / divisor_value(base, pts) ** pair.r
    all_matched = True
    for _ in range(trials):
        pts = sample_distinct_points(pair.m, field, rng)
        det = divisor_value(pair, pts)
        ok = det == c * pairwise_product(pts, pair.r, field)
        if ok and base is not None:
            ok = det == c_power * divisor_value(base, pts) ** pair.r
        if not ok:
            all_matched = False
            break
    return DivisorReport(c, trials, all_matched)


def _leibniz(rows: Sequence[tuple], r: int, points: int, p) -> dict:
    """Leibniz expansion of the determinant whose row k is the section with
    unboxed terms ``rows[k]`` at `points` symbolic points, column i*r + j
    holding component j at point i: the transpose of the value matrix of
    :func:`_section_values`, which has the same determinant.

    The rows are placed one at a time; the state maps (mask of used columns,
    u-exponent per point) to a coefficient, and a term placed in a column
    with an odd number of used columns above it is negated.  Returns the
    nonzero coefficients of the full placement by u-exponent tuple: reduced
    mod p, or Fractions when p is None."""
    acc = {(0, (0,) * points): 1}
    for terms in rows:
        nxt: dict = {}
        for (mask, exps), x in acc.items():
            for j, a, c in terms:
                for i in range(points):
                    col = i * r + j
                    if mask >> col & 1:
                        continue
                    key = (mask | 1 << col, exps[:i] + (exps[i] + a,) + exps[i + 1 :])
                    y = -x * c if (mask >> col).bit_count() & 1 else x * c
                    nxt[key] = nxt.get(key, 0) + y
        if p is not None:
            nxt = {k: x % p for k, x in nxt.items()}
        acc = {k: x for k, x in nxt.items() if x}
    return {exps: x for (_, exps), x in acc.items()}


# lambda_image needs this matrix for every functional it maps, so it is
# cached per pair; few pairs are in use at once, hence the small bound.  The
# rows are tuples because every caller shares them.
@lru_cache(maxsize=8)
def _det_map_rows(pair: BundlePairP1) -> tuple[tuple, ...]:
    """Unboxed rows of the determinant map (residues in [0, p), or
    Fractions), laid out as in :func:`det_map_matrix`."""
    field, r, p = pair.field, pair.r, _modulus(pair.field)
    combos = list(itertools.combinations(pair.terms, r))
    zero = field.unbox(field.zero())
    rows = [[zero] * len(combos) for _ in range(r * (pair.m - 1) + 1)]
    for cidx, comb in enumerate(combos):
        for (a,), c in _leibniz(comb, r, 1, p).items():
            rows[a][cidx] = c
    return tuple(map(tuple, rows))


def det_map_matrix(pair: BundlePairP1) -> DenseMatrix:
    """Matrix of the determinant map from wedges of sections to forms.

    Columns follow the lex wedge basis on section indices; rows are the
    monomial basis u^a v^(D-a) of degree D = r(m-1) forms, a ascending.
    """
    return _boxed(_det_map_rows(pair), pair.field)


def det_map_rank(pair: BundlePairP1) -> int:
    return _rank(_det_map_rows(pair), pair.field)


def classify_point(pair: BundlePairP1, x: P1Point) -> ExteriorVector:
    """Plucker vector of the row space of the r x rm section-value matrix
    at x, :func:`_section_values` at the one point: the image of the point
    under the classifying map, with coordinates the r x r minors
    (:func:`pluckerlab.exterior._wedge_rows`).  Row j holds each section's
    component-j value at its column; the fold gathers on the rows as dense
    vectors, so the image is born dense."""
    vec = _wedge_rows(_section_values(pair, [x]), pair.r * pair.m, pair.field)
    if vec.is_zero:
        raise ValueError("evaluation drops rank: not globally generated here")
    return vec


def lambda_image(pair: BundlePairP1, functional: Sequence[Scalar]) -> ExteriorVector:
    """Transpose of the determinant map applied to a linear functional on
    degree r(m-1) forms, read in the wedge basis dual to the sections."""
    D, field, p = pair.r * (pair.m - 1), pair.field, _modulus(pair.field)
    if len(functional) != D + 1:
        raise ValueError(f"functional must have {D + 1} coefficients")
    f = [field.unbox(c) for c in functional]
    coeffs = {}
    for mask, col in zip(lex_masks(pair.r * pair.m, pair.r), zip(*_det_map_rows(pair))):
        c = sum(x * y for x, y in zip(col, f) if x)  # the map is mostly zeros
        if p is not None:
            c %= p
        if c:
            coeffs[mask] = c
    if not coeffs:
        raise ValueError("functional annihilates the image: indeterminacy point")
    return ExteriorVector._trusted(pair.r * pair.m, pair.r, coeffs, field)


def evaluation_functional(pair: BundlePairP1, x: P1Point) -> list[Scalar]:
    """Coefficients of 'evaluate a degree r(m-1) form at x' in the monomial
    dual basis."""
    return list(map(pair.field.box, _monomials(x, pair.r * (pair.m - 1), pair.field)))


def span_dimension(pair: BundlePairP1, samples: int, seed: int) -> int:
    """Rank of the matrix of classifying-map images at `samples` distinct
    random points; refused once every affine point has been tried."""
    masks = lex_masks(pair.r * pair.m, pair.r)
    if samples < len(masks):
        raise ValueError(f"need at least {len(masks)} samples")
    rng = random.Random(seed)
    rows = []
    seen = set()
    while len(rows) < samples:
        if len(seen) == _modulus(pair.field):
            raise ValueError(f"F_{pair.field.p} has fewer than {samples} usable points")
        x = sample_affine_point(pair.field, rng)
        if x.u in seen:
            continue
        seen.add(x.u)
        try:
            vec = classify_point(pair, x)
        except ValueError:
            continue
        # x / d: scaling a row by d leaves the rank as it is.
        rows.append(_dense_vector(vec)[0])
    return _rank(np.array(rows), pair.field)


def two_point_surjectivity(pair: BundlePairP1, x: P1Point, y: P1Point) -> bool:
    """Whether sections evaluated at two distinct points fill both fibers."""
    if x == y:
        raise ValueError("points must be distinct")
    rows = _section_values(pair, (x, y))
    return _rank(rows, pair.field) == 2 * pair.r


# -- symbolic second witness -------------------------------------------------


def divisor_coefficient_tensor(pair: BundlePairP1) -> dict:
    """Full symbolic expansion of the evaluation determinant.

    Keys are tuples (a_1, ..., a_m) of u-exponents, one per point; the
    v-exponent at point i is r(m-1) - a_i by multihomogeneity.  Refused for
    rm > 7: the p1-divisor suite runs the witness exactly when rm <= 7, and
    that limit is its contract rather than a bound on the cost."""
    rm = pair.r * pair.m
    if rm > 7:
        raise ValueError("symbolic expansion is limited to rm <= 7")
    tensor = _leibniz(pair.terms, pair.r, pair.m, _modulus(pair.field))
    return {key: pair.field.box(c) for key, c in tensor.items()}


def diagonal_power_tensor(r: int, m: int, field: Field) -> dict:
    """Symbolic expansion of prod_{i<j} (u_i v_j - u_j v_i)^r with the same
    u-exponent keys as :func:`divisor_coefficient_tensor`."""
    acc = {(0,) * m: field.one()}
    for i, j in itertools.combinations(range(m), 2):
        for _ in range(r):
            new: dict = {}
            for key, c in acc.items():
                for idx, val in ((i, c), (j, -c)):
                    k2 = key[:idx] + (key[idx] + 1,) + key[idx + 1 :]
                    new[k2] = new[k2] + val if k2 in new else val
            acc = {k: c for k, c in new.items() if c}
    return acc


def symbolic_diagonal_witness(pair: BundlePairP1):
    """Exact polynomial identity det = c * (pairwise product)^r, checked on
    full coefficient tensors.  Returns (holds, c)."""
    div = divisor_coefficient_tensor(pair)
    diag = diagonal_power_tensor(pair.r, pair.m, pair.field)
    key = sorted(diag)[0]  # an identically vanishing divisor lacks it too
    if key not in div:
        return False, None
    c = div[key] / diag[key]
    zero = pair.field.zero()
    for k in set(div) | set(diag):
        if div.get(k, zero) != c * diag.get(k, zero):
            return False, c
    return True, c


# -- serialization ------------------------------------------------------------


def pair_to_json(pair: BundlePairP1) -> dict:
    data = {
        "r": pair.r,
        "m": pair.m,
        "splitting": list(pair.splitting),
        "field": pair.field.name,
    }
    if isinstance(pair.field, PrimeField):
        data["prime"] = pair.field.p
    return data


def pair_from_json(data: dict) -> BundlePairP1:
    missing = [k for k in ("field", "splitting", "m") if k not in data]
    if missing:
        raise ValueError(f"record lacks {', '.join(missing)}")
    field = field_from_name(data["field"], data.get("prime", DEFAULT_PRIME))
    splitting, m = data["splitting"], data["m"]
    if type(m) is not int or type(splitting) is not list or any(type(d) is not int for d in splitting):
        raise ValueError("m must be an integer and splitting a list of integers")
    if data.get("r") is not None and data["r"] != len(splitting):
        raise ValueError("rank does not match the splitting length")
    return make_pair(tuple(splitting), m, field)
