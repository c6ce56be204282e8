import math
import random

import pytest

from oracles import from_coefficients, mat_rank, random_matrix, rows_of, wedge_matrix
from pluckerlab.exterior import (
    ExteriorVector,
    plucker_relations_hold,
    random_exterior,
    top_wedge_coefficient,
    wedge,
)
from pluckerlab.grassmann import (
    ClassifierVerdict,
    Verdict,
    classify_membership,
    codim_threshold,
    ev_m_det,
    field_codim_threshold,
    mu_rank,
    plucker_embed,
    random_grass_point,
    random_hyperplane_point,
)
from pluckerlab.plucker_form import PointTuple, eval_form
from pluckerlab.scalars import DenseMatrix, QQ, PrimeField

F = PrimeField()


def basis(n, idx, field=QQ):
    return ExteriorVector.basis(n, idx, field)


def rows_matrix(rows, field=QQ):
    return DenseMatrix.from_rows([[field.from_int(x) for x in row] for row in rows])


# -- embedding -----------------------------------------------------------------


def test_embed_coordinate_rows():
    gp = plucker_embed(rows_matrix([[1, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0]]))
    assert gp.plucker == basis(6, (1, 2))


def test_embed_bilinear():
    gp = plucker_embed(rows_matrix([[1, 0, 0, 0, 0, 0], [0, 1, 1, 0, 0, 0]]))
    assert gp.plucker == basis(6, (1, 2)) + basis(6, (1, 3))


def test_embed_outputs_satisfy_relations():
    rng = random.Random(41)
    for _ in range(20):
        gp = random_grass_point(2, 6, F, rng)
        assert plucker_relations_hold(gp.plucker)
    for _ in range(5):
        gp = random_grass_point(3, 9, F, rng)
        assert plucker_relations_hold(gp.plucker)


def test_hyperplane_points_have_a_zero_last_column():
    rng = random.Random(45)
    for field in (F, PrimeField(2), QQ):
        gp = random_hyperplane_point(2, 6, field, rng)
        assert gp.basis_matrix.cols == 6
        assert not any(row[5] for row in rows_of(gp.basis_matrix))
        assert all(m < 1 << 5 for m in gp.plucker.terms)
        assert plucker_relations_hold(gp.plucker)


def _reference_random_point(r, n, free, field, rng):
    # The two resampling loops as they were written out before they shared
    # one: a random r x free matrix, padded with zero columns to n.
    while True:
        A = random_matrix(r, free, field, rng)
        rows = [list(row) + [field.zero()] * (n - free) for row in rows_of(A)]
        try:
            return plucker_embed(DenseMatrix.from_rows(rows))
        except ValueError:
            continue


@pytest.mark.parametrize("field", [F, PrimeField(2), QQ], ids=["fp", "f2", "q"])
def test_random_points_draw_as_the_separate_loops_did(field):
    # Over F_2 a random matrix is often rank deficient, so the loop resamples.
    for r, n in [(2, 6), (3, 9), (2, 4)]:
        for sample, free in ((random_grass_point, n), (random_hyperplane_point, n - 1)):
            rng, ref = random.Random(r * n), random.Random(r * n)
            for _ in range(5):
                assert sample(r, n, field, rng) == _reference_random_point(r, n, free, field, ref)
            assert rng.getstate() == ref.getstate()


def test_random_points_refuse_shapes_without_a_full_rank_matrix():
    # Each of these resampled forever before it was refused.
    for sample, r, n in [
        (random_grass_point, 3, 2),
        (random_grass_point, 1, 65),
        (random_hyperplane_point, 2, 2),
    ]:
        with pytest.raises(ValueError, match="no full-rank"):
            sample(r, n, F, random.Random(0))
    with pytest.raises(ValueError, match="<= 64"):
        plucker_embed(rows_matrix([[1] * 65]))


def test_embed_refuses_entries_outside_one_field():
    with pytest.raises(ValueError, match="not a field element"):
        plucker_embed(DenseMatrix(1, 2, (1, 0)))
    with pytest.raises(ValueError, match="mixed-field"):
        plucker_embed(DenseMatrix(1, 2, (QQ.one(), F.one())))


def test_embed_rank_deficient_rejected():
    with pytest.raises(ValueError, match="rank"):
        plucker_embed(rows_matrix([[1, 2, 3, 4], [2, 4, 6, 8]]))


# F_7 makes zero minors common; 2^61 - 1 is above the int64 bound of the
# residue arrays.
KERNEL_FIELDS = [F, PrimeField(7), PrimeField(2**61 - 1), QQ]
KERNEL_IDS = ["fp", "f7", "p61", "q"]


def _sparse_matrices(field, rng):
    """Sparse full-rank matrices: identity blocks, rows on disjoint column
    sets, and a matrix with a zero column.  Entries are a / b with a and b
    in 1..6, so each is nonzero in every field, with a denominator over Q."""
    entry = lambda: field.from_int(rng.randrange(1, 7)) / field.from_int(rng.randrange(1, 7))
    zero = field.zero()

    def matrix(n, support):
        return [[entry() if j in cols else zero for j in range(n)] for cols in support]

    identity = lambda r, n, at: [[field.from_int(int(j == at + i)) for j in range(n)] for i in range(r)]
    return [
        identity(2, 6, 0),
        identity(3, 8, 2),
        identity(4, 9, 5),
        matrix(8, [{0, 1, 2}, {3, 4}, {5, 6, 7}]),
        matrix(9, [{0, 8}, {1, 2, 3, 4}, {5}, {6, 7}]),
        matrix(7, [{0, 1, 3, 4, 5, 6}] * 3),
    ]


@pytest.mark.parametrize("field", KERNEL_FIELDS, ids=KERNEL_IDS)
def test_embed_sparse_matrices_match_the_boxed_wedge_fold(field):
    # The dense fold of the rows against the public wedge of the rows as
    # degree-1 vectors built from boxed entries, which scans the term pairs
    # of these sparse rows.
    rng = random.Random(61)
    for rows in _sparse_matrices(field, rng):
        n = len(rows[0])
        got = plucker_embed(DenseMatrix.from_rows(rows)).plucker
        assert got._dict is None
        want = None
        for row in rows:
            v = ExteriorVector(n, 1, {1 << j: c for j, c in enumerate(row)}, field)
            want = v if want is None else wedge(want, v)
        assert got == want and got.degree == len(rows)
        assert all(field.is_element(c) for c in got.terms.values())
    # A zero row makes every minor vanish.
    rows = _sparse_matrices(field, rng)[3]
    rows[1] = [field.zero()] * len(rows[1])
    with pytest.raises(ValueError, match="rank deficient"):
        plucker_embed(DenseMatrix.from_rows(rows))


def test_embed_coordinates_are_minors():
    rng = random.Random(43)
    gp = random_grass_point(2, 5, F, rng)
    a, b = rows_of(gp.basis_matrix)
    for j1 in range(5):
        for j2 in range(j1 + 1, 5):
            minor = a[j1] * b[j2] - a[j2] * b[j1]
            mask = (1 << j1) | (1 << j2)
            assert gp.plucker.coefficient(mask) == minor


# -- rank criterion --------------------------------------------------------------


def test_mu_rank_decomposable_values():
    assert mu_rank(basis(6, (1, 2)), 1) == 4
    assert mu_rank(basis(6, (1, 2)), 2) == 6


def test_mu_rank_indecomposable_value():
    w = basis(6, (1, 2)) + basis(6, (3, 4))
    assert mu_rank(w, 1) == 6


def test_mu_rank_errors():
    with pytest.raises(ValueError):
        mu_rank(ExteriorVector.zero(6, 2, QQ), 1)
    with pytest.raises(ValueError):
        mu_rank(basis(6, (1, 2)), 5)


def rank_criterion(w):
    """Decomposability by the rank of t |-> w ^ t on vectors, for n - 2r >= 1."""
    return mu_rank(w, 1) == w.n - w.degree


def test_is_decomposable_examples():
    for w, decomposable in [
        (basis(9, (1, 2, 3)), True),
        (basis(9, (1, 2, 3)) + basis(9, (4, 5, 6)), False),
        (basis(6, (1, 2)) + basis(6, (1, 3)), True),
    ]:
        assert rank_criterion(w) == plucker_relations_hold(w) == decomposable


def test_decomposability_routes_agree():
    rng = random.Random(47)
    for _ in range(25):
        w = random_exterior(6, 2, F, rng)
        assert rank_criterion(w) == plucker_relations_hold(w)
    for _ in range(10):
        w = random_grass_point(3, 9, F, rng).plucker
        assert rank_criterion(w) and plucker_relations_hold(w)


def test_rank_bound_and_equality_characterization():
    rng = random.Random(53)
    for r, s, d in [(2, 1, 6), (2, 2, 6), (3, 1, 9), (3, 2, 9)]:
        bound = math.comb(d - r, s)
        for trial in range(6):
            if trial % 2 == 0:
                w = random_exterior(d, r, F, rng)
            else:
                w = random_grass_point(r, d, F, rng).plucker
            rank = mu_rank(w, s)
            assert rank >= bound
            assert (rank == bound) == plucker_relations_hold(w)


# -- thresholds ------------------------------------------------------------------


def test_codim_threshold_values():
    assert codim_threshold(2, 3) == 18
    assert codim_threshold(3, 3) == 40
    assert codim_threshold(4, 3) == 210


def test_field_codim_threshold_differs_only_in_characteristic_two():
    F2 = PrimeField(2)
    for r in range(1, 5):
        for m in (3, 4):
            for field in (F, PrimeField(3), QQ):
                assert field_codim_threshold(r, m, field) == codim_threshold(r, m)
            expected = (m - 1) * math.comb((m - 1) * r, r)
            assert field_codim_threshold(r, m, F2) == expected
    with pytest.raises(ValueError):
        field_codim_threshold(2, 2, F)


def test_codim_threshold_requires_m_three():
    with pytest.raises(ValueError):
        codim_threshold(2, 2)


# -- classifier ------------------------------------------------------------------


def test_classifier_member():
    rng = random.Random(59)
    for _ in range(5):
        w = random_grass_point(2, 6, F, rng).plucker
        v = classify_membership(w, 3)
        assert v.tag is Verdict.IN_GRASSMANNIAN
        assert v.observed_codim == v.threshold == 18


def test_classifier_fails_multiplicity():
    w = ExteriorVector.basis(6, (1, 2), F) + ExteriorVector.basis(6, (3, 4), F)
    v = classify_membership(w, 3)
    assert v.tag is Verdict.FAILS_MULTIPLICITY
    assert v.observed_codim is None


def test_classifier_fails_tangent_bound_odd_degree():
    rng = random.Random(61)
    while True:
        w = random_exterior(9, 3, F, rng)
        if not plucker_relations_hold(w):
            break
    v = classify_membership(w, 3)
    assert v.tag is Verdict.FAILS_TANGENT_BOUND
    assert v.observed_codim > v.threshold == 40


def test_classifier_crafted_even_degree_square_zero():
    w = ExteriorVector.basis(12, (1, 2, 3, 4), F) + ExteriorVector.basis(
        12, (1, 2, 5, 6), F
    )
    assert wedge(w, w).is_zero
    assert not plucker_relations_hold(w)
    v = classify_membership(w, 3)
    assert v.tag is Verdict.FAILS_TANGENT_BOUND
    assert v.threshold == 210 and v.observed_codim > 210


def test_classifier_sound_at_two_four():
    rng = random.Random(63)
    threshold = codim_threshold(2, 4)
    assert threshold == 4 * math.comb(6, 2)
    for _ in range(3):
        w = random_grass_point(2, 8, F, rng).plucker
        v = classify_membership(w, 4)
        assert v.tag is Verdict.IN_GRASSMANNIAN and v.observed_codim == threshold
    while True:
        w = random_exterior(8, 2, F, rng)
        if not plucker_relations_hold(w):
            break
    assert classify_membership(w, 4).tag is not Verdict.IN_GRASSMANNIAN


def test_classifier_large_prime_matches_default_prime():
    # The same integer data over p = 2^61 - 1, where ranks leave int64.
    big = PrimeField(2**61 - 1)
    rng = random.Random(73)
    for r, reject in [(2, Verdict.FAILS_MULTIPLICITY), (3, Verdict.FAILS_TANGENT_BOUND)]:
        n = 3 * r
        member_rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(r)]
        coeffs = [rng.randint(-9, 9) for _ in range(math.comb(n, r))]
        verdicts = []
        for field in (F, big):
            member = plucker_embed(rows_matrix(member_rows, field)).plucker
            other = from_coefficients(n, r, [field.from_int(c) for c in coeffs], field)
            verdicts.append((classify_membership(member, 3), classify_membership(other, 3)))
        assert verdicts[0] == verdicts[1]
        assert [v.tag for v in verdicts[0]] == [Verdict.IN_GRASSMANNIAN, reject]


def test_classifier_at_four_three_agrees_with_contraction_oracle():
    # rank(B) = 3 at (4,3), so a verdict past the multiplicity gate reads
    # 3 * rank(wedge_matrix(w, 4)).  Over the default prime that rank is also
    # taken through the boxed matrix and mat_rank; over 2^61 - 1 the boxed
    # rank alone takes over a second, so only the verdict is checked there.
    big = PrimeField(2**61 - 1)
    rng = random.Random(89)
    crafted = basis(12, (1, 2, 3, 4), F) + basis(12, (1, 2, 5, 6), F)
    cases = [
        (crafted, Verdict.FAILS_TANGENT_BOUND),
        (random_grass_point(4, 12, F, rng).plucker, Verdict.IN_GRASSMANNIAN),
        (random_exterior(12, 4, F, rng), Verdict.FAILS_MULTIPLICITY),
        (random_grass_point(4, 12, big, rng).plucker, Verdict.IN_GRASSMANNIAN),
    ]
    for w, tag in cases:
        v = classify_membership(w, 3)
        assert v.tag is tag
        assert (tag is Verdict.IN_GRASSMANNIAN) == plucker_relations_hold(w)
        assert v.threshold == 210
        if tag is Verdict.FAILS_MULTIPLICITY:
            continue
        assert (v.observed_codim == 210) == (tag is Verdict.IN_GRASSMANNIAN)
        if w.field == F:
            assert v.observed_codim == 3 * mat_rank(wedge_matrix(w, 4))


def test_int_coefficient_is_refused_by_every_kernel():
    F7 = PrimeField(7)
    with pytest.raises(ValueError, match="not an element"):
        ExteriorVector(9, 3, {0b111: 3}, F7)


def test_classifier_over_f2_agrees_with_contraction_oracle():
    # Over F_2 every square vanishes, so even r is decided by the tangent
    # bound alone, against the threshold (m - 1) * binom(4, 2) = 12.
    F2 = PrimeField(2)
    rng = random.Random(79)
    sample = [random_grass_point(2, 6, F2, rng).plucker for _ in range(10)]
    sample += [random_exterior(6, 2, F2, rng) for _ in range(30)]
    seen = set()
    for w in sample:
        v = classify_membership(w, 3)
        member = plucker_relations_hold(w)
        assert (v.tag is Verdict.IN_GRASSMANNIAN) == member
        assert v.tag is not Verdict.FAILS_MULTIPLICITY
        assert v.threshold == 12 and (v.observed_codim == 12) == member
        seen.add(member)
    assert seen == {True, False}


def test_classifier_projective_invariance():
    rng = random.Random(67)
    w = random_grass_point(2, 6, F, rng).plucker
    scaled = w.scale(F.from_int(987654321))
    assert classify_membership(w, 3) == classify_membership(scaled, 3)


def test_classifier_rejects_small_m():
    with pytest.raises(ValueError):
        classify_membership(ExteriorVector.basis(4, (1, 2), F), 2)


def test_classifier_verdict_invariant():
    with pytest.raises(ValueError):
        ClassifierVerdict(Verdict.FAILS_MULTIPLICITY, 18, 20)
    with pytest.raises(ValueError):
        ClassifierVerdict(Verdict.IN_GRASSMANNIAN, 18, None)


# -- stacked determinant -----------------------------------------------------------


def test_ev_det_coordinate_blocks():
    pts = [
        plucker_embed(rows_matrix([[1, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0]])),
        plucker_embed(rows_matrix([[0, 0, 1, 0, 0, 0], [0, 0, 0, 1, 0, 0]])),
        plucker_embed(rows_matrix([[0, 0, 0, 0, 1, 0], [0, 0, 0, 0, 0, 1]])),
    ]
    det = ev_m_det(pts)
    assert det == QQ.one() or det == -QQ.one()


def test_ev_det_shared_vector_vanishes():
    shared = [1, 1, 1, 0, 0, 0]
    pts = [
        plucker_embed(rows_matrix([shared, [0, 1, 0, 0, 0, 0]])),
        plucker_embed(rows_matrix([shared, [0, 0, 0, 1, 0, 0]])),
        plucker_embed(rows_matrix([[0, 0, 0, 0, 1, 0], [0, 0, 0, 0, 0, 1]])),
    ]
    assert not ev_m_det(pts)


def test_ev_det_matches_wedge_form():
    rng = random.Random(71)
    for _ in range(25):
        pts = [random_grass_point(2, 6, F, rng) for _ in range(3)]
        det = ev_m_det(pts)
        raw = top_wedge_coefficient([p.plucker for p in pts])
        assert raw == det
        form = eval_form(PointTuple.of([p.plucker for p in pts]))
        assert (not det) == (not form)


def test_ev_det_shape_errors():
    rng = random.Random(73)
    pts = [random_grass_point(2, 6, F, rng) for _ in range(2)]
    with pytest.raises(ValueError):
        ev_m_det(pts)


# -- refusals -----------------------------------------------------------------


@pytest.mark.parametrize("s", [0, -1])
def test_mu_rank_refuses_s_below_one(s):
    with pytest.raises(ValueError, match="s must be at least 1"):
        mu_rank(basis(6, (1, 2)), s)


def test_classifier_refuses_zero_and_the_wrong_ambient_dimension():
    with pytest.raises(ValueError, match="zero vector"):
        classify_membership(ExteriorVector.zero(6, 2, F), 3)
    with pytest.raises(ValueError, match=r"ambient dimension must equal degree \* m"):
        classify_membership(basis(8, (1, 2), F), 3)


def test_ev_m_det_refuses_points_of_mismatched_shapes():
    rng = random.Random(73)
    first = random_grass_point(2, 4, F, rng)
    with pytest.raises(ValueError, match="empty tuple"):
        ev_m_det([])
    for other in (random_grass_point(1, 4, F, rng), random_grass_point(2, 5, F, rng)):
        with pytest.raises(ValueError, match="shape mismatch between points"):
            ev_m_det([first, other])
