import itertools
import random
from fractions import Fraction

import pytest

from oracles import (
    change_basis,
    coefficient_vector,
    evaluation_matrix,
    from_coefficients,
    mat_rank,
    mat_vec,
    random_matrix,
    rows_of,
    transpose,
)
from pluckerlab import bundle_pairs_p1
from pluckerlab.bundle_pairs_p1 import (
    BundlePairP1,
    DivisorReport,
    P1Point,
    _det_map_rows,
    _first_nonzero_sample,
    _section_values,
    classify_point,
    det_map_matrix,
    det_map_rank,
    diagonal_factor_check,
    divisor_coefficient_tensor,
    divisor_value,
    evaluation_functional,
    has_plucker_form,
    is_balanced,
    lambda_image,
    make_pair,
    pair_from_json,
    pair_to_json,
    pairwise_product,
    sample_distinct_points,
    sample_points,
    span_dimension,
    symbolic_diagonal_witness,
    two_point_surjectivity,
)
from pluckerlab.cli import ExperimentConfig, main, run
from pluckerlab.exterior import (
    ExteriorVector,
    plucker_relations_hold,
    top_wedge_coefficient,
    wedge,
)
from pluckerlab.scalars import QQ, DenseMatrix, PrimeField, _boxed, mat_det

F = PrimeField()


def affine(x, field=F):
    return P1Point.affine(field.from_int(x))


# -- construction -----------------------------------------------------------------


def test_make_pair_section_counts():
    assert len(make_pair((2, 2), 3, F).sections) == 6
    assert len(make_pair((3, 1), 3, F).sections) == 6
    assert len(make_pair((4, 0), 3, F).sections) == 6
    assert len(make_pair((2,), 3, F).sections) == 3


def test_make_pair_rejects_bad_splittings():
    with pytest.raises(ValueError):
        make_pair((2, 1), 3, F)  # wrong total degree
    with pytest.raises(ValueError):
        make_pair((5, -1), 3, F)  # negative summand shrinks the section space
    with pytest.raises(ValueError):
        make_pair((2, 2), 1, F)


def test_point_canonicalization():
    p = P1Point.of(F.from_int(6), F.from_int(2))
    assert p.u == F.from_int(3) and p.v == F.one()
    inf = P1Point.of(F.from_int(5), F.zero())
    assert inf.u == F.one() and not inf.v
    with pytest.raises(ValueError):
        P1Point.of(F.zero(), F.zero())


def test_sections_must_be_independent():
    pair = make_pair((2, 2), 3, F)
    dup = pair.sections[:5] + (pair.sections[0],)
    with pytest.raises(ValueError, match="dependent"):
        BundlePairP1(2, 3, (2, 2), dup, F)


def test_pair_refuses_wrong_shapes():
    sections = make_pair((2, 2), 3, F).sections
    cubics = make_pair((3, 3), 4, F).sections[:6]  # independent, degree-3 parts
    with pytest.raises(ValueError, match="length"):
        BundlePairP1(2, 3, (2, 2), cubics, F)
    with pytest.raises(ValueError, match="splitting"):
        BundlePairP1(2, 3, (2, 2, 2), sections, F)
    with pytest.raises(ValueError, match="length"):
        BundlePairP1(2, 3, (4, 0), sections, F)
    with pytest.raises(ValueError, match="negative"):
        BundlePairP1(2, 3, (5, -1), sections, F)
    with pytest.raises(ValueError, match="components"):
        BundlePairP1(2, 3, (2, 2), tuple(s + s[:1] for s in sections), F)


# -- evaluation and divisor ---------------------------------------------------------


def test_evaluation_matrix_vandermonde():
    pair = make_pair((2,), 3, QQ)
    pts = [P1Point.affine(Fraction(x)) for x in (0, 1, 2)]
    M = evaluation_matrix(pair, pts)
    assert M.rows == M.cols == 3
    assert divisor_value(pair, pts) == Fraction(2)  # Vandermonde 1*2*1


def _holds_field_elements(M, field):
    """Every entry is a field element, and over F_p its value a Python int:
    a numpy int64 inside ``Fp.v`` would make later products wrap."""
    if field is QQ:
        return all(type(e) is Fraction for e in M.entries)
    return all(field.is_element(e) and type(e.v) is int for e in M.entries)


@pytest.mark.parametrize("field", [F, PrimeField(2**61 - 1), QQ], ids=["fp", "p61", "q"])
def test_evaluation_matrix_holds_field_elements(field):
    pair = make_pair((3, 1), 3, field)
    pts = [P1Point.infinity(field)] + [affine(x, field) for x in (0, 5)]
    assert _holds_field_elements(evaluation_matrix(pair, pts), field)


def test_evaluation_repeated_point_drops_rank():
    pair = make_pair((2, 2), 3, F)
    x = affine(5)
    pts = [x, x, affine(7)]
    M = evaluation_matrix(pair, pts)
    assert mat_rank(M) <= 6 - 2
    assert not divisor_value(pair, pts)


def test_evaluation_generic_full_rank():
    pair = make_pair((2, 2), 3, F)
    assert divisor_value(pair, [affine(x) for x in (1, 2, 3)])


def test_divisor_at_infinity_consistent():
    pair = make_pair((2, 2), 3, F)
    c = diagonal_factor_check(pair, 3, 0).constant_c
    pts = [P1Point.infinity(F), affine(2), affine(3)]
    assert divisor_value(pair, pts) == c * pairwise_product(pts, 2, F)


def test_unbalanced_divisor_vanishes_identically():
    rng = random.Random(3)
    for splitting in [(3, 1), (4, 0)]:
        pair = make_pair(splitting, 3, F)
        for _ in range(25):
            assert not divisor_value(pair, sample_points(3, F, rng))


def test_has_plucker_form():
    assert has_plucker_form(make_pair((2, 2), 3, F), 20, 1)
    assert has_plucker_form(make_pair((2,), 3, F), 20, 1)
    assert not has_plucker_form(make_pair((3, 1), 3, F), 40, 1)
    assert not has_plucker_form(make_pair((4, 0), 3, F), 40, 1)
    with pytest.raises(ValueError):
        has_plucker_form(make_pair((2, 2), 3, F), 0, 1)


def test_has_plucker_form_at_p_equal_to_m():
    # Over F_3 two in nine 3-tuples of affine points are distinct, and a
    # repeated point makes every determinant zero; at distinct points a
    # balanced pair's determinant is c * prod (u_i - u_j)^2 with c != 0, so
    # a single trial of distinct points finds the form.
    F3 = PrimeField(3)
    for seed in range(10):
        assert has_plucker_form(make_pair((2, 2), 3, F3), 1, seed)
        assert not has_plucker_form(make_pair((3, 1), 3, F3), 5, seed)


# -- diagonal factorization ------------------------------------------------------------


def test_diagonal_factor_rank_one():
    rep = diagonal_factor_check(make_pair((2,), 3, QQ), 25, 5)
    assert rep.all_matched
    assert rep.constant_c in (QQ.one(), -QQ.one())


def test_diagonal_factor_balanced_rank_two_and_three():
    rep = diagonal_factor_check(make_pair((2, 2), 3, F), 30, 5)
    assert rep.all_matched
    rep3 = diagonal_factor_check(make_pair((2, 2, 2), 3, F), 10, 5)
    assert rep3.all_matched


def test_diagonal_factor_degenerate_pair_raises():
    with pytest.raises(ValueError, match="identically"):
        diagonal_factor_check(make_pair((3, 1), 3, F), 5, 5)


@pytest.mark.parametrize("trials", [0, -3])
def test_diagonal_factor_refuses_fewer_than_one_trial(trials):
    # With no trial the identity would be reported as matched unchecked.
    with pytest.raises(ValueError, match="at least one trial"):
        diagonal_factor_check(make_pair((2, 2), 3, F), trials, 5)


def pairwise_product_off_after_the_fit(monkeypatch):
    """Patch ``pairwise_product`` to return twice its value after its first
    call, which is the fit of ``diagonal_factor_check``; returns the list of
    calls, to be cleared before the next check."""
    real, calls = pairwise_product, []

    def off(points, power, field):
        calls.append(points)
        value = real(points, power, field)
        return value if len(calls) == 1 else value * field.from_int(2)

    monkeypatch.setattr(bundle_pairs_p1, "pairwise_product", off)
    return calls


@pytest.mark.parametrize("field", [QQ, F], ids=["q", "fp"])
def test_diagonal_factor_check_fails_and_stops_at_the_first_mismatch(field, monkeypatch):
    pair = make_pair((2, 2), 3, field)
    c = diagonal_factor_check(pair, 5, 5).constant_c
    calls = pairwise_product_off_after_the_fit(monkeypatch)
    assert diagonal_factor_check(pair, 5, 5) == DivisorReport(c, 5, False)
    assert len(calls) == 2  # the fit and the first trial, which fails


@pytest.mark.parametrize("field", ["q", "fp"])
def test_p1_divisor_suite_records_a_failing_factorization(field, monkeypatch, capsys):
    calls = pairwise_product_off_after_the_fit(monkeypatch)
    report = run(ExperimentConfig("p1-divisor", r=2, m=3, field=field, seed=0, trials=5))
    assert report.failures == 1 and len(calls) == 2
    [case] = [case for case in report.cases if not case["ok"]]
    assert case["check"] == "factorization" and case["all_matched"] is False
    calls.clear()
    assert main(["p1-divisor", "--field", field, "--trials", "5"]) == 1
    assert "p1-divisor: FAIL (1 passed, 1 failed" in capsys.readouterr().out


# The sample-until-nonzero loops as they were written out in each caller
# before they shared _first_nonzero_sample: the reference for its draws.
def _reference_first_nonzero(pair, trials, rng):
    for trial in range(trials):
        pts = sample_distinct_points(pair.m, pair.field, rng)
        value = divisor_value(pair, pts)
        if value:
            return trial, pts, value
    return None


def _reference_diagonal_factor_check(pair, trials, seed):
    # Its fit loop and the draws of its trials; the second, balanced-only
    # comparison draws nothing and is left out.
    field, rng = pair.field, random.Random(seed)
    det0 = None
    for _ in range(32):
        pts = sample_distinct_points(pair.m, field, rng)
        det0 = divisor_value(pair, pts)
        if det0:
            break
    c = det0 / pairwise_product(pts, pair.r, field)
    all_matched = True
    for _ in range(trials):
        pts = sample_distinct_points(pair.m, field, rng)
        if divisor_value(pair, pts) != c * pairwise_product(pts, pair.r, field):
            all_matched = False
            break
    return DivisorReport(c, trials, all_matched)


@pytest.mark.parametrize("field", [F, PrimeField(7), PrimeField(3), QQ], ids=["fp", "f7", "f3", "q"])
def test_nonzero_sample_search_draws_as_the_inline_loops_did(field):
    # At p = m = 3 the sampler has to reject repeats, which takes extra draws.
    for splitting in [(2, 2), (3, 1), (2,), (2, 2, 2)]:
        pair = make_pair(splitting, 3, field)
        for seed in range(4):
            rng, ref = random.Random(seed), random.Random(seed)
            assert _first_nonzero_sample(pair, 6, rng) == _reference_first_nonzero(pair, 6, ref)
            assert rng.getstate() == ref.getstate()
            has_form = _reference_first_nonzero(pair, 6, random.Random(seed)) is not None
            assert has_plucker_form(pair, 6, seed) == has_form
            if has_form:
                got = diagonal_factor_check(pair, 4, seed)
                assert got == _reference_diagonal_factor_check(pair, 4, seed)


def test_symbolic_witness():
    holds, c = symbolic_diagonal_witness(make_pair((2,), 3, QQ))
    assert holds and c in (QQ.one(), -QQ.one())
    holds2, _ = symbolic_diagonal_witness(make_pair((2, 2), 3, QQ))
    assert holds2
    with pytest.raises(ValueError):
        symbolic_diagonal_witness(make_pair((2, 2, 2), 3, F))


def test_symbolic_witness_refuses_an_identically_vanishing_divisor():
    # (3,1) with m = 3 is unbalanced: every term of the determinant cancels.
    assert symbolic_diagonal_witness(make_pair((3, 1), 3, QQ)) == (False, None)


@pytest.mark.parametrize("field", [QQ, F], ids=["q", "fp"])
def test_symbolic_witness_refuses_a_tensor_that_differs_from_the_power(field, monkeypatch):
    pair = make_pair((2, 2), 3, field)
    tensor = divisor_coefficient_tensor(pair)
    holds, c = symbolic_diagonal_witness(pair)
    assert holds
    leading = min(tensor)  # the key the constant is fitted at
    without = {k: x for k, x in tensor.items() if k != leading}
    monkeypatch.setattr(bundle_pairs_p1, "divisor_coefficient_tensor", lambda _: without)
    assert symbolic_diagonal_witness(pair) == (False, None)
    # One corrupted coefficient past the leading key: the constant is still
    # fitted there, and the comparison fails elsewhere.
    corrupted = dict(tensor)
    key = max(tensor)
    corrupted[key] = tensor[key] + field.one()
    monkeypatch.setattr(bundle_pairs_p1, "divisor_coefficient_tensor", lambda _: corrupted)
    assert symbolic_diagonal_witness(pair) == (False, c)


def test_symbolic_constant_matches_sampled_constant():
    pair = make_pair((2, 2), 3, F)
    _, c_sym = symbolic_diagonal_witness(pair)
    rep = diagonal_factor_check(pair, 5, 9)
    assert rep.constant_c == c_sym


# -- determinant map -------------------------------------------------------------------


def test_det_map_rank_one_is_identity_permutation():
    M = det_map_matrix(make_pair((2,), 3, QQ))
    assert M.rows == 3 and M.cols == 3
    for a, row in enumerate(rows_of(M)):
        for c in range(3):
            expected = QQ.one() if a == c else QQ.zero()
            assert row[c] == expected


def test_det_map_shape():
    M = det_map_matrix(make_pair((2, 2), 3, F))
    assert (M.rows, M.cols) == (5, 15)


def test_det_map_ranks():
    assert det_map_rank(make_pair((2, 2), 3, F)) == 5
    assert det_map_rank(make_pair((3, 3), 4, F)) == 7
    assert det_map_rank(make_pair((2, 2, 2), 3, F)) == 7
    assert det_map_rank(make_pair((2,), 3, F)) == 3


@pytest.mark.parametrize("field", [F, PrimeField(7), QQ], ids=["fp", "f7", "q"])
def test_det_map_owners_agree_with_the_boxed_oracles(field):
    # The boxed matrix, its rank through mat_rank and its transpose through
    # mat_vec are the references for the cached unboxed rows.
    rng = random.Random(41)
    for splitting, m in [((2, 2), 3), ((3, 1), 3), ((2, 2, 2), 3), ((1, 1), 2)]:
        rm = len(splitting) * m
        pair = make_pair(splitting, m, field)
        while True:
            G = random_matrix(rm, rm, field, rng)
            if mat_rank(G) == rm:
                break
        for p in (pair, change_basis(pair, G)):
            M = det_map_matrix(p)
            assert M == _boxed(_det_map_rows(p), field)
            assert det_map_rank(p) == mat_rank(M)
            for _ in range(3):
                functional = [field.sample(rng) for _ in range(M.rows)]
                coeffs = mat_vec(transpose(M), functional)
                expect = from_coefficients(rm, p.r, coeffs, field)
                if expect.is_zero:
                    continue
                assert lambda_image(p, functional) == expect


def test_span_dimension_matches_det_map_rank():
    for splitting, m in [((2, 2), 3), ((2,), 3)]:
        pair = make_pair(splitting, m, F)
        assert span_dimension(pair, 30, 7) == det_map_rank(pair)


def test_span_dimension_requires_enough_samples():
    with pytest.raises(ValueError):
        span_dimension(make_pair((2, 2), 3, F), 10, 7)


def test_distinct_points_refused_beyond_the_field_size():
    assert {p.u for p in sample_distinct_points(2, PrimeField(2), random.Random(0))} == {
        PrimeField(2).from_int(0),
        PrimeField(2).from_int(1),
    }
    with pytest.raises(ValueError, match="F_2 has fewer than 3 affine points"):
        sample_distinct_points(3, PrimeField(2), random.Random(0))


def test_span_dimension_refused_once_every_point_is_tried():
    pair = make_pair((2, 2), 3, PrimeField(3))
    with pytest.raises(ValueError, match="F_3 has fewer than 30 usable points"):
        span_dimension(pair, 30, 7)
    pair = make_pair((2, 2), 3, PrimeField(101))
    assert span_dimension(pair, 30, 7) == det_map_rank(pair)


# -- classifying map and its dual ------------------------------------------------------


def test_classify_rank_one_is_monomial_curve():
    pair = make_pair((2,), 3, F)
    x = affine(5)
    vec = classify_point(pair, x)
    vals = [F.one(), F.from_int(5), F.from_int(25)]
    assert coefficient_vector(vec) == vals


def test_classify_balanced_at_zero():
    pair = make_pair((2, 2), 3, F)
    vec = classify_point(pair, affine(0))
    assert vec == ExteriorVector.basis(6, (1, 4), F)


def test_classify_satisfies_relations():
    rng = random.Random(11)
    for splitting in [(2, 2), (2, 2, 2)]:
        pair = make_pair(splitting, 3, F)
        for _ in range(10):
            vec = classify_point(pair, sample_points(1, F, rng)[0])
            assert plucker_relations_hold(vec)


def test_lambda_restriction_equals_classifying_map():
    rng = random.Random(13)
    for splitting, m in [((2,), 3), ((2, 2), 3), ((3, 3), 4)]:
        pair = make_pair(splitting, m, F)
        for _ in range(10):
            x = sample_points(1, F, rng)[0]
            lam = lambda_image(pair, evaluation_functional(pair, x))
            cls = classify_point(pair, x)
            assert lam.normalized() == cls.normalized()


@pytest.mark.parametrize("field", [F, PrimeField(2**61 - 1), QQ], ids=["fp", "p61", "q"])
def test_lambda_equals_classifying_map_after_a_basis_change(field):
    # The monomial basis puts each section in one component, so only the
    # identity permutation contributes to a column of the determinant map; a
    # generic basis mixes components and makes every permutation sign count.
    rng = random.Random(29)
    for splitting, m in [((2, 2), 3), ((2, 2, 2), 3)]:
        rm = len(splitting) * m
        G = random_matrix(rm, rm, field, rng)
        pair = change_basis(make_pair(splitting, m, field), G)
        for _ in range(3):
            x = sample_points(1, field, rng)[0]
            lam = lambda_image(pair, evaluation_functional(pair, x))
            assert lam.normalized() == classify_point(pair, x).normalized()


def test_lambda_rank_one_identity():
    pair = make_pair((2,), 3, F)
    functional = [F.from_int(3), F.from_int(1), F.from_int(4)]
    vec = lambda_image(pair, functional)
    assert coefficient_vector(vec) == functional


def test_lambda_generic_functional_off_cone():
    pair = make_pair((2, 2), 3, F)
    rng = random.Random(17)
    off_cone = 0
    for _ in range(10):
        functional = [F.sample(rng) for _ in range(5)]
        vec = lambda_image(pair, functional)
        if not plucker_relations_hold(vec):
            off_cone += 1
    assert off_cone > 0


def test_lambda_zero_functional_rejected():
    pair = make_pair((2, 2), 3, F)
    with pytest.raises(ValueError):
        lambda_image(pair, [F.zero()] * 5)
    with pytest.raises(ValueError):
        lambda_image(pair, [F.one()] * 3)


@pytest.mark.parametrize(
    "field,other", [(F, QQ), (F, PrimeField(7)), (QQ, F)], ids=["fp-q", "fp-f7", "q-fp"]
)
def test_lambda_refuses_a_functional_from_another_field(field, other):
    pair = make_pair((2, 2), 3, field)
    with pytest.raises(ValueError):
        lambda_image(pair, [other.one()] * 5)


# -- two-point surjectivity -------------------------------------------------------------


def test_two_point_surjectivity():
    assert two_point_surjectivity(make_pair((2, 2), 3, F), affine(1), affine(2))
    assert two_point_surjectivity(make_pair((3, 1), 3, F), affine(1), affine(2))
    assert not two_point_surjectivity(make_pair((4, 0), 3, F), affine(1), affine(2))
    assert two_point_surjectivity(make_pair((2,), 3, F), affine(1), affine(2))
    with pytest.raises(ValueError):
        two_point_surjectivity(make_pair((2, 2), 3, F), affine(1), affine(1))


# -- basis-change invariance --------------------------------------------------------------


def test_basis_change_scales_by_determinant():
    rng = random.Random(19)
    pair = make_pair((2, 2), 3, F)
    for _ in range(5):
        G = random_matrix(6, 6, F, rng)
        if not mat_det(G):
            continue
        moved = change_basis(pair, G)
        dg = mat_det(G)
        for _ in range(3):
            pts = sample_points(3, F, rng)
            assert divisor_value(moved, pts) == dg * divisor_value(pair, pts)


def test_basis_change_rejects_singular():
    pair = make_pair((2, 2), 3, F)
    singular = random_matrix(6, 6, F, random.Random(23))
    rows = [list(row) for row in rows_of(singular)]
    rows[5] = rows[0]
    with pytest.raises(ValueError, match="dependent"):
        change_basis(pair, DenseMatrix.from_rows(rows))


# -- pullback ---------------------------------------------------------------------------


def test_pullback_vanishing_and_constant_ratio():
    rng = random.Random(29)
    pair = make_pair((2, 2), 3, F)
    ratio = None
    for trial in range(20):
        if trial % 5 == 4:
            pts = sample_points(3, F, rng)
            pts[1] = pts[0]
        else:
            pts = sample_distinct_points(3, F, rng)
        dv = divisor_value(pair, pts)
        pull = top_wedge_coefficient([classify_point(pair, x) for x in pts])
        assert (not dv) == (not pull)
        if dv:
            if ratio is None:
                ratio = dv / pull
            else:
                assert dv == ratio * pull


# -- serialization ------------------------------------------------------------------------


def test_pair_json_roundtrip():
    pair = make_pair((2, 2), 3, F)
    data = pair_to_json(pair)
    assert data == {
        "r": 2,
        "m": 3,
        "splitting": [2, 2],
        "field": "fp",
        "prime": F.p,
    }
    again = pair_from_json(data)
    assert again.splitting == pair.splitting and again.field == pair.field


def test_pair_json_rank_mismatch():
    with pytest.raises(ValueError):
        pair_from_json({"r": 3, "m": 3, "splitting": [2, 2], "field": "fp"})


@pytest.mark.parametrize("key", ["field", "splitting", "m"])
def test_pair_json_missing_key(key):
    data = {"m": 3, "splitting": [2, 2], "field": "fp"}
    del data[key]
    with pytest.raises(ValueError, match=f"lacks {key}"):
        pair_from_json(data)


@pytest.mark.parametrize(
    "change", [{"splitting": 4}, {"m": "3"}], ids=["splitting-an-int", "m-a-string"]
)
def test_pair_json_value_of_the_wrong_type(change):
    data = {"m": 3, "splitting": [2, 2], "field": "fp", **change}
    with pytest.raises(ValueError):
        pair_from_json(data)


def test_pair_json_rational_field():
    pair = pair_from_json({"r": 1, "m": 3, "splitting": [2], "field": "q"})
    assert pair.field == QQ
    assert is_balanced(pair)


# -- evaluation against an independent reference ------------------------------------------


def _horner(form, pt):
    """sum_a form[a] u^a v^(d-a), by Horner's rule in u with a running power of v."""
    acc = form[-1]
    vpow = pt.v if pt.v else pt.u  # a canonical point carries the field's one
    for c in reversed(form[:-1]):
        vpow = vpow * pt.v
        acc = acc * pt.u + c * vpow
    return acc


def _reference_rows(pair, points):
    return [
        [_horner(section[j], pt) for pt in points for j in range(pair.r)]
        for section in pair.sections
    ]


def _pairs_and_points(field, seed):
    rng = random.Random(seed)
    pairs = []
    for splitting in [(2,), (2, 2), (3, 1), (4, 0), (2, 2, 2)]:
        pair = make_pair(splitting, 3, field)
        pairs.append(pair)
        rm = pair.r * pair.m
        while True:
            G = random_matrix(rm, rm, field, rng)
            if mat_det(G):
                break
        pairs.append(change_basis(pair, G))
    inf = P1Point.infinity(field)
    point_sets = [[inf] + sample_distinct_points(2, field, rng)]
    point_sets += [sample_distinct_points(3, field, rng) for _ in range(3)]
    return pairs, point_sets


@pytest.mark.parametrize("field", [F, QQ], ids=["fp", "q"])
def test_evaluation_agrees_with_horner_reference(field):
    pairs, point_sets = _pairs_and_points(field, 31)
    for pair in pairs:
        D = pair.r * (pair.m - 1)
        for pts in point_sets:
            M = evaluation_matrix(pair, pts)
            ref = _reference_rows(pair, pts)
            assert [list(row) for row in rows_of(M)] == ref
            for x in pts:
                monomials = [_monomial(D, a, field) for a in range(D + 1)]
                assert evaluation_functional(pair, x) == [_horner(f, x) for f in monomials]
            for x, y in ((pts[0], pts[1]), (pts[2], pts[1])):
                expect = mat_rank(DenseMatrix.from_rows(_reference_rows(pair, (x, y))))
                assert two_point_surjectivity(pair, x, y) == (expect == 2 * pair.r)


def _monomial(d, a, field):
    return tuple(field.one() if i == a else field.zero() for i in range(d + 1))


# -- unboxed kernels against boxed references ---------------------------------------------

# F_7 makes zero minors and zero section values common; 2^61 - 1 is above
# the int64 bound of the residue arrays.
KERNEL_FIELDS = [F, PrimeField(7), PrimeField(2**61 - 1), QQ]
KERNEL_IDS = ["fp", "f7", "p61", "q"]


def _leibniz(rows, field):
    """Determinant as the signed sum over permutations, on boxed entries."""
    n = len(rows)
    total = field.zero()
    for perm in itertools.permutations(range(n)):
        odd = sum(perm[i] > perm[j] for i, j in itertools.combinations(range(n), 2)) % 2
        term = field.one()
        for i, j in enumerate(perm):
            term = term * rows[i][j]
        total = total + (-term if odd else term)
    return total


def _kernel_pairs(field, rng):
    """Monomial pairs with rm <= 6, and each after a random invertible basis
    change, so that sections have several terms."""
    pairs = []
    shapes = [((2,), 3), ((1, 1), 2), ((2, 2), 3), ((3, 1), 3), ((4, 0), 3), ((1, 1, 1), 2)]
    for splitting, m in shapes:
        pair = make_pair(splitting, m, field)
        rm = pair.r * m
        while True:
            G = random_matrix(rm, rm, field, rng)
            if mat_rank(G) == rm:
                break
        pairs += [pair, change_basis(pair, G)]
    return pairs


def _kernel_points(pair, rng):
    """Distinct points, a tuple through infinity, and a repeated point."""
    field, m = pair.field, pair.m
    tuples = [sample_distinct_points(m, field, rng) for _ in range(3)]
    tuples.append([P1Point.infinity(field)] + sample_distinct_points(m - 1, field, rng))
    repeated = sample_distinct_points(m, field, rng)
    repeated[-1] = repeated[0]
    return tuples + [repeated]


@pytest.mark.parametrize("field", KERNEL_FIELDS, ids=KERNEL_IDS)
def test_section_values_are_the_transposed_boxed_evaluation(field):
    # Row i*r + j of the value matrix is component j at point i, one column
    # per section: the transpose of the oracle's rows, which sum the boxed
    # terms of pair.sections.  The pairs include basis changes, whose
    # sections have several terms per component, and the points include
    # infinity and a repeated point.
    rng = random.Random(53)
    for pair in _kernel_pairs(field, rng):
        for pts in _kernel_points(pair, rng):
            rows = _section_values(pair, pts)
            expect = transpose(evaluation_matrix(pair, pts))
            assert _boxed(rows, field) == expect
            # The m-point matrix is the classifying rows of its points stacked.
            assert rows == [row for x in pts for row in _section_values(pair, [x])]


@pytest.mark.parametrize("field", KERNEL_FIELDS, ids=KERNEL_IDS)
def test_divisor_value_matches_leibniz_determinant_of_horner_values(field):
    rng = random.Random(37)
    for pair in _kernel_pairs(field, rng):
        for pts in _kernel_points(pair, rng):
            value = divisor_value(pair, pts)
            assert field.is_element(value)
            assert value == _leibniz(_reference_rows(pair, pts), field)


@pytest.mark.parametrize("field", KERNEL_FIELDS, ids=KERNEL_IDS)
def test_classify_point_matches_boxed_wedge_fold(field):
    rng = random.Random(41)
    for pair in _kernel_pairs(field, rng):
        rm = pair.r * pair.m
        for x in [P1Point.infinity(field)] + sample_distinct_points(4, field, rng):
            vec = None
            for row in zip(*_reference_rows(pair, [x])):
                rv = ExteriorVector(rm, 1, {1 << j: c for j, c in enumerate(row)}, field)
                vec = rv if vec is None else wedge(vec, rv)
            got = classify_point(pair, x)
            assert got == vec and got.degree == pair.r
            assert all(field.is_element(c) for c in got.terms.values())


@pytest.mark.parametrize("field", KERNEL_FIELDS, ids=KERNEL_IDS)
def test_classify_point_is_the_minors_of_the_value_rows(field):
    # The oracle is mat_det on each r-subset of the columns, so no wedge
    # kernel checks the fold of the rows, whichever route each step takes.
    rng = random.Random(43)
    for pair in _kernel_pairs(field, rng):
        r, rm = pair.r, pair.r * pair.m
        for x in [P1Point.infinity(field)] + sample_distinct_points(3, field, rng):
            rows = list(zip(*_reference_rows(pair, [x])))
            got = classify_point(pair, x)
            assert got.degree == r
            for cols in itertools.combinations(range(rm), r):
                minor = mat_det(DenseMatrix(r, r, tuple(row[j] for row in rows for j in cols)))
                assert got.coefficient(sum(1 << j for j in cols)) == minor


@pytest.mark.parametrize("field", KERNEL_FIELDS, ids=KERNEL_IDS)
def test_classify_point_refuses_a_point_where_evaluation_drops_rank(field):
    # Every valid pair is globally generated, so the refusal needs a pair
    # whose second component's terms are gone: its value row is zero, and so
    # is every minor.
    pair = make_pair((2, 2), 3, field)
    object.__setattr__(pair, "terms", tuple(tuple(t for t in ts if t[0] == 0) for ts in pair.terms))
    for x in (P1Point.infinity(field), affine(3, field)):
        with pytest.raises(ValueError, match="evaluation drops rank"):
            classify_point(pair, x)


@pytest.mark.parametrize("field", KERNEL_FIELDS, ids=KERNEL_IDS)
def test_classify_point_is_born_dense(field):
    # The rows fold by gathers on dense vectors, so the image holds its
    # dense vector alone until something reads its terms.
    rng = random.Random(47)
    for pair in _kernel_pairs(field, rng):
        for x in [P1Point.infinity(field)] + sample_distinct_points(2, field, rng):
            assert classify_point(pair, x)._dict is None


def _drop_constant_terms_of_the_last_component(pair):
    """The pair with the terms u^0 v^d of its last component removed, so that
    at u = 0 that component's value row is zero and every minor vanishes."""
    last = pair.r - 1
    terms = tuple(tuple(t for t in ts if t[:2] != (last, 0)) for ts in pair.terms)
    object.__setattr__(pair, "terms", terms)
    return pair


def test_span_dimension_skips_the_points_where_classify_point_refuses(monkeypatch):
    # Over F_17 the 15 samples of (2,2) at m = 3 take 15 of the 16 points
    # other than 0; seed 3 draws u = 0, where classify_point refuses, sixth,
    # and it is skipped.  The images at the rest still span the image of
    # the determinant map.
    pair = _drop_constant_terms_of_the_last_component(make_pair((2, 2), 3, PrimeField(17)))
    with pytest.raises(ValueError, match="evaluation drops rank"):
        classify_point(pair, affine(0, pair.field))
    refused = []

    def spy(pair, x):
        try:
            return classify_point(pair, x)
        except ValueError:
            refused.append(x)
            raise

    monkeypatch.setattr(bundle_pairs_p1, "classify_point", spy)
    assert span_dimension(pair, 15, 3) == det_map_rank(pair)
    assert refused == [affine(0, pair.field)]
    # Over F_7 only six points are usable, fewer than the 15 samples.
    pair = _drop_constant_terms_of_the_last_component(make_pair((2, 2), 3, PrimeField(7)))
    with pytest.raises(ValueError, match="F_7 has fewer than 15 usable points"):
        span_dimension(pair, 15, 7)


def test_pair_refuses_the_wrong_number_of_sections():
    pair = make_pair((2, 2), 3, F)
    for sections in (pair.sections[:-1], pair.sections + pair.sections[:1]):
        with pytest.raises(ValueError, match=f"need 6 sections, got {len(sections)}"):
            BundlePairP1(2, 3, (2, 2), sections, F)


def test_divisor_value_refuses_the_wrong_number_of_points():
    pair = make_pair((2, 2), 3, F)
    pts = sample_distinct_points(4, F, random.Random(3))
    for points in (pts[:2], pts):
        with pytest.raises(ValueError, match="need 3 points"):
            divisor_value(pair, points)


@pytest.mark.parametrize("field", KERNEL_FIELDS, ids=KERNEL_IDS)
def test_span_dimension_ranks_the_dense_points_over_every_field(field):
    # Over F_7 only shapes with at most 7 usable points fit.
    shapes = [((2, 2), 3, 30), ((2, 2, 2), 3, 90)]
    if field == PrimeField(7):
        shapes = [((2,), 3, 5), ((1, 1), 2, 7)]
    rng = random.Random(59)
    for splitting, m, samples in shapes:
        pair = make_pair(splitting, m, field)
        rm = pair.r * m
        while True:
            G = random_matrix(rm, rm, field, rng)
            if mat_rank(G) == rm:
                break
        for p in (pair, change_basis(pair, G)):
            assert span_dimension(p, samples, 7) == det_map_rank(p)


@pytest.mark.parametrize("field", KERNEL_FIELDS, ids=KERNEL_IDS)
def test_terms_are_the_nonzero_unboxed_section_entries(field):
    # The symbolic expansions read only `terms`, the evaluations only rows
    # built from it; this pins both to the public `sections`.
    for pair in _kernel_pairs(field, random.Random(53)):
        assert pair.terms == tuple(
            tuple((j, a, field.unbox(c)) for j, f in enumerate(s) for a, c in enumerate(f) if c)
            for s in pair.sections
        )


@pytest.mark.parametrize("field", KERNEL_FIELDS[1:], ids=KERNEL_IDS[1:])
def test_coefficient_tensor_evaluates_to_the_divisor_value(field):
    # A random basis change gives every section terms in several components,
    # so the expansion's signs and exponents meet every column.
    rng = random.Random(47)
    for splitting, m in [((2, 2), 3), ((1, 1, 1), 2), ((3,), 4)]:
        pair = make_pair(splitting, m, field)
        rm, D = pair.r * m, pair.r * (m - 1)
        while True:
            G = random_matrix(rm, rm, field, rng)
            if mat_rank(G) == rm:
                break
        pair = change_basis(pair, G)
        tensor = divisor_coefficient_tensor(pair)
        inf = P1Point.infinity(field)
        point_sets = [sample_distinct_points(m, field, rng) for _ in range(3)]
        for pts in point_sets + [[inf] + sample_distinct_points(m - 1, field, rng)]:
            value = field.zero()
            for key, c in tensor.items():
                for a, pt in zip(key, pts):
                    c = c * pt.u**a * pt.v ** (D - a)
                value = value + c
            assert value == divisor_value(pair, pts)


# Q entries over denominators up to 2^61 - 1, as DENOMINATORS in test_exterior.
def _det_entry(field, rng):
    if field is not QQ:
        return field.sample(rng)
    den = rng.choice([1, 2, 3, 2**31 - 1, 2**61 - 1, rng.randint(1, 2**31 - 1)])
    return Fraction(rng.randint(-100, 100), den)


@pytest.mark.parametrize("field", KERNEL_FIELDS, ids=KERNEL_IDS)
def test_mat_det_matches_leibniz(field):
    rng = random.Random(43)
    for n in range(1, 8):
        for trial in range(7):
            # Half-zero entries force row swaps; trials 5 and 6 are singular,
            # and trial 6 has a zero column before the last, so a pivot is
            # missing and elimination goes on past it.
            rows = [
                [_det_entry(field, rng) if rng.random() < 0.5 else field.zero() for _ in range(n)]
                for _ in range(n)
            ]
            if trial == 5 and n > 1:
                rows[-1] = [a + b for a, b in zip(rows[0], rows[1])]
            if trial == 6:
                for row in rows:
                    row[max(n - 2, 0)] = field.zero()
            M = DenseMatrix.from_rows(rows)
            det = mat_det(M)
            assert field.is_element(det)
            assert det == _leibniz(rows, field)
