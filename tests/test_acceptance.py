"""Acceptance suite.

One test per criterion; every check is exact (literal equality over the
rationals or a prime field), and each test prints a single PASS/FAIL line.
Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import math
import random

from oracles import change_basis, random_matrix
from pluckerlab.bundle_pairs_p1 import (
    classify_point,
    det_map_rank,
    diagonal_factor_check,
    divisor_value,
    evaluation_functional,
    has_plucker_form,
    lambda_image,
    make_pair,
    sample_distinct_points,
    sample_points,
    span_dimension,
    symbolic_diagonal_witness,
    two_point_surjectivity,
)
from pluckerlab.exterior import (
    ExteriorVector,
    lex_masks,
    plucker_relations_hold,
    random_exterior,
    top_wedge_coefficient,
    wedge,
)
from pluckerlab.grassmann import (
    Verdict,
    classify_membership,
    codim_threshold,
    ev_m_det,
    mu_rank,
    random_grass_point,
    random_hyperplane_point,
)
from pluckerlab.plucker_form import (
    PointTuple,
    evaluate_expansion,
    eval_form,
    expand_form,
    expand_form_term_count,
    multiplicity_at,
    polar,
)
from pluckerlab.scalars import (
    PrimeField,
    QQ,
    mat_det,
    poly_interpolate,
)

F = PrimeField()


def _report(name: str, failures: list):
    status = "PASS" if not failures else "FAIL"
    print(f"{name}: {status}" + (f" first failure: {failures[0]}" if failures else ""))
    assert not failures, f"{name}: {failures[:3]}"


def _random_tuple(r, m, rng, field=F):
    return PointTuple.of([random_exterior(r * m, r, field, rng) for _ in range(m)])


def test_criterion_01_taylor_polar_identity():
    failures = []
    rng = random.Random(101)
    for r, m in [(1, 2), (2, 3), (3, 3)]:
        n = r * m
        for trial in range(100):
            w = _random_tuple(r, m, rng)
            t = [random_exterior(n, r, F, rng) for _ in range(m)]
            coeffs = [polar(k, w, t) for k in range(m + 1)]
            xs = [F.from_int(i) for i in range(m + 1)]
            ys = [
                top_wedge_coefficient(
                    [w.slots[i] + t[i].scale(x) for i in range(m)]
                )
                for x in xs
            ]
            if poly_interpolate(xs, ys) != coeffs:
                failures.append((r, m, trial))
    _report("criterion 1 (polar/Taylor identity)", failures)


def test_criterion_02_shuffle_expansion():
    failures = []
    rng = random.Random(102)
    for (r, m), count in [((2, 2), 6), ((2, 3), 90)]:
        expansion = expand_form(r, m)
        if len(expansion) != count or expand_form_term_count(r, m) != count:
            failures.append((r, m, "count", len(expansion)))
        for trial in range(100):
            p = _random_tuple(r, m, rng)
            if evaluate_expansion(expansion, p) != eval_form(p):
                failures.append((r, m, trial))
    _report("criterion 2 (shuffle expansion)", failures)


def test_criterion_03_multiplicity_bound():
    failures = []
    rng = random.Random(103)
    for r, m in [(2, 3), (3, 3)]:
        n = r * m
        for trial in range(1000):
            p = _random_tuple(r, m, rng)
            if not 0 <= multiplicity_at(p) <= m - 1:
                failures.append((r, m, trial, "random"))
        # adversarial: repeated slots, including fully diagonal tuples
        for trial in range(50):
            w = random_exterior(n, r, F, rng)
            v = random_exterior(n, r, F, rng)
            tuples = [
                PointTuple.of([w, w, v]),
                PointTuple.of([w, v, w]),
                PointTuple.diagonal(w, m),
            ]
            for idx, p in enumerate(tuples):
                if not 0 <= multiplicity_at(p) <= m - 1:
                    failures.append((r, m, trial, f"adversarial-{idx}"))
    _report("criterion 3 (multiplicity bound)", failures)


def test_criterion_04_wedge_rank_bound():
    failures = []
    rng = random.Random(104)
    for r, s, d in [(2, 1, 6), (2, 2, 6), (3, 1, 9), (3, 2, 9), (3, 3, 9)]:
        bound = math.comb(d - r, s)
        for trial in range(100):
            if trial % 2 == 0:
                w = random_exterior(d, r, F, rng)
            else:
                w = random_grass_point(r, d, F, rng).plucker
            rank = mu_rank(w, s)
            decomposable = plucker_relations_hold(w)
            if rank < bound or (rank == bound) != decomposable:
                failures.append((r, s, d, trial, rank, decomposable))
    _report("criterion 4 (wedge-multiplication rank bound)", failures)


def test_criterion_05_membership_classifier():
    failures = []
    rng = random.Random(105)

    def expect(w, m, tag, codim=None, codim_above=None, label=""):
        v = classify_membership(w, m)
        ok = v.tag is tag
        if codim is not None:
            ok = ok and v.observed_codim == codim
        if codim_above is not None:
            ok = ok and v.observed_codim is not None and v.observed_codim > codim_above
        if not ok:
            failures.append((label, v.tag.value, v.observed_codim))

    # (2,3): members and multiplicity rejections
    for trial in range(200):
        w = random_grass_point(2, 6, F, rng).plucker
        expect(w, 3, Verdict.IN_GRASSMANNIAN, codim=18, label=f"(2,3)m{trial}")
    for trial in range(200):
        while True:
            w = random_exterior(6, 2, F, rng)
            if not wedge(w, w).is_zero:
                break
        expect(w, 3, Verdict.FAILS_MULTIPLICITY, label=f"(2,3)r{trial}")

    # (3,3): members and tangent-bound rejections
    for trial in range(100):
        w = random_grass_point(3, 9, F, rng).plucker
        expect(w, 3, Verdict.IN_GRASSMANNIAN, codim=40, label=f"(3,3)m{trial}")
    for trial in range(100):
        while True:
            w = random_exterior(9, 3, F, rng)
            if not plucker_relations_hold(w):
                break
        expect(w, 3, Verdict.FAILS_TANGENT_BOUND, codim_above=40, label=f"(3,3)r{trial}")

    # (4,3): the crafted square-zero non-member, then members
    crafted = ExteriorVector.basis(12, (1, 2, 3, 4), F) + ExteriorVector.basis(
        12, (1, 2, 5, 6), F
    )
    assert codim_threshold(4, 3) == 210
    expect(crafted, 3, Verdict.FAILS_TANGENT_BOUND, codim_above=210, label="(4,3)crafted")
    for trial in range(20):
        w = random_grass_point(4, 12, F, rng).plucker
        expect(w, 3, Verdict.IN_GRASSMANNIAN, codim=210, label=f"(4,3)m{trial}")
    _report("criterion 5 (membership classifier)", failures)


def test_criterion_06_degeneracy_determinant():
    failures = []
    rng = random.Random(106)
    for trial in range(500):
        pts = [random_grass_point(2, 6, F, rng) for _ in range(3)]
        det = ev_m_det(pts)
        form = eval_form(PointTuple.of([p.plucker for p in pts]))
        raw = top_wedge_coefficient([p.plucker for p in pts])
        if (not det) != (not form) or raw != det:
            failures.append(("random", trial))
    for trial in range(50):
        pts = [random_hyperplane_point(2, 6, F, rng) for _ in range(3)]
        det = ev_m_det(pts)
        form = eval_form(PointTuple.of([p.plucker for p in pts]))
        if det or form:
            failures.append(("hyperplane", trial))
    _report("criterion 6 (stacked determinant vs wedge form)", failures)


BALANCED = [(1, 3), (2, 3), (2, 4), (3, 3)]


def _balanced_pair(r, m, field=F):
    return make_pair((m - 1,) * r, m, field)


def test_criterion_07_diagonal_factorization_and_pullback():
    failures = []
    for idx, (r, m) in enumerate(BALANCED):
        pair = _balanced_pair(r, m)
        rep = diagonal_factor_check(pair, 200, 1070 + idx)
        if not rep.all_matched or not rep.constant_c:
            failures.append((r, m, "factorization"))
        rng = random.Random(2070 + idx)
        ratio = None
        for trial in range(200):
            if trial % 10 == 9:
                pts = sample_points(m, F, rng)
                pts[-1] = pts[0]
            else:
                pts = sample_distinct_points(m, F, rng)
            dv = divisor_value(pair, pts)
            pull = top_wedge_coefficient([classify_point(pair, x) for x in pts])
            if (not dv) != (not pull):
                failures.append((r, m, "pullback-vanishing", trial))
                continue
            if dv:
                if ratio is None:
                    ratio = dv / pull
                elif dv != ratio * pull:
                    failures.append((r, m, "pullback-ratio", trial))
    for r, m in [(1, 3), (2, 3)]:
        holds, _ = symbolic_diagonal_witness(_balanced_pair(r, m, QQ))
        if not holds:
            failures.append((r, m, "symbolic"))
    _report("criterion 7 (diagonal factorization and pullback)", failures)


def test_criterion_08_degenerate_branch():
    failures = []
    rng = random.Random(108)
    for splitting in [(3, 1), (4, 0)]:
        pair = make_pair(splitting, 3, F)
        for trial in range(500):
            if divisor_value(pair, sample_points(3, F, rng)):
                failures.append((splitting, trial))
        if has_plucker_form(pair, 50, 180):
            failures.append((splitting, "has_plucker_form"))
    for r, m in BALANCED:
        if not has_plucker_form(_balanced_pair(r, m), 20, 181):
            failures.append(((r, m), "balanced should have a form"))
    _report("criterion 8 (degenerate branch)", failures)


def test_criterion_09_determinant_map_surjectivity():
    failures = []
    expected = {(2, 3): 5, (2, 4): 7, (3, 3): 7}
    for (r, m), want in expected.items():
        pair = _balanced_pair(r, m)
        rank = det_map_rank(pair)
        if rank != want or rank != r * (m - 1) + 1:
            failures.append((r, m, "rank", rank))
        nmasks = len(lex_masks(r * m, r))
        span = span_dimension(pair, nmasks + 10, 1090)
        if span != rank:
            failures.append((r, m, "span", span))
    rng = random.Random(109)
    for r, m in BALANCED:
        pair = _balanced_pair(r, m)
        for trial in range(50):
            x, y = sample_distinct_points(2, F, rng)
            if not two_point_surjectivity(pair, x, y):
                failures.append((r, m, "two-point", trial))
    pair40 = make_pair((4, 0), 3, F)
    for trial in range(50):
        x, y = sample_distinct_points(2, F, rng)
        if two_point_surjectivity(pair40, x, y):
            failures.append(("(4,0)", "two-point should fail", trial))
    for r, m in BALANCED:
        pair = _balanced_pair(r, m)
        for trial in range(50):
            x = sample_points(1, F, rng)[0]
            lam = lambda_image(pair, evaluation_functional(pair, x))
            if lam.normalized() != classify_point(pair, x).normalized():
                failures.append((r, m, "lambda", trial))
    _report("criterion 9 (determinant map and classifying map)", failures)


def test_criterion_10_basis_change_invariance():
    failures = []
    rng = random.Random(110)
    for r, m in BALANCED:
        pair = _balanced_pair(r, m)
        rm = r * m
        for trial in range(50):
            G = random_matrix(rm, rm, F, rng)
            dg = mat_det(G)
            if not dg:
                continue
            moved = change_basis(pair, G)
            for _ in range(3):
                pts = sample_points(m, F, rng)
                base = divisor_value(pair, pts)
                if divisor_value(moved, pts) != dg * base:
                    failures.append((r, m, trial))
                    break
    _report("criterion 10 (basis-change invariance)", failures)
