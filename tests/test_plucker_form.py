import itertools
import math
import random
from fractions import Fraction

import pytest

from oracles import (
    build_tangent_system,
    coefficient_vector,
    from_coefficients,
    mat_rank,
    mat_vec,
    wedge_matrix,
)
from pluckerlab.exterior import (
    ExteriorVector,
    plucker_relations_hold,
    random_exterior,
    top_wedge_coefficient,
    wedge,
)
from pluckerlab.grassmann import random_grass_point
from pluckerlab.plucker_form import (
    PointTuple,
    _tangent_array,
    diagonal_multiplicity,
    diagonal_tangent_codim,
    evaluate_expansion,
    eval_form,
    expand_form,
    expand_form_term_count,
    multiplicity_at,
    polar,
    tangent_codim,
)
from pluckerlab.scalars import QQ, PrimeField, poly_interpolate

F = PrimeField()


def basis(n, idx, field=F):
    return ExteriorVector.basis(n, idx, field)


def random_tuple(r, m, field, rng):
    return PointTuple.of([random_exterior(r * m, r, field, rng) for _ in range(m)])


# -- eval_form ------------------------------------------------------------------


def test_eval_consecutive_blocks_is_one():
    for r, m in [(1, 3), (2, 3), (3, 2)]:
        n = r * m
        slots = [
            basis(n, tuple(range(i * r + 1, (i + 1) * r + 1))) for i in range(m)
        ]
        assert eval_form(PointTuple.of(slots)) == F.one()


def test_eval_missing_index_vanishes():
    slots = [basis(6, (1, 2)), basis(6, (1, 3)), basis(6, (4, 5))]
    assert not eval_form(PointTuple.of(slots))


def test_slot_swap_symmetry():
    rng = random.Random(2)
    for r, m in [(1, 3), (2, 3), (3, 3)]:
        p = random_tuple(r, m, F, rng)
        for _ in range(3):
            i, j = rng.sample(range(m), 2)
            slots = list(p.slots)
            slots[i], slots[j] = slots[j], slots[i]
            swapped = PointTuple.of(slots)
            expected = eval_form(p) if r % 2 == 0 else -eval_form(p)
            assert eval_form(swapped) == expected


def test_point_tuple_validation():
    with pytest.raises(ValueError):
        PointTuple.of([basis(6, (1, 2)), ExteriorVector.zero(6, 2, F), basis(6, (3, 4))])
    with pytest.raises(ValueError):
        PointTuple.of([basis(6, (1, 2)), basis(6, (1,)), basis(6, (3, 4))])


def test_point_tuple_slots_are_normalized():
    w = 7 * random_exterior(6, 2, QQ, random.Random(1))
    p = PointTuple.of([w, w, w])
    lead = p.slots[0].terms[p.slots[0].leading_mask()]
    assert lead == QQ.one()


# -- expansion ------------------------------------------------------------------


def test_expansion_counts():
    assert len(expand_form(2, 2)) == 6
    assert len(expand_form(2, 3)) == 90
    assert expand_form_term_count(2, 3) == 90
    assert len(expand_form(1, 2)) == 2


def test_expansion_one_two_exact():
    entries = {
        tuple(tuple(b.indices) for b in blocks): sign
        for blocks, sign in expand_form(1, 2)
    }
    assert entries == {((1,), (2,)): 1, ((2,), (1,)): -1}


def test_expansion_agrees_with_eval():
    rng = random.Random(3)
    for r, m in [(1, 2), (2, 2), (2, 3)]:
        expansion = expand_form(r, m)
        for _ in range(10):
            p = random_tuple(r, m, F, rng)
            assert evaluate_expansion(expansion, p) == eval_form(p)


def test_expansion_json_shape():
    data = [[[list(b.indices) for b in blocks], sign] for blocks, sign in expand_form(1, 2)]
    assert data == [[[[1], [2]], 1], [[[2], [1]], -1]]


# -- polars ---------------------------------------------------------------------


def test_polar_order_zero_and_top():
    rng = random.Random(5)
    p = random_tuple(2, 3, F, rng)
    t = [random_exterior(6, 2, F, rng) for _ in range(3)]
    assert polar(0, p, t) == eval_form(p)
    assert polar(3, p, t) == top_wedge_coefficient(t)


def test_polar_one_two_cancellation():
    w = PointTuple.of([basis(2, (1,), QQ), basis(2, (2,), QQ)])
    t = [basis(2, (2,), QQ), basis(2, (1,), QQ)]
    assert polar(1, w, t) == QQ.zero()


def test_taylor_identity_small():
    rng = random.Random(7)
    for r, m in [(1, 2), (2, 2), (2, 3)]:
        n = r * m
        p = random_tuple(r, m, F, rng)
        t = [random_exterior(n, r, F, rng) for _ in range(m)]
        coeffs = [polar(k, p, t) for k in range(m + 1)]
        xs = [F.from_int(i) for i in range(m + 1)]
        ys = [
            top_wedge_coefficient([p.slots[i] + t[i].scale(x) for i in range(m)])
            for x in xs
        ]
        assert poly_interpolate(xs, ys) == coeffs


def test_polar_validation():
    p = PointTuple.of([basis(4, (1, 2)), basis(4, (3, 4))])
    with pytest.raises(ValueError):
        polar(3, p, [basis(4, (1, 2))])
    with pytest.raises(ValueError):
        polar(1, p, [basis(4, (1,)), basis(4, (2,))])


# -- multiplicity ----------------------------------------------------------------


def test_multiplicity_generic_point_off_divisor():
    rng = random.Random(11)
    p = random_tuple(2, 3, F, rng)
    if eval_form(p):
        assert multiplicity_at(p) == 0


def test_multiplicity_mixed_example():
    p = PointTuple.of([basis(6, (1, 2)), basis(6, (1, 2)), basis(6, (3, 4))])
    assert multiplicity_at(p) == 1


def test_multiplicity_diagonal_decomposable():
    p = PointTuple.diagonal(basis(6, (1, 2)), 3)
    assert multiplicity_at(p) == 2


def test_multiplicity_bound_random():
    rng = random.Random(13)
    for r, m in [(2, 3), (3, 3)]:
        for _ in range(25):
            p = random_tuple(r, m, F, rng)
            assert 0 <= multiplicity_at(p) <= m - 1


def test_diagonal_multiplicity_consistency():
    rng = random.Random(17)
    for r, m in [(2, 3), (3, 3), (2, 2)]:
        w = random_exterior(r * m, r, F, rng)
        assert diagonal_multiplicity(w) == multiplicity_at(PointTuple.diagonal(w, m))


def test_diagonal_multiplicity_odd_degree_at_least_m_minus_one():
    rng = random.Random(19)
    w = random_exterior(9, 3, F, rng)
    assert diagonal_multiplicity(w) >= 2  # odd degree squares to zero


def test_diagonal_multiplicity_example_strictly_less():
    w = basis(6, (1, 2), QQ) + basis(6, (3, 4), QQ)
    assert diagonal_multiplicity(w) < 2


def test_diagonal_multiplicity_zero_vector():
    with pytest.raises(ValueError):
        diagonal_multiplicity(ExteriorVector.zero(6, 2, QQ))


# -- tangent systems --------------------------------------------------------------


def test_tangent_shapes():
    sys23 = build_tangent_system(PointTuple.diagonal(basis(6, (1, 2)), 3), 2)
    assert (sys23.rows, sys23.cols) == (45, 45)
    sys33 = build_tangent_system(PointTuple.diagonal(basis(9, (1, 2, 3)), 3), 2)
    assert (sys33.rows, sys33.cols) == (252, 252)
    assert sys33.rows == math.comb(3, 2) * math.comb(9, 6)


def test_tangent_empty_system_at_order_zero():
    p = PointTuple.diagonal(basis(6, (1, 2)), 3)
    sys0 = build_tangent_system(p, 0)
    assert sys0.rows == 0
    assert tangent_codim(p, 0) == 0


def test_tangent_precondition():
    rng = random.Random(23)
    p = random_tuple(2, 3, F, rng)
    assert eval_form(p)  # generic: multiplicity 0
    with pytest.raises(ValueError):
        tangent_codim(p, 1)


def test_tangent_codim_values():
    assert tangent_codim(PointTuple.diagonal(basis(6, (1, 2)), 3), 2) == 18
    assert tangent_codim(PointTuple.diagonal(basis(9, (1, 2, 3)), 3), 2) == 40
    assert tangent_codim(PointTuple.diagonal(basis(4, (1, 2)), 2), 1) == 1


def test_tangent_kernel_contains_slot_scalings():
    # directions t = (c_1 w_1, ..., c_m w_m) always solve the tangent system
    rng = random.Random(29)
    cases = [
        (PointTuple.diagonal(basis(6, (1, 2)), 3), 2),
        (PointTuple.of([basis(6, (1, 2)), basis(6, (1, 2)), basis(6, (3, 4))]), 1),
    ]
    for p, k in cases:
        M = build_tangent_system(p, k)
        coeffs = [F.sample(rng) for _ in range(p.m)]
        vec = []
        for i in range(p.m):
            vec.extend(coefficient_vector(p.slots[i].scale(coeffs[i])))
        assert all(not x for x in mat_vec(M, vec))
        assert tangent_codim(p, k) <= M.cols - p.m


@pytest.mark.parametrize(
    "field", [F, PrimeField(7), PrimeField(2**61 - 1)], ids=["fp", "f7", "p61"]
)
def test_tangent_codim_ranks_the_boxed_system(field):
    # tangent_codim fills residues over F_p; the boxed system is the reference.
    rng = random.Random(53)
    for r, m in [(2, 3), (3, 3), (2, 4)]:
        n = r * m
        w = random_grass_point(r, n, field, rng).plucker
        v = random_exterior(n, r, field, rng)
        cases = [(PointTuple.diagonal(w, m), m - 1), (PointTuple.diagonal(v, m), m - 1)]
        cases.append((PointTuple.of([v] * (m - 1) + [w]), 1))
        for p, k in cases:
            if multiplicity_at(p) < k:
                continue
            assert tangent_codim(p, k) == mat_rank(build_tangent_system(p, k))


@pytest.mark.parametrize("field", [F, PrimeField(2**61 - 1), QQ], ids=["fp", "p61", "q"])
def test_boxed_matrices_hold_field_elements(field):
    # Every entry, the zeros too, is a field element, and over F_p its value
    # is a Python int: a numpy int64 inside ``Fp.v`` makes later products wrap.
    def holds(M):
        if field is QQ:
            return all(type(e) is Fraction for e in M.entries)
        return all(field.is_element(e) and type(e.v) is int for e in M.entries)

    rng = random.Random(73)
    w = random_grass_point(2, 6, field, rng).plucker
    assert holds(wedge_matrix(random_exterior(6, 2, field, rng), 2))
    assert holds(wedge_matrix(basis(6, (1, 2), field), 1))
    assert holds(build_tangent_system(PointTuple.diagonal(w, 3), 2))
    assert holds(build_tangent_system(PointTuple.diagonal(w, 3), 1))


def _shared_line_point(r, m, field, rng):
    """m decomposable slots c ^ x_2 ^ ... ^ x_r with one common vector c, so
    every two slots wedge to zero: the point lies on every stratum."""
    n = r * m
    c = random_exterior(n, 1, field, rng)
    slots = []
    while len(slots) < m:
        w = c
        for _ in range(r - 1):
            w = wedge(w, random_exterior(n, 1, field, rng))
        if not w.is_zero:
            slots.append(w)
    return PointTuple.of(slots)


def _small_direction(n, r, field, rng):
    coeffs = [field.from_int(rng.choice((-3, -2, -1, 1, 2, 3))) for _ in range(math.comb(n, r))]
    return from_coefficients(n, r, coeffs, field)


@pytest.mark.parametrize("field", [F, PrimeField(7), QQ], ids=["fp", "f7", "q"])
def test_tangent_system_is_the_eps_coefficient_of_the_subset_wedges(field):
    # M t, block S, is the sum over i in S of the ordered wedge over S with
    # t_i in slot i: the definition of the tangent system, through wedge.
    rng = random.Random(71)
    checks = 0
    for r, m in [(2, 3), (3, 3), (2, 4)]:
        n = r * m
        w = random_grass_point(r, n, field, rng).plucker
        v = random_exterior(n, r, field, rng)
        points = [
            PointTuple.diagonal(w, m),
            PointTuple.of([v] * (m - 1) + [w]),
            _shared_line_point(r, m, field, rng),
        ]
        for p in points:
            for k in range(1, multiplicity_at(p) + 1):
                M = build_tangent_system(p, k)
                # Dense directions of small nonzero integers keep Q cheap.
                t = [_small_direction(n, r, field, rng) for _ in range(m)]
                got = mat_vec(M, [c for ti in t for c in coefficient_vector(ti)])
                subsets = list(itertools.combinations(range(m), m - k + 1))
                size = math.comb(n, r * (m - k + 1))
                assert (M.rows, M.cols) == (len(subsets) * size, m * math.comb(n, r))
                for b, S in enumerate(subsets):
                    total = ExteriorVector.zero(n, r * len(S), field)
                    for i in S:
                        term = t[i] if S[0] == i else p.slots[S[0]]
                        for j in S[1:]:
                            term = wedge(term, t[j] if j == i else p.slots[j])
                        total = total + term
                    assert got[b * size : (b + 1) * size] == coefficient_vector(total)
                checks += 1
    assert checks >= 12


# -- the two routes to the diagonal tangent codimension -----------------------------


def _non_member(r, m, field, rng):
    while True:
        w = random_exterior(r * m, r, field, rng)
        if not plucker_relations_hold(w):
            return w


def _diagonal_route_inputs():
    rng = random.Random(31)
    inputs = []
    for field, r, m in [
        (F, 2, 3),
        (F, 3, 3),
        (F, 2, 4),
        (PrimeField(2), 2, 3),
        (PrimeField(3), 2, 3),
        (QQ, 2, 3),
    ]:
        inputs.append((random_grass_point(r, r * m, field, rng).plucker, m))
        inputs.append((_non_member(r, m, field, rng), m))
    crafted = basis(12, (1, 2, 3, 4)) + basis(12, (1, 2, 5, 6))
    inputs.append((crafted, 3))
    inputs.append((random_grass_point(4, 12, F, rng).plucker, 3))
    return inputs


def test_diagonal_tangent_codim_matches_full_system():
    reached = 0
    for w, m in _diagonal_route_inputs():
        gate = w.degree % 2 == 0 and not wedge(w, w).is_zero
        assert gate == (diagonal_multiplicity(w) < m - 1)
        if gate:
            # Off the deepest stratum both routes refuse.
            with pytest.raises(ValueError):
                diagonal_tangent_codim(w, m)
            with pytest.raises(ValueError):
                tangent_codim(PointTuple.diagonal(w, m), m - 1)
            continue
        reached += 1
        assert diagonal_tangent_codim(w, m) == tangent_codim(PointTuple.diagonal(w, m), m - 1)
    # Every member, the odd-degree and F_2 non-members, and the crafted vector.
    assert reached == 10


def test_diagonal_tangent_codim_validation():
    with pytest.raises(ValueError):
        diagonal_tangent_codim(ExteriorVector.zero(6, 2, F), 3)
    with pytest.raises(ValueError):
        diagonal_tangent_codim(basis(6, (1, 2)), 2)
    assert diagonal_tangent_codim(basis(4, (1, 2)), 2) == 1


# -- refusals -------------------------------------------------------------------


@pytest.mark.parametrize("r, m", [(8, 9), (65, 1)])
def test_expand_form_refuses_an_ambient_dimension_above_64(r, m):
    with pytest.raises(ValueError, match="ambient dimension exceeds 64"):
        expand_form(r, m)


@pytest.mark.parametrize("k", [-1, 3, 4])
def test_tangent_array_refuses_an_order_out_of_range(k):
    p = random_tuple(2, 3, F, random.Random(79))
    with pytest.raises(ValueError, match=r"singularity order must be in 0\.\.m-1"):
        _tangent_array(p, k)


def test_diagonal_multiplicity_refuses_n_not_a_multiple_of_r():
    for w in (basis(5, (1, 2)), ExteriorVector(4, 0, {0: F.one()}, F)):
        with pytest.raises(ValueError, match="ambient dimension must be a multiple of the degree"):
            diagonal_multiplicity(w)
