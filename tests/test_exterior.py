import itertools
import json
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import (
    coefficient_vector,
    from_coefficients,
    inversions,
    mat_rank,
    mat_vec,
    reference_top_wedge,
    reference_wedge,
    reference_wedge_gather,
    wedge_matrix,
)
from pluckerlab import exterior
from pluckerlab.exterior import (
    ExteriorVector,
    MultiIndex,
    _odd_above,
    contract,
    lex_masks,
    plucker_relations_hold,
    random_exterior,
    top_wedge_coefficient,
    wedge,
    wedge_rank,
)
from pluckerlab.grassmann import plucker_embed, random_grass_point
from pluckerlab.plucker_form import PointTuple, polar
from pluckerlab.scalars import (
    QQ,
    DenseMatrix,
    Fp,
    PrimeField,
    _residue_dtype,
    mat_det,
    rank_mod_p,
    submul_mod_p,
)

F = PrimeField()


def ev(n, *index_sets, field=QQ):
    out = ExteriorVector.basis(n, index_sets[0], field)
    for idx in index_sets[1:]:
        out = out + ExteriorVector.basis(n, idx, field)
    return out


# -- wedge and signs ----------------------------------------------------------


def test_wedge_disjoint_ordered():
    assert wedge(ev(6, (1, 2)), ev(6, (3, 4))) == ev(6, (1, 2, 3, 4))


def test_wedge_single_inversion():
    # merging (1,3) and (2) costs one transposition
    assert wedge(ev(4, (1, 3)), ev(4, (2,))) == -1 * ev(4, (1, 2, 3))


def test_wedge_shared_index_vanishes():
    assert wedge(ev(6, (1, 2)), ev(6, (1, 3))).is_zero


def test_wedge_degree_overflow_rejected():
    with pytest.raises(ValueError, match="overflow"):
        wedge(ev(4, (1, 2, 3)), ev(4, (2, 3)))


def test_wedge_dimension_mismatch():
    with pytest.raises(ValueError):
        wedge(ev(4, (1,)), ev(6, (2,)))
    with pytest.raises(ValueError):
        wedge(ev(4, (1,)), ExteriorVector.basis(4, (2,), F))


def test_wedge_rejects_coefficients_of_another_modulus():
    F7 = PrimeField(7)
    with pytest.raises(ValueError, match="mixed moduli"):
        ExteriorVector(4, 1, {1: Fp(3, 5)}, F7)
    with pytest.raises(ValueError, match="mixed moduli"):
        ExteriorVector(4, 1, {2: Fp(4, 5)}, F7)


def test_merge_sign_examples():
    def e(n, *indices):
        return ExteriorVector.basis(n, indices, QQ)

    assert wedge(e(6, 1, 2), e(6, 3, 4)) == e(6, 1, 2, 3, 4)
    assert wedge(e(4, 2), e(4, 1)) == -e(4, 1, 2)
    assert wedge(e(4, 1, 3), e(4, 3)).is_zero


@st.composite
def vectors(draw, n=5, degree=2):
    coeffs = draw(
        st.lists(
            st.integers(-9, 9),
            min_size=len(lex_masks(n, degree)),
            max_size=len(lex_masks(n, degree)),
        )
    )
    return from_coefficients(n, degree, [QQ.from_int(c) for c in coeffs], QQ)


@given(vectors(5, 2), vectors(5, 2))
@settings(max_examples=60, deadline=None)
def test_graded_anticommutativity(u, v):
    sign = (-1) ** (u.degree * v.degree)
    assert wedge(u, v) == sign * wedge(v, u)


@given(vectors(6, 2), vectors(6, 1), vectors(6, 2))
@settings(max_examples=60, deadline=None)
def test_associativity(u, v, w):
    assert wedge(wedge(u, v), w) == wedge(u, wedge(v, w))


@given(vectors(5, 2), vectors(5, 2), vectors(5, 2), st.integers(-5, 5), st.integers(-5, 5))
@settings(max_examples=60, deadline=None)
def test_bilinearity(u, u2, v, a, b):
    left = wedge(a * u + b * u2, v)
    right = a * wedge(u, v) + b * wedge(u2, v)
    assert left == right


@pytest.mark.parametrize("field", [F, PrimeField(7), QQ], ids=["fp", "f7", "q"])
def test_sum_negative_and_multiple_drop_zero_terms(field):
    rng = random.Random(47)
    for _ in range(20):
        u = random_exterior(6, 2, field, rng)
        v = random_exterior(6, 2, field, rng)
        keep = rng.sample(list(u.terms), 7)
        v = v + ExteriorVector(6, 2, {m: -v.coefficient(m) - u.terms[m] for m in keep}, field)
        naive = {m: u.coefficient(m) + v.coefficient(m) for m in lex_masks(6, 2)}
        total = u + v
        assert total == ExteriorVector(6, 2, naive, field)
        assert all(total.terms.values()) and not set(keep) & set(total.terms)
        assert (u + (-u)).terms == {} and (u - u).is_zero
        assert (-u).terms == {m: -c for m, c in u.terms.items()}
        assert u.scale(field.zero()).terms == {}
        c = field.sample(rng)
        assert u.scale(c) == ExteriorVector(6, 2, {m: c * x for m, x in u.terms.items()}, field)


# -- the kernel against an independent reference --------------------------------


# 3037000493 is the largest prime with (p - 1)^2 < 2^63: the edge of the
# int64 residue kernels.  2^61 - 1 is above it, so it takes the int path.
KERNEL_FIELDS = [
    F, PrimeField(2), PrimeField(3), PrimeField(3037000493), PrimeField(2**61 - 1), QQ
]


# Over Q the gather sums numerators over the lcm of the denominators, so
# drawn coefficients need denominators other than 1, small and large primes.
DENOMINATORS = st.sampled_from([1, 2, 3, 2**31 - 1, 2**61 - 1]) | st.integers(1, 2**31 - 1)


def draw_vector(draw, field, n, k):
    """A degree-k vector, dense or with at most four terms."""
    masks = lex_masks(n, k)
    dense = draw(st.booleans())
    keep = masks if dense else draw(st.lists(st.sampled_from(masks), max_size=4))
    coeffs = draw(st.lists(st.integers(-(2**70), 2**70), min_size=len(keep), max_size=len(keep)))
    if isinstance(field, PrimeField):
        coeffs = [field.from_int(c) for c in coeffs]
    else:
        dens = draw(st.lists(DENOMINATORS, min_size=len(keep), max_size=len(keep)))
        coeffs = [Fraction(c, d) for c, d in zip(coeffs, dens)]
    return ExteriorVector(n, k, dict(zip(keep, coeffs)), field)


@st.composite
def wedge_pairs(draw):
    field = draw(st.sampled_from(KERNEL_FIELDS))
    n = draw(st.integers(1, 9))
    a = draw(st.integers(0, n))
    b = draw(st.integers(0, n - a))
    return draw_vector(draw, field, n, a), draw_vector(draw, field, n, b)


@given(wedge_pairs())
@settings(max_examples=150, deadline=None)
def test_wedge_matches_reference(pair):
    u, v = pair
    w = wedge(u, v)
    assert w == reference_wedge(u, v)
    assert all(u.field.is_element(c) for c in w.terms.values())


@given(wedge_pairs())
@settings(max_examples=150, deadline=None)
def test_wedge_matrix_applies_wedge(pair):
    u, t = pair
    M = wedge_matrix(u, t.degree)
    assert mat_vec(M, coefficient_vector(t)) == coefficient_vector(wedge(u, t))


@st.composite
def top_wedge_slots(draw):
    """2 to 4 slots, dense or sparse, whose degrees add up to n <= 9."""
    field = draw(st.sampled_from(KERNEL_FIELDS))
    m = draw(st.integers(2, 4))
    n = draw(st.integers(1, 9))
    cuts = sorted(draw(st.lists(st.integers(0, n), min_size=m - 1, max_size=m - 1)))
    degrees = [b - a for a, b in zip([0] + cuts, cuts + [n])]
    return [draw_vector(draw, field, n, k) for k in degrees]


@given(top_wedge_slots())
@settings(max_examples=150, deadline=None)
def test_top_wedge_coefficient_matches_reference_fold(slots):
    c = top_wedge_coefficient(slots)
    assert c == reference_top_wedge(slots)
    assert slots[0].field.is_element(c)


@pytest.mark.parametrize("n, a, b", [(6, 2, 2), (9, 3, 3), (9, 3, 6)])
def test_dense_wedge_of_largest_residues_at_the_int64_edge(n, a, b):
    # Every coefficient p - 1: each unreduced product is (p - 1)^2, just
    # below 2^63, so a sum of two of them would wrap around.
    field = PrimeField(3037000493)
    u, v = (
        from_coefficients(n, k, [field.from_int(-1)] * len(lex_masks(n, k)), field)
        for k in (a, b)
    )
    assert wedge(u, v) == reference_wedge(u, v)
    if a + b == n:
        assert top_wedge_coefficient([u, v]) == reference_wedge(u, v).coefficient((1 << n) - 1)


def test_int64_gather_guard_at_its_edge():
    # For the largest int64 residue prime, C(34, 17) * p < 2^63 <= C(35, 17)
    # * p: even with every term present, a (17, 17) wedge may gather on int64
    # residues and a (17, 18) one must scan its pairs, so the guard wins over
    # the term counts.  Python ints have no such bound.  The rule reads only
    # shapes and term counts, so no vector and no table is built.
    p = 3037000493
    assert math.comb(34, 17) * p < 2**63 <= math.comb(35, 17) * p
    for q, n, b, gathers in [
        (p, 34, 17, True),
        (p, 35, 18, False),
        (2**61 - 1, 35, 18, True),
        (None, 35, 18, True),
    ]:
        full = math.comb(n, 17), math.comb(n, b)
        assert exterior._gathers(q, n, 17, b, *full) is gathers, (q, n, b)
        assert exterior._exact(q, math.comb(17 + b, 17)) is gathers, (q, n, b)


def test_route_floors_bound_the_table_by_one_dense_operand():
    # A wedge gathers once each operand has as many terms as a table row:
    # the masks disjoint from one term of the other, and once its term pairs
    # are as many as the longer dense vector's entries.  Then the table is at
    # most one operand's dense length times the other's term count, and
    # every wedge the pair count sends to the tables meets all three floors.
    for n in range(1, 10):
        for a in range(n + 1):
            for b in range(n - a + 1):
                fu, fv, fd = exterior._gather_floor(n, a, b)
                table = math.comb(n, a) * math.comb(n - a, b)
                assert table <= math.comb(n, a) * fv and table <= fu * math.comb(n, b)
                assert fd == max(math.comb(n, a), math.comb(n, b)) <= table
                for nu in range(1, math.comb(n, a) + 1):
                    for nv in range(1, math.comb(n, b) + 1):
                        gathers = exterior._gathers(None, n, a, b, nu, nv)
                        assert gathers == (nu >= fu and nv >= fv and nu * nv >= fd)
                        assert gathers or nu * nv < table
    # 62-term degree-3 vectors on 64 letters scan: the table would hold
    # C(64, 6) * 20, about 1.5e9 masks, for 3844 term pairs.
    assert not exterior._gathers(F.p, 64, 3, 3, 62, 62)
    assert exterior._gather_floor(64, 3, 3) == (35990, 35990, 41664)


@pytest.mark.parametrize("n, field", [(18, F), (40, QQ)], ids=["fp", "q"])
def test_one_term_wedge_at_top_degree_skips_the_table(n, field, monkeypatch):
    # Both floors of C(n - b, a) and C(n - a, b) terms are 1 at a + b = n,
    # but one term pair is fewer than the C(n, n / 2) entries of either
    # dense vector: over Q the dense vectors at n = 40 would hold 1.4e11.
    def no_table(*args):
        raise AssertionError(f"wedge table {args} built for a one-term wedge")

    monkeypatch.setattr(exterior, "_wedge_gather", no_table)
    half = range(1, n // 2 + 1)
    u = ExteriorVector.basis(n, half, field)
    v = ExteriorVector.basis(n, [i + n // 2 for i in half], field)
    assert wedge(u, v) == ExteriorVector.basis(n, range(1, n + 1), field)
    # (n/2)^2 inversions: odd at n = 18, even at n = 40.
    assert wedge(v, u) == ExteriorVector.basis(n, range(1, n + 1), field).scale(
        field.from_int((-1) ** (n // 2))
    )


# -- the last two steps of a top wedge as one gather ------------------------------

# Small, mid-size, the int64 edge, object arrays, and Q.
FUSED_FIELDS = [PrimeField(7), F, PrimeField(3037000493), PrimeField(2**61 - 1), QQ]


def full_vector(n, k, field, rng):
    """A degree-k vector with every coefficient nonzero, so its term count,
    and the route of each wedge it enters, does not depend on the draw."""
    draws = (field.sample(rng) for _ in lex_masks(n, k))
    return ExteriorVector(n, k, {m: c or field.one() for m, c in zip(lex_masks(n, k), draws)}, field)


def top_wedge_cases(field, rng):
    """(label, slots, fuses): fuses says whether the step before last
    gathers, so that the last two steps are one gather."""
    full = lambda n, k: full_vector(n, k, field, rng)
    sparse = lambda n, idx: ExteriorVector.basis(n, idx, field).scale(field.from_int(3))
    u, u5 = full(3, 1), full(5, 1)
    return [
        ("m=2", [full(4, 2), full(4, 2)], False),
        ("m=3", [full(6, 2), full(6, 2), full(6, 2)], True),
        # Step 1 gathers, so the fused step starts from a running wedge
        # born dense.
        ("m=4", [full(8, 2), full(8, 2), full(8, 2), full(8, 2)], True),
        ("(1,2,3)", [full(6, 1), full(6, 2), full(6, 3)], True),
        ("(2,1,1)", [full(4, 2), full(4, 1), full(4, 1)], True),
        # A one-term slot walks step 1 and leaves 15 terms, the floor of step 2.
        ("sparse slot walks first", [full(8, 2), sparse(8, (3, 5)), full(8, 2), full(8, 2)], True),
        # The one-term slot walks the step before last, so nothing fuses.
        ("sparse slot before last", [full(6, 2), sparse(6, (1, 4)), full(6, 2)], False),
        # Slots born dense, from sums and multiples of dense operands.
        ("dense-born slots", [full(6, 2) + full(6, 2), full(6, 2).scale(field.from_int(5)), -full(6, 2)], True),
        # u ^ u = 0 for odd degree: the product is zero before the last slot.
        ("zero before last", [u, u, full(3, 1)], True),
        # Five slots: the head fold makes two wedge calls before the tail.
        ("m=5", [full(10, 2) for _ in range(5)], True),
        ("(1,1,1,1,1)", [full(5, 1) for _ in range(5)], True),
        # Both head steps scan their pairs (a one-term slot, then 28 terms
        # below the floor of 70) and leave 70 terms, past the tail's floor
        # of 28.
        ("sparse slot in the head", [full(10, 2), sparse(10, (1, 2))] + [full(10, 2)] * 3, True),
        # The head is zero after its first step; zero terms never gather.
        ("zero in the head", [u5, u5] + [full(5, 1) for _ in range(3)], False),
    ]


@pytest.mark.parametrize("field", FUSED_FIELDS, ids=str)
def test_fused_top_step_matches_reference_fold(field, monkeypatch):
    calls = []
    real = exterior._gather_top
    monkeypatch.setattr(exterior, "_gather_top", lambda *args: calls.append(args[3:6]) or real(*args))
    rng = random.Random(21)
    for label, slots, fuses in top_wedge_cases(field, rng):
        calls.clear()
        got = top_wedge_coefficient(slots)
        assert got == reference_top_wedge(slots), label
        assert field.is_element(got), label
        assert len(calls) == fuses, label
        if label == "zero before last":
            assert got == field.zero()


@pytest.mark.parametrize("field", FUSED_FIELDS + [PrimeField(2), PrimeField(3)], ids=str)
def test_unfused_tail_matches_reference_fold(field, monkeypatch):
    # With the tail's exactness check forced False, the last two steps are
    # two wedges, and the step before last still gathers where it fuses.
    def no_fused_step(*args):
        raise AssertionError("fused step taken")

    gathered = []
    real_exact, real_gather = exterior._exact, exterior._gather
    monkeypatch.setattr(exterior, "_gather_top", no_fused_step)
    monkeypatch.setattr(
        exterior, "_gather", lambda *args: gathered.append(args[2:5]) or real_gather(*args)
    )
    for label, slots, fuses in top_wedge_cases(field, random.Random(21)):
        n, a, b = slots[0].n, sum(v.degree for v in slots[:-2]), slots[-2].degree
        tail = math.comb(n, a) * math.comb(n - a, b)
        exact = lambda p, terms: terms != tail and real_exact(p, terms)
        monkeypatch.setattr(exterior, "_exact", exact)
        gathered.clear()
        assert top_wedge_coefficient(slots) == reference_top_wedge(slots), label
        if field in FUSED_FIELDS and len(slots) > 2:
            assert ((n, a, b) in gathered) == fuses, label


def test_fused_table_signs_every_term_by_its_inversions():
    # Each of the T = C(n, a) * C(n - a, b) entries is a disjoint pair (I, J)
    # and the complement of I | J, once each, signed by the parity of the
    # permutation I + J + complement; the one-row table it reads lists the
    # degree-(a + b) masks in lex order.
    for n in range(1, 8):
        full = (1 << n) - 1
        for a in range(n + 1):
            assert (exterior._wedge_gather(n, a, n - a)[0] == np.arange(math.comb(n, a))).all()
            for b in range(n - a + 1):
                u_at, v_at, w_at, sign = exterior._top_gather(n, a, b)
                assert u_at.shape == v_at.shape and w_at.shape == (u_at.shape[0], 1)
                assert sign.size == u_at.size == math.comb(n, a) * math.comb(n - a, b)
                w_at = np.broadcast_to(w_at, u_at.shape)
                seen = set()
                for i, j, k, s in zip(u_at.ravel(), v_at.ravel(), w_at.ravel(), sign):
                    I, J = lex_masks(n, a)[i], lex_masks(n, b)[j]
                    K = lex_masks(n, n - a - b)[k]
                    assert not I & J and I | J | K == full and (I | J) & K == 0
                    order = [MultiIndex(m, n).indices for m in (I, J, K)]
                    assert s == (-1) ** inversions(sum(order, ()))
                    seen.add((I, J))
                assert len(seen) == sign.size


def test_fused_top_guard_at_the_int64_edge():
    # T * p < 2^63 for the T = C(n, a) * C(n - a, b) terms: (30, 2, 9) sits
    # 1% under it and (34, 10, 1) 4% over it at the largest int64 residue
    # prime, although both of (34, 10, 1)'s two steps would gather, so that
    # top wedge falls back to them.  Python ints have no such bound, and the
    # guard implies the guards of both steps.  Only shapes are read.
    p = 3037000493
    under, over = math.comb(30, 2) * math.comb(28, 9), math.comb(34, 10) * math.comb(24, 1)
    assert under * p < 2**63 <= over * p
    assert exterior._exact(p, under) and not exterior._exact(p, over)
    assert exterior._exact(p, math.comb(11, 10)) and exterior._exact(p, math.comb(34, 11))
    for q in (2**61 - 1, None):
        assert exterior._exact(q, over)
    for n in range(2, 40):
        for a in range(n + 1):
            for b in range(n - a + 1):
                if exterior._exact(p, math.comb(n, a) * math.comb(n - a, b)):
                    assert exterior._exact(p, math.comb(a + b, a))
                    assert exterior._exact(p, math.comb(n, a + b))


# -- refusals of operands that do not match ---------------------------------------

# Each checked operation on two degree-2 vectors; polar takes the first as
# the point, twice, and the second as both directions, at order 0, which
# wedges no direction, so only its own checks can refuse one.
CHECKED_OPS = {
    "top_wedge_coefficient": lambda u, v: top_wedge_coefficient([u, v]),
    "wedge": wedge,
    "add": lambda u, v: u + v,
    "polar": lambda u, v: polar(0, PointTuple.of([u, u]), [v, v]),
    "PointTuple.of": lambda u, v: PointTuple.of([u, v]),
}


@pytest.mark.parametrize("op", CHECKED_OPS)
@pytest.mark.parametrize(
    "u, v, message",
    [
        (ev(4, (1, 2), field=F), ev(6, (3, 4), field=F), "mismatch|must share"),
        (ev(4, (1, 2), field=PrimeField(7)), ev(4, (3, 4), field=PrimeField(11)), "field mismatch"),
        (ev(4, (1, 2), field=F), ev(4, (3, 4), field=QQ), "field mismatch"),
    ],
    ids=["n", "F7-F11", "Fp-Q"],
)
def test_mismatched_operands_are_refused(op, u, v, message):
    with pytest.raises(ValueError, match=message):
        CHECKED_OPS[op](u, v)


def test_empty_operands_are_refused():
    w = PointTuple.of([ev(4, (1, 2)), ev(4, (3, 4))])
    with pytest.raises(ValueError, match="empty wedge"):
        top_wedge_coefficient([])
    with pytest.raises(ValueError, match="wrong length"):
        polar(1, w, [])
    with pytest.raises(ValueError, match="empty tuple"):
        PointTuple.of([])


@pytest.mark.parametrize("op", CHECKED_OPS)
def test_equal_fields_that_are_distinct_objects_are_accepted(op):
    # Two PrimeField(7) objects compare equal: the checks compare identity
    # first and fall back to equality, so the result is the one computed
    # with a single field object.
    f, g = PrimeField(7), PrimeField(7)
    assert f is not g and f == g
    u = ev(4, (1, 2), (1, 3), field=f)
    vg, vf = ev(4, (3, 4), (2, 4), field=g), ev(4, (3, 4), (2, 4), field=f)
    assert CHECKED_OPS[op](u, vg) == CHECKED_OPS[op](u, vf)
    if op == "polar":
        w = PointTuple.of([u, u])
        assert [polar(k, w, [vg, vg]) for k in range(3)] == [polar(k, w, [vf, vf]) for k in range(3)]


@pytest.mark.parametrize("field", [F, PrimeField(2**61 - 1)])
@pytest.mark.parametrize("bad, message", [(3, "not an element"), (Fp(3, 5), "mixed moduli")])
def test_dense_wedges_refuse_foreign_coefficients(field, bad, message):
    # The constructor unboxes every coefficient, so no kernel sees a foreign one.
    rng = random.Random(2)
    v = random_exterior(6, 2, field, rng)
    with pytest.raises(ValueError, match=message):
        ExteriorVector(6, 2, {**v.terms, lex_masks(6, 2)[7]: bad}, field)


@pytest.mark.parametrize(
    "field, bad, message",
    [
        (F, 3, "not an element"),
        (F, Fp(3, 5), "mixed moduli"),
        (F, Fraction(1, 2), "not an element"),
        (QQ, 3, "not an element"),
        (QQ, Fp(3, 5), "not an element"),
    ],
)
def test_foreign_coefficients_and_scalars_are_refused(field, bad, message):
    with pytest.raises(ValueError, match=message):
        from_coefficients(4, 2, [field.one()] * 5 + [bad], field)
    u = from_coefficients(4, 2, [field.one()] * 6, field)
    with pytest.raises(ValueError, match=message):
        u.scale(bad)


# -- the unboxed representation against arithmetic on the boxed view ------------


def boxed_sum(s, t):
    """The terms of s + t, added with the field's boxed scalars."""
    out = dict(s)
    for m, c in t.items():
        out[m] = out[m] + c if m in out else c
    return {m: c for m, c in out.items() if c}


@st.composite
def representation_cases(draw):
    """Two vectors of one shape, v sharing some terms of -u so that sums
    cancel, and a scalar."""
    field = draw(st.sampled_from(KERNEL_FIELDS))
    n = draw(st.integers(1, 7))
    k = draw(st.integers(0, n))
    u, v = draw_vector(draw, field, n, k), draw_vector(draw, field, n, k)
    shared = draw(st.lists(st.sampled_from(sorted(u.terms)), max_size=3)) if u.terms else []
    v = ExteriorVector(n, k, {**v.terms, **{m: -u.terms[m] for m in shared}}, field)
    return u, v, field.from_int(draw(st.integers(-(2**70), 2**70)))


@given(representation_cases())
@settings(max_examples=150, deadline=None)
def test_unboxed_arithmetic_matches_the_boxed_view(case):
    u, v, s = case
    field, n, k = u.field, u.n, u.degree
    minus_v = {m: -c for m, c in v.terms.items()}
    for got, want in (
        (u + v, boxed_sum(u.terms, v.terms)),
        (u - v, boxed_sum(u.terms, minus_v)),
        (-v, minus_v),
        (u.scale(s), {m: s * c for m, c in u.terms.items()}),
    ):
        want = {m: c for m, c in want.items() if c}
        assert got == ExteriorVector(n, k, want, field)
        assert dict(got.terms) == want
        assert all(field.is_element(c) for c in got.terms.values())
    assert (u == v) == (dict(u.terms) == dict(v.terms))
    assert ExteriorVector(n, k, v.terms, field) == v
    assert coefficient_vector(u) == [u.terms.get(m, field.zero()) for m in lex_masks(n, k)]
    assert u.to_json()["terms"] == [
        [list(MultiIndex(m, n).indices), field.element_to_str(u.terms[m])]
        for m in sorted(u.terms, key=lambda m: MultiIndex(m, n).indices)
    ]
    assert ExteriorVector.from_json(json.loads(json.dumps(u.to_json())), field) == u


@given(representation_cases())
@settings(max_examples=100, deadline=None)
def test_residue_vector_is_cached_read_only_and_current(case):
    u, v, s = case
    field = u.field
    # Operands with dense vectors already cached must not lend them to the
    # vectors built from them.
    exterior._dense_vector(u), exterior._dense_vector(v)
    built = [u, v, u + v, u - v, -u, u.scale(s)]
    if 2 * u.degree <= u.n:
        built.append(wedge(u, v))
    for i, w in enumerate(built):
        x, d = exterior._dense_vector(w)
        if isinstance(field, PrimeField):
            assert d == 1 and x.dtype == np.dtype(_residue_dtype(field.p))
            assert x.tolist() == [field.unbox(c) for c in coefficient_vector(w)]
        else:
            # A vector born with its dict takes the lcm of its denominators;
            # one born dense keeps the common denominator that built it.
            lcm = math.lcm(*(c.denominator for c in w.terms.values()))
            assert d == lcm if i < 2 else d > 0 and d % lcm == 0
            assert [Fraction(c, d) for c in x.tolist()] == coefficient_vector(w)
        assert all(type(c) is int for c in x.tolist())
        assert exterior._dense_vector(w)[0] is x and not x.flags.writeable
        with pytest.raises(ValueError):
            x[0] = 1


# -- vectors born dense against vectors born with their dict ---------------------

CROSS_FIELDS = [QQ, F, PrimeField(7), PrimeField(3037000493), PrimeField(2**61 - 1)]


def dict_born(u):
    """A fresh copy of u that holds its dict alone."""
    return ExteriorVector(u.n, u.degree, dict(u.terms), u.field)


def dense_born(u, spare=1):
    """A copy of u that holds its dense vector alone; over Q its numerators
    sit over ``spare`` times the lcm of the denominators."""
    x, d = exterior._dense_vector(dict_born(u))
    if u.field is not QQ:
        spare = 1
    return exterior._from_dense(x * spare, d * spare, u.n, u.degree, u.field)


def observed(w):
    """What the API reads off a vector; ``is_zero`` first, before anything
    has built the dict of a vector born dense."""
    zero = w.is_zero
    return (
        zero,
        dict(w.terms),
        w.to_json(),
        [w.coefficient(m) for m in lex_masks(w.n, w.degree)],
        None if zero else w.leading_mask(),
    )


@st.composite
def cross_cases(draw):
    """u and v of one shape, v cancelling some of u's terms; t and rest
    completing u to a top wedge; a scalar; a spare denominator."""
    field = draw(st.sampled_from(CROSS_FIELDS))
    n = draw(st.integers(1, 7))
    k = draw(st.integers(0, n))
    j = draw(st.integers(0, n - k))
    u, v = draw_vector(draw, field, n, k), draw_vector(draw, field, n, k)
    shared = draw(st.lists(st.sampled_from(sorted(u.terms)), max_size=3)) if u.terms else []
    v = ExteriorVector(n, k, {**v.terms, **{m: -u.terms[m] for m in shared}}, field)
    t, rest = draw_vector(draw, field, n, j), draw_vector(draw, field, n, n - k - j)
    c = draw(st.integers(-(2**70), 2**70))
    s = Fraction(c, draw(DENOMINATORS)) if field is QQ else field.from_int(c)
    return u, v, t, rest, s, draw(st.integers(1, 6))


# (name, op): each op takes two vectors of one shape and a scalar.
CROSS_OPS = [
    ("itself", lambda a, b, s: a),
    ("sum", lambda a, b, s: a + b),
    ("difference", lambda a, b, s: a - b),
    ("negative", lambda a, b, s: -b),
    ("multiple", lambda a, b, s: a.scale(s)),
    ("zero multiple", lambda a, b, s: a.scale(a.field.zero())),
    ("sum cancelling to zero", lambda a, b, s: a + (-a)),
    ("difference cancelling to zero", lambda a, b, s: a - a),
]


@given(cross_cases())
@settings(max_examples=200, deadline=None)
def test_vectors_born_dense_match_vectors_born_with_their_dict(case):
    u, v, t, rest, s, spare = case
    lex = exterior._lex_position(u.n, u.degree)
    for name, op in CROSS_OPS:
        want = op(dict_born(u), dict_born(v), s)
        got = op(dense_born(u, spare), dense_born(v), s)
        # Dense operands give a vector born dense; dict operands walk the dicts.
        assert got._dict is None and want._dense is None, name
        x = got._dense[0]
        assert observed(got) == observed(want), name
        assert got == want and want == got, name
        # The dict built from the dense vector is in lex order, and the dense
        # vector stays as it was, read-only.
        assert list(got._coeffs) == sorted(got._coeffs, key=lex.__getitem__), name
        assert exterior._dense_vector(got)[0] is x and not x.flags.writeable, name
        with pytest.raises(ValueError):
            x[0] = 1
        # Wedges read a fresh result's dense vector before any dict is built.
        got = op(dense_born(u, spare), dense_born(v), s)
        assert observed(wedge(got, dense_born(t))) == observed(wedge(want, t)), name
        got = op(dense_born(u, spare), dense_born(v), s)
        top = top_wedge_coefficient([got, dense_born(t), dense_born(rest)])
        assert top == top_wedge_coefficient([want, t, rest]), name


@st.composite
def form_cases(draw):
    """2 or 3 slots, dense or sparse, whose degrees add up to n <= 8."""
    field = draw(st.sampled_from(CROSS_FIELDS))
    n = draw(st.integers(1, 8))
    cut = sorted(draw(st.lists(st.integers(0, n), min_size=1, max_size=2)))
    degrees = [b - a for a, b in zip([0] + cut, cut + [n])]
    return [draw_vector(draw, field, n, k) for k in degrees]


def _sparse_slots(field):
    """Three two-term slots on six letters: sparse vectors that scan their
    pairs whichever form they hold."""
    e = lambda *i: ExteriorVector.basis(6, i, field)
    two = field.from_int(2)
    return [e(1, 2) + e(3, 4).scale(two), e(5, 6) - e(1, 3), e(3, 5) + e(2, 4)]


@given(form_cases())
@settings(max_examples=150, deadline=None)
def test_wedges_agree_whichever_form_each_operand_holds(slots):
    # The route reads term counts, not forms: all four pairings of dict-born
    # and dense-born operands take one route, and they, and every assignment
    # of forms to the slots of a top wedge, give the reference result.
    for slots in (slots, _sparse_slots(slots[0].field)):
        u, v = slots[:2]
        want = reference_wedge(u, v)
        p, counts = exterior._modulus(u.field), (len(u.terms), len(v.terms))
        gathers = exterior._gathers(p, u.n, u.degree, v.degree, *counts)
        for fu, fv in itertools.product((dict_born, dense_born), repeat=2):
            got = wedge(fu(u), fv(v))
            assert (got._dict is None) == gathers
            assert observed(got) == observed(want)
        top = want
        for w in slots[2:]:
            top = reference_wedge(top, w)
        top = top.coefficient((1 << u.n) - 1)
        for forms in itertools.product((dict_born, dense_born), repeat=len(slots)):
            assert top_wedge_coefficient([f(w) for f, w in zip(forms, slots)]) == top


# -- dense arithmetic at the smallest primes against the dict walk ---------------

# Over F_2 and F_3 sums cancel and signs fold onto few residues.  C(6, 2) = 15
# coordinates reduce by ``%`` and C(12, 6) = 924 by the floor remainder, on
# either side of ``_mod_p``'s size rule.
SMALL_PRIMES = [PrimeField(2), PrimeField(3)]


def walked(u, v):
    """u ^ v by the dict walk alone, whatever route ``wedge`` takes."""
    p = exterior._modulus(u.field)
    terms = exterior._wedge_walk(u._coeffs, v._coeffs, p)
    return ExteriorVector._trusted(u.n, u.degree + v.degree, terms, u.field)


@pytest.mark.parametrize("field", SMALL_PRIMES, ids=str)
@pytest.mark.parametrize("n, k", [(6, 2), (12, 6)])
def test_dense_sums_and_multiples_at_p_2_and_3_match_the_dict_walk(field, n, k):
    rng = random.Random(n * field.p)
    masks = lex_masks(n, k)
    for _ in range(2):
        u, v = (ExteriorVector(n, k, {m: field.sample(rng) for m in masks}, field) for _ in "uv")
        for s in range(field.p):
            for name, op in CROSS_OPS:
                want = op(dict_born(u), dict_born(v), field.from_int(s))
                got = op(dense_born(u), dense_born(v), field.from_int(s))
                assert got._dict is None and want._dense is None, name
                assert observed(got) == observed(want), (name, s)


@pytest.mark.parametrize("field", SMALL_PRIMES, ids=str)
@pytest.mark.parametrize("n, a, b", [(6, 2, 2), (10, 3, 4), (12, 3, 3)])
def test_dense_wedge_at_p_2_and_3_matches_the_dict_walk(field, n, a, b):
    # (6, 2, 2) gathers 90 products into 15 sums, (10, 3, 4) 4200 into 120
    # and (12, 3, 3) 18480 into 924.
    rng = random.Random(n * field.p)
    u, v = full_vector(n, a, field, rng), full_vector(n, b, field, rng)
    for x, y in [(u, v), (-u, v), (u, -v)]:
        got = wedge(dense_born(x), dense_born(y))
        assert got._dict is None
        assert observed(got) == observed(walked(x, y))


@pytest.mark.parametrize("field", SMALL_PRIMES, ids=str)
@pytest.mark.parametrize("n, k", [(6, 2), (9, 3)])
def test_fused_top_wedge_at_p_2_and_3_matches_the_dict_walk(field, n, k, monkeypatch):
    # Three dense degree-k slots: T = 90 signed terms at (6, 2) and 1680 at
    # (9, 3), one gather.
    calls = []
    real = exterior._gather_top
    monkeypatch.setattr(exterior, "_gather_top", lambda *args: calls.append(args[3:6]) or real(*args))
    rng = random.Random(n * field.p)
    slots = [full_vector(n, k, field, rng) for _ in range(3)]
    want = walked(walked(*slots[:2]), slots[2]).coefficient((1 << n) - 1)
    assert top_wedge_coefficient([dense_born(w) for w in slots]) == want
    assert calls == [(n, k, k)]


def test_a_chain_of_dense_sums_over_q_stays_over_the_lcm():
    # Summed over the product of the denominators, 40 sums of (6,3) vectors
    # carried a 401-bit denominator against a 12-bit lcm.
    rng = random.Random(3)
    masks = lex_masks(6, 3)
    vectors = [
        ExteriorVector(
            6, 3, {m: Fraction(rng.randint(-50, 50), rng.randint(1, 12)) for m in masks}, QQ
        )
        for _ in range(41)
    ]
    dens = [exterior._dense_vector(dict_born(v))[1] for v in vectors]
    total = dense_born(vectors[0])
    for i, v in enumerate(vectors[1:], 2):
        total = total + dense_born(v)
        assert total._dense[1] == math.lcm(*dens[:i])
    assert total._dict is None
    want = vectors[0]
    for v in vectors[1:]:
        want = want + v
    assert want._dense is None and total == want


@pytest.mark.parametrize("field", CROSS_FIELDS[1:], ids=["fp", "f7", "p3037000493", "p61"])
def test_plucker_embed_points_keep_their_first_term(field):
    # With no zero entry every wedge of the rows gathers, so the point is born
    # dense, and its dict, built in lex order, starts at its leading term,
    # which is the pivot of _wedge_schur.
    rng = random.Random(5)
    for r in (2, 3):
        n = 3 * r
        rows = [[field.from_int(rng.randrange(1, 7)) for _ in range(n)] for _ in range(r)]
        w = plucker_embed(DenseMatrix.from_rows(rows)).plucker
        assert w._dict is None
        lead = w.leading_mask()
        assert next(iter(w._coeffs)) == lead
        by_lex = dict(sorted(w.terms.items(), key=lambda mc: MultiIndex(mc[0], n).indices))
        k, S = exterior._wedge_schur(w, r)
        k_lex, S_lex = exterior._wedge_schur(ExteriorVector(n, r, by_lex, field), r)
        assert k == k_lex and np.array_equal(S, S_lex)


def test_odd_above_gives_merge_parity_exhaustively():
    for n in range(1, 9):
        for mu in range(1 << n):
            I = MultiIndex(mu, n).indices
            rest = ((1 << n) - 1) ^ mu
            sub = rest
            while True:
                J = MultiIndex(sub, n).indices
                assert (sub & _odd_above(mu)).bit_count() & 1 == inversions(I + J) & 1
                if not sub:
                    break
                sub = (sub - 1) & rest


def test_sparse_wedge_in_large_dimension_skips_the_table(monkeypatch):
    # The table for (64, 3, 3) would hold about 1.5e9 masks, so building it
    # is refused here rather than attempted.
    def no_table(*args):
        raise AssertionError(f"wedge table {args} built for a sparse wedge")

    monkeypatch.setattr(exterior, "_wedge_gather", no_table)
    u = ExteriorVector.basis(64, (1, 5, 64), F)
    v = ExteriorVector.basis(64, (2, 3, 4), F) + ExteriorVector.basis(64, (5, 6, 7), F)
    # (1, 5, 64, 2, 3, 4) has six inversions; e_{5,6,7} meets u.
    assert wedge(u, v) == ExteriorVector.basis(64, (1, 2, 3, 4, 5, 64), F)


def _no_table_on(monkeypatch, n):
    """Make building any wedge table on n letters fail."""
    table = exterior._wedge_gather

    def no_table(*args):
        if args[0] == n:
            raise AssertionError(f"wedge table {args} built for a sparse wedge")
        return table(*args)

    monkeypatch.setattr(exterior, "_wedge_gather", no_table)


def _minor(rows, cols):
    r = len(rows)
    return mat_det(DenseMatrix(r, r, tuple(row[j] for row in rows for j in cols)))


@pytest.mark.parametrize("field", [F, PrimeField(2**61 - 1), QQ], ids=["fp", "p61", "q"])
def test_sparse_dense_born_wedge_in_large_dimension_skips_the_table(field, monkeypatch):
    # Two degree-3 vectors with 62 terms each on 64 letters scan their 3844
    # term pairs whichever form they hold; the (64, 3, 3) table of about
    # 1.5e9 masks is never built.  The oracle is mat_det on the 6 x 6 minors
    # of the six rows.
    _no_table_on(monkeypatch, 64)
    e = lambda i: [field.from_int(int(j == i)) for j in range(64)]
    ones, ramp = [field.one()] * 64, [field.from_int(j + 1) / field.from_int(3) for j in range(64)]
    P = plucker_embed(DenseMatrix.from_rows([ones, e(0), e(1)])).plucker
    Q = plucker_embed(DenseMatrix.from_rows([ramp, e(2), e(3)])).plucker
    assert len(P.terms) == len(Q.terms) == 62
    rows = [ones, e(0), e(1), ramp, e(2), e(3)]
    for fu, fv in itertools.product((dict_born, dense_born), repeat=2):
        got = wedge(fu(P), fv(Q))
        assert len(got.terms) == math.comb(60, 2)
        for cols in [(0, 1, 2, 3, 4, 5), (0, 1, 2, 3, 9, 63), (0, 1, 2, 4, 5, 6)]:
            assert got.coefficient(sum(1 << j for j in cols)) == _minor(rows, cols)


@pytest.mark.parametrize("field", [F, PrimeField(2**61 - 1), QQ], ids=["fp", "p61", "q"])
def test_sparse_wide_matrix_embeds_without_the_tables(field, monkeypatch):
    # The rows of these 8 x 64 matrices are sparse, so every step of the fold
    # scans its pairs, and the C(64, 8) vector and its tables are never
    # built: one matrix has nine nonzero columns, the other none zero.
    _no_table_on(monkeypatch, 64)
    zero, half = field.zero(), field.one() / field.from_int(2)
    rows = [[zero] * 64 for _ in range(8)]
    for i in range(8):
        rows[i][8 * i] = field.one()
    rows[0][63] = half
    w = plucker_embed(DenseMatrix.from_rows(rows)).plucker
    e = lambda *i: ExteriorVector.basis(64, i, field)
    # Row 1's entry moves from the first to the last column: seven swaps.
    assert w == e(1, 9, 17, 25, 33, 41, 49, 57) - e(9, 17, 25, 33, 41, 49, 57, 64).scale(half)
    # Row 0 all ones, rows 1-7 the first seven unit rows: every column is
    # nonzero, and the minors on the first seven columns and one more are
    # the 57 nonzero coordinates.
    rows = [[field.one()] * 64] + [[field.from_int(int(j == i)) for j in range(64)] for i in range(7)]
    w = plucker_embed(DenseMatrix.from_rows(rows)).plucker
    assert len(w.terms) == 57
    for cols in [tuple(range(8)), tuple(range(7)) + (63,), (0, 1, 2, 3, 4, 5, 7, 8)]:
        assert w.coefficient(sum(1 << j for j in cols)) == _minor(rows, cols)
    # Fewer nonzero columns than rows: every minor vanishes.
    rows = [[field.one()] * 2 + [zero] * 62 for _ in range(3)]
    with pytest.raises(ValueError, match="rank deficient"):
        plucker_embed(DenseMatrix.from_rows(rows))


@pytest.mark.parametrize("field", [F, QQ], ids=["fp", "q"])
def test_square_matrix_of_64_rows_embeds_without_the_tables(field, monkeypatch):
    # At r = n = 64 the last step's table has one row, but the middle steps'
    # would have C(64, 32) = 1.8e18, so the rows fold through wedge, each
    # step scanning one term pair.  Row i is e_{i + 2}, and the last row e_1
    # moves past 63 others.
    _no_table_on(monkeypatch, 64)
    rows = [[field.from_int(int(j == (i + 1) % 64)) for j in range(64)] for i in range(64)]
    w = plucker_embed(DenseMatrix.from_rows(rows)).plucker
    assert w == -ExteriorVector.basis(64, range(1, 65), field)


# -- the residue rank kernel against plain row reduction --------------------------


def reference_rank_mod_p(rows, p):
    """Rank mod p by Gauss-Jordan reduction on lists of Python ints."""
    rows = [[x % p for x in row] for row in rows]
    rank = 0
    for c in range(len(rows[0]) if rows else 0):
        piv = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][c], -1, p)
        for i in range(len(rows)):
            if i != rank and rows[i][c]:
                f = rows[i][c] * inv % p
                rows[i] = [(x - f * y) % p for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def reference_wedge_columns(u, s):
    """The matrix of t |-> u ^ t as its columns u ^ e_t, one per degree-s
    mask t in lex order, each from :func:`reference_wedge`, as unboxed
    entries: residues over F_p, Fractions over Q."""
    field = u.field
    columns = []
    for t in lex_masks(u.n, s):
        image = reference_wedge(u, ExteriorVector(u.n, s, {t: field.one()}, field))
        columns.append([field.unbox(c) for c in coefficient_vector(image)])
    return columns


RANK_FIELDS = [F, PrimeField(2), PrimeField(3), PrimeField(2**61 - 1)]


@st.composite
def rank_inputs(draw, fields, max_n=9):
    field = draw(st.sampled_from(fields))
    n = draw(st.integers(1, max_n))
    a = draw(st.integers(0, n))
    s = draw(st.integers(0, n - a))
    masks = lex_masks(n, a)
    keep = masks if draw(st.booleans()) else draw(st.lists(st.sampled_from(masks), max_size=4))
    coeffs = draw(st.lists(st.integers(-(2**70), 2**70), min_size=len(keep), max_size=len(keep)))
    return ExteriorVector(n, a, {m: field.from_int(c) for m, c in zip(keep, coeffs)}, field), s


@given(rank_inputs(RANK_FIELDS))
@settings(max_examples=120, deadline=None)
def test_wedge_rank_matches_reference_rank_mod_p(case):
    u, s = case
    assert wedge_rank(u, s) == reference_rank_mod_p(reference_wedge_columns(u, s), u.field.p)


# Residues mod 2, 3 and 2^31 - 1 in int64, mod 2^61 - 1 in object arrays, and Q.
SIGN_FIELDS = [PrimeField(2), PrimeField(3), PrimeField(2**31 - 1), PrimeField(2**61 - 1), QQ]


@given(rank_inputs(SIGN_FIELDS, max_n=7), st.sampled_from([1, -1]))
@settings(max_examples=100, deadline=None)
def test_wedge_array_is_the_signed_matrix_of_reference_columns(case, sign):
    # One multiply by the scatter table's signs and the map's sign, then a
    # reduction mod p, against the columns u ^ e_t of the dict walk.
    u, s = case
    p = getattr(u.field, "p", None)
    columns = reference_wedge_columns(u, s)
    want = [[sign * c if p is None else sign * c % p for c in col] for col in columns]
    A = exterior._wedge_array(u, s, sign)
    assert A.dtype == (object if p is None else _residue_dtype(p))
    assert A.T.tolist() == want


def test_scatter_signs_are_the_int64_parities_of_odd_above():
    # Each row of the wedge table lists every splitting of its mask once,
    # with the int64 sign that _wedge_array and _wedge_schur scatter.
    for n in range(1, 8):
        for a in range(n + 1):
            for s in range(n - a + 1):
                u_at, v_at, sign = exterior._wedge_gather(n, a, s)
                assert sign.dtype == np.int64 and sign.shape == u_at.shape == v_at.shape
                mus, ts = lex_masks(n, a), lex_masks(n, s)
                for K, row in zip(lex_masks(n, a + s), zip(u_at, v_at, sign)):
                    pairs = [(mus[i], ts[t], int(c)) for i, t, c in zip(*row)]
                    assert all(mu | t == K and not mu & t for mu, t, _ in pairs)
                    assert len({mu for mu, _, _ in pairs}) == math.comb(a + s, a)
                    for mu, t, c in pairs:
                        assert c == (-1) ** (t & _odd_above(mu)).bit_count()


def test_wedge_table_is_the_sorted_pair_scan():
    for n in range(1, 10):
        for a in range(n + 1):
            for b in range(n - a + 1):
                got, want = exterior._wedge_gather(n, a, b), reference_wedge_gather(n, a, b)
                assert [t.shape for t in got] == [t.shape for t in want], (n, a, b)
                assert all((g == w).all() for g, w in zip(got, want)), (n, a, b)


# Bareiss on 2^70-sized entries: n <= 7 keeps the matrices at 35 x 35 or less.
@given(rank_inputs([QQ], max_n=7))
@settings(max_examples=40, deadline=None)
def test_wedge_rank_over_q_is_bareiss_on_the_boxed_matrix(case):
    u, s = case
    assert wedge_rank(u, s) == mat_rank(wedge_matrix(u, s))


def test_wedge_rank_of_zero_and_degree_overflow():
    for field in RANK_FIELDS + [QQ]:
        assert wedge_rank(ExteriorVector.zero(6, 2, field), 3) == 0
        with pytest.raises(ValueError, match="overflow"):
            wedge_rank(ExteriorVector.basis(6, (1, 2, 3), field), 4)
        for kernel in (wedge_rank, wedge_matrix):
            with pytest.raises(ValueError, match="negative"):
                kernel(ExteriorVector.basis(5, (1, 2), field), -1)


# -- the Schur complement route of wedge_rank ------------------------------------


def full_rank_mod_p(u, s):
    """rank_mod_p of the whole residue matrix of t |-> u ^ t."""
    p = u.field.p
    return rank_mod_p(exterior._wedge_array(u, s), p)


KERNEL_PRIMES = [f for f in KERNEL_FIELDS if f is not QQ]


@given(rank_inputs(KERNEL_PRIMES), st.data())
@settings(max_examples=150, deadline=None)
def test_wedge_rank_matches_rank_of_the_whole_array(case, data):
    u, s = case
    assert wedge_rank(u, s) == full_rank_mod_p(u, s)
    if not u.is_zero:
        # Another lex-first term, so another pivot, against the whole array;
        # moving a term to the front of the dict does not choose the pivot.
        first = data.draw(st.sampled_from(sorted(u._coeffs)))
        v = with_pivot(u, first)
        assert wedge_rank(v, s) == full_rank_mod_p(v, s)
        moved = {first: u._coeffs[first], **u._coeffs}
        w = ExteriorVector._trusted(u.n, u.degree, moved, u.field)
        assert next(iter(w._coeffs)) == first
        assert wedge_rank(w, s) == wedge_rank(u, s)


# (4, 3) over 2^61 - 1 is left out: its 425 x 70 x 425 product of Python ints
# takes about 0.6 s.
@pytest.mark.parametrize(
    "r, field",
    [(r, f) for r in (2, 3, 4) for f in (F, PrimeField(2), PrimeField(3037000493), PrimeField(2**61 - 1))
     if r < 4 or f.p != 2**61 - 1],
)
def test_members_have_zero_schur_complement(r, field):
    w = random_grass_point(r, 3 * r, field, random.Random(r)).plucker
    k, S = exterior._wedge_schur(w, r)
    assert k == math.comb(2 * r, r) and S.shape == (
        math.comb(3 * r, 2 * r) - k, math.comb(3 * r, r) - k
    )
    assert not S.any()
    assert wedge_rank(w, r) == math.comb(2 * r, r)


def test_sparse_wedge_rank_skips_zero_row_blocks(monkeypatch):
    # e_123 + e_145 = e_1 ^ (e_23 + e_45) is not decomposable.  Pivoting on
    # e_123, the 175 rows of X beyond the diagonal block are nonzero only at
    # e_145 | t with t inside {6, ..., 10}: 10 rows, so some 64-row blocks of
    # X are all zero.
    blocks = []
    submul = exterior.submul_mod_p

    def recording(S, X, Y, p):
        blocks.extend(X[i : i + 64].any() for i in range(0, len(X), 64))
        submul(S, X, Y, p)

    monkeypatch.setattr(exterior, "submul_mod_p", recording)
    for field in KERNEL_PRIMES:
        u = ev(10, (1, 2, 3), (1, 4, 5), field=field)
        assert wedge_rank(u, 3) == full_rank_mod_p(u, 3) > math.comb(7, 3)
    assert True in blocks and False in blocks


def test_wedge_rank_with_an_inner_dimension_of_several_chunks():
    # p = 3037000493 chunks the product's inner dimension by 90; the diagonal
    # block of a degree-2 term in wedge^4 of an 11-dimensional space is
    # C(9, 4) = 126 wide.
    field = PrimeField(3037000493)
    u = random_exterior(11, 2, field, random.Random(7))
    u = ExteriorVector._trusted(11, 2, dict(list(u._coeffs.items())[::9]), field)
    k, S = exterior._wedge_schur(u, 4)
    assert k == math.comb(9, 4) and S.any()
    assert wedge_rank(u, 4) == full_rank_mod_p(u, 4)



# -- the Schur complement scattered from the pivot table -------------------------


def reference_schur(u, s):
    """(k, S) as :func:`exterior._wedge_schur` defines them, cut out of the
    whole matrix: ``_wedge_array``, then S, X and Y by ``np.ix_`` around the
    block of u's lex-first term, its rows and columns and signs read off the
    masks.  Over F_p, then ``submul_mod_p``.  Over Q, with u = x / d, the
    Fraction complement S - X D^-1 Y of d times the array, times its pivot
    c_0 = x[i0]."""
    p, n = getattr(u.field, "p", None), u.n
    A = exterior._wedge_array(u, s)
    mu0 = u.leading_mask()
    c0, odd = u._coeffs[mu0], _odd_above(mu0)
    ts = [t for t in lex_masks(n, s) if not t & mu0]
    row_at, col_at = exterior._lex_position(n, u.degree + s), exterior._lex_position(n, s)
    rows0, cols0 = [row_at[mu0 | t] for t in ts], [col_at[t] for t in ts]
    rest_rows = np.delete(np.arange(A.shape[0]), rows0)
    rest_cols = np.delete(np.arange(A.shape[1]), cols0)
    if p is None:
        _, d = exterior._dense_vector(u)
        A, c0 = A * d, c0 * d
        signs = [(-1) ** (t & odd).bit_count() for t in ts]
        d_inv = np.array([Fraction(sign, c0) for sign in signs], dtype=object)
        S = A[np.ix_(rest_rows, rest_cols)]
        X, Y = A[np.ix_(rest_rows, cols0)] * d_inv, A[np.ix_(rows0, rest_cols)]
        return len(cols0), c0 * (S - X @ Y)
    inv = pow(c0, -1, p)
    d_inv = np.array([inv if (t & odd).bit_count() % 2 == 0 else p - inv for t in ts], dtype=A.dtype)
    S = A[np.ix_(rest_rows, rest_cols)]
    X, Y = A[np.ix_(rest_rows, cols0)] * d_inv % p, A[np.ix_(rows0, rest_cols)]
    submul_mod_p(S, X, Y, p)
    return len(cols0), S


def with_pivot(u, mu, c=1):
    """u without its terms before mu in lex order, so that the term at mu,
    its lex-first, is the pivot of ``_wedge_schur``; coefficient c if u has
    no such term."""
    position = exterior._lex_position(u.n, u.degree)
    coeffs = {m: x for m, x in u._coeffs.items() if position[m] > position[mu]}
    coeffs[mu] = u._coeffs.get(mu, c)
    return ExteriorVector._trusted(u.n, u.degree, coeffs, u.field)


def assert_schur_matches_reference(u, s):
    k, S = exterior._wedge_schur(u, s)
    k_ref, S_ref = reference_schur(u, s)
    assert k == k_ref and S.dtype == S_ref.dtype and S.shape == S_ref.shape
    assert S.tolist() == S_ref.tolist()
    if u.field == QQ:  # integers, not Fractions that equal them
        assert all(type(e) is int for e in S.ravel().tolist())


# Primes for the images mod p of the integer complement: int64 residues and
# Python ints, then small ones in case c_0 or d is a multiple of the large.
IMAGE_PRIMES = [2**31 - 1, 2**61 - 1, 3037000493, 1000003, 101, 103]


def assert_integer_schur_reduces_to_the_prime_ones(u, s):
    """S' mod p = c_0 d S_p, for the first two primes p of ``IMAGE_PRIMES``
    that divide neither c_0 nor d: with u = x / d, the wedge map of x is d
    times that of u, and S_p, the F_p complement of u mod p, is S' / (c_0 d).
    """
    k, S = exterior._wedge_schur(u, s)
    x, d = exterior._dense_vector(u)
    c0 = x[np.flatnonzero(x)[0]]
    primes = [p for p in IMAGE_PRIMES if c0 % p and d % p][:2]
    assert len(primes) == 2
    for p in primes:
        field = PrimeField(p)
        terms = {m: Fp(c.numerator, p) / Fp(c.denominator, p) for m, c in u._coeffs.items()}
        k_p, S_p = exterior._wedge_schur(ExteriorVector(u.n, u.degree, terms, field), s)
        assert k_p == k and S_p.shape == S.shape
        assert (S % p).tolist() == (S_p.astype(object) * (c0 * d) % p).tolist()


@st.composite
def schur_inputs(draw, fields=KERNEL_PRIMES, max_n=9):
    """A nonzero vector, dense or sparse, on at most max_n letters over one
    of ``fields`` (the kernel primes by default), with a drawn term as the
    pivot (so i0 varies), and s, drawn often at 0 and n - a."""
    field = draw(st.sampled_from(fields))
    n = draw(st.integers(1, max_n))
    a = draw(st.integers(0, n))
    s = draw(st.sampled_from([0, n - a]) | st.integers(0, n - a))
    u = draw_vector(draw, field, n, a)
    assume(not u.is_zero)
    return with_pivot(u, draw(st.sampled_from(sorted(u._coeffs)))), s


@given(schur_inputs())
@settings(max_examples=120, deadline=None)
def test_schur_scatter_matches_the_whole_array_construction(case):
    assert_schur_matches_reference(*case)


@pytest.mark.parametrize("field", KERNEL_PRIMES)
def test_schur_scatter_for_every_pivot_and_at_the_edge_degrees(field):
    u = random_exterior(6, 2, field, random.Random(5))
    for mu in lex_masks(6, 2):  # all 15 lex-first pivots of a dense (2, 3) vector
        assert_schur_matches_reference(with_pivot(u, mu), 2)
    info = exterior._schur_scatter.cache_info()
    assert info.maxsize == 16 and info.currsize <= info.maxsize
    # s = 0 (one column), a + s = n (one row), and degrees 0 and n, at every
    # lex-first pivot.
    for a, s in [(2, 0), (2, 4), (0, 3), (6, 0)]:
        v = random_exterior(6, a, field, random.Random(a))
        for mu in lex_masks(6, a):
            assert_schur_matches_reference(with_pivot(v, mu), s)


# Over Q the complement is c_0 times the Fraction one, on Python ints; n <= 7
# keeps the Fraction reference at 35 x 35 or less.
@given(schur_inputs([QQ], max_n=7))
@settings(max_examples=60, deadline=None)
def test_integer_schur_step_matches_the_fraction_complement(case):
    assert_schur_matches_reference(*case)
    assert_integer_schur_reduces_to_the_prime_ones(*case)


def test_integer_schur_step_for_every_pivot_and_at_the_edge_degrees():
    u = random_exterior(6, 2, QQ, random.Random(5))
    for mu in lex_masks(6, 2):  # all 15 lex-first pivots of a dense (2, 3) vector
        assert_schur_matches_reference(with_pivot(u, mu), 2)
        assert_integer_schur_reduces_to_the_prime_ones(with_pivot(u, mu), 2)
    # s = 0 (one column), a + s = n (one row), and degrees 0 and n, at every
    # lex-first pivot.
    for a, s in [(2, 0), (2, 4), (0, 3), (6, 0)]:
        v = random_exterior(6, a, QQ, random.Random(a))
        for mu in lex_masks(6, a):
            assert_schur_matches_reference(with_pivot(v, mu), s)
            assert_integer_schur_reduces_to_the_prime_ones(with_pivot(v, mu), s)


@pytest.mark.parametrize("member", [True, False])
def test_wedge_rank_over_q_is_bareiss_on_the_whole_map_at_three_three(member):
    # The 84 x 84 map of t |-> w ^ t on wedge^3 of a 9-dimensional space.
    rng = random.Random(9)
    w = random_grass_point(3, 9, QQ, rng).plucker if member else random_exterior(9, 3, QQ, rng)
    rank = mat_rank(wedge_matrix(w, 3))
    assert wedge_rank(w, 3) == rank
    assert (rank == math.comb(6, 3)) is member


def test_wedge_rank_of_zero_builds_no_schur_complement(monkeypatch):
    monkeypatch.setattr(exterior, "_wedge_schur", None)  # any call raises
    for field in KERNEL_PRIMES:
        zero = ExteriorVector.zero(6, 2, field)
        assert wedge_rank(zero, 3) == 0
        for s, message in [(-1, "negative"), (5, "overflow")]:
            with pytest.raises(ValueError, match=message):
                wedge_rank(zero, s)


# -- contraction and the decomposability oracle -------------------------------


def test_contract_examples():
    assert contract(MultiIndex.from_indices((1,), 4), ev(4, (1, 2))) == ev(4, (2,))
    assert contract(MultiIndex.from_indices((2,), 4), ev(4, (1, 2))) == -1 * ev(4, (1,))
    assert contract(MultiIndex.from_indices((3,), 4), ev(4, (1, 2))).is_zero


def test_contract_degree_mismatch():
    with pytest.raises(ValueError):
        contract(MultiIndex.from_indices((1, 2), 4), ev(4, (1, 2)))


def test_relations_basis_vector():
    assert plucker_relations_hold(ev(6, (1, 2)))


def test_relations_reject_sum_of_disjoint_blades():
    assert not plucker_relations_hold(ev(6, (1, 2), (3, 4)))


def test_relations_accept_factorable_sum():
    # e12 + e13 = e1 ^ (e2 + e3)
    assert plucker_relations_hold(ev(6, (1, 2), (1, 3)))


def test_relations_zero_vector_rejected():
    with pytest.raises(ValueError):
        plucker_relations_hold(ExteriorVector.zero(6, 2, QQ))


def test_relations_completeness_degree_two():
    # In degree 2 the relations reduce to the vanishing of the square.
    rng = random.Random(31)
    for _ in range(40):
        w = random_exterior(6, 2, F, rng)
        assert plucker_relations_hold(w) == wedge(w, w).is_zero


# -- generation and serialization ---------------------------------------------


def test_random_exterior_shape_and_determinism():
    w1 = random_exterior(6, 2, F, random.Random(4))
    w2 = random_exterior(6, 2, F, random.Random(4))
    assert w1 == w2
    assert len(w1.terms) == 15  # dense with overwhelming probability


def test_random_exterior_degree_error():
    with pytest.raises(ValueError):
        random_exterior(4, 5, QQ, random.Random(0))


class NoDraws(random.Random):
    def randrange(self, *args, **kwargs):
        raise AssertionError("sampled a coefficient before refusing the input")


@pytest.mark.parametrize("n", [0, 65])
def test_random_exterior_refuses_ambient_dimension_before_sampling(n):
    # C(65, 4) is about 680000 coefficients: the refusal comes first.
    for field in (F, QQ):
        with pytest.raises(ValueError, match="1..64"):
            random_exterior(n, 4, field, NoDraws(0))


def test_repr_lists_terms_in_lex_order():
    F7 = PrimeField(7)
    assert repr(ExteriorVector.zero(4, 2, F7)) == "ExteriorVector(0; n=4, k=2)"
    u = ExteriorVector(4, 2, {0b1100: F7.from_int(1), 0b0011: F7.from_int(3)}, F7)
    assert repr(u) == "Fp(3 mod 7)*e[1, 2] + Fp(1 mod 7)*e[3, 4]"
    assert repr(ev(4, (2, 3))) == "Fraction(1, 1)*e[2, 3]"


def test_json_roundtrip_exact():
    rng = random.Random(8)
    for field in (QQ, F):
        w = random_exterior(6, 2, field, rng)
        data = json.loads(json.dumps(w.to_json()))
        assert ExteriorVector.from_json(data, field) == w


def test_json_with_a_zero_denominator_is_refused():
    # A counterexample is read back through from_json: a corrupt coefficient
    # is a ValueError, as an index out of range is.
    data = {"n": 4, "degree": 2, "terms": [[[1, 2], "1/1"], [[3, 4], "1/0"]]}
    with pytest.raises(ValueError, match="zero denominator"):
        ExteriorVector.from_json(data, QQ)


@pytest.mark.parametrize("key", ["n", "degree", "terms"])
def test_json_with_a_missing_key_is_refused(key):
    data = {"n": 4, "degree": 2, "terms": [[[1, 2], "1/1"]]}
    del data[key]
    with pytest.raises(ValueError, match=f"lacks {key}"):
        ExteriorVector.from_json(data, QQ)


@pytest.mark.parametrize(
    "change",
    [{"terms": [[1, 2]]}, {"terms": [[[1, 2], 3]]}, {"n": "4"}],
    ids=["term-not-a-pair", "coefficient-not-a-string", "n-a-string"],
)
def test_json_with_a_value_of_the_wrong_type_is_refused(change):
    data = {"n": 4, "degree": 2, "terms": [[[1, 2], "1"]], **change}
    for field in (QQ, F):
        with pytest.raises(ValueError):
            ExteriorVector.from_json(data, field)


def test_json_term_format():
    w = ev(6, (1, 2)) + 3 * ev(6, (3, 4))
    data = w.to_json()
    assert data["n"] == 6 and data["degree"] == 2
    assert data["terms"] == [[[1, 2], "1/1"], [[3, 4], "3/1"]]


def test_normalized_leading_coefficient():
    w = 4 * ev(6, (2, 3)) + 2 * ev(6, (1, 4))
    nw = w.normalized()
    # (1,4) precedes (2,3) in index-tuple order
    assert nw.coefficient(MultiIndex.from_indices((1, 4), 6)) == QQ.one()
    assert nw == w.scale(QQ.from_int(1) / QQ.from_int(2))


def test_top_wedge_coefficient():
    slots = [ev(4, (1, 2)), ev(4, (3, 4))]
    assert top_wedge_coefficient(slots) == QQ.one()
    with pytest.raises(ValueError):
        top_wedge_coefficient([ev(4, (1, 2))])


def test_ambient_dimension_cap():
    with pytest.raises(ValueError):
        ExteriorVector.zero(65, 1, QQ)


@pytest.mark.parametrize("n", [0, -1, 65])
def test_multi_index_refuses_an_ambient_dimension_outside_1_to_64(n):
    with pytest.raises(ValueError, match="ambient dimension must be in 1..64"):
        MultiIndex(0, n)


@pytest.mark.parametrize("mask, n", [(1 << 3, 3), (0b1001, 3), (1 << 64, 64), (-1, 5)])
def test_multi_index_refuses_a_mask_with_bits_beyond_n(mask, n):
    with pytest.raises(ValueError, match="bits outside the ambient dimension"):
        MultiIndex(mask, n)
    assert MultiIndex((1 << n) - 1, n).degree == n


# -- refusals and shortcuts -----------------------------------------------------


@pytest.mark.parametrize(
    "indices, message",
    [((0, 2), "index 0 out of range 1..4"), ((1, 5), "index 5 out of range 1..4"), ((2, 3, 2), "repeated index 2")],
)
def test_indices_out_of_range_or_repeated_are_refused(indices, message):
    with pytest.raises(ValueError, match=message):
        MultiIndex.from_indices(indices, 4)
    with pytest.raises(ValueError, match=message):
        ExteriorVector.basis(4, indices, QQ)


@pytest.mark.parametrize("degree", [-1, 5])
def test_exterior_vector_refuses_a_degree_out_of_range(degree):
    with pytest.raises(ValueError, match="degree out of range"):
        ExteriorVector(4, degree, {}, QQ)


@pytest.mark.parametrize("mask", [0b111, 0b1, 0b10001])
def test_exterior_vector_refuses_a_mask_of_the_wrong_degree_or_range(mask):
    with pytest.raises(ValueError, match="has wrong degree or range"):
        ExteriorVector(4, 2, {mask: QQ.one()}, QQ)


def test_zero_vector_has_no_leading_mask():
    with pytest.raises(ValueError, match="zero vector has no leading term"):
        ExteriorVector.zero(4, 2, QQ).leading_mask()


def test_contract_refuses_a_covector_on_another_ambient_dimension():
    with pytest.raises(ValueError, match="ambient dimension mismatch"):
        contract(MultiIndex.from_indices((1,), 5), ev(4, (1, 2)))


def test_lex_masks_of_a_degree_outside_0_to_n_are_empty():
    assert lex_masks(3, -1) == lex_masks(3, 4) == ()
    assert lex_masks(3, 0) == (0,) and lex_masks(3, 3) == (0b111,)


@pytest.mark.parametrize("field", [QQ, F], ids=["q", "fp"])
def test_plucker_relations_hold_below_degree_two_and_at_top_degree(field):
    # Every vector of degree 0, 1 or n is decomposable, so the test returns
    # True without contracting.
    one = field.one()
    for w in (
        ExteriorVector(4, 0, {0: one}, field),
        ExteriorVector(4, 1, {0b1: one, 0b10: one, 0b1000: one}, field),
        ExteriorVector(3, 3, {0b111: one + one}, field),
    ):
        assert plucker_relations_hold(w)
