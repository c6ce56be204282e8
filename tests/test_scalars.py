import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import loop_rank_mod_p, mat_rank, mat_vec, random_matrix, rows_of, transpose
from pluckerlab import exterior
from pluckerlab.exterior import ExteriorVector, plucker_relations_hold, random_exterior
from pluckerlab.scalars import (
    DEFAULT_PRIME,
    DenseMatrix,
    Fp,
    PrimeField,
    QQ,
    _FLOOR_FROM,
    _PANEL,
    _eliminate,
    _mod_p,
    _residue_dtype,
    field_from_name,
    mat_det,
    poly_interpolate,
    rank_mod_p,
    submul_mod_p,
)

F = PrimeField()

rationals = st.builds(Fraction, st.integers(-100, 100), st.integers(1, 10))
fp_elems = st.integers(0, DEFAULT_PRIME - 1).map(lambda v: Fp(v, DEFAULT_PRIME))


@given(st.one_of(rationals, fp_elems), st.one_of(rationals, fp_elems), st.one_of(rationals, fp_elems))
@settings(max_examples=100, deadline=None)
def test_field_axioms(a, b, c):
    if type(a) is not type(b) or type(b) is not type(c):
        return
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert not (a + (-a))
    if a:
        one = a / a
        assert a * (one / a) == one
        assert one * b == b


def test_inverses():
    a = Fp(12345, DEFAULT_PRIME)
    assert a * (Fp(1, DEFAULT_PRIME) / a) == Fp(1, DEFAULT_PRIME)
    q = Fraction(7, 3)
    assert q * (1 / q) == 1


@pytest.mark.parametrize("field", [QQ, F, PrimeField(7)], ids=["q", "fp", "f7"])
def test_negative_power_of_zero_divides_by_zero(field):
    # As division by zero does in both fields, and Fraction(0) ** -1 does.
    with pytest.raises(ZeroDivisionError):
        field.zero() ** -1
    assert field.from_int(3) ** -2 * field.from_int(9) == field.one()


def test_mixed_modulus_rejected():
    with pytest.raises(ValueError):
        Fp(1, 7) + Fp(1, 11)


def test_int_minus_fp_and_division_by_zero():
    assert 5 - Fp(3, 7) == Fp(2, 7) and 1 - Fp(3, 7) == Fp(5, 7)
    with pytest.raises(TypeError):
        1.5 - Fp(3, 7)
    for zero in (Fp(0, 7), 0, 7):
        with pytest.raises(ZeroDivisionError, match="division by zero"):
            Fp(3, 7) / zero


def test_rank_identity():
    for field in (QQ, F):
        rows = [[field.one() if i == j else field.zero() for j in range(3)] for i in range(3)]
        assert mat_rank(DenseMatrix.from_rows(rows)) == 3


def test_rank_zero_matrix():
    assert mat_rank(DenseMatrix(4, 7, (QQ.zero(),) * 28)) == 0
    assert mat_rank(DenseMatrix(4, 7, (F.zero(),) * 28)) == 0


def test_rank_proportional_rows():
    M = DenseMatrix.from_rows(
        [[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]]
    )
    assert mat_rank(M) == 1


def test_rank_fractional_entries():
    M = DenseMatrix.from_rows(
        [
            [Fraction(1, 2), Fraction(1, 3), Fraction(1)],
            [Fraction(3, 2), Fraction(1), Fraction(3)],
            [Fraction(1), Fraction(2, 3), Fraction(2)],
        ]
    )
    # Rows 2 and 3 are multiples of row 1.
    assert mat_rank(M) == 1


def test_rank_transpose_invariance():
    rng = random.Random(5)
    for field in (QQ, F):
        for _ in range(10):
            M = random_matrix(4, 6, field, rng)
            assert mat_rank(M) == mat_rank(transpose(M))


def test_rank_row_operations_invariance():
    rng = random.Random(6)
    for field in (QQ, F):
        M = random_matrix(4, 5, field, rng)
        base = mat_rank(M)
        rows = [list(row) for row in rows_of(M)]
        rows[0], rows[2] = rows[2], rows[0]
        assert mat_rank(DenseMatrix.from_rows(rows)) == base
        c = field.from_int(17)
        rows[1] = [c * x for x in rows[1]]
        assert mat_rank(DenseMatrix.from_rows(rows)) == base


def test_rank_agrees_between_fields_on_integer_matrix():
    # An integer matrix of known rank keeps it over both fields.  In the
    # second the zero middle column has no pivot, and the last row is the
    # first plus twice the second minus the third: rank 3 of 4 x 5.
    cases = [
        ([[1, 2, 3, 4], [2, 4, 6, 8], [0, 1, 1, 0]], 2),
        ([[1, 2, 0, 3, 4], [0, 1, 0, 1, 5], [2, -1, 0, 7, 1], [-1, 5, 0, -2, 13]], 3),
    ]
    for rows_int, rank in cases:
        mq = DenseMatrix.from_rows([[Fraction(x) for x in row] for row in rows_int])
        mf = DenseMatrix.from_rows([[F.from_int(x) for x in row] for row in rows_int])
        assert mat_rank(mq) == mat_rank(mf) == rank


def test_rank_mixed_field_error():
    M = DenseMatrix(1, 2, (Fraction(1), F.one()))
    with pytest.raises(ValueError, match="mixed-field"):
        mat_rank(M)


def test_rank_above_int64_safe_primes():
    # (p - 1)^2 overflows int64 here, so elimination runs on Python ints.
    big = PrimeField(2**61 - 1)
    rng = random.Random(41)
    for _ in range(5):
        A = random_matrix(6, 4, big, rng)
        B = random_matrix(4, 6, big, rng)
        prod = [mat_vec(transpose(B), a) for a in rows_of(A)]
        assert mat_rank(DenseMatrix.from_rows(prod)) == 4


# -- _mod_p against Python's % ----------------------------------------------------

# The int64 primes span p = 2 to 3037000493, the largest whose products of
# two residues fit (p - 1)^2 < 2^63; 2^61 - 1 takes object arrays.
MOD_PRIMES = [2, 3, 2**31 - 1, 3037000493, 2**61 - 1]


def products_and_edges(p, size, rng):
    """``size`` Python ints in [-(p - 1)^2, (p - 1)^2], among them both
    ends, zero, +-1 and the multiples of p next to them."""
    top = (p - 1) ** 2
    edges = [-top, top, 0, 1, -1, p, -p, p - 1, 1 - p, top - top % p, -(top - top % p)]
    return (edges + [rng.randint(-top, top) for _ in range(size)])[:size]


def check_mod_p(a, p):
    """_mod_p(a) reduces a in place, and every entry is Python's v % p."""
    want = [v % p for v in a.ravel().tolist()]
    assert _mod_p(a, p) is a
    assert a.ravel().tolist() == want


@pytest.mark.parametrize("p", MOD_PRIMES)
@pytest.mark.parametrize("size", [1, 15, _FLOOR_FROM - 1, _FLOOR_FROM, 4 * _FLOOR_FROM])
def test_mod_p_matches_python_on_both_sides_of_the_size_rule(p, size):
    rng = random.Random(size)
    check_mod_p(np.array(products_and_edges(p, size, rng), dtype=_residue_dtype(p)), p)


@pytest.mark.parametrize("p", [2, 3, 2**31 - 1, 2147483659, 3037000493])
@pytest.mark.parametrize("size", [15, _FLOOR_FROM, 4 * _FLOOR_FROM])
def test_mod_p_down_to_the_delayed_reduction_bound(p, size):
    # rank_mod_p reduces a panel entry after up to J = (2^63 - p - 1) //
    # (p - 1)^2 deferred updates, so the entry lies in [-J (p - 1)^2, p).
    low = -((2**63 - p - 1) // (p - 1) ** 2) * (p - 1) ** 2
    rng = random.Random(size)
    edges = [low, low + 1, low + -low % p, low + p - 1, -1, 0, p - 1]
    values = (edges + [rng.randrange(low, p) for _ in range(size)])[:size]
    check_mod_p(np.array(values, dtype=np.int64), p)


@pytest.mark.parametrize("p", MOD_PRIMES)
@pytest.mark.parametrize("rows, cols", [(3, 5), (_PANEL, 12), (_PANEL, 40), (64, 64)])
def test_mod_p_matches_python_on_2d_strided_and_fancy_indexed_arrays(p, rows, cols):
    rng = random.Random(rows * cols)
    dtype = _residue_dtype(p)
    values = products_and_edges(p, rows * cols, rng)
    check_mod_p(np.array(values, dtype=dtype).reshape(rows, cols), p)
    # The trailing columns of a panel, as rank_mod_p reduces them: a strided
    # view, reduced in place, its other columns untouched.
    for c in (1, cols // 2):
        T = np.array(values, dtype=dtype).reshape(rows, cols)
        head = T[:, :c].copy()
        check_mod_p(T[:, c:], p)
        assert (T[:, :c] == head).all()
    # A fancy-indexed gather, as _gather reduces it: rows of pair products.
    x = np.array(values, dtype=dtype)
    at = np.array([rng.randrange(x.size) for _ in range(rows * cols)]).reshape(cols, rows)
    check_mod_p(x[at], p)


@pytest.mark.parametrize("p", MOD_PRIMES)
@pytest.mark.parametrize("n, a, b", [(6, 2, 2), (9, 3, 3), (12, 3, 3)])
def test_mod_p_of_signed_gather_sums(p, n, a, b):
    # The row sums of a wedge gather, and of the same gather with every sign
    # flipped: products reduced mod p, then signed, so the rows of one or the
    # other sum below zero.  C(6, 4) = 15 rows fall below the size rule's
    # constant and C(12, 6) = 924 above it.
    u_at, v_at, sign = exterior._wedge_gather(n, a, b)
    rng = random.Random(n)
    dtype = _residue_dtype(p)
    x = [rng.randrange(p) for _ in range(u_at.max() + 1)]
    y = [rng.randrange(p) for _ in range(v_at.max() + 1)]
    prod = _mod_p(np.array(x, dtype=dtype)[u_at] * np.array(y, dtype=dtype)[v_at], p)
    negative = 0
    for signs in (sign, -sign):
        sums = (prod * signs).sum(axis=1)
        negative += int((sums < 0).sum())
        want = [
            sum(s * (x[i] * y[j] % p) for i, j, s in zip(*row)) % p
            for row in zip(u_at.tolist(), v_at.tolist(), signs.tolist())
        ]
        check_mod_p(sums, p)
        assert sums.tolist() == want
    assert negative


def test_rank_mod_p_refuses_a_dtype_other_than_the_residue_dtype():
    # Products of these int64 entries wrap around silently: unchecked, this
    # rank-1 matrix is ranked 2 over 2^61 - 1, with no warning.
    p = 2**61 - 1
    A = np.array([[2**40 + 1, 2**41 + 2], [1, 2]])
    with pytest.raises(ValueError, match="dtype"):
        rank_mod_p(A, p)
    assert rank_mod_p(A.astype(object), p) == 1
    with pytest.raises(ValueError, match="dtype"):
        rank_mod_p(A.astype(object), 7)
    with pytest.raises(ValueError, match="dtype"):
        rank_mod_p(np.eye(2), 7)


@pytest.mark.parametrize("p", [-7, 0, 1, 4, 9, 561, 3215031751, 2**61 - 3, 7.0, Fraction(7)])
def test_rank_mod_p_refuses_a_modulus_that_is_not_prime(p):
    # Unchecked, p = 9 failed inside pow ("base is not invertible") and
    # p = 1 ranked every matrix 0.
    for dtype in (np.int64, object):
        with pytest.raises(ValueError, match="is not prime"):
            rank_mod_p(np.array([[3, 0], [0, 3]], dtype=dtype), p)


@pytest.mark.parametrize("bad", [2.5, Fraction(5, 2), Fraction(5), np.int64(5), True, "5"])
def test_rank_mod_p_refuses_object_entries_that_are_not_python_ints(bad):
    # Unchecked, [[2.5, 5], [1, 2]] was ranked 2 over 2^61 - 1, and a
    # Fraction failed inside pow; numpy integers wrap around inside object
    # arrays as they do in int64 ones.
    p = 2**61 - 1
    A = np.array([[0, 5], [1, 2]], dtype=object)
    A[0, 0] = bad
    with pytest.raises(ValueError, match="must be Python ints, not"):
        rank_mod_p(A, p)
    A[0, 0] = 5 * pow(2, -1, p) % p
    assert rank_mod_p(A, p) == 1


@pytest.mark.parametrize("p", [7, 2**31 - 1, 2**61 - 1])
@pytest.mark.parametrize("at", [(0, 0), (1, 1)])
def test_rank_mod_p_refuses_entries_outside_the_residues(p, at):
    for bad in (p, p + 1, -1):
        A = np.array([[1, 2], [3, 4]], dtype=_residue_dtype(p))
        A[at] = bad
        with pytest.raises(ValueError, match=r"residues in \[0, "):
            rank_mod_p(A, p)


def reference_submul(S, X, Y, p):
    """(S - X Y) mod p on lists of Python ints."""
    k = len(Y)
    return [
        [(S[i][j] - sum(X[i][l] * Y[l][j] for l in range(k))) % p for j in range(len(S[0]))]
        for i in range(len(S))
    ]


def check_submul(S, X, Y, p):
    dtype = _residue_dtype(p)
    out = np.array(S, dtype=dtype)
    submul_mod_p(out, np.array(X, dtype=dtype), np.array(Y, dtype=dtype), p)
    assert out.tolist() == reference_submul(S, X, Y, p)


# The float64 product is exact only while its inner chunks stay below 2^53:
# 2^53 // ((p // 2 + 1) 2^16) is 90 for 3037000493 (the largest prime with an
# int64 residue array) and 128 for 2^31 - 1, so k = 1000 spans several chunks.
SUBMUL_PRIMES = [2, 3, 2**31 - 1, 3037000493, 2**61 - 1]


def odd_limbs_below(p):
    """The largest residue below p whose 16-bit limbs are both odd."""
    y = p - 1 - (p - 1) % 2**16 + 2**16 - 1
    while y >= p or not y >> 16 & 1:
        y -= 2**16
    return y


@pytest.mark.parametrize("p", SUBMUL_PRIMES)
def test_submul_at_the_largest_balanced_and_limb_values(p):
    k = 1000
    # X at p // 2 has the largest balanced magnitude, and p - 1 balances to
    # -1; Y at p - 1 fills both limbs.  Odd products sum to odd integers,
    # which float64 rounds once they pass 2^53, so an X near p // 2 or p - 2
    # (which would not fit unbalanced) and a Y with odd limbs catch a chunk
    # that is too long.
    cases = [(p // 2, p - 1, 0), (p - 1, p - 1, p - 1), (p // 2, p // 2, 1)]
    if p > 2**17:
        y = odd_limbs_below(p)
        cases += [(p // 2 - 1 + p // 2 % 2, y, 0), (p - 2, y, 1)]
    for x_val, y_val, s_val in cases:
        check_submul([[s_val] * 3 for _ in range(2)], [[x_val] * k for _ in range(2)], [[y_val] * 3 for _ in range(k)], p)
    # Entries just below p, where an unbalanced X would be about p.
    rng = random.Random(p)

    def near_top(rows, cols):
        return [[p - 1 - rng.randrange(min(p, 2**12)) for _ in range(cols)] for _ in range(rows)]

    check_submul([[0] * 3] * 2, near_top(2, k), near_top(k, 3), p)


@pytest.mark.parametrize("p", SUBMUL_PRIMES)
def test_submul_matches_python_ints_across_row_blocks_and_chunks(p):
    rng = random.Random(p)
    m, k, n = 150, 300, 5
    S = [[rng.randrange(p) for _ in range(n)] for _ in range(m)]
    X = [[rng.choice((0, 1, p // 2, p - 1, rng.randrange(p))) for _ in range(k)] for _ in range(m)]
    X[64:128] = [[0] * k for _ in range(64)]  # one all-zero block of 64 rows
    Y = [[rng.choice((p - 1, rng.randrange(p))) for _ in range(n)] for _ in range(k)]
    check_submul(S, X, Y, p)


@pytest.mark.parametrize("p", [None, 2**61 - 1], ids=["z", "p61"])
def test_object_submul_over_the_nonzeros_matches_the_dense_product(p):
    # The object branch forms X Y over each inner index's nonzero rows of X
    # and nonzero columns of Y; the oracle is numpy's dense product of the
    # object arrays.  About 16% of X and Y is nonzero, as in the Schur blocks
    # of a (4,3) member over Q, and one inner index has nonzero X entries
    # but an all-zero row of Y.  Over Z the entries are signed and above
    # 2^64; S is updated through a view, as rank_mod_p passes it.
    rng = random.Random(67)
    entry = (lambda: rng.randrange(-(2**70), 2**70)) if p is None else (lambda: rng.randrange(1, p))
    sparse = lambda rows, cols: np.array(
        [[entry() if rng.random() < 0.16 else 0 for _ in range(cols)] for _ in range(rows)],
        dtype=object,
    )
    m, k, n = 40, 12, 30
    X, Y = sparse(m, k), sparse(k, n)
    X[:, 0], Y[0] = entry(), 0
    base = np.array([[entry() for _ in range(n + 3)] for _ in range(m)], dtype=object)
    if p is not None:
        base %= p
    S = base[:, :n]
    want = S - X @ Y if p is None else (S - X @ Y) % p
    submul_mod_p(S, X, Y, p)
    assert S.dtype == object and (base[:, :n] == want).all()



def largest_short_k(p):
    """The largest inner dimension k with k (p // 2)^2 + p < 2^63, the bound
    under which submul_mod_p takes one int64 matmul: 8 at 2^31 - 1 and 4 at
    3037000493.  At p = 2 and 3 it is about 2^63, beyond any array."""
    h = p // 2
    return (2**63 - p - 1) // (h * h)


@pytest.mark.parametrize("p", [2, 3, 2**31 - 1, 3037000493])
def test_submul_int64_route_at_its_bound_and_one_past_it(p):
    # p // 2 and p // 2 + 1 balance to +-p // 2, so every product has the
    # largest magnitude (p // 2)^2, all of one sign along a dot product: the
    # row of p // 2 against the column of p // 2 + 1 sums to -k (p // 2)^2,
    # and an S entry of p - 1 then reaches k (p // 2)^2 + p - 1.  One k past
    # the bound, that sum no longer fits in int64 (it goes to the float
    # route); at p = 2 and 3 both k take the int64 route.  Entries p - 1
    # balance to -1, but near p unbalanced, they would overflow at the bound.
    values = [p // 2, (p // 2 + 1) % p, p - 1]
    k_max = largest_short_k(p)
    for k in (min(k_max, 1000), min(k_max, 1000) + 1):
        X = [[x] * k for x in values]
        Y = [values] * k
        for parity in (0, 1):
            S = [[p - 1 if (i + j) % 2 == parity else 0 for j in range(3)] for i in range(3)]
            check_submul(S, X, Y, p)
    assert largest_short_k(2**31 - 1) == 8


# The blocked kernel against the unblocked loop and the row loop, at the
# panel edges: b - 1, b and b + 1 rows or columns, and 2b + 1, which needs
# three panels, the last of one row.
B = _PANEL
EDGES = (B - 1, B, B + 1, 2 * B + 1)


def random_rows(m, n, p, rng):
    return [[rng.randrange(p) for _ in range(n)] for _ in range(m)]


def times(X, Y, p):
    return [[sum(x * y for x, y in zip(row, col)) % p for col in zip(*Y)] for row in X]


def product(m, n, k, p, rng):
    """A random m x n product of an m x k and a k x n factor: rank at most k."""
    return times(random_rows(m, k, p, rng), random_rows(k, n, p, rng), p)


def edge_shapes(p, rng):
    return [random_rows(m, n, p, rng) for m in EDGES for n in EDGES]


def tall_and_wide(p, rng):
    return [random_rows(m, n, p, rng) for m, n in ((3 * B, 5), (5, 3 * B), (1, 2 * B + 1), (2 * B + 1, 1))]


def zero_panels(p, rng):
    zero = [[0] * (B + 3) for _ in range(B)]
    return [zero + random_rows(B + 1, B + 3, p, rng), [[0] * 4 for _ in range(2 * B + 1)]]


def dependent_panels(p, rng):
    # A second panel of combinations of the first, which the first panel's
    # update zeroes, between two independent ones; then a first panel of
    # rank B // 2 (each row twice), whose rows below still have rank.
    first = random_rows(B, 3 * B + 5, p, rng)
    combos = times(random_rows(B, B, p, rng), first, p)
    half = random_rows(B // 2, 2 * B, p, rng)
    return [
        first + combos + random_rows(B + 1, 3 * B + 5, p, rng),
        half + half + random_rows(B + 1, 2 * B, p, rng),
    ]


def low_rank_products(p, rng):
    return [product(2 * B + 1, 2 * B + 1, k, p, rng) for k in (B // 2, B - 1, B, B + 1, B + 9)]


def wedge_schur_complement(w):
    """The S that ``wedge_rank`` hands to ``rank_mod_p``: its zero rows and
    columns dropped."""
    _, S = exterior._wedge_schur(w, w.degree)
    S = S[S.any(axis=1)]
    return S[:, S.any(axis=0)].tolist()


def classify_33_schur(p, rng):
    field = PrimeField(p)
    while True:
        w = random_exterior(9, 3, field, rng)
        if not plucker_relations_hold(w):
            return [wedge_schur_complement(w)]


def crafted_43_schur(p, rng):
    field = PrimeField(p)
    w = ExteriorVector.basis(12, (1, 2, 3, 4), field) + ExteriorVector.basis(12, (1, 2, 5, 6), field)
    return [wedge_schur_complement(w)]


def sparse_rows(p, rng):
    # Pivot columns with a few nonzero rows, one nonzero row, or none: at
    # most three entries a row, then a single one a row.
    shapes = ((2 * B + 1, 2 * B + 3), (B + 5, 3 * B))
    out = []
    for per_row in (3, 1):
        for m, n in shapes:
            rows = [[0] * n for _ in range(m)]
            for row in rows:
                for j in rng.sample(range(n), per_row):
                    row[j] = rng.randrange(1, p)
            out.append(rows)
    return out


def permutation_like(p, rng):
    # A scaled permutation, the same with rows repeated (rank drops), and one
    # with a dense last row: every column but those of the repeats has a
    # single nonzero row until the last.  Then a dense matrix whose first
    # column is zero on the first row alone: its first pivot is a swap.
    m = 2 * B + 1
    perm = rng.sample(range(m), m)
    scaled = [[rng.randrange(1, p) if j == perm[i] else 0 for j in range(m)] for i in range(m)]
    repeated = scaled[: m - 5] + scaled[:5]
    swap = random_rows(m, m, p, rng)
    for i, row in enumerate(swap):
        row[0] = rng.randrange(1, p) if i else 0
    return [scaled, repeated, scaled[:-1] + random_rows(1, m, p, rng), swap]


def extremal_lu(m, k, p, skip):
    """L U mod p for L (m x k) with 1 on the diagonal and -1 below it (0
    where (i + c) % 3 == 0 when ``skip``) and U (k x m) with -1 on and above
    the diagonal.  Each pivot row is then U's row, all p - 1, and each row
    below is 1 or 0 in the pivot column, so every update subtracts (p - 1)^2
    from every entry of every row it changes: the largest deferred sums.
    The rows past k end as zero mod p, so an entry that left int64 on the
    way shows as a higher rank.  With ``skip`` a row misses every third
    pivot while holding updates."""
    L = [[int(i == c) if c >= i else 0 if skip and (i + c) % 3 == 0 else -1 for c in range(k)] for i in range(m)]
    return [[-sum(L[i][: min(i, j, k - 1) + 1]) % p for j in range(m)] for i in range(m)]


def delayed_updates(p, rng):
    # The panel reduces its entries only when one more update could leave
    # int64 (after 2 updates at 2^31 - 1, 1 above 2^31, never in a panel at
    # small primes); these reach that bound and read entries in between.
    m, n = 2 * B + 1, 3 * B + 5
    # Rows c u + v, with v zero in the first two columns, between dense
    # rows: the first pivot's update leaves them zero mod p in the second
    # column (a multiple of p until reduced) with a deferred update in every
    # later one, so they skip the second pivot.
    u = [rng.randrange(1, p) for _ in range(n)]
    cleared = []
    for _ in range(B):
        c, v = rng.randrange(1, p), [0, 0] + [rng.randrange(p) for _ in range(n - 2)]
        cleared.append([(c * x + y) % p for x, y in zip(u, v)])
    interleaved = [u] + [row for pair in zip(cleared, random_rows(B, n, p, rng)) for row in pair]
    # Every entry p - 1 (rank 1), and a first panel of rank B - 1 whose
    # dependent row is zero mod p in every column after its last pivot, so
    # the panel ends with an update pending.
    top = [[p - 1] * m for _ in range(m)]
    first = random_rows(B - 1, n, p, rng)
    one_short = first + times(random_rows(1, B - 1, p, rng), first, p) + random_rows(B + 1, n, p, rng)
    extremal = [extremal_lu(m, B - 4, p, skip) for skip in (False, True)]
    return extremal + [interleaved, top, one_short]


RANK_FAMILIES = [
    edge_shapes,
    tall_and_wide,
    zero_panels,
    dependent_panels,
    low_rank_products,
    classify_33_schur,
    crafted_43_schur,
    sparse_rows,
    permutation_like,
    delayed_updates,
]

# The submul primes and 2147483659, the smallest prime above 2^31: the
# panel's budget of updates between reductions is the whole panel at 2 and
# 3, 2 at 2^31 - 1 and 1 at 2147483659 and 3037000493, so the rule is met on
# both sides of 2^31; 2^61 - 1 takes object arrays.
RANK_PRIMES = [2, 3, 2**31 - 1, 2147483659, 3037000493, 2**61 - 1]


@pytest.mark.parametrize("family", RANK_FAMILIES, ids=lambda f: f.__name__)
@pytest.mark.parametrize("p", RANK_PRIMES)
def test_blocked_rank_matches_the_loop_kernel_and_the_row_loop(p, family):
    rng = random.Random(p)
    for rows in family(p, rng):
        A = np.array(rows, dtype=_residue_dtype(p))
        want = _eliminate([list(r) for r in rows], p)[0]
        assert loop_rank_mod_p(A.copy(), p) == want
        assert rank_mod_p(A, p) == want, (family.__name__, A.shape)


# The residue determinant of _eliminate, which updates each row at the pivot
# row's nonzeros only, against fraction-free elimination over Z of the same
# integer rows: det mod p must agree, and the rank with the loop kernel.
DET_PRIMES = [2, 3, 7, 2**31 - 1, 3037000493, 2**61 - 1]


def integer_rows(m, n, rng, bound=2**70):
    return [[rng.randrange(-bound, bound) for _ in range(n)] for _ in range(m)]


def dense_squares(rng):
    return [integer_rows(n, n, rng) for n in (1, 2, 5, 12)]


def block_sparse(rng):
    # A P^1 value matrix up to order: r blocks of m x m, one per component,
    # on the diagonal, then rows and columns permuted; the first blocks are
    # Vandermonde, as at m distinct points, the last one random.
    out = []
    for r, m in ((2, 3), (3, 4), (4, 3)):
        n = r * m
        rows = [[0] * n for _ in range(n)]
        for k in range(r):
            xs = rng.sample(range(-50, 50), m)
            block = [[x**a for x in xs] for a in range(m)] if k < r - 1 else integer_rows(m, m, rng)
            for i in range(m):
                rows[k * m + i][k * m : (k + 1) * m] = block[i]
        perm = rng.sample(range(n), n)
        out.append([[row[j] for j in perm] for row in rng.sample(rows, n)])
    return out


def row_swaps(rng):
    # A zero first pivot, and a leading 2 x 2 minor of zero: the second
    # column is zero below the first pivot once the first column is cleared.
    first = integer_rows(6, 6, rng)
    first[0][0] = 0
    second = integer_rows(6, 6, rng)
    second[1] = [2 * x for x in second[0][:2]] + second[1][2:]
    return [first, second]


def zero_column(rng):
    rows = integer_rows(7, 7, rng)
    for row in rows:
        row[3] = 0
    return [rows]


def rank_deficient(rng):
    def product(n, k):
        X, Y = integer_rows(n, k, rng, 2**20), integer_rows(k, n, rng, 2**20)
        return [[sum(x * y for x, y in zip(row, col)) for col in zip(*Y)] for row in X]

    return [product(6, 4), product(9, 8)]


DET_FAMILIES = [dense_squares, block_sparse, row_swaps, zero_column, rank_deficient]


@pytest.mark.parametrize("family", DET_FAMILIES, ids=lambda f: f.__name__)
@pytest.mark.parametrize("p", DET_PRIMES)
def test_sparse_residue_det_matches_bareiss_over_the_integers(p, family):
    rng = random.Random(p)
    for rows in family(rng):
        _, det = _eliminate([row[:] for row in rows], None)
        residues = [[x % p for x in row] for row in rows]
        A = np.array(residues, dtype=_residue_dtype(p))
        rank, det_p = _eliminate(residues, p)
        assert det_p % p == det % p, (family.__name__, len(rows))
        assert rank == loop_rank_mod_p(A, p)
        assert (rank == len(rows)) == (det % p != 0)


@pytest.mark.parametrize(
    "refused, message",
    [
        (lambda: mat_det(DenseMatrix.from_rows([[F.one(), F.zero(), F.one()], [F.one()] * 3])), "non-square"),
        # Six entries for 3 x 2, so only the row check can refuse them.
        (lambda: DenseMatrix.from_rows([[F.one()] * 2, [F.one()], [F.one()] * 3]), "ragged"),
        (lambda: DenseMatrix(2, 2, (F.one(),) * 3), "entries length"),
        (lambda: poly_interpolate([F.zero(), F.one()], [F.one()]), "equally many"),
        (lambda: field_from_name("r"), "unknown field tag"),
    ],
    ids=["non-square det", "ragged rows", "entries length", "unequal interpolation", "unknown field"],
)
def test_determinant_path_refusals(refused, message):
    with pytest.raises(ValueError, match=message):
        refused()


def test_prime_field_rejects_non_primes():
    for bad in (0, 1, 4, 15, 561, 3215031751, 2**64 + 13, 7.0):
        with pytest.raises(ValueError):
            PrimeField(bad)
    for good in (2, 3, 37, 41, DEFAULT_PRIME, 2**61 - 1, 2**64 - 59):
        assert PrimeField(good).p == good


def test_det_of_empty_matrix_is_one():
    det = mat_det(DenseMatrix(0, 0, ()))
    assert det == 1 and type(det) is int
    assert F.one() * det == F.one() and Fraction(1, 3) * det == Fraction(1, 3)


def test_det_examples():
    M = DenseMatrix.from_rows([[Fraction(1), Fraction(2)], [Fraction(3), Fraction(4)]])
    assert mat_det(M) == Fraction(-2)
    P = DenseMatrix.from_rows(
        [
            [F.zero(), F.one(), F.zero()],
            [F.zero(), F.zero(), F.one()],
            [F.one(), F.zero(), F.zero()],
        ]
    )
    assert mat_det(P) == F.one()
    S = DenseMatrix.from_rows([[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]])
    assert mat_det(S) == 0


def test_det_mixed_field_error():
    with pytest.raises(ValueError, match="mixed-field"):
        mat_det(DenseMatrix(2, 2, (F.one(), Fraction(1), F.one(), F.one())))
    with pytest.raises(ValueError, match="mixed-field"):
        mat_det(DenseMatrix(2, 2, (Fraction(1), Fraction(2), F.one(), Fraction(3))))
    with pytest.raises(ValueError, match="mixed-field"):
        mat_det(DenseMatrix(2, 2, (F.one(), F.one(), PrimeField(7).one(), F.one())))
    # Entries that are no field element are refused the same way.
    with pytest.raises(ValueError, match="not a field element"):
        mat_det(DenseMatrix(1, 1, (1,)))


def test_det_multiplicativity():
    rng = random.Random(11)
    A = random_matrix(4, 4, F, rng)
    B = random_matrix(4, 4, F, rng)
    prod_rows = [mat_vec(transpose(B), a) for a in rows_of(A)]
    assert mat_det(DenseMatrix.from_rows(prod_rows)) == mat_det(A) * mat_det(B)


def test_sample_scalar_determinism():
    for field in (QQ, F):
        a = [field.sample(random.Random(42)) for _ in range(1)]
        b = [field.sample(random.Random(42)) for _ in range(1)]
        assert a == b
        r1 = random.Random(7)
        r2 = random.Random(7)
        assert [field.sample(r1) for _ in range(20)] == [field.sample(r2) for _ in range(20)]


def test_sample_scalar_rational_range():
    rng = random.Random(3)
    for _ in range(200):
        x = QQ.sample(rng)
        assert abs(x) <= 100
        assert 1 <= x.denominator <= 10


def test_poly_interpolate_roundtrip():
    rng = random.Random(9)
    for field in (QQ, F):
        coeffs = [field.sample(rng) for _ in range(4)]
        xs = [field.from_int(i) for i in range(4)]
        ys = []
        for x in xs:
            acc = field.zero()
            for c in reversed(coeffs):
                acc = acc * x + c
            ys.append(acc)
        assert poly_interpolate(xs, ys) == coeffs


@pytest.mark.parametrize("field", [QQ, F], ids=["q", "fp"])
def test_poly_interpolate_refuses_repeated_points(field):
    xs = [field.from_int(i) for i in (0, 1, 0)]
    with pytest.raises(ValueError, match="distinct"):
        poly_interpolate(xs, [field.one()] * 3)
    if field is F:
        # Distinct as ints, equal as residues.
        xs = [F.from_int(1), F.from_int(1 + F.p)]
        with pytest.raises(ValueError, match="distinct"):
            poly_interpolate(xs, [F.one(), F.zero()])


F7 = PrimeField(7)


@pytest.mark.parametrize(
    "xs, ys",
    [
        ([F.from_int(0), F.from_int(1)], [1, 2]),
        ([F7.from_int(0), F7.from_int(1)], [F7.one(), 2]),
        ([F.from_int(0), F.from_int(1)], [F.one(), Fraction(1, 2)]),
        ([F7.from_int(0), F7.from_int(1)], [Fraction(1), F7.one()]),
        ([QQ.from_int(0), QQ.from_int(1)], [F.one(), F.one()]),
        ([QQ.from_int(0), QQ.from_int(1)], [QQ.one(), F7.one()]),
        ([0, QQ.one()], [QQ.one(), QQ.one()]),
        ([0, F.one()], [F.one(), F.one()]),
        ([0, F7.one()], [F7.one(), F7.one()]),
        ([F.from_int(0), Fraction(1)], [F.one(), F.one()]),
        ([F.from_int(0), F.from_int(1)], [F.one(), F7.one()]),
    ],
    ids=[
        "int-value-at-fp-points",
        "int-value-at-f7-points",
        "fraction-value-at-fp-points",
        "fraction-value-at-f7-points",
        "fp-values-at-q-points",
        "f7-value-at-q-points",
        "int-first-point-q",
        "int-first-point-fp",
        "int-first-point-f7",
        "fraction-point-among-fp-points",
        "f7-value-at-fp-points",
    ],
)
def test_poly_interpolate_refuses_elements_outside_the_first_points_field(xs, ys):
    with pytest.raises(ValueError):
        poly_interpolate(xs, ys)


@pytest.mark.parametrize("field", [QQ, F, F7, PrimeField(2**61 - 1)], ids=["q", "fp", "f7", "p61"])
def test_poly_interpolate_matches_boxed_lagrange(field):
    # The boxed Lagrange loop the unboxed one replaced, as the reference.
    rng = random.Random(11)
    for n in range(1, 6):
        xs = [field.from_int(i) for i in rng.sample(range(7), n)]
        ys = [field.sample(rng) for _ in range(n)]
        want = [field.zero()] * n
        for i in range(n):
            basis, denom = [field.one()], field.one()
            for j in range(n):
                if j != i:
                    new = [field.zero()] * (len(basis) + 1)
                    for t, c in enumerate(basis):
                        new[t + 1] = new[t + 1] + c
                        new[t] = new[t] - c * xs[j]
                    basis, denom = new, denom * (xs[i] - xs[j])
            w = ys[i] / denom
            want = [a + w * b for a, b in zip(want, basis)]
        got = poly_interpolate(xs, ys)
        assert got == want and all(field.is_element(c) for c in got)


def test_mat_vec():
    M = DenseMatrix.from_rows([[Fraction(1), Fraction(2)], [Fraction(0), Fraction(1)]])
    assert mat_vec(M, [Fraction(3), Fraction(4)]) == [Fraction(11), Fraction(4)]
    with pytest.raises(ValueError):
        mat_vec(M, [Fraction(1)])
