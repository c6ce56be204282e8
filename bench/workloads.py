"""The benchmark workloads: seeded inputs, expected results, and cases.

A case is one verdict.  ``call`` makes the public library calls under test
and is the only part that is timed; ``verify`` compares its result with the
expected value worked out during set-up and returns the case's output string
(verdict tag and codim, multiplicities, polar coefficients or determinant
values), which feeds the output digest.

Expected results come from routes that are independent of the call under
test: the contraction oracle ``exterior.plucker_relations_hold`` and the
closed form ``grassmann.codim_threshold`` for the classifier, the polar
expansion against interpolation of the wedge form for the Taylor identity,
closed forms for the multiplicity of generic, repeated-slot and diagonal
tuples, and the fitted constant of the diagonal factorization for divisor
values on P^1.

Library functions are reached through their module attributes, so that the
traced run sees these calls once it has patched the module namespaces.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from typing import Callable, Optional

from pluckerlab import bundle_pairs_p1 as bp
from pluckerlab import exterior as ex
from pluckerlab import grassmann as gr
from pluckerlab import plucker_form as pf
from pluckerlab import scalars as sc

FP = sc.PrimeField()
M = 3  # number of slots for the classifier and the wedge-form identities


@dataclass
class Case:
    group: str  # input class, e.g. "fp(3,3)member"
    shape: str  # cases of one shape share the library's caches
    call: Callable[[], object]
    verify: Callable[[object], tuple[bool, str]]
    inputs: object  # JSON-ready description of the inputs, for the digest


@dataclass
class Workload:
    cases: list[Case]

    @property
    def warmup(self) -> list[Case]:
        """First case of each shape: enough to fill the library's caches."""
        seen: dict[str, Case] = {}
        for case in self.cases:
            seen.setdefault(case.shape, case)
        return list(seen.values())

    def input_digest(self) -> str:
        return digest(json.dumps([c.inputs for c in self.cases], sort_keys=True))


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# -- classify ---------------------------------------------------------------


def _classify_case(w: ex.ExteriorVector, group: str) -> Case:
    r = w.degree
    threshold = gr.codim_threshold(r, M)
    if ex.plucker_relations_hold(w):
        want = gr.Verdict.IN_GRASSMANNIAN
    elif r % 2 == 0 and not ex.wedge(w, w).is_zero:
        want = gr.Verdict.FAILS_MULTIPLICITY
    else:
        want = gr.Verdict.FAILS_TANGENT_BOUND

    def verify(v) -> tuple[bool, str]:
        out = f"{v.tag.value}:{v.observed_codim}"
        if v.tag is not want or v.threshold != threshold:
            return False, out
        if want is gr.Verdict.IN_GRASSMANNIAN:
            return v.observed_codim == threshold, out
        if want is gr.Verdict.FAILS_TANGENT_BOUND:
            return v.observed_codim > threshold, out
        return True, out

    return Case(
        group,
        f"fp({r},{M})",
        lambda: gr.classify_membership(w, M),
        verify,
        [group, w.to_json()],
    )


def _non_member(r: int, rng: random.Random) -> ex.ExteriorVector:
    while True:
        w = ex.random_exterior(r * M, r, FP, rng)
        if not ex.plucker_relations_hold(w):
            return w


def build_classify(seed: int) -> Workload:
    rng = random.Random(seed)
    plan = [
        (2, "nonmember", 30),
        (2, "member", 56),
        (3, "member", 8),
        (3, "nonmember", 12),
        (4, "crafted", 1),
        (4, "nonmember", 1),
        (4, "member", 1),
    ]
    cases = []
    for r, kind, count in plan:
        group = f"fp({r},{M}){kind}"
        for _ in range(count):
            if kind == "member":
                w = gr.random_grass_point(r, r * M, FP, rng).plucker
            elif kind == "nonmember":
                w = _non_member(r, rng)
            else:  # the square-zero non-member of the acceptance suite
                w = ex.ExteriorVector.basis(12, (1, 2, 3, 4), FP) + ex.ExteriorVector.basis(
                    12, (1, 2, 5, 6), FP
                )
            cases.append(_classify_case(w, group))
    return Workload(cases)


# -- wedge_form ------------------------------------------------------------------


def _polar_case(r: int, rng: random.Random) -> Case:
    n = r * M
    w = pf.PointTuple.of([ex.random_exterior(n, r, FP, rng) for _ in range(M)])
    t = [ex.random_exterior(n, r, FP, rng) for _ in range(M)]
    xs = [FP.from_int(i) for i in range(M + 1)]

    def call():
        coeffs = [pf.polar(k, w, t) for k in range(M + 1)]
        ys = [
            ex.top_wedge_coefficient([w.slots[i] + t[i].scale(x) for i in range(M)])
            for x in xs
        ]
        return coeffs, sc.poly_interpolate(xs, ys)

    def verify(result) -> tuple[bool, str]:
        coeffs, interpolated = result
        return coeffs == interpolated, ",".join(map(FP.element_to_str, coeffs))

    group = f"fp({r},{M})polar"
    inputs = [group, [s.to_json() for s in w.slots], [s.to_json() for s in t]]
    return Case(group, f"fp({r},{M})", call, verify, inputs)


def _multiplicity_case(r: int, kind: str, rng: random.Random) -> Case:
    n = r * M
    a = ex.random_exterior(n, r, FP, rng)
    b = ex.random_exterior(n, r, FP, rng)
    if kind == "random":
        slots = [a, b, ex.random_exterior(n, r, FP, rng)]
        want = 0
    elif kind == "repeated":
        # A repeated slot kills the full wedge exactly when r is odd.
        slots = [a, a, b] if rng.random() < 0.5 else [a, b, a]
        want = 1 if r % 2 else 0
    else:
        slots = [a] * M
        want = pf.diagonal_multiplicity(a)
    p = pf.PointTuple.of(slots)

    def verify(mu) -> tuple[bool, str]:
        return mu == want and 0 <= mu <= M - 1, str(mu)

    group = f"fp({r},{M}){kind}"
    inputs = [group, [s.to_json() for s in p.slots]]
    return Case(group, f"fp({r},{M})", lambda: pf.multiplicity_at(p), verify, inputs)


def build_wedge_form(seed: int) -> Workload:
    rng = random.Random(seed)
    cases = []
    for r, polars, per_kind in [(2, 37, 15), (3, 6, 6)]:
        cases += [_polar_case(r, rng) for _ in range(polars)]
        for kind in ("random", "repeated", "diagonal"):
            cases += [_multiplicity_case(r, kind, rng) for _ in range(per_kind)]
    return Workload(cases)


# -- p1_divisor --------------------------------------------------------------------

BALANCED = [((2, 2), 3), ((3, 3), 4), ((2, 2, 2), 3), ((3, 3, 3), 4)]
DEGENERATE = [((3, 1), 3), ((4, 1, 1), 3)]


# The pullback through the classifying map is checked on pairs with r*m <= 9.
# At r*m = 12 it is a top wedge of four 220-term vectors, about eight times
# the cost of the divisor value, and would make this a second wedge workload.
PULLBACK_MAX_RM = 9


def _pullback(pair, pts):
    return ex.top_wedge_coefficient([bp.classify_point(pair, x) for x in pts])


def _p1_case(pair, pts, want, ratio: Optional[object]) -> Case:
    """want: exact divisor value; ratio: divisor over pullback (None on a
    degenerate pair, where both must vanish)."""
    pullback = pair.r * pair.m <= PULLBACK_MAX_RM

    def call():
        return bp.divisor_value(pair, pts), _pullback(pair, pts) if pullback else None

    def verify(result) -> tuple[bool, str]:
        dv, pull = result
        ok = dv == want
        if pullback:
            ok = ok and (not pull if ratio is None else dv == ratio * pull)
        return ok, FP.element_to_str(dv)

    split = ",".join(map(str, pair.splitting))
    group = f"fp({split})m{pair.m}"
    inputs = [group, [[FP.element_to_str(x.u), FP.element_to_str(x.v)] for x in pts]]
    return Case(group, group, call, verify, inputs)


def _point_tuples(m: int, count: int, rng: random.Random) -> list:
    """Distinct points, with every fifth tuple repeating its first point."""
    tuples = []
    for i in range(count):
        pts = bp.sample_distinct_points(m, FP, rng)
        if i % 5 == 4:
            pts[-1] = pts[0]
        tuples.append(pts)
    return tuples


def build_p1_divisor(seed: int) -> Workload:
    rng = random.Random(seed)
    cases = []
    for splitting, m in BALANCED:
        pair = bp.make_pair(splitting, m, FP)
        report = bp.diagonal_factor_check(pair, 2, rng.randrange(2**32))
        if not report.all_matched:
            raise RuntimeError(f"diagonal factorization fails for {splitting}")
        c = report.constant_c
        fit = bp.sample_distinct_points(m, FP, rng)
        ratio = None
        if pair.r * m <= PULLBACK_MAX_RM:
            ratio = bp.divisor_value(pair, fit) / _pullback(pair, fit)
        for pts in _point_tuples(m, 20, rng):
            want = c * bp.pairwise_product(pts, pair.r, FP)
            cases.append(_p1_case(pair, pts, want, ratio))
    for splitting, m in DEGENERATE:
        pair = bp.make_pair(splitting, m, FP)
        for pts in _point_tuples(m, 10, rng):
            cases.append(_p1_case(pair, pts, FP.zero(), None))
    return Workload(cases)


BUILDERS = {
    "classify": build_classify,
    "wedge_form": build_wedge_form,
    "p1_divisor": build_p1_divisor,
}
