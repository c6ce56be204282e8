"""Deterministic experiment runner.

Every verification suite is exposed as a subcommand producing a JSON (or CSV)
report.  Identical configuration yields a byte-identical report body; the
only nondeterministic field is ``wall_time_s``, which sits outside the body
contract.  Exit status is 0 exactly when the suite recorded zero failures.

A suite is a generator registered in ``SUITES`` under its subcommand name,
with its description.  It yields ``(case, counterexample)`` pairs: ``case`` is
a dict with an ``"ok"`` key, and ``counterexample`` is None for a
summary-level check that has no sampled input, or else a function of no
arguments that serializes the input which re-runs the case.  ``run`` records
every case, and calls ``counterexample`` only for a failing case, before the
suite resumes, so that passing cases serialize nothing.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import random
import sys
import time
from dataclasses import asdict, dataclass
from typing import Optional

from .bundle_pairs_p1 import (
    _first_nonzero_sample,
    classify_point,
    det_map_rank,
    diagonal_factor_check,
    divisor_value,
    evaluation_functional,
    has_plucker_form,
    is_balanced,
    lambda_image,
    make_pair,
    sample_distinct_points,
    sample_points,
    span_dimension,
    symbolic_diagonal_witness,
    two_point_surjectivity,
)
from .exterior import (
    lex_masks,
    plucker_relations_hold,
    random_exterior,
    top_wedge_coefficient,
    wedge,
)
from .grassmann import (
    Verdict,
    classify_membership,
    ev_m_det,
    field_codim_threshold,
    mu_rank,
    random_grass_point,
    random_hyperplane_point,
)
from .plucker_form import (
    PointTuple,
    diagonal_multiplicity,
    evaluate_expansion,
    eval_form,
    expand_form,
    expand_form_term_count,
    multiplicity_at,
    polar,
    tangent_codim,
)
from .scalars import (
    DEFAULT_PRIME,
    Field,
    PrimeField,
    field_from_name,
    poly_interpolate,
)

SCHEMA_VERSION = 1

# Every suite works with vectors of wedge^r of an rm-dimensional space, which
# hold up to C(rm, r) coefficients, and with ``lex_masks(rm, r)`` and its
# position table, one entry per coefficient.  A dense (5,5) vector of 53,130
# coefficients with its tables takes about 18 MB; (8,8)'s 4.4 * 10^9 masks
# would exhaust memory before the first trial.
_MAX_SLOT_COEFFICIENTS = 10**5

# The classifier ranks t |-> w ^ t on wedge^r through the Schur complement S
# of one term's diagonal block, and holds S, the pivot columns X, the pivot
# rows Y and the block's k pivots at once (``exterior._wedge_schur``); the
# budget counts S + X + Y, to which the k pivots add as many cells as one row
# of X.  Over Q the same buffer holds Python ints: a pointer per cell, and
# an int object of 28 bytes or more per nonzero.  (4,4) needs about 2.3 *
# 10^7 cells, 185 MB of int64; (6,3)'s 17640^2 S alone would take 2.5 GB.
_MAX_SCHUR_CELLS = 3 * 10**7


def _schur_cells(r: int, m: int) -> int:
    """Cells of S, X and Y for a degree-r vector on rm letters: S is
    (C(rm, 2r) - k) x (C(rm, r) - k), X and Y have k columns and rows, and
    k = C(rm - r, r) is the size of the pivot block."""
    n = r * m
    k = math.comb(n - r, r)
    rows, cols = math.comb(n, 2 * r) - k, math.comb(n, r) - k
    return rows * cols + (rows + cols) * k


@dataclass
class ExperimentConfig:
    command: str
    r: int = 2
    m: int = 3
    splitting: Optional[tuple] = None
    field: str = "fp"
    prime: int = DEFAULT_PRIME
    seed: int = 0
    trials: int = 100

    def field_obj(self):
        return field_from_name(self.field, self.prime)

    def echo(self) -> dict:
        splitting = list(self.splitting) if self.splitting else None
        return {**asdict(self), "splitting": splitting}


@dataclass
class Report:
    config: ExperimentConfig
    description: str
    cases: list
    counterexamples: list
    wall_time_s: float = 0.0

    @property
    def passes(self) -> int:
        return sum(1 for c in self.cases if c.get("ok"))

    @property
    def failures(self) -> int:
        return len(self.cases) - self.passes

    def body(self) -> dict:
        return {
            "schema": SCHEMA_VERSION,
            "config": self.config.echo(),
            "description": self.description,
            "cases": self.cases,
            "summary": {
                "passes": self.passes,
                "failures": self.failures,
                "counterexamples": self.counterexamples,
            },
        }

    def to_json(self) -> str:
        data = self.body()
        data["wall_time_s"] = self.wall_time_s
        return json.dumps(data, sort_keys=True, indent=2)

    def to_csv(self) -> str:
        buf = io.StringIO()
        keys = sorted({k for c in self.cases for k in c})
        writer = csv.DictWriter(buf, fieldnames=keys, restval="")
        writer.writeheader()
        for c in self.cases:
            writer.writerow(c)
        return buf.getvalue()


# -- suites -------------------------------------------------------------------

SUITES = {}


def _suite(name: str, description: str):
    """Register a suite under its subcommand name with its description."""

    def register(fn):
        SUITES[name] = (description, fn)
        return fn

    return register


@_suite(
    "taylor-check",
    "polar coefficients agree with the exact epsilon-expansion "
    "of the slotwise-perturbed wedge form",
)
def _suite_taylor(cfg: ExperimentConfig, field: Field, rng: random.Random):
    r, m, n = cfg.r, cfg.m, cfg.r * cfg.m
    for trial in range(cfg.trials):
        w = PointTuple.of([random_exterior(n, r, field, rng) for _ in range(m)])
        t = [random_exterior(n, r, field, rng) for _ in range(m)]
        coeffs = [polar(k, w, t) for k in range(m + 1)]
        xs = [field.from_int(i) for i in range(m + 1)]
        ys = [top_wedge_coefficient([w.slots[i] + t[i].scale(x) for i in range(m)]) for x in xs]
        yield {"trial": trial, "ok": poly_interpolate(xs, ys) == coeffs}, lambda: {
            "trial": trial,
            "w": [s.to_json() for s in w.slots],
            "t": [s.to_json() for s in t],
        }


@_suite(
    "expand-check",
    "shuffle expansion has the predicted term count and "
    "re-sums to the wedge form on random tuples",
)
def _suite_expand(cfg: ExperimentConfig, field: Field, rng: random.Random):
    r, m, n = cfg.r, cfg.m, cfg.r * cfg.m
    expansion = expand_form(r, m)
    expected = expand_form_term_count(r, m)
    yield {
        "check": "term_count",
        "count": len(expansion),
        "expected": expected,
        "ok": len(expansion) == expected,
    }, None
    for trial in range(cfg.trials):
        p = PointTuple.of([random_exterior(n, r, field, rng) for _ in range(m)])
        ok = evaluate_expansion(expansion, p) == eval_form(p)
        case = {"check": "agreement", "trial": trial, "ok": ok}
        yield case, lambda: {"trial": trial, "tuple": [s.to_json() for s in p.slots]}


@_suite(
    "multiplicity-bound",
    "no point of the wedge-form divisor has multiplicity "
    "m or more; diagonal multiplicity is consistent",
)
def _suite_multiplicity(cfg: ExperimentConfig, field: Field, rng: random.Random):
    r, m, n = cfg.r, cfg.m, cfg.r * cfg.m
    for trial in range(cfg.trials):
        slots = [random_exterior(n, r, field, rng) for _ in range(m)]
        kind = "random"
        if trial % 5 == 1 and m >= 2:
            i = rng.randrange(m)
            j = (i + 1 + rng.randrange(m - 1)) % m
            slots[j] = slots[i]
            kind = "repeated-slot"
        elif trial % 5 == 3:
            slots = [slots[0]] * m
            kind = "diagonal"
        p = PointTuple.of(slots)
        mult = multiplicity_at(p)
        ok = 0 <= mult <= m - 1
        if kind == "diagonal":
            ok = ok and mult == diagonal_multiplicity(p.slots[0])
        case = {"trial": trial, "kind": kind, "multiplicity": mult, "ok": ok}
        yield case, lambda: {"trial": trial, "tuple": [s.to_json() for s in slots]}


@_suite(
    "rank-bound",
    "wedge-multiplication rank is bounded below by the binomial "
    "count, with equality exactly on decomposable vectors",
)
def _suite_rank_bound(cfg: ExperimentConfig, field: Field, rng: random.Random):
    r, d = cfg.r, cfg.r * cfg.m
    for s in range(1, min(r, d - 2 * r) + 1):
        bound = math.comb(d - r, s)
        for trial in range(cfg.trials):
            if trial % 2 == 0:
                w = random_exterior(d, r, field, rng)
                kind = "random"
            else:
                w = random_grass_point(r, d, field, rng).plucker
                kind = "decomposable"
            rank = mu_rank(w, s)
            oracle = plucker_relations_hold(w)
            yield {
                "s": s,
                "trial": trial,
                "kind": kind,
                "rank": rank,
                "bound": bound,
                "oracle_decomposable": oracle,
                "ok": rank >= bound and (rank == bound) == oracle,
            }, lambda: {"s": s, "trial": trial, "w": w.to_json()}


def _sample_rejection(r: int, n: int, field: Field, rng: random.Random):
    """A vector expected to fail membership: one with nonzero square fails
    the multiplicity test, and one with zero square failing the contraction
    oracle fails the tangent bound.  The square vanishes for every w when r
    is odd or the characteristic is 2."""
    while True:
        w = random_exterior(n, r, field, rng)
        if not wedge(w, w).is_zero:
            return w, Verdict.FAILS_MULTIPLICITY
        if not plucker_relations_hold(w):
            return w, Verdict.FAILS_TANGENT_BOUND


@_suite(
    "reconstruction",
    "diagonal multiplicity plus maximal tangent-space "
    "dimension recovers Grassmannian cone membership",
)
def _suite_reconstruction(cfg: ExperimentConfig, field: Field, rng: random.Random):
    r, m, n = cfg.r, cfg.m, cfg.r * cfg.m
    threshold = field_codim_threshold(r, m, field)
    for kind in ("member", "reject"):
        for trial in range(cfg.trials):
            if kind == "member":
                w = random_grass_point(r, n, field, rng).plucker
                expected = Verdict.IN_GRASSMANNIAN
            else:
                w, expected = _sample_rejection(r, n, field, rng)
            v = classify_membership(w, m)
            ok = v.tag is expected
            if expected is Verdict.IN_GRASSMANNIAN:
                ok = ok and v.observed_codim == threshold
            elif expected is Verdict.FAILS_TANGENT_BOUND:
                ok = ok and v.observed_codim is not None and v.observed_codim > threshold
            yield {
                "trial": trial,
                "kind": kind,
                "verdict": v.tag.value,
                "observed_codim": v.observed_codim,
                "threshold": v.threshold,
                "ok": ok,
            }, lambda: {"trial": trial, "kind": kind, "w": w.to_json()}


@_suite(
    "codim-threshold",
    "tangent codimension at decomposable diagonal points "
    "equals the closed-form minimum",
)
def _suite_codim_threshold(cfg: ExperimentConfig, field: Field, rng: random.Random):
    r, m, n = cfg.r, cfg.m, cfg.r * cfg.m
    threshold = field_codim_threshold(r, m, field)
    yield {
        "check": "closed_form",
        "threshold": threshold,
        "binomial": math.comb((m - 1) * r, r),
        "ok": True,
    }, None
    for trial in range(cfg.trials):
        w = random_grass_point(r, n, field, rng).plucker
        c_o = tangent_codim(PointTuple.diagonal(w, m), m - 1)
        case = {"check": "equality", "trial": trial, "codim": c_o, "ok": c_o == threshold}
        yield case, lambda: {"trial": trial, "w": w.to_json()}


@_suite(
    "degeneracy-det",
    "stacked-basis determinant vanishes exactly when the "
    "wedge form vanishes on subspace tuples",
)
def _suite_degeneracy_det(cfg: ExperimentConfig, field: Field, rng: random.Random):
    r, m, n = cfg.r, cfg.m, cfg.r * cfg.m
    for trial in range(cfg.trials + max(1, cfg.trials // 10)):
        engineered = trial >= cfg.trials
        sample = random_hyperplane_point if engineered else random_grass_point
        points = [sample(r, n, field, rng) for _ in range(m)]
        det = ev_m_det(points)
        raw = top_wedge_coefficient([pt.plucker for pt in points])
        form = eval_form(PointTuple.of([pt.plucker for pt in points]))
        ok = (not det) == (not form) and raw == det
        if engineered:
            ok = ok and not det
        yield {
            "trial": trial,
            "kind": "hyperplane" if engineered else "random",
            "det_zero": not det,
            "form_zero": not form,
            "ok": ok,
        }, lambda: {"trial": trial, "pluckers": [pt.plucker.to_json() for pt in points]}


def _require_pair(cfg: ExperimentConfig, field: Field):
    return make_pair(cfg.splitting or (cfg.m - 1,) * cfg.r, cfg.m, field)


@_suite(
    "p1-divisor",
    "evaluation determinant factors as a constant times the "
    "r-th power of the pairwise-difference product",
)
def _suite_p1_divisor(cfg: ExperimentConfig, field: Field, rng: random.Random):
    pair = _require_pair(cfg, field)
    if not has_plucker_form(pair, 20, rng.randrange(2**32)):
        yield {
            "check": "factorization",
            "identically_zero": True,
            "ok": False,
        }, lambda: {"splitting": list(pair.splitting), "reason": "no divisor"}
        return
    report = diagonal_factor_check(pair, cfg.trials, rng.randrange(2**32))
    yield {
        "check": "factorization",
        "trials": report.trials,
        "all_matched": report.all_matched,
        "constant_c": field.element_to_str(report.constant_c),
        "identically_zero": False,
        "ok": report.all_matched,
    }, None
    if pair.r * pair.m <= 7:
        holds, c = symbolic_diagonal_witness(pair)
        yield {
            "check": "symbolic_witness",
            "ok": holds,
            "constant_c": None if c is None else field.element_to_str(c),
        }, None


@_suite(
    "p1-detmap",
    "determinant map is surjective for balanced pairs; sampled "
    "span of the classifying curve matches its rank",
)
def _suite_p1_detmap(cfg: ExperimentConfig, field: Field, rng: random.Random):
    pair = _require_pair(cfg, field)
    rank = det_map_rank(pair)
    expected = pair.r * (pair.m - 1) + 1
    balanced = is_balanced(pair)
    yield {
        "check": "det_map_rank",
        "rank": rank,
        "expected_if_balanced": expected,
        "balanced": balanced,
        "ok": rank == expected if balanced else True,
    }, None
    nmasks = len(lex_masks(pair.r * pair.m, pair.r))
    span = span_dimension(pair, nmasks + 15, rng.randrange(2**32))
    yield {"check": "span_equals_rank", "span": span, "ok": span == rank}, None
    expect_two_point = min(pair.splitting) >= 1
    for trial in range(min(cfg.trials, 50)):
        x, y = sample_distinct_points(2, field, rng)
        ok = two_point_surjectivity(pair, x, y) == expect_two_point
        case = {"check": "two_point", "trial": trial, "expected": expect_two_point, "ok": ok}
        yield case, lambda: {"trial": trial, "splitting": list(pair.splitting)}


@_suite(
    "p1-lambda",
    "dual determinant map restricted to the curve equals the "
    "classifying map; divisor pulls back from the wedge form",
)
def _suite_p1_lambda(cfg: ExperimentConfig, field: Field, rng: random.Random):
    pair = _require_pair(cfg, field)
    for trial in range(min(cfg.trials, 50)):
        x = sample_points(1, field, rng)[0]
        lam = lambda_image(pair, evaluation_functional(pair, x)).normalized()
        ok = lam == classify_point(pair, x).normalized()
        case = {"check": "lambda_restriction", "trial": trial, "ok": ok}
        yield case, lambda: {"trial": trial, "x": field.element_to_str(x.u)}
    ratio = None
    for trial in range(cfg.trials):
        if trial % 10 == 9:
            pts = sample_points(pair.m, field, rng)
            pts[-1] = pts[0]
        else:
            pts = sample_distinct_points(pair.m, field, rng)
        dv = divisor_value(pair, pts)
        pull = top_wedge_coefficient([classify_point(pair, x) for x in pts])
        ok = (not dv) == (not pull)
        if ok and dv:
            if ratio is None:
                ratio = dv / pull
            else:
                ok = dv == ratio * pull
        case = {"check": "pullback", "trial": trial, "ok": ok}
        yield case, lambda: {"trial": trial, "points": [field.element_to_str(p.u) for p in pts]}


@_suite(
    "p1-no-form",
    "degenerate splittings have identically zero evaluation "
    "determinant, balanced ones do not",
)
def _suite_p1_no_form(cfg: ExperimentConfig, field: Field, rng: random.Random):
    pair = _require_pair(cfg, field)
    predicted_degenerate = not is_balanced(pair)
    first = _first_nonzero_sample(pair, cfg.trials, rng)
    witness = None if first is None else first[0]
    all_zero = witness is None
    hp = has_plucker_form(pair, min(cfg.trials, 50), rng.randrange(2**32))
    degree = pair.m * pair.r * (pair.m - 1)
    bound = None
    if isinstance(field, PrimeField):
        bound = (degree / field.p) ** min(cfg.trials, 50)
    yield {
        "check": "degenerate_branch",
        "splitting": list(pair.splitting),
        "predicted_degenerate": predicted_degenerate,
        "sampled_all_zero": all_zero,
        "has_plucker_form": hp,
        "first_nonzero_trial": witness,
        "schwartz_zippel_failure_bound": bound,
        "ok": all_zero == predicted_degenerate and hp == (not predicted_degenerate),
    }, lambda: {"splitting": list(pair.splitting)}


def run(config: ExperimentConfig) -> Report:
    """Execute one suite deterministically and assemble its report."""
    if config.command not in SUITES:
        raise ValueError(f"unknown command {config.command!r}")
    _validate(config)
    description, suite = SUITES[config.command]
    rng = random.Random(config.seed)
    start = time.perf_counter()
    cases, counter = [], []
    for case, counterexample in suite(config, config.field_obj(), rng):
        cases.append(case)
        if not case["ok"] and counterexample is not None:
            counter.append(counterexample())
    return Report(config, description, cases, counter, time.perf_counter() - start)


def _validate(config: ExperimentConfig):
    if config.r < 1 or config.m < 2:
        raise ValueError("need r >= 1 and m >= 2")
    if config.r * config.m > 64:
        raise ValueError("ambient dimension r * m must be at most 64")
    coefficients = math.comb(config.r * config.m, config.r)
    if coefficients > _MAX_SLOT_COEFFICIENTS:
        raise ValueError(
            f"a degree-r vector has C(rm, r) = {coefficients} coefficients; at most 10^5"
        )
    if config.trials < 1:
        raise ValueError("need trials >= 1")
    if config.command in ("reconstruction", "codim-threshold") and config.m < 3:
        raise ValueError("unsupported hypothesis: membership tests need m >= 3")
    if config.command == "reconstruction" and config.r < 2:
        raise ValueError("reconstruction needs r >= 2: every degree-1 vector is decomposable")
    if config.command == "reconstruction":
        cells = _schur_cells(config.r, config.m)
        if cells > _MAX_SCHUR_CELLS:
            raise ValueError(
                f"the classifier's Schur complement and pivot blocks hold {cells} cells; "
                f"at most {_MAX_SCHUR_CELLS}"
            )
    if config.command == "rank-bound" and config.r * config.m - 2 * config.r < 1:
        raise ValueError("rank bound needs ambient dimension at least 2r + 1")
    # expand-check holds every shuffle term at once: (3,4)'s 369,600 peak at
    # about 170 MB, so (4,4)'s 63,063,000 would exhaust memory.
    if config.command == "expand-check" and expand_form_term_count(config.r, config.m) > 10**6:
        raise ValueError("expand-check holds (rm)!/(r!)^m shuffle terms at once; at most 10^6")
    # Distinct affine points a suite needs: taylor-check interpolates at the
    # nodes 0..m, and a determinant read at m points that repeat is zero.
    need = {"taylor-check": config.m + 1, "p1-divisor": config.m, "p1-no-form": config.m}
    if config.command in need and config.field == "fp":
        p = config.field_obj().p  # a composite modulus is refused as such first
        if p < need[config.command]:
            raise ValueError(f"F_{p} has fewer than {need[config.command]} affine points")
    if config.splitting is not None:
        if len(config.splitting) != config.r:
            raise ValueError("splitting length must equal r")


def _parse_splitting(text: str) -> tuple:
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError("splitting must be comma-separated integers") from exc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pluckerlab",
        description="Exact verification suites for wedge-form divisors, "
        "Grassmannian membership, and determinant divisors on the line.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (description, _) in SUITES.items():
        p = sub.add_parser(name, help=description)
        p.add_argument("--r", type=int, default=None)
        p.add_argument("--m", type=int, default=3)
        p.add_argument("--splitting", type=_parse_splitting, default=None)
        p.add_argument("--field", choices=["fp", "q"], default="fp")
        p.add_argument("--prime", type=int, default=DEFAULT_PRIME)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--trials", type=int, default=100)
        p.add_argument("--out", type=str, default=None)
        p.add_argument("--format", choices=["json", "csv"], default="json")
        p.add_argument("-v", "--verbose", action="count", default=0)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    seed = args.seed
    if seed is None:
        seed = int(os.environ.get("PLUECKERLAB_SEED", "0"))
    r = args.r  # without --r: the length of --splitting, or 2
    if r is None:
        r = 2 if args.splitting is None else len(args.splitting)
    config = ExperimentConfig(
        command=args.command,
        r=r,
        m=args.m,
        splitting=args.splitting,
        field=args.field,
        prime=args.prime,
        seed=seed,
        trials=args.trials,
    )
    try:
        report = run(config)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    text = report.to_json() if args.format == "json" else report.to_csv()
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    if args.verbose:
        for case in report.cases:
            print(json.dumps(case, sort_keys=True))
    status = "PASS" if report.failures == 0 else "FAIL"
    print(
        f"{config.command}: {status} "
        f"({report.passes} passed, {report.failures} failed, "
        f"{report.wall_time_s:.2f}s)"
    )
    if not args.out and not args.verbose and report.failures:
        print(text)
    return 0 if report.failures == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
