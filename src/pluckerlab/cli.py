"""Deterministic experiment runner.

Every verification suite is exposed as a subcommand producing a JSON (or CSV)
report.  Identical configuration yields a byte-identical report body; the
only nondeterministic field is ``wall_time_s``, which sits outside the body
contract.  Exit status is 0 exactly when the suite recorded zero failures.
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
from dataclasses import dataclass
from typing import Optional

from .bundle_pairs_p1 import (
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
    plucker_embed,
    random_grass_point,
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
    DenseMatrix,
    PrimeField,
    field_from_name,
    poly_interpolate,
    random_matrix,
)

SCHEMA_VERSION = 1

DESCRIPTIONS = {
    "taylor-check": "polar coefficients agree with the exact epsilon-expansion "
    "of the slotwise-perturbed wedge form",
    "expand-check": "shuffle expansion has the predicted term count and "
    "re-sums to the wedge form on random tuples",
    "multiplicity-bound": "no point of the wedge-form divisor has multiplicity "
    "m or more; diagonal multiplicity is consistent",
    "rank-bound": "wedge-multiplication rank is bounded below by the binomial "
    "count, with equality exactly on decomposable vectors",
    "reconstruction": "diagonal multiplicity plus maximal tangent-space "
    "dimension recovers Grassmannian cone membership",
    "codim-threshold": "tangent codimension at decomposable diagonal points "
    "equals the closed-form minimum",
    "degeneracy-det": "stacked-basis determinant vanishes exactly when the "
    "wedge form vanishes on subspace tuples",
    "p1-divisor": "evaluation determinant factors as a constant times the "
    "r-th power of the pairwise-difference product",
    "p1-detmap": "determinant map is surjective for balanced pairs; sampled "
    "span of the classifying curve matches its rank",
    "p1-lambda": "dual determinant map restricted to the curve equals the "
    "classifying map; divisor pulls back from the wedge form",
    "p1-no-form": "degenerate splittings have identically zero evaluation "
    "determinant, balanced ones do not",
}


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
    out: Optional[str] = None
    format: str = "json"
    verbosity: int = 0

    def field_obj(self):
        return field_from_name(self.field, self.prime)

    def echo(self) -> dict:
        return {
            "command": self.command,
            "r": self.r,
            "m": self.m,
            "splitting": list(self.splitting) if self.splitting else None,
            "field": self.field,
            "prime": self.prime,
            "seed": self.seed,
            "trials": self.trials,
        }


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


def _suite_taylor(cfg: ExperimentConfig, rng: random.Random):
    field = cfg.field_obj()
    r, m = cfg.r, cfg.m
    n = r * m
    cases = []
    counter = []
    for trial in range(cfg.trials):
        w = PointTuple.of([random_exterior(n, r, field, rng) for _ in range(m)])
        t = [random_exterior(n, r, field, rng) for _ in range(m)]
        coeffs = [polar(k, w, t) for k in range(m + 1)]
        xs = [field.from_int(i) for i in range(m + 1)]
        ys = []
        for x in xs:
            slots = [w.slots[i] + t[i].scale(x) for i in range(m)]
            ys.append(top_wedge_coefficient(slots))
        ok = poly_interpolate(xs, ys) == coeffs
        cases.append({"trial": trial, "ok": ok})
        if not ok:
            counter.append(
                {
                    "trial": trial,
                    "w": [s.to_json() for s in w.slots],
                    "t": [s.to_json() for s in t],
                }
            )
    return cases, counter


def _suite_expand(cfg: ExperimentConfig, rng: random.Random):
    field = cfg.field_obj()
    r, m = cfg.r, cfg.m
    n = r * m
    expansion = expand_form(r, m)
    expected = expand_form_term_count(r, m)
    cases = [
        {
            "check": "term_count",
            "count": len(expansion),
            "expected": expected,
            "ok": len(expansion) == expected,
        }
    ]
    counter = []
    for trial in range(cfg.trials):
        p = PointTuple.of([random_exterior(n, r, field, rng) for _ in range(m)])
        ok = evaluate_expansion(expansion, p) == eval_form(p)
        cases.append({"check": "agreement", "trial": trial, "ok": ok})
        if not ok:
            counter.append({"trial": trial, "tuple": [s.to_json() for s in p.slots]})
    return cases, counter


def _suite_multiplicity(cfg: ExperimentConfig, rng: random.Random):
    field = cfg.field_obj()
    r, m = cfg.r, cfg.m
    n = r * m
    cases = []
    counter = []
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
        cases.append({"trial": trial, "kind": kind, "multiplicity": mult, "ok": ok})
        if not ok:
            counter.append({"trial": trial, "tuple": [s.to_json() for s in slots]})
    return cases, counter


def _suite_rank_bound(cfg: ExperimentConfig, rng: random.Random):
    field = cfg.field_obj()
    r, m = cfg.r, cfg.m
    d = r * m
    s_max = min(r, d - 2 * r)
    cases = []
    counter = []
    for s in range(1, s_max + 1):
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
            ok = rank >= bound and (rank == bound) == oracle
            cases.append(
                {
                    "s": s,
                    "trial": trial,
                    "kind": kind,
                    "rank": rank,
                    "bound": bound,
                    "oracle_decomposable": oracle,
                    "ok": ok,
                }
            )
            if not ok:
                counter.append({"s": s, "trial": trial, "w": w.to_json()})
    return cases, counter


def _sample_rejection(cfg: ExperimentConfig, rng: random.Random):
    """A vector expected to fail membership: one with nonzero square fails
    the multiplicity test, and one with zero square failing the contraction
    oracle fails the tangent bound.  The square vanishes for every w when r
    is odd or the characteristic is 2."""
    field = cfg.field_obj()
    r, m = cfg.r, cfg.m
    n = r * m
    while True:
        w = random_exterior(n, r, field, rng)
        if not wedge(w, w).is_zero:
            return w, Verdict.FAILS_MULTIPLICITY
        if not plucker_relations_hold(w):
            return w, Verdict.FAILS_TANGENT_BOUND


def _suite_reconstruction(cfg: ExperimentConfig, rng: random.Random):
    field = cfg.field_obj()
    r, m = cfg.r, cfg.m
    n = r * m
    threshold = field_codim_threshold(r, m, field)
    cases = []
    counter = []
    for trial in range(cfg.trials):
        w = random_grass_point(r, n, field, rng).plucker
        v = classify_membership(w, m)
        ok = v.tag is Verdict.IN_GRASSMANNIAN and v.observed_codim == threshold
        cases.append(
            {
                "trial": trial,
                "kind": "member",
                "verdict": v.tag.value,
                "observed_codim": v.observed_codim,
                "threshold": v.threshold,
                "ok": ok,
            }
        )
        if not ok:
            counter.append({"trial": trial, "kind": "member", "w": w.to_json()})
    for trial in range(cfg.trials):
        w, expected = _sample_rejection(cfg, rng)
        v = classify_membership(w, m)
        ok = v.tag is expected
        if expected is Verdict.FAILS_TANGENT_BOUND:
            ok = ok and v.observed_codim is not None and v.observed_codim > threshold
        cases.append(
            {
                "trial": trial,
                "kind": "reject",
                "verdict": v.tag.value,
                "observed_codim": v.observed_codim,
                "threshold": v.threshold,
                "ok": ok,
            }
        )
        if not ok:
            counter.append({"trial": trial, "kind": "reject", "w": w.to_json()})
    return cases, counter


def _suite_codim_threshold(cfg: ExperimentConfig, rng: random.Random):
    field = cfg.field_obj()
    r, m = cfg.r, cfg.m
    n = r * m
    threshold = field_codim_threshold(r, m, field)
    cases = [
        {
            "check": "closed_form",
            "threshold": threshold,
            "binomial": math.comb((m - 1) * r, r),
            "ok": True,
        }
    ]
    counter = []
    for trial in range(cfg.trials):
        w = random_grass_point(r, n, field, rng).plucker
        c_o = tangent_codim(PointTuple.diagonal(w, m), m - 1)
        ok = c_o == threshold
        cases.append({"check": "equality", "trial": trial, "codim": c_o, "ok": ok})
        if not ok:
            counter.append({"trial": trial, "w": w.to_json()})
    return cases, counter


def _suite_degeneracy_det(cfg: ExperimentConfig, rng: random.Random):
    field = cfg.field_obj()
    r, m = cfg.r, cfg.m
    n = r * m
    cases = []
    counter = []
    n_hyper = max(1, cfg.trials // 10)
    for trial in range(cfg.trials + n_hyper):
        engineered = trial >= cfg.trials
        points = []
        for _ in range(m):
            if engineered:
                # Last coordinate zero confines every subspace to a hyperplane.
                while True:
                    A = random_matrix(r, n - 1, field, rng)
                    rows = [list(A.row(i)) + [field.zero()] for i in range(r)]
                    try:
                        points.append(plucker_embed(DenseMatrix.from_rows(rows)))
                        break
                    except ValueError:
                        continue
            else:
                points.append(random_grass_point(r, n, field, rng))
        det = ev_m_det(points)
        raw = top_wedge_coefficient([pt.plucker for pt in points])
        form = eval_form(PointTuple.of([pt.plucker for pt in points]))
        ok = (not det) == (not form) and raw == det
        if engineered:
            ok = ok and not det
        cases.append(
            {
                "trial": trial,
                "kind": "hyperplane" if engineered else "random",
                "det_zero": not det,
                "form_zero": not form,
                "ok": ok,
            }
        )
        if not ok:
            counter.append(
                {"trial": trial, "pluckers": [pt.plucker.to_json() for pt in points]}
            )
    return cases, counter


def _require_pair(cfg: ExperimentConfig):
    splitting = cfg.splitting
    if splitting is None:
        splitting = tuple([cfg.m - 1] * cfg.r)
    return make_pair(splitting, cfg.m, cfg.field_obj())


def _suite_p1_divisor(cfg: ExperimentConfig, rng: random.Random):
    pair = _require_pair(cfg)
    cases = []
    counter = []
    if not has_plucker_form(pair, 20, rng.randrange(2**32)):
        cases.append(
            {
                "check": "factorization",
                "identically_zero": True,
                "ok": False,
            }
        )
        counter.append({"splitting": list(pair.splitting), "reason": "no divisor"})
        return cases, counter
    report = diagonal_factor_check(pair, cfg.trials, rng.randrange(2**32))
    cases.append(
        {
            "check": "factorization",
            "trials": report.trials,
            "all_matched": report.all_matched,
            "constant_c": pair.field.element_to_str(report.constant_c),
            "identically_zero": False,
            "ok": report.all_matched,
        }
    )
    if pair.r * pair.m <= 7:
        holds, c = symbolic_diagonal_witness(pair)
        cases.append(
            {
                "check": "symbolic_witness",
                "ok": holds,
                "constant_c": None if c is None else pair.field.element_to_str(c),
            }
        )
    return cases, counter


def _suite_p1_detmap(cfg: ExperimentConfig, rng: random.Random):
    pair = _require_pair(cfg)
    cases = []
    counter = []
    rank = det_map_rank(pair)
    expected = pair.r * (pair.m - 1) + 1
    balanced = is_balanced(pair)
    cases.append(
        {
            "check": "det_map_rank",
            "rank": rank,
            "expected_if_balanced": expected,
            "balanced": balanced,
            "ok": rank == expected if balanced else True,
        }
    )
    nmasks = len(lex_masks(pair.r * pair.m, pair.r))
    span = span_dimension(pair, nmasks + 15, rng.randrange(2**32))
    cases.append({"check": "span_equals_rank", "span": span, "ok": span == rank})
    expect_two_point = min(pair.splitting) >= 1
    for trial in range(min(cfg.trials, 50)):
        x, y = sample_distinct_points(2, pair.field, rng)
        ok = two_point_surjectivity(pair, x, y) == expect_two_point
        cases.append(
            {"check": "two_point", "trial": trial, "expected": expect_two_point, "ok": ok}
        )
        if not ok:
            counter.append({"trial": trial, "splitting": list(pair.splitting)})
    return cases, counter


def _suite_p1_lambda(cfg: ExperimentConfig, rng: random.Random):
    pair = _require_pair(cfg)
    field = pair.field
    cases = []
    counter = []
    for trial in range(min(cfg.trials, 50)):
        x = sample_points(1, field, rng)[0]
        lam = lambda_image(pair, evaluation_functional(pair, x)).normalized()
        cls = classify_point(pair, x).normalized()
        ok = lam == cls
        cases.append({"check": "lambda_restriction", "trial": trial, "ok": ok})
        if not ok:
            counter.append({"trial": trial, "x": field.element_to_str(x.u)})
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
        cases.append({"check": "pullback", "trial": trial, "ok": ok})
        if not ok:
            counter.append(
                {"trial": trial, "points": [field.element_to_str(p.u) for p in pts]}
            )
    return cases, counter


def _suite_p1_no_form(cfg: ExperimentConfig, rng: random.Random):
    pair = _require_pair(cfg)
    predicted_degenerate = not is_balanced(pair)
    all_zero = True
    witness = None
    for trial in range(cfg.trials):
        pts = sample_points(pair.m, pair.field, rng)
        if divisor_value(pair, pts):
            all_zero = False
            witness = trial
            break
    hp = has_plucker_form(pair, min(cfg.trials, 50), rng.randrange(2**32))
    ok = all_zero == predicted_degenerate and hp == (not predicted_degenerate)
    degree = pair.m * pair.r * (pair.m - 1)
    bound = None
    if isinstance(pair.field, PrimeField):
        bound = (degree / pair.field.p) ** min(cfg.trials, 50)
    cases = [
        {
            "check": "degenerate_branch",
            "splitting": list(pair.splitting),
            "predicted_degenerate": predicted_degenerate,
            "sampled_all_zero": all_zero,
            "has_plucker_form": hp,
            "first_nonzero_trial": witness,
            "schwartz_zippel_failure_bound": bound,
            "ok": ok,
        }
    ]
    counter = [] if ok else [{"splitting": list(pair.splitting)}]
    return cases, counter


SUITES = {
    "taylor-check": _suite_taylor,
    "expand-check": _suite_expand,
    "multiplicity-bound": _suite_multiplicity,
    "rank-bound": _suite_rank_bound,
    "reconstruction": _suite_reconstruction,
    "codim-threshold": _suite_codim_threshold,
    "degeneracy-det": _suite_degeneracy_det,
    "p1-divisor": _suite_p1_divisor,
    "p1-detmap": _suite_p1_detmap,
    "p1-lambda": _suite_p1_lambda,
    "p1-no-form": _suite_p1_no_form,
}


def run(config: ExperimentConfig) -> Report:
    """Execute one suite deterministically and assemble its report."""
    if config.command not in SUITES:
        raise ValueError(f"unknown command {config.command!r}")
    _validate(config)
    rng = random.Random(config.seed)
    start = time.perf_counter()
    cases, counter = SUITES[config.command](config, rng)
    report = Report(
        config=config,
        description=DESCRIPTIONS[config.command],
        cases=cases,
        counterexamples=counter,
        wall_time_s=time.perf_counter() - start,
    )
    return report


def _validate(config: ExperimentConfig):
    if config.r < 1 or config.m < 2:
        raise ValueError("need r >= 1 and m >= 2")
    if config.r * config.m > 64:
        raise ValueError("ambient dimension r * m must be at most 64")
    if config.trials < 1:
        raise ValueError("need trials >= 1")
    if config.command in ("reconstruction", "codim-threshold") and config.m < 3:
        raise ValueError("unsupported hypothesis: membership tests need m >= 3")
    if config.command == "rank-bound" and config.r * config.m - 2 * config.r < 1:
        raise ValueError("rank bound needs ambient dimension at least 2r + 1")
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
    for name in SUITES:
        p = sub.add_parser(name, help=DESCRIPTIONS[name])
        p.add_argument("--r", type=int, default=2)
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
    config = ExperimentConfig(
        command=args.command,
        r=args.r,
        m=args.m,
        splitting=args.splitting,
        field=args.field,
        prime=args.prime,
        seed=seed,
        trials=args.trials,
        out=args.out,
        format=args.format,
        verbosity=args.verbose,
    )
    if config.splitting is not None:
        config.r = len(config.splitting)
    try:
        report = run(config)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    text = report.to_json() if config.format == "json" else report.to_csv()
    if config.out:
        with open(config.out, "w") as fh:
            fh.write(text)
    if config.verbosity:
        for case in report.cases:
            print(json.dumps(case, sort_keys=True))
    status = "PASS" if report.failures == 0 else "FAIL"
    print(
        f"{config.command}: {status} "
        f"({report.passes} passed, {report.failures} failed, "
        f"{report.wall_time_s:.2f}s)"
    )
    if not config.out and config.verbosity == 0 and report.failures:
        print(text)
    return 0 if report.failures == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
