import csv
import hashlib
import io
import json
import random
from types import SimpleNamespace

import pytest

from pluckerlab import cli
from pluckerlab.bundle_pairs_p1 import (
    divisor_value,
    has_plucker_form,
    make_pair,
    sample_distinct_points,
)
from pluckerlab.cli import ExperimentConfig, build_parser, main, run
from pluckerlab.exterior import _wedge_schur, random_exterior
from pluckerlab.scalars import PrimeField


def _body_without_walltime(report):
    data = json.loads(report.to_json())
    data.pop("wall_time_s")
    return json.dumps(data, sort_keys=True)


def test_run_is_deterministic():
    cfg = ExperimentConfig(command="taylor-check", r=2, m=3, seed=99, trials=4)
    a = run(cfg)
    b = run(ExperimentConfig(command="taylor-check", r=2, m=3, seed=99, trials=4))
    assert _body_without_walltime(a) == _body_without_walltime(b)
    assert a.failures == 0


def test_run_unknown_command():
    with pytest.raises(ValueError):
        run(ExperimentConfig(command="nope"))


def test_exit_code_zero_on_pass(tmp_path, capsys):
    out = tmp_path / "r.json"
    code = main(
        [
            "expand-check",
            "--r",
            "2",
            "--m",
            "2",
            "--trials",
            "5",
            "--seed",
            "3",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    data = json.loads(out.read_text())
    assert data["schema"] == 1
    assert data["summary"]["failures"] == 0
    assert data["config"]["seed"] == 3
    assert "wall_time_s" in data


@pytest.mark.parametrize("suite", ["taylor-check", "expand-check"])
def test_verbose_prints_one_json_line_per_case(suite, capsys):
    report = run(ExperimentConfig(command=suite, r=2, m=3, seed=1, trials=3))
    assert main([suite, "--trials", "3", "--seed", "1", "-v"]) == 0
    *cases, status = capsys.readouterr().out.splitlines()
    assert [json.loads(line) for line in cases] == report.cases
    assert cases == [json.dumps(case, sort_keys=True) for case in report.cases]
    assert status.startswith(f"{suite}: PASS ({len(report.cases)} passed")


def test_exit_code_nonzero_on_failing_suite(capsys):
    # p1-divisor on a degenerate splitting cannot verify the factorization
    code = main(
        ["p1-divisor", "--splitting", "3,1", "--m", "3", "--trials", "5", "--seed", "1"]
    )
    assert code == 1


def test_membership_commands_require_m_three(capsys):
    code = main(["reconstruction", "--m", "2", "--trials", "1"])
    assert code == 2
    err = capsys.readouterr().err
    assert "m >= 3" in err


def test_reconstruction_refuses_degree_one(capsys):
    # No degree-1 vector fails membership, so no rejection could be sampled.
    assert main(["reconstruction", "--r", "1", "--m", "4", "--trials", "1"]) == 2
    assert "r >= 2" in capsys.readouterr().err


def test_composite_prime_exits_two(capsys):
    code = main(["reconstruction", "--prime", "15", "--trials", "1"])
    assert code == 2
    assert "not prime" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        # three distinct points of F_2 for the pullback check
        ["p1-lambda", "--prime", "2"],
        # C(6, 2) + 15 = 30 distinct points of F_3 for the sampled span
        ["p1-detmap", "--prime", "3"],
        # the m + 1 = 4 interpolation nodes collide mod 2
        ["taylor-check", "--prime", "2"],
        # every 3-tuple of points of F_2 repeats one, so the determinant
        # always reads zero
        ["p1-divisor", "--prime", "2", "--r", "2", "--m", "3"],
        ["p1-no-form", "--prime", "2"],
    ],
)
def test_too_few_points_in_a_small_field_exit_two(argv, capsys):
    assert main(argv + ["--trials", "3"]) == 2
    assert capsys.readouterr().err.startswith("error: F_")


@pytest.mark.parametrize("splitting", ["2,2", "3,1"])
def test_no_form_at_p_equal_to_m(splitting, capsys):
    # p = m is allowed; a sampled tuple with a repeated point would read zero
    # on the balanced (2,2) and report a false counterexample.
    argv = ["p1-no-form", "--prime", "3", "--splitting", splitting, "--m", "3"]
    assert main(argv + ["--trials", "3"]) == 0
    assert "PASS" in capsys.readouterr().out


@pytest.mark.parametrize("trials", ["0", "-1"])
def test_trials_below_one_exit_two(trials, capsys):
    assert main(["rank-bound", "--trials", trials]) == 2
    assert "trials >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("r", ["0", "-2"])
def test_r_below_one_exits_two(r, capsys):
    assert main(["taylor-check", "--r", r, "--trials", "1"]) == 2
    assert "need r >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("r", ["1", "2", "3"])
def test_rank_bound_below_2r_plus_1_letters_exits_two(r, capsys):
    # At m = 2 the ambient dimension 2r is one short of 2r + 1.
    assert main(["rank-bound", "--r", r, "--m", "2", "--trials", "1"]) == 2
    assert "at least 2r + 1" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["rank-bound", "--r", "5", "--m", "13"],
        ["reconstruction", "--r", "1", "--m", "65"],
        ["p1-divisor", "--splitting", "12,12,12,12,12", "--m", "13"],
    ],
)
def test_ambient_dimension_above_64_exits_two_before_any_trial(argv, capsys):
    assert main(argv + ["--trials", "1"]) == 2
    assert "at most 64" in capsys.readouterr().err


def test_codim_threshold_above_int64_safe_primes(tmp_path):
    out = tmp_path / "r.json"
    code = main(
        ["codim-threshold", "--r", "2", "--m", "3", "--prime", str(2**61 - 1),
         "--trials", "20", "--out", str(out)]
    )
    assert code == 0
    trials = [c for c in json.loads(out.read_text())["cases"] if c["check"] == "equality"]
    assert len(trials) == 20 and all(c["codim"] == 18 for c in trials)


@pytest.mark.parametrize("command", ["reconstruction", "codim-threshold"])
def test_membership_suites_over_f2(command, tmp_path):
    out = tmp_path / "r.json"
    code = main(
        [command, "--r", "2", "--m", "3", "--prime", "2", "--trials", "6", "--out", str(out)]
    )
    assert code == 0
    cases = json.loads(out.read_text())["cases"]
    assert len(cases) > 6 and all(c["ok"] for c in cases)


# sha256 of json.dumps(report.body(), sort_keys=True, indent=2), recorded
# with the full tangent system in the classifier.
GOLDEN_BODIES = {
    ("reconstruction", 2, 3): "0f62e964709b6439d1a5aea1374245a1f39ec0060bf99ffb28366da8077911f0",
    ("reconstruction", 3, 3): "0618a32cbe013ec6ab9d01f48051e76ea8e1a7e90163c0276067b9b672a04ff9",
    ("codim-threshold", 2, 3): "31090b3b322258053168a9b0fa6a6b80b2f00e87b986e122ce5a769bf7725ccd",
    # Recorded with the per-form evaluation of sections and the two separate
    # walks over slot subsets.
    ("codim-threshold", 3, 3): "62924e9ebc1092c6e776bf54487e915696bead7ec1e18806e91839837fe1135d",
    ("multiplicity-bound", 2, 3): "253260fadecb3f163cb32d30bc0f72e785e0827b00f280f5aa6e014eab79cf72",
    ("multiplicity-bound", 3, 3): "c2fcf0353959e630efabf39abc1145622c9b49de296fda52dc60018fcd5b4cb3",
    ("degeneracy-det", 2, 3): "7b439a571f7fb54322f930edb81f37efc8f8f155aec5e58ef8958ab3d9c50203",
    ("degeneracy-det", 3, 3): "9a3fa013aff9acf4a3fe2da0186c53daf833e3d98556f4ee8aa42d0ef8d6cdaa",
    ("p1-detmap", 2, 3): "35eb445a704d5677fb84c25c029065b899a2d796cdf7e5d7f77650708426c4fa",
    ("p1-detmap", 3, 3): "0a7c3380e454dc0bd021ac3b6985a16e52be8c9e020caaa4dea5426e3856361a",
    ("p1-divisor", 2, 3): "53e98f1f98e8c510b44aeb13ecddf4e6ddff7e5e792a945038383a609d2d1083",
    ("p1-divisor", 3, 3): "379f1ec12bd1addfdff00e3c7e495b07a4123b641a2b7037e32204fcf0315527",
    ("p1-lambda", 2, 3): "2b34240740fa9a9cbab311296bc0fc991f4edc268f2d0a95fe2f07cec4eb4290",
    ("p1-lambda", 3, 3): "17e1ff5ecc4d90b6334ad016e94f3654086eb253edaeb12d2bd974e9ff9a33ab",
    ("p1-no-form", 2, 3): "1774e7ec1927c5256e62b735e8f62a832bcbc08bf0bbd97b517a19a536eff837",
    ("p1-no-form", 3, 3): "6e08d58c042bd3db8c6a45998af42863434060ebdbff8361a6046d24ce203b92",
    # Recorded with the wedge map's rank through its Schur complement.
    ("rank-bound", 2, 3): "4e92544df0df3c30be11fbd62645fa5f1cf80151145c3377bcaaaab660e6c1e2",
    ("rank-bound", 3, 3): "766daf378c3f8cdb3107960206de7cde2f09db6ec7cf22b32cd267ac204e47a2",
    ("taylor-check", 2, 3): "74dac5d0fbfae95d78feaa099176fe13b35965f3f4f958c089c9a9614b786ce5",
    ("taylor-check", 3, 3): "6b7ba31f0d9395388635ff0438863078acd279621757e2a69caf61d83424e759",
    ("expand-check", 2, 3): "3a9bb72ed4ec662e856528960bea97e2222cc55be3aa5941675671e87524b163",
    ("expand-check", 3, 3): "b3f1a8b5c7abdbc6c9a7830697a9f6a85de58a220413b2d6c39a8b0f792391f1",
    # Recorded with the boxed-form Leibniz loops of det_map_matrix and
    # divisor_coefficient_tensor; (1, 4) and (3, 2) reach the symbolic witness.
    ("p1-detmap", 1, 4): "a10808f0090a72f20863b4025cf390263c2aa1a75bff941ccc41539ea2462fc5",
    ("p1-detmap", 3, 2): "d7c9040c78ba5071741136ffe356d66b8788855a1034c62071a6c6266019abc0",
    ("p1-divisor", 1, 4): "8a415666d30ecfc0df3e60d67525e15c0d15ae7714a2182e0997724df555cdfb",
    ("p1-divisor", 3, 2): "11994cb330e2f7b48acca786a5c84c49471e53f37f084f7248e6fc5427a0ebbc",
    ("p1-lambda", 1, 4): "319d7a82f68fe57fd8ccf05b3c587792d138ad6e82c38f58316ccc2fa4e837db",
    ("p1-lambda", 3, 2): "ce10e5dc0a070d63ee9b898459167a9ceba186a2c2ac77e19cfb777974a1455a",
}


@pytest.mark.parametrize("command,r,m", sorted(GOLDEN_BODIES))
def test_report_bodies_match_golden_digests(command, r, m):
    report = run(ExperimentConfig(command=command, r=r, m=m, seed=0, trials=10))
    text = json.dumps(report.body(), sort_keys=True, indent=2)
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_BODIES[command, r, m]


# The same digests for suites over Q.  The P^1 ones were recorded with the
# boxed section evaluation, determinant and classifying-map wedges.
GOLDEN_BODIES_Q = {
    ("p1-detmap", 2, 3): "5d88f10d06721ffd48e86b7ccfb64b2e56a57c06e48d12638b7c5d6559d4f9bb",
    ("p1-detmap", 3, 3): "d09ccc696b9c87bcbd77acd6863c2c391539c12ffa9b2b84a10d3b344617f6fc",
    ("p1-divisor", 2, 3): "92fa00262c14bc0411db5239d6b125e4ca6abbb73c47305165ef979a19d2547d",
    ("p1-divisor", 3, 3): "142b4cecb0f63dd714fa6459938e55407baf903ef3dc093d76f1c970cc036dd4",
    ("p1-lambda", 2, 3): "f698eadf394ec50b371228df4f05e303a6b8ccbecd90c2b0c2db414b98ff4857",
    ("p1-lambda", 3, 3): "2d66fb1bdb4014bae60054b36284d7aa788c7074b40dbcdc42005610c0951497",
    ("p1-no-form", 2, 3): "4cfbd4dc1788c3894bc25ef046be2dfecfc2ee3dea97cdca2c0e366b7572d384",
    ("p1-no-form", 3, 3): "ec2612b9a5c0593bf88e8811906ff8666ab9f082e94f9e21f4710ca911514724",
    # Recorded with Bareiss elimination on the boxed wedge matrix and the
    # boxed tangent system.
    ("rank-bound", 2, 3): "29cfa83f0b9efe8aa2030e73e7a0ae7713ef225f994bfffc6a0c5c67d18be866",
    ("reconstruction", 2, 3): "fd3df8e5fdef04c603034a3d66d43201c4a1f3df062e005b1a36cda819b9eca6",
    ("codim-threshold", 2, 3): "f9a2f3b78e5ec4a7a823a8257ea803676d9ef8714ce9e9e7f05687f65eb625a8",
    ("taylor-check", 2, 3): "d43e52c3384e62bfa40a349f88619dd01a711e7e48e7b84469b03380e8900f23",
    ("expand-check", 2, 3): "da36c2b8e1d2b546cc763bb0d88585781bc1e1ec50214b11a9c47b3f64931911",
    # Recorded with the boxed-form Leibniz loops, as in GOLDEN_BODIES.
    ("p1-detmap", 1, 4): "7e39730986f00b6a5b9de2e5b10c2ffb8bf0c62124b2b5f13500c4a786bf94c2",
    ("p1-detmap", 3, 2): "05dc97e6aced08261fc33770ff3b1629573fd6d4cdd4a9bc7d2a02e086992f5d",
    ("p1-divisor", 1, 4): "4f5b2172bbe70e873fecd537e58a7083cb96770a3b5459b88cbeb8b3cedbf506",
    ("p1-divisor", 3, 2): "debb530b8f25a1eb446264dc708cd21910b0fd460717f1ec1a11b66b4d1c559e",
    ("p1-lambda", 1, 4): "b011eeb1936f729b4fa6c260839f665b56ae68150a26ab13d05f5193cdcb0c7a",
    ("p1-lambda", 3, 2): "139d92705ab2a34fb976367c379d6d815284951562dd266f91c6a4b1d5119719",
}


@pytest.mark.parametrize("command,r,m", sorted(GOLDEN_BODIES_Q))
def test_report_bodies_over_q_match_golden_digests(command, r, m):
    cfg = ExperimentConfig(command=command, r=r, m=m, field="q", seed=0, trials=10)
    text = json.dumps(run(cfg).body(), sort_keys=True, indent=2)
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_BODIES_Q[command, r, m]


# The membership suites over Q at (3,3), with few trials because Bareiss
# elimination dominates there (the 252 x 252 tangent system of codim-threshold
# alone takes about a second): (command, trials) -> digest.  Recorded with
# Bareiss on the unboxed arrays.
GOLDEN_BODIES_Q_33 = {
    ("rank-bound", 2): "c56dd5df34a71ac71f782970ebfc8059e311a4dc11733d87ab0ff928408a59ba",
    ("reconstruction", 2): "315a83ab98ac768ff4c5df28baea1242dc5c08ae88333d0a0c5c1bee08d714e9",
    ("codim-threshold", 1): "56262308a23731a40ab7c21e4f3c34bba82f483ef926e6ed6c047337daa14784",
}


@pytest.mark.parametrize("command,trials", sorted(GOLDEN_BODIES_Q_33))
def test_report_bodies_over_q_at_three_three_match_golden_digests(command, trials):
    cfg = ExperimentConfig(command=command, r=3, m=3, field="q", seed=0, trials=trials)
    text = json.dumps(run(cfg).body(), sort_keys=True, indent=2)
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_BODIES_Q_33[command, trials]


# One (4,3) reconstruction trial over Q, recorded with Bareiss on the whole
# 495 x 495 wedge map of its member (35 s on a 2-vCPU VM); the integer Schur
# step gives the same body in under a second.
GOLDEN_BODY_Q_43 = "cd41304d23af6e521d8ac3abd6c722c32e31e44fc80bec2e103b79e4a963ee20"


def test_report_body_over_q_at_four_three_matches_golden_digest():
    cfg = ExperimentConfig(command="reconstruction", r=4, m=3, field="q", seed=0, trials=1)
    text = json.dumps(run(cfg).body(), sort_keys=True, indent=2)
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_BODY_Q_43


# P^1 suites at small primes, where zero pivots and row swaps are common in
# the determinant's elimination: (command, prime, splitting) -> digest at
# seed 0 and 10 trials.  Recorded with one row per section in the value
# matrix, before it was laid out one row per (point, component).
GOLDEN_BODIES_SMALL_PRIMES = {
    ("p1-divisor", 3, (2, 2, 2)): "7a2548cd575a229723df6393ba9540f11f4ce549c29d96b549fe8f38aaaa5b62",
    ("p1-lambda", 3, (2, 2, 2)): "365850544996986c28b753a1f56dbda7468f72f97ffe646c0777e43ce8ff2ba9",
    ("p1-detmap", 101, (4, 1, 1)): "6a124c56633ce931387cdc2a96ada9093ea6ee9c82259662ea6af7bd0c2a285e",
}


@pytest.mark.parametrize("command,prime,splitting", sorted(GOLDEN_BODIES_SMALL_PRIMES))
def test_p1_report_bodies_at_small_primes_match_golden_digests(command, prime, splitting):
    cfg = ExperimentConfig(
        command=command, r=3, m=3, splitting=splitting, prime=prime, seed=0, trials=10
    )
    text = json.dumps(run(cfg).body(), sort_keys=True, indent=2)
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert digest == GOLDEN_BODIES_SMALL_PRIMES[command, prime, splitting]


def _none(*args):
    return None


def _minus_one(*args):
    return -1


def _negated(real):
    """`real` with its zero test inverted: 1 where it returns zero, 0
    elsewhere."""
    return lambda *args: 0 if real(*args) else 1


# Report bodies of runs in which every case that can fail does, so that each
# suite's counterexample path is pinned.  A run patches library names that
# `cli` imports and the suite checks; `codim-threshold`'s closed-form case
# cannot fail.  Each entry gives the patches, the number of counterexamples
# and the digest.
FAILING_BODIES = {
    "taylor-check": (
        {"poly_interpolate": _none},
        5,
        "ff46b0aaed602216bb4891c781d6ef914f2995c3323e0672fb557650dead29e8",
    ),
    "expand-check": (
        {"expand_form_term_count": _minus_one, "eval_form": _none},
        5,
        "f1b4daa20b24043257f52a42b24d5e01796fe726685ca09665014753517ac49e",
    ),
    "multiplicity-bound": (
        {"multiplicity_at": _minus_one},
        5,
        "87c5a3f11d5d5491e2e4010c360b25659f208aef10dee547bf97ca20c9859157",
    ),
    "rank-bound": (
        {"mu_rank": _minus_one},
        10,
        "92bbf43c149c19cb5fecf2893fc539175bf62704118e4129288cbfe31f8b6460",
    ),
    "reconstruction": (
        {
            "classify_membership": lambda w, m: SimpleNamespace(
                tag=SimpleNamespace(value="patched"), observed_codim=None, threshold=None
            )
        },
        10,
        "39d7999e556699687e13e3a8165700aaa9ac5a97a5ff77c19d491b320c6539dd",
    ),
    "codim-threshold": (
        {"tangent_codim": _minus_one},
        5,
        "59042068b1b5875290f6dd96ec1d6a6c0d637d15788baadc257a7326795724f6",
    ),
    "degeneracy-det": (
        {"ev_m_det": _none},
        6,
        "37e2d817d1cae3ba0b6bcaccb1bcc87f09b66dc3d25e97072d08799b3a40877b",
    ),
    "p1-divisor": (
        {"has_plucker_form": _none},
        1,
        "0ca9d0fc385197b2910e47afbfed595ec6303fa129130c82ce708343409d63c9",
    ),
    # A divisor exists, but neither the factorization nor the symbolic
    # witness holds: these cases record no counterexample.
    "p1-divisor/mismatch": (
        {
            "diagonal_factor_check": lambda pair, trials, seed: SimpleNamespace(
                trials=trials, all_matched=False, constant_c=pair.field.one()
            ),
            "symbolic_diagonal_witness": lambda pair: (False, None),
        },
        0,
        "e6d0abd5a56774a38cea6cec1a44ab09052691b31c50689cf2b24994151228fa",
    ),
    "p1-detmap": (
        {"det_map_rank": _minus_one, "two_point_surjectivity": _none},
        5,
        "df5a3b1aedad162d032b3df12edc36578a8d2bb3eacd75c0b206351d7714f892",
    ),
    "p1-lambda": (
        {
            "lambda_image": lambda pair, f: SimpleNamespace(normalized=_none),
            "divisor_value": _negated(cli.divisor_value),
        },
        10,
        "c782193a0f6ea0030c97148ec87881a9d6e9e58ff597e9475469a833b855840b",
    ),
    "p1-no-form": (
        {"is_balanced": _none},
        1,
        "2b5e6223abc218b4ff375fccced02e764d09cdaec34a4c374c9a142c210571a0",
    ),
}


@pytest.mark.parametrize("key", sorted(FAILING_BODIES))
def test_failing_report_bodies_match_golden_digests(key, monkeypatch):
    patches, n_counter, digest = FAILING_BODIES[key]
    for name, fake in patches.items():
        monkeypatch.setattr(cli, name, fake)
    report = run(ExperimentConfig(command=key.split("/")[0], r=2, m=3, seed=0, trials=5))
    assert report.passes == (1 if key == "codim-threshold" else 0)
    assert len(report.counterexamples) == n_counter
    text = json.dumps(report.body(), sort_keys=True, indent=2)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_env_seed_fallback(tmp_path, monkeypatch):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    monkeypatch.setenv("PLUECKERLAB_SEED", "123")
    main(["expand-check", "--r", "1", "--m", "2", "--trials", "3", "--out", str(out1)])
    monkeypatch.delenv("PLUECKERLAB_SEED")
    main(
        [
            "expand-check",
            "--r",
            "1",
            "--m",
            "2",
            "--trials",
            "3",
            "--seed",
            "123",
            "--out",
            str(out2),
        ]
    )
    a = json.loads(out1.read_text())
    b = json.loads(out2.read_text())
    a.pop("wall_time_s")
    b.pop("wall_time_s")
    assert a == b


def test_csv_mirror(tmp_path):
    out = tmp_path / "r.csv"
    code = main(
        [
            "multiplicity-bound",
            "--r",
            "2",
            "--m",
            "3",
            "--trials",
            "6",
            "--seed",
            "5",
            "--format",
            "csv",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out.read_text())))
    assert len(rows) == 6
    assert all(row["ok"] == "True" for row in rows)


def test_splitting_sets_rank(tmp_path):
    out = tmp_path / "r.json"
    code = main(
        [
            "p1-no-form",
            "--splitting",
            "2,2,2",
            "--m",
            "3",
            "--trials",
            "10",
            "--seed",
            "2",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    data = json.loads(out.read_text())
    assert data["config"]["r"] == 3


@pytest.mark.parametrize("prime", [3, 2**31 - 1])
@pytest.mark.parametrize("splitting", [(2, 2), (3, 1)])
def test_no_form_draws_as_its_inline_loop_did(prime, splitting):
    # The suite's loop as it was written out before the shared search: the
    # first trial with a nonzero determinant, then a fresh seed for
    # has_plucker_form from the same stream.
    field = PrimeField(prime)
    pair = make_pair(splitting, 3, field)
    for seed in range(3):
        rng = random.Random(seed)
        witness = None
        for trial in range(4):
            if divisor_value(pair, sample_distinct_points(3, field, rng)):
                witness = trial
                break
        hp = has_plucker_form(pair, 4, rng.randrange(2**32))
        cfg = ExperimentConfig(
            command="p1-no-form", r=2, m=3, splitting=splitting, prime=prime, seed=seed, trials=4
        )
        (case,) = run(cfg).cases
        assert (case["first_nonzero_trial"], case["has_plucker_form"]) == (witness, hp)


def test_splitting_of_another_length_than_r_exits_two(capsys):
    argv = ["taylor-check", "--r", "3", "--splitting", "1,1", "--trials", "1"]
    assert main(argv) == 2
    assert "splitting length must equal r" in capsys.readouterr().err


@pytest.mark.parametrize("r,m", [(4, 4), (2, 6)])
def test_expand_check_beyond_a_million_terms_exits_two(r, m, capsys):
    # (4,4) has 63,063,000 shuffle terms and (2,6) 7,484,400: both are
    # refused before the expansion is built.
    assert main(["expand-check", "--r", str(r), "--m", str(m), "--trials", "1"]) == 2
    assert "at most 10^6" in capsys.readouterr().err


def test_expand_check_at_three_four_is_accepted():
    # 369,600 terms, under the limit.
    cli._validate(ExperimentConfig(command="expand-check", r=3, m=4, trials=1))


# Every shape that CI, the golden digests and the benchmark run fits the
# coefficient budget, and so do the large shapes (5,3), (4,4) and (3,5).
BUDGET_ACCEPTED = sorted(
    set(GOLDEN_BODIES)
    | set(GOLDEN_BODIES_Q)
    | {("p1-lambda", 2, 4), ("p1-divisor", 3, 4), ("p1-no-form", 2, 3)}
    | {("codim-threshold", r, 3) for r in (2, 3, 4, 5)}
    | {("taylor-check", r, m) for r, m in [(2, 3), (3, 3), (5, 3), (4, 4), (3, 5)]}
)


@pytest.mark.parametrize("command,r,m", BUDGET_ACCEPTED)
def test_coefficient_budget_accepts_every_shape_that_is_run(command, r, m):
    cli._validate(ExperimentConfig(command=command, r=r, m=m, trials=1))


@pytest.mark.parametrize(
    "command,r,m", [("taylor-check", 8, 8), ("codim-threshold", 7, 3), ("p1-divisor", 6, 4)]
)
def test_vectors_beyond_the_coefficient_budget_are_refused(command, r, m, capsys):
    # C(64, 8) = 4,426,165,368, C(21, 7) = 116,280 and C(24, 6) = 134,596
    # coefficients: refused before lex_masks is built.
    with pytest.raises(ValueError, match=r"at most 10\^5"):
        cli._validate(ExperimentConfig(command=command, r=r, m=m, trials=1))
    if (r, m) == (8, 8):
        assert main([command, "--r", "8", "--m", "8", "--trials", "1"]) == 2
        assert "C(rm, r) = 4426165368" in capsys.readouterr().err


# Every reconstruction shape that CI, the golden digests and the benchmark's
# classifier run fits the Schur budget, and so do (5,3), (4,4) and (3,5);
# (4,4) needs 23,178,375 cells.
SCHUR_ACCEPTED = sorted(
    {(r, m) for command, r, m in BUDGET_ACCEPTED if command == "reconstruction"}
    | {(2, 3), (3, 3), (4, 3), (5, 3), (4, 4), (3, 5)}
)


@pytest.mark.parametrize("r,m", SCHUR_ACCEPTED)
def test_schur_budget_accepts_every_reconstruction_shape_that_is_run(r, m):
    cli._validate(ExperimentConfig(command="reconstruction", r=r, m=m, trials=1))


@pytest.mark.parametrize("r", [2, 3])
def test_schur_cells_count_the_buffer_the_classifier_fills(r):
    # A non-member has a nonzero S, so nothing short-cuts the count.
    w = random_exterior(3 * r, r, PrimeField(), random.Random(r))
    k, S = _wedge_schur(w, r)
    assert S.size + (S.shape[0] + S.shape[1]) * k == cli._schur_cells(r, 3)


@pytest.mark.parametrize("r,m", [(6, 3), (2, 18), (4, 5)])
def test_reconstruction_beyond_the_schur_budget_is_refused(r, m, capsys):
    # Each fits the coefficient budget; only the verdict is checked, no run
    # is started.  (6,3)'s S alone is 17640 x 17640.
    assert cli._MAX_SCHUR_CELLS == 3 * 10**7 < cli._schur_cells(r, m)
    with pytest.raises(ValueError, match="at most 30000000$"):
        cli._validate(ExperimentConfig(command="reconstruction", r=r, m=m, trials=1))
    if (r, m) == (6, 3):
        assert main(["reconstruction", "--r", "6", "--m", "3", "--trials", "1"]) == 2
        assert "hold 343768320 cells" in capsys.readouterr().err


def test_parser_lists_all_suites():
    parser = build_parser()
    text = parser.format_help()
    for name in (
        "taylor-check",
        "expand-check",
        "multiplicity-bound",
        "rank-bound",
        "reconstruction",
        "codim-threshold",
        "degeneracy-det",
        "p1-divisor",
        "p1-detmap",
        "p1-lambda",
        "p1-no-form",
    ):
        assert name in text


def test_splitting_that_is_not_integers_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["p1-divisor", "--splitting", "2,x", "--trials", "1"])
    assert exc.value.code == 2
    assert "splitting must be comma-separated integers" in capsys.readouterr().err
