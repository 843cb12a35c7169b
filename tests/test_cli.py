"""End-to-end CLI behavior: outputs, exit codes, replayability."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

import pseudospec
from pseudospec import cli, codes


def run(argv):
    return cli.main(argv)


def test_cli_import_skips_quadrature_and_arpack():
    # a fresh interpreter, so modules this test process loaded cannot mask it
    src = os.path.dirname(os.path.dirname(pseudospec.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = ("import sys, pseudospec.cli; "
            "print([m for m in ('scipy.integrate', 'scipy.sparse.linalg') "
            "if m in sys.modules])")
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out.strip() == "[]"


# --- genpoly / dual ----------------------------------------------------------

def test_genpoly_json(capsys):
    assert run(["genpoly", "--m", "4", "--delta", "5"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["k"] == 7
    assert payload["k_dual"] == 8
    assert payload["n"] == 15
    assert payload["delta"] == 5


def test_genpoly_by_target_dimension(capsys):
    assert run(["genpoly", "--m", "4", "--k", "7"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["delta"] == 5 and payload["k"] == 7


def test_genpoly_degenerate_exit_2(capsys):
    assert run(["genpoly", "--m", "4", "--delta", "31"]) == 2
    assert "error" in capsys.readouterr().err


def test_genpoly_needs_delta_or_k(capsys):
    assert run(["genpoly", "--m", "4"]) == 2


def test_genpoly_unsupported_degree(capsys):
    assert run(["genpoly", "--m", "25", "--delta", "5"]) == 2


def test_dual_json(capsys):
    assert run(["dual", "--m", "3", "--delta", "3"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["k_dual"] == 3
    assert payload["base"]["k"] == 4


def test_dual_rejects_delta_with_k(capsys):
    assert run(["dual", "--m", "4", "--delta", "5", "--k", "7"]) == 2
    assert "not both" in capsys.readouterr().err


# --- verify-indep ------------------------------------------------------------

def test_verify_indep_pass_exit_0(capsys):
    assert run(["verify-indep", "--m", "4", "--delta", "5", "--r", "4"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["verdict"] == "pass"
    assert payload["subsets_checked"] == 1365


def test_verify_indep_fail_exit_1(capsys):
    assert run(["verify-indep", "--m", "3", "--delta", "3", "--r", "3"]) == 1
    assert json.loads(capsys.readouterr().out)["verdict"] == "fail"


# --- sample -------------------------------------------------------------------

def test_sample_writes_batch(tmp_path, capsys):
    out = str(tmp_path / "batch")
    assert run(["sample", "--m", "4", "--delta", "5", "--count", "6",
                "--seed", "11", "--out", out]) == 0
    n, words = codes.load_codewords(tmp_path / "batch" / "codewords.bin")
    assert n == 15 and len(words) == 6
    dual = codes.dual_code(codes.bch_generator(4, 5))
    assert words == codes.sample_codewords(dual, 6, seed=11)
    config = json.loads((tmp_path / "batch" / "config.json").read_text())
    assert config["command"] == "sample"
    assert config["params"]["seed"] == 11


# --- norms ----------------------------------------------------------------------

def test_norms_outputs_and_replay(tmp_path, capsys):
    args = ["norms", "--kind", "pseudo-wigner", "--m", "6", "--delta", "5",
            "--N", "10", "--count", "12", "--seed", "3"]
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    assert run(args + ["--out", out1]) == 0
    assert run(args + ["--out", out2]) == 0
    csv1 = (tmp_path / "a" / "norms.csv").read_bytes()
    assert csv1 == (tmp_path / "b" / "norms.csv").read_bytes()
    assert csv1.decode().splitlines()[0] == "norm"
    summary = json.loads((tmp_path / "a" / "summary.json").read_text())
    assert summary["count"] == 12
    assert len(summary["deviation_per_sample"]) == 12
    assert summary["ensemble"]["kind"] == "pseudo-wigner"
    assert summary["ensemble"]["r"] == 4
    assert len(summary["histogram"]["edges"]) == len(summary["histogram"]["density"]) + 1
    # exactly one sidecar json with the full replay config
    config = json.loads((tmp_path / "a" / "config.json").read_text())
    assert config["command"] == "norms"
    assert config["params"] == {
        "kind": "pseudo-wigner", "m": 6, "delta": 5, "N": 10, "p": None,
        "gamma": None, "count": 12, "seed": 3, "epsilon": cli.DEFAULT_EPSILON}


def test_norms_infeasible_packing_exit_2(tmp_path, capsys):
    assert run(["norms", "--kind", "pseudo-wigner", "--m", "6", "--delta", "5",
                "--N", "12", "--count", "2", "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize("m", ["-1", "0", "21"])
def test_norms_unsupported_degree_exit_2(tmp_path, capsys, m):
    assert run(["norms", "--kind", "pseudo-wigner", "--m", m, "--delta", "5",
                "--N", "4", "--count", "1", "--out", str(tmp_path)]) == 2
    assert "outside supported range" in capsys.readouterr().err


BATCH = ["--m", "6", "--delta", "5", "--N", "8", "--count", "2"]


@pytest.mark.parametrize("argv", [
    ["sample", "--m", "4", "--delta", "5", "--count", "3", "--seed", "-1"],
    ["verify-indep", "--m", "4", "--delta", "5", "--r", "4", "--budget", "10",
     "--seed", "-1"],
    ["moments", "--kind", "pseudo-wigner", *BATCH, "--s-max", "-1"],
    ["moments", "--kind", "pseudo-wigner", *BATCH, "--s-max", "0"],
    ["norms", "--kind", "pseudo-mp", *BATCH, "--gamma", "nan"],
    ["norms", "--kind", "pseudo-mp", *BATCH, "--gamma", "inf"],
    ["norms", "--kind", "pseudo-wigner", *BATCH, "--epsilon", "nan"],
    ["norms", "--kind", "random-mp", "--N", "10", "--p", "5", "--gamma", "0.9",
     "--count", "3"],
    ["norms", "--kind", "random-wigner", "--N", "10", "--gamma", "0.3",
     "--count", "3"],
    ["verify-indep", "--m", "6", "--delta", "5", "--r", "12", "--mode", "sampled",
     "--budget", "3"],
    ["norms", "--kind", "random-wigner", "--N", "8", "--count", "0"],
    ["norms", "--kind", "pseudo-wigner", "--m", "6", "--delta", "5", "--N", "8",
     "--count", "-2"],
    ["esd", "--kind", "random-wigner", "--N", "8", "--count", "0"],
    ["esd", "--kind", "pseudo-mp", "--m", "6", "--delta", "5", "--N", "8", "--p", "4",
     "--count", "-1"],
    ["moments", "--kind", "random-mp", "--N", "8", "--p", "4", "--count", "0"],
    ["moments", "--kind", "pseudo-wigner", "--m", "6", "--delta", "5", "--N", "8",
     "--count", "-5"],
], ids=["sample-seed", "verify-indep-seed", "s-max-negative", "s-max-zero",
        "gamma-nan", "gamma-inf", "epsilon-nan", "gamma-with-p", "gamma-wigner",
        "sampled-r-12", "norms-count-0", "norms-count-negative", "esd-count-0",
        "esd-count-negative", "moments-count-0", "moments-count-negative"])
def test_out_of_range_input_exit_2(tmp_path, capsys, argv):
    out = tmp_path / "out"
    if argv[0] != "verify-indep":
        argv = argv + ["--out", str(out)]
    assert run(argv) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["--kind", "random-wigner", "--N", "1", "--count", "3"],
    ["--kind", "pseudo-wigner", "--m", "6", "--delta", "5", "--N", "1", "--count", "3"],
    ["--kind", "random-mp", "--N", "1", "--p", "1", "--count", "3"],
], ids=["random-wigner", "pseudo-wigner", "random-mp"])
def test_norms_single_row_exit_2(tmp_path, capsys, argv):
    # the deviation statistic divides by log N, so N = 1 has none to report
    assert run(["norms", *argv, "--out", str(tmp_path)]) == 2
    assert "N >= 2" in capsys.readouterr().err
    assert not (tmp_path / "norms.csv").exists()
    assert not (tmp_path / "summary.json").exists()
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("delta", ["1", "0", "-3", "200"])
@pytest.mark.parametrize("argv", [
    ["norms", "--kind", "pseudo-wigner"],
    ["esd", "--kind", "pseudo-mp", "--p", "4"],
    ["moments", "--kind", "pseudo-wigner"],
], ids=["norms", "esd", "moments"])
def test_bad_designed_distance_exit_2_before_output(tmp_path, capsys, argv, delta):
    # delta < 3 has no guarantee, and delta = 200 > n = 63 leaves no code
    out = tmp_path / "out"
    assert run([*argv, "--m", "6", "--delta", delta, "--N", "8", "--count", "2",
                "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


@pytest.mark.filterwarnings("ignore:overflow encountered")
@pytest.mark.parametrize("epsilon", ["1000", "-1000", "-532"])
def test_norms_extreme_epsilon_exit_2(tmp_path, capsys, epsilon):
    # log^(1+eps) N overflows at 1000 and underflows to 0 at -1000; at -532
    # it is tiny but positive, and the deviation means overflow to +-inf
    out = tmp_path / "out"
    assert run(["norms", "--kind", "random-wigner", "--N", "44", "--count", "300",
                "--epsilon", epsilon, "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not (out / "summary.json").exists()
    if epsilon != "-532":
        assert not out.exists()


def test_verify_indep_exact_at_paper_scale(capsys):
    # the m = 14 code of the N = 180 experiment, at its guaranteed level
    assert run(["verify-indep", "--m", "14", "--delta", "31", "--r", "30",
                "--budget", "50"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert (payload["mode"], payload["verdict"]) == ("exact", "pass")


@pytest.mark.parametrize("kind", cli.ensembles.KINDS)
def test_iter_summaries_match_validated_eigen(kind):
    # the runner skips symmetric_eigen's input check, not any of its results
    p = 5 if kind in cli.ensembles.MP_KINDS else None
    code = dict(m=6, delta=5) if kind in cli.ensembles.PSEUDO_KINDS else {}
    spec = cli.ensembles.ensemble_spec(kind, N=9, p=p, seed=3, **code)
    mats = cli.ensembles.matrix_stream(spec, 3)
    for summary, M in zip(cli.iter_summaries(spec, 3), mats, strict=True):
        checked = cli.spectral.symmetric_eigen(M)
        assert np.array_equal(summary.eigenvalues, checked.eigenvalues)
        assert summary.norm == checked.norm


# --- esd --------------------------------------------------------------------------

def test_esd_outputs(tmp_path):
    out = str(tmp_path / "esd")
    assert run(["esd", "--kind", "random-wigner", "--N", "16", "--count", "4",
                "--seed", "8", "--out", out]) == 0
    rows = (tmp_path / "esd" / "eigenvalues.csv").read_text().strip().split("\n")
    assert len(rows) == 4
    assert len(rows[0].split(",")) == 16
    ks = json.loads((tmp_path / "esd" / "ks.json").read_text())
    assert ks["law"] == "semicircle"
    assert len(ks["ks_per_sample"]) == 4
    assert 0 <= ks["fraction_within_band"] <= 1


def test_esd_random_mp_monte_carlo_sanity():
    # 20 truly random SCMs at N=400, p=250: every spectrum hugs MP(0.625)
    spec = cli.ensembles.ensemble_spec("random-mp", N=400, p=250, seed=13)
    law = cli.law_for(spec)
    ks = [
        cli.spectral.ks_distance(s, law) for s in cli.iter_summaries(spec, 20)
    ]
    assert max(ks) < 0.05


def test_esd_mp_kind(tmp_path):
    out = str(tmp_path / "esd")
    assert run(["esd", "--kind", "pseudo-mp", "--m", "6", "--delta", "5",
                "--N", "7", "--p", "4", "--count", "3", "--seed", "2",
                "--out", out]) == 0
    ks = json.loads((tmp_path / "esd" / "ks.json").read_text())
    assert ks["law"] == "marchenko-pastur"
    assert ks["gamma"] == 4 / 7


# --- moments -------------------------------------------------------------------------

def test_moments_exact_columns(tmp_path):
    out = str(tmp_path / "mom")
    assert run(["moments", "--kind", "pseudo-wigner", "--m", "6", "--delta", "5",
                "--N", "10", "--count", "8", "--seed", "4", "--s-max", "3",
                "--out", out]) == 0
    rows = (tmp_path / "mom" / "moments.csv").read_text().strip().split("\n")
    assert rows[0] == "s,sample_mean,law_moment,stirling_ratio"
    s2 = rows[2].split(",")
    assert abs(float(s2[1]) - 0.25) <= 1e-12   # exact second-moment identity
    assert float(s2[2]) == 0.25


def test_moments_mp_first_moment_exact(tmp_path):
    out = str(tmp_path / "mom")
    assert run(["moments", "--kind", "random-mp", "--N", "12", "--p", "6",
                "--count", "5", "--seed", "4", "--s-max", "2", "--out", out]) == 0
    rows = (tmp_path / "mom" / "moments.csv").read_text().strip().split("\n")
    assert rows[0] == "s,sample_mean,law_moment"
    s1 = rows[1].split(",")
    assert abs(float(s1[1]) - 1.0) <= 1e-12
    assert float(s1[2]) == 1.0


# --- plumbing ---------------------------------------------------------------------------

def test_norm_deviation_uses_min_rho_two_thirds():
    spec_fast = cli.ensembles.ensemble_spec("random-wigner", N=64, seed=0)
    dev = cli.norm_deviation(spec_fast, 1.5, epsilon=0.1)
    expected = 0.5 * 64 ** (2 / 3) / np.log(64) ** 1.1
    assert dev == pytest.approx(expected)
    spec_slow = cli.ensembles.ensemble_spec(
        "pseudo-wigner", N=64, m=12, delta=5, seed=0
    )  # r = 4, rho = log_64(4) = 1/3 < 2/3
    dev = cli.norm_deviation(spec_slow, 1.5, epsilon=0.1)
    expected = 0.5 * 64 ** (1 / 3) / np.log(64) ** 1.1
    assert dev == pytest.approx(expected)


def test_ks_band():
    spec = cli.ensembles.ensemble_spec("pseudo-wigner", N=44, m=10, delta=15)
    assert cli.ks_band(spec) == pytest.approx(2 / np.sqrt(44))  # floor dominates
    spec = cli.ensembles.ensemble_spec("pseudo-wigner", N=44, m=10, delta=3)
    assert cli.ks_band(spec) == pytest.approx(0.5)  # 1/r with r = 2
