"""End-to-end CLI behavior: outputs, exit codes, replayability."""

import ast
import functools
import inspect
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import oracles

import pseudospec
from pseudospec import cli, codes, laws, spectral
from pseudospec.errors import NumericalFailureError


def run(argv):
    return cli.main(argv)


def packed(spec, count):
    """The matrices of samples 0 .. count-1, each packed from its own bits."""
    return [cli.ensembles.pack(spec, cli.ensembles.sample_bits(spec, i))
            for i in range(count)]


def test_cli_import_and_norms_load_no_scipy(tmp_path):
    # a fresh interpreter, so modules this test process loaded cannot mask
    # it; the norm route must use numpy's LAPACK, not load scipy's
    src = os.path.dirname(os.path.dirname(pseudospec.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = (
        "import sys, pseudospec.cli\n"
        "def scipy(): return [m for m in sys.modules if m.split('.')[0] == 'scipy']\n"
        "print(scipy())\n"
        "argv = ['norms', '--kind', 'pseudo-wigner', '--m', '14', '--delta', '31',\n"
        f"        '--N', '180', '--count', '3', '--out', {str(tmp_path)!r}]\n"
        "assert pseudospec.cli.main(argv) == 0\n"
        "print(scipy())\n"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True).stdout
    lines = out.splitlines()  # after the import, then after the norms run
    assert (lines[0], lines[-1]) == ("[]", "[]")


def test_pseudo_batch_commands_never_import_numpy_random(tmp_path):
    # a fresh interpreter, as above: every pseudo message, sample 0's
    # included, comes from codes' own SeedSequence/PCG64 arithmetic, so
    # numpy.random (about 5 MB of peak RSS) is never loaded
    src = os.path.dirname(os.path.dirname(pseudospec.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = (
        "import sys, pseudospec.cli\n"
        "code = ['--m', '6', '--delta', '5', '--count', '3', '--seed', '4294967301']\n"
        "for i, argv in enumerate([\n"
        "        ['norms', '--kind', 'pseudo-wigner', '--N', '10'],\n"
        "        ['esd', '--kind', 'pseudo-mp', '--N', '7', '--p', '4'],\n"
        "        ['moments', '--kind', 'pseudo-wigner', '--N', '10', '--s-max', '4']]):\n"
        f"    out = {str(tmp_path)!r} + '/' + str(i)\n"
        "    assert pseudospec.cli.main(argv + code + ['--out', out]) == 0\n"
        "print('numpy.random' in sys.modules)\n"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out.splitlines()[-1] == "False"  # after the commands' own output


def test_package_sources_import_no_scipy():
    # scipy is a test-only dependency: no module of the package may import
    # it, at top level or inside a function
    found = []
    for path in sorted(Path(pseudospec.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            found += [(path.name, name) for name in names
                      if name.split(".")[0] == "scipy"]
    assert found == []


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
    path = tmp_path / "batch" / "codewords.bin"
    n, words = oracles.read_codewords(path)
    assert n == 15 and len(words) == 6
    assert path.stat().st_size == 8 + 6 * 2
    assert all(word >> 15 == 0 for word in words)
    dual = codes.dual_code(codes.bch_generator(4, 5))
    assert words == list(codes.sample_codewords(dual, 6, seed=11))
    config = json.loads((tmp_path / "batch" / "config.json").read_text())
    assert config["command"] == "sample"
    assert config["params"]["seed"] == 11


def test_sample_streams_one_block_at_a_time(tmp_path, capsys):
    # words are drawn and written a block at a time, so the peak Python
    # allocation at 200,000 words stays near that of one MESSAGE_BLOCK;
    # the whole batch as a list of ints would need about 10x as much
    peaks = []
    for count in (codes.MESSAGE_BLOCK, 200_000):
        out = tmp_path / str(count)
        tracemalloc.start()
        try:
            assert run(["sample", "--m", "4", "--delta", "5", "--count", str(count),
                        "--out", str(out)]) == 0
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        n, words = oracles.read_codewords(out / "codewords.bin")
        assert (n, len(words)) == (15, count)
    assert peaks[1] < 1.5 * peaks[0], peaks


@pytest.mark.parametrize("count", [2**32, 2**32 + 1])
def test_sample_count_past_header_exit_2_before_drawing(tmp_path, capsys,
                                                        monkeypatch, count):
    # codewords.bin holds the count as a uint32, so a larger one is refused
    # before any message is drawn, instead of after the whole batch is written
    def never(*args):
        raise AssertionError("a message was drawn")

    monkeypatch.setattr(codes, "message_for_index", never)
    monkeypatch.setattr(codes, "message_bytes", never)
    out = tmp_path / "out"
    assert run(["sample", "--m", "4", "--delta", "5", "--count", str(count),
                "--out", str(out)]) == 2
    assert "2^32 - 1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["norms", "esd", "moments"])
def test_batch_count_past_2_32_exit_2_before_drawing(tmp_path, capsys,
                                                      monkeypatch, command):
    # messages exist only for indices below 2^32, so a larger count is
    # refused before any is drawn, instead of partway through the CSV
    def never(*args):
        raise AssertionError("a message was drawn")

    monkeypatch.setattr(codes, "message_for_index", never)
    monkeypatch.setattr(codes, "message_bytes", never)
    out = tmp_path / "out"
    assert run([command, "--kind", "pseudo-wigner", "--m", "4", "--delta", "5",
                "--N", "4", "--count", str(2**32 + 1), "--out", str(out)]) == 2
    assert "2^32" in capsys.readouterr().err
    assert not out.exists()


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
    assert config["environment"] == cli.spectral.environment()


@pytest.mark.parametrize("kind", cli.ensembles.KINDS)
def test_norms_csv_matches_full_solve(tmp_path, capsys, norm_route, kind):
    # every norms.csv value against the full eigvalsh norm of its matrix:
    # 1e-13 relative on the LAPACK route, bit for bit on the fallback, at
    # the BLAS thread count the command ran at (N = 180 pins it to one)
    p = 90 if kind in cli.ensembles.MP_KINDS else None
    code = dict(m=14, delta=31) if kind in cli.ensembles.PSEUDO_KINDS else {}
    flags = [f"--{k}={v}" for k, v in dict(p=p, **code).items() if v is not None]
    assert run(["norms", "--kind", kind, "--N", "180", *flags, "--count", "4",
                "--seed", "5", "--out", str(tmp_path)]) == 0
    rows = (tmp_path / "norms.csv").read_text().splitlines()[1:]
    spec = cli.ensembles.EnsembleSpec(kind, N=180, p=p, seed=5, **code)
    edge = spec.law.support[1]
    for row, M in zip(rows, packed(spec, 4), strict=True):
        with cli._blas_pin(spec):
            expected = oracles.dense_norm(M) / edge
        if norm_route == "eigvalsh":
            assert float(row) == expected
        else:
            assert abs(float(row) - expected) <= 1e-13 * expected
    config = json.loads((tmp_path / "config.json").read_text())
    assert config["environment"]["norm_route"] == norm_route


def test_norms_random_mp_rows_divide_by_mp_edge(tmp_path, capsys):
    # each row is the norm of its packed matrix over (1 + sqrt(p/N))^2, bit for bit
    assert run(["norms", "--kind", "random-mp", "--N", "40", "--p", "12", "--count", "5",
                "--seed", "3", "--out", str(tmp_path)]) == 0
    rows = (tmp_path / "norms.csv").read_text().splitlines()[1:]
    spec = cli.ensembles.EnsembleSpec("random-mp", N=40, p=12, seed=3)
    for row, M in zip(rows, packed(spec, 5), strict=True):
        assert float(row) == cli.spectral.norm_unchecked(M) / (1 + math.sqrt(12 / 40)) ** 2


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


@pytest.mark.parametrize("below", [False, True], ids=["file", "below-file"])
@pytest.mark.parametrize("argv", [
    ["norms", "--kind", "pseudo-wigner", *BATCH],
    ["esd", "--kind", "pseudo-mp", "--p", "4", *BATCH],
    ["moments", "--kind", "pseudo-wigner", *BATCH],
    ["sample", "--m", "4", "--delta", "5", "--count", "3"],
], ids=["norms", "esd", "moments", "sample"])
def test_unusable_out_exit_2(tmp_path, capsys, argv, below):
    # an --out that is an existing file, or a path below one, is bad input,
    # not a failed verification, and the file is left as it was
    taken = tmp_path / "taken"
    taken.write_text("kept\n")
    out = taken / "out" if below else taken
    assert run([*argv, "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert taken.read_text() == "kept\n"


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
    # the runner skips the oracle's input check, not any of its results:
    # eigvalsh's eigenvalues bit for bit, from N = 1 to the paper's N = 180;
    # all yields are compared after the last, so a later call at the same
    # order must not have changed an earlier array
    if kind in cli.ensembles.MP_KINDS:
        orders = [dict(N=9, p=5), dict(N=40, p=25)]
    else:
        orders = [dict(N=N) for N in (1, 2, 9, 44, 180)]
    for order in orders:
        code = {}
        if kind in cli.ensembles.PSEUDO_KINDS:
            code = dict(m=14, delta=31) if order["N"] == 180 else dict(m=10, delta=15)
        spec = cli.ensembles.EnsembleSpec(kind, seed=3, **order, **code)
        eigs = list(cli.iter_summaries(spec, 3, cli.spectral.eigenvalues_unchecked))
        # at N = 180 the samples are solved at one BLAS thread, so is the oracle
        with cli._blas_pin(spec):
            expected = [np.linalg.eigvalsh(M) for M in packed(spec, 3)]
        for got, want in zip(eigs, expected, strict=True):
            assert np.array_equal(got, want), order


@pytest.mark.parametrize("kind", cli.ensembles.KINDS)
def test_iter_summaries_yields_each_sample_in_index_order(kind, monkeypatch):
    # the one loop over sample indices: for every count, yield i is solve of
    # sample i's matrix, so every prefix of a batch reproduces.  Pseudo kinds
    # draw message 0 alone and the rest in blocks, which a block of 2
    # messages makes cross several boundaries
    assert inspect.isgeneratorfunction(cli.iter_summaries)
    p = 4 if kind in cli.ensembles.MP_KINDS else None
    code = dict(m=6, delta=5) if kind in cli.ensembles.PSEUDO_KINDS else {}
    spec = cli.ensembles.EnsembleSpec(kind, N=7, p=p, seed=12, **code)
    expected = [M.tobytes() for M in packed(spec, 7)]
    assert len(set(expected)) == 7
    calls = {"message_for_index": 0, "message_bytes": 0}

    def counted(name):
        fn = getattr(codes, name)

        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    for name in calls:
        monkeypatch.setattr(codes, name, counted(name))
    for block in (codes.MESSAGE_BLOCK, 2):
        monkeypatch.setattr(codes, "MESSAGE_BLOCK", block)
        for count in range(7):
            calls.update(dict.fromkeys(calls, 0))
            got = list(cli.iter_summaries(spec, count, np.ndarray.tobytes))
            assert got == expected[:count]
            if spec.pseudo:
                assert calls == {"message_for_index": min(count, 1),
                                 "message_bytes": math.ceil(max(count - 1, 0) / block)}


@pytest.mark.parametrize("kind", cli.ensembles.KINDS)
def test_matrices_of_two_ranges_join_to_one(kind, monkeypatch):
    # [0, a) then [a, n) gives the matrices of [0, n) at every split a; with
    # blocks of 3 messages most ranges start mid-block, drawing their first
    # message alone and the rest in blocks from a + 1
    monkeypatch.setattr(codes, "MESSAGE_BLOCK", 3)
    p = 4 if kind in cli.ensembles.MP_KINDS else None
    code = dict(m=6, delta=5) if kind in cli.ensembles.PSEUDO_KINDS else {}
    spec = cli.ensembles.EnsembleSpec(kind, N=7, p=p, seed=12, **code)
    n = 11
    whole = [M.tobytes() for M in cli._matrices(spec, 0, n)]
    assert whole == [M.tobytes() for M in packed(spec, n)]
    assert len(set(whole)) == n
    for a in range(n + 1):
        joined = [M.tobytes() for M in cli._matrices(spec, 0, a)]
        joined += [M.tobytes() for M in cli._matrices(spec, a, n)]
        assert joined == whole, a


# --- shards -----------------------------------------------------------------------

def shard_spec(kind: str, seed: int = 4) -> cli.ensembles.EnsembleSpec:
    """A spec at the smallest order that has shards; MP kinds take N = p + 10."""
    order = cli.PINNED_ORDERS.start
    mp = kind in cli.ensembles.MP_KINDS
    N, p = (order + 10, order) if mp else (order, None)
    code = {}
    if kind in cli.ensembles.PSEUDO_KINDS:
        code = dict(m=(N * (p or (N + 1) // 2)).bit_length(), delta=5)
    return cli.ensembles.EnsembleSpec(kind, N=N, p=p, seed=seed, **code)


@pytest.fixture()
def two_blas_threads():
    """numpy's OpenBLAS at two threads, so a pin to one can be seen."""
    if not spectral.CAN_PIN:
        pytest.skip("numpy's BLAS exports no openblas_{get,set}_num_threads64_")
    get, set_ = spectral._THREADS
    before = get()
    set_(2)
    yield get()
    set_(before)


def test_shards_only_at_pinned_orders(monkeypatch, forks, no_child_left, tmp_path):
    # one CPU count for the batch shards and sampled verify-indep's workers:
    # the affinity mask, else os.cpu_count(), else 1
    assert spectral.cpu_count() == len(os.sched_getaffinity(0))
    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: 5)
    assert spectral.cpu_count() == 5
    assert spectral.shares(range(1, 11)) == [range(1, 3), range(3, 5), range(5, 7),
                                             range(7, 9), range(9, 11)]
    assert spectral.shares(range(4, 6)) == [range(4, 5), range(5, 6)]
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert spectral.cpu_count() == 1
    assert spectral.shares(range(1, 11)) == [range(1, 11)]

    monkeypatch.setattr(spectral, "cpu_count", lambda: 3)
    inside = shard_spec("random-wigner")
    assert inside.order in cli.PINNED_ORDERS
    sharded = 2 if spectral.CAN_PIN else 0  # samples 1 .. 3 in three shares
    for spec, made in [
        (inside, sharded),
        (cli.ensembles.EnsembleSpec("random-wigner", N=cli.PINNED_ORDERS.start - 1), 0),
        (cli.ensembles.EnsembleSpec("random-wigner", N=cli.PINNED_ORDERS.stop), 0),
    ]:
        forks[0] = 0
        assert len(list(cli.iter_summaries(spec, 4, spectral.norm_unchecked))) == 4
        assert forks[0] == made, spec.order
    # all three batch commands shard at a pinned order
    for command in ("norms", "esd", "moments"):
        forks[0] = 0
        assert run([command, "--kind", "random-wigner", "--N", str(inside.N),
                    "--count", "4", "--out", str(tmp_path / command)]) == 0
        assert forks[0] == sharded, command
    no_child_left()


@pytest.mark.parametrize("kind", cli.ensembles.KINDS)
def test_shards_match_one_process(kind, monkeypatch, forks, no_child_left):
    # norms, moments and esd on 1, 2 and 3 CPUs, bit for bit (and type for
    # type) the readers' results on each packed sample at one BLAS thread,
    # in index order, over rounds of 2 samples per CPU and message blocks
    # of 3, so that shares start mid-block
    monkeypatch.setattr(codes, "MESSAGE_BLOCK", 3)
    monkeypatch.setattr(cli, "SHARD_ROUND", 2)
    spec, count = shard_spec(kind), 11
    matrices = packed(spec, count)
    moments = functools.partial(spectral.trace_moments_unchecked, s_max=9)
    for solve in (spectral.norm_unchecked, moments, spectral.eigenvalues_unchecked):
        with spectral.one_blas_thread():
            expected = [solve(M.copy()) for M in matrices]
        for workers in (1, 2, 3):
            monkeypatch.setattr(spectral, "cpu_count", lambda: workers)
            forks[0] = 0
            got = list(cli.iter_summaries(spec, count, solve))
            assert [type(v) for v in got] == [type(v) for v in expected]
            assert np.array_equal(np.array(got), np.array(expected)), (solve, workers)
            # one fork per share of a round but its first
            rounds = [range(start, min(start + 2 * workers, count))
                      for start in range(1, count, 2 * workers)]
            made = sum(min(workers, len(r)) - 1 for r in rounds)
            assert forks[0] == (made if spectral.CAN_PIN else 0), (solve, workers)
    no_child_left()


def test_closing_shards_leaves_no_child(two_blas_threads, monkeypatch, forks, no_child_left):
    # closed amid this process's share (samples 1 .. 14) or amid the
    # forked child's results (15 .. 29)
    monkeypatch.setattr(spectral, "cpu_count", lambda: 2)
    for taken in (3, 20):
        forks[0] = 0
        gen = cli.iter_summaries(shard_spec("pseudo-wigner"), 30, spectral.norm_unchecked)
        for _ in range(taken):
            next(gen)
            assert spectral.environment()["blas_threads"] == 1
        assert forks[0] == 1
        gen.close()
        assert spectral.environment()["blas_threads"] == two_blas_threads
        no_child_left()


def test_shard_error_comes_after_earlier_samples(two_blas_threads, monkeypatch, forks,
                                                  no_child_left):
    # the reader fails on sample j, in this process's share (1 .. 5) or in
    # the forked child's (6 .. 11): samples 0 .. j-1 are yielded, in order,
    # then the reader's own error; no child is left and the thread count is
    # restored
    monkeypatch.setattr(spectral, "cpu_count", lambda: 2)
    spec = shard_spec("random-wigner")
    matrices = packed(spec, 12)
    with spectral.one_blas_thread():
        expected = [spectral.norm_unchecked(M.copy()) for M in matrices]
    for j in (3, 8):

        def reader(M):
            if np.array_equal(M, matrices[j]):
                raise NumericalFailureError(f"sample {j}")
            return spectral.norm_unchecked(M)

        got = []
        forks[0] = 0
        with pytest.raises(NumericalFailureError, match=f"sample {j}"):
            for norm in cli.iter_summaries(spec, 12, reader):
                got.append(norm)
        assert got == expected[:j]
        assert forks[0] == 1
        assert spectral.environment()["blas_threads"] == two_blas_threads
        no_child_left()


def test_batch_outputs_do_not_depend_on_blas_threads(tmp_path):
    # fresh interpreters at OPENBLAS_NUM_THREADS=1 and 2: inside
    # PINNED_ORDERS every CSV and JSON is byte-identical, config.json's
    # environment aside, which records the one thread the spectra ran on
    commands = {
        "norms360": ["norms", "--kind", "pseudo-wigner", "--m", "16", "--delta", "31",
                     "--N", "360", "--count", "40", "--seed", "1"],
        "esd180": ["esd", "--kind", "random-wigner", "--N", "180", "--count", "30",
                   "--seed", "1"],
        "moments180": ["moments", "--kind", "pseudo-wigner", "--m", "14", "--delta", "31",
                       "--N", "180", "--count", "30", "--s-max", "16", "--seed", "1"],
    }
    src = os.path.dirname(os.path.dirname(pseudospec.__file__))
    outputs = {}
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        runs = {name: argv + ["--out", str(tmp_path / threads / name)]
                for name, argv in commands.items()}
        code = ("import sys, pseudospec.cli\n"
                f"for argv in {list(runs.values())!r}:\n"
                "    assert pseudospec.cli.main(argv) == 0\n")
        subprocess.run([sys.executable, "-c", code], env=env, check=True,
                       capture_output=True, text=True)
        outputs[threads] = {}
        for path in sorted((tmp_path / threads).rglob("*.*")):
            text = path.read_text()
            if path.name == "config.json":
                config = json.loads(text)
                env_block = config.pop("environment")
                if spectral.CAN_PIN:
                    assert env_block["blas_threads"] == 1, path
                text = json.dumps(config)
            outputs[threads][str(path.relative_to(tmp_path / threads))] = text
    assert len(outputs["1"]) == 8
    assert outputs["1"].keys() == outputs["2"].keys()
    for name, text in outputs["1"].items():
        assert outputs["2"][name] == text, name


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


@pytest.mark.parametrize("count", [1, 3, 7])
@pytest.mark.parametrize("kind", ["pseudo-mp", "random-wigner"])
def test_esd_scores_spectra_across_blocks(tmp_path, monkeypatch, kind, count):
    # blocks of 3: count 1 fills a one-row buffer, 3 one block, 7 two and a third
    monkeypatch.setattr(cli, "KS_BLOCK", 3)
    calls = []
    ks_distance = cli.spectral.ks_distance

    def counted(eigenvalues, law):
        calls.append(np.shape(eigenvalues))
        return ks_distance(eigenvalues, law)

    monkeypatch.setattr(cli.spectral, "ks_distance", counted)
    if kind == "pseudo-mp":
        shape = ["--m", "6", "--delta", "5", "--N", "7", "--p", "4"]
        law = laws.MarchenkoPasturLaw(4 / 7)
    else:
        shape, law = ["--N", "9"], laws.SemicircleLaw()
    assert run(["esd", "--kind", kind, *shape, "--count", str(count), "--seed", "5",
                "--out", str(tmp_path)]) == 0
    assert [rows for rows, _ in calls] == {1: [1], 3: [3], 7: [3, 3, 1]}[count]
    rows = (tmp_path / "eigenvalues.csv").read_text().splitlines()
    ks = json.loads((tmp_path / "ks.json").read_text())["ks_per_sample"]
    assert len(rows) == len(ks) == count
    assert ks == [ks_distance([float(v) for v in row.split(",")], law) for row in rows]


def test_esd_random_mp_monte_carlo_sanity():
    # 20 truly random SCMs at N=400, p=250: every spectrum hugs MP(0.625)
    spec = cli.ensembles.EnsembleSpec("random-mp", N=400, p=250, seed=13)
    law = spec.law
    ks = [
        cli.spectral.ks_distance(s, law)
        for s in cli.iter_summaries(spec, 20, cli.spectral.eigenvalues_unchecked)
    ]
    assert max(ks) < 0.05


def test_esd_eigensolver_failure_exit_3(tmp_path, capsys, monkeypatch):
    def fails(M):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigvalsh", fails)
    assert run(["esd", "--kind", "random-wigner", "--N", "16", "--count", "2",
                "--out", str(tmp_path)]) == 3
    assert "eigensolver did not converge" in capsys.readouterr().err
    assert not (tmp_path / "ks.json").exists()


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


def test_moments_high_order_stays_finite(tmp_path):
    # 672 is the largest usable --s-max at gamma 1/2; the sample moments
    # there are near 1e217, inside the float range
    out = tmp_path / "mom"
    assert run(["moments", "--kind", "random-mp", "--N", "8", "--p", "4",
                "--count", "3", "--s-max", "672", "--out", str(out)]) == 0
    rows = (out / "moments.csv").read_text().strip().split("\n")[1:]
    means = np.array([float(row.split(",")[1]) for row in rows])
    assert means.size == 672 and np.all(np.isfinite(means))
    # the eigenvalue power sums of the full solve give 8.035464371684029e+217
    assert means[-1] == pytest.approx(8.035464371684029e+217, rel=1e-12)


def test_moments_law_overflow_exit_2_before_output(tmp_path, capsys):
    # the MP(1/2) moment of order 673 is beyond the float range
    out = tmp_path / "out"
    assert run(["moments", "--kind", "random-mp", "--N", "8", "--p", "4",
                "--count", "2", "--s-max", "1000", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "largest usable --s-max is 672" in err
    assert not (out / "moments.csv").exists()
    assert not out.exists()
    *_, moment_672 = laws.MarchenkoPasturLaw(0.5).moments(672)
    assert moment_672 < float("inf")
    with pytest.raises(OverflowError):
        list(laws.MarchenkoPasturLaw(0.5).moments(673))


# --- plumbing ---------------------------------------------------------------------------

def test_norm_deviation_uses_min_rho_two_thirds():
    spec_fast = cli.ensembles.EnsembleSpec("random-wigner", N=64, seed=0)
    dev = cli.norm_deviation(spec_fast, 1.5, epsilon=0.1)
    expected = 0.5 * 64 ** (2 / 3) / np.log(64) ** 1.1
    assert dev == pytest.approx(expected)
    spec_slow = cli.ensembles.EnsembleSpec(
        "pseudo-wigner", N=64, m=12, delta=5, seed=0
    )  # r = 4, rho = log_64(4) = 1/3 < 2/3
    dev = cli.norm_deviation(spec_slow, 1.5, epsilon=0.1)
    expected = 0.5 * 64 ** (1 / 3) / np.log(64) ** 1.1
    assert dev == pytest.approx(expected)


def test_ks_band():
    spec = cli.ensembles.EnsembleSpec("pseudo-wigner", N=44, m=10, delta=15)
    assert cli.ks_band(spec) == pytest.approx(2 / np.sqrt(44))  # floor dominates
    spec = cli.ensembles.EnsembleSpec("pseudo-wigner", N=44, m=10, delta=3)
    assert cli.ks_band(spec) == pytest.approx(0.5)  # 1/r with r = 2
