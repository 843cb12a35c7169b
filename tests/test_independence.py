"""Exact and sampled r-independence verification."""

import itertools
import json
import math
import os
import time

import numpy as np
import pytest

import oracles

from pseudospec import codes, gf2m, independence, spectral
from pseudospec.errors import ArithmeticCorruptionError, InvalidInputError


@pytest.fixture(scope="module")
def simplex():
    return codes.dual_code(codes.bch_generator(3, 3))


@pytest.fixture(scope="module")
def dual_15_7():
    return codes.dual_code(codes.bch_generator(4, 5))


def all_codeword_bits(dual) -> np.ndarray:
    """Every codeword as a 0/1 row, straight from encode."""
    words = [gf2m.poly_mul(msg, dual.generator) for msg in range(1 << dual.dimension)]
    return np.array([codes.word_to_bits(w, dual.n) for w in words], dtype=np.int64)


def brute_force_tv(bits, subset) -> float:
    """Histogram the projection onto `subset` over every codeword."""
    r = len(subset)
    counts = np.bincount(bits[:, list(subset)] @ (1 << np.arange(r)), minlength=1 << r)
    freqs = counts / float(bits.shape[0])
    return 0.5 * float(np.abs(freqs - 1.0 / (1 << r)).sum())


def rank_by_elimination(A) -> int:
    """Rank over GF(2) of a 0/1 matrix, by row reduction."""
    A = np.array(A, dtype=np.uint8) & 1
    rank = 0
    for col in range(A.shape[1]):
        rows = np.nonzero(A[rank:, col])[0]
        if rows.size == 0:
            continue
        pivot = rank + rows[0]
        A[[rank, pivot]] = A[[pivot, rank]]
        below = np.nonzero(A[:, col])[0]
        A[below[below != rank]] ^= A[rank]
        rank += 1
        if rank == A.shape[0]:
            break
    return rank


def test_simplex_pairs_uniform(simplex):
    report = independence.verify_r_independence(simplex, 2)
    assert report.verdict == "pass"
    assert report.max_total_variation == 0.0
    assert report.subsets_checked == 21
    assert report.exhaustive


def test_simplex_triples_fail(simplex):
    report = independence.verify_r_independence(simplex, 3)
    assert report.verdict == "fail"
    assert report.max_total_variation > 0.0
    assert report.failing_subset is not None
    # the reported subset really is non-uniform, per brute force
    bits = all_codeword_bits(simplex)
    assert brute_force_tv(bits, report.failing_subset) == pytest.approx(
        report.max_total_variation
    )


def test_dual_15_7_four_independent(dual_15_7):
    report = independence.verify_r_independence(dual_15_7, 4)
    assert report.verdict == "pass"
    assert report.max_total_variation == 0.0
    assert report.subsets_checked == math.comb(15, 4) == 1365


def test_single_coordinate_fairness():
    # every dual built here has exactly fair single bits
    for m, delta in [(3, 3), (4, 5), (5, 7), (6, 7), (10, 15)]:
        dual = codes.dual_code(codes.bch_generator(m, delta))
        report = independence.verify_r_independence(dual, 1)
        assert report.verdict == "pass"
        assert report.max_total_variation == 0.0


def test_guarantee_at_designed_distance_minus_one():
    # dual passes at r = delta - 1; exact mode has no dimension limit
    for m, delta in [(3, 3), (4, 5), (4, 7)]:
        code = codes.bch_generator(m, delta)
        dual = codes.dual_code(code)
        report = independence.verify_r_independence(dual, delta - 1, budget=500)
        assert report.verdict == "pass", (m, delta)


@pytest.mark.parametrize("m, delta, k_dual", [(10, 15, 70), (14, 31, 210)])
def test_exact_mode_at_guaranteed_level_for_large_codes(m, delta, k_dual):
    # (14, 31) is the paper's N=180 code: exact at r = 30, far past 2^20 words
    dual = codes.dual_code(codes.bch_generator(m, delta))
    assert dual.dimension == k_dual
    report = independence.verify_r_independence(dual, delta - 1, budget=200)
    assert (report.mode, report.verdict) == ("exact", "pass")
    assert report.max_total_variation == 0.0
    assert report.subsets_checked == 200 and not report.exhaustive


def test_histogram_and_rank_engines_agree(simplex, dual_15_7):
    # every subset of both codes at every r: same max TV, same first worst
    for dual in (simplex, dual_15_7):
        bits = all_codeword_bits(dual)
        for r in range(1, dual.n + 1):
            tvs = [(brute_force_tv(bits, S), S)
                   for S in itertools.combinations(range(dual.n), r)]
            worst_tv, worst = max(tvs, key=lambda t: t[0])
            report = independence.verify_r_independence(dual, r, budget=len(tvs))
            assert report.exhaustive and report.subsets_checked == len(tvs)
            assert report.max_total_variation == worst_tv, (dual.n, r)
            if worst_tv > 0.0:
                assert report.failing_subset == worst, (dual.n, r)
            else:
                assert report.verdict == "pass", (dual.n, r)


def test_rank_engine_matches_generator_matrix_elimination():
    dual = codes.dual_code(codes.bch_generator(10, 15))  # k_dual = 70
    G = oracles.generator_matrix(dual)
    column = codes.column_reader(dual)
    rng = np.random.default_rng(8)
    for r in (1, 2, 14, 15, 40, 70, 71, 90):
        for _ in range(6):
            S = sorted(int(c) for c in rng.choice(dual.n, size=r, replace=False))
            q = rank_by_elimination(G[:, S])
            tv = independence._exact_tvs(column, [S], r)[0]
            assert tv == 1.0 - 2.0 ** (q - r), (r, S)
    # both ends of the window source: the x^(k-1) padding and bit n - 1
    ends = list(range(6)), list(range(dual.n - 6, dual.n))
    for S in ends:
        q = rank_by_elimination(G[:, S])
        assert independence._exact_tvs(column, [S], 6)[0] == 1.0 - 2.0 ** (q - 6), S
    # the reader is the oracle's matrix column for column there, for the
    # dual and for a base code (k = 953)
    for code in (dual, dual.base):
        G, column = oracles.generator_matrix(code), codes.column_reader(code)
        for j in ends[0] + ends[1]:
            packed = np.packbits(G[:, j], bitorder="little").tobytes()
            assert column(j) == int.from_bytes(packed, "little"), (code.dimension, j)


def test_rank_engine_used_for_mid_dimensions():
    code = codes.bch_generator(8, 5)  # k_dual = 16
    dual = codes.dual_code(code)
    report = independence.verify_r_independence(dual, 4, budget=300)
    assert report.mode == "exact"
    assert report.verdict == "pass"
    assert not report.exhaustive  # C(255, 4) is far beyond the budget


# (m, delta, r, budget, seed) -> exact report JSON: pins the subset sampling,
# the first-worst-subset choice and the report format, for k_dual 3..15
PINNED_REPORTS = {
    (3, 3, 2, 2000, 0): '{"exhaustive": true, "failing_subset": null, '
    '"max_total_variation": 0.0, "mode": "exact", "r_tested": 2, '
    '"subsets_checked": 21, "threshold": 0.0, "verdict": "pass"}',
    (3, 3, 3, 2000, 0): '{"exhaustive": true, "failing_subset": [0, 1, 3], '
    '"max_total_variation": 0.5, "mode": "exact", "r_tested": 3, '
    '"subsets_checked": 35, "threshold": 0.0, "verdict": "fail"}',
    (4, 3, 5, 50, 0): '{"exhaustive": false, "failing_subset": [0, 2, 8, 9, 11], '
    '"max_total_variation": 0.75, "mode": "exact", "r_tested": 5, '
    '"subsets_checked": 50, "threshold": 0.0, "verdict": "fail"}',
    # 2000 of C(15, 5) = 3,003 subsets: the 1,003 left out are drawn
    (4, 5, 5, 2000, 0): '{"exhaustive": false, "failing_subset": [0, 2, 3, 4, 11], '
    '"max_total_variation": 0.5, "mode": "exact", "r_tested": 5, '
    '"subsets_checked": 2000, "threshold": 0.0, "verdict": "fail"}',
    (5, 7, 6, 50, 0): '{"exhaustive": false, "failing_subset": null, '
    '"max_total_variation": 0.0, "mode": "exact", "r_tested": 6, '
    '"subsets_checked": 50, "threshold": 0.0, "verdict": "pass"}',
    (6, 5, 5, 2000, 3): '{"exhaustive": false, "failing_subset": null, '
    '"max_total_variation": 0.0, "mode": "exact", "r_tested": 5, '
    '"subsets_checked": 2000, "threshold": 0.0, "verdict": "pass"}',
}


@pytest.mark.parametrize("case", sorted(PINNED_REPORTS))
def test_exact_reports_pinned(case):
    m, delta, r, budget, seed = case
    dual = codes.dual_code(codes.bch_generator(m, delta))
    report = independence.verify_r_independence(dual, r, budget=budget, seed=seed)
    assert report.to_json() == PINNED_REPORTS[case]


def test_budget_near_every_subset_draws_those_left_out():
    # 31,464 of C(31, 4) = 31,465: drawn as the one subset left out, where
    # drawing 31,464 by rejection took seconds
    start = time.perf_counter()
    subsets, exhaustive = independence._iter_subsets(31, 4, 31_464, 0)
    assert time.perf_counter() - start < 0.5
    every = list(itertools.combinations(range(31), 4))
    assert not exhaustive and len(subsets) == 31_464 and len(set(subsets)) == 31_464
    assert subsets == sorted(subsets) and set(subsets) < set(every)
    assert independence._iter_subsets(31, 4, 31_464, 0) == (subsets, False)


@pytest.mark.parametrize("start, size", [
    (start, size) for size in (1, 63, 64, 65, 130, 4096)
    for start in (0, 12_345, 2**32 - size)])
def test_bit_slices_match_message_for_index(start, size):
    # row 8i + b of the slices holds message bit 8i + b, message j at bit j
    # (mod 64) of word j // 64; the messages at k are the low k bits of
    # those at 320, the first and last also drawn at k itself
    seed, widest = 5, 320
    reference = [codes.message_for_index(widest, seed, start + i) for i in range(size)]
    for k in (1, 7, 8, 9, 63, 64, 65, 70, 210, 320):
        sliced = independence._bit_slices(codes.message_bytes(k, seed, start, start + size))
        assert sliced.shape == ((k + 7) // 8, 8, (size + 63) // 64)
        bits = np.unpackbits(sliced.view(np.uint8), axis=2, bitorder="little")
        bits = bits.reshape(-1, bits.shape[2])
        assert not bits[:, size:].any()  # no padding message has a bit set
        assert not bits[k:].any()  # nor any row at or past k
        packed = np.packbits(bits[:k, :size].T, axis=1, bitorder="little")
        messages = [int.from_bytes(row.tobytes(), "little") for row in packed]
        assert messages == [m & ((1 << k) - 1) for m in reference]
        for i in (0, size - 1):
            assert messages[i] == codes.message_for_index(k, seed, start + i)


@pytest.mark.parametrize("m, delta", [(4, 5), (6, 5), (10, 7), (10, 15), (14, 31)])
def test_column_chunks_select_no_row_past_k(m, delta):
    # a column byte may never select a row of the bit slices at or past k,
    # which holds no message bit
    dual = codes.dual_code(codes.bch_generator(m, delta))
    k, column = dual.k_dual, codes.column_reader(dual)
    chunks = independence._column_chunks(column, k, range(dual.n))
    assert chunks.shape == ((k + 7) // 8, dual.n) and chunks.dtype == np.intp
    assert not (chunks[-1] >> (k - 8 * (len(chunks) - 1))).any()
    assert [sum(int(b) << (8 * i) for i, b in enumerate(col)) for col in chunks.T.tolist()] \
        == [column(c) for c in range(dual.n)]


def test_sampled_mode_smoke():
    dual = codes.dual_code(codes.bch_generator(10, 15))
    report = independence.verify_r_independence(
        dual, 4, mode="sampled", budget=40, seed=11
    )
    assert report.mode == "sampled"
    assert report.verdict == "pass"
    assert report.threshold == pytest.approx(4 * math.sqrt(16 / 65536))
    assert report.max_total_variation <= report.threshold


@pytest.mark.parametrize("m, delta, k_dual, r, budget, seed, words", [
    # 4096 + 37 words: one full batch and a 37-word tail
    pytest.param(6, 5, 12, 3, 40, 4, 4096 + 37, id="3-40-4"),
    pytest.param(6, 5, 12, 5, 30, 9, 4096 + 37, id="5-30-9"),
    # 2^r <= 64 masks per uint64 word is counted by the AND tree, wider
    # patterns by bincount: the largest tree r and the smallest bincount r
    pytest.param(6, 5, 12, 6, 30, 7, 4096 + 37, id="6-30-7"),
    pytest.param(6, 5, 12, 7, 20, 8, 4096 + 37, id="7-20-8"),
    # a one-level tree over every coordinate
    pytest.param(6, 5, 12, 1, 100, 1, 4096 + 37, id="1-100-1"),
    # k_dual a whole number of bytes: the last table is a full 8 rows
    pytest.param(4, 5, 8, 4, 30, 2, 600, id="k8"),
    # k_dual = 30 spans 4 bytes: 4 tables feed each parity, the last of 6 rows
    pytest.param(10, 7, 30, 5, 20, 3, 1000, id="k30"),
    # the largest r sampled mode takes, with patterns of 11 bits, at the
    # fewest words (past 2^15) at which it takes it
    pytest.param(10, 15, 70, 11, 3, 5, (1 << 15) + 100, id="r11"),
    # 37 words in one partial uint64 word: its 27 padding bits must not
    # count as pattern 0
    pytest.param(6, 5, 12, 3, 40, 6, 37, id="one-word"),
])
def test_sampled_counts_match_scalar_histograms(monkeypatch, m, delta, k_dual, r,
                                                budget, seed, words):
    monkeypatch.setattr(independence, "SAMPLE_WORDS", words)
    dual = codes.dual_code(codes.bch_generator(m, delta))
    assert dual.k_dual == k_dual
    subsets, _ = independence._iter_subsets(dual.n, r, budget, seed)
    counts = np.zeros((len(subsets), 1 << r), dtype=np.int64)
    for i in range(words):
        word = codes.encode(dual, codes.message_for_index(dual.k_dual, seed, i))
        for j, S in enumerate(subsets):
            counts[j, sum(((word >> c) & 1) << b for b, c in enumerate(S))] += 1
    tvs = 0.5 * np.abs(counts / float(words) - 1.0 / (1 << r)).sum(axis=1)
    # a pass names no subset, so the worst one is read from every subset's TV
    engine = independence._sampled_tvs(
        codes.column_reader(dual), dual.k_dual, subsets, r, seed
    )
    assert np.array_equal(engine, tvs)
    assert subsets[int(np.argmax(engine))] == subsets[int(np.argmax(tvs))]
    if 16 << r < words:  # below that, sampled mode rejects r for so few words
        report = independence.verify_r_independence(
            dual, r, mode="sampled", budget=budget, seed=seed
        )
        assert report.subsets_checked == len(subsets)
        assert report.max_total_variation == tvs.max()


# 4 full batches and a 37-word tail: 5 batches, so 3 workers get uneven
# shares and 17 workers are more than there are batches
PARTIAL_WORDS = 4 * codes.MESSAGE_BLOCK + 37


@pytest.mark.parametrize("r", [4, 6, 7])  # the AND tree up to 6, bincount from 7
def test_sampled_workers_match_one_process(monkeypatch, forks, no_child_left, r):
    monkeypatch.setattr(independence, "SAMPLE_WORDS", PARTIAL_WORDS)
    dual = codes.dual_code(codes.bch_generator(6, 5))
    subsets, _ = independence._iter_subsets(dual.n, r, 30, 3)
    column = codes.column_reader(dual)
    results = {}
    for workers in (1, 2, 3, 17):
        monkeypatch.setattr(spectral, "cpu_count", lambda: workers)
        forks[0] = 0
        tvs = independence._sampled_tvs(column, dual.k_dual, subsets, r, 3)
        report = independence.verify_r_independence(
            dual, r, mode="sampled", budget=30, seed=3)
        # one share per worker, at most one per batch; all but one forked
        assert forks[0] == 2 * (min(workers, 5) - 1)
        results[workers] = tvs.tobytes(), report.to_json()
    assert len(set(results.values())) == 1, results
    # without os.fork one process counts every batch, to the same report
    monkeypatch.delattr(os, "fork")
    report = independence.verify_r_independence(dual, r, mode="sampled", budget=30, seed=3)
    assert report.to_json() == results[1][1]
    no_child_left()


@pytest.mark.parametrize("failing", ["child", "parent", "interrupted parent"])
def test_sampled_worker_failure_leaves_no_child(monkeypatch, capfd, no_child_left, failing):
    # drawing messages fails in the two forked children only, or in the
    # calling process only, while the children still count
    monkeypatch.setattr(spectral, "cpu_count", lambda: 3)
    parent, real = os.getpid(), codes.message_bytes
    error = KeyboardInterrupt if failing == "interrupted parent" else ValueError

    def message_bytes(k_bits, seed, start, stop):
        if (os.getpid() == parent) == (failing != "child"):
            raise error("no messages")
        return real(k_bits, seed, start, stop)

    monkeypatch.setattr(codes, "message_bytes", message_bytes)
    dual = codes.dual_code(codes.bch_generator(6, 5))
    match = "exited with status 1" if failing == "child" else "no messages"
    with pytest.raises(RuntimeError if failing == "child" else error, match=match):
        independence.verify_r_independence(dual, 4, mode="sampled", budget=30)
    no_child_left()
    if failing == "child":  # its traceback, unbuffered on file descriptor 2
        assert "ValueError: no messages" in capfd.readouterr().err


# (m, delta, r, budget, seed) -> sampled report JSON: an exhaustive fail, an
# exhaustive pass and a pass over sampled subsets
PINNED_SAMPLED_REPORTS = {
    (3, 3, 2, 2000, 0): '{"exhaustive": true, "failing_subset": null, '
    '"max_total_variation": 0.0067138671875, "mode": "sampled", "r_tested": 2, '
    '"subsets_checked": 21, "threshold": 0.03125, "verdict": "pass"}',
    (3, 3, 3, 2000, 0): '{"exhaustive": true, "failing_subset": [0, 1, 3], '
    '"max_total_variation": 0.5, "mode": "sampled", "r_tested": 3, '
    '"subsets_checked": 35, "threshold": 0.04419417382415922, "verdict": "fail"}',
    (4, 5, 4, 50, 0): '{"exhaustive": false, "failing_subset": null, '
    '"max_total_variation": 0.0102691650390625, "mode": "sampled", "r_tested": 4, '
    '"subsets_checked": 50, "threshold": 0.0625, "verdict": "pass"}',
}


@pytest.mark.parametrize("case", sorted(PINNED_SAMPLED_REPORTS))
def test_sampled_reports_pinned(case):
    m, delta, r, budget, seed = case
    dual = codes.dual_code(codes.bch_generator(m, delta))
    report = independence.verify_r_independence(
        dual, r, mode="sampled", budget=budget, seed=seed
    )
    assert report.to_json() == PINNED_SAMPLED_REPORTS[case]


def test_monotonicity_recheck_covers_exhaustive_lower_levels(monkeypatch):
    # the [7, 6] even-weight code: any 6 coordinates are independent.  With
    # budget 7, r = 6 (C(7, 6) = 7) and r = 1 are the exhaustive levels
    dual = codes.dual_code(codes.bch_generator(3, 7))
    assert dual.dimension == 6
    levels = []
    exact_tvs = independence._exact_tvs

    def spy(column, subsets, r):
        levels.append(r)
        return exact_tvs(column, subsets, r)

    monkeypatch.setattr(independence, "_exact_tvs", spy)
    report = independence.verify_r_independence(dual, 6, budget=7)
    assert (report.verdict, report.exhaustive) == ("pass", True)
    assert levels == [6, 1]
    # a fail below a pass cannot happen, so it is reported as corruption
    monkeypatch.setattr(
        independence, "_exact_tvs",
        lambda column, subsets, r: np.full(len(subsets), float(r == 1)),
    )
    with pytest.raises(ArithmeticCorruptionError, match="at r=1 on subset"):
        independence.verify_r_independence(dual, 6, budget=7)


def test_sampled_mode_detects_dependence(simplex):
    # force sampled mode on the simplex at r=3: dependent triples have TV
    # near 1/2, far above the threshold
    report = independence.verify_r_independence(
        simplex, 3, mode="sampled", budget=35, seed=12
    )
    assert report.verdict == "fail"


def test_sampled_mode_rejects_r_it_cannot_fail(simplex):
    # from r = 12 the threshold 4 sqrt(2^r / 2^16) is >= 1 >= every TV
    assert 4 * math.sqrt(2**11 / 65536) < 1 <= 4 * math.sqrt(2**12 / 65536)
    dual = codes.dual_code(codes.bch_generator(6, 5))
    for r in (12, 40):
        with pytest.raises(InvalidInputError, match="cannot fail"):
            independence.verify_r_independence(dual, r, mode="sampled", budget=3)
    big = codes.dual_code(codes.bch_generator(10, 15))  # k_dual = 70
    with pytest.raises(InvalidInputError, match="cannot fail"):
        independence.verify_r_independence(big, 12, mode="sampled", budget=3)
    # exact mode, the default, has no such limit at any dimension
    for code in (dual, big):
        assert independence.verify_r_independence(code, 12, budget=3).mode == "exact"


def test_report_json(simplex):
    report = independence.verify_r_independence(simplex, 3)
    payload = json.loads(report.to_json())
    assert payload["verdict"] == "fail"
    assert isinstance(payload["failing_subset"], list)
    assert payload["mode"] == "exact"
    assert payload["r_tested"] == 3


def test_argument_validation(simplex):
    with pytest.raises(InvalidInputError):
        independence.verify_r_independence(simplex, 0)
    with pytest.raises(InvalidInputError):
        independence.verify_r_independence(simplex, 8)
    with pytest.raises(InvalidInputError):
        independence.verify_r_independence(simplex, 2, mode="montecarlo")
    with pytest.raises(InvalidInputError):
        independence.verify_r_independence(simplex, 2, budget=0)
