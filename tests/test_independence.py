"""Exact and sampled r-independence verification."""

import itertools
import json
import math

import numpy as np
import pytest

from pseudospec import codes, gf2m, independence
from pseudospec.errors import InvalidInputError, ResourceLimitError


@pytest.fixture(scope="module")
def simplex():
    return codes.dual_code(codes.bch_generator(3, 3))


@pytest.fixture(scope="module")
def dual_15_7():
    return codes.dual_code(codes.bch_generator(4, 5))


def brute_force_tv(dual, subset) -> float:
    """Histogram the projection over every codeword, straight from encode."""
    r = len(subset)
    counts = np.zeros(1 << r)
    for msg in range(1 << dual.dimension):
        word = gf2m.poly_mul(msg, dual.generator)
        pattern = sum(((word >> c) & 1) << i for i, c in enumerate(subset))
        counts[pattern] += 1
    freqs = counts / (1 << dual.dimension)
    return 0.5 * float(np.abs(freqs - 1.0 / (1 << r)).sum())


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
    assert brute_force_tv(simplex, report.failing_subset) == pytest.approx(
        report.max_total_variation
    )


def test_dual_15_7_four_independent(dual_15_7):
    report = independence.verify_r_independence(dual_15_7, 4)
    assert report.verdict == "pass"
    assert report.max_total_variation == 0.0
    assert report.subsets_checked == math.comb(15, 4) == 1365


def test_single_coordinate_fairness():
    # every dual built here has exactly fair single bits
    for m, delta in [(3, 3), (4, 5), (5, 7), (6, 7)]:
        dual = codes.dual_code(codes.bch_generator(m, delta))
        if dual.dimension <= independence.EXACT_DIM_LIMIT:
            report = independence.verify_r_independence(dual, 1)
            assert report.verdict == "pass"
            assert report.max_total_variation == 0.0


def test_guarantee_at_designed_distance_minus_one():
    # dual passes at r = delta - 1 whenever exact verification is feasible
    for m, delta in [(3, 3), (4, 5), (4, 7)]:
        code = codes.bch_generator(m, delta)
        dual = codes.dual_code(code)
        if dual.dimension <= independence.EXACT_DIM_LIMIT:
            report = independence.verify_r_independence(dual, delta - 1, budget=500)
            assert report.verdict == "pass", (m, delta)


def test_histogram_and_rank_engines_agree(simplex, dual_15_7):
    for dual, r in [(simplex, 2), (simplex, 3), (dual_15_7, 3), (dual_15_7, 5)]:
        for subset in itertools.islice(itertools.combinations(range(dual.n), r), 40):
            hist_tv = brute_force_tv(dual, subset)
            rank_tv = independence._exact_tv_by_rank(dual, subset)
            assert hist_tv == pytest.approx(rank_tv, abs=1e-12), (r, subset)


def test_rank_engine_used_for_mid_dimensions():
    # k_dual = 16 > histogram limit: rank engine path, still exact
    code = codes.bch_generator(8, 5)
    dual = codes.dual_code(code)
    assert independence.HISTOGRAM_DIM_LIMIT < dual.dimension <= independence.EXACT_DIM_LIMIT
    report = independence.verify_r_independence(dual, 4, budget=300)
    assert report.mode == "exact"
    assert report.verdict == "pass"
    assert not report.exhaustive  # C(255, 4) is far beyond the budget


def test_exact_mode_resource_limit():
    dual = codes.dual_code(codes.bch_generator(10, 15))  # k_dual = 70
    with pytest.raises(ResourceLimitError):
        independence.verify_r_independence(dual, 3, mode="exact")


def test_sampled_mode_smoke():
    dual = codes.dual_code(codes.bch_generator(10, 15))
    report = independence.verify_r_independence(
        dual, 4, mode="sampled", budget=40, seed=11
    )
    assert report.mode == "sampled"
    assert report.verdict == "pass"
    assert report.threshold == pytest.approx(4 * math.sqrt(16 / 65536))
    assert report.max_total_variation <= report.threshold


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
    big = codes.dual_code(codes.bch_generator(10, 15))  # k_dual = 70: auto is sampled
    with pytest.raises(InvalidInputError, match="cannot fail"):
        independence.verify_r_independence(big, 12, budget=3)
    assert independence.verify_r_independence(dual, 12, mode="exact", budget=3).mode == "exact"


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
