import dataclasses
import math
import re
import tracemalloc

import numpy as np
import pytest

from eczcs import (
    GSMConfig,
    PartitionSpec,
    RankDeficientTraining,
    SimConfig,
    analytic_mse,
    baseline_random_binary,
    baseline_zadoff_chu,
    build_ls_model_matrix,
    build_training_matrix,
    check_design_criterion,
    lemma2_ccc,
    ls_estimate,
    monte_carlo_mse,
    mse_floor,
    noise_variance,
    sample_channel,
    theorem2_construct,
    theorem3_construct,
    zadoff_chu,
)
from eczcs import simulate, training
from eczcs.gbf import optimal_theorem3_params
from eczcs.simulate import _normal_matrix, default_zc_roots
from eczcs.training import design_width

from reference import modulate, noise_stream_mse


def test_single_tap_channel():
    rng = np.random.default_rng(0)
    taps = sample_channel(0, 3, rng, 1)[0]
    assert taps.shape == (3, 1)


def test_tap_variance_statistics():
    rng = np.random.default_rng(1)
    spread = 4
    draws = sample_channel(spread, 1, rng, 1)[0]
    for _ in range(99):
        draws = np.concatenate([draws, sample_channel(spread, 1, rng, 1)[0]])
    samples = np.concatenate([sample_channel(spread, 100, rng, 1)[0] for _ in range(10)])
    var = np.mean(np.abs(samples) ** 2)
    assert abs(var - 1 / (spread + 1)) < 0.02 / (spread + 1) * 5  # within a few percent
    # total per-antenna power is one in expectation
    assert abs(np.mean(np.sum(np.abs(samples) ** 2, axis=1)) - 1.0) < 0.05


def test_sample_channel_rejects_negative_spread_and_count():
    rng = np.random.default_rng(0)
    for spread, count, name in ((-1, 1, "delay_spread"), (-2, 1, "delay_spread"), (0, -1, "count")):
        with pytest.raises(ValueError, match=name):
            sample_channel(spread, 2, rng, count)
    assert sample_channel(0, 2, rng, 0).shape == (0, 2, 1)
    # integral floats read as ints, as every other integer argument does
    assert sample_channel(2.0, 4, rng, 3).shape == sample_channel(2.0, 4.0, rng, 3.0).shape == (3, 4, 3)
    with pytest.raises(ValueError, match="count 2.5 is not an integer"):
        sample_channel(2, 4, rng, 2.5)


def test_channel_determinism():
    a = sample_channel(3, 2, np.random.default_rng(7), 1)[0]
    b = sample_channel(3, 2, np.random.default_rng(7), 1)[0]
    assert np.array_equal(a, b)


@pytest.fixture(scope="module")
def psi24(table4):
    return build_training_matrix(table4, GSMConfig(4, 2))


def test_noiseless_recovery(psi24):
    X = build_ls_model_matrix(psi24, 9)
    rng = np.random.default_rng(3)
    taps = sample_channel(9, 4, rng, 1)[0].reshape(-1)
    y = X @ taps
    estimate = ls_estimate(X, y)
    assert np.max(np.abs(estimate - taps)) < 1e-10
    normal, rhs = X.conj().T @ X, X.conj().T @ y
    assert np.linalg.norm(normal @ estimate - rhs) < 1e-9


def test_estimator_reduces_to_matched_filter(psi24):
    # when the normal matrix is E*I the estimate is X^H y / E
    X = build_ls_model_matrix(psi24, 9)
    rng = np.random.default_rng(4)
    y = rng.standard_normal(96) + 1j * rng.standard_normal(96)
    assert np.allclose(ls_estimate(X, y), X.conj().T @ y / psi24.energy, atol=1e-12)


def test_ls_model_rejects_out_of_range_delay_spread(psi24):
    for spread in (-3, -1, psi24.width):
        with pytest.raises(ValueError, match="delay spread"):
            build_ls_model_matrix(psi24, spread)
    assert build_ls_model_matrix(psi24, 0).shape == (psi24.width, psi24.num_rows)


def test_duplicated_rows_raise(psi24):
    import dataclasses

    rows = [0, 0, *range(2, psi24.num_rows)]
    bad = dataclasses.replace(psi24, values=psi24.values[rows], mask=psi24.mask[rows])
    X = build_ls_model_matrix(bad, 5)
    with pytest.raises(RankDeficientTraining, match="duplicate-rows"):
        ls_estimate(X, np.zeros(96, dtype=complex), matrix_id="duplicate-rows")


def test_analytic_mse_values(psi24):
    X = build_ls_model_matrix(psi24, 9)
    sigma2 = noise_variance(16.0)
    assert math.isclose(analytic_mse(X, sigma2), mse_floor(sigma2, 48), rel_tol=1e-12)
    assert math.isclose(analytic_mse(X, 2 * sigma2), 2 * analytic_mse(X, sigma2), rel_tol=1e-12)


def test_analytic_mse_above_floor_for_random(psi24):
    rng = np.random.default_rng(5)
    random_tm = baseline_random_binary(GSMConfig(4, 2), 2, 24, rng)
    X = build_ls_model_matrix(random_tm, 9)
    sigma2 = noise_variance(16.0)
    assert analytic_mse(X, sigma2) > mse_floor(sigma2, random_tm.energy) * 1.01
    # the empirical MSE of a design failing the criterion tracks the analytic
    # value within 6 standard errors; one trial's squared error has variance tr(C^2)
    cfg = SimConfig(ebn0_db=(16.0,), delay_spreads=(9,), trials=2000, seed=13)
    point = monte_carlo_mse(random_tm, cfg).points[0]
    cov = sigma2 * np.linalg.inv(X.conj().T @ X)
    stderr = math.sqrt(np.trace(cov @ cov).real / cfg.trials) / X.shape[1]
    assert point.analytic_mse == analytic_mse(X, sigma2)
    assert abs(point.empirical_mse - point.analytic_mse) < 6 * stderr


def test_analytic_equals_floor_iff_criterion(psi24):
    sigma2 = noise_variance(12.0)
    good = analytic_mse(build_ls_model_matrix(psi24, 9), sigma2)
    bad = analytic_mse(build_ls_model_matrix(psi24, 10), sigma2)
    floor = mse_floor(sigma2, psi24.energy)
    assert math.isclose(good, floor, rel_tol=1e-12)
    assert bad > floor * (1 + 1e-6)
    assert check_design_criterion(psi24, 9).passed
    assert not check_design_criterion(psi24, 10).passed


def test_monte_carlo_determinism_and_accuracy(psi24):
    cfg = SimConfig(ebn0_db=(8.0, 16.0), delay_spreads=(9,), trials=1500, seed=99, matrix_id="t4")
    report = monte_carlo_mse(psi24, cfg)
    again = monte_carlo_mse(psi24, cfg)
    assert report == again
    for point in report.points:
        assert not point.failed
        assert math.isclose(point.analytic_mse, point.floor, rel_tol=1e-12)
        assert abs(point.empirical_mse - point.analytic_mse) / point.analytic_mse < 0.03
        assert point.empirical_mse > 0


def test_ls_error_is_the_solver_applied_to_the_noise(psi24):
    # S X = I for a full-rank design, so S (X h + n) - h = S n whatever the
    # channel: the identity that lets the Monte-Carlo loop draw noise alone
    rng = np.random.default_rng(17)
    zc = baseline_zadoff_chu(GSMConfig(4, 2), 2, 24)
    for tm in (psi24, zc):
        X = build_ls_model_matrix(tm, 9)
        solver = np.linalg.inv(X.conj().T @ X) @ X.conj().T
        width = X.shape[0]
        for _ in range(20):
            taps = sample_channel(9, tm.num_rows, rng, 1).reshape(-1)
            noise = math.sqrt(noise_variance(16.0) / 2) * (
                rng.standard_normal(width) + 1j * rng.standard_normal(width)
            )
            error = ls_estimate(X, X @ taps + noise) - taps
            want = solver @ noise
            assert np.linalg.norm(error - want) <= 1e-12 * np.linalg.norm(want), tm.source
    assert not np.allclose(build_ls_model_matrix(zc, 9).imag, 0)  # one real and one complex X


def test_monte_carlo_gamma_stream_reference(psi24):
    # the documented scheme, which defines the streams of every report: grid
    # point i draws default_rng((seed, i)).standard_gamma(trials, dim), one
    # Gamma(trials, 1) per eigenvalue mu of X^H X, and sigma^2 / (trials * dim)
    # scales its dot product with 1/mu; the standard error and the condition
    # number come from the same 1/mu
    X = build_ls_model_matrix(psi24, 10)  # past the zone, so the spectrum is not flat
    normal = X.conj().T @ X
    inv_mu = 1.0 / np.linalg.eigvalsh(normal)
    dim = len(inv_mu)
    for trials in (1, 31, 32, 33, 100):
        cfg = SimConfig(ebn0_db=(8.0, 16.0), delay_spreads=(10,), trials=trials, seed=41)
        for index, point in enumerate(monte_carlo_mse(psi24, cfg).points):
            sigma2 = noise_variance(point.ebn0_db)
            gamma = np.random.default_rng((41, index)).standard_gamma(trials, dim)
            assert point.empirical_mse == sigma2 * float(gamma @ inv_mu) / (trials * dim), (trials, index)
            assert point.analytic_mse == analytic_mse(X, sigma2)
            cov = sigma2 * np.linalg.inv(normal)
            stderr = math.sqrt(np.trace(cov @ cov).real / trials) / dim  # the formula of the oracle
            assert math.isclose(point.stderr, stderr, rel_tol=1e-9)
            assert math.isclose(point.cond, np.linalg.cond(normal), rel_tol=1e-9)


@pytest.mark.parametrize("trials", [1, 32])
def test_gamma_stream_matches_the_noise_stream_across_seeds(psi24, trials):
    # the per-trial noise stream of 0.7.0 and 0.8.0 and the gamma stream draw
    # from one law: over 400 seeds both have the analytic mean and the spread
    # the standard error predicts, on a flat spectrum (the design criterion
    # holds) and on a random design's spread-out one
    random_tm = baseline_random_binary(GSMConfig(4, 2), 2, 24, np.random.default_rng(5))
    sigma2, seeds = noise_variance(10.0), range(400)
    for tm in (psi24, random_tm):
        X = build_ls_model_matrix(tm, 9)
        points = [monte_carlo_mse(tm, SimConfig((10.0,), (9,), trials, s)).points[0] for s in seeds]
        gamma = np.array([p.empirical_mse for p in points])
        noise = np.array([noise_stream_mse(X, sigma2, trials, s, 0) for s in seeds])
        want, stderr = points[0].analytic_mse, points[0].stderr
        for draws in (gamma, noise):
            assert abs(draws.mean() - want) < 4 * stderr / math.sqrt(len(seeds)), tm.source
            assert 0.8 < draws.std(ddof=1) / stderr < 1.25, tm.source
        assert abs(gamma.mean() - noise.mean()) < 4 * stderr * math.sqrt(2 / len(seeds)), tm.source
        assert 0.8 < gamma.std(ddof=1) / noise.std(ddof=1) < 1.25, tm.source


def test_monte_carlo_cost_does_not_depend_on_trials(psi24):
    # a billion trials are one gamma draw per eigenvalue, not a billion noise vectors
    cfg = SimConfig(ebn0_db=(16.0,), delay_spreads=(10,), trials=10**9, seed=8)
    point = monte_carlo_mse(psi24, cfg).points[0]
    X = build_ls_model_matrix(psi24, 10)
    cov = noise_variance(16.0) * np.linalg.inv(X.conj().T @ X)
    stderr = math.sqrt(np.trace(cov @ cov).real / cfg.trials) / X.shape[1]
    assert point.trials == 10**9 and math.isclose(point.stderr, stderr, rel_tol=1e-9)
    assert point.empirical_mse != point.analytic_mse
    assert abs(point.empirical_mse - point.analytic_mse) < 6 * stderr


def test_rank_check_agrees_with_matrix_rank(psi24):
    # the eigenvalue test mu_min <= mu_max * dim * eps is numpy's rank tolerance
    import dataclasses

    rows = [0, 0, *range(2, psi24.num_rows)]
    duplicate = dataclasses.replace(psi24, values=psi24.values[rows], mask=psi24.mask[rows])
    zc = baseline_zadoff_chu(GSMConfig(4, 2), 2, 24)
    outcomes = set()
    for tm in (psi24, zc, duplicate):
        for spread in (0, 2, 5, 9, 10, 22, 23, 24, 30, 95):
            X = build_ls_model_matrix(tm, spread)
            full = np.linalg.matrix_rank(X.conj().T @ X) == X.shape[1]
            try:
                analytic_mse(X, 1.0)
                ls_estimate(X, np.zeros(X.shape[0], dtype=complex))
                raised = False
            except RankDeficientTraining:
                raised = True
            assert raised != full, (tm.source, spread)
            outcomes.add((tm is duplicate, full))
    assert outcomes == {(False, True), (False, False), (True, False)}
    # a diagonal design has an exact spectrum: a positive normal eigenvalue of
    # 1e-18 lies under the tolerance 2 * eps, one of 1e-14 above it
    for scale, full in ((1e-9, False), (1e-7, True)):
        X = np.diag([1.0, scale])
        assert (np.linalg.matrix_rank(X.T @ X) == 2) == full
        if full:
            assert math.isclose(analytic_mse(X, 1.0), (1.0 + scale**-2) / 2, rel_tol=1e-12)
        else:
            with pytest.raises(RankDeficientTraining):
                analytic_mse(X, 1.0)


def test_monte_carlo_memory_does_not_grow_with_trials(table5):
    tm = build_training_matrix(table5, GSMConfig(8, 3))
    peaks = {}
    for trials in (200, 20_000):
        cfg = SimConfig(ebn0_db=(12.0,), delay_spreads=(8,), trials=trials, seed=3)
        # an unmeasured call at the same count first: numpy's lazy set-up and
        # CPython's freelists then hold what the measured call reuses, whatever
        # ran before this test
        monte_carlo_mse(tm, cfg)
        tracemalloc.start()
        try:
            monte_carlo_mse(tm, cfg)
            peaks[trials] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[20_000] <= peaks[200] + 16 * 1024, peaks


def test_monte_carlo_zero_noise(psi24):
    cfg = SimConfig(ebn0_db=(math.inf,), delay_spreads=(3,), trials=50, seed=5)
    report = monte_carlo_mse(psi24, cfg)
    assert report.points[0].empirical_mse == 0.0  # sigma^2 scales the whole sum
    assert report.points[0].floor == 0.0


def test_monte_carlo_marks_singular_points(psi24):
    import dataclasses

    rows = [0, 0, *range(2, psi24.num_rows)]
    bad = dataclasses.replace(psi24, values=psi24.values[rows], mask=psi24.mask[rows])
    cfg = SimConfig(ebn0_db=(10.0,), delay_spreads=(2,), trials=10, seed=1, matrix_id="dup")
    report = monte_carlo_mse(bad, cfg)
    assert report.points[0].failed
    assert report.points[0].empirical_mse is None


def test_report_csv_format(psi24):
    cfg = SimConfig(ebn0_db=(16.0,), delay_spreads=(9,), trials=10, seed=2, matrix_id="t4")
    text = monte_carlo_mse(psi24, cfg).to_csv()
    lines = text.strip().splitlines()
    assert lines[0].startswith("# noise model: sigma2 = 10^(-EbN0_dB/10)")
    assert lines[1] == "EbN0_dB,lambda,empirical_mse,analytic_mse,floor,trials,matrix_id,stderr,cond"
    assert lines[2].startswith("16,9,") and ",10,t4," in lines[2]
    point = monte_carlo_mse(psi24, cfg).points[0]
    assert lines[2].split(",")[-2:] == [f"{point.stderr:.10e}", f"{point.cond:.10e}"]
    assert math.isclose(point.cond, 1.0, rel_tol=1e-12)  # X^H X = E I inside the zone


def test_sim_config_validation(table4):
    with pytest.raises(ValueError):
        SimConfig(ebn0_db=(), delay_spreads=(1,), trials=10, seed=0)
    with pytest.raises(ValueError):
        SimConfig(ebn0_db=(1.0,), delay_spreads=(1,), trials=0, seed=0)
    # the noise variance must be a finite positive float; +inf is the noiseless limit
    for ebn0 in (-4000.0, 4000.0, -math.inf, math.nan):
        with pytest.raises(ValueError, match="noise variance"):
            SimConfig(ebn0_db=(10.0, ebn0), delay_spreads=(1,), trials=1, seed=0)
    SimConfig(ebn0_db=(math.inf,), delay_spreads=(1,), trials=1, seed=0)
    # no truncation and no mid-run failure: each field is named when it is rejected
    base = dict(ebn0_db=(1.0,), delay_spreads=(1,), trials=10, seed=0)
    for change, named in (
        ({"trials": 10.5}, "trial count 10.5 is not an integer"),
        ({"trials": 2**53 + 1}, "trial count must lie in [1, 2^53], got 9007199254740993"),
        ({"delay_spreads": (1, 2.7)}, "delay spread 2.7 is not an integer"),
        ({"delay_spreads": (3, -1)}, "delay spread must lie in"),
        ({"seed": -1}, "seed must be non-negative, got -1"),
        ({"seed": 1.5}, "seed 1.5 is not an integer"),
        ({"seed": "3"}, "seed '3' is not an integer"),
    ):
        with pytest.raises(ValueError, match=re.escape(named)):
            SimConfig(**{**base, **change})
    # numpy ints and True read as integers, the rule PhaseSequence applies to phases
    cfg = SimConfig(ebn0_db=(1.0,), delay_spreads=(np.int64(2), True, 4.0), trials=np.int64(3), seed=0)
    assert cfg.delay_spreads == (2, 1, 4) and all(type(d) is int for d in cfg.delay_spreads)
    # an integral float trial count or seed is stored as an int, so a run takes it as one
    cfg = SimConfig(ebn0_db=(16.0,), delay_spreads=(9,), trials=2.0, seed=np.float64(5.0))
    assert (cfg.trials, cfg.seed) == (2, 5) and type(cfg.trials) is type(cfg.seed) is int
    report = monte_carlo_mse(build_training_matrix(table4, GSMConfig(4, 2)), cfg)
    assert report.to_csv().splitlines()[-1].split(",")[5] == "2"


def test_zadoff_chu_closed_form():
    for length, root in ((3, 1), (24, 5), (25, 2)):
        seq = zadoff_chu(length, root)
        t = np.arange(length)
        reference = np.exp(-1j * np.pi * root * t * (t + 1) / length)
        assert np.allclose(modulate(seq), reference, atol=1e-12)
    with pytest.raises(ValueError):
        zadoff_chu(24, 6)  # gcd(6, 24) > 1


def test_default_roots():
    assert default_zc_roots(24, 4) == (1, 5, 7, 11)
    assert default_zc_roots(1, 3) == (1, 2, 3)
    for length in (4, 0):  # nothing is coprime to 0 but 1
        with pytest.raises(ValueError):
            default_zc_roots(length, 3)


def test_baseline_layouts(table3):
    cfg = GSMConfig(4, 2)
    rng = np.random.default_rng(11)
    rnd = baseline_random_binary(cfg, 2, 24, rng)
    assert np.all(rnd.mask.sum(axis=0) == 2)
    assert rnd.source == "random-binary"
    # integral floats read as ints: the same draws as 2 and 24
    again = baseline_random_binary(cfg, 2.0, 24.0, np.random.default_rng(11))
    assert np.array_equal(again.values, rnd.values)
    assert np.array_equal(baseline_zadoff_chu(cfg, 2.0, 24.0).values, baseline_zadoff_chu(cfg, 2, 24).values)
    with pytest.raises(ValueError, match="blocks 1.5 is not an integer"):
        baseline_random_binary(cfg, 1.5, 24, rng)

    zc = baseline_zadoff_chu(cfg, 2, 24)
    assert zc.q == 48 and zc.width == 96
    assert set(zc.mask.sum(axis=1).tolist()) == {48}

    zccs_tm = build_training_matrix(table3, cfg, source="zccs")
    zeros = (None,) * 12
    g = table3.sets
    assert zccs_tm.rows[0] == g[0].members[0].phases + zeros + g[0].members[1].phases + zeros
    assert zccs_tm.rows[2] == zeros + g[0].members[0].phases + zeros + g[0].members[1].phases


def test_baseline_ordering_at_reference_point(table4, nonc2_zccs):
    cfg = GSMConfig(4, 2)
    enhanced = build_training_matrix(table4, cfg)
    plain = build_training_matrix(nonc2_zccs, cfg, source="nonc2")
    rng = np.random.default_rng(21)
    rnd = baseline_random_binary(cfg, 2, 24, rng)
    sim = SimConfig(ebn0_db=(16.0,), delay_spreads=(9,), trials=1000, seed=7)
    values = {}
    for name, tm in (("enhanced", enhanced), ("plain", plain), ("random", rnd)):
        values[name] = monte_carlo_mse(tm, sim).points[0].empirical_mse
    assert values["enhanced"] < values["plain"] < values["random"]


def _designs(table4, table5):
    """Training matrices of the fixtures, Theorem 2 and 3 families and both baselines."""
    code = lemma2_ccc(PartitionSpec(3, ((2,), (1, 3))), 2)
    doubled = theorem2_construct(code, code.length)
    chained = theorem3_construct(optimal_theorem3_params(5, 2, 1), 1, 2, (1, 0, 1, 1, 0, 0))
    designs = []
    for cfg in (GSMConfig(4, 2), GSMConfig(8, 3)):
        families = (table5, doubled, chained) if cfg.active_antennas > 2 else (table4, table5, doubled, chained)
        designs += [build_training_matrix(fam, cfg, source="family") for fam in families]
        designs += [baseline_random_binary(cfg, 2, 32, np.random.default_rng(5)), baseline_zadoff_chu(cfg, 2, 32)]
    return designs


def test_criterion_certifies_the_identity_normal_matrix_both_ways(table4, table5):
    """At lambda = Z (the design width) and Z + 1 the criterion passes exactly when the tally's
    normal matrix is E*I; a binary design's BLAS Gram matrix is then E*I too, with eigvalsh E."""
    passed = []
    for tm in _designs(table4, table5):
        width = design_width(tm)
        for spread in (width, width + 1):
            if spread < 0:
                continue
            verdict = check_design_criterion(tm, spread).passed
            identity = tm.energy * np.eye(tm.num_rows * (spread + 1))
            assert np.array_equal(_normal_matrix(tm, spread), identity) == verdict, (tm.source, spread)
            if tm.q == 2:
                X = build_ls_model_matrix(tm, spread)
                assert np.array_equal(X.conj().T @ X, identity) == verdict
                if verdict:
                    assert (np.linalg.eigvalsh(X.conj().T @ X) == tm.energy).all()
            passed.append((tm.source, verdict))
    # every design fails at Z + 1, the constructed ones pass at their zone and so does Zadoff-Chu at 0
    assert {("family", True), ("family", False), ("random-binary", False), ("zadoff-chu", True),
            ("zadoff-chu", False)} == set(passed)


@pytest.mark.parametrize("q", [2, 4, 6, 64])
def test_tally_normal_matrix_equals_the_gram_matrix(q, table4):
    """The Toeplitz blocks read from the tally equal X^H X of the LS model: exactly for
    q in {2, 4}, to rounding through complex roots otherwise, inside the zone, past it, at
    spreads beyond the row width's rank, and for a design with a repeated row, which fails."""
    cfg = GSMConfig(4, 2)
    if q == 64:
        tm = baseline_zadoff_chu(cfg, 2, 32)
    elif q == 2:
        tm = build_training_matrix(table4, cfg)
    else:
        tm = build_training_matrix(theorem3_construct(optimal_theorem3_params(4, 2, 1), 1, q, (1, 2, 0, 1, 3)), cfg)
    rows = [0, 0, *range(2, tm.num_rows)]
    repeated = dataclasses.replace(tm, values=tm.values[rows], mask=tm.mask[rows])
    for design in (tm, repeated):
        for spread in (0, 1, 4, 8, 9, 10, 13, 30, tm.width - 1):
            check_design_criterion(design, spread)  # grows the cached tally to the spread
            X = build_ls_model_matrix(design, spread)
            gram, normal = X.conj().T @ X, _normal_matrix(design, spread)
            if q in (2, 4):
                assert np.array_equal(normal, gram), (q, spread)
            else:
                assert np.allclose(normal, gram, rtol=0, atol=1e-12 * design.energy), (q, spread)
    cfg = SimConfig(ebn0_db=(10.0,), delay_spreads=(2, 9), trials=10, seed=1, matrix_id="dup")
    assert all(point.failed for point in monte_carlo_mse(repeated, cfg).points)


def test_certified_spread_builds_no_model_and_runs_no_eigvalsh(psi24, monkeypatch):
    sigma2 = noise_variance(12.0)
    want = analytic_mse(build_ls_model_matrix(psi24, 9), sigma2)
    fresh = dataclasses.replace(psi24)  # no cached tally

    def forbidden(*args, **kwargs):
        raise AssertionError("called on a certified spread")

    for module in (training, simulate):  # also the name, were simulate to import it again
        monkeypatch.setattr(module, "build_ls_model_matrix", forbidden, raising=False)
    monkeypatch.setattr(np.linalg, "eigvalsh", forbidden)
    (point,) = monte_carlo_mse(fresh, SimConfig(ebn0_db=(12.0,), delay_spreads=(9,), trials=100, seed=3)).points
    assert point.analytic_mse == want and point.cond == 1.0
    with pytest.raises(AssertionError, match="certified"):  # lambda = 10 is past the zone
        monte_carlo_mse(fresh, SimConfig(ebn0_db=(12.0,), delay_spreads=(10,), trials=100, seed=3))
