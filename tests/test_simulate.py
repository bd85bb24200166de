import math
import re
import tracemalloc

import numpy as np
import pytest

from eczcs import (
    GSMConfig,
    RankDeficientTraining,
    SimConfig,
    analytic_mse,
    baseline_random_binary,
    baseline_zadoff_chu,
    build_ls_model_matrix,
    build_training_matrix,
    check_design_criterion,
    ls_estimate,
    modulate,
    monte_carlo_mse,
    mse_floor,
    noise_variance,
    sample_channel,
    zadoff_chu,
)
from eczcs.simulate import default_zc_roots


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


def test_monte_carlo_block_stream_reference(psi24):
    # the documented scheme, which defines the streams of every report:
    # block b of grid point i draws from default_rng((seed, i, b)) the real
    # then imaginary taps, then the real then imaginary noise, for
    # min(32, trials left) trials
    X = build_ls_model_matrix(psi24, 9)
    solver = np.linalg.inv(X.conj().T @ X) @ X.conj().T
    width, dim = X.shape
    for trials in (1, 31, 32, 33, 100):
        cfg = SimConfig(ebn0_db=(8.0, 16.0), delay_spreads=(9,), trials=trials, seed=41)
        for index, point in enumerate(monte_carlo_mse(psi24, cfg).points):
            noise_scale = math.sqrt(noise_variance(point.ebn0_db) / 2.0)
            total = 0.0
            for block, start in enumerate(range(0, trials, 32)):
                count = min(32, trials - start)
                rng = np.random.default_rng((41, index, block))
                shape = (count, psi24.num_rows, 10)
                taps = math.sqrt(1.0 / 20) * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
                taps = taps.reshape(count, dim)
                noise = noise_scale * (
                    rng.standard_normal((count, width)) + 1j * rng.standard_normal((count, width))
                )
                error = (taps @ X.T + noise) @ solver.T - taps
                total += float(np.vdot(error, error).real)
            assert point.empirical_mse == total / (trials * dim), (trials, index)


def test_monte_carlo_memory_does_not_grow_with_trials(table5):
    tm = build_training_matrix(table5, GSMConfig(8, 3))
    peaks = {}
    for trials in (1, 200, 20_000):  # the first run only warms up numpy's lazy set-up
        cfg = SimConfig(ebn0_db=(12.0,), delay_spreads=(8,), trials=trials, seed=3)
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
    assert report.points[0].empirical_mse < 1e-18
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
    assert lines[1] == "EbN0_dB,lambda,empirical_mse,analytic_mse,floor,trials,matrix_id"
    assert lines[2].startswith("16,9,") and lines[2].endswith(",10,t4")


def test_sim_config_validation():
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
        ({"delay_spreads": (1, 2.7)}, "delay spread 2.7 is not an integer"),
        ({"delay_spreads": (3, -1)}, "delay spread must lie in"),
        ({"seed": -1}, "seed must be non-negative, got -1"),
    ):
        with pytest.raises(ValueError, match=re.escape(named)):
            SimConfig(**{**base, **change})
    # numpy ints and True read as integers, the rule PhaseSequence applies to phases
    cfg = SimConfig(ebn0_db=(1.0,), delay_spreads=(np.int64(2), True, 4.0), trials=np.int64(3), seed=0)
    assert cfg.delay_spreads == (2, 1, 4) and all(type(d) is int for d in cfg.delay_spreads)


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
