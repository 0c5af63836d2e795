import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from oracles import rician_parameters
from scipy import stats

from railpower import (dbm_to_watts, link_constant_db, max_antenna_gain, noise_power_dbm,
                       path_loss, sample_fading_power, sample_rician_envelope, snr_db,
                       snr_linear_per_watt)


def g0_oracle(theta_3db):
    return 10.0 * math.log10((1.6162 / math.sin(math.radians(theta_3db) / 2.0)) ** 2)


def test_max_antenna_gain_values():
    assert_allclose(max_antenna_gain(30.0), g0_oracle(30.0), rtol=1e-15)
    assert_allclose(max_antenna_gain(30.0), 15.91, atol=5e-3)
    assert_allclose(max_antenna_gain(60.0), g0_oracle(60.0), rtol=1e-15)
    # direct evaluation: 20*log10(1.6162/sin(30 deg)) = 10.19 dB
    assert_allclose(max_antenna_gain(60.0), 10.1905, atol=5e-4)


def test_max_antenna_gain_monotone_and_domain():
    thetas = np.linspace(1.0, 179.0, 90)
    gains = [max_antenna_gain(t) for t in thetas]
    assert np.all(np.diff(gains) < 0)
    for bad in (0.0, -3.0, 180.0):
        with pytest.raises(ValueError):
            max_antenna_gain(bad)


def test_path_loss_values():
    assert_allclose(path_loss(20.0, 0.005, 2.0),
                    20.0 * math.log10(4.0 * math.pi * 20.0 / 0.005), rtol=1e-15)
    assert_allclose(path_loss(20.0, 0.005, 2.0), 94.03, atol=5e-3)
    d_unit = 0.005 / (4.0 * math.pi)
    assert_allclose(path_loss(d_unit, 0.005, 3.7), 0.0, atol=1e-12)
    gain_doubling = path_loss(40.0, 0.005, 2.0) - path_loss(20.0, 0.005, 2.0)
    assert_allclose(gain_doubling, 20.0 * math.log10(2.0), rtol=1e-12)
    with pytest.raises(ValueError):
        path_loss(0.0, 0.005, 2.0)


def test_path_loss_log_linear(ref_cfg):
    ds = np.logspace(0.5, 3, 12)
    pl = path_loss(ds, ref_cfg.wavelength, ref_cfg.pathloss_exp)
    assert np.all(np.diff(pl) > 0)
    # slope 10*n per decade
    assert_allclose(np.diff(pl) / np.diff(np.log10(ds)),
                    10.0 * ref_cfg.pathloss_exp, rtol=1e-12)


def test_noise_power():
    assert_allclose(noise_power_dbm(2.16e9, 6.0),
                    -174.0 + 10.0 * math.log10(2.16e9) + 6.0, rtol=1e-15)
    assert_allclose(noise_power_dbm(2.16e9, 6.0), -74.66, atol=5e-3)
    assert noise_power_dbm(1.0, 0.0) == -174.0
    assert_allclose(noise_power_dbm(2.16e9, 0.0), -80.66, atol=5e-3)


def test_link_constants_recomputable(ref_cfg):
    p_noise = noise_power_dbm(ref_cfg.bandwidth, ref_cfg.noise_figure)
    g0 = max_antenna_gain(ref_cfg.theta_3db)
    assert_allclose(link_constant_db(ref_cfg), 2 * g0 - ref_cfg.shadowing - p_noise,
                    rtol=1e-15)


def test_snr_link_budget_decomposition(ref_cfg):
    # the aggregate SNR must equal the sum of its link-budget parts
    g0 = max_antenna_gain(ref_cfg.theta_3db)
    p_noise = noise_power_dbm(ref_cfg.bandwidth, ref_cfg.noise_figure)
    for p_dbm, d in [(30.0, 20.0), (40.0, 101.98), (17.5, 55.0)]:
        parts = (p_dbm - path_loss(d, ref_cfg.wavelength, ref_cfg.pathloss_exp)
                 + g0 + g0 - ref_cfg.shadowing - p_noise)
        assert abs(snr_db(p_dbm, d, 0.0, ref_cfg) - parts) <= 1e-9


def test_snr_reference_value(ref_cfg):
    assert_allclose(snr_db(30.0, 20.0, 0.0, ref_cfg), 32.44, atol=0.02)
    # dB additivity in transmit power
    assert_allclose(snr_db(40.0, 20.0, 0.0, ref_cfg)
                    - snr_db(30.0, 20.0, 0.0, ref_cfg), 10.0, rtol=1e-12)
    # distance penalty is pure path loss
    drop = snr_db(30.0, 20.0, 0.0, ref_cfg) \
        - snr_db(30.0, 101.98, 0.0, ref_cfg)
    assert_allclose(drop, 20.0 * math.log10(101.98 / 20.0), rtol=1e-12)
    assert_allclose(drop, 14.15, atol=5e-3)


def test_snr_decreasing_and_fading_sign(ref_cfg):
    ds = np.linspace(20.0, 150.0, 40)
    s = snr_db(30.0, ds, 0.0, ref_cfg)
    assert np.all(np.diff(s) < 0)
    # positive gamma (an attenuation) degrades the SNR
    assert snr_db(30.0, 50.0, 3.0, ref_cfg) \
        == pytest.approx(snr_db(30.0, 50.0, 0.0, ref_cfg) - 3.0)


def test_snr_linear_per_watt_consistency(ref_cfg):
    d = 37.0
    p_w = 1.7
    expected = 10.0 ** (snr_db(10 * math.log10(p_w * 1000), d, 0.0, ref_cfg) / 10)
    assert_allclose(p_w * snr_linear_per_watt(ref_cfg, d), expected, rtol=1e-12)


@pytest.mark.parametrize("n_pl", [1.6, 2.0, 2.7, 3.5])
def test_snr_linear_per_watt_is_the_db_budget_in_linear_units(ref_cfg, n_pl):
    # the linear gain 1000 * 10^(C/10) * (lambda / (4 pi d))^n is the dB
    # budget of snr_db at 1 mW, taken per watt
    cfg = ref_cfg.with_(pathloss_exp=n_pl)
    d = np.logspace(0.0, 4.0, 201)
    assert_allclose(snr_linear_per_watt(cfg, d),
                    1000.0 * 10.0 ** (snr_db(0.0, d, 0.0, cfg) / 10.0), rtol=1e-13)
    got = snr_linear_per_watt(cfg, 37.0)
    assert type(got) is float
    assert_allclose(got, 1000.0 * 10.0 ** (snr_db(0.0, 37.0, 0.0, cfg) / 10.0), rtol=1e-13)
    for bad in (0.0, -2.0, np.array([5.0, 0.0])):
        with pytest.raises(ValueError, match="distance"):
            snr_linear_per_watt(cfg, bad)


def test_rician_second_moment(rng):
    r = sample_rician_envelope(10.0, rng, size=1_000_000)
    assert np.all(r >= 0)
    assert_allclose((r ** 2).mean(), 1.0, rtol=0.02)


def test_rayleigh_degenerate_case(rng):
    # K = 0 (-inf dB): no line-of-sight part, still unit RMS
    r = sample_rician_envelope(-np.inf, rng, size=1_000_000)
    assert_allclose((r ** 2).mean(), 1.0, rtol=0.02)
    res = stats.kstest(r, stats.rayleigh(scale=np.sqrt(0.5)).cdf)
    assert res.pvalue > 0.01


def test_rician_ks_test():
    a, sigma = rician_parameters(10.0)
    assert_allclose(a ** 2 / (2 * sigma ** 2), 10.0, rtol=1e-12)
    r = sample_rician_envelope(10.0, np.random.default_rng(11), size=100_000)
    res = stats.kstest(r, stats.rice(b=a / sigma, scale=sigma).cdf)
    assert res.pvalue > 0.01


def test_fading_determinism():
    a = sample_rician_envelope(10.0, np.random.default_rng(42), size=1000)
    b = sample_rician_envelope(10.0, np.random.default_rng(42), size=1000)
    assert np.array_equal(a, b)


def test_fading_power_has_unit_mean(rng):
    power = sample_fading_power(10.0, rng, size=200_000)
    # the factor |r|^2 / E[r^2] has mean 1 by construction
    assert np.all(power >= 0)
    assert_allclose(np.mean(power), 1.0, rtol=0.02)


def test_fading_power_is_the_envelope_draw_squared():
    # one standard normal draw gives the values, and leaves the stream
    # where, two rng.normal calls (real part, then imaginary part) would
    a, sigma = rician_parameters(10.0)
    for size in (None, 7, (3, 4, 5)):
        ref, rng = np.random.default_rng(12), np.random.default_rng(12)
        re = ref.normal(a, sigma, size=size)
        im = ref.normal(0.0, sigma, size=size)
        power = sample_fading_power(10.0, rng, size=size)
        assert np.shape(power) == np.shape(re)
        assert_allclose(power, np.hypot(re, im) ** 2 / (a ** 2 + 2 * sigma ** 2), rtol=2e-15)
        assert ref.random() == rng.random()
        ref, rng = np.random.default_rng(12), np.random.default_rng(12)
        r = sample_rician_envelope(10.0, rng, size=size)
        assert_allclose(r, np.hypot(ref.normal(a, sigma, size=size),
                                    ref.normal(0.0, sigma, size=size)), rtol=1e-15)
        assert ref.random() == rng.random()


def test_fading_draws_are_the_unit_rms_envelope_arithmetic_bit_for_bit():
    # the parameters are rician_parameters', the factors of 2 applied
    # in another order, up to the largest K whose linear value is finite
    for k_db in (-np.inf, -10.0, 0.0, 10.0, 30.0, 3000.0):
        a, sigma = rician_parameters(k_db)
        z = np.random.default_rng(5).standard_normal((2, 4, 3))
        re, im = z[0] * sigma + a, z[1] * sigma
        power = sample_fading_power(k_db, np.random.default_rng(5), (4, 3))
        assert np.array_equal(power, (re * re + im * im) / (a ** 2 + 2.0 * sigma ** 2))
        r = sample_rician_envelope(k_db, np.random.default_rng(5), (4, 3))
        assert np.array_equal(r, np.hypot(re, im))
    for k_db in (3080.0, 3082.5):
        assert np.all(np.isfinite(sample_fading_power(k_db, np.random.default_rng(5), 3)))


@pytest.mark.parametrize("k_db", [np.nan, np.inf, 3083.0, 4000.0, np.float64(4000.0)])
def test_fading_rejects_a_k_factor_without_a_finite_linear_value(k_db):
    # at the parent 4000 dB raised OverflowError, and NaN or +inf drew NaN
    for sample in (sample_fading_power, sample_rician_envelope):
        with pytest.raises(ValueError, match="k_db must be a K-factor"):
            sample(k_db, np.random.default_rng(0), 3)


def test_dbm_round_trip():
    assert_allclose(dbm_to_watts(40.0), 10.0, rtol=1e-12)
    assert_allclose(dbm_to_watts(30.0), 1.0, rtol=1e-12)
