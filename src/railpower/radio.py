"""Physical-layer core: antenna gain, path loss, noise, SNR, Rician fading.

The link budget is stated in dB/dBm (:func:`snr_db`); the linear SNR per
transmit watt that the gain tables are built from
(:func:`snr_linear_per_watt`) forms the same budget in linear units, with
no dB round trip.  Both ends are beam aligned, so the link uses the
boresight gain G0 at each end.

Rician fading is given by its K-factor in dB alone, at unit RMS envelope
(E[r^2] = 1).  It is expressed as a linear power factor |r|^2 / E[r^2]
for an envelope sample r: it has mean 1, and a factor of 1 reproduces the
deterministic channel.  Its dB attenuation, the ``gamma_db`` that
:func:`snr_db` takes, is -10*log10 of the factor.
"""

from __future__ import annotations

import math

import numpy as np

from .scenario import ScenarioConfig, _rician_k_linear

THERMAL_NOISE_DBM_PER_HZ = -174.0


def max_antenna_gain(theta_3db: float) -> float:
    """Boresight gain G0 [dB] of the directional antenna model.

    G0 = 10*log10((1.6162 / sin(theta_3db/2))^2) with theta_3db in degrees.
    """
    if not 0.0 < theta_3db < 180.0:
        raise ValueError("theta_3db must lie in (0, 180) degrees")
    return 10.0 * math.log10((1.6162 / math.sin(math.radians(theta_3db) / 2.0)) ** 2)


def _link_distance(d, wavelength: float) -> np.ndarray:
    # the distances as an array, once the link's geometry is checked
    d = np.asarray(d, dtype=float)
    if np.any(d <= 0.0):
        raise ValueError("distance must be strictly positive")
    if wavelength <= 0.0:
        raise ValueError("wavelength must be strictly positive")
    return d


def path_loss(d, wavelength: float, n_pl: float):
    """Log-distance path loss 10*n*log10(4*pi*d/lambda) [dB]."""
    d = _link_distance(d, wavelength)
    out = 10.0 * n_pl * np.log10(4.0 * np.pi * d / wavelength)
    return out if out.ndim else float(out)


def noise_power_dbm(bandwidth: float, noise_figure: float) -> float:
    """Thermal noise power -174 + 10*log10(B) + NF [dBm]."""
    if bandwidth <= 0.0:
        raise ValueError("bandwidth must be strictly positive")
    return THERMAL_NOISE_DBM_PER_HZ + 10.0 * math.log10(bandwidth) + noise_figure


def received_gain_db(cfg: ScenarioConfig) -> float:
    """Received-power gain Gtx + Grx - xi [dB]: both boresight gains less
    the shadowing, the link budget before the noise power."""
    return 2.0 * max_antenna_gain(cfg.theta_3db) - cfg.shadowing


def link_constant_db(cfg: ScenarioConfig) -> float:
    """Aggregated link-budget constant C = Gtx + Grx - xi - P_noise [dB]."""
    p_noise = noise_power_dbm(cfg.bandwidth, cfg.noise_figure)
    return received_gain_db(cfg) - p_noise


def snr_db(p_tx_dbm, d, gamma_db, cfg: ScenarioConfig):
    """Received SNR [dB] at transmit power p_tx_dbm over distance d [m].

    SNR = P_tx + 10*n*log10(lambda/(4*pi*d)) - gamma + C, with C the
    aggregated antenna/shadowing/noise constant of cfg.  ``gamma_db`` is
    the fading attenuation in dB; positive values degrade the link, and 0
    reproduces the deterministic channel.
    """
    pl = path_loss(d, cfg.wavelength, cfg.pathloss_exp)
    out = (np.asarray(p_tx_dbm, dtype=float) - pl - np.asarray(gamma_db, dtype=float)
           + link_constant_db(cfg))
    return out if out.ndim else float(out)


def snr_linear_per_watt(cfg: ScenarioConfig, d):
    """Linear SNR per transmit watt at distance d [1/W], without fading.

    1000 * 10^(C/10) * (lambda/(4*pi*d))^n, with C = :func:`link_constant_db`:
    the budget of :func:`snr_db` at 1 mW, in linear units and per watt, so
    snr_linear = P[W] * snr_linear_per_watt.  This is the quantity the rate
    integrals and their gradients are built from; fading multiplies it by a
    power factor (see :func:`sample_fading_power`).
    """
    out = (cfg.wavelength / (4.0 * np.pi)) / _link_distance(d, cfg.wavelength)
    out **= cfg.pathloss_exp
    out *= 1000.0 * 10.0 ** (link_constant_db(cfg) / 10.0)
    return out if out.ndim else float(out)


def _rician_parts(k_db: float, rng: np.random.Generator, size):
    # the Rician envelope is the magnitude of a complex Gaussian with
    # line-of-sight mean a and per-component scatter std sigma, with
    # K = a^2 / (2 sigma^2) and a^2 + 2 sigma^2 = E[r^2] = 1 (unit RMS).
    # One (2, *size) standard normal draw is turned, in place, into the real
    # part a + sigma*z[0] and the imaginary part sigma*z[1]: the values
    # rng.normal(a, sigma) and rng.normal(0, sigma) give on two successive
    # draws of size, with the stream ending where theirs would.  The
    # factors of 2 are applied last, so that no finite K overflows.
    k = _rician_k_linear(k_db, "k_db")
    sigma2 = 0.5 / (k + 1.0)
    a, sigma = math.sqrt(k * sigma2 * 2.0), math.sqrt(sigma2)
    shape = () if size is None else tuple(np.atleast_1d(size))
    re, im = rng.standard_normal((2,) + shape)
    re *= sigma
    re += a
    im *= sigma
    return re, im, a ** 2 + 2.0 * sigma ** 2


def sample_rician_envelope(k_db: float, rng: np.random.Generator, size=None):
    """Draw envelope samples r >= 0 of unit RMS (E[r^2] = 1) from the
    Rician distribution of K-factor ``k_db`` [dB]; -inf is Rayleigh.  NaN,
    +inf and a K above about 3082 dB, whose linear value is not finite,
    raise ``ValueError`` naming ``k_db``."""
    re, im, _ = _rician_parts(k_db, rng, size)
    return np.hypot(re, im)


def sample_fading_power(k_db: float, rng: np.random.Generator, size=None):
    """Draw linear power factors |r|^2 / E[r^2] (mean 1) of Rician envelopes.

    The envelopes are those :func:`sample_rician_envelope` draws from the
    same rng state; the dB attenuation of a factor is -10*log10 of it.
    """
    re, im, mean_square = _rician_parts(k_db, rng, size)
    re *= re
    im *= im
    re += im
    re /= mean_square
    return re
