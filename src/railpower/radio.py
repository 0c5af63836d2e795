"""Physical-layer core: antenna gain, path loss, noise, SNR, Rician fading.

The link budget works in dB/dBm end to end.  Both ends are beam aligned,
so the link uses the boresight gain G0 at each end.

Fading is expressed as a dB attenuation ``gamma_db`` normalised so that
the deterministic channel (gamma_db = 0) coincides with the RMS-envelope
channel: gamma_db = -20*log10(r / r_rms) for an envelope sample r.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .scenario import ScenarioConfig

THERMAL_NOISE_DBM_PER_HZ = -174.0


def max_antenna_gain(theta_3db: float) -> float:
    """Boresight gain G0 [dB] of the directional antenna model.

    G0 = 10*log10((1.6162 / sin(theta_3db/2))^2) with theta_3db in degrees.
    """
    if not 0.0 < theta_3db < 180.0:
        raise ValueError("theta_3db must lie in (0, 180) degrees")
    return 10.0 * math.log10((1.6162 / math.sin(math.radians(theta_3db) / 2.0)) ** 2)


def path_loss(d, wavelength: float, n_pl: float):
    """Log-distance path loss 10*n*log10(4*pi*d/lambda) [dB]."""
    d = np.asarray(d, dtype=float)
    if np.any(d <= 0.0):
        raise ValueError("distance must be strictly positive")
    if wavelength <= 0.0:
        raise ValueError("wavelength must be strictly positive")
    out = 10.0 * n_pl * np.log10(4.0 * np.pi * d / wavelength)
    return out if out.ndim else float(out)


def noise_power_dbm(bandwidth: float, noise_figure: float) -> float:
    """Thermal noise power -174 + 10*log10(B) + NF [dBm]."""
    if bandwidth <= 0.0:
        raise ValueError("bandwidth must be strictly positive")
    return THERMAL_NOISE_DBM_PER_HZ + 10.0 * math.log10(bandwidth) + noise_figure


@dataclass(frozen=True)
class LinkConstants:
    """Aggregated link-budget constant C = Gtx + Grx - xi - P_noise [dB]."""

    c_db: float
    p_noise_dbm: float

    @classmethod
    def from_config(cls, cfg: ScenarioConfig) -> "LinkConstants":
        g0 = max_antenna_gain(cfg.theta_3db)
        p_noise = noise_power_dbm(cfg.bandwidth, cfg.noise_figure)
        return cls(c_db=2.0 * g0 - cfg.shadowing - p_noise, p_noise_dbm=p_noise)


def snr_db(p_tx_dbm, d, gamma_db, cfg: ScenarioConfig):
    """Received SNR [dB] at transmit power p_tx_dbm over distance d [m].

    SNR = P_tx + 10*n*log10(lambda/(4*pi*d)) - gamma + C, with C the
    aggregated antenna/shadowing/noise constant of cfg.  ``gamma_db`` is
    the fading attenuation in dB; positive values degrade the link, and 0
    reproduces the deterministic channel.
    """
    pl = path_loss(d, cfg.wavelength, cfg.pathloss_exp)
    c_db = LinkConstants.from_config(cfg).c_db
    out = np.asarray(p_tx_dbm, dtype=float) - pl - np.asarray(gamma_db, dtype=float) + c_db
    return out if out.ndim else float(out)


def snr_linear_per_watt(cfg: ScenarioConfig, d, gamma_db=0.0):
    """Linear SNR per transmit watt at distance d [1/W].

    snr_linear = P[W] * snr_linear_per_watt, equivalent to 10^(SNR_dB/10)
    with P expressed in dBm.  This is the quantity the rate integrals and
    their gradients are built from.
    """
    per_mw = snr_db(0.0, d, gamma_db, cfg)   # SNR in dB for 1 mW
    return 1000.0 * 10.0 ** (np.asarray(per_mw, dtype=float) / 10.0)


@dataclass(frozen=True)
class FadingModel:
    """Rician envelope: magnitude of a complex Gaussian with LOS mean A.

    The pdf is f(r) = r/sigma^2 * exp(-(r^2+A^2)/(2 sigma^2)) * I0(r A/sigma^2)
    with K = A^2 / (2 sigma^2) and second moment E[r^2] = A^2 + 2 sigma^2.
    """

    a: float       # line-of-sight amplitude (linear)
    sigma: float   # per-component scatter std (linear)

    def __post_init__(self):
        if self.a < 0.0 or self.sigma <= 0.0:
            raise ValueError("require a >= 0 and sigma > 0")

    @property
    def k_factor(self) -> float:
        return self.a ** 2 / (2.0 * self.sigma ** 2)

    @property
    def rms(self) -> float:
        return math.sqrt(self.a ** 2 + 2.0 * self.sigma ** 2)

    @classmethod
    def from_k_db(cls, k_db: float) -> "FadingModel":
        """Build from a K-factor in dB at unit RMS envelope (E[r^2] = 1)."""
        k = 10.0 ** (k_db / 10.0)
        sigma2 = 1.0 / (2.0 * (k + 1.0))
        return cls(a=math.sqrt(2.0 * k * sigma2), sigma=math.sqrt(sigma2))


def sample_rician_envelope(model: FadingModel, rng: np.random.Generator, size=None):
    """Draw envelope samples r >= 0 from the Rician distribution."""
    re = rng.normal(model.a, model.sigma, size=size)
    im = rng.normal(0.0, model.sigma, size=size)
    return np.hypot(re, im)


def sample_fading_db(model: FadingModel, rng: np.random.Generator, size=None):
    """Draw dB attenuations gamma = -20*log10(r / r_rms); mean-square 0 dB."""
    r = sample_rician_envelope(model, rng, size=size)
    return -20.0 * np.log10(r / model.rms)
