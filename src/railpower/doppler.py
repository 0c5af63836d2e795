"""Doppler shift estimation from RSRP windows along the track.

RSRP traces the head relay's distance to the radio head, so a window of
2L+1 consecutive RSRP samples indexes track position far better than a
single value (which is ambiguous between the approach and recede sides).
A lookup table stores the noiseless window at every sampled position
together with the relative Doppler shift there; estimation finds the
nearest stored window in Euclidean distance and rescales its relative
shift by f_max = v / wavelength.  Relative shifts make the table valid
at any speed, including an externally estimated one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .radio import LinkConstants, path_loss
from .scenario import ScenarioConfig, _hold_read_only, position_rrh_distance, watts_to_dbm


def rsrp_at(cfg: ScenarioConfig, x, gamma_db=0.0):
    """Reference-signal received power [dBm] with the head relay at x [m].

    P_T + Gtx + Grx - xi + 10*n*log10(lambda/(4*pi*d(x))) - gamma, with
    both ends at boresight gain.
    """
    consts = LinkConstants.from_config(cfg)
    d = position_rrh_distance(cfg, x)
    pl = path_loss(d, cfg.wavelength, cfg.pathloss_exp)
    out = (watts_to_dbm(cfg.p_t) + consts.c_db + consts.p_noise_dbm
           - pl - np.asarray(gamma_db, dtype=float))
    return out if np.ndim(out) else float(out)


def max_doppler(cfg: ScenarioConfig) -> float:
    """f_max = f_c * v / c = v / wavelength [Hz]."""
    return cfg.v / cfg.wavelength


def true_doppler(cfg: ScenarioConfig, x):
    """Kinematic Doppler shift [Hz] at track position x [m].

    f_max scaled by the radial-velocity fraction (d_l/2 - x) / d(x), the
    cosine of the angle between the velocity and the line of sight;
    positive while approaching the radio head.
    """
    d = position_rrh_distance(cfg, x)
    out = max_doppler(cfg) * (cfg.d_l / 2.0 - np.asarray(x, dtype=float)) / d
    return out if np.ndim(out) else float(out)


@dataclass(frozen=True)
class RsrpWindow:
    """2L+1 RSRP samples [dBm] centred on track position ``center``."""

    center: float
    values: np.ndarray

    def __post_init__(self):
        _hold_read_only(self, ("values",))


@dataclass(frozen=True)
class DopplerTable:
    """Sampled positions with their noiseless windows and relative shifts."""

    positions: np.ndarray   # (K,) window centres [m]
    windows: np.ndarray     # (K, 2L+1) RSRP [dBm]
    f_rel: np.ndarray       # (K,) relative Doppler in [-1, 1]
    x_s: float              # sample spacing [m]
    half_width: int         # L

    def __post_init__(self):
        _hold_read_only(self, ("positions", "windows", "f_rel"))

    def __len__(self):
        return len(self.positions)

    def window_at(self, k: int) -> RsrpWindow:
        return RsrpWindow(center=float(self.positions[k]), values=self.windows[k])

    def save(self, path):
        """Plain text rows: position, f_rel, then the 2L+1 RSRP values."""
        data = np.column_stack([self.positions, self.f_rel, self.windows])
        header = (f"x_s={self.x_s!r} L={self.half_width}\n"
                  "position_m f_rel rsrp_dbm[2L+1]")
        np.savetxt(path, data, header=header)

    @classmethod
    def load(cls, path) -> "DopplerTable":
        with open(path) as fh:
            first = fh.readline()
        fields = dict(part.split("=") for part in first.lstrip("# ").split())
        data = np.atleast_2d(np.loadtxt(path))
        return cls(positions=data[:, 0].copy(), f_rel=data[:, 1].copy(),
                   windows=data[:, 2:].copy(), x_s=float(fields["x_s"]),
                   half_width=int(fields["L"]))


def build_table(cfg: ScenarioConfig, x_s: float = 1.0, L: int = 5) -> DopplerTable:
    """Sample windows every x_s metres over the cell span [0, d_l].

    Centres sit on the grid k*x_s (k an integer, k >= 0) and are kept only
    when the whole window fits inside the cell, so 2L grid points are lost
    at the boundaries.
    """
    if x_s <= 0.0:
        raise ValueError("x_s must be positive")
    if L < 1:
        raise ValueError("L must be at least 1")
    k_max = int(np.floor(cfg.d_l / x_s + 1e-12))
    ks = np.arange(L, k_max - L + 1)
    if ks.size == 0:
        raise ValueError("no window fits: the cell is shorter than 2*L*x_s")
    centers = ks * x_s
    offsets = np.arange(-L, L + 1) * x_s
    windows = rsrp_at(cfg, centers[:, None] + offsets[None, :])
    f_rel = true_doppler(cfg, centers) / max_doppler(cfg)
    return DopplerTable(positions=centers, windows=windows, f_rel=f_rel,
                        x_s=x_s, half_width=L)


def estimate_doppler(table: DopplerTable, window: RsrpWindow, cfg: ScenarioConfig,
                     v: float | None = None) -> float:
    """Nearest-window Doppler estimate [Hz].

    Finds the table entry minimising the Euclidean distance between RSRP
    vectors and rescales its relative shift by v / wavelength; ``v``
    defaults to the configured speed but may be an external estimate.
    """
    if len(table) == 0:
        raise ValueError("empty lookup table")
    if window.values.shape[-1] != table.windows.shape[1]:
        raise ValueError("window length does not match the table")
    v = cfg.v if v is None else v
    k = int(np.argmin(np.linalg.norm(table.windows - window.values, axis=1)))
    return float(table.f_rel[k]) * v / cfg.wavelength
