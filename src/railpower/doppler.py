"""Doppler shift estimation from RSRP windows along the track.

RSRP traces the head relay's distance to the radio head, so a window of
2L+1 consecutive RSRP samples indexes track position far better than a
single value (which is ambiguous between the approach and recede sides).
A lookup table stores the noiseless window at every sampled position
together with the relative Doppler shift there; estimation finds the
nearest stored window in Euclidean distance and rescales its relative
shift by f_max = v / wavelength.  Relative shifts make the table valid
at any configured speed.  A table is its rows (position, relative shift,
window) and nothing else: the window width gives L, and a saved table is
those rows as plain text.

The nearest window to a query q is the first index of least computed
distance ``np.linalg.norm(windows - q, axis=1)``, and a lookup returns
exactly that index without computing every distance.  It screens the K
rows with one matrix-vector product: the score a_k = s_k - 2 w_k.q,
with s_k = |w_k|^2 stored in the table, equals |w_k - q|^2 - |q|^2, so
it orders the rows as the distance does.  It keeps the rows whose
computed score is within

    tau = 8 n eps (R^2 + tiny),   R = max_k |w_k| + |q|,

of the least one (n = 2L+1, eps the machine epsilon, tiny the smallest
normal number) and takes the exact distances of those rows only, with
the same expression, which rounds each row's distance alike in a subset
and in the whole table.  The kept rows come in increasing index order,
so the first-index tie rule holds.

The screen never drops the winner.  With u = eps/2, a computed score is
within about (n+1) u (R^2 + tiny) of the exact one: s_k and w_k.q are
sums of n products, one subtraction follows, and below the normal range
each rounding errs by at most u tiny.  The winner won on computed
distances, so its exact squared distance exceeds the least one by at
most about 2(n+5) u (R^2 + tiny).  Its score is therefore within
(2n+6) eps (R^2 + tiny) of the least score, and tau is at least twice
that for n >= 3.  Overflow anywhere in the screen makes tau infinite or
the least score NaN, and then every row is kept.

Cost: a lookup is one gemv over the (K, n) table plus the exact
distances of the candidates, usually one.  The worst case is a table
whose rows share a common offset far above their spread, so that
eps R^2 reaches the gaps between squared distances: many rows pass the
screen, and the lookup costs up to one more full distance pass.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .radio import link_constant_db, noise_power_dbm, path_loss
from .scenario import (ScenarioConfig, _hold_read_only, _require_count, position_rrh_distance,
                       watts_to_dbm)

EPS = float(np.finfo(float).eps)
TINY = float(np.finfo(float).tiny)


def rsrp_at(cfg: ScenarioConfig, x):
    """Reference-signal received power [dBm] with the head relay at x [m].

    P_T + Gtx + Grx - xi + 10*n*log10(lambda/(4*pi*d(x))), with both ends
    at boresight gain, on the deterministic channel.
    """
    d = position_rrh_distance(cfg, x)
    pl = path_loss(d, cfg.wavelength, cfg.pathloss_exp)
    # C nets out the noise power, which the received power keeps
    out = (watts_to_dbm(cfg.p_t) + link_constant_db(cfg)
           + noise_power_dbm(cfg.bandwidth, cfg.noise_figure) - pl)
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


@dataclass(frozen=True, eq=False)
class RsrpWindow:
    """2L+1 RSRP samples [dBm] centred on track position ``center``."""

    center: float
    values: np.ndarray

    def __post_init__(self):
        _hold_read_only(self, ("values",))
        if self.values.ndim != 1 or not np.all(np.isfinite(self.values)):
            raise ValueError("RSRP window values must be one finite 1-D vector")


@dataclass(frozen=True, eq=False)
class DopplerTable:
    """Sampled positions with their noiseless windows and relative shifts.

    ``sq_norms`` (s_k = |w_k|^2) and ``max_norm`` (max_k |w_k|) are derived
    from the windows for the lookup's screen (see the module docstring).
    """

    positions: np.ndarray   # (K,) window centres [m]
    windows: np.ndarray     # (K, 2L+1) RSRP [dBm]
    f_rel: np.ndarray       # (K,) relative Doppler in [-1, 1]
    sq_norms: np.ndarray = field(init=False, repr=False)   # (K,) |w_k|^2
    max_norm: float = field(init=False, repr=False)

    def __post_init__(self):
        _hold_read_only(self, ("positions", "windows", "f_rel"))
        windows = self.windows
        if windows.ndim != 2 or windows.shape[1] < 3 or windows.shape[1] % 2 == 0:
            raise ValueError("windows must be (K, 2L+1) with L >= 1")
        if windows.shape[0] == 0:
            raise ValueError("empty lookup table")
        if self.positions.shape != (len(windows),) or self.f_rel.shape != (len(windows),):
            raise ValueError("positions and f_rel must hold one value per window")
        if not np.all(np.isfinite(windows)):
            raise ValueError("windows must be finite")
        sq_norms = np.einsum("ij,ij->i", windows, windows)
        sq_norms.setflags(write=False)
        object.__setattr__(self, "sq_norms", sq_norms)
        object.__setattr__(self, "max_norm", float(np.sqrt(sq_norms.max())))

    def __len__(self):
        return len(self.positions)

    def window_at(self, k: int) -> RsrpWindow:
        return RsrpWindow(center=float(self.positions[k]), values=self.windows[k])

    def save(self, path):
        """Plain text rows: position, f_rel, then the 2L+1 RSRP values."""
        data = np.column_stack([self.positions, self.f_rel, self.windows])
        np.savetxt(path, data, header="position_m f_rel rsrp_dbm[2L+1]")

    @classmethod
    def load(cls, path) -> "DopplerTable":
        """Read the rows :meth:`save` writes; ``#`` comment lines are skipped.
        A file without rows, or rows that do not hold 2L+3 values with
        L >= 1, raise ValueError."""
        with warnings.catch_warnings():
            # a file without rows is reported below
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            data = np.loadtxt(path, ndmin=2)
        if data.size == 0 or data.shape[1] < 5 or data.shape[1] % 2 == 0:
            found = f"{data.shape[1]} values" if data.size else "no rows"
            raise ValueError(f"{path}: expected rows of 2L+3 values with L >= 1 "
                             f"(position, f_rel, 2L+1 RSRP), got {found}")
        return cls(positions=data[:, 0].copy(), f_rel=data[:, 1].copy(),
                   windows=data[:, 2:].copy())


def build_table(cfg: ScenarioConfig, x_s: float = 1.0, L: int = 5) -> DopplerTable:
    """Sample windows every x_s metres over the cell span [0, d_l].

    Centres sit on the grid k*x_s (k an integer, k >= 0) and are kept only
    when the whole window fits inside the cell, so 2L grid points are lost
    at the boundaries.  Raises ``ValueError`` naming the argument unless
    x_s is finite, positive and not a bool, and L is an integer of at
    least 1.
    """
    if isinstance(x_s, (bool, np.bool_)) or not (math.isfinite(x_s) and x_s > 0.0):
        raise ValueError(f"x_s must be finite and positive, got {x_s!r}")
    _require_count("L", L)
    if L < 1:
        raise ValueError(f"L must be at least 1, got {L!r}")
    k_max = int(np.floor(cfg.d_l / x_s + 1e-12))
    ks = np.arange(L, k_max - L + 1)
    if ks.size == 0:
        raise ValueError("no window fits: the cell is shorter than 2*L*x_s")
    centers = ks * x_s
    offsets = np.arange(-L, L + 1) * x_s
    windows = rsrp_at(cfg, centers[:, None] + offsets[None, :])
    f_rel = true_doppler(cfg, centers) / max_doppler(cfg)
    return DopplerTable(positions=centers, windows=windows, f_rel=f_rel)


def estimate_doppler(table: DopplerTable, window: RsrpWindow, cfg: ScenarioConfig) -> float:
    """Nearest-window Doppler estimate [Hz].

    Finds the first table entry of least Euclidean distance between RSRP
    vectors, screened by one matrix-vector product and re-checked exactly
    (see the module docstring), and rescales its relative shift by
    ``cfg.v / cfg.wavelength``.
    """
    n = table.windows.shape[1]
    if window.values.size != n:
        raise ValueError("window length does not match the table")
    q = window.values
    score = table.windows @ (-2.0 * q)     # a_k = s_k - 2 w_k.q
    score += table.sq_norms
    r = table.max_norm + math.sqrt(q @ q)
    tau = 8.0 * n * EPS * (r * r + TINY)
    # negated test: a NaN least score (overflow) keeps every row
    near = np.flatnonzero(~(score > score.min() + tau))
    k = int(near[np.argmin(np.linalg.norm(table.windows[near] - q, axis=1))])
    return float(table.f_rel[k]) * cfg.v / cfg.wavelength
