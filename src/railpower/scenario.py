"""Train/cell geometry and the three-phase traversal timeline.

A train carrying ``num_relays`` roof relays (spacing ``d_mr``) crosses a
trackside cell of width ``d_l`` at constant speed ``v``.  The crossing is
split into ``2*M + N - 2`` segments: M-1 entry segments (relays enter one
by one), N location bins while all relays are covered, and M-1 exit
segments.  Everything downstream (power matrices, data integrals, the
solver) is indexed by these segments.

Relay indices ``i`` and segment indices ``j`` are 1-based throughout this
module, matching the usual notation for this kind of system.  The track
axis is x, the cell spans [0, d_l], and the head relay sits at x = 0 at
t = 0.  The radio head is placed abeam the cell midpoint at lateral
offset ``d0``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

KMH_TO_MPS = 1.0 / 3.6


def dbm_to_watts(p_dbm: float) -> float:
    return 10.0 ** (p_dbm / 10.0) / 1000.0


def watts_to_dbm(p_w):
    return 10.0 * np.log10(np.asarray(p_w) * 1000.0)


def _hold_read_only(obj, names) -> None:
    """Make a frozen dataclass hold read-only arrays: a writable input is
    copied, never frozen in place, and a read-only one is kept as is."""
    for name in names:
        arr = getattr(obj, name)
        if arr.flags.writeable:
            arr = arr.copy()
            arr.setflags(write=False)
            object.__setattr__(obj, name, arr)


@dataclass(frozen=True)
class ScenarioConfig:
    """Full physical and policy parameter set for one traversal.

    All values are stored in SI linear units (m, m/s, W, Hz); dB-valued
    quantities (gains, margins, noise figure) stay in dB because they are
    only ever combined additively.  Unit conversion from km/h or dBm
    happens once, at construction / config parse time.
    """

    d0: float = 20.0            # RRH lateral offset from the rail [m]
    d_l: float = 200.0          # cell coverage width along the track [m]
    d_mr: float = 25.0          # spacing between adjacent relays [m]
    num_relays: int = 4         # M
    num_bins: int = 6           # N, location bins while all relays covered
    v: float = 300.0 * KMH_TO_MPS   # train speed [m/s]
    p_t: float = dbm_to_watts(40.0)  # per-segment transmit power budget [W]
    bandwidth: float = 2.16e9   # [Hz]
    noise_figure: float = 6.0   # [dB]
    pathloss_exp: float = 2.0
    wavelength: float = 0.005   # [m]
    shadowing: float = 10.0     # shadowing margin [dB]
    theta_3db: float = 30.0     # half-power beamwidth [deg]
    rician_k: float = 10.0      # K-factor [dB], evaluation-time fading
    rho: float = 0.8            # data floor as a fraction of the average scheme's data
    d_min_bits: float | None = None  # explicit data floor override [bits]
    seed: int = 0
    quad_n: int = 32            # Simpson subintervals per segment (even)
    csi_alpha: float = 0.2      # CSI-based allocator exponent
    fading: bool = False        # sample fading at evaluation and in the CSI weights

    def __post_init__(self):
        for name, value in vars(self).items():
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if self.num_relays < 1 or self.num_bins < 1:
            raise ValueError("num_relays and num_bins must be >= 1")
        for name in ("d0", "d_l", "d_mr", "v", "p_t", "bandwidth", "wavelength",
                     "csi_alpha"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be strictly positive")
        if self.d_l <= (self.num_relays - 1) * self.d_mr:
            raise ValueError(
                "d_l must exceed (M-1)*d_mr so the traversal has its three stages "
                f"(d_l={self.d_l}, (M-1)*d_mr={(self.num_relays - 1) * self.d_mr})"
            )
        if not 0.0 < self.rho <= 1.0:
            raise ValueError("rho must lie in (0, 1]")
        if not 0.0 < self.theta_3db < 180.0:
            raise ValueError(f"theta_3db must lie in (0, 180) degrees, got {self.theta_3db!r}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed!r}")
        if self.d_min_bits is not None and self.d_min_bits <= 0:
            raise ValueError(f"d_min_bits must be positive, got {self.d_min_bits!r}")
        if self.quad_n < 2 or self.quad_n % 2:
            raise ValueError("quad_n must be a positive even integer")

    @property
    def num_segments(self) -> int:
        return 2 * self.num_relays + self.num_bins - 2

    @property
    def total_time(self) -> float:
        """Traversal duration from head entry to last-relay exit [s]."""
        return (self.d_l + (self.num_relays - 1) * self.d_mr) / self.v

    @property
    def bin_length(self) -> float:
        """Length of one stage-two location bin [m]."""
        return (self.d_l - (self.num_relays - 1) * self.d_mr) / self.num_bins

    def with_(self, **kwargs) -> "ScenarioConfig":
        return replace(self, **kwargs)


def reference_config(**overrides) -> ScenarioConfig:
    """Baseline scenario: M=4, d_l=200 m, v=300 km/h, P_T=40 dBm."""
    return ScenarioConfig(**overrides)


@dataclass(frozen=True)
class SegmentSchedule:
    """Segment boundaries t_0..t_{2M+N-2} and the duration vector T."""

    boundaries: np.ndarray   # (2M+N-1,) [s], strictly increasing, t_0 = 0
    durations: np.ndarray    # (2M+N-2,) [s]

    def __post_init__(self):
        _hold_read_only(self, ("boundaries", "durations"))

    @property
    def num_segments(self) -> int:
        return len(self.durations)

    @property
    def total_time(self) -> float:
        return float(self.boundaries[-1])


def segment_boundaries(cfg: ScenarioConfig) -> SegmentSchedule:
    """Build the traversal timeline for the head relay.

    Boundary i (1-based) is the instant the head relay reaches the end of
    segment i: entry segments end at multiples of d_mr, stage two is split
    into N equal bins over the remaining cell width, and exit segments
    mirror the entry ones.
    """
    m, n, v = cfg.num_relays, cfg.num_bins, cfg.v
    d_mr, d_l = cfg.d_mr, cfg.d_l

    t = np.zeros(2 * m + n - 1)
    for i in range(1, m):                      # stage 1: relays enter
        t[i] = i * d_mr / v
    for i in range(m, m + n):                  # stage 2: N location bins
        a_i = (n + m - i - 1) * (m - 1)
        b_i = i - m + 1
        t[i] = (a_i * d_mr + b_i * d_l) / (v * n)
    for i in range(m + n, 2 * m + n - 1):      # stage 3: relays leave
        c_i = i - m - n + 1
        t[i] = (c_i * d_mr + d_l) / v
    return SegmentSchedule(boundaries=t, durations=np.diff(t))


def head_position(cfg: ScenarioConfig, t):
    """Head-relay track coordinate x = v*t [m]; t may be an array."""
    return cfg.v * np.asarray(t, dtype=float)


def mr_position(cfg: ScenarioConfig, i: int, t):
    """Track coordinate of relay i (1..M); negative before cell entry."""
    if not 1 <= i <= cfg.num_relays:
        raise IndexError(f"relay index {i} outside 1..{cfg.num_relays}")
    return head_position(cfg, t) - (i - 1) * cfg.d_mr


def mr_rrh_distance(cfg: ScenarioConfig, i: int, t):
    """Line-of-sight distance from relay i to the radio head [m]."""
    return position_rrh_distance(cfg, mr_position(cfg, i, t))


def position_rrh_distance(cfg: ScenarioConfig, x):
    """Distance from track coordinate x to the radio head [m]."""
    return np.sqrt(cfg.d0 ** 2 + (np.asarray(x, dtype=float) - cfg.d_l / 2.0) ** 2)


def mrs_in_cell(cfg: ScenarioConfig, j: int) -> int:
    """Number of relays covered by the cell during segment j (1-based)."""
    m, n = cfg.num_relays, cfg.num_bins
    if not 1 <= j <= cfg.num_segments:
        raise IndexError(f"segment index {j} outside 1..{cfg.num_segments}")
    if j <= m - 1:
        return j
    if j <= m + n - 1:
        return m
    return 2 * m + n - j - 1


def active_segments(cfg: ScenarioConfig, i: int) -> tuple[int, int]:
    """Inclusive 1-based segment range [i, i+M+N-2] in which relay i is in the cell."""
    if not 1 <= i <= cfg.num_relays:
        raise IndexError(f"relay index {i} outside 1..{cfg.num_relays}")
    return i, i + cfg.num_relays + cfg.num_bins - 2


def activity_mask(cfg: ScenarioConfig) -> np.ndarray:
    """Boolean (M, 2M+N-2) mask, True where relay i transmits in segment j."""
    m, s = cfg.num_relays, cfg.num_segments
    mask = np.zeros((m, s), dtype=bool)
    for i in range(1, m + 1):
        lo, hi = active_segments(cfg, i)
        mask[i - 1, lo - 1:hi] = True
    return mask
