"""Train/cell geometry and the three-phase traversal timeline.

A train carrying ``num_relays`` roof relays (spacing ``d_mr``) crosses a
trackside cell of width ``d_l`` at constant speed ``v``.  The crossing is
split into ``2*M + N - 2`` segments: M-1 entry segments (relays enter one
by one), N location bins while all relays are covered, and M-1 exit
segments.  Everything downstream (power matrices, data integrals, the
solver) is indexed by these segments.

A relay transmits only while it is in the cell, so of the M x (2M+N-2)
(relay, segment) pairs only K = M(M+N-1) are active.  :class:`EntryLayout`
is the one place that decides which pairs those are and the compact
column-major order every allocation, gain table, fading trace and solver
step holds them in; :func:`entry_layout` gives every config with the same
(M, N) the same read-only instance.

Relay indices ``i`` and segment indices ``j`` taken by this module's
functions are 1-based, matching the usual notation for this kind of
system; the index arrays of an :class:`EntryLayout` are 0-based.  The track
axis is x, the cell spans [0, d_l], and the head relay sits at x = 0 at
t = 0.  The radio head is placed abeam the cell midpoint at lateral
offset ``d0``.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass, replace

import numpy as np

KMH_TO_MPS = 1.0 / 3.6


def dbm_to_watts(p_dbm: float) -> float:
    return 10.0 ** (p_dbm / 10.0) / 1000.0


def watts_to_dbm(p_w):
    return 10.0 * np.log10(np.asarray(p_w) * 1000.0)


def _require_count(name: str, value) -> None:
    """Raise ``ValueError`` naming ``name`` unless ``value`` is an integer;
    a bool, or a float such as 2.0, would reach numpy as a shape or a seed."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")


def _rician_k_linear(k_db: float, name: str) -> float:
    """The linear Rician K-factor of ``k_db`` [dB], 0 at -inf (Rayleigh).
    Raises ``ValueError`` naming ``name`` for NaN, +inf, or a K-factor whose
    linear value is not finite (above about 3082 dB)."""
    try:
        k = 10.0 ** (float(k_db) / 10.0)
    except OverflowError:
        k = math.inf
    if not k < math.inf:
        raise ValueError(f"{name} must be a K-factor [dB] with a finite linear value "
                         f"(at most about 3082 dB), got {k_db!r}")
    return k


def _hold_read_only(obj, names) -> None:
    """Make a frozen dataclass hold read-only arrays: a writable input is
    copied, never frozen in place, and a read-only one is kept as is."""
    for name in names:
        arr = getattr(obj, name)
        if arr.flags.writeable:
            arr = arr.copy()
            arr.setflags(write=False)
            object.__setattr__(obj, name, arr)


def _frozen(arr: np.ndarray) -> np.ndarray:
    """Make a freshly computed array read-only in place, rather than copy it."""
    arr.setflags(write=False)
    return arr


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
        for name in ("num_relays", "num_bins", "quad_n", "seed"):
            _require_count(name, getattr(self, name))
        _rician_k_linear(self.rician_k, "rician_k")
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

    def with_(self, **kwargs) -> "ScenarioConfig":
        return replace(self, **kwargs)


def reference_config(**overrides) -> ScenarioConfig:
    """Baseline scenario: M=4, d_l=200 m, v=300 km/h, P_T=40 dBm."""
    return ScenarioConfig(**overrides)


@dataclass(frozen=True, eq=False)
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


def mr_position(cfg: ScenarioConfig, i: int | np.ndarray, t):
    """Track coordinate v*t - (i-1)*d_mr of relay i (1..M, or an index array
    broadcast against t); negative before cell entry."""
    if not 1 <= np.min(i) <= np.max(i) <= cfg.num_relays:
        raise IndexError(f"relay index {i} outside 1..{cfg.num_relays}")
    return cfg.v * np.asarray(t, dtype=float) - (i - 1) * cfg.d_mr


def mr_rrh_distance(cfg: ScenarioConfig, i: int | np.ndarray, t):
    """Line-of-sight distance from relay i (or an index array) to the radio head [m]."""
    return position_rrh_distance(cfg, mr_position(cfg, i, t))


def position_rrh_distance(cfg: ScenarioConfig, x):
    """Distance from track coordinate x to the radio head [m]."""
    return np.sqrt(cfg.d0 ** 2 + (np.asarray(x, dtype=float) - cfg.d_l / 2.0) ** 2)


def mrs_in_cell(cfg: ScenarioConfig, j: int) -> int:
    """Number of relays covered by the cell during segment j (1-based): the
    active entries of column j of :func:`entry_layout`'s mask."""
    if not 1 <= j <= cfg.num_segments:
        raise IndexError(f"segment index {j} outside 1..{cfg.num_segments}")
    return int(np.count_nonzero(entry_layout(cfg).mask[:, j - 1]))


@dataclass(frozen=True, eq=False)
class EntryLayout:
    """The compact entry order of one relay layout (M, N): its K = M(M+N-1)
    active (relay, segment) entries, 0-based, in column-major order, each
    segment's relays next to each other.

    ``mask`` is the (M, 2M+N-2) activity mask, True where relay i is in the
    cell in segment j, that is in segments i..i+M+N-2 (1-based).  Build it
    with :func:`entry_layout`, which holds one instance per (M, N); every
    allocation, gain table and solver step of that layout reads the same
    read-only object, and so does one unpickled in another process.
    """

    mask: np.ndarray       # (M, S) bool
    relay: np.ndarray      # (K,) entry -> relay
    segment: np.ndarray    # (K,) entry -> segment

    def __reduce__(self):
        m, s = self.mask.shape
        return _entry_layout, (m, s - 2 * m + 2)

    def column_sums(self, v: np.ndarray) -> np.ndarray:
        """Per-segment sums (S,) of compact entry values v (K,): a column's
        entries are added in relay order, as a row-by-row sum of the dense
        matrix adds them."""
        return np.bincount(self.segment, weights=v, minlength=self.mask.shape[1])

    def dense(self, v: np.ndarray) -> np.ndarray:
        """Read-only dense (M, S) matrix of compact values v, zero outside
        the mask."""
        out = np.zeros(self.mask.shape)
        out[self.relay, self.segment] = v
        return _frozen(out)


def entry_layout(cfg: ScenarioConfig) -> EntryLayout:
    """The shared :class:`EntryLayout` of cfg's relay layout (M, N)."""
    return _entry_layout(cfg.num_relays, cfg.num_bins)


@functools.cache
def _entry_layout(m: int, n: int) -> EntryLayout:
    mask = np.zeros((m, 2 * m + n - 2), dtype=bool)
    for i in range(m):
        mask[i, i:i + m + n - 1] = True
    segment, relay = np.nonzero(mask.T)
    return EntryLayout(_frozen(mask), _frozen(relay), _frozen(segment))
