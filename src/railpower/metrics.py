"""Delivered data, energy, efficiency metrics, and the data derivatives.

Energy is exact (durations dotted with column sums).  Data is the Shannon
rate integrated over each segment with composite Simpson quadrature; the
linear channel factor at every quadrature node depends only on geometry,
so it is precomputed once per scenario into a :class:`GainTable` and all
power-dependent evaluations (data, gradient) become cheap vectorised
passes over that table.  This is what makes the solver's inner loop fast.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import radio
from .scenario import (ScenarioConfig, SegmentSchedule, _hold_read_only, activity_mask,
                       mr_rrh_distance)

LN2 = np.log(2.0)


@dataclass(frozen=True)
class AllocationMatrix:
    """Transmit powers P (M x 2M+N-2, watts) plus the activity mask."""

    p: np.ndarray
    mask: np.ndarray

    def __post_init__(self):
        if self.p.shape != self.mask.shape:
            raise ValueError("power and mask shapes differ")
        _hold_read_only(self, ("p", "mask"))

    @classmethod
    def from_dense(cls, p: np.ndarray, cfg: ScenarioConfig) -> "AllocationMatrix":
        mask = activity_mask(cfg)
        p = np.where(mask, p, 0.0)
        return cls(p=p, mask=mask)

    @classmethod
    def zeros(cls, cfg: ScenarioConfig) -> "AllocationMatrix":
        mask = activity_mask(cfg)
        return cls(p=np.zeros(mask.shape), mask=mask)

    def column_sums(self) -> np.ndarray:
        return self.p.sum(axis=0)


def _simpson_weights(n: int) -> np.ndarray:
    # weights for n even subintervals on a unit interval, h factored out
    w = np.ones(n + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return w / 3.0


@dataclass(frozen=True)
class GainTable:
    """Per-node linear channel factors for every (relay, segment) pair.

    ``gains[i, j, q]`` is the linear SNR produced by one transmit watt for
    relay i at quadrature node q of segment j (zero where the relay is out
    of the cell).  ``weights[j, q]`` are Simpson weights scaled by the node
    spacing, so a plain weighted sum is the time integral.
    """

    gains: np.ndarray      # (M, S, Q+1) [1/W]
    weights: np.ndarray    # (S, Q+1) [s]
    mask: np.ndarray       # (M, S)
    bandwidth: float
    use_bandwidth: bool

    def __post_init__(self):
        _hold_read_only(self, ("gains", "weights", "mask"))

    @property
    def rate_scale(self) -> float:
        return self.bandwidth if self.use_bandwidth else 1.0

    def total_data(self, p: np.ndarray) -> float:
        """Delivered data [bits] for a dense power matrix (W)."""
        snr = p[:, :, None] * self.gains
        return float(self.rate_scale / LN2 * np.sum(self.weights * np.log1p(snr)))

    def segment_data_matrix(self, p: np.ndarray) -> np.ndarray:
        """Per-entry data D_ij [bits], zero on inactive entries."""
        snr = p[:, :, None] * self.gains
        return self.rate_scale / LN2 * np.sum(self.weights * np.log1p(snr), axis=2)

    def data_derivatives(self, p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """dD_ij/dP_ij [bits/W] and d2D_ij/dP_ij2 [bits/W^2] in one pass.

        Each D_ij depends on P_ij alone, so its second derivative is the
        whole Hessian of the total data (a diagonal, negative: D is
        concave).  Both sums share the ratio g / (1 + P g).
        """
        r = self.gains / (1.0 + p[:, :, None] * self.gains)
        wr = self.weights * r
        scale = self.rate_scale / LN2
        return scale * np.sum(wr, axis=2), -scale * np.sum(wr * r, axis=2)


def build_gain_table(cfg: ScenarioConfig, sched: SegmentSchedule,
                     fading_db: np.ndarray | None = None) -> GainTable:
    """Precompute quadrature nodes, weights, and channel factors.

    The quadrature uses ``cfg.quad_n`` Simpson subintervals per segment.
    ``fading_db``, when given, is a (M, S, Q+1) array of dB attenuations
    applied on top of the deterministic channel at each node.
    """
    n = cfg.quad_n
    m, s = cfg.num_relays, cfg.num_segments
    if sched.num_segments != s:
        raise ValueError("schedule does not match the configuration")

    base_w = _simpson_weights(n)                      # (Q+1,)
    frac = np.arange(n + 1) / n                       # (Q+1,)
    t0 = sched.boundaries[:-1]
    h = sched.durations / n
    nodes = t0[:, None] + frac[None, :] * sched.durations[:, None]   # (S, Q+1)
    weights = h[:, None] * base_w[None, :]

    mask = activity_mask(cfg)
    gains = np.zeros((m, s, n + 1))
    for i in range(1, m + 1):
        d = mr_rrh_distance(cfg, i, nodes)            # (S, Q+1)
        g = radio.snr_linear_per_watt(cfg, d)
        gains[i - 1] = np.where(mask[i - 1][:, None], g, 0.0)
    if fading_db is not None:
        if fading_db.shape != gains.shape:
            raise ValueError("fading trace shape must be (M, S, Q+1)")
        gains = gains * 10.0 ** (-fading_db / 10.0)
        gains = np.where(mask[:, :, None], gains, 0.0)
    return GainTable(gains=gains, weights=weights, mask=mask,
                     bandwidth=cfg.bandwidth, use_bandwidth=cfg.bandwidth_factor)


def sample_fading_trace(cfg: ScenarioConfig, sched: SegmentSchedule,
                        rng: np.random.Generator) -> np.ndarray:
    """Independent Rician dB attenuations at every quadrature node.

    The coherence time (about 0.423 / f_max) is far shorter than the node
    spacing, so iid draws per node sample the ergodic average rate; the
    Monte Carlo spread of the faded data shrinks as ``quad_n`` grows.
    """
    model = radio.FadingModel.from_k_db(cfg.rician_k)
    size = (cfg.num_relays, cfg.num_segments, cfg.quad_n + 1)
    return radio.sample_fading_db(model, rng, size=size)


def total_energy(alloc: AllocationMatrix, sched: SegmentSchedule) -> float:
    """Traversal energy [J]: durations dotted with per-segment power sums."""
    if alloc.p.shape[1] != sched.num_segments:
        raise ValueError("allocation width does not match the schedule")
    return float(np.dot(sched.durations, alloc.column_sums()))


def segment_data(p_ij: float, i: int, j: int, cfg: ScenarioConfig,
                 sched: SegmentSchedule, quad_n: int | None = None,
                 gamma_db: np.ndarray | None = None) -> float:
    """Data [bits] relay i delivers in segment j at constant power p_ij [W].

    Integrates B*log2(1 + SNR(t)) over the segment with composite Simpson
    quadrature; ``gamma_db`` optionally supplies a fading attenuation per
    quadrature node (deterministic channel otherwise).
    """
    from .scenario import active_segments

    lo, hi = active_segments(cfg, i)
    if not lo <= j <= hi:
        raise ValueError(f"relay {i} is not in the cell during segment {j}")
    if p_ij < 0.0:
        raise ValueError("transmit power must be nonnegative")
    n = cfg.quad_n if quad_n is None else quad_n
    t0, t1 = sched.boundaries[j - 1], sched.boundaries[j]
    nodes = t0 + (t1 - t0) * np.arange(n + 1) / n
    g = 0.0 if gamma_db is None else np.asarray(gamma_db, dtype=float)
    gain = radio.snr_linear_per_watt(cfg, mr_rrh_distance(cfg, i, nodes), g)
    w = _simpson_weights(n) * (t1 - t0) / n
    scale = cfg.bandwidth if cfg.bandwidth_factor else 1.0
    return float(scale / LN2 * np.dot(w, np.log1p(p_ij * gain)))


def energy_efficiency(data_bits: float, energy_j: float) -> float:
    if energy_j <= 0.0:
        raise ValueError("energy efficiency undefined for nonpositive energy")
    return data_bits / energy_j


def spectral_efficiency(data_bits: float, cfg: ScenarioConfig,
                        sched: SegmentSchedule) -> float:
    """Data per unit bandwidth per unit traversal time [bits/s/Hz]."""
    return data_bits / (cfg.bandwidth * sched.total_time)


@dataclass(frozen=True)
class MetricsRecord:
    """Headline metrics for one allocation on one scenario."""

    energy_j: float
    data_bits: float
    ee_bits_per_j: float
    se_bits_per_s_per_hz: float
    segment_energy_j: np.ndarray   # (S,)
    segment_data_bits: np.ndarray  # (S,)


def compute_metrics(alloc: AllocationMatrix, cfg: ScenarioConfig,
                    sched: SegmentSchedule, table: GainTable) -> MetricsRecord:
    seg_e = sched.durations * alloc.column_sums()
    seg_d = table.segment_data_matrix(alloc.p).sum(axis=0)
    e = float(seg_e.sum())
    d = float(seg_d.sum())
    return MetricsRecord(
        energy_j=e,
        data_bits=d,
        ee_bits_per_j=energy_efficiency(d, e) if e > 0 else float("nan"),
        se_bits_per_s_per_hz=spectral_efficiency(d, cfg, sched),
        segment_energy_j=seg_e,
        segment_data_bits=seg_d,
    )
