"""Delivered data, energy, efficiency metrics, and the data derivatives.

Energy is exact: :func:`total_energy` sums each segment's duration times
its power column sum.  Data is the Shannon rate integrated over each
segment with composite Simpson quadrature; the linear channel factor at
every quadrature node depends only on geometry, so it is precomputed once
per scenario into a :class:`GainTable` and all power-dependent
evaluations (data, gradient) become cheap vectorised passes over that
table.  This is what makes the solver's inner loop fast.

Each reported figure has one formula: :func:`total_energy` for energy,
:meth:`GainTable.segment_data_matrix` summed per segment and then over
segments for data, and :func:`energy_efficiency` for EE.
:func:`compute_metrics` combines them; the harness rows and the solver's
returned figures read them from there.

Compact layout: a relay transmits only while it is in the cell, so of the
M x (2M+N-2) (relay, segment) pairs only the K = M(M+N-1) active entries
carry power.  The table, the data passes and the solver hold those K
entries as one vector in column-major order (see :func:`active_entries`),
each segment's relays next to each other; per-segment sums are one
``bincount`` over the entry-to-segment index, which adds a column's
entries in relay order exactly as a row-by-row sum of the dense matrix
does.  :class:`AllocationMatrix` holds its powers in this layout too; its
dense (M, S) matrix is a read-only view, built on demand.  So does a
fading trace (:func:`sample_fading_trace`): one linear power factor per
node of each active entry, which :meth:`GainTable.faded` multiplies into
the gains.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import radio
from .scenario import (ScenarioConfig, SegmentSchedule, _hold_read_only, activity_mask,
                       mr_rrh_distance)

LN2 = np.log(2.0)


def active_entries(mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(relay, segment) indices (0-based) of the active entries of an
    activity mask, in the compact column-major order."""
    seg, relay = np.nonzero(mask.T)
    return relay, seg


@dataclass(frozen=True, eq=False)
class AllocationMatrix:
    """Transmit powers [W] of the active entries of ``mask``, in the order of
    :func:`active_entries`; :attr:`p` is the dense (M, S) matrix P."""

    values: np.ndarray     # (K,) [W]
    mask: np.ndarray       # (M, S)
    segment: np.ndarray = field(init=False, repr=False)   # (K,) entry -> segment

    def __post_init__(self):
        _hold_read_only(self, ("values", "mask"))
        segment = active_entries(self.mask)[1]
        if self.values.shape != segment.shape:
            raise ValueError("values must hold one power per active entry of the mask")
        segment.setflags(write=False)
        object.__setattr__(self, "segment", segment)

    @property
    def p(self) -> np.ndarray:
        """Dense powers (M, S) [W], zero outside the mask; read-only."""
        p = np.zeros(self.mask.shape)
        p.T[self.mask.T] = self.values
        p.setflags(write=False)
        return p

    def column_sums(self) -> np.ndarray:
        return np.bincount(self.segment, weights=self.values, minlength=self.mask.shape[1])


def _simpson_weights(n: int) -> np.ndarray:
    # weights for n even subintervals on a unit interval, h factored out
    w = np.ones(n + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return w / 3.0


@dataclass(frozen=True, eq=False)
class GainTable:
    """Per-node linear channel factors for the K active entries.

    ``gains[k, q]`` is the linear SNR produced by one transmit watt for
    entry k (a relay in a segment where it is in the cell) at quadrature
    node q of that segment.  ``weights[k, q]`` are the segment's Simpson
    weights scaled by the node spacing, so a plain weighted sum is the
    time integral.  Entries run in the compact column-major order of
    :func:`active_entries` over ``mask``; ``segment[k]`` is entry k's
    segment, derived from the mask.  Every power argument is a compact
    vector p (K,) in watts; :class:`optimizer.Problem` holds a copy with
    gains times P_T and weights over D_min, which takes p / P_T and returns
    data over D_min.
    """

    gains: np.ndarray      # (K, Q+1) [1/W]
    weights: np.ndarray    # (K, Q+1) [s]
    mask: np.ndarray       # (M, S)
    bandwidth: float
    segment: np.ndarray = field(init=False, repr=False)   # (K,) entry -> segment

    def __post_init__(self):
        _hold_read_only(self, ("gains", "weights", "mask"))
        segment = active_entries(self.mask)[1]
        if self.gains.shape[0] != segment.size or self.weights.shape != self.gains.shape:
            raise ValueError("gains and weights must be (K, Q+1) over the active entries")
        segment.setflags(write=False)
        object.__setattr__(self, "segment", segment)

    def column_sums(self, v: np.ndarray) -> np.ndarray:
        """Per-segment sums (S,) of compact entry values (K,)."""
        return np.bincount(self.segment, weights=v, minlength=self.mask.shape[1])

    def snr(self, p: np.ndarray) -> np.ndarray:
        """Linear SNR (K, Q+1) at every node for compact entry powers p (W);
        a data or derivative pass at p may be handed it instead of forming it."""
        return p[:, None] * self.gains

    def _log_rate(self, p: np.ndarray, snr: np.ndarray | None = None) -> np.ndarray:
        # ln(1 + SNR) at every node of every entry: the one data kernel
        return np.log1p(self.snr(p) if snr is None else snr)

    def total_data(self, p: np.ndarray, snr: np.ndarray | None = None) -> float:
        """Delivered data [bits] for compact entry powers p (W); ``snr`` is
        :meth:`snr` of p when the caller has it."""
        return float(self.bandwidth / LN2 * np.vdot(self.weights, self._log_rate(p, snr)))

    def segment_data_matrix(self, p: np.ndarray) -> np.ndarray:
        """Per-entry data D_k [bits] (K,) for compact entry powers p (W)."""
        return self.bandwidth / LN2 * np.add.reduce(self.weights * self._log_rate(p), axis=1)

    def data_derivatives(self, p: np.ndarray,
                         snr: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
        """dD_k/dP_k [bits/W] and d2D_k/dP_k2 [bits/W^2] in one pass.

        Each D_k depends on P_k alone, so its second derivative is the
        whole Hessian of the total data (a diagonal, negative: D is
        concave).  Both sums share the ratio g / (1 + P g); ``snr`` is
        :meth:`snr` of p (the P g product) when the caller has it.
        """
        r = self.gains / (1.0 + (self.snr(p) if snr is None else snr))
        wr = self.weights * r
        scale = self.bandwidth / LN2
        return scale * np.add.reduce(wr, axis=1), -scale * np.add.reduce(wr * r, axis=1)

    def faded(self, power: np.ndarray) -> "GainTable":
        """This table under a (K, Q+1) trace of linear fading power factors.

        Entry k's factor at node q multiplies its gain there; the geometry
        is not recomputed.
        """
        if power.shape != self.gains.shape:
            raise ValueError("fading trace shape must be (K, Q+1)")
        return replace(self, gains=self.gains * power)


def build_gain_table(cfg: ScenarioConfig, sched: SegmentSchedule) -> GainTable:
    """Precompute quadrature weights and channel factors at the active entries.

    The quadrature uses ``cfg.quad_n`` Simpson subintervals per segment;
    the link is evaluated once, over the nodes of every active entry
    (segments where the relay is in the cell).
    """
    n = cfg.quad_n
    if sched.num_segments != cfg.num_segments:
        raise ValueError("schedule does not match the configuration")

    base_w = _simpson_weights(n)                      # (Q+1,)
    frac = np.arange(n + 1) / n                       # (Q+1,)
    t0 = sched.boundaries[:-1]
    h = sched.durations / n
    nodes = t0[:, None] + frac[None, :] * sched.durations[:, None]   # (S, Q+1)

    mask = activity_mask(cfg)
    relay, seg = active_entries(mask)
    gains = radio.snr_linear_per_watt(cfg, mr_rrh_distance(cfg, relay[:, None] + 1, nodes[seg]))
    weights = h[seg, None] * base_w[None, :]
    return GainTable(gains=gains, weights=weights, mask=mask, bandwidth=cfg.bandwidth)


def sample_fading_trace(cfg: ScenarioConfig, sched: SegmentSchedule,
                        rng: np.random.Generator) -> np.ndarray:
    """Independent Rician power factors (K, Q+1) at the active entries' nodes.

    The coherence time (about 0.423 / f_max) is far shorter than the node
    spacing, so iid draws per node sample the ergodic average rate; the
    Monte Carlo spread of the faded data shrinks as ``quad_n`` grows.
    Every node of every (relay, segment) pair is drawn, as
    :func:`radio.sample_fading_power` of size (M, S, Q+1) draws them, and
    the active entries are taken in the compact order before the factors
    are formed.
    """
    model = radio.FadingModel.from_k_db(cfg.rician_k)
    re, im = radio._standard_pairs(rng, (cfg.num_relays, cfg.num_segments, cfg.quad_n + 1))
    active = activity_mask(cfg).T
    return radio._rician_power(model, re.swapaxes(0, 1)[active], im.swapaxes(0, 1)[active])


def total_energy(alloc: AllocationMatrix, sched: SegmentSchedule) -> float:
    """Traversal energy [J]: the sum over segments of duration times the
    segment's power column sum."""
    if alloc.mask.shape[1] != sched.num_segments:
        raise ValueError("allocation width does not match the schedule")
    return _energy(sched, alloc.column_sums())


def _energy(sched: SegmentSchedule, column_sums: np.ndarray) -> float:
    # the one energy reduction, shared with the solver's per-cycle record
    return float((sched.durations * column_sums).sum())


def energy_efficiency(data_bits: float, energy_j: float) -> float:
    """Data over energy [bits/J] where the energy is positive, else NaN."""
    return data_bits / energy_j if energy_j > 0 else float("nan")


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


def compute_metrics(alloc: AllocationMatrix, cfg: ScenarioConfig,
                    sched: SegmentSchedule, table: GainTable) -> MetricsRecord:
    """Energy, data, EE and SE of ``alloc`` on ``table``.

    Data is summed per entry, then per segment, then over segments, so it
    is bit-identical wherever it is reported.
    """
    e = total_energy(alloc, sched)
    d = float(table.column_sums(table.segment_data_matrix(alloc.values)).sum())
    return MetricsRecord(
        energy_j=e,
        data_bits=d,
        ee_bits_per_j=energy_efficiency(d, e),
        se_bits_per_s_per_hz=spectral_efficiency(d, cfg, sched),
    )
