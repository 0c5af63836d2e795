"""Delivered data, energy, efficiency metrics, and the data derivatives.

Energy is exact: :func:`total_energy` sums each segment's duration times
its power column sum.  Data is the Shannon rate integrated over each
segment with composite Simpson quadrature; the linear channel factor at
every quadrature node depends only on geometry, so it is precomputed once
per scenario into a :class:`GainTable` and all power-dependent
evaluations (data, gradient) become cheap vectorised passes over that
table.  This is what makes the solver's inner loop fast.

Each reported figure of an allocation has one formula: :func:`total_energy`
for energy, :meth:`GainTable.total_data` for data, :func:`energy_efficiency`
for EE and :func:`spectral_efficiency` for SE.  :func:`compute_metrics`
returns the energy and the data, which the harness rows and the solver's
returned figures read; a harness row forms its EE and SE from them, and
:func:`optimizer.data_floor` is rho times the same data reduction of the
average allocation.

Compact layout: a relay transmits only while it is in the cell, so of the
M x (2M+N-2) (relay, segment) pairs only the K = M(M+N-1) active entries
carry power.  The table, the data passes and the solver hold those K
entries as one vector in the column-major order of the config's shared
:class:`scenario.EntryLayout`, each segment's relays next to each other;
per-segment sums are the layout's :meth:`~scenario.EntryLayout.column_sums`.
Both :class:`GainTable` and :class:`AllocationMatrix` hold the layout
object itself, with no index of their own; an allocation's dense (M, S)
matrix is a read-only view, built on demand.  A fading trace
(:func:`sample_fading_trace`) is compact too: one linear power factor per
node of each active entry, which :meth:`GainTable.faded` multiplies into
the gains.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import radio
from .scenario import (EntryLayout, ScenarioConfig, SegmentSchedule, _frozen,
                       _hold_read_only, entry_layout, mr_rrh_distance)

LN2 = np.log(2.0)


@dataclass(frozen=True, eq=False)
class AllocationMatrix:
    """Transmit powers [W] of the active entries of ``layout``, in its
    compact order; :attr:`p` is the dense (M, S) matrix P."""

    values: np.ndarray     # (K,) [W]
    layout: EntryLayout

    def __post_init__(self):
        _hold_read_only(self, ("values",))
        if self.values.shape != self.layout.segment.shape:
            raise ValueError("values must hold one power per active entry of the layout")

    @property
    def p(self) -> np.ndarray:
        """Dense powers (M, S) [W], zero outside the mask; read-only."""
        return self.layout.dense(self.values)

    def column_sums(self) -> np.ndarray:
        return self.layout.column_sums(self.values)


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
    time integral.  Entries run in the compact order of ``layout``.  Every
    power argument is a compact vector p (K,) in watts;
    :class:`optimizer.Problem` holds a copy on the same layout with gains
    times P_T and weights over D_min, which takes p / P_T and returns data
    over D_min.
    """

    gains: np.ndarray      # (K, Q+1) [1/W]
    weights: np.ndarray    # (K, Q+1) [s]
    layout: EntryLayout
    bandwidth: float

    def __post_init__(self):
        _hold_read_only(self, ("gains", "weights"))
        if (self.gains.shape[0] != self.layout.segment.size
                or self.weights.shape != self.gains.shape):
            raise ValueError("gains and weights must be (K, Q+1) over the active entries")

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
        return _data(self, self._log_rate(p, snr))

    def segment_data_matrix(self, p: np.ndarray) -> np.ndarray:
        """Per-entry data D_k [bits] (K,) for compact entry powers p (W); a
        total is :meth:`total_data`, not the sum of these."""
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
        return replace(self, gains=_frozen(self.gains * power))


def _data(table: GainTable, log_rate: np.ndarray) -> float:
    # the one data reduction, shared with the solver's feasibility test on a
    # stored log-rate
    return float(table.bandwidth / LN2 * np.vdot(table.weights, log_rate))


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

    layout = entry_layout(cfg)
    relay, seg = layout.relay, layout.segment
    gains = radio.snr_linear_per_watt(cfg, mr_rrh_distance(cfg, relay[:, None] + 1, nodes[seg]))
    weights = h[seg, None] * base_w[None, :]
    return GainTable(gains=_frozen(gains), weights=_frozen(weights), layout=layout,
                     bandwidth=cfg.bandwidth)


def sample_fading_trace(cfg: ScenarioConfig, rng: np.random.Generator) -> np.ndarray:
    """Independent Rician power factors (K, Q+1) at the active entries' nodes.

    The coherence time (about 0.423 / f_max) is far shorter than the node
    spacing, so iid draws per node sample the ergodic average rate; the
    Monte Carlo spread of the faded data shrinks as ``quad_n`` grows.
    Only the active entries are drawn: the trace is
    :func:`radio.sample_fading_power` of size (K, Q+1), rows in the compact
    order.
    """
    return radio.sample_fading_power(cfg.rician_k, rng,
                                     (entry_layout(cfg).segment.size, cfg.quad_n + 1))


def total_energy(alloc: AllocationMatrix, sched: SegmentSchedule) -> float:
    """Traversal energy [J]: the sum over segments of duration times the
    segment's power column sum."""
    if alloc.layout.mask.shape[1] != sched.num_segments:
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
    """Energy and delivered data of one allocation on one scenario."""

    energy_j: float
    data_bits: float


def compute_metrics(alloc: AllocationMatrix, sched: SegmentSchedule,
                    table: GainTable) -> MetricsRecord:
    """Energy and data of ``alloc`` on ``table``.

    Data is :meth:`GainTable.total_data`, one ``vdot`` over every node:
    the reduction the data floor and the solver read, so every figure of
    it agrees to the bit.
    """
    return MetricsRecord(energy_j=total_energy(alloc, sched),
                         data_bits=table.total_data(alloc.values))
