"""Baseline power-allocation schemes.

Four reference allocators: constant (P_T/M per covered relay), average
(P_T split equally among covered relays), random (uniform point on the
per-segment simplex summing to P_T), and CSI-based (inverse channel-gain
weighting, with each entry's channel read from the scenario's gain table
at its segment's midpoint node).  Each builds nonnegative compact powers
on the config's shared :class:`scenario.EntryLayout`, so no allocation can
power a relay outside the cell, with every column sum within the budget.
"""

from __future__ import annotations

import numpy as np

from . import radio
from .metrics import AllocationMatrix, GainTable
from .scenario import EntryLayout, ScenarioConfig, SegmentSchedule, entry_layout


def constant_alloc(cfg: ScenarioConfig, sched: SegmentSchedule) -> AllocationMatrix:
    """P_T/M to every covered relay; column sums below P_T while entering/leaving."""
    layout = entry_layout(cfg)
    return AllocationMatrix(np.full(layout.segment.size, cfg.p_t / cfg.num_relays), layout)


def average_alloc(cfg: ScenarioConfig, sched: SegmentSchedule) -> AllocationMatrix:
    """P_T split equally among the relays covered in each segment."""
    layout = entry_layout(cfg)
    return _split_budget(cfg, layout, np.ones(layout.segment.size))


def _split_budget(cfg: ScenarioConfig, layout: EntryLayout, w: np.ndarray) -> AllocationMatrix:
    """P_T split over each segment's active entries in proportion to the
    compact weights w."""
    return AllocationMatrix(cfg.p_t * w / layout.column_sums(w)[layout.segment], layout)


def random_alloc(cfg: ScenarioConfig, sched: SegmentSchedule,
                 rng: np.random.Generator) -> AllocationMatrix:
    """Uniformly random split of P_T among the covered relays of each segment.

    Uses exponential spacings: iid Exp(1) draws normalised per column give
    a uniform point on the simplex, scaled so every column sums to P_T.
    """
    layout = entry_layout(cfg)
    # one draw per entry in the compact order: column by column, as a
    # per-column loop would draw them
    return _split_budget(cfg, layout, rng.exponential(1.0, size=layout.segment.size))


def csi_alloc(cfg: ScenarioConfig, sched: SegmentSchedule, table: GainTable,
              rng: np.random.Generator | None = None) -> AllocationMatrix:
    """Inverse-gain weighting: worse channels get more power.

    Entry k's channel h_k is its factor in the deterministic gain ``table``
    at its segment's midpoint node Q/2 (``quad_n`` is even); pass an rng to
    scale it by one Rician power factor per active entry, drawn as a (K,)
    vector in the compact order.  Then
    P_k = h_k^(-alpha) / sum over segment j's entries of h^(-alpha) * P_T,
    with alpha = ``cfg.csi_alpha``; the link constant in every factor
    cancels in that ratio.  Raises ``ValueError`` naming ``csi_alpha`` when
    h^(-alpha) over- or underflows so far that a segment's weight sum is 0
    or not finite.
    """
    layout = table.layout
    h = table.gains[:, table.gains.shape[1] // 2]
    if rng is not None:
        h = h * radio.sample_fading_power(cfg.rician_k, rng, size=layout.segment.size)
    with np.errstate(over="ignore", under="ignore"):
        w = h ** (-cfg.csi_alpha)
    sums = layout.column_sums(w)
    bad = np.count_nonzero(~(np.isfinite(sums) & (sums > 0.0)))
    if bad:
        raise ValueError(f"csi_alpha = {cfg.csi_alpha:g} over- or underflows the CSI weights "
                         f"h**-csi_alpha: {bad} of {sums.size} segments have a weight sum "
                         "of 0 or infinity")
    return _split_budget(cfg, layout, w)
