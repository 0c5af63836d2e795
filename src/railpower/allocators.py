"""Baseline power-allocation schemes and the shared validation contract.

Four reference allocators: constant (P_T/M per covered relay), average
(P_T split equally among covered relays), random (uniform point on the
per-segment simplex summing to P_T), and CSI-based (inverse channel-gain
weighting, with each entry's channel read from the scenario's gain table
at its segment's midpoint node).  All build nonnegative compact powers on
the activity mask, column sums within the budget; `validate_alloc` checks
exactly that and returns violations as data rather than raising.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import radio
from .metrics import AllocationMatrix, GainTable, active_entries
from .scenario import ScenarioConfig, SegmentSchedule, activity_mask


def constant_alloc(cfg: ScenarioConfig, sched: SegmentSchedule) -> AllocationMatrix:
    """P_T/M to every covered relay; column sums below P_T while entering/leaving."""
    mask = activity_mask(cfg)
    return AllocationMatrix(np.full(np.count_nonzero(mask), cfg.p_t / cfg.num_relays), mask)


def average_alloc(cfg: ScenarioConfig, sched: SegmentSchedule) -> AllocationMatrix:
    """P_T split equally among the relays covered in each segment."""
    mask = activity_mask(cfg)
    return _split_budget(cfg, mask, np.ones(np.count_nonzero(mask)))


def _split_budget(cfg: ScenarioConfig, mask: np.ndarray, w: np.ndarray) -> AllocationMatrix:
    """P_T split over each segment's active entries in proportion to the
    compact weights w."""
    share = AllocationMatrix(w, mask)
    return AllocationMatrix(cfg.p_t * w / share.column_sums()[share.segment], mask)


def random_alloc(cfg: ScenarioConfig, sched: SegmentSchedule,
                 rng: np.random.Generator) -> AllocationMatrix:
    """Uniformly random split of P_T among the covered relays of each segment.

    Uses exponential spacings: iid Exp(1) draws normalised per column give
    a uniform point on the simplex, scaled so every column sums to P_T.
    """
    mask = activity_mask(cfg)
    # one draw per entry in the compact order: column by column, as a
    # per-column loop would draw them
    return _split_budget(cfg, mask, rng.exponential(1.0, size=np.count_nonzero(mask)))


def csi_alloc(cfg: ScenarioConfig, sched: SegmentSchedule, table: GainTable,
              rng: np.random.Generator | None = None) -> AllocationMatrix:
    """Inverse-gain weighting: worse channels get more power.

    Entry k's channel h_k is its factor in the deterministic gain ``table``
    at its segment's midpoint node Q/2 (``quad_n`` is even); pass an rng to
    scale it by one Rician power factor per (relay, segment).  Then
    P_k = h_k^(-alpha) / sum over segment j's entries of h^(-alpha) * P_T,
    with alpha = ``cfg.csi_alpha``; the link constant in every factor
    cancels in that ratio.
    """
    h = table.gains[:, table.gains.shape[1] // 2]
    if rng is not None:
        model = radio.FadingModel.from_k_db(cfg.rician_k)
        power = radio.sample_fading_power(model, rng, size=table.mask.shape)
        h = h * power.T[table.mask.T]
    return _split_budget(cfg, table.mask, h ** (-cfg.csi_alpha))


@dataclass(frozen=True)
class AllocationViolation:
    kind: str      # "mask" | "negative" | "budget"
    i: int | None  # 1-based relay index, None for column-level violations
    j: int         # 1-based segment index
    value: float

    def __str__(self):
        if self.kind == "budget":
            return f"column {self.j}: sum {self.value:.6g} W exceeds the budget"
        return f"entry ({self.i},{self.j}): {self.kind} power {self.value:.6g} W"


def validate_alloc(alloc: AllocationMatrix, cfg: ScenarioConfig,
                   sched: SegmentSchedule, tol: float | None = None) -> list[AllocationViolation]:
    """Check mask, nonnegativity, and per-segment budget; return violations."""
    tol = 1e-9 * cfg.p_t if tol is None else tol
    expected_mask = activity_mask(cfg)
    if alloc.mask.shape != expected_mask.shape:
        raise ValueError("allocation shape does not match the scenario")
    relay, seg = active_entries(alloc.mask)
    p = alloc.values
    out = []
    for kind, bad in (("mask", (np.abs(p) > 0.0) & ~expected_mask[relay, seg]),
                      ("negative", p < 0.0)):
        for k in np.flatnonzero(bad):
            out.append(AllocationViolation(kind, relay[k] + 1, seg[k] + 1, float(p[k])))
    sums = alloc.column_sums()
    for j in np.flatnonzero(sums > cfg.p_t + tol):
        out.append(AllocationViolation("budget", None, int(j) + 1, float(sums[j])))
    return out
