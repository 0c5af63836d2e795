"""Baseline power-allocation schemes and the shared validation contract.

Four reference allocators: constant (P_T/M per covered relay), average
(P_T split equally among covered relays), random (uniform point on the
per-segment simplex summing to P_T), and CSI-based (inverse channel-gain
weighting).  All produce mask-valid nonnegative matrices whose column
sums never exceed the budget; `validate_alloc` checks exactly that and
returns violations as data rather than raising.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import radio
from .metrics import AllocationMatrix, active_entries
from .scenario import ScenarioConfig, SegmentSchedule, activity_mask, mr_rrh_distance


def constant_alloc(cfg: ScenarioConfig, sched: SegmentSchedule) -> AllocationMatrix:
    """P_T/M to every covered relay; column sums below P_T while entering/leaving."""
    mask = activity_mask(cfg)
    p = np.where(mask, cfg.p_t / cfg.num_relays, 0.0)
    return AllocationMatrix(p=p, mask=mask)


def average_alloc(cfg: ScenarioConfig, sched: SegmentSchedule) -> AllocationMatrix:
    """P_T split equally among the relays covered in each segment."""
    mask = activity_mask(cfg)
    counts = mask.sum(axis=0)
    p = np.where(mask, cfg.p_t / counts[None, :], 0.0)
    return AllocationMatrix(p=p, mask=mask)


def _split_budget(cfg: ScenarioConfig, mask: np.ndarray, seg: np.ndarray,
                  w: np.ndarray) -> AllocationMatrix:
    """P_T split over each segment's active entries in proportion to the
    compact weights w."""
    sums = np.bincount(seg, weights=w, minlength=cfg.num_segments)
    return AllocationMatrix.from_entries(cfg.p_t * w / sums[seg], mask)


def random_alloc(cfg: ScenarioConfig, sched: SegmentSchedule,
                 rng: np.random.Generator) -> AllocationMatrix:
    """Uniformly random split of P_T among the covered relays of each segment.

    Uses exponential spacings: iid Exp(1) draws normalised per column give
    a uniform point on the simplex, scaled so every column sums to P_T.
    """
    mask = activity_mask(cfg)
    seg = active_entries(mask)[1]
    # one draw per entry in the compact order: column by column, as a
    # per-column loop would draw them
    w = rng.exponential(1.0, size=seg.size)
    return _split_budget(cfg, mask, seg, w)


@dataclass(frozen=True)
class ChannelSnapshot:
    """Linear channel power gains |h_ij|^2 at each segment's temporal midpoint."""

    h2: np.ndarray   # (M, S), zero on inactive entries

    @classmethod
    def from_scenario(cls, cfg: ScenarioConfig, sched: SegmentSchedule,
                      rng: np.random.Generator | None = None) -> "ChannelSnapshot":
        """Deterministic midpoint gains; pass an rng to overlay Rician fading."""
        mask = activity_mask(cfg)
        mid = 0.5 * (sched.boundaries[:-1] + sched.boundaries[1:])
        h2 = np.zeros(mask.shape)
        for i in range(1, cfg.num_relays + 1):
            d = mr_rrh_distance(cfg, i, mid)
            h_db = -radio.path_loss(d, cfg.wavelength, cfg.pathloss_exp) - cfg.shadowing
            h2[i - 1] = 10.0 ** (h_db / 10.0)
        if rng is not None:
            model = radio.FadingModel.from_k_db(cfg.rician_k)
            gamma = radio.sample_fading_db(model, rng, size=h2.shape)
            h2 = h2 * 10.0 ** (-gamma / 10.0)
        return cls(h2=np.where(mask, h2, 0.0))


def csi_alloc(cfg: ScenarioConfig, sched: SegmentSchedule,
              snap: ChannelSnapshot, alpha: float | None = None) -> AllocationMatrix:
    """Inverse-gain weighting: worse channels get more power.

    P_ij = (h2_ij)^(-alpha) / sum_i' (h2_i'j)^(-alpha) * P_T over the
    relays covered in segment j.
    """
    alpha = cfg.csi_alpha if alpha is None else alpha
    if alpha <= 0.0:
        raise ValueError("alpha must be positive")
    mask = activity_mask(cfg)
    if snap.h2.shape != mask.shape:
        raise ValueError("snapshot shape does not match the scenario")
    if np.any((snap.h2 <= 0.0) & mask):
        raise ValueError("zero channel gain on an active entry")
    relay, seg = active_entries(mask)
    return _split_budget(cfg, mask, seg, snap.h2[relay, seg] ** (-alpha))


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
    out = []
    off_mask = (np.abs(alloc.p) > 0.0) & ~expected_mask
    for i, j in zip(*np.nonzero(off_mask)):
        out.append(AllocationViolation("mask", i + 1, j + 1, float(alloc.p[i, j])))
    negative = alloc.p < 0.0
    for i, j in zip(*np.nonzero(negative)):
        out.append(AllocationViolation("negative", i + 1, j + 1, float(alloc.p[i, j])))
    sums = alloc.column_sums()
    for j in np.flatnonzero(sums > cfg.p_t + tol):
        out.append(AllocationViolation("budget", None, int(j) + 1, float(sums[j])))
    return out
