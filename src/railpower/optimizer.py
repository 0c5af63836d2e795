"""Energy-minimising power allocation via the method of multipliers.

The problem: choose the transmit power matrix P to minimise traversal
energy subject to a delivered-data floor (D >= D_min, binding at the
optimum and therefore driven as the equality D = D_min) and a
per-segment power budget (column sums of P at most P_T).  The merit
function is the augmented Lagrangian

    phi(P, lam, sigma) = E(P) - lam . h(P) + sigma * h(P) . h(P)

minimised by projected Newton descent in an inner loop.  Each cycle of
:func:`solve` runs the inner descent, records the cycle, and stops once
||h_now||_inf <= eps; otherwise the multipliers are corrected or the
penalty factor grown according to how fast the residual norm shrinks:

  (a) ||h_now||_inf >= ||h_prev||_inf        -> grow sigma, keep lam
  (b) sigma grew last cycle, or the norm fell
      below a quarter of the previous one    -> lam <- lam - 2*sigma*h
  (c) otherwise                              -> grow sigma, keep lam

Inside the solver, powers are scaled by P_T and data by D_min so the
residual components are comparable under the max norm; :func:`solve`
converts the iterate once at entry and once at return, and the cycles
hand on the scaled iterate with its residuals and its data derivative
pair (D', D''), which the next cycle's first step would otherwise
recompute at the same x.  Within a cycle, one merit evaluation takes the
column sums once, for the residuals and the energy, and the accepted
line-search candidate's SNR product (:meth:`GainTable.snr`) feeds its
derivative pass, so a solve makes one derivative pass per inner step
plus one.  The energy and data it returns are
:func:`metrics.compute_metrics` of the returned allocation, the same
figures a harness row writes for it.  A cycle's recorded energy
is :meth:`Problem.energy_j`, the reduction of :func:`metrics.total_energy`
applied to the cycle's powers, so only the returned iterate is built into
an :class:`AllocationMatrix`.  :class:`Problem` holds
the gain table in the same units (gains times P_T, weights over D_min),
built once, so no data or derivative pass converts units.  The iterate
is the compact vector x (K,) of the K = M(M+N-1) entries where a relay is
in the cell, in the column-major order of :mod:`metrics` (each segment's
relays next to each other); column sums are one ``bincount`` over the
entry-to-segment index, and no inactive entry is stored, computed or
masked out.
:class:`Problem` over a :class:`GainTable` is the one representation of
the merit function, its derivatives and the residuals.  The two solver
settings (tolerance and cycle cap) live in one frozen
:class:`SolverOptions`, which owns their defaults and validation; the
method's constants (initial penalty :data:`SIGMA0`, growth factor
:data:`GROWTH`, per-cycle step guard :data:`INNER_CAP`) are fixed, like
rule (b)'s ratio of 1/4.  :class:`MultiplierState` holds only the
multiplier iterate.

Budget handling: budget rows are one-sided caps, their residual clipped
at zero below the budget.  The literal equality form would pin the
energy at P_T times the traversal time and erase the optimisation gain.
The KKT residual refers to the same inequality-form optimality system.

Inner step: projected Newton on a model of the merit Hessian (Bertsekas,
"Projected Newton methods for optimization problems with simple
constraints", SIAM J. Control Optim. 20(2), 1982; for the
bound-constrained augmented Lagrangian, Nocedal & Wright, Numerical
Optimization, 2006, sec. 17.4).  Each D_k depends on x_k alone, so with
c = lam_0 - 2 sigma h0 the merit gradient is g_k = t_k - c D'_k, where
t_k is entry k's normalised segment time plus, when its column j is
capped, 2 sigma h_j - lam_j.  The model Hessian is

    H = diag(a) + 2 sigma grad h0 grad h0^T
        + 2 sigma * sum over capped columns j of 1_j 1_j^T,
    a_k = |D''_k| t_k / D'_k,

with the cap term in t_k clamped at zero, so a > 0 for every c.  a_k is
the Newton diagonal of entry k's stationarity equation written as
1/D'_k(x) = c / t_k: it equals the merit Hessian's c |D''_k| wherever
t_k = c D'_k, so near a solution the step is Newton's and keeps its
quadratic rate, and it is exact in one step for an entry with a single
quadrature node.  Newton on D'_k itself creeps where a step has clipped
entries to zero: the log-rate curvature there lets each later step only
about double them, and at c <= 0 (at rho = 1 the first cycle starts at
lam = 0 on the floor, h0 = 0) it has no positive curvature at all.
Entries with x <= delta and a positive merit slope,
delta = min(1e-3, ||x - max(x - g, 0)||), form the epsilon-active set
and take the diagonally scaled step -g_i / H_ii toward the bound.  The
free entries solve H_FF d = -g_F: Sherman-Morrison inverts each capped
column's block (diagonal plus 2 sigma 1 1^T), and one Woodbury rank-one
update adds the data term, all in O(K) with no dense solve.  The
stepsize halves from 1 until phi decreases (Nocedal & Wright, sec. 3.1),
and the loop stops on the projected gradient norm.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .allocators import average_alloc
from .metrics import AllocationMatrix, GainTable, _energy, build_gain_table, compute_metrics
from .scenario import ScenarioConfig, SegmentSchedule, segment_boundaries


class InfeasibleDataFloor(ValueError):
    """The requested data floor exceeds what the full budget can deliver."""


_log = logging.getLogger(__name__)

SIGMA0 = 1.0       # initial penalty factor
GROWTH = 4.0       # penalty growth factor of rules (a) and (c)
INNER_CAP = 5000   # inner descent steps per cycle; a Newton solve takes tens in all


def _linf(v) -> float:
    return float(np.max(np.abs(v)))


@dataclass(frozen=True)
class SolverOptions:
    """Solver settings: the one place their defaults are written."""

    eps: float = 1e-4        # tolerance on the scaled residual max norm
    n_max: int = 100         # outer cycle cap, >= 0

    def __post_init__(self):
        if self.eps <= 0 or self.n_max < 0:
            raise ValueError("require eps > 0, n_max >= 0")


@dataclass(frozen=True, eq=False)
class MultiplierState:
    """The outer iterate: multipliers, penalty factor, and the case (b) flag."""

    lam: np.ndarray          # (2M+N-1,): data row first, then budget rows
    sigma: float             # penalty factor
    sigma_grew: bool = False # bookkeeping for case (b); first cycle counts as flat

    @classmethod
    def initial(cls, cfg: ScenarioConfig) -> "MultiplierState":
        lam = np.zeros(2 * cfg.num_relays + cfg.num_bins - 1)
        return cls(lam=lam, sigma=SIGMA0)


def data_floor(cfg: ScenarioConfig, sched: SegmentSchedule, table: GainTable) -> float:
    """Data floor [bits]: explicit override, else rho times the average scheme's data."""
    if cfg.d_min_bits is not None:
        return float(cfg.d_min_bits)
    return cfg.rho * table.total_data(average_alloc(cfg, sched).values)


class Problem:
    """Scaled view of one scenario's optimisation problem.

    Powers are handled as x = P / P_T over the compact entries (K,) and
    data as D / D_min.  ``table`` is the gain table in those units (gains
    times P_T, weights over D_min), built once, so its data and derivative
    passes take x and return D / D_min and its derivatives in x.  The merit
    function value, gradient, and residuals are all expressed in these
    scaled units so a single tolerance applies across constraint rows.
    """

    def __init__(self, cfg: ScenarioConfig, sched: SegmentSchedule, d_min: float,
                 table: GainTable):
        if d_min <= 0.0:
            raise ValueError("the data floor must be positive")
        self.d_min = d_min
        self.p_t = cfg.p_t
        self.sched = sched
        self.table = replace(table, gains=table.gains * cfg.p_t,
                             weights=table.weights / d_min)
        self.segment = table.segment
        self.t_norm = sched.durations / sched.total_time
        self._t_entry = self.t_norm[self.segment]

    def to_scaled(self, alloc: AllocationMatrix) -> np.ndarray:
        return alloc.values / self.p_t

    def to_physical(self, x: np.ndarray) -> AllocationMatrix:
        return AllocationMatrix(x * self.p_t, self.table.mask)

    def energy_j(self, x: np.ndarray) -> float:
        """Energy [J] of x: :func:`metrics.total_energy` of ``to_physical(x)``,
        bit for bit, without building the allocation."""
        return _energy(self.sched, self.table.column_sums(x * self.p_t))

    def residuals_scaled(self, x: np.ndarray, snr: np.ndarray | None = None,
                         cols: np.ndarray | None = None) -> np.ndarray:
        """Residuals at x; ``snr`` and ``cols`` pass in the table's
        :meth:`GainTable.snr` and column sums at x."""
        if cols is None:
            cols = self.table.column_sums(x)
        h = np.empty(self.t_norm.size + 1)
        h[0] = self.table.total_data(x, snr) - 1.0
        h[1:] = np.maximum(cols - 1.0, 0.0)
        return h

    def phi(self, x: np.ndarray, lam: np.ndarray, sigma: float,
            h: np.ndarray | None = None, cols: np.ndarray | None = None) -> float:
        """Merit value; ``h`` and ``cols`` pass in the residuals and column
        sums at x, so one evaluation takes the column sums once."""
        if cols is None:
            cols = self.table.column_sums(x)
        if h is None:
            h = self.residuals_scaled(x, cols=cols)
        return float(self.t_norm @ cols) - float(lam @ h) + sigma * float(h @ h)

    def grad_phi(self, x: np.ndarray, lam: np.ndarray, sigma: float,
                 h: np.ndarray | None = None, dd: np.ndarray | None = None) -> np.ndarray:
        """Merit gradient; ``h`` and ``dd`` pass in residuals and data gradient at x."""
        if h is None:
            h = self.residuals_scaled(x)
        if dd is None:
            dd = self.table.data_derivatives(x)[0]
        g = self._t_entry + (-lam[0] + 2.0 * sigma * h[0]) * dd
        capped = h[1:] > 0.0
        if capped.any():   # below the cap the clipped budget rows contribute nothing
            g += np.where(capped, -lam[1:] + 2.0 * sigma * h[1:], 0.0)[self.segment]
        return g

    def newton_direction(self, x: np.ndarray, g: np.ndarray, h: np.ndarray,
                         dd: np.ndarray, dd2: np.ndarray, lam: np.ndarray,
                         sigma: float) -> np.ndarray:
        """Projected-Newton direction for the merit gradient ``g`` at x.

        ``h``, ``dd`` and ``dd2`` are the residuals and the scaled data
        derivatives at x.  The model Hessian, its diagonal and the
        epsilon-active set are set out in the module docstring.
        """
        # x - max(x - g, 0) = min(x, g)
        step = np.minimum(x, g)
        delta = min(1e-3, math.sqrt(float(step @ step)))
        active = (x <= delta) & (g > 0.0)
        two_s = 2.0 * sigma
        capped = h[1:] > 0.0
        seg = self.segment
        any_capped = capped.any()
        t = self._t_entry
        if any_capped:
            # a capped column's multiplier term, clamped so t stays positive
            t = t + np.where(capped, np.maximum(two_s * h[1:] - lam[1:], 0.0), 0.0)[seg]
        a = -dd2 * t / dd
        inv_a = np.where(active, 0.0, 1.0 / a)
        bg, bu = inv_a * g, inv_a * dd
        if any_capped:
            # Sherman-Morrison per capped column on g and on the data gradient
            colsum = self.table.column_sums
            col = np.where(capped, two_s / (1.0 + two_s * colsum(inv_a)), 0.0)
            bg -= inv_a * (colsum(bg) * col)[seg]
            bu -= inv_a * (colsum(bu) * col)[seg]
        # Woodbury rank-one update for 2 sigma dd dd^T; bg, bu are zero on the active set
        d_free = bg - two_s * float(dd @ bg) / (1.0 + two_s * float(dd @ bu)) * bu
        if not active.any():
            return -d_free
        diag = a + two_s * (dd * dd + capped[seg])
        return -np.where(active, g / diag, d_free)


@dataclass(frozen=True)
class InnerInfo:
    steps: int
    reason: str            # "gradient" | "stall" | "cap"
    phi_start: float
    phi_end: float
    grad_norm: float
    merit_evals: int       # Problem.phi evaluations, the start point included


def inner_descent(problem: Problem, x: np.ndarray, h: np.ndarray, lam: np.ndarray, sigma: float,
                  options: SolverOptions, derivs: tuple[np.ndarray, np.ndarray] | None = None
                  ) -> tuple[np.ndarray, np.ndarray, tuple | None, InnerInfo]:
    """Minimise phi(., lam, sigma) by projected Newton descent from x.

    Takes a scaled iterate x >= 0 with its residuals h and, when known,
    ``derivs``, the data derivative pair (D', D'') at x; returns the final
    x, h and pair (``None`` when the loop ended on the step cap, which
    leaves the last iterate's pair uncomputed).  Steps along
    :meth:`Problem.newton_direction`, clipping negative entries to zero;
    the stepsize halves from 1 until phi decreases.  The accepted
    candidate's residuals are kept, so each merit evaluation is one data
    pass, and so is its SNR product, which feeds the next derivative pass:
    a loop makes one derivative pass per step, plus one unless ``derivs``
    was passed in.  Stops once the projected gradient norm falls below
    ``options.eps``, on a backtracking stall, or at the step cap
    :data:`INNER_CAP`; the last two flag the result rather than raising.
    """
    table = problem.table
    phi = problem.phi(x, lam, sigma, h)
    phi_start, evals = phi, 1
    steps = 0
    reason, gnorm = "cap", math.inf
    snr = None    # the SNR product at x, once a line search has formed it

    while steps < INNER_CAP:
        if derivs is None:
            derivs = table.data_derivatives(x, snr)
        dd, dd2 = derivs
        g = problem.grad_phi(x, lam, sigma, h, dd)
        # projected gradient: no descent below zero at the bound
        pg = np.where((x <= 0.0) & (g > 0.0), 0.0, g)
        gnorm = math.sqrt(float(pg @ pg))
        if gnorm <= options.eps:
            reason = "gradient"
            break
        d = problem.newton_direction(x, g, h, dd, dd2, lam, sigma)
        x_new, alpha = None, 1.0
        for _ in range(60):
            x_try = np.maximum(x + alpha * d, 0.0)
            snr_try, cols = table.snr(x_try), table.column_sums(x_try)
            h_try = problem.residuals_scaled(x_try, snr_try, cols)
            phi_try = problem.phi(x_try, lam, sigma, h_try, cols)
            evals += 1
            if phi_try < phi:
                x_new, h_new, phi_new = x_try, h_try, phi_try
                break
            alpha *= 0.5
        if x_new is None:                  # cannot decrease: numerically stationary
            reason = "stall"
            break
        x, h, phi, snr, derivs = x_new, h_new, phi_new, snr_try, None
        steps += 1

    return x, h, derivs, InnerInfo(
        steps=steps, reason=reason,
        phi_start=phi_start, phi_end=phi, grad_norm=gnorm, merit_evals=evals,
    )


def update_state(state: MultiplierState, h_now: np.ndarray, prev_inf: float) -> MultiplierState:
    """Apply the between-cycle penalty/multiplier correction rules (a)-(c).

    ``prev_inf`` is the previous cycle's residual max norm, ``math.inf``
    on the first cycle, which then counts as a multiplier-correction
    cycle (the penalty factor did not grow before it and any finite
    residual beats an undefined predecessor).  The stop test is
    :func:`solve`'s, so ``h_now`` is never within tolerance here.
    """
    hinf = _linf(h_now)
    if hinf >= prev_inf:                                        # (a)
        return replace(state, sigma=GROWTH * state.sigma, sigma_grew=True)
    if state.sigma_grew or hinf <= 0.25 * prev_inf:             # (b)
        return replace(state, lam=state.lam - 2.0 * state.sigma * h_now,
                       sigma_grew=False)
    return replace(state, sigma=GROWTH * state.sigma, sigma_grew=True)  # (c)


@dataclass(frozen=True)
class CycleRecord:
    cycle: int
    h_inf: float
    sigma: float
    phi: float
    energy_j: float
    inner_steps: int
    inner_reason: str
    merit_evals: int


@dataclass(frozen=True, eq=False)
class SolveResult:
    converged: bool
    cycles: int
    d_min: float
    energy_j: float
    data_bits: float
    h_inf: float                   # scaled residual max norm at the solution
    lam_hat: np.ndarray            # first-order multiplier estimate lam - 2*sigma*h
    sigma: float
    history: tuple[CycleRecord, ...] = field(repr=False, default=())


def solve(cfg: ScenarioConfig, sched: SegmentSchedule | None = None,
          warm: tuple[AllocationMatrix, SolveResult] | None = None,
          d_min: float | None = None, options: SolverOptions = SolverOptions(),
          table: GainTable | None = None) -> tuple[AllocationMatrix, SolveResult]:
    """Run the full multiplier-penalty loop and return the best allocation.

    A cold solve starts from the average allocation with lam = 0 and
    sigma = :data:`SIGMA0`.  ``warm`` is a previous solve's
    ``(allocation, result)`` on the same relay layout, typically at a
    nearby floor; the loop then starts from that allocation, its
    ``lam_hat`` and its ``sigma``, with the case (b) flag cleared (the
    method-of-multipliers continuation; Bertsekas, Constrained
    Optimization and Lagrange Multiplier Methods, 1982, sec. 2.2).  The
    average allocation's data pass is the feasibility test either way,
    and it runs first.  A warm allocation whose mask differs from the
    table's, or a ``lam_hat`` without 2M+N-1 entries, raises
    ``ValueError``.  The start point is scaled and clipped to x >= 0
    once; the cycles carry x and its residuals, and the best x is
    converted to watts at return.  The result's ``energy_j`` and
    ``data_bits`` are :func:`metrics.compute_metrics` of the returned
    allocation on ``table``, the figures a harness row reports for it.
    Raises ``ValueError`` for a floor that is not positive and
    :class:`InfeasibleDataFloor` when the floor exceeds the data the
    full-budget average allocation can deliver.  A run that exhausts the
    outer cycle budget returns its best iterate flagged as non-converged.
    When the inner loop that produced the returned iterate stopped on
    ``cap`` or ``stall``, a warning goes to the ``railpower.optimizer`` logger.
    """
    if sched is None:
        sched = segment_boundaries(cfg)
    if table is None:
        table = build_gain_table(cfg, sched)
    if d_min is None:
        d_min = data_floor(cfg, sched, table)
    state = MultiplierState.initial(cfg)

    problem = Problem(cfg, sched, d_min, table)
    x = problem.to_scaled(average_alloc(cfg, sched))
    h = problem.residuals_scaled(x)
    if h[0] < -1e-12:
        raise InfeasibleDataFloor(
            f"data floor {d_min:.6g} bits exceeds the {(h[0] + 1.0) * d_min:.6g} bits "
            "deliverable at the full per-segment budget"
        )
    if warm is not None:
        warm_alloc, warm_result = warm
        if not np.array_equal(warm_alloc.mask, table.mask):
            raise ValueError("the warm allocation's relay mask differs from the table's")
        if warm_result.lam_hat.shape != state.lam.shape:
            raise ValueError(f"the warm multipliers hold {warm_result.lam_hat.size} entries, "
                             f"not 2M+N-1 = {state.lam.size}")
        state = MultiplierState(lam=warm_result.lam_hat, sigma=warm_result.sigma)
        x = np.maximum(problem.to_scaled(warm_alloc), 0.0)
        h = problem.residuals_scaled(x)

    history: list[CycleRecord] = []
    best = None   # (cycle record, x, lam_hat)
    prev_inf = math.inf
    derivs = None   # the data derivative pair at x; x does not move between cycles
    for cycle in range(options.n_max + 1):
        x, h, derivs, info = inner_descent(problem, x, h, state.lam, state.sigma, options,
                                           derivs)
        rec = CycleRecord(cycle=cycle, h_inf=_linf(h), sigma=state.sigma, phi=info.phi_end,
                          energy_j=problem.energy_j(x), inner_steps=info.steps,
                          inner_reason=info.reason, merit_evals=info.merit_evals)
        history.append(rec)
        # the first iterate within eps ends the loop, so the lowest
        # residual wins, energy breaking ties
        if best is None or (rec.h_inf, rec.energy_j) < (best[0].h_inf, best[0].energy_j):
            best = (rec, x, state.lam - 2.0 * state.sigma * h)
        if rec.h_inf <= options.eps:
            break
        state = update_state(state, h, prev_inf)
        prev_inf = rec.h_inf

    rec, x, lam_hat = best
    hinf = rec.h_inf
    if rec.inner_reason != "gradient":
        _log.warning("returned iterate's inner loop stopped on %s (cycle %d, %d steps, "
                     "h_inf %.3g)", rec.inner_reason, rec.cycle, rec.inner_steps, rec.h_inf)
    # guard against overspend: scale every column of the allocation whose sum
    # is above the budget back until none is; a factor of at most 1 - 2**-52
    # lowers each entry by at least one ulp, so the loop ends with the sums exact
    alloc = problem.to_physical(x)
    sums = alloc.column_sums()
    if np.any(sums > cfg.p_t):
        while np.any(sums > cfg.p_t):
            shrink = np.minimum(cfg.p_t / sums, 1.0 - 2.0 ** -52)
            x = x * np.where(sums > cfg.p_t, shrink, 1.0)[table.segment]
            alloc = problem.to_physical(x)
            sums = alloc.column_sums()
        hinf = _linf(problem.residuals_scaled(x))
    figures = compute_metrics(alloc, cfg, sched, table)

    result = SolveResult(
        converged=bool(hinf <= options.eps),
        cycles=len(history),
        d_min=d_min,
        energy_j=figures.energy_j,
        data_bits=figures.data_bits,
        h_inf=hinf,
        lam_hat=lam_hat,
        sigma=rec.sigma,
        history=tuple(history),
    )
    return alloc, result


def kkt_residual(alloc: AllocationMatrix, lam: np.ndarray, cfg: ScenarioConfig,
                 sched: SegmentSchedule, d_min: float, table: GainTable) -> float:
    """Inequality-form first-order optimality residual, in scaled units.

    ``lam`` follows the solver convention (data multiplier first, budget
    rows negated caps).  The residual is the max of the projected
    stationarity norm, complementary-slackness magnitudes, primal
    violations (data floor, budget caps, nonnegativity), and any
    wrong-signed multiplier excess.
    """
    problem = Problem(cfg, sched, d_min, table)
    x = problem.to_scaled(alloc)
    h0 = problem.residuals_scaled(x)[0]
    budget = table.column_sums(x) - 1.0

    dd = problem.table.data_derivatives(x)[0]
    stat = problem.t_norm[table.segment] - lam[0] * dd - lam[1:][table.segment]
    interior = x > 0.0
    at_bound = ~interior
    stat_res = 0.0
    if np.any(interior):
        stat_res = float(np.max(np.abs(stat[interior])))
    if np.any(at_bound):
        stat_res = max(stat_res, float(np.max(np.maximum(-stat[at_bound], 0.0))))

    mu = -lam[1:]   # budget multipliers in the standard nonnegative sign
    comp = max(abs(lam[0] * h0), _linf(mu * budget))
    primal = max(max(-h0, 0.0), float(np.max(np.maximum(budget, 0.0), initial=0.0)),
                 float(np.max(np.maximum(-x, 0.0), initial=0.0)))
    dual = max(max(-lam[0], 0.0), float(np.max(np.maximum(-mu, 0.0), initial=0.0)))
    return max(stat_res, comp, primal, dual)
