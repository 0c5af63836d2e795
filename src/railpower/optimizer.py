"""Energy-minimising power allocation via the method of multipliers.

The problem: choose the transmit power matrix P to minimise traversal
energy subject to a delivered-data floor (D >= D_min, binding at the
optimum and therefore driven as the equality D = D_min) and a
per-segment power budget (column sums of P at most P_T).  The merit
function is the augmented Lagrangian

    phi(P, lam, sigma) = E(P) - lam . h(P) + sigma * h(P) . h(P)

minimised by projected Newton descent in an inner loop.  Each cycle of
:func:`solve` runs the inner descent, records the cycle, and stops once
the record is feasible and stationary: ||h_now||_inf <= eps and the KKT
residual (:meth:`Problem.kkt_residual`) at its iterate and multiplier
estimate is at most 10 eps.  Otherwise the multipliers are corrected or
the penalty factor grown according to how fast the residual norm
shrinks:

  (a) ||h_now||_inf >= ||h_prev||_inf        -> grow sigma, keep lam
  (b) sigma grew last cycle, or the norm fell
      below a quarter of the previous one    -> lam <- lam_hat
  (c) otherwise                              -> grow sigma, keep lam

with lam_hat the first-order multiplier estimate at the cycle's iterate:
lam_0 - 2 sigma h_0 for the data row, and min(lam_j - 2 sigma (s_j - 1), 0)
for budget column j with sum s_j, which is lam_j - 2 sigma h_j on a capped
column and moves toward zero on a slack one (the method of multipliers'
update for a one-sided constraint; Bertsekas, Constrained Optimization
and Lagrange Multiplier Methods, 1982, sec. 3.1), so a cap that binds
at a warm start but not at the new floor leaves no stale multiplier for
the stop test to trip on.  The loop also ends, unconverged, once sigma
passes :data:`SIGMA_MAX`.

Inside the solver, powers are scaled by P_T and data by D_min so the
residual components are comparable under the max norm; :func:`solve`
converts the iterate once at entry and once at return.
:func:`inner_descent` returns its cycle's :class:`CycleRecord`, which
holds the scaled iterate and its residuals, with the iterate's data
derivative pair (D', D''); the next cycle starts from all three, so its
first step does not recompute them at the same x.  Within a cycle, one
merit evaluation takes the column sums once, for the residuals and the
energy, and the accepted line-search candidate's SNR product
(:meth:`GainTable.snr`) feeds its derivative pass, so a solve makes one
derivative pass per inner step plus one; the stop test reads the pair a
cycle hands on, and makes its own pass only after a step-cap stop.  Each
accepted iterate's per-iterate terms are formed once and shared by the
merit gradient and the Newton direction: the capped-column mask and the
capped multiplier term mu_j = 2 sigma h_j - lam_j
(:meth:`Problem.cap_terms`), and the mask g > 0, which the projected
gradient and the epsilon-active set both read.  The energy and data it
returns are :func:`metrics.compute_metrics` of the returned allocation,
the same figures a harness row writes for it.  A cycle's recorded energy
is :meth:`Problem.energy_j`, the reduction of :func:`metrics.total_energy`
applied to the cycle's powers, so only the returned iterate is built into
an :class:`AllocationMatrix`.  :class:`Problem` holds
the gain table in the same units (gains times P_T, weights over D_min),
built once, so no data or derivative pass converts units.  The iterate
is the compact vector x (K,) of the K = M(M+N-1) entries where a relay is
in the cell, in the compact order of the table's
:class:`scenario.EntryLayout` (each segment's relays next to each other);
column sums are the layout's one ``bincount``, and no inactive entry is
stored, computed or masked out.
:class:`Problem` over a :class:`GainTable` is the one representation of
the merit function, its derivatives and the residuals.  The two solver
settings (tolerance and cycle cap) live in one frozen
:class:`SolverOptions`, which owns their defaults and validation; the
method's constants (initial penalty :data:`SIGMA0`, growth factor
:data:`GROWTH`, per-cycle step guard :data:`INNER_CAP`) are fixed, like
rule (b)'s ratio of 1/4.  The history of :class:`CycleRecord`, each with
its scaled iterate, residuals and multiplier estimate, is the one record
of a solve's cycles, a record's index in it is its cycle number, and the
returned iterate is the record that passed the stop test, or, when none
did, the history's best cycle.

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
capped, mu_j = 2 sigma h_j - lam_j.  The model Hessian is

    H = diag(a) + 2 sigma grad h0 grad h0^T
        + 2 sigma * sum over capped columns j of 1_j 1_j^T,
    a_k = |D''_k| t_k / D'_k,

with the cap term in t_k clamped at zero (max(mu_j, 0)), so a > 0 for
every c.  a_k is
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
update adds the data term, all in O(K) with no dense solve.  When the
data row's mass 2 sigma grad h0^T B grad h0 (B the inverse of the rest)
is large, that update subtracts nearly all of its term and loses about
mass * eps relative; above a mass of 1e6 the direction takes up to three
steps of iterative refinement on the residual of H_FF, each of which
multiplies that error by about mass * eps again.  A capped column's
update can cancel the same way (mass 2 sigma times the column's sum of
1/a_k), but only when the column is barely over its cap at a huge sigma,
since a_k grows with 2 sigma h_j; that case alone is not refined.  The
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
from .scenario import ScenarioConfig, SegmentSchedule, _frozen, segment_boundaries


class InfeasibleDataFloor(ValueError):
    """The requested data floor exceeds the data the average allocation
    delivers at the full per-segment budget."""


_log = logging.getLogger(__name__)

SIGMA0 = 1.0       # initial penalty factor
GROWTH = 4.0       # penalty growth factor of rules (a) and (c)
INNER_CAP = 5000   # inner descent steps per cycle; a Newton solve takes tens in all
# penalty factor past which the loop ends: 2 sigma then outweighs the unit
# energy slope by more than float64 resolves (converged solves stay below 1e8)
SIGMA_MAX = 2.0 ** 52
# the data row's rank-one mass above which the Newton direction is refined,
# at most _REFINE_STEPS times (see the module docstring); below it the
# update's cancellation costs under 1e-9 relative
_REFINE_MASS = 1e6
_REFINE_STEPS = 3


def _linf(v) -> float:
    return float(np.maximum.reduce(np.abs(v)))


@dataclass(frozen=True)
class SolverOptions:
    """Solver settings: the one place their defaults are written."""

    eps: float = 1e-4        # tolerance on the scaled residual max norm
    n_max: int = 100         # outer cycle cap, >= 0

    def __post_init__(self):
        if self.eps <= 0 or self.n_max < 0:
            raise ValueError("require eps > 0, n_max >= 0")


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
        self.table = replace(table, gains=_frozen(table.gains * cfg.p_t),
                             weights=_frozen(table.weights / d_min))
        self.layout = table.layout
        self.segment = self.layout.segment
        self.t_norm = sched.durations / sched.total_time
        self._t_entry = self.t_norm[self.segment]

    def to_scaled(self, alloc: AllocationMatrix) -> np.ndarray:
        return alloc.values / self.p_t

    def to_physical(self, x: np.ndarray) -> AllocationMatrix:
        return AllocationMatrix(x * self.p_t, self.layout)

    def energy_j(self, x: np.ndarray) -> float:
        """Energy [J] of x: :func:`metrics.total_energy` of ``to_physical(x)``,
        bit for bit, without building the allocation."""
        return _energy(self.sched, self.layout.column_sums(x * self.p_t))

    def residuals_scaled(self, x: np.ndarray, snr: np.ndarray | None = None,
                         cols: np.ndarray | None = None) -> np.ndarray:
        """Residuals at x; ``snr`` and ``cols`` pass in the table's
        :meth:`GainTable.snr` and column sums at x."""
        if cols is None:
            cols = self.layout.column_sums(x)
        h = np.empty(self.t_norm.size + 1)
        h[0] = self.table.total_data(x, snr) - 1.0
        h[1:] = np.maximum(cols - 1.0, 0.0)
        return h

    def phi(self, x: np.ndarray, lam: np.ndarray, sigma: float,
            h: np.ndarray | None = None, cols: np.ndarray | None = None) -> float:
        """Merit value; ``h`` and ``cols`` pass in the residuals and column
        sums at x, so one evaluation takes the column sums once."""
        if cols is None:
            cols = self.layout.column_sums(x)
        if h is None:
            h = self.residuals_scaled(x, cols=cols)
        return float(self.t_norm @ cols) - float(lam @ h) + sigma * float(h @ h)

    def cap_terms(self, h: np.ndarray, lam: np.ndarray, sigma: float
                  ) -> tuple[np.ndarray, np.ndarray | None]:
        """The budget caps' share of the merit derivatives at residuals h:
        the capped-column mask and each column's multiplier term
        mu_j = 2 sigma h_j - lam_j where capped, else 0 (``None`` when no
        column is capped)."""
        capped = h[1:] > 0.0
        if not np.count_nonzero(capped):
            return capped, None
        return capped, np.where(capped, 2.0 * sigma * h[1:] - lam[1:], 0.0)

    def grad_phi(self, x: np.ndarray, lam: np.ndarray, sigma: float,
                 h: np.ndarray | None = None, dd: np.ndarray | None = None,
                 caps: tuple | None = None) -> np.ndarray:
        """Merit gradient; ``h``, ``dd`` and ``caps`` pass in the residuals,
        data gradient and :meth:`cap_terms` at x."""
        if h is None:
            h = self.residuals_scaled(x)
        if dd is None:
            dd = self.table.data_derivatives(x)[0]
        if caps is None:
            caps = self.cap_terms(h, lam, sigma)
        g = self._t_entry + (-lam[0] + 2.0 * sigma * h[0]) * dd
        mu = caps[1]
        if mu is not None:   # below the cap the clipped budget rows contribute nothing
            g += mu[self.segment]
        return g

    def newton_direction(self, x: np.ndarray, g: np.ndarray, pos: np.ndarray,
                         dd: np.ndarray, dd2: np.ndarray, sigma: float,
                         caps: tuple) -> np.ndarray:
        """Projected-Newton direction for the merit gradient ``g`` at x.

        ``pos`` is ``g > 0``; ``dd`` and ``dd2`` are the scaled data
        derivatives and ``caps`` the :meth:`cap_terms` at x.  The model
        Hessian, its diagonal and the epsilon-active set are set out in the
        module docstring.
        """
        # x - max(x - g, 0) = min(x, g)
        step = np.minimum(x, g)
        delta = min(1e-3, math.sqrt(float(step @ step)))
        active = (x <= delta) & pos
        any_active = np.count_nonzero(active)
        two_s = 2.0 * sigma
        capped, mu = caps
        seg = self.segment
        t = self._t_entry
        if mu is not None:
            # a capped column's multiplier term, clamped so t stays positive
            t = t + np.maximum(mu, 0.0)[seg]
        a = -dd2 * t / dd
        inv_a = np.where(active, 0.0, 1.0 / a) if any_active else 1.0 / a
        col = None   # each capped column's Sherman-Morrison factor
        if mu is not None:
            col = np.where(capped, two_s / (1.0 + two_s * self.layout.column_sums(inv_a)), 0.0)
        bu = self._apply_inverse(dd, inv_a, col)
        data_mass = two_s * float(dd @ bu)
        rank_one = (dd, bu, two_s, 1.0 + data_mass)
        d_free = self._apply_inverse(g, inv_a, col, rank_one)
        if data_mass > _REFINE_MASS:
            # the Woodbury step cancels (module docstring): refine d_free on
            # the residual of H_FF until the correction stops mattering
            for _ in range(_REFINE_STEPS):
                r = (g - a * d_free - two_s * float(dd @ d_free) * dd
                     - two_s * np.where(capped, self.layout.column_sums(d_free), 0.0)[seg])
                br = self._apply_inverse(r, inv_a, col, rank_one)
                d_free = d_free + br
                if np.abs(br).max() <= 1e-16 * np.abs(d_free).max():
                    break
        if not any_active:
            return -d_free
        diag = a + two_s * (dd * dd + capped[seg])
        return -np.where(active, g / diag, d_free)

    def kkt_residual(self, x: np.ndarray, lam: np.ndarray, h: np.ndarray,
                     dd: np.ndarray) -> float:
        """Inequality-form first-order optimality residual at x, given its
        residuals ``h`` and scaled data gradient ``dd``.

        ``lam`` follows the solver convention (data multiplier first,
        budget rows negated caps).  The residual is the max of the projected
        stationarity norm, complementary-slackness magnitudes, primal
        violations (data floor, budget caps, nonnegativity), and any
        wrong-signed multiplier excess.
        """
        budget = self.layout.column_sums(x) - 1.0
        stat = self._t_entry - lam[0] * dd - lam[1:][self.segment]
        # an interior entry's stationarity error is |stat|; at the bound
        # only a negative slope counts
        stat_res = float(np.maximum.reduce(np.where(x > 0.0, np.abs(stat), -stat)))
        comp = max(abs(lam[0] * h[0]), _linf(lam[1:] * budget))
        primal = max(-h[0], float(np.maximum.reduce(h[1:])), -float(np.minimum.reduce(x)))
        dual = max(-lam[0], float(np.maximum.reduce(lam[1:])))
        return float(max(stat_res, comp, primal, dual, 0.0))

    def _apply_inverse(self, r: np.ndarray, inv_a: np.ndarray, col: np.ndarray | None,
                       rank_one: tuple | None = None) -> np.ndarray:
        """B r, B the inverse of the model Hessian's free block (``inv_a`` is 1/a,
        zero on the active set): Sherman-Morrison per capped column, factors
        ``col`` (``None`` when none is capped), then, given ``rank_one`` =
        (dd, bu, 2 sigma, 1 + data mass), the Woodbury update for the data row."""
        b = inv_a * r
        if col is not None:
            b -= inv_a * (self.layout.column_sums(b) * col)[self.segment]
        if rank_one is not None:
            dd, bu, two_s, denom = rank_one
            b -= two_s * float(dd @ b) / denom * bu
        return b


@dataclass(frozen=True, eq=False)
class CycleRecord:
    """One outer cycle's outcome: its iterate at the end of the inner loop,
    with the residuals, merit value and energy there and how the loop ended.
    Its cycle number is its index in :attr:`SolveResult.history`."""

    h_inf: float
    sigma: float
    phi: float
    energy_j: float
    inner_steps: int
    inner_reason: str                         # "gradient" | "stall" | "cap"
    merit_evals: int                          # Problem.phi evaluations, the start included
    x: np.ndarray = field(repr=False)         # the cycle's scaled iterate
    h: np.ndarray = field(repr=False)         # its residuals
    lam_hat: np.ndarray = field(repr=False)   # the multiplier estimate at x (module docstring)


def inner_descent(problem: Problem, x: np.ndarray, h: np.ndarray, lam: np.ndarray, sigma: float,
                  options: SolverOptions, derivs: tuple[np.ndarray, np.ndarray] | None = None
                  ) -> tuple[CycleRecord, tuple | None]:
    """Minimise phi(., lam, sigma) by projected Newton descent from x.

    Takes a scaled iterate x >= 0 with its residuals h and, when known,
    ``derivs``, the data derivative pair (D', D'') at x; returns the
    cycle's :class:`CycleRecord` of the final iterate and that iterate's
    pair (``None`` when the loop ended on the step cap, which leaves the
    last iterate's pair uncomputed).  Steps along
    :meth:`Problem.newton_direction`, clipping negative entries to zero;
    the stepsize halves from 1 until phi decreases.  The accepted
    candidate's residuals are kept, so each merit evaluation is one data
    pass, and so is its SNR product, which feeds the next derivative pass:
    a loop makes one derivative pass per step, plus one unless ``derivs``
    was passed in.  Stops once the projected gradient norm falls below
    ``options.eps``, on a backtracking stall, or at the step cap
    :data:`INNER_CAP`; the last two flag the record rather than raising.
    """
    table = problem.table
    phi = problem.phi(x, lam, sigma, h)
    caps = problem.cap_terms(h, lam, sigma)
    evals, steps, reason = 1, 0, "cap"
    snr = cols = None    # the SNR product and column sums at x, once a line search formed them

    while steps < INNER_CAP:
        if derivs is None:
            derivs = table.data_derivatives(x, snr)
        dd, dd2 = derivs
        g = problem.grad_phi(x, lam, sigma, h, dd, caps)
        pos = g > 0.0
        # projected gradient: no descent below zero at the bound
        pg = np.where((x <= 0.0) & pos, 0.0, g)
        if math.sqrt(float(pg @ pg)) <= options.eps:
            reason = "gradient"
            break
        d = problem.newton_direction(x, g, pos, dd, dd2, sigma, caps)
        x_new, alpha = None, 1.0
        for _ in range(60):
            x_try = np.maximum(x + alpha * d, 0.0)
            snr_try, cols_try = table.snr(x_try), problem.layout.column_sums(x_try)
            h_try = problem.residuals_scaled(x_try, snr_try, cols_try)
            phi_try = problem.phi(x_try, lam, sigma, h_try, cols_try)
            evals += 1
            if phi_try < phi:
                x_new, h_new, phi_new = x_try, h_try, phi_try
                break
            alpha *= 0.5
        if x_new is None:                  # cannot decrease: numerically stationary
            reason = "stall"
            break
        x, h, phi, snr, cols, derivs = x_new, h_new, phi_new, snr_try, cols_try, None
        caps = problem.cap_terms(h, lam, sigma)
        steps += 1

    if cols is None:
        cols = problem.layout.column_sums(x)
    # the first-order multiplier estimates: lam_0 - 2 sigma h_0 for the data
    # row, min(lam_j - 2 sigma (s_j - 1), 0) for a cap, which moves a slack
    # column's multiplier toward zero instead of keeping a stale value
    lam_hat = np.empty_like(lam)
    lam_hat[0] = lam[0] - 2.0 * sigma * h[0]
    lam_hat[1:] = np.minimum(lam[1:] - 2.0 * sigma * (cols - 1.0), 0.0)
    return CycleRecord(h_inf=_linf(h), sigma=sigma, phi=phi, energy_j=problem.energy_j(x),
                       inner_steps=steps, inner_reason=reason, merit_evals=evals,
                       x=x, h=h, lam_hat=lam_hat), derivs


def update_state(lam: np.ndarray, sigma: float, sigma_grew: bool, h_inf: float,
                 lam_hat: np.ndarray, prev_inf: float) -> tuple[np.ndarray, float, bool]:
    """Apply the between-cycle penalty/multiplier correction rules (a)-(c)
    to the multipliers (data row first), the penalty factor and the case
    (b) flag, returning their next values.

    ``h_inf`` and ``lam_hat`` are the cycle record's residual max norm and
    multiplier estimate (see the module docstring), the multipliers rule
    (b) moves to.  ``prev_inf`` is the previous cycle's residual max norm,
    ``math.inf`` on the first cycle, which then counts as a
    multiplier-correction cycle (the penalty factor did not grow before it
    and any finite residual beats an undefined predecessor).
    """
    if h_inf < prev_inf and (sigma_grew or h_inf <= 0.25 * prev_inf):   # (b)
        return lam_hat, sigma, False
    return lam, GROWTH * sigma, True                                     # (a), (c)


@dataclass(frozen=True, eq=False)
class SolveResult:
    converged: bool
    cycles: int
    d_min: float
    energy_j: float
    data_bits: float
    h_inf: float                   # scaled residual max norm at the solution
    lam_hat: np.ndarray            # first-order multiplier estimate (module docstring)
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
    and it runs first.  A warm allocation on another relay layout than the
    table's, or a ``lam_hat`` without 2M+N-1 entries, raises
    ``ValueError``.  The start point is scaled and clipped to x >= 0
    once; each cycle starts from the last cycle's record (its x and
    residuals).  The returned iterate is the record that passed the stop
    test (within eps of the floor and KKT-stationary, see the module
    docstring), or, when none did, the history's best record (lowest
    residual max norm, then lowest energy, then earliest); it is scaled
    back in any column over the budget and converted to watts once, at
    return, and the result is ``converged`` when a record passed the stop
    test and the residual after that scaling is still within eps.  The
    result's ``energy_j`` and ``data_bits`` are
    :func:`metrics.compute_metrics` of the returned allocation on
    ``table``, the figures a harness row reports for it.
    Raises ``ValueError`` for a floor that is not positive and
    :class:`InfeasibleDataFloor` when the floor exceeds the data the
    average allocation delivers at the full per-segment budget.  A run
    that exhausts the outer cycle budget, or whose penalty factor passes
    :data:`SIGMA_MAX`, returns its best cycle's iterate flagged as
    non-converged, also when that iterate is within eps of the floor but
    not stationary.
    When the inner loop that produced the returned iterate stopped on
    ``cap`` or ``stall``, a warning goes to the ``railpower.optimizer`` logger.
    """
    if sched is None:
        sched = segment_boundaries(cfg)
    if table is None:
        table = build_gain_table(cfg, sched)
    if d_min is None:
        d_min = data_floor(cfg, sched, table)
    lam, sigma, sigma_grew = np.zeros(2 * cfg.num_relays + cfg.num_bins - 1), SIGMA0, False

    problem = Problem(cfg, sched, d_min, table)
    x = problem.to_scaled(average_alloc(cfg, sched))
    h = problem.residuals_scaled(x)
    if h[0] < -1e-12:
        raise InfeasibleDataFloor(
            f"data floor {d_min:.6g} bits exceeds the {(h[0] + 1.0) * d_min:.6g} bits "
            "the average allocation delivers at the full per-segment budget"
        )
    if warm is not None:
        warm_alloc, warm_result = warm
        if warm_alloc.layout is not table.layout:
            raise ValueError("the warm allocation's relay layout differs from the table's")
        if warm_result.lam_hat.shape != lam.shape:
            raise ValueError(f"the warm multipliers hold {warm_result.lam_hat.size} entries, "
                             f"not 2M+N-1 = {lam.size}")
        lam, sigma = warm_result.lam_hat, warm_result.sigma
        x = np.maximum(problem.to_scaled(warm_alloc), 0.0)
        h = problem.residuals_scaled(x)

    history: list[CycleRecord] = []
    derivs = None   # the data derivative pair at x; x does not move between cycles
    prev_inf = math.inf
    stopped = None  # the record that passed the stop test
    for _ in range(options.n_max + 1):
        rec, derivs = inner_descent(problem, x, h, lam, sigma, options, derivs)
        history.append(rec)
        if rec.h_inf <= options.eps:
            if derivs is None:   # a step-cap stop leaves the pair uncomputed
                derivs = problem.table.data_derivatives(rec.x)
            if problem.kkt_residual(rec.x, rec.lam_hat, rec.h, derivs[0]) <= 10.0 * options.eps:
                stopped = rec
                break
        lam, sigma, sigma_grew = update_state(lam, sigma, sigma_grew, rec.h_inf, rec.lam_hat,
                                              prev_inf)
        if sigma > SIGMA_MAX:
            break
        x, h, prev_inf = rec.x, rec.h, rec.h_inf

    # without a stationary feasible record, the lowest residual wins,
    # energy breaking ties and the earliest cycle breaking those
    rec = stopped if stopped is not None else min(history, key=lambda c: (c.h_inf, c.energy_j))
    x, hinf = rec.x, rec.h_inf
    if rec.inner_reason != "gradient":
        _log.warning("returned iterate's inner loop stopped on %s (cycle %d, %d steps, "
                     "h_inf %.3g)", rec.inner_reason, history.index(rec), rec.inner_steps,
                     rec.h_inf)
    # guard against overspend: scale every column of the iterate whose sum
    # is above the budget back until none is; a factor of at most 1 - 2**-52
    # lowers each entry by at least one ulp, so the loop ends with the sums exact
    sums = problem.layout.column_sums(x * cfg.p_t)
    over = sums > cfg.p_t
    if np.count_nonzero(over):
        while np.count_nonzero(over):
            shrink = np.minimum(cfg.p_t / sums, 1.0 - 2.0 ** -52)
            x = x * np.where(over, shrink, 1.0)[problem.segment]
            sums = problem.layout.column_sums(x * cfg.p_t)
            over = sums > cfg.p_t
        hinf = _linf(problem.residuals_scaled(x))
    alloc = problem.to_physical(x)
    figures = compute_metrics(alloc, cfg, sched, table)

    result = SolveResult(
        converged=stopped is not None and bool(hinf <= options.eps),
        cycles=len(history),
        d_min=d_min,
        energy_j=figures.energy_j,
        data_bits=figures.data_bits,
        h_inf=hinf,
        lam_hat=rec.lam_hat,
        sigma=rec.sigma,
        history=tuple(history),
    )
    return alloc, result


def kkt_residual(alloc: AllocationMatrix, lam: np.ndarray, cfg: ScenarioConfig,
                 sched: SegmentSchedule, d_min: float, table: GainTable) -> float:
    """:meth:`Problem.kkt_residual` of an allocation in watts, in scaled units."""
    problem = Problem(cfg, sched, d_min, table)
    x = problem.to_scaled(alloc)
    return problem.kkt_residual(x, lam, problem.residuals_scaled(x),
                                problem.table.data_derivatives(x)[0])
