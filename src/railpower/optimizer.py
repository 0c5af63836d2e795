"""Energy-minimising power allocation via the method of multipliers.

The problem: choose the transmit power matrix P to minimise traversal
energy subject to a delivered-data floor (D >= D_min, binding at the
optimum and therefore driven as the equality D = D_min) and a
per-segment power budget (column sums of P at most P_T).  The merit
function is the augmented Lagrangian

    phi(P, lam, sigma) = E(P) - lam . h(P) + sigma * h(P) . h(P)

with h_0 = D / D_min - 1 and, for budget column j with scaled sum s_j,
the shifted one-sided residual h_j = max(s_j - 1, lam_j / 2 sigma)
(Bertsekas, Constrained Optimization and Lagrange Multiplier Methods,
1982, sec. 3.1), minimised by projected Newton descent in an inner loop.
Each cycle of :func:`solve` runs the inner descent, records the cycle,
and stops once the record is feasible and stationary: its constraint
violation max(|h_0|, max_j h_j) is at most :data:`EPS` and the KKT
residual (:meth:`Problem.kkt_residual`) at its iterate and multiplier
estimate is at most 10 EPS.  Otherwise the multipliers are corrected or
the penalty factor grown according to how fast the violation v shrinks:

  (a) v_now >= v_prev                        -> grow sigma, keep lam
  (b) sigma grew last cycle, or v fell
      below a quarter of the previous one    -> lam <- lam_hat
  (c) otherwise                              -> grow sigma, keep lam

with lam_hat = lam - 2 sigma h the first-order multiplier estimate at the
cycle's iterate.  On a cap row it is min(lam_j - 2 sigma (s_j - 1), 0),
exactly 0 on a slack column (s_j - 1 <= lam_j / 2 sigma; sigma is a power
of two, so the shift is exact), so a cap that binds at a warm start but
not at the new floor leaves no stale multiplier for the stop test to trip
on.  The loop also ends, unconverged, once sigma passes :data:`SIGMA_MAX`.

A cold solve starts at lam = 0 from the average allocation, with the
penalty factor its own data curvature there asks for.  Each multiplier
update shrinks the floor violation by about 1 / (1 + 2 sigma kappa),
kappa the data row's dual curvature (Bertsekas 1982, ch. 2).  At the start
point no column is capped and no entry is epsilon-active, so kappa0 =
sum_k D'_k^2 / a_k (a_k the Newton diagonal below) and 2 sigma kappa0 is
the data row's mass in the first Newton direction.  sigma0 is the largest
power of two with 2 sigma0 kappa0 <= :data:`MASS0`, with no lower bound:
kappa0 grows as the floor shrinks, so a caps-binding solve starts near
sigma = 1024 and a small floor far below 1, where sigma = 1 would give the
Woodbury update below a data mass of up to 1e14 and no digits.  A warm
solve keeps its warm result's sigma.

Inside the solver, powers are scaled by P_T and data by D_min so the
residual components are comparable under the max norm; :func:`solve`
converts the iterate once at entry and once at return.
:func:`inner_descent` returns its cycle's :class:`CycleRecord`, which
holds the scaled iterate and its residuals, with the iterate's data
derivative pair (D', D''); the next cycle starts from all three, so its
first step makes no data pass at the same x, and re-forms only the cap
rows of the residuals, under its own shift.  Within a cycle, one
merit evaluation takes the column sums once, for the residuals and the
energy, and an accepted step forms its iterate's pair from the SNR product
(:meth:`GainTable.snr`) its line search computed, as the start point's
product feeds the first pass, so a solve makes one derivative pass per
inner step plus one; the stop test reads the pair a cycle hands on.  Each
accepted iterate's multiplier estimate lam_hat is formed once: the merit
gradient, the Newton direction and the cycle's record all read it, and
the mask g > 0 is shared by the projected gradient and the
epsilon-active set.  The energy and data it
returns are :func:`metrics.compute_metrics` of the returned allocation,
the same figures a harness row writes for it; the data is
:meth:`GainTable.total_data`, the floor's reduction.  A cycle's recorded energy
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
the merit function, its derivatives and the residuals.  The method's
settings are module constants, fixed like rule (b)'s ratio of 1/4: the
tolerance :data:`EPS`, the outer cycle cap :data:`N_MAX`, the initial data
mass :data:`MASS0`, the growth factor :data:`GROWTH` and the per-cycle step
guard :data:`INNER_CAP`.  The history
of :class:`CycleRecord`, each with its scaled iterate, residuals and
multiplier estimate, is the one record
of a solve's cycles, a record's index in it is its cycle number, and the
returned iterate is the record that passed the stop test, or, when none
did, the history's best cycle, or the start point when every cycle
undershoots the floor that it meets.

Budget handling: budget rows are one-sided caps.  A row's merit term is
flat in s_j up to s_j - 1 = lam_j / 2 sigma, and its slope
2 sigma h_j - lam_j rises from 0 there, so the merit has no kink at a cap.
The literal equality form would pin the energy at P_T times the
traversal time and erase the optimisation gain.  The KKT residual refers
to the same inequality-form optimality system.

Inner step: projected Newton on a model of the merit Hessian (Bertsekas,
"Projected Newton methods for optimization problems with simple
constraints", SIAM J. Control Optim. 20(2), 1982; for the
bound-constrained augmented Lagrangian, Nocedal & Wright, Numerical
Optimization, 2006, sec. 17.4).  Each D_k depends on x_k alone, and the
merit gradient is the Lagrangian's gradient at lam_hat: with c = lam_hat_0,
g_k = t_k - c D'_k, where t_k is entry k's normalised segment time plus
-lam_hat_j >= 0 for its column j (0 unless the column is capped).  The
model Hessian is

    H = diag(a) + 2 sigma grad h0 grad h0^T
        + 2 sigma * sum over capped columns j of 1_j 1_j^T,
    a_k = |D''_k| t_k / D'_k,

so a > 0 for every c.  a_k is
the Newton diagonal of entry k's stationarity equation written as
1/D'_k(x) = c / t_k: it equals the merit Hessian's c |D''_k| wherever
t_k = c D'_k, so near a solution the step is Newton's and keeps its
quadratic rate, and it is exact in one step for an entry with a single
quadrature node.  Newton on D'_k itself creeps where a step has clipped
entries to zero: the log-rate curvature there lets each later step only
about double them, and at c <= 0 (at rho = 1 the first cycle starts at
lam = 0 on the floor, h0 = 0) it has no positive curvature at all.
Entries with x <= delta = 1e-3 min(1, max x) and a positive merit slope
form the epsilon-active set and take the diagonally scaled step
-g_i / H_ii toward the bound.  delta is relative because at small
floors every entry sits far below an absolute 1e-3; holding all of them
back turns the projected Newton step into a creeping gradient step.  The
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
since a_k grows with 2 sigma h_j; that case alone is not refined.

Line search: the stepsize halves from 1 until phi decreases (Nocedal &
Wright, sec. 3.1), with one retry.  A full step can push columns over
caps that the model holds slack; the halved step then stops just short
of the kink, the column never enters the model, and the next steps creep
toward the cap.  A cap row's merit term at h_j above the shift exceeds
its value at the shift by sigma (h_j - lam_j / 2 sigma)^2.  When those
excesses over the newly capped columns outweigh the full step's rise in
phi, the step would pass but for them, and it is retried once before
the halving: along the Newton direction whose model caps those columns
too, at the merit gradient whose multiplier estimate on them is
extended past the kink to lam_j - 2 sigma (s_j - 1) >= 0 at x.  The
diagonal's t_k still reads lam_hat, which is 0 on those columns, so
a > 0.  This is the semismooth Newton step with the active set predicted
at the trial point (Hintermueller, Ito & Kunisch, "The primal-dual
active set strategy as a semismooth Newton method", SIAM J. Optim.
13(3), 2003).  If the retried step does not decrease phi either, the
first direction halves on from 1/2.  A step the other terms reject, as
at a low SNR where the full step overshoots, is not retried.  The loop
stops on the projected gradient norm.
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

EPS = 1e-4         # tolerance on the scaled constraint violation and the gradient norm
N_MAX = 100        # outer cycle cap: a solve runs at most N_MAX + 1 cycles
MASS0 = 64.0       # a cold solve's initial data-row mass 2 sigma kappa0 (module docstring)
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


def cap_shift(lam: np.ndarray, sigma: float) -> np.ndarray:
    """The budget rows' shift lam_j / 2 sigma (sigma > 0), the floor of their
    shifted residuals."""
    return lam[1:] / (2.0 * sigma)


def newton_diagonal(dd: np.ndarray, dd2: np.ndarray, t: np.ndarray) -> np.ndarray:
    """The model Hessian's diagonal a_k = |D''_k| t_k / D'_k, from the scaled
    data derivatives and each entry's time plus its capped column's term."""
    return -dd2 * t / dd


def _violation(h: np.ndarray) -> float:
    """Constraint violation of shifted residuals h: max(|h_0|, max_j h_j)."""
    return max(abs(float(h[0])), float(np.maximum.reduce(h[1:])))


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

    def residuals_scaled(self, x: np.ndarray, shift: np.ndarray | float = 0.0,
                         snr: np.ndarray | None = None,
                         cols: np.ndarray | None = None) -> np.ndarray:
        """Residuals at x, the cap rows floored at :func:`cap_shift`'s
        ``shift`` (0 clips them at the budget); ``snr`` and ``cols`` pass in
        the table's :meth:`GainTable.snr` and column sums at x."""
        if cols is None:
            cols = self.layout.column_sums(x)
        h = np.empty(self.t_norm.size + 1)
        h[0] = self.table.total_data(x, snr) - 1.0
        h[1:] = np.maximum(cols - 1.0, shift)
        return h

    def phi(self, lam: np.ndarray, sigma: float, h: np.ndarray, cols: np.ndarray) -> float:
        """Merit value at an iterate, from its residuals ``h`` shifted by
        :func:`cap_shift` and its column sums ``cols``."""
        return float(self.t_norm @ cols) - float(lam @ h) + sigma * float(h @ h)

    def grad_phi(self, lam_hat: np.ndarray, dd: np.ndarray) -> np.ndarray:
        """Merit gradient at an iterate: the Lagrangian's gradient
        t_k - lam_0 D'_k - lam_j(k) at its multiplier estimate ``lam_hat``,
        with ``dd`` its scaled data gradient."""
        return self._t_entry - lam_hat[0] * dd - lam_hat[1:][self.segment]

    def newton_direction(self, x: np.ndarray, g: np.ndarray, pos: np.ndarray,
                         dd: np.ndarray, dd2: np.ndarray, sigma: float,
                         lam_hat: np.ndarray, capped: np.ndarray) -> np.ndarray:
        """Projected-Newton direction for the merit gradient ``g`` at x.

        ``pos`` is ``g > 0``; ``dd`` and ``dd2`` are the scaled data
        derivatives, ``lam_hat`` the multiplier estimate and ``capped`` the
        capped-column mask (h_j > lam_j / 2 sigma) at x.  The model Hessian,
        its diagonal and the epsilon-active set are set out in the module
        docstring.
        """
        active = (x <= 1e-3 * min(1.0, float(np.maximum.reduce(x)))) & pos
        any_active = np.count_nonzero(active)
        any_capped = np.count_nonzero(capped)
        two_s = 2.0 * sigma
        seg = self.segment
        t = self._t_entry
        if any_capped:
            # a capped column's multiplier term 2 sigma h_j - lam_j > 0
            t = t - np.where(capped, lam_hat[1:], 0.0)[seg]
        a = newton_diagonal(dd, dd2, t)
        inv_a = np.where(active, 0.0, 1.0 / a) if any_active else 1.0 / a
        col = None   # each capped column's Sherman-Morrison factor
        if any_capped:
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
        residuals ``h`` (only the data row is read) and scaled data gradient
        ``dd``.

        ``lam`` follows the solver convention (data multiplier first,
        budget rows negated caps).  The residual is the max of the projected
        stationarity norm, complementary-slackness magnitudes, primal
        violations (data floor, budget caps, nonnegativity), and any
        wrong-signed multiplier excess.
        """
        budget = self.layout.column_sums(x) - 1.0
        stat = self.grad_phi(lam, dd)
        # an interior entry's stationarity error is |stat|; at the bound
        # only a negative slope counts
        stat_res = float(np.maximum.reduce(np.where(x > 0.0, np.abs(stat), -stat)))
        comp = max(abs(lam[0] * h[0]), float(np.maximum.reduce(np.abs(lam[1:] * budget))))
        primal = max(-h[0], float(np.maximum.reduce(budget)), -float(np.minimum.reduce(x)))
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

    h_inf: float                              # the constraint violation at x
    sigma: float
    phi: float
    energy_j: float
    inner_steps: int
    inner_reason: str                         # "gradient" | "stall" | "cap"
    merit_evals: int                          # Problem.phi evaluations, the start included
    x: np.ndarray = field(repr=False)         # the cycle's scaled iterate
    h: np.ndarray = field(repr=False)         # its shifted residuals
    lam_hat: np.ndarray = field(repr=False)   # the multiplier estimate at x (module docstring)


def inner_descent(problem: Problem, x: np.ndarray, h: np.ndarray, lam: np.ndarray, sigma: float,
                  derivs: tuple[np.ndarray, np.ndarray]
                  ) -> tuple[CycleRecord, tuple[np.ndarray, np.ndarray]]:
    """Minimise phi(., lam, sigma) by projected Newton descent from x.

    Takes a scaled iterate x >= 0 with its residuals h (their cap rows
    re-formed under this cycle's shift) and ``derivs``, the data derivative
    pair (D', D'') at x; returns the cycle's :class:`CycleRecord` of the
    final iterate and that iterate's pair.  Steps along
    :meth:`Problem.newton_direction`, clipping negative entries to zero;
    the stepsize halves from 1 until phi decreases, except that a full
    step rejected only for the caps it pushes columns over, caps the model
    held slack, is first retried once along the direction with those
    columns capped (module docstring).  The accepted
    candidate's residuals are kept, so each merit evaluation is one data
    pass, and so is its SNR product, from which the step forms the new
    iterate's pair: a loop makes one derivative pass per step.  Stops once
    the projected gradient norm falls below :data:`EPS`, on a backtracking
    stall, or at the step cap :data:`INNER_CAP`; the last two flag the
    record rather than raising.
    """
    table, layout = problem.table, problem.layout
    shift = cap_shift(lam, sigma)
    cols = layout.column_sums(x)
    h = np.concatenate((h[:1], np.maximum(cols - 1.0, shift)))
    phi = problem.phi(lam, sigma, h, cols)
    lam_hat = lam - 2.0 * sigma * h
    evals, steps, reason = 1, 0, "cap"

    def trial(x_try):
        """x_try's SNR product, column sums, residuals and merit value."""
        snr_try, cols_try = table.snr(x_try), layout.column_sums(x_try)
        h_try = problem.residuals_scaled(x_try, shift, snr_try, cols_try)
        return snr_try, cols_try, h_try, problem.phi(lam, sigma, h_try, cols_try)

    while steps < INNER_CAP:
        dd, dd2 = derivs
        g = problem.grad_phi(lam_hat, dd)
        pos = g > 0.0
        # projected gradient: no descent below zero at the bound
        pg = np.where((x <= 0.0) & pos, 0.0, g)
        if math.sqrt(float(pg @ pg)) <= EPS:
            reason = "gradient"
            break
        capped = h[1:] > shift
        d = problem.newton_direction(x, g, pos, dd, dd2, sigma, lam_hat, capped)
        alpha = 1.0
        for _ in range(60):
            x_try = np.maximum(x + alpha * d, 0.0)
            snr_try, cols_try, h_try, phi_try = trial(x_try)
            evals += 1
            if phi_try < phi:
                break
            if alpha == 1.0:
                # the caps the full step crossed while the model held them
                # slack, and their share sigma (h_j - lam_j / 2 sigma)^2 of phi_try
                over = np.where(capped, 0.0, h_try[1:] - shift)
                if sigma * float(over @ over) > phi_try - phi:
                    # they alone rejected it: retry once with them capped, their
                    # multipliers extended past the kink
                    new = over > 0.0
                    lam_ext = lam_hat.copy()
                    lam_ext[1:][new] = lam[1:][new] - 2.0 * sigma * (cols[new] - 1.0)
                    g_ext = problem.grad_phi(lam_ext, dd)
                    d_ext = problem.newton_direction(x, g_ext, g_ext > 0.0, dd, dd2, sigma,
                                                     lam_hat, capped | new)
                    x_try = np.maximum(x + d_ext, 0.0)
                    snr_try, cols_try, h_try, phi_try = trial(x_try)
                    evals += 1
                    if phi_try < phi:
                        break
            alpha *= 0.5
        else:                              # cannot decrease: numerically stationary
            reason = "stall"
            break
        x, h, phi, cols = x_try, h_try, phi_try, cols_try
        derivs = table.data_derivatives(x, snr_try)
        lam_hat = lam - 2.0 * sigma * h
        steps += 1

    return CycleRecord(h_inf=_violation(h), sigma=sigma, phi=phi, energy_j=problem.energy_j(x),
                       inner_steps=steps, inner_reason=reason, merit_evals=evals,
                       x=x, h=h, lam_hat=lam_hat), derivs


def update_state(lam: np.ndarray, sigma: float, sigma_grew: bool, h_inf: float,
                 lam_hat: np.ndarray, prev_inf: float) -> tuple[np.ndarray, float, bool]:
    """Apply the between-cycle penalty/multiplier correction rules (a)-(c)
    to the multipliers (data row first), the penalty factor and the case
    (b) flag, returning their next values.

    ``h_inf`` and ``lam_hat`` are the cycle record's constraint violation
    and multiplier estimate (see the module docstring), the multipliers rule
    (b) moves to.  ``prev_inf`` is the previous cycle's violation,
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
    h_inf: float                   # scaled constraint violation at the solution
    lam_hat: np.ndarray            # first-order multiplier estimate (module docstring)
    sigma: float
    history: tuple[CycleRecord, ...] = field(repr=False, default=())


def solve(cfg: ScenarioConfig, sched: SegmentSchedule | None = None,
          warm: tuple[AllocationMatrix, SolveResult] | None = None,
          d_min: float | None = None,
          table: GainTable | None = None) -> tuple[AllocationMatrix, SolveResult]:
    """Run the full multiplier-penalty loop and return the best allocation.

    A cold solve starts from the average allocation with lam = 0 and the
    largest power of two sigma with 2 sigma kappa0 <= :data:`MASS0` (kappa0 the
    data row's curvature there, see the module docstring).  ``warm`` is a
    previous solve's ``(allocation, result)`` on the same relay layout,
    typically at a nearby floor; the loop then starts from that allocation, its
    ``lam_hat`` and its ``sigma``, with the case (b) flag cleared (the
    method-of-multipliers continuation; Bertsekas, Constrained Optimization and
    Lagrange Multiplier Methods, 1982, sec. 2.2).  The average allocation's
    data pass is the feasibility test either way, and it runs first; the start
    point's SNR product feeds both its residuals and the derivative pair the
    first cycle starts from.  A warm allocation on another relay layout than
    the table's, or a ``lam_hat`` without 2M+N-1 entries, raises
    ``ValueError``.  The start point is scaled and clipped to x >= 0 once; each
    cycle starts from the last cycle's record (its x and residuals).  The
    returned iterate is the record that passed the stop test (within EPS of the
    floor and KKT-stationary, see the module docstring), or, when none did, the
    history's best record (lowest constraint violation, then lowest energy,
    then earliest), or the start point when every record undershoots the
    floor by more than EPS and the start point does not; it is scaled back in
    any column over the budget and converted to watts once, at return, and
    the result is ``converged`` when a record passed the stop test and the
    violation after that scaling is still within EPS.  The result's
    ``energy_j`` and ``data_bits`` are :func:`metrics.compute_metrics` of the
    returned allocation on ``table``, the figures a harness row reports for
    it.  Raises ``ValueError`` for a
    floor that is not positive, or, on a cold solve, so small that kappa0 is
    not finite, and :class:`InfeasibleDataFloor` when the floor exceeds the
    data the average allocation delivers at the full per-segment budget.  A run
    that exhausts its :data:`N_MAX` + 1 cycles, or whose penalty factor passes
    :data:`SIGMA_MAX`, returns its best cycle's iterate (or the start point)
    flagged as non-converged, also when that iterate is within EPS of the
    floor but not stationary.
    When the inner loop that produced the returned iterate stopped on
    ``cap`` or ``stall``, a warning goes to the ``railpower.optimizer`` logger.
    """
    if sched is None:
        sched = segment_boundaries(cfg)
    if table is None:
        table = build_gain_table(cfg, sched)
    if d_min is None:
        d_min = data_floor(cfg, sched, table)
    lam, sigma_grew = np.zeros(2 * cfg.num_relays + cfg.num_bins - 1), False

    problem = Problem(cfg, sched, d_min, table)
    x = problem.to_scaled(average_alloc(cfg, sched))
    snr = problem.table.snr(x)
    # a floor so small that the scaled data overflows leaves kappa0 below
    # not finite, which a cold solve raises on
    with np.errstate(over="ignore", invalid="ignore"):
        h = problem.residuals_scaled(x, snr=snr)
        if h[0] < -1e-12:
            raise InfeasibleDataFloor(
                f"data floor {d_min:.6g} bits exceeds the {(h[0] + 1.0) * d_min:.6g} bits "
                "the average allocation delivers at the full per-segment budget"
            )
        if warm is None:
            # the data derivative pair at x, and kappa0, the data row's mass
            # per unit 2 sigma there: no column is capped, no entry epsilon-active
            derivs = problem.table.data_derivatives(x, snr)
            dd, dd2 = derivs
            kappa0 = float(dd @ (dd / newton_diagonal(dd, dd2, problem._t_entry)))
            if not 0.0 < kappa0 < math.inf:
                raise ValueError(f"data floor {d_min:.6g} bits is out of the solver's range: "
                                 f"the data curvature at the average allocation is {kappa0:.3g}")
            # the largest power of two sigma with 2 sigma kappa0 <= MASS0
            sigma = math.ldexp(0.5, math.frexp(0.5 * MASS0 / kappa0)[1])
    if warm is not None:
        warm_alloc, warm_result = warm
        if warm_alloc.layout is not table.layout:
            raise ValueError("the warm allocation's relay layout differs from the table's")
        if warm_result.lam_hat.shape != lam.shape:
            raise ValueError(f"the warm multipliers hold {warm_result.lam_hat.size} entries, "
                             f"not 2M+N-1 = {lam.size}")
        lam, sigma = warm_result.lam_hat, warm_result.sigma
        x = np.maximum(problem.to_scaled(warm_alloc), 0.0)
        snr = problem.table.snr(x)
        h = problem.residuals_scaled(x, snr=snr)
        derivs = problem.table.data_derivatives(x, snr)   # x does not move between cycles

    x0, h0 = x, h
    history: list[CycleRecord] = []
    prev_inf = math.inf
    stopped = None  # the record that passed the stop test
    for _ in range(N_MAX + 1):
        rec, derivs = inner_descent(problem, x, h, lam, sigma, derivs)
        history.append(rec)
        if (rec.h_inf <= EPS
                and problem.kkt_residual(rec.x, rec.lam_hat, rec.h, derivs[0]) <= 10.0 * EPS):
            stopped = rec
            break
        lam, sigma, sigma_grew = update_state(lam, sigma, sigma_grew, rec.h_inf, rec.lam_hat,
                                              prev_inf)
        if sigma > SIGMA_MAX:
            break
        x, h, prev_inf = rec.x, rec.h, rec.h_inf

    # without a stationary feasible record, the lowest violation wins,
    # energy breaking ties and the earliest cycle breaking those
    rec = stopped if stopped is not None else min(history, key=lambda c: (c.h_inf, c.energy_j))
    x, hinf = rec.x, rec.h_inf
    if stopped is None and h0[0] >= -EPS and all(c.h[0] < -EPS for c in history):
        # every cycle undershot the floor the start point meets: the start
        # point is returned instead (a cold solve's is the average allocation)
        x, hinf = x0, _violation(h0)
    elif rec.inner_reason != "gradient":
        _log.warning("returned iterate's inner loop stopped on %s (cycle %d, %d steps, "
                     "h_inf %.3g)", rec.inner_reason, history.index(rec), rec.inner_steps,
                     rec.h_inf)
    # guard against overspend: scale every column of the iterate whose sum
    # is above the budget back until none is; a factor of at most 1 - 2**-52
    # lowers each entry by at least one ulp, so the loop ends with the sums exact
    sums = problem.layout.column_sums(x * cfg.p_t)
    if np.count_nonzero(sums > cfg.p_t):
        while np.count_nonzero(over := sums > cfg.p_t):
            shrink = np.ones_like(sums)   # divide only these sums: an empty column's is 0
            shrink[over] = np.minimum(cfg.p_t / sums[over], 1.0 - 2.0 ** -52)
            x = x * shrink[problem.segment]
            sums = problem.layout.column_sums(x * cfg.p_t)
        hinf = _violation(problem.residuals_scaled(x))
    alloc = problem.to_physical(x)
    figures = compute_metrics(alloc, cfg, sched, table)

    result = SolveResult(
        converged=stopped is not None and bool(hinf <= EPS),
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
