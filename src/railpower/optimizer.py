"""Energy-minimising power allocation via the method of multipliers.

The problem: choose the transmit power matrix P to minimise traversal
energy subject to a delivered-data floor (D >= D_min, binding at the
optimum and therefore driven as the equality D = D_min) and a
per-segment power budget (column sums of P at most P_T).  The merit
function is the augmented Lagrangian

    phi(P, lam, sigma) = E(P) - lam . h(P) + sigma * h(P) . h(P)

minimised by projected gradient descent in an inner loop, with the
multipliers corrected and the penalty factor grown between cycles
according to how fast the residual norm shrinks:

  (a) ||h_now||_inf >= ||h_prev||_inf        -> grow sigma, keep lam
  (b) sigma grew last cycle, or the norm fell
      below a quarter of the previous one    -> lam <- lam - 2*sigma*h
  (c) otherwise                              -> grow sigma, keep lam

Inside the solver, powers are scaled by P_T and data by D_min so the
residual components are comparable under the max norm; results are
reported in physical units.  :class:`Problem` over a :class:`GainTable`
is the one representation of the merit function, its gradient and the
residuals.  The five solver settings (initial penalty, growth factor,
tolerance, cycle and step caps) live in one frozen
:class:`SolverOptions`, which owns their defaults and validation;
:class:`MultiplierState` holds only the iterate.

Budget handling: budget rows are one-sided caps, their residual clipped
at zero below the budget.  The literal equality form would pin the
energy at P_T times the traversal time and erase the optimisation gain.
The KKT residual refers to the same inequality-form optimality system.

Backtracking screen: each inner step tries alpha = 2**-k, k = 0..59, and
accepts the first candidate y_k = max(x + alpha d, 0) with phi(y_k) <
phi(x) (Nocedal & Wright, Numerical Optimization, 2006, sec. 3.1).
Where the budget caps bind the accepted exponent sits near 8-10, so most
merit evaluations go to rejected candidates.  Only the data residual h0
of phi needs the log1p quadrature pass; the energy and the budget rows
are column sums.  The scaled data is a positive-weighted sum of concave,
nondecreasing functions f_ij of each x_ij, so with F = h0 (Boyd &
Vandenberghe, Convex Optimization, 2004, sec. 3.1.3)

    F(y) <= F(x) + grad F(x) . (y - x)                      (tangent)
    F(y) >= F(x) + sum over y_ij < x_ij of f'_ij(0) (y_ij - x_ij)

and phi is the cheap part plus q(h0) = sigma h0^2 - lam_0 h0, a convex
quadratic whose minimum over that interval bounds phi(y_k) from below.
:meth:`Problem.screen_steps` computes the bound for all 60 candidates in
one vectorised pass from F(x) and grad F(x), which the gradient pass has
already computed, and rejects a candidate only when the bound minus a
rounding margin is at least phi(x).  The margin rests on one relative
error bound, eps = (n_q + 64) u, with u = 2**-53 the unit roundoff and
n_q = M * S * (Q + 1) the number of quadrature terms: every sum formed
here or in :meth:`Problem.phi` has at most n_q terms, each computed with
a few roundings (log1p within a few ulp), and a sum of n terms in any
order is within (n - 1) u of the sum of its magnitudes (Higham, Accuracy
and Stability of Numerical Algorithms, 2002, sec. 4.2).  Hence

  * computed h0 at x or at y is within eps (2 + |h0|) of F, since the
    data D / D_min = 1 + F is a sum of nonnegative terms;
  * the computed gradient and slopes are within eps relative per entry,
    so the linear terms are off by at most 2 eps sum f'(0) |y - x|;
  * computed column sums minus one, in the screen and in phi, are within
    2 eps (1 + |b|) of each other, which moves a budget term
    -lam_j b + sigma b^2 by at most that times (|lam_j| + 2 sigma |b|);
  * the energy and the final assembly of phi and of the bound are within
    2 eps of the sum of the magnitudes of their terms.

The interval for h0 is widened by the first two items and the bound is
lowered by the last two, with room to spare.  The remaining candidates
are evaluated exactly, in order, so the accepted step, the iterate, phi,
the step count and the stop reason are those of the plain loop, bit for
bit.  The screen costs about three merit evaluations, and plain
backtracking pays k + 1 for a step accepted at k, so the screen runs
only while the last two accepted exponents are both at least 3.  Near
the reference scenario steps accept at k <= 2 (about 1.4 rejected
candidates per step) and an exponent of 3 or more is an isolated event:
over the reference-study benchmark workload (seed 301) the rule fires
on 17 of 26,532 steps, where a rule on the last exponent alone would
fire on 679 and save nothing.  Where the caps bind the exponent stays
near 8-10 and the rule fires on 98% of steps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .allocators import average_alloc
from .metrics import AllocationMatrix, GainTable, build_gain_table, total_energy
from .scenario import ScenarioConfig, SegmentSchedule, segment_boundaries


class InfeasibleDataFloor(ValueError):
    """The requested data floor exceeds what the full budget can deliver."""


# backtracking candidates alpha = 2**-k, k < 60; a list for the plain loop
_ALPHAS = np.ldexp(1.0, -np.arange(60))
_ALPHA_LIST = _ALPHAS.tolist()


def _linf(v) -> float:
    return float(np.max(np.abs(v))) if np.size(v) else 0.0


@dataclass(frozen=True)
class SolverOptions:
    """Solver settings: the one place their defaults are written."""

    sigma0: float = 1.0      # initial penalty factor, > 0
    growth: float = 4.0      # penalty growth factor, > 1
    eps: float = 1e-4        # tolerance on the scaled residual max norm
    n_max: int = 100         # outer cycle cap, >= 0
    inner_cap: int = 5000    # inner gradient steps per cycle, >= 1

    def __post_init__(self):
        if self.sigma0 <= 0 or self.growth <= 1 or self.eps <= 0:
            raise ValueError("require sigma0 > 0, growth > 1, eps > 0")
        if self.n_max < 0 or self.inner_cap < 1:
            raise ValueError("require n_max >= 0, inner_cap >= 1")


@dataclass(frozen=True)
class MultiplierState:
    """The outer iterate: multipliers, penalty factor, and flags."""

    lam: np.ndarray          # (2M+N-1,): data row first, then budget rows
    sigma: float             # penalty factor
    sigma_grew: bool = False # bookkeeping for case (b); first cycle counts as flat
    converged: bool = False

    @classmethod
    def initial(cls, cfg: ScenarioConfig, options: SolverOptions) -> "MultiplierState":
        lam = np.zeros(2 * cfg.num_relays + cfg.num_bins - 1)
        return cls(lam=lam, sigma=options.sigma0)


def data_floor(cfg: ScenarioConfig, sched: SegmentSchedule, table: GainTable) -> float:
    """Data floor [bits]: explicit override, else rho times the average scheme's data."""
    if cfg.d_min_bits is not None:
        return float(cfg.d_min_bits)
    return cfg.rho * table.total_data(average_alloc(cfg, sched).p)


class Problem:
    """Scaled view of one scenario's optimisation problem.

    Holds the precomputed gain table and the normalisation constants;
    powers are handled as x = P / P_T and data as D / D_min.  The merit
    function value, gradient, and residuals are all expressed in these
    scaled units so a single tolerance applies across constraint rows.
    """

    def __init__(self, cfg: ScenarioConfig, sched: SegmentSchedule, d_min: float,
                 table: GainTable):
        if d_min <= 0.0:
            raise ValueError("the data floor must be positive")
        self.cfg = cfg
        self.sched = sched
        self.d_min = d_min
        self.table = table
        self.mask = self.table.mask
        self.t_norm = sched.durations / sched.total_time
        self.p_t = cfg.p_t
        # dD_scaled/dx = (P_T / D_min) * dD/dP
        self._dscale = self.p_t / d_min

    def to_scaled(self, p: np.ndarray) -> np.ndarray:
        return np.where(self.mask, p / self.p_t, 0.0)

    def to_physical(self, x: np.ndarray) -> AllocationMatrix:
        return AllocationMatrix(p=np.where(self.mask, x * self.p_t, 0.0),
                                mask=self.mask)

    def energy_scaled(self, x: np.ndarray) -> float:
        return float(self.t_norm @ x.sum(axis=0))

    def residuals_scaled(self, x: np.ndarray) -> np.ndarray:
        h = np.empty(x.shape[1] + 1)
        h[0] = self.table.total_data(x * self.p_t) / self.d_min - 1.0
        h[1:] = np.maximum(x.sum(axis=0) - 1.0, 0.0)
        return h

    def phi(self, x: np.ndarray, lam: np.ndarray, sigma: float,
            h: np.ndarray | None = None) -> float:
        """Merit value; ``h`` passes in the residuals at x."""
        if h is None:
            h = self.residuals_scaled(x)
        return self.energy_scaled(x) - float(lam @ h) + sigma * float(h @ h)

    def grad_data_scaled(self, x: np.ndarray) -> np.ndarray:
        """d(D / D_min)/dx on every entry."""
        return self.table.grad_total_data(x * self.p_t) * self._dscale

    def grad_phi(self, x: np.ndarray, lam: np.ndarray, sigma: float,
                 h: np.ndarray | None = None, dd: np.ndarray | None = None) -> np.ndarray:
        """Merit gradient; ``h`` and ``dd`` pass in residuals and data gradient at x."""
        if h is None:
            h = self.residuals_scaled(x)
        if dd is None:
            dd = self.grad_data_scaled(x)
        # below the cap the clipped budget rows contribute nothing
        coef = np.where(h[1:] > 0.0, -lam[1:] + 2.0 * sigma * h[1:], 0.0)
        g = self.t_norm[None, :] + (-lam[0] + 2.0 * sigma * h[0]) * dd + coef[None, :]
        return np.where(self.mask, g, 0.0)

    @cached_property
    def _screen_consts(self) -> tuple[np.ndarray, np.ndarray, float]:
        """Slope of the scaled data at zero power, the (M*S, S+1) map from a
        flattened x to its column sums and energy, and the relative error
        bound eps of the module docstring."""
        m, s = self.mask.shape
        basis = np.zeros((m, s, s + 1))
        basis[:, np.arange(s), np.arange(s)] = 1.0
        basis[:, :, s] = self.t_norm
        eps = (self.table.gains.size + 64) * 2.0 ** -53
        return (self.grad_data_scaled(np.zeros((m, s))).ravel(),
                basis.reshape(m * s, s + 1), eps)

    def screen_steps(self, x: np.ndarray, d: np.ndarray, h: np.ndarray, dd: np.ndarray,
                     lam: np.ndarray, sigma: float,
                     phi: float) -> tuple[np.ndarray, np.ndarray]:
        """Backtracking candidates and the ones certified not to decrease phi.

        Returns ``(y, rejected)``: ``y[k]`` is the candidate
        max(x + 2**-k d, 0) exactly as the plain loop builds it, and
        ``rejected[k]`` is True only where ``self.phi(y[k], lam, sigma) >=
        phi`` is proven; ``h`` and ``dd`` are the residuals and the scaled
        data gradient at x.  The certificate is set out in the module
        docstring.
        """
        slope0, basis, eps = self._screen_consts
        xf = x.ravel()
        y = np.maximum(xf + _ALPHAS[:, None] * d.ravel(), 0.0)      # (K, M*S)
        step = y - xf
        # data residual: tangent bound above, slope-at-zero bound below
        lin = step @ np.column_stack((dd.ravel(), slope0))
        neg = np.minimum(step, 0.0) @ slope0
        up, down = h[0] + lin[:, 0], h[0] + neg
        moved = lin[:, 1] - 2.0 * neg                    # sum f'(0) |y - x|
        slack = eps * (4.0 + abs(h[0]) + 2.0 * np.maximum(up, -down) + 4.0 * moved)
        lo, hi = down - slack, up + slack
        # q(t) = sigma t^2 - lam_0 t is smallest on [lo, hi] at t
        t = np.minimum(np.maximum(lam[0] / (2.0 * sigma), lo), hi)
        t_abs = np.maximum(hi, -lo)
        # energy and budget rows
        cols_energy = y @ basis
        energy = cols_energy[:, -1]
        b = np.maximum(cols_energy[:, :-1] - 1.0, 0.0)
        b_abs = np.abs(b)
        gap = 2.0 * eps * (1.0 + b_abs)
        bound = energy + np.einsum("ks,ks->k", b, sigma * b - lam[1:]) \
            + t * (sigma * t - lam[0])
        margin = 2.0 * eps * (energy + t_abs * (abs(lam[0]) + sigma * t_abs)) \
            + np.einsum("ks,ks->k", gap, 3.0 * np.abs(lam[1:]) + 4.0 * sigma * (b_abs + gap))
        rejected = bound - margin >= phi
        return y.reshape(len(_ALPHAS), *x.shape), rejected


@dataclass(frozen=True)
class InnerInfo:
    steps: int
    converged: bool
    reason: str            # "gradient" | "stall" | "cap"
    phi_start: float
    phi_end: float
    grad_norm: float


def inner_descent(problem: Problem, p0: AllocationMatrix, lam: np.ndarray,
                  sigma: float, options: SolverOptions) -> tuple[AllocationMatrix, InnerInfo]:
    """Minimise phi(., lam, sigma) by projected gradient descent from p0.

    Steps along d = -grad(phi); after every step, negative entries on the
    active mask are clipped to zero.  The stepsize backtracks by halving
    from 1 until phi decreases.  Once the last two accepted steps each needed
    three or more halvings, candidates that :meth:`Problem.screen_steps`
    proves to be rejected are skipped unevaluated; the accepted step is
    the same.  The residuals of each evaluated point are kept, so the
    accepted iterate's data pass is not repeated.  Stops once the
    projected gradient norm falls below ``options.eps``, on a backtracking
    stall, or at the step cap; the last two flag the result rather than
    raising.
    """
    x = np.maximum(problem.to_scaled(p0.p), 0.0)
    h = problem.residuals_scaled(x)
    phi = problem.phi(x, lam, sigma, h)
    phi_start = phi
    steps = 0
    k_last = k_before = 0      # exponents of the last two accepted steps
    converged, reason, gnorm = False, "cap", math.inf

    while steps < options.inner_cap:
        dd = problem.grad_data_scaled(x)
        g = problem.grad_phi(x, lam, sigma, h, dd)
        d = -g
        d[(x <= 0.0) & (d < 0.0)] = 0.0       # projected direction at the bound
        gnorm = float(np.linalg.norm(d))
        if gnorm <= options.eps:
            converged, reason = True, "gradient"
            break
        x_new, phi_new, tries = None, None, None
        ks = range(len(_ALPHA_LIST))
        if min(k_last, k_before) >= 3:
            tries, rejected = problem.screen_steps(x, d, h, dd, lam, sigma, phi)
            ks = np.flatnonzero(~rejected).tolist()
        for k in ks:
            x_try = np.maximum(x + _ALPHA_LIST[k] * d, 0.0) if tries is None else tries[k]
            h_try = problem.residuals_scaled(x_try)
            phi_try = problem.phi(x_try, lam, sigma, h_try)
            if phi_try < phi:
                x_new, h_new, phi_new = x_try, h_try, phi_try
                k_before, k_last = k_last, k
                break
        if x_new is None:                  # cannot decrease: numerically stationary
            converged, reason = True, "stall"
            break
        x, h, phi = x_new, h_new, phi_new
        steps += 1

    return problem.to_physical(x), InnerInfo(
        steps=steps, converged=converged, reason=reason,
        phi_start=phi_start, phi_end=phi, grad_norm=gnorm,
    )


def update_state(state: MultiplierState, h_now: np.ndarray, h_prev: np.ndarray | None,
                 options: SolverOptions) -> MultiplierState:
    """Apply the between-cycle penalty/multiplier correction rules.

    ``h_prev`` is None on the first cycle, which then counts as a
    multiplier-correction cycle (the penalty factor did not grow before
    it and any finite residual beats an undefined predecessor).
    """
    hinf = _linf(h_now)
    if hinf <= options.eps:
        return replace(state, converged=True)
    prev_inf = _linf(h_prev) if h_prev is not None else math.inf
    if hinf >= prev_inf:                                        # (a)
        return replace(state, sigma=options.growth * state.sigma, sigma_grew=True)
    if state.sigma_grew or hinf <= 0.25 * prev_inf:             # (b)
        return replace(state, lam=state.lam - 2.0 * state.sigma * h_now,
                       sigma_grew=False)
    return replace(state, sigma=options.growth * state.sigma, sigma_grew=True)  # (c)


@dataclass(frozen=True)
class CycleRecord:
    cycle: int
    h_inf: float
    sigma: float
    phi: float
    energy_j: float
    inner_steps: int
    inner_reason: str


@dataclass(frozen=True)
class SolveResult:
    alloc: AllocationMatrix
    converged: bool
    cycles: int
    d_min: float
    energy_j: float
    data_bits: float
    h_inf: float                   # scaled residual max norm at the solution
    lam: np.ndarray                # multiplier iterate (scaled units)
    lam_hat: np.ndarray            # first-order multiplier estimate lam - 2*sigma*h
    sigma: float
    history: tuple[CycleRecord, ...] = field(repr=False, default=())


def solve(cfg: ScenarioConfig, sched: SegmentSchedule | None = None,
          init: AllocationMatrix | None = None, d_min: float | None = None,
          options: SolverOptions | None = None,
          table: GainTable | None = None) -> tuple[AllocationMatrix, SolveResult]:
    """Run the full multiplier-penalty loop and return the best allocation.

    Raises :class:`InfeasibleDataFloor` when the floor exceeds the data the
    full-budget average allocation can deliver.  A run that exhausts the
    outer cycle budget returns its best iterate flagged as non-converged.
    """
    if sched is None:
        sched = segment_boundaries(cfg)
    if table is None:
        table = build_gain_table(cfg, sched)
    if d_min is None:
        d_min = data_floor(cfg, sched, table)
    if options is None:
        options = SolverOptions()
    state = MultiplierState.initial(cfg, options)

    if d_min <= 0.0:
        # nothing to deliver: the zero matrix is exactly optimal
        zero = AllocationMatrix.zeros(cfg)
        lam = np.zeros(cfg.num_segments + 1)
        result = SolveResult(
            alloc=zero, converged=True, cycles=0, d_min=d_min,
            energy_j=0.0, data_bits=0.0, h_inf=0.0,
            lam=lam, lam_hat=lam, sigma=state.sigma,
        )
        return zero, result

    avg = average_alloc(cfg, sched)
    d_cap = table.total_data(avg.p)
    if d_min > d_cap * (1.0 + 1e-12):
        raise InfeasibleDataFloor(
            f"data floor {d_min:.6g} bits exceeds the {d_cap:.6g} bits deliverable "
            "at the full per-segment budget"
        )

    problem = Problem(cfg, sched, d_min, table)
    current = avg if init is None else init
    history: list[CycleRecord] = []
    h_prev = None
    best = None   # (hinf, energy, alloc, lam_hat, sigma)

    cycles = 0
    while cycles <= options.n_max:
        current, info = inner_descent(problem, current, state.lam, state.sigma, options)
        x = problem.to_scaled(current.p)
        h_now = problem.residuals_scaled(x)
        hinf = _linf(h_now)
        energy = total_energy(current, sched)
        history.append(CycleRecord(
            cycle=cycles, h_inf=hinf, sigma=state.sigma, phi=info.phi_end,
            energy_j=energy, inner_steps=info.steps, inner_reason=info.reason,
        ))
        lam_hat = state.lam - 2.0 * state.sigma * h_now
        # the first iterate within eps ends the loop (update_state tests the
        # same value), so the lowest residual wins, energy breaking ties
        if best is None or (hinf, energy) < best[:2]:
            best = (hinf, energy, current, lam_hat, state.sigma)
        state = update_state(state, h_now, h_prev, options)
        if state.converged:
            break
        h_prev = h_now
        cycles += 1

    hinf, _, alloc, lam_hat, sigma = best
    # guard against marginal overspend: scale any column above the budget back
    sums = alloc.column_sums()
    over = sums > cfg.p_t
    if np.any(over):
        scale = np.where(over, cfg.p_t / np.where(over, sums, 1.0), 1.0)
        alloc = AllocationMatrix(p=alloc.p * scale[None, :], mask=alloc.mask)
        hinf = _linf(problem.residuals_scaled(problem.to_scaled(alloc.p)))

    result = SolveResult(
        alloc=alloc,
        converged=bool(hinf <= options.eps),
        cycles=len(history),
        d_min=d_min,
        energy_j=total_energy(alloc, sched),
        data_bits=table.total_data(alloc.p),
        h_inf=hinf,
        lam=state.lam,
        lam_hat=lam_hat,
        sigma=sigma,
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
    x = problem.to_scaled(alloc.p)
    h0 = table.total_data(alloc.p) / d_min - 1.0
    budget = x.sum(axis=0) - 1.0

    dd = table.grad_total_data(alloc.p) * problem._dscale
    stat = problem.t_norm[None, :] - lam[0] * dd - lam[1:][None, :]
    interior = alloc.mask & (x > 0.0)
    at_bound = alloc.mask & (x <= 0.0)
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
