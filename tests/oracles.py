"""Test oracles: an allocation's feasibility, the closed-form data of the
free-space link, the merit value and gradient at given multipliers, and
the Rician envelope's parameters at a K-factor (test helpers only).

With path-loss exponent 2 and both antennas at boresight, the per-watt
SNR of relay i at time t is A / (d0^2 + u^2), where
u = v t - (i - 1) d_mr - d_l / 2 is the relay's track offset from the
radio head and A = ``snr_linear_per_watt(cfg, 1.0)``.  With
b^2 = d0^2 + p A and c = B / ln 2, and [.] taken between a segment's end
points, entry (i, j) at constant power p delivers

    D   = (c / v) [u ln((u^2 + b^2) / (u^2 + d0^2)) + 2 b atan(u / b)
                   - 2 d0 atan(u / d0)]
    D'  = (c A / v) [atan(u / b) / b]
    D'' = (c A / v) (A / 2b) [-u / (b (u^2 + b^2)) - atan(u / b) / b^2]

the exact integrals that the gain table's quadrature approximates.
"""

from __future__ import annotations

import numpy as np

from railpower import entry_layout, snr_linear_per_watt
from railpower.optimizer import cap_shift


def rician_parameters(k_db):
    """LOS amplitude a and per-component scatter std sigma of the unit-RMS
    Rician envelope of K-factor k_db [dB]: K = a^2 / (2 sigma^2) and
    E[r^2] = a^2 + 2 sigma^2 = 1."""
    k = 10.0 ** (k_db / 10.0)
    sigma2 = 1.0 / (2.0 * (k + 1.0))
    return np.sqrt(2.0 * k * sigma2), np.sqrt(sigma2)


def assert_feasible(alloc, cfg, tol=None):
    """The allocation lies on cfg's layout, with nonnegative powers and
    every column sum within P_T + tol (default 1e-9 P_T)."""
    tol = 1e-9 * cfg.p_t if tol is None else tol
    assert alloc.layout is entry_layout(cfg)
    assert np.all(alloc.values >= 0.0)
    assert np.all(alloc.column_sums() <= cfg.p_t + tol)


def _entry_offsets(cfg, sched, layout):
    """(u at the start, u at the end) of every active entry, compact order."""
    if cfg.pathloss_exp != 2:
        raise ValueError("the closed form needs pathloss_exp == 2")
    relay, seg = layout.relay, layout.segment
    shift = relay * cfg.d_mr + cfg.d_l / 2.0
    return (cfg.v * sched.boundaries[seg] - shift,
            cfg.v * sched.boundaries[seg + 1] - shift)


def closed_form_data(cfg, sched, layout, p):
    """Per-entry data D_k [bits] and its first two derivatives in P_k
    [bits/W, bits/W^2] for compact powers p [W], each (K,)."""
    u0, u1 = _entry_offsets(cfg, sched, layout)
    a = float(snr_linear_per_watt(cfg, 1.0))
    d0 = cfg.d0
    b = np.sqrt(d0 ** 2 + np.asarray(p, dtype=float) * a)
    scale = cfg.bandwidth / np.log(2.0) / cfg.v

    def between(f):
        return f(u1) - f(u0)

    data = scale * between(lambda u: u * np.log((u * u + b * b) / (u * u + d0 * d0))
                           + 2.0 * b * np.arctan(u / b) - 2.0 * d0 * np.arctan(u / d0))
    first = scale * a * between(lambda u: np.arctan(u / b) / b)
    second = scale * a * a / (2.0 * b) * between(
        lambda u: -u / (b * (u * u + b * b)) - np.arctan(u / b) / (b * b))
    return data, first, second


def merit(problem, x, lam, sigma):
    """The augmented Lagrangian phi(x, lam, sigma) of ``problem``, formed
    from x alone: the energy t . s over x's column sums s, minus lam . h,
    plus sigma h . h, with h the floor residual D(x) - 1 and the budget
    rows max(s_j - 1, ``cap_shift(lam, sigma)``)."""
    cols = problem.layout.column_sums(x)
    h = np.concatenate(([problem.table.total_data(x) - 1.0],
                        np.maximum(cols - 1.0, cap_shift(lam, sigma))))
    return float(problem.t_norm @ cols) - float(lam @ h) + sigma * float(h @ h)


def merit_gradient(problem, x, lam, sigma):
    """``Problem.grad_phi`` at x under multipliers lam and penalty sigma: the
    Lagrangian gradient at x's multiplier estimate lam - 2 sigma h, with h
    the residuals shifted by ``cap_shift(lam, sigma)``, and x's scaled data
    gradient."""
    h = problem.residuals_scaled(x, cap_shift(lam, sigma))
    return problem.grad_phi(lam - 2.0 * sigma * h, problem.table.data_derivatives(x)[0])
