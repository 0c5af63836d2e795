"""Closed-form data oracle for the free-space link (test helper only).

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

from railpower import snr_linear_per_watt
from railpower.metrics import active_entries


def _entry_offsets(cfg, sched, mask):
    """(u at the start, u at the end) of every active entry, compact order."""
    if cfg.pathloss_exp != 2:
        raise ValueError("the closed form needs pathloss_exp == 2")
    relay, seg = active_entries(mask)
    shift = relay * cfg.d_mr + cfg.d_l / 2.0
    return (cfg.v * sched.boundaries[seg] - shift,
            cfg.v * sched.boundaries[seg + 1] - shift)


def closed_form_data(cfg, sched, mask, p):
    """Per-entry data D_k [bits] and its first two derivatives in P_k
    [bits/W, bits/W^2] for compact powers p [W], each (K,)."""
    u0, u1 = _entry_offsets(cfg, sched, mask)
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
