"""Build up the mmWave link budget term by term.

Directional antennas at both ends, beam aligned so each contributes its
boresight gain G0, log-distance path loss at 5 mm wavelength, a 10 dB
shadowing margin, and thermal noise over 2.16 GHz.  The SNR seen by a
relay is plotted against its track position; the curve peaks abeam the
radio head.
"""

import numpy as np

from railpower import (LinkConstants, max_antenna_gain, noise_power_dbm, path_loss,
                       reference_config, snr_db, watts_to_dbm)
from railpower.scenario import position_rrh_distance

cfg = reference_config()

print(f"antenna model (half-power beamwidth {cfg.theta_3db:g} deg):")
print(f"  boresight gain G0   : {max_antenna_gain(cfg.theta_3db):6.2f} dB at each end")

print("\nlink budget at the cell edge vs abeam (transmit power 30 dBm):")
consts = LinkConstants.from_config(cfg)
print(f"  noise power         : {consts.p_noise_dbm:7.2f} dBm")
for label, d in (("abeam", cfg.d0), ("cell edge", position_rrh_distance(cfg, 0.0))):
    pl = path_loss(d, cfg.wavelength, cfg.pathloss_exp)
    snr = snr_db(30.0, d, 0.0, cfg)
    print(f"  {label:9s} d={d:6.2f} m  path loss {pl:6.2f} dB  SNR {snr:6.2f} dB")

print("\nSNR profile along the track (head relay, budget power):")
xs = np.linspace(0.0, cfg.d_l, 9)
p_dbm = watts_to_dbm(cfg.p_t)
for x in xs:
    s = snr_db(p_dbm, position_rrh_distance(cfg, x), 0.0, cfg)
    bar = "#" * int(max(s - 20, 0))
    print(f"  x={x:6.1f} m  SNR {s:6.2f} dB  {bar}")

print("\nsanity: closed forms")
print(f"  G0(30)  = {max_antenna_gain(30.0):.4f} dB")
print(f"  N(2.16 GHz, NF 6) = {noise_power_dbm(2.16e9, 6.0):.4f} dBm")

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    xs = np.linspace(0.0, cfg.d_l, 400)
    snrs = snr_db(p_dbm, position_rrh_distance(cfg, xs), 0.0, cfg)
    fig, ax = plt.subplots(figsize=(7, 4))
    ax.plot(xs, snrs)
    ax.set_xlabel("track position [m]")
    ax.set_ylabel("SNR [dB]")
    ax.set_title("Received SNR along the cell (full budget)")
    ax.grid(alpha=0.3)
    fig.tight_layout()
    fig.savefig("link_budget_snr.png", dpi=150)
    print("\nwrote link_budget_snr.png")
except ImportError:
    print("\nmatplotlib not available, skipping the plot")
