"""Sample the Rician channel and estimate Doppler from RSRP windows.

The fading envelope is the magnitude of a complex Gaussian with a
line-of-sight mean; with a 10 dB K-factor and unit RMS its power factor
|r|^2 / E[r^2] wobbles around 1 (0 dB).  Doppler estimation never touches the carrier: a window of eleven
RSRP samples pins down the track position, and the stored relative shift
at the nearest stored window is rescaled by v / wavelength.
"""

import numpy as np

from railpower import (FadingModel, RsrpWindow, build_table, estimate_doppler,
                       max_doppler, reference_config, rsrp_at, sample_fading_power,
                       sample_rician_envelope, true_doppler)

rng = np.random.default_rng(1)
cfg = reference_config()

model = FadingModel.from_k_db(cfg.rician_k)
r = sample_rician_envelope(model, rng, size=200_000)
power = sample_fading_power(model, rng, size=200_000)
gamma = -10.0 * np.log10(power)   # dB attenuation
print("Rician envelope (K = 10 dB, unit RMS):")
print(f"  mean envelope       : {r.mean():.4f}")
print(f"  second moment       : {(r ** 2).mean():.4f} (expect {model.rms ** 2:.1f})")
print(f"  mean power factor   : {power.mean():.4f} (expect 1.0)")
print(f"  5th/95th pct of dB attenuation: "
      f"{np.percentile(gamma, 5):+.2f} / {np.percentile(gamma, 95):+.2f} dB")

table = build_table(cfg, x_s=1.0, L=5)
f_max = max_doppler(cfg)
print(f"\nDoppler table: {len(table)} positions, f_max = {f_max:.0f} Hz")
print("position  f_rel    f_d [Hz]   RSRP at centre [dBm]")
for k in (0, 45, 95, 145, 190):
    x = float(table.positions[k])
    print(f"{x:8.1f}  {table.f_rel[k]:+.3f}  {table.f_rel[k] * f_max:+9.0f}"
          f"   {rsrp_at(cfg, x):8.2f}")

print("\nnoisy estimation (1 dB RSRP noise), ten random positions:")
err = []
for _ in range(10):
    k = int(rng.integers(0, len(table)))
    x = float(table.positions[k])
    noisy = RsrpWindow(center=x, values=table.windows[k] + rng.normal(0, 1.0, 11))
    est = estimate_doppler(table, noisy, cfg)
    truth = true_doppler(cfg, x)
    err.append(abs(est - truth))
    print(f"  x={x:6.1f} m  true {truth:+8.0f} Hz  est {est:+8.0f} Hz  "
          f"err {abs(est - truth):6.0f} Hz")
print(f"median error over these trials: {np.median(err):.0f} Hz "
      f"(one-sample ambiguity bound {f_max / cfg.d0:.0f} Hz)")

# the table round-trips through a plain text file for inspection
table.save("doppler_table.txt")
print("\nwrote doppler_table.txt (position, f_rel, 11 RSRP values per row)")
