"""Compare the four reference power allocators on one traversal.

Constant hands every covered relay P_T/M and leaves budget on the table
while the train enters or leaves; average, random, and CSI-based all
spend the full budget in every segment and differ only in how they split
it.  The CSI-based rule weights inversely by channel gain, so the relay
farthest from the radio head gets the most power.
"""

import numpy as np

from railpower import (ChannelSnapshot, average_alloc, build_gain_table, compute_metrics,
                       constant_alloc, csi_alloc, random_alloc, reference_config,
                       segment_boundaries, validate_alloc)

cfg = reference_config()
sched = segment_boundaries(cfg)
table = build_gain_table(cfg, sched)
rng = np.random.default_rng(cfg.seed)

snap = ChannelSnapshot.from_scenario(cfg, sched)
schemes = {
    "constant": constant_alloc(cfg, sched),
    "average": average_alloc(cfg, sched),
    "random": random_alloc(cfg, sched, rng),
    "csi": csi_alloc(cfg, sched, snap),
}

print("power matrices [W] (rows: relays, columns: segments)")
for name, alloc in schemes.items():
    print(f"\n{name}:")
    for row in alloc.p:
        print("  " + " ".join(f"{x:5.2f}" for x in row))
    issues = validate_alloc(alloc, cfg, sched)
    print(f"  column sums: {np.array_str(alloc.column_sums(), precision=2)}")
    print(f"  validation : {'clean' if not issues else issues}")

print("\nheadline metrics:")
print(f"{'scheme':<10}{'E [J]':>8}{'D [Gbit]':>10}{'EE [Gbit/J]':>13}{'SE':>7}")
for name, alloc in schemes.items():
    m = compute_metrics(alloc, cfg, sched, table)
    print(f"{name:<10}{m.energy_j:8.2f}{m.data_bits / 1e9:10.1f}"
          f"{m.ee_bits_per_j / 1e9:13.2f}{m.se_bits_per_s_per_hz:7.2f}")

print("\nnote how the CSI split orders power against channel gain in a"
      " stage-two segment:")
j = cfg.num_relays          # first stage-two segment (1-based)
gains = snap.h2[:, j - 1]
powers = schemes["csi"].p[:, j - 1]
for i in range(cfg.num_relays):
    print(f"  relay {i + 1}: |h|^2 = {gains[i]:.3e}  ->  P = {powers[i]:.3f} W")
