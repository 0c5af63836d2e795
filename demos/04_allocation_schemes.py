"""Compare the four reference power allocators on one traversal.

Constant hands every covered relay P_T/M and leaves budget on the table
while the train enters or leaves; average, random, and CSI-based all
spend the full budget in every segment and differ only in how they split
it.  The CSI-based rule weights inversely by channel gain, read from the
gain table at each segment's midpoint node, so the relay farthest from
the radio head gets the most power.
"""

import numpy as np

from railpower import (average_alloc, build_gain_table, compute_metrics, constant_alloc,
                       csi_alloc, entry_layout, random_alloc, reference_config,
                       segment_boundaries)

cfg = reference_config()
sched = segment_boundaries(cfg)
table = build_gain_table(cfg, sched)
rng = np.random.default_rng(cfg.seed)

schemes = {
    "constant": constant_alloc(cfg, sched),
    "average": average_alloc(cfg, sched),
    "random": random_alloc(cfg, sched, rng),
    "csi": csi_alloc(cfg, sched, table),
}

print("power matrices [W] (rows: relays, columns: segments)")
for name, alloc in schemes.items():
    print(f"\n{name}:")
    for row in alloc.p:
        print("  " + " ".join(f"{x:5.2f}" for x in row))
    sums = alloc.column_sums()
    feasible = (alloc.layout is entry_layout(cfg) and np.all(alloc.values >= 0.0)
                and np.all(sums <= cfg.p_t * (1.0 + 1e-9)))
    print(f"  column sums: {np.array_str(sums, precision=2)}")
    print(f"  feasible   : {'yes' if feasible else 'no'} (on the layout, nonnegative,"
          " within P_T)")

print("\nheadline metrics:")
print(f"{'scheme':<10}{'E [J]':>8}{'D [Gbit]':>10}{'EE [Gbit/J]':>13}{'SE':>7}")
for name, alloc in schemes.items():
    m = compute_metrics(alloc, cfg, sched, table)
    print(f"{name:<10}{m.energy_j:8.2f}{m.data_bits / 1e9:10.1f}"
          f"{m.ee_bits_per_j / 1e9:13.2f}{m.se_bits_per_s_per_hz:7.2f}")

print("\nnote how the CSI split orders power against channel gain in a"
      " stage-two segment:")
j = cfg.num_relays          # first stage-two segment (1-based)
# the segment's entries run in relay order; node quad_n/2 is its midpoint
gains = table.gains[table.layout.segment == j - 1, cfg.quad_n // 2]
powers = schemes["csi"].p[:, j - 1]
for i in range(cfg.num_relays):
    print(f"  relay {i + 1}: SNR per watt at mid-segment = {gains[i]:.3e} /W"
          f"  ->  P = {powers[i]:.3f} W")
