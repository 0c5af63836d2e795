"""Energy-aware transmit power allocation for train-roof mobile relays.

A desk-scale simulator for a train crossing a trackside mmWave cell with
several roof relays: traversal geometry and timing, the beam-aligned
boresight-gain / path-loss / Rician link model, delivered-data and energy
metrics, four reference power allocators plus a multiplier-penalty
energy minimiser, an RSRP-window Doppler estimator, and a reproducible
experiment harness with a small CLI.
"""

from .scenario import (KMH_TO_MPS, EntryLayout, ScenarioConfig, SegmentSchedule,
                       dbm_to_watts, entry_layout, mr_position, mr_rrh_distance,
                       mrs_in_cell, reference_config, segment_boundaries, watts_to_dbm)
from .radio import (link_constant_db, max_antenna_gain, noise_power_dbm, path_loss,
                    sample_fading_power, sample_rician_envelope, snr_db, snr_linear_per_watt)
from .metrics import (AllocationMatrix, GainTable, MetricsRecord, build_gain_table,
                      compute_metrics, energy_efficiency, sample_fading_trace,
                      spectral_efficiency, total_energy)
from .allocators import average_alloc, constant_alloc, csi_alloc, random_alloc
from .optimizer import InfeasibleDataFloor, SolveResult, data_floor, kkt_residual, solve
from .doppler import (DopplerTable, RsrpWindow, build_table, estimate_doppler,
                      max_doppler, rsrp_at, true_doppler)
from .configio import ConfigError, HarnessOptions, SCHEMES, load_config, scenario_hash
from .harness import (RunRecord, SweepSpec, emit_plot_data,
                      monte_carlo_velocity_error, run_point, run_scenario, sweep,
                      write_csv)

__version__ = "0.1.0"
