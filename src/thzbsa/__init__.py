"""Wideband THz multi-user hybrid beamforming with beam-split-aware correction."""

from .bsa import apply_bsa, bsa_baseband, sd_analog, sd_oracle_beamformers
from .channel import (ChannelSet, PathParams, array_gain, dirichlet_sinc,
                      draw_paths, frequency_ratios, generate_channel,
                      steering_kernel, steering_vector, subcarrier_frequencies)
from .config import (ConfigError, PROFILES, SystemConfig, build_config,
                     config_hash, parse_config_file)
from .harness import (METHODS, SweepResult, SweepSpec, TrialResult, emit,
                      load_sweep_json, run_sweep, run_trial)
from .metrics import RateReport, fully_digital_yardstick, power_constraint_residual, sum_rate
from .omp import (BeamformerSet, DegenerateChannelError, Dictionary,
                  baseband_zf, build_dictionaries, effective_channel,
                  omp_hybrid_beamformer, omp_select, sd_dictionary,
                  unconstrained_combiners, unconstrained_precoders)
from .phase_ops import (from_phases, scale_analog_matrix, scale_beamformer,
                        unwrap_phases)

__version__ = "0.1.0"
