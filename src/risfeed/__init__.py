"""Deterministic near-field power-transfer simulator for an active
multi-antenna feeder (AMAF) illuminating a passive reflective surface
(RIS), with eigenmode analysis, radiation patterns, and parameter
sweeps. All distances are in half-wavelength units."""

from .geometry import ElementLayout, Scenario, make_center_feed, make_end_feed
from .coupling import PropagationMatrix, element_gain, build_T
from .modes import (BeamVector, ModeAnalysis, ModeMetrics, svd_modes,
                    power_transfer, mode_metrics, nonpem_vector,
                    isotropic_loss_db)
from .patterns import (PatternCurve, ExcitationProfile, steering_vector,
                       amaf_pattern, ris_excitation, ris_pattern,
                       sidelobe_level, default_grid)
from .sweep import (SweepRecord, run_grid, convergence_study, optimize_f,
                    analyze_point)

__version__ = "0.1.0"
