"""Deterministic link-level simulator and analytics for surface identification.

Modules: codes (identity sequences and their correlation structure), channel
(correlated Rayleigh fading and the cascaded gain), signal (frame synthesis),
detector (max-correlation receiver), analysis (closed-form error
probabilities), montecarlo (seeded trial runner), cli (experiment front door).
"""

# the one version string: cli embeds it in artifacts, pyproject.toml reads it
__version__ = "0.3.0"

from .analysis import (
    NumericalFailure,
    OperatingPoint,
    TheoryCurve,
    gil_pelaez_cdf,
    pf_single_bound,
    pf_two,
    pmiss_single,
    pmiss_two,
    rayleigh_cf,
    required_ris_size,
)
from .channel import (
    LinkBudget,
    RisGeometry,
    cascaded_gain,
    correlation_matrix,
    identity_correlation,
    path_gain,
    sample_channel,
)
from .codes import (
    BinarySequence,
    CodeBook,
    CrossCorrPmf,
    build_codebook,
    circular_shift,
    cross_corr_pmf,
    distinct_shift_fraction,
    hadamard_matrix,
    partial_cross_corr,
    set_quality,
)
from .detector import DetectionReport, correlate, detect, run_ris_id
from .montecarlo import (
    ConfusionMatrix,
    Estimate,
    TrialPlan,
    confusion,
    estimate_pf,
    estimate_pmiss,
    wilson_interval,
)
from .signal import (
    ReceivedFrame,
    RisProfile,
    noise_variance_from_bandwidth,
    psrp_phase,
    synthesize_frame,
)
