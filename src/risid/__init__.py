"""Deterministic link-level simulator and analytics for surface identification.

Modules: codes (identity sequences and their correlation structure), channel
(correlated Rayleigh fading and the cascaded gain), signal (frame synthesis),
detector (max-correlation receiver), analysis (closed-form error
probabilities), montecarlo (seeded trial runner), cli (experiment front door).
Import each name from its module; ``import risid`` loads none of them.
"""

# the one version string: cli embeds it in artifacts, pyproject.toml reads it
__version__ = "0.4.0"
