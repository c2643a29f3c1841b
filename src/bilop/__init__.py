"""bilop: desk-scale numerics for bilinear operators with a line singularity."""

from .signal import (
    CoronaMask, Interval, SampledFunction, Spectrum, corona, corona_masks, dft_forward,
    dft_inverse, hardy_littlewood_max, lp_norm, make_bump, spectral_derivative,
)

__all__ = [
    "Interval", "SampledFunction", "Spectrum", "CoronaMask", "dft_forward", "dft_inverse",
    "lp_norm", "corona", "corona_masks", "hardy_littlewood_max", "spectral_derivative", "make_bump",
]
__version__ = "0.1.0"
