"""Smooth compactly supported windows used throughout the library.

All cutoffs are built from the single C-infinity germ ``exp(-1/t)``, so
every split, truncation and mollification in the library shares one fixed,
reproducible profile family.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "cinf_germ",
    "smooth_step",
    "smooth_cutoff",
    "smooth_bump",
]


def cinf_germ(t):
    """exp(-1/t) for t > 0, zero otherwise (vectorized, overflow-safe)."""
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    pos = t > 0
    out[pos] = np.exp(-1.0 / t[pos])
    return out


def smooth_step(t):
    """C-infinity step: 0 for t <= 0 or NaN, 1 for t >= 1, germs on 0 < t < 1 only."""
    t = np.asarray(t, dtype=float)
    out = np.where(t >= 1.0, 1.0, 0.0)
    band = (t > 0.0) & (t < 1.0)
    a, b = cinf_germ(t[band]), cinf_germ(1.0 - t[band])
    out[band] = a / (a + b + np.finfo(float).tiny)
    return out[()]


def smooth_cutoff(t):
    """Even cutoff equal to 1 on [-1, 1] and supported in [-2, 2].

    Transition happens on 1 < |t| < 2 via the smooth step.
    """
    return 1.0 - smooth_step(np.abs(t) - 1.0)


def smooth_bump(t):
    """The standard bump exp(-1/(1-t^2)) on (-1, 1), normalized to peak 1."""
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    inside = np.abs(t) < 1.0
    ti = t[inside]
    out[inside] = np.exp(1.0 - 1.0 / (1.0 - ti * ti))
    return out
