"""Bilinear symbols sigma(x, alpha, beta), their singular lines, empirical
derivative-class verification, and the cutoff / modulation manipulations used
to reduce x-dependent symbols to x-independent ones.

A symbol is a black-box vectorized evaluator together with declared class
metadata.  Derivative bounds are checked numerically by central finite
differences on sample boxes; nothing is differentiated symbolically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from enum import Enum

import numpy as np

from .bumps import smooth_cutoff, smooth_step
from .signal import SampledFunction

__all__ = [
    "SymbolClass",
    "SingularLine",
    "Symbol",
    "ClassReport",
    "dist_to_line",
    "class_verify",
    "split_low_high",
    "modulate_symbol",
    "modulation_pair",
    "bht_sign_symbol",
    "product_symbol",
    "truncate_near_line",
]


class SymbolClass(Enum):
    """Declared decay class of a symbol's frequency derivatives."""

    HORMANDER = "hormander"   # weight 1 + |alpha| + |beta|
    LINE = "line"             # weight 1 + d((alpha, beta), line)
    LINE_SCALED = "line_scaled"  # weight scale + d((alpha, beta), line)


@dataclass(frozen=True)
class SingularLine:
    """The line {l1*alpha + l2*beta = 0} in the frequency plane.

    Nondegenerate: both coefficients nonzero and distinct, so the line is a
    graph over alpha, beta and alpha + beta.
    """

    l1: float
    l2: float

    def __post_init__(self):
        if self.l1 == 0.0 or self.l2 == 0.0 or self.l1 == self.l2:
            raise ValueError(
                f"degenerate line: need l1, l2 nonzero and distinct, got ({self.l1}, {self.l2})"
            )

    def form(self, alpha, beta):
        """The defining linear form l1*alpha + l2*beta."""
        return self.l1 * np.asarray(alpha) + self.l2 * np.asarray(beta)

    @property
    def norm(self) -> float:
        return math.hypot(self.l1, self.l2)


def dist_to_line(alpha, beta, line: SingularLine):
    """Euclidean distance from (alpha, beta) to the singular line."""
    return np.abs(line.form(alpha, beta)) / line.norm


@dataclass(frozen=True)
class Symbol:
    """Evaluator for sigma(x, alpha, beta) with declared class metadata.

    `eval` must be a pure function accepting numpy arrays (broadcastable) and
    returning complex values; symbols are immutable and safe to share.
    `scale` is the inner frequency scale of the LINE_SCALED class weight.

    `profile`, if set, is an x-independent sigma as a function of
    t = line.form(alpha, beta), read by `eval_direct`.  `bht_sign_symbol`
    sets it; the split, truncation, modulation and `maximal_freq`
    compositions build it from their input's.  Replacing `eval` must reset it.
    """

    eval: callable = field(repr=False)
    line: SingularLine | None = None
    scale: float = 1.0
    x_dependent: bool = True
    declared_class: SymbolClass = SymbolClass.LINE
    name: str = "symbol"
    profile: callable = field(default=None, repr=False)

    def __call__(self, x, alpha, beta):
        out = np.asarray(self.eval(x, alpha, beta), dtype=complex)
        return out

    def weight(self, alpha, beta, homogeneous: bool = False):
        """The class weight entering empirical derivative constants."""
        if self.declared_class is SymbolClass.HORMANDER:
            base = np.abs(alpha) + np.abs(beta)
            return base if homogeneous else 1.0 + base
        if self.line is None:
            raise ValueError("LINE-class symbol needs a singular line")
        d = dist_to_line(alpha, beta, self.line)
        if homogeneous:
            return d
        offset = self.scale if self.declared_class is SymbolClass.LINE_SCALED else 1.0
        return offset + d


def product_symbol() -> Symbol:
    """The constant symbol 1: the pointwise-product operator."""
    return Symbol(
        eval=lambda x, a, b: np.ones(np.broadcast(x, a, b).shape, dtype=complex),
        line=None,
        x_dependent=False,
        declared_class=SymbolClass.HORMANDER,
        name="product",
    )


def bht_sign_symbol(line: SingularLine) -> Symbol:
    """The x-independent sign symbol i*pi*sign(l1*alpha + l2*beta).

    Its value on the line is 0.  That is exact on `eval_direct`'s lattice,
    whose profile view forms t from integers, but not for the float form at
    arbitrary points, which can round an on-line point to a tiny nonzero t.
    """

    def _profile(t):
        return 1j * np.pi * np.sign(t)

    def _eval(x, alpha, beta):
        return _profile(np.broadcast_to(line.form(alpha, beta), np.broadcast(x, alpha, beta).shape))

    return Symbol(
        eval=_eval,
        profile=_profile,
        line=line,
        x_dependent=False,
        declared_class=SymbolClass.LINE,
        name="bht_sign",
    )


# -- finite-difference class verification ---------------------------------


@dataclass(frozen=True)
class ClassReport:
    """Empirical derivative-class constants of a symbol on a sample box.

    `constants[(a, b, c)]` is the max over samples of
    |finite-difference d_x^a d_alpha^b d_beta^c sigma| * weight^(b+c) with the
    inhomogeneous class weight; `constants_homogeneous` uses the homogeneous
    weight (LINE classes only).  PASS means every constant is finite and
    below the ceiling.
    """

    constants: dict
    constants_homogeneous: dict | None
    ceiling: float
    box: tuple
    step: float
    passed: bool

    def constant(self, a: int, b: int, c: int) -> float:
        return self.constants[(a, b, c)]


def _central_diff_offsets(order: int):
    """Offsets (in steps) and weights of the order-`order` central difference."""
    if order == 0:
        return np.array([0.0]), np.array([1.0])
    k = np.arange(order + 1)
    weights = (-1.0) ** k * np.array([math.comb(order, int(i)) for i in k])
    offsets = order / 2.0 - k
    return offsets, weights


def class_verify(
    symbol: Symbol,
    max_order: int,
    box: tuple,
    step: float,
    samples_per_axis: int = 33,
    ceiling: float = 1e4,
) -> ClassReport:
    """Estimate mixed-derivative class constants by central finite differences.

    `box` is ((alpha_lo, alpha_hi), (beta_lo, beta_hi)).  Sample points whose
    finite-difference stencils straddle the singular line closer than 2*step
    are skipped (the caller should choose boxes clear of the line).  Orders
    run over 0 <= a, b, c <= max_order with a > 0 only for x-dependent
    symbols.  Constants are suprema over the sample lattice only; pick
    `samples_per_axis` fine enough to resolve the symbol's transition scales.
    """
    (a_lo, a_hi), (b_lo, b_hi) = box
    alphas = np.linspace(a_lo, a_hi, samples_per_axis)
    betas = np.linspace(b_lo, b_hi, samples_per_axis)
    A, B = np.meshgrid(alphas, betas, indexing="ij")
    if symbol.line is not None:
        safe = dist_to_line(A, B, symbol.line) > 2.0 * step * max(max_order, 1)
        A, B = A[safe], B[safe]
    A = A.ravel()
    B = B.ravel()
    if A.size == 0:
        raise ValueError("sample box contains no points clear of the singular line")
    x_samples = np.linspace(-1.0, 1.0, 5) if symbol.x_dependent else np.array([0.0])

    x_orders = range(max_order + 1) if symbol.x_dependent else [0]
    constants: dict = {}
    constants_hom: dict | None = (
        {} if symbol.declared_class in (SymbolClass.LINE, SymbolClass.LINE_SCALED) else None
    )

    w_in = symbol.weight(A, B, homogeneous=False)
    w_hom = symbol.weight(A, B, homogeneous=True) if constants_hom is not None else None

    for a in x_orders:
        xo, xw = _central_diff_offsets(a)
        for b in range(max_order + 1):
            bo, bw = _central_diff_offsets(b)
            for c in range(max_order + 1):
                co, cw = _central_diff_offsets(c)
                deriv_max = np.zeros(A.shape)
                for x0 in x_samples:
                    acc = np.zeros(A.shape, dtype=complex)
                    for i, wx in zip(xo, xw):
                        for j, wa in zip(bo, bw):
                            for k, wb in zip(co, cw):
                                vals = symbol(x0 + i * step, A + j * step, B + k * step)
                                if not np.all(np.isfinite(vals)):
                                    bad = int(np.flatnonzero(~np.isfinite(np.atleast_1d(vals)))[0])
                                    raise FloatingPointError(
                                        "symbol evaluated non-finite near "
                                        f"(x={x0 + i * step}, alpha={A[bad] + j * step}, "
                                        f"beta={B[bad] + k * step})"
                                    )
                                acc += wx * wa * wb * vals
                    deriv_max = np.maximum(deriv_max, np.abs(acc))
                deriv_max /= step ** (a + b + c)
                constants[(a, b, c)] = float(np.max(deriv_max * w_in ** (b + c)))
                if constants_hom is not None:
                    constants_hom[(a, b, c)] = float(np.max(deriv_max * w_hom ** (b + c)))

    finite = all(np.isfinite(v) for v in constants.values())
    passed = finite and all(v <= ceiling for v in constants.values())
    return ClassReport(
        constants=constants,
        constants_homogeneous=constants_hom,
        ceiling=ceiling,
        box=box,
        step=step,
        passed=passed,
    )


# -- cutoffs, splits, modulations ------------------------------------------


def _times_form(symbol: Symbol, line: SingularLine, factor, **changes) -> Symbol:
    """sigma * factor(line.form(alpha, beta)), `eval` and `profile` from one
    `factor`; it has a profile exactly when `symbol` has one along `line`."""

    def _eval(x, a, b):
        return symbol(x, a, b) * factor(line.form(a, b))

    def _profile(t):
        return symbol.profile(t) * factor(t)

    along = symbol.profile is not None and line == symbol.line
    return replace(symbol, eval=_eval, profile=_profile if along else None, line=line, **changes)


def split_low_high(symbol: Symbol, line: SingularLine | None = None):
    """Split sigma into (sigma0, sigma_inf) along the singular line.

    sigma0 carries the part near the line (cutoff equal to 1 on
    |l1*alpha + l2*beta| <= 1, supported in <= 2); sigma_inf the rest.  The
    two summands reconstruct sigma pointwise.
    """
    line = line or symbol.line
    if line is None:
        raise ValueError("need a singular line to split along")

    low = _times_form(symbol, line, smooth_cutoff, name=symbol.name + "_low")
    high = _times_form(symbol, line, lambda t: 1.0 - smooth_cutoff(t), name=symbol.name + "_high")
    return low, high


def modulate_symbol(symbol: Symbol, shift: float) -> Symbol:
    """The frequency-sheared symbol tau(x, alpha, beta) = sigma(x, alpha + shift, beta - shift).

    Pair it with :func:`modulation_pair` inputs to leave the operator output
    unchanged.
    """

    def _eval(x, a, b):
        return symbol(x, np.asarray(a) + shift, np.asarray(b) - shift)

    def _profile(t):  # the shear adds (l1 - l2) shift to the form
        return symbol.profile(np.asarray(t) + (symbol.line.l1 - symbol.line.l2) * shift)

    profile = None if symbol.profile is None else _profile
    return replace(symbol, eval=_eval, profile=profile, name=f"{symbol.name}_mod{shift:+g}")


def modulation_pair(f: SampledFunction, g: SampledFunction, shift: float):
    """Pre-modulated inputs matching :func:`modulate_symbol`.

    With tau = modulate_symbol(sigma, s) and (fs, gs) = modulation_pair(f, g, s),
    the operator satisfies eval_direct(tau, fs, gs) == eval_direct(sigma, f, g):
    shifting the symbol's first frequency argument up by s reads f's spectrum
    at alpha + s, which is the spectrum of exp(-2 pi i s x) f at alpha.
    """
    phase = np.exp(-2j * np.pi * shift * f.x)
    return f.with_values(f.values * phase), g.with_values(g.values / phase)


def truncate_near_line(symbol: Symbol, line: SingularLine | None, L: float) -> Symbol:
    """Remove the part of the symbol within distance 1/L of the line.

    Multiplies by a smooth ramp vanishing on {d < 1/(2L)} and equal to 1 on
    {d >= 1/L}; the transition band keeps the derivative bounds at scale L.
    The result's class metadata records inner scale 1/L.
    """
    if not L > 0:
        raise ValueError("truncation scale L must be positive")
    line = line or symbol.line
    if line is None:
        raise ValueError("need a singular line to truncate along")

    def _ramp(t):
        return smooth_step(2.0 * L * (np.abs(t) / line.norm) - 1.0)

    return _times_form(symbol, line, _ramp, scale=1.0 / L, declared_class=SymbolClass.LINE_SCALED,
                       name=f"{symbol.name}_trunc{L:g}")
