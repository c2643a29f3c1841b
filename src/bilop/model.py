"""Model sums over tri-tile collections: evaluation, corona/scale
decomposition, trilinear forms and the tree-sum diagnostic.

A model sum is a collection of tri-tiles with one term per (tile, weight)
pair,

    T(f, g)(x) = sum_terms coeff * |I_s|^{-1/2}
                 <phi1_{s_1}, e^{2 pi i mu_1 x} f>
                 <phi2_{s_2}, e^{2 pi i mu_2 x} g>
                 e^{-2 pi i mu_3 x} phi3_{s_3}(x),

where the packets may carry integer envelope translations (recorded per
term) and the optional modulation triple mu moves each slot between the
tile's combinatorial frequency chart and the physical band it senses.  With
translations and modulations zero this is the plain tri-tile sum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .signal import Interval, SampledFunction, corona_count, corona
from .tiles import (
    Collection,
    Tile,
    TriTile,
    WavePacketProfile,
    _packet,
    default_profile,
    packet_coefficient,
    size_star,
    wave_packet,
)

__all__ = [
    "ModelTerm",
    "ModelSum",
    "model_sum_eval",
    "trilinear_form",
    "model_sum_decompose",
    "DecomposedModelSum",
    "tree_proposition_diagnostic",
]


@dataclass(frozen=True)
class ModelTerm:
    tile_index: int
    coeff: complex
    translations: tuple = (0, 0, 0)
    modulations: tuple = (0.0, 0.0, 0.0)


@dataclass(frozen=True)
class ModelSum:
    collection: Collection
    terms: tuple
    profiles: tuple | None = None  # three WavePacketProfiles; default profile if None
    damping_exponent: int = 8

    def __post_init__(self):
        object.__setattr__(self, "terms", tuple(self.terms))
        for t in self.terms:
            if not 0 <= t.tile_index < len(self.collection):
                raise ValueError(f"term references missing tile {t.tile_index}")

    @classmethod
    def from_coefficients(cls, collection: Collection, coeffs, profiles=None) -> "ModelSum":
        terms = tuple(ModelTerm(i, complex(c)) for i, c in enumerate(coeffs))
        return cls(collection, terms, profiles)

    def get_profiles(self):
        if self.profiles is not None:
            return self.profiles
        p = default_profile()
        return (p, p, p)

    def coefficient_bound(self) -> float:
        """max over terms of |coeff| * (1 + |u|^2)^damping: the bounded-weight
        certificate for the translated-packet terms."""
        best = 0.0
        for t in self.terms:
            u2 = float(sum(v * v for v in t.translations))
            best = max(best, abs(t.coeff) * (1.0 + u2) ** self.damping_exponent)
        return best

    def conjugate(self) -> "ModelSum":
        """The model sum computing the conjugate: coefficients conjugated and
        every frequency datum reflected."""

        def _flip(iv: Interval) -> Interval:
            return Interval(-iv.center, iv.length)

        tiles = tuple(
            TriTile(s.time, _flip(s.freq), tuple(_flip(w) for w in s.subs), s.area_bound)
            for s in self.collection
        )
        terms = tuple(
            replace(t, coeff=np.conjugate(t.coeff), modulations=tuple(-m for m in t.modulations))
            for t in self.terms
        )
        return replace(self, collection=Collection(tiles), terms=terms)


def model_sum_eval(model: ModelSum, f: SampledFunction, g: SampledFunction) -> SampledFunction:
    """Evaluate the model sum on (f, g) from its definition, term by term.

    Each term is coeff |I|^{-1/2} <phi1, e^{2 pi i mu_1 x} f>
    <phi2, e^{2 pi i mu_2 x} g> e^{-2 pi i mu_3 x} phi3 with full packets,
    the same values `wave_packet` returns for the translated tiles, and
    coefficients from `packet_coefficient`.  Every term passes
    `wave_packet`'s guards, so a tile the grid cannot resolve raises.
    Each distinct frequency's carrier e^{2 pi i x xi} is computed once per
    call and shared by the packets and modulations that use it.
    """
    if not f.same_grid(g):
        raise ValueError("f and g must share one grid")
    profiles = model.get_profiles()
    waves: dict = {}

    def wave(freq: float) -> np.ndarray:
        if freq not in waves:
            waves[freq] = np.exp(2j * np.pi * f.x * freq)
        return waves[freq]

    out = np.zeros(f.n, dtype=complex)
    for term in model.terms:
        tile = model.collection.tiles[term.tile_index]
        I = tile.time
        mu1, mu2, mu3 = term.modulations
        pkts = [
            _packet(
                Tile(Interval(I.center + v * I.length, I.length), w),
                profile,
                f,
                wave(w.center),
            )
            for v, w, profile in zip(term.translations, tile.subs, profiles)
        ]
        c1 = packet_coefficient(pkts[0], f.with_values(f.values * wave(mu1)))
        c2 = packet_coefficient(pkts[1], g.with_values(g.values * wave(mu2)))
        out += term.coeff / math.sqrt(I.length) * c1 * c2 * pkts[2].values * wave(-mu3)
    return f.with_values(out)


def trilinear_form(
    model: ModelSum,
    f1: SampledFunction,
    f2: SampledFunction,
    f3: SampledFunction,
    I: Interval,
) -> complex:
    """<T(f1, f2), f3 restricted to I> with the conjugated-output pairing."""
    out = model_sum_eval(model, f1, f2)
    mask = I.mask(f3)
    return complex(np.sum(out.values * np.conjugate(f3.values) * mask) * f3.spacing)


# -- corona / scale decomposition ----------------------------------------------


@dataclass(frozen=True)
class DecomposedModelSum:
    """Partition of a model sum relative to an interval I.

    Operator pieces: `inside` collects terms whose tiles satisfy I_s in 2I;
    `outside[l]` the rest, bucketed by the dyadic scale ratio
    2^l |I| <= |I_s| < 2^{l+1} |I| (l <= 0).  The full piece family is the
    product with corona indices (k1, k2) restricting the two inputs; see
    :meth:`apply_piece` and :meth:`reconstruct`.
    """

    base: ModelSum
    interval: Interval
    inside: ModelSum
    outside: dict

    def piece_keys(self, grid: SampledFunction):
        K = corona_count(self.interval, grid)
        for k1 in range(K):
            for k2 in range(K):
                yield ("inside", k1, k2)
                for l in self.outside:
                    yield ("outside", k1, k2, l)

    def _operator(self, key) -> ModelSum:
        return self.inside if key[0] == "inside" else self.outside[key[3]]

    def apply_piece(self, key, f: SampledFunction, g: SampledFunction) -> SampledFunction:
        _, k1, k2 = key[0], key[1], key[2]
        mask1 = corona(self.interval, k1, f).mask
        mask2 = corona(self.interval, k2, g).mask
        fk = f.with_values(f.values * mask1)
        gk = g.with_values(g.values * mask2)
        return model_sum_eval(self._operator(key), fk, gk)

    def reconstruct(self, f: SampledFunction, g: SampledFunction) -> SampledFunction:
        total = np.zeros(f.n, dtype=complex)
        for key in self.piece_keys(f):
            total += self.apply_piece(key, f, g).values
        return f.with_values(total)


def model_sum_decompose(
    model: ModelSum, I: Interval, scale_bound: float = 2.0
) -> DecomposedModelSum:
    """Split the terms by tile position and scale relative to I.

    Every tile must satisfy |I_s| <= scale_bound * |I| (tiles longer than the
    localization window cannot be bucketed at nonpositive scales); violations
    raise with the offending tile named.
    """
    twoI = I.dilate(2.0)
    inside, outside = [], {}
    for term in model.terms:
        tile = model.collection.tiles[term.tile_index]
        if tile.time.length > scale_bound * I.length * (1 + 1e-12):
            raise ValueError(
                f"tile with time interval center={tile.time.center}, "
                f"length={tile.time.length} exceeds the scale guard "
                f"{scale_bound} * |I| = {scale_bound * I.length}"
            )
        if twoI.contains(tile.time):
            inside.append(term)
        else:
            l = int(np.floor(np.log2(tile.time.length / I.length) + 1e-12))
            if l > 0:
                raise ValueError(
                    f"tile outside 2I with |I_s| = {tile.time.length} > |I| = "
                    f"{I.length}: no nonpositive scale bucket"
                )
            outside.setdefault(l, []).append(term)
    return DecomposedModelSum(
        base=model,
        interval=I,
        inside=replace(model, terms=tuple(inside)),
        outside={l: replace(model, terms=tuple(ts)) for l, ts in outside.items()},
    )


# -- tree-sum diagnostic ---------------------------------------------------------


def tree_proposition_diagnostic(
    collection: Collection,
    f1: SampledFunction,
    f2: SampledFunction,
    f3: SampledFunction,
    thetas,
    profile: WavePacketProfile | None = None,
) -> dict:
    """Ratio of |sum_s |I_s|^{-1/2} prod_i <phi^i_{s_i}, f_i>| to the
    size-weighted product prod_i size_i^*(Q)^theta_i ||f_i||_2^{1-theta_i}.

    Diagnostic only: the inequality's constant is not pinned, so the report
    carries the empirical ratio, never an asserted value.
    """
    thetas = tuple(float(t) for t in thetas)
    if len(thetas) != 3 or any(not 0 <= t < 1 for t in thetas):
        raise ValueError("thetas must be three exponents in [0, 1)")
    if abs(sum(thetas) - 1.0) > 1e-12:
        raise ValueError(f"thetas must sum to 1, got {sum(thetas)}")
    profile = profile or default_profile()
    fs = (f1, f2, f3)
    left = 0.0 + 0.0j
    for s in collection:
        prod = 1.0 / np.sqrt(s.time.length)
        for i in range(3):
            pkt = wave_packet(s.sub_tile(i), profile, fs[i])
            prod *= packet_coefficient(pkt, fs[i])
        left += prod
    from .signal import lp_norm

    right = 1.0
    sizes = []
    for i in range(3):
        sz = size_star(collection, fs[i], i, profile)
        sizes.append(sz)
        right *= sz ** thetas[i] * lp_norm(fs[i], 2) ** (1.0 - thetas[i])
    ratio = abs(left) / right if right > 0 else (0.0 if abs(left) == 0 else np.inf)
    return {
        "left": abs(left),
        "right": right,
        "ratio": ratio,
        "sizes": tuple(sizes),
        "thetas": thetas,
    }
