"""Tiles, tri-tiles, collections, wave packets, trees and size functionals:
the combinatorial time-frequency layer under the model sums.

Geometry conventions: a tile is a time x frequency rectangle of unit area; a
tri-tile carries one time interval, an enclosing frequency interval of
bounded area, and three pairwise disjoint unit-area sub-frequencies.  Grid
overlap is counted with half-open intervals so adjacent dyadic intervals do
not collide.  Packet coefficients use the pairing <u, v> = sum conj(u) v h
(the packet slot is conjugated), which makes model sums bilinear in the
inputs.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .bumps import smooth_bump
from .signal import (
    Interval,
    SampledFunction,
    Spectrum,
    dft_forward,
    dft_inverse,
    lp_norm,
    spectral_derivative,
)

__all__ = [
    "Tile",
    "TriTile",
    "tri_tile_from_quarters",
    "Collection",
    "CollectionReport",
    "collection_validate",
    "OVERLAP_BOUND",
    "WavePacketProfile",
    "default_profile",
    "wave_packet",
    "packet_coefficient",
    "Tree",
    "size_tree",
    "maximal_tree",
    "size_star",
    "size_bound_check",
    "profile_seminorm",
    "lattice_collection",
    "random_collection",
]

_AREA_TOL = 1e-12

# Per-scale grid overlap allowed by `collection_validate` and kept by
# `random_collection`.
OVERLAP_BOUND = 4


@dataclass(frozen=True)
class Tile:
    """A time x frequency rectangle of area one (to 1e-12)."""

    time: Interval
    freq: Interval

    def __post_init__(self):
        area = self.time.length * self.freq.length
        if abs(area - 1.0) > _AREA_TOL * max(1.0, area):
            raise ValueError(f"tile area must be 1, got {area}")


@dataclass(frozen=True)
class TriTile:
    """Time interval x bounded-area frequency interval carrying three
    pairwise disjoint unit-area sub-frequencies."""

    time: Interval
    freq: Interval
    subs: tuple
    area_bound: float = 4.0

    def __post_init__(self):
        if len(self.subs) != 3:
            raise ValueError("a tri-tile needs exactly three sub-frequencies")
        area = self.time.length * self.freq.length
        if area > self.area_bound * (1 + 1e-9):
            raise ValueError(f"tri-tile area {area} exceeds bound {self.area_bound}")
        for sub in self.subs:
            Tile(self.time, sub)  # unit-area check
            if not self.freq.contains(sub):
                raise ValueError("sub-frequency escapes the tri-tile frequency interval")
        for i in range(3):
            for j in range(i + 1, 3):
                if self.subs[i].intersects(self.subs[j]):
                    raise ValueError(f"sub-frequencies {i} and {j} overlap")

    def sub_tile(self, i: int) -> Tile:
        return Tile(self.time, self.subs[i])

    def key(self) -> tuple:
        return (
            self.time.center,
            self.time.length,
            self.freq.center,
            self.freq.length,
            tuple((s.center, s.length) for s in self.subs),
        )


def tri_tile_from_quarters(
    time: Interval, freq_left: float, occupied=(0, 1, 2), area_bound: float = 4.0
) -> TriTile:
    """Standard tri-tile: the frequency interval of length 4/|I| starting at
    `freq_left`, split into four quarters with three of them occupied."""
    q = 1.0 / time.length
    freq = Interval.from_endpoints(freq_left, freq_left + 4 * q)
    subs = tuple(
        Interval.from_endpoints(freq_left + i * q, freq_left + (i + 1) * q) for i in occupied
    )
    return TriTile(time, freq, subs, area_bound)


@dataclass(frozen=True)
class Collection:
    """A family of tri-tiles with cached time / frequency interval families.

    The time family {I_s} keeps one entry per member (multiplicity counts);
    the frequency family J is the *set* of enclosing and sub-frequency
    intervals.
    """

    tiles: tuple

    def __post_init__(self):
        object.__setattr__(self, "tiles", tuple(self.tiles))

    def __len__(self):
        return len(self.tiles)

    def __iter__(self):
        return iter(self.tiles)

    @property
    def time_family(self) -> list:
        return [s.time for s in self.tiles]

    @property
    def freq_family(self) -> list:
        seen = {}
        for s in self.tiles:
            for w in (s.freq, *s.subs):
                seen[(w.center, w.length)] = w
        return list(seen.values())


# -- validation ---------------------------------------------------------------


def _max_overlap(intervals) -> tuple[int, float | None]:
    """Max pointwise overlap count of half-open [l, r) intervals + witness."""
    events = []
    for iv in intervals:
        events.append((iv.left, 1))
        events.append((iv.right, -1))
    events.sort(key=lambda e: (e[0], e[1]))  # close before open at ties
    best, cur, witness = 0, 0, None
    for pos, delta in events:
        cur += delta
        if cur > best:
            best = cur
            witness = pos
    return best, witness


def _grid_report(intervals, overlap_bound: int) -> dict:
    """Per-dyadic-scale overlap counts for the family, plus the worst case.

    Each interval belongs to exactly one band [2^k, 2^(k+1)) of lengths,
    k = floor(log2 |I|), and each band is counted on its own.
    """
    if not intervals:
        return {"achieved": 0, "per_scale": {}, "witness": None, "ok": True}
    bands = {}
    for iv in intervals:
        bands.setdefault(int(np.floor(np.log2(iv.length) + 1e-9)), []).append(iv)
    per_scale = {}
    worst, witness = 0, None
    for k in sorted(bands):
        count, w = _max_overlap(bands[k])
        per_scale[k] = count
        if count > worst:
            worst, witness = count, w
    return {
        "achieved": worst,
        "per_scale": per_scale,
        "witness": witness,
        "ok": worst <= overlap_bound,
    }


@dataclass(frozen=True)
class CollectionReport:
    passed: bool
    areas_ok: bool
    disjoint_ok: bool
    time_grid: dict
    freq_grid: dict
    nesting_violations: list
    messages: list

    @property
    def overlap_constant(self) -> int:
        return max(self.time_grid["achieved"], self.freq_grid["achieved"])


def collection_validate(
    collection: Collection, overlap_bound: int = OVERLAP_BOUND
) -> CollectionReport:
    """Check areas, sub-frequency disjointness, the per-scale grid overlap
    bounds (time family with multiplicity, frequency family as a set) and the
    nesting property; report achieved constants and witnesses."""
    messages = []
    areas_ok = True
    disjoint_ok = True
    for idx, s in enumerate(collection):
        for sub in s.subs:
            if abs(s.time.length * sub.length - 1.0) > 1e-9:
                areas_ok = False
                messages.append(f"tile {idx}: sub-tile area {s.time.length * sub.length}")
        for i in range(3):
            for j in range(i + 1, 3):
                if s.subs[i].intersects(s.subs[j]):
                    disjoint_ok = False
                    messages.append(f"tile {idx}: sub-frequencies {i},{j} overlap")

    time_grid = _grid_report(collection.time_family, overlap_bound)
    if not time_grid["ok"]:
        messages.append(
            f"time family exceeds overlap bound {overlap_bound}: "
            f"count {time_grid['achieved']} at x = {time_grid['witness']}"
        )
    freq_grid = _grid_report(collection.freq_family, overlap_bound)
    if not freq_grid["ok"]:
        messages.append(
            f"frequency family exceeds overlap bound {overlap_bound}: "
            f"count {freq_grid['achieved']} at xi = {freq_grid['witness']}"
        )

    j_family = collection.freq_family
    nesting_violations = []
    for idx, s in enumerate(collection):
        for i, sub in enumerate(s.subs):
            for big in j_family:
                if big.strictly_contains(sub):
                    for j, other in enumerate(s.subs):
                        if not big.contains(other):
                            nesting_violations.append(
                                (idx, i, (big.center, big.length), j)
                            )
    if nesting_violations:
        messages.append(f"{len(nesting_violations)} nesting violations")

    passed = (
        areas_ok
        and disjoint_ok
        and time_grid["ok"]
        and freq_grid["ok"]
        and not nesting_violations
    )
    return CollectionReport(
        passed=passed,
        areas_ok=areas_ok,
        disjoint_ok=disjoint_ok,
        time_grid=time_grid,
        freq_grid=freq_grid,
        nesting_violations=nesting_violations,
        messages=messages,
    )


# -- wave packets --------------------------------------------------------------


class WavePacketProfile:
    """A unit-norm profile with spectrum essentially inside [-1/2, 1/2].

    Stores samples on its own wide grid; evaluation anywhere goes through the
    trigonometric sum over the (compactly supported) frequency window, cut to
    zero beyond half the native period.

    `effective_radius` is the footprint in profile units: beyond it |phi|^2
    holds 1e-9 of the mass.
    """

    def __init__(self, samples: SampledFunction):
        self.samples = samples
        spec = dft_forward(samples)
        norm = lp_norm(samples, 2)
        if abs(norm - 1.0) > 1e-8:
            raise ValueError(f"profile must have unit L2 norm, got {norm}")
        band = np.abs(spec.x) <= 0.5
        outside = np.sqrt(np.sum(np.abs(spec.values[~band]) ** 2) * spec.spacing)
        if outside > 1e-8:
            raise ValueError(f"profile spectral mass outside [-1/2, 1/2]: {outside}")
        nz = np.abs(spec.values) > 1e-14 * np.max(np.abs(spec.values))
        self._freqs = spec.x[nz]
        self._coefs = spec.values[nz] * spec.spacing
        self._half_period = samples.period / 2.0
        mass = np.cumsum(np.abs(samples.values[np.argsort(np.abs(samples.x))]) ** 2)
        mass *= samples.spacing
        sorted_absx = np.sort(np.abs(samples.x))
        idx = np.searchsorted(mass, mass[-1] - 1e-9)
        self.effective_radius = float(sorted_absx[min(idx, sorted_absx.size - 1)])

    @classmethod
    def from_freq_window(
        cls, window, support: float = 0.45, period: float = 256.0, n: int = 2048
    ) -> "WavePacketProfile":
        """Profile whose spectrum is `window(xi / support)` (unit-normalized)."""
        dxi = 1.0 / period
        xi = (np.arange(n) - n // 2) * dxi
        w = np.asarray(window(xi / support), dtype=complex)
        w[np.abs(xi) > support] = 0.0
        spec = Spectrum(xi[0], dxi, w)
        phi = dft_inverse(spec, -period / 2)
        nrm = lp_norm(phi, 2)
        return cls(phi.with_values(phi.values / nrm))

    def time_eval(self, t) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        out = np.exp(2j * np.pi * np.multiply.outer(t, self._freqs)) @ self._coefs
        return np.where(np.abs(t) <= self._half_period, out, 0.0)


@lru_cache(maxsize=1)
def default_profile() -> WavePacketProfile:
    """The library-wide packet profile: bump window on [-0.45, 0.45]."""
    return WavePacketProfile.from_freq_window(smooth_bump)


@lru_cache(maxsize=64)
def _envelope(
    profile: WavePacketProfile, length: float, delta: float, n: int, h: float
) -> np.ndarray:
    """|I|^{-1/2} Phi(wrap((j - delta) h) / |I|) for j = 0 .. n-1: the packet
    envelope centred `delta` cells past grid point 0.  Read-only, because
    every caller with the same key shares it."""
    P = n * h
    disp = np.mod((np.arange(n) - delta) * h + P / 2, P) - P / 2
    env = profile.time_eval(disp / length) / np.sqrt(length)
    env.setflags(write=False)
    return env


def _packet(
    tile: Tile, profile: WavePacketProfile, grid: SampledFunction, carrier: np.ndarray
) -> SampledFunction:
    """`wave_packet` with the carrier e^{2 pi i x c(omega)} supplied by the
    caller, so callers that share a sub-frequency compute it once."""
    I, omega = tile.time, tile.freq
    if I.length < 4 * grid.spacing:
        raise ValueError(f"tile time length {I.length} under-resolved (4h = {4 * grid.spacing})")
    nyquist = 0.5 / grid.spacing
    if abs(omega.center) + 0.5 * omega.length > nyquist:
        raise ValueError("tile frequency interval exceeds the grid's Nyquist range")
    if profile.effective_radius * I.length > grid.period / 2:
        raise ValueError("tile too long for the grid window: packet tails would wrap onto themselves")
    cells = (I.center - grid.origin) / grid.spacing
    shift = math.floor(cells)
    env = _envelope(profile, I.length, cells - shift, grid.n, grid.spacing)
    return grid.with_values(np.roll(env, shift) * carrier)


def wave_packet(tile: Tile, profile: WavePacketProfile, grid: SampledFunction) -> SampledFunction:
    """The packet |I|^{-1/2} Phi((x - c(I)) / |I|) e^{2 pi i x c(omega)}.

    Displacements are wrapped to the torus, so packets near the window edge
    keep unit norm.  Raises for tiles the grid cannot resolve: time interval
    under 4 grid cells, frequency interval poking past Nyquist, or a profile
    footprint (`effective_radius * |I|`) wider than half the window.

    The footprint guard cuts at most 1e-9 of the mass, so an accepted packet
    has unit norm to about 5e-10.  It does not confine the packet to its
    frequency interval that closely: the cut tail is about sqrt(1e-9) in
    amplitude, and an accepted tile may leak that much (3e-5 to 5e-5 seen)
    outside `tile.freq`.  Tighter confinement needs a window several times
    wider than the guard asks for.

    The envelope is evaluated in full, never cut at the footprint.  With
    c(I) = x_0 + (m + delta) h, m an integer and 0 <= delta < 1, it is the
    envelope centred `delta` cells past x_0, rolled by m cells.  Envelopes
    are cached read-only by (profile, |I|, delta, n, h), with delta
    unrounded, for the 64 most recently used keys, so packets that differ
    only in their time cell or frequency evaluate the profile once.
    """
    return _packet(tile, profile, grid, np.exp(2j * np.pi * grid.x * tile.freq.center))


def packet_coefficient(packet: SampledFunction, f: SampledFunction) -> complex:
    """<packet, f> = sum conj(packet) f h: the packet slot is conjugated."""
    return complex(np.sum(np.conjugate(packet.values) * f.values) * f.spacing)


# -- trees and sizes ------------------------------------------------------------


@dataclass(frozen=True)
class Tree:
    """A j-tree: members nest in time under the top and their j-th
    sub-frequencies contain the top's."""

    index: int
    top: TriTile
    members: tuple

    def __post_init__(self):
        if self.index not in (0, 1, 2):
            raise ValueError("tree index must be 0, 1 or 2")
        for s in self.members:
            if not self.top.time.contains(s.time):
                raise ValueError("tree member time interval escapes the top")
            if not s.subs[self.index].contains(self.top.subs[self.index]):
                raise ValueError("top's sub-frequency must nest inside every member's")


def size_tree(tree: Tree, f: SampledFunction, profile: WavePacketProfile | None = None) -> float:
    """((1/|I_top|) sum_s |<phi_{s_j}, f>|^2)^{1/2} over the tree members."""
    profile = profile or default_profile()
    total = 0.0
    for s in tree.members:
        pkt = wave_packet(s.sub_tile(tree.index), profile, f)
        total += abs(packet_coefficient(pkt, f)) ** 2
    return float(np.sqrt(total / tree.top.time.length))


def maximal_tree(collection: Collection, top: TriTile, k: int) -> Tree:
    """The largest k-tree under `top` inside the collection."""
    members = tuple(
        s
        for s in collection
        if top.time.contains(s.time) and s.subs[k].contains(top.subs[k])
    )
    return Tree(k, top, members)


def size_star(
    collection: Collection,
    f: SampledFunction,
    j: int,
    profile: WavePacketProfile | None = None,
    max_tiles: int = 64,
    sample_tops: int | None = None,
) -> float:
    """sup over k-trees (k != j) contained in the collection of size_k.

    Exhaustive over candidate tops (size is monotone under adding members, so
    maximal trees per top realize the sup).  Collections larger than
    `max_tiles` must opt into the sampled mode (`sample_tops`), which draws
    that many tops with the fixed seed 0 and is explicitly non-exhaustive.
    """
    if len(collection) > max_tiles and sample_tops is None:
        raise ValueError(
            f"collection has {len(collection)} tri-tiles (> {max_tiles}); "
            "pass sample_tops=... for the non-exhaustive sampled mode"
        )
    tops = list(collection)
    if sample_tops is not None and len(tops) > sample_tops:
        picks = np.random.default_rng(0).choice(len(tops), size=sample_tops, replace=False)
        tops = [tops[i] for i in picks]
    best = 0.0
    for top in tops:
        for k in (0, 1, 2):
            if k == j:
                continue
            tree = maximal_tree(collection, top, k)
            if tree.members:
                best = max(best, size_tree(tree, f, profile))
    return best


def size_bound_check(
    collection: Collection,
    f: SampledFunction,
    j: int,
    N: int,
    profile: WavePacketProfile | None = None,
) -> dict:
    """Compare size_j^* against its decay-averaged majorant

        sup_s (1/|I_s|) int (1 + |x - c(I_s)|/|I_s|)^(-N) |f(x)| dx

    and report the ratio (an empirical constant for the bound)."""
    lhs = size_star(collection, f, j, profile)
    sup = 0.0
    af = np.abs(f.values)
    for s in collection:
        I = s.time
        w = (1.0 + np.abs(f.x - I.center) / I.length) ** (-N)
        sup = max(sup, float(np.sum(w * af) * f.spacing / I.length))
    ratio = lhs / sup if sup > 0 else (0.0 if lhs == 0 else np.inf)
    return {"size_star": lhs, "majorant": sup, "ratio": ratio, "N": N}


def profile_seminorm(profile: WavePacketProfile, M: int) -> float:
    """sup_t sum_{0 <= k <= M} (1 + |t|)^M |phi^(k)(t)| on the native grid."""
    t = profile.samples.x
    weight = (1.0 + np.abs(t)) ** M
    total = np.zeros(t.shape)
    for k in range(M + 1):
        total += np.abs(spectral_derivative(profile.samples, k).values)
    return float(np.max(weight * total))


# -- generators -----------------------------------------------------------------


def lattice_collection(
    scales=(0,),
    time_slots: int = 4,
    freq_slots: int = 2,
    base: float = 1.0,
    occupied=(0, 1, 2),
) -> Collection:
    """4-adic lattice of standard tri-tiles (scale step 4 keeps nesting valid)."""
    tiles = []
    for k in scales:
        L = base * 4.0**k
        q = 1.0 / L
        for m in range(time_slots * int(4 ** (max(scales) - k))):
            time = Interval.from_endpoints(m * L, (m + 1) * L)
            for mp in range(freq_slots):
                tiles.append(tri_tile_from_quarters(time, mp * 4 * q, occupied))
    return Collection(tuple(tiles))


def random_collection(
    rng: np.random.Generator,
    n_tiles: int,
    scales=(-1, 0, 1),
    window: float = 16.0,
) -> Collection:
    """Random 4-adic collection: unique tri-tiles on scale-separated lattices.

    No time interval carries more than `OVERLAP_BOUND` tri-tiles.  Intervals
    of one scale are disjoint and the frequency family is a set of nested
    lattice intervals, so every result passes `collection_validate` with its
    default bound.  Draws that would break the cap are discarded, so the
    result may hold fewer than `n_tiles` tri-tiles when the window is full.
    """
    tiles = {}
    per_interval = Counter()
    attempts = 0
    while len(tiles) < n_tiles and attempts < 200 * n_tiles:
        attempts += 1
        k = int(rng.choice(list(scales)))
        L = 4.0**k
        q = 1.0 / L
        slots = max(int(window / L), 1)
        m = int(rng.integers(0, slots))
        mp = int(rng.integers(-2, 3))
        occ = tuple(sorted(rng.choice(4, size=3, replace=False).tolist()))
        time = Interval.from_endpoints(m * L, (m + 1) * L)
        tile = tri_tile_from_quarters(time, mp * 4 * q, occ)
        if tile.key() in tiles or per_interval[k, m] >= OVERLAP_BOUND:
            continue
        per_interval[k, m] += 1
        tiles[tile.key()] = tile
    return Collection(tuple(tiles.values()))
