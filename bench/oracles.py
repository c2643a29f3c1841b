"""Reference computations the benchmark checks `bilop` against.

Each one follows a different code path from the call it checks: closed
forms, brute-force counts, or the defining sums written out again here.
Only numpy is used.
"""

from __future__ import annotations

import math

import numpy as np

_HALF_PI = 0.5 * math.pi


def si(x) -> np.ndarray:
    """Sine integral Si(x) = int_0^x sin(t)/t dt.

    Power series for |x| <= 4; above, the continued fraction for E1(i|x|)
    evaluated by the modified Lentz method.  Odd in x.
    """
    x = np.asarray(x, dtype=float)
    ax = np.abs(x)
    out = np.empty_like(ax)
    small = ax <= 4.0
    t = ax[small]
    term = t.copy()
    total = t.copy()
    t2 = t * t
    for k in range(1, 40):
        term = -term * t2 / ((2 * k) * (2 * k + 1))
        total += term / (2 * k + 1)
    out[small] = total
    t = ax[~small]
    if t.size:
        tiny = 1e-300
        b = 1.0 + 1j * t
        c = np.full(t.shape, 1.0 / tiny, dtype=complex)
        d = 1.0 / b
        h = d.copy()
        for i in range(2, 1000):
            a = -float((i - 1) ** 2)
            b = b + 2.0
            d = 1.0 / (a * d + b)
            c = b + a / c
            step = c * d
            h = h * step
            if np.max(np.abs(step - 1.0)) < 1e-16:
                break
        h = h * (np.cos(t) - 1j * np.sin(t))
        out[~small] = _HALF_PI + h.imag
    return np.sign(x) * out


def bht_multiplier(u, eps: float, R: float) -> np.ndarray:
    """Exact symbol of p.v. int_{eps <= |y| <= R} e^{-2 pi i u y} dy / y."""
    u = np.asarray(u, dtype=float)
    values, inverse = np.unique(u, return_inverse=True)
    m = -2j * (si(2 * np.pi * values * R) - si(2 * np.pi * values * eps))
    return m[inverse].reshape(u.shape)


def hl_at(values: np.ndarray, j: int) -> float:
    """Largest plain average of |values| over non-wrapping index windows
    that contain index j, one window start at a time (linear memory, so
    the check adds nothing to the run's peak RSS)."""
    a = np.abs(values)
    prefix = np.concatenate([[0.0], np.cumsum(a)])
    stops = np.arange(j, a.size)
    best = 0.0
    for start in range(j + 1):
        means = (prefix[stops + 1] - prefix[start]) / (stops - start + 1)
        best = max(best, float(means.max()))
    return best


def overlap_by_scale(intervals) -> int:
    """Largest pointwise count of half-open [left, right) intervals that share
    one dyadic length scale, by brute force over left endpoints."""
    scales = {}
    for iv in intervals:
        k = int(math.floor(math.log2(iv.length) + 1e-9))
        scales.setdefault(k, []).append(iv)
    best = 0
    for family in scales.values():
        for p in (iv.left for iv in family):
            best = max(best, sum(1 for iv in family if iv.left <= p < iv.right))
    return best


def contains(big, small) -> bool:
    """Closed inclusion of intervals with a 1e-12 roundoff allowance."""
    slack = 1e-12 * max(1.0, big.length)
    return small.left >= big.left - slack and small.right <= big.right + slack


def size_star_from_table(tiles, table, j: int) -> float:
    """sup over tops and tree indices k != j of
    sqrt(sum over the maximal k-tree of |coefficient|^2 / |I_top|).

    `table[s][k]` is the coefficient of tile s's k-th packet against the
    function whose size is wanted.
    """
    best = 0.0
    for top in tiles:
        for k in range(3):
            if k == j:
                continue
            total = 0.0
            members = 0
            for s, row in zip(tiles, table):
                if contains(top.time, s.time) and contains(s.subs[k], top.subs[k]):
                    total += abs(row[k]) ** 2
                    members += 1
            if members:
                best = max(best, math.sqrt(total / top.time.length))
    return best


class ProfileDefinition:
    """The default packet profile written from its definition: the spectrum
    `smooth_bump(xi / 0.45)` on the frequency grid of spacing 1/256 with
    2048 bins, scaled to unit L2 norm."""

    def __init__(self, window, support=0.45, period=256.0, n=2048):
        dxi = 1.0 / period
        xi = (np.arange(n) - n // 2) * dxi
        w = np.asarray(window(xi / support), dtype=float)
        w[np.abs(xi) > support] = 0.0
        keep = w > 0
        self.xi = xi[keep]
        self.coef = w[keep] * dxi / math.sqrt(np.sum(w**2) * dxi)

    def __call__(self, t) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        return np.exp(2j * np.pi * np.multiply.outer(t, self.xi)) @ self.coef

    def packet_at(self, tile, grid, index: np.ndarray) -> np.ndarray:
        """Values of the wave packet of `tile` at the grid points `index`."""
        x = grid.origin + grid.spacing * np.asarray(index)
        P = grid.period
        disp = np.mod(x - tile.time.center + P / 2, P) - P / 2
        env = self(disp / tile.time.length) / math.sqrt(tile.time.length)
        return env * np.exp(2j * np.pi * x * tile.freq.center)
