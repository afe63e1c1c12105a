"""High-precision reference evaluations (mpmath).

These are the oracles the test suite and the CLI ``--oracle`` mode compare
against; default precision is 100 significant digits.  Each function returns
an ``mpmath.mpf`` computed at the requested precision.
"""

from __future__ import annotations

import mpmath as mp

__all__ = [
    "seiffert",
    "centroidal",
    "arithmetic",
    "geometric",
    "root_square",
    "contra_harmonic",
    "power",
    "blend",
    "excess_ratio_from_means",
]

DEFAULT_DPS = 100


def seiffert(a, b, dps: int = DEFAULT_DPS):
    with mp.workdps(dps):
        a, b = mp.mpf(a), mp.mpf(b)
        if a == b:
            return a
        return (a - b) / (2 * mp.atan((a - b) / (a + b)))


def centroidal(a, b, dps: int = DEFAULT_DPS):
    with mp.workdps(dps):
        a, b = mp.mpf(a), mp.mpf(b)
        return 2 * (a * a + a * b + b * b) / (3 * (a + b))


def arithmetic(a, b, dps: int = DEFAULT_DPS):
    with mp.workdps(dps):
        return (mp.mpf(a) + mp.mpf(b)) / 2


def geometric(a, b, dps: int = DEFAULT_DPS):
    with mp.workdps(dps):
        return mp.sqrt(mp.mpf(a) * mp.mpf(b))


def root_square(a, b, dps: int = DEFAULT_DPS):
    with mp.workdps(dps):
        a, b = mp.mpf(a), mp.mpf(b)
        return mp.sqrt((a * a + b * b) / 2)


def contra_harmonic(a, b, dps: int = DEFAULT_DPS):
    with mp.workdps(dps):
        a, b = mp.mpf(a), mp.mpf(b)
        return (a * a + b * b) / (a + b)


def power(a, b, p, dps: int = DEFAULT_DPS):
    """Factored by the larger entry (smaller for p < 0): the bracket then lies
    in [1/2, 1], so the rounded 1/p costs no digits at any magnitude."""
    with mp.workdps(dps):
        a, b, p = mp.mpf(a), mp.mpf(b), mp.mpf(p)
        if p == 0:
            return mp.sqrt(a * b)
        big, other = (max(a, b), min(a, b)) if p > 0 else (min(a, b), max(a, b))
        return big * ((1 + (other / big) ** p) / 2) ** (1 / p)


def blend(x, a, b, dps: int = DEFAULT_DPS):
    with mp.workdps(dps):
        x, a, b = mp.mpf(x), mp.mpf(a), mp.mpf(b)
        return centroidal(x * a + (1 - x) * b, x * b + (1 - x) * a, dps=dps)


def excess_ratio_from_means(x, dps: int = DEFAULT_DPS):
    """(seiffert - arithmetic)/(contra-harmonic - arithmetic) at the pair (x, 1)."""
    with mp.workdps(dps):
        x = mp.mpf(x)
        t = seiffert(x, 1, dps=dps)
        a = (x + 1) / 2
        c = (x * x + 1) / (x + 1)
        return (t - a) / (c - a)
