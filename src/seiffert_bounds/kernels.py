"""The bulk kernels behind the sweeps: numpy arrays, no validation.

The scalar cores of :mod:`seiffert_bounds.means` evaluate one pair with
``math``; the bulk code of :mod:`seiffert_bounds.sharp` and
:mod:`seiffert_bounds.auxiliary` evaluates whole blocks with the same
profile ``A·f(t)``, the same factors and the same piecewise ``t/arctan t``
kernel, written into the caller's buffers where it passes them.  Importing
this module loads numpy; importing ``means`` does not.
"""

from __future__ import annotations

import numpy as np

from .means import _SERIES_SWITCH, _ratio_coeffs

__all__: list[str] = []

_RATIO_COEFFS = np.array(_ratio_coeffs())


def _ratio_kernel(t, out=None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """r(t), the upper margin 1/3 - r(t) and q(t) = t/arctan t for t in [0, 1).

    Any shape; all three arrays take the shape of ``t``.  ``out``, if given,
    is four float arrays shaped like a 1-d ``t`` that receive t², r, 1/3 - r
    and q: a sweep passes one set for every block and reads t² from the
    first.

    Beyond the switch all three come from the direct quotient q.  Up to it
    they are overwritten from the series: with u = t² and the tail
    Σ_{k>=1} coef[k]·u^{k-1} (one in-place Horner pass over that subset only),
    1/3 - r = -u·tail, r = tail·u + coef[0] and q = 1 + u·r.  (Computing the
    quotient over the whole array and overwriting beats gathering the large-t
    subset: most sampled t lie above the switch.)
    """
    shape = np.shape(t)
    t = np.reshape(t, -1)
    tt, r, upper, q = (np.empty(t.shape) for _ in range(4)) if out is None else out
    np.multiply(t, t, out=tt)
    # t = 0 divides by zero; t² underflows below ~1e-154
    with np.errstate(divide="ignore", invalid="ignore"):
        np.divide(t, np.arctan(t, out=q), out=q)
        np.subtract(q, 1.0, out=r)
        r /= tt
    np.subtract(_RATIO_COEFFS[0], r, out=upper)
    small = np.flatnonzero(t <= _SERIES_SWITCH)
    u = tt[small]
    tail = u * _RATIO_COEFFS[-1]
    tail += _RATIO_COEFFS[-2]
    for c in _RATIO_COEFFS[-3:0:-1]:
        tail *= u
        tail += c
    upper[small] = -u * tail
    tail *= u
    tail += _RATIO_COEFFS[0]
    r[small] = tail
    tail *= u
    tail += 1.0
    q[small] = tail
    return r.reshape(shape), upper.reshape(shape), q.reshape(shape)


def _profile(a, b, out=None) -> tuple[np.ndarray, np.ndarray]:
    """A = a/2 + b/2 and t = |a/2 - b/2|/A; halving first keeps both finite.

    ``out``, if given, is two float arrays shaped like a and b that receive A
    and t; ``a`` must then be a float array too, and is overwritten.
    """
    if out is None:
        a = 0.5 * np.asarray(a, dtype=float)
        b = 0.5 * np.asarray(b, dtype=float)
        am = a + b
        return am, np.abs(a - b) / am
    am, t = out
    a *= 0.5
    np.multiply(b, 0.5, out=am)
    np.subtract(a, am, out=t)
    np.add(a, am, out=am)
    np.abs(t, out=t)
    t /= am
    return am, t


# The factors f(t) of the means A·f(t), all but the blend's taken of t²; the
# bulk verifiers apply them to profiles they already hold, writing into
# ``out`` if given.


def _centroidal_factor(tt, out=None):
    f = np.divide(tt, 3.0, out=out)
    f += 1.0
    return f


def _blend_factor(x, t, out=None):
    s = np.multiply(t, 2.0 * x - 1.0, out=out)
    s *= s
    return _centroidal_factor(s, out)


def _root_square_factor(tt, out=None):
    return np.sqrt(np.add(tt, 1.0, out=out), out=out)


def _contra_harmonic_factor(tt, out=None):
    return np.add(tt, 1.0, out=out)


def _geometric(a, b, out, root, mask):
    """sqrt(a)·sqrt(b) into ``out``, and a itself where a == b (sqrt(a)² may
    round); ``root`` and ``mask`` are a float and a bool row shaped like a and
    b that it overwrites."""
    g = np.sqrt(a, out=out)
    g *= np.sqrt(b, out=root)
    np.copyto(g, a, where=np.equal(a, b, out=mask))
    return g
