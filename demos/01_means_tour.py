#!/usr/bin/env python3
"""Tour of the bivariate means and their ordering.

Every mean lives strictly between min(a,b) and max(a,b), is symmetric, and
scales linearly with its arguments.  For a != b the classical chain is

    G < A < centroidal < S < C,

with the Seiffert mean sandwiched as A < T < S, and the blend mean J(x)
sweeping continuously from A (x = 1/2) up to the centroidal mean (x = 1).
"""

import numpy as np

from seiffert_bounds import PositivePair, mean

pair = PositivePair(1.0, 3.0)
print(f"pair (a, b) = ({pair.a}, {pair.b})")
print(f"  geometric        G = {mean('geometric', pair):.12f}")
print(f"  arithmetic       A = {mean('arithmetic', pair):.12f}")
print(f"  Seiffert         T = {mean('seiffert', pair):.12f}")
print(f"  centroidal           {mean('centroidal', pair):.12f}")
print(f"  root-square      S = {mean('root-square', pair):.12f}")
print(f"  contra-harmonic  C = {mean('contra-harmonic', pair):.12f}")

print("\npower mean sweep (strictly increasing in p, M_0 = G, M_2 = S):")
for p in (-10.0, -1.0, 0.0, 1.0, 2.0, 10.0):
    print(f"  M_{p:+5.1f} = {mean('power', pair, p):.12f}")

print("\nblend mean J(x) interpolates arithmetic -> centroidal:")
for x in np.linspace(0.5, 1.0, 6):
    print(f"  J({x:.1f}) = {mean('blend', pair, float(x)):.12f}")

t = mean('seiffert', pair)
lo = mean('blend', pair, 0.5)
hi = mean('blend', pair, 1.0)
print(f"\nJ(1/2) = A = {lo:.12f} < T = {t:.12f} < J(1) = centroidal = {hi:.12f}")
print("so some x* in (1/2, 1) crosses T; the sharp bounds pin x* down exactly.")

print("\nnear-diagonal stability: T at |a-b|/(a+b) = 1e-12 stays fully accurate")
tiny = PositivePair((1 + 1e-12) / (1 - 1e-12), 1.0)
print(f"  T = {mean('seiffert', tiny)!r} (arithmetic mean = {mean('arithmetic', tiny)!r})")
