#!/usr/bin/env python3
"""Certifying the structure behind the sharp lower blend bound.

blend(p) - seiffert factorizes as a positive factor times the gap function
gap(t) = 4 arctan((t-1)/(t+1)) - 3(t^2-1)/Q(t), which the library evaluates on
tau = (t-1)/(t+1) as 4(arctan tau - tau) + 4 tau k^2/(3 + k^2), k = (2p-1) tau,
for every t up to the largest double.  At the sharp parameter the gap
vanishes at both ends (t -> 1 and t -> infinity) and stays negative in
between; the derivative chain chain_4 -> chain_1 pins down the turning
points 1 < t0 < t1 < t2 < t3 that force that shape, and a few exact
rational facts prove it.
"""

from seiffert_bounds import (
    BlendGapFamily,
    blend_alpha_closed,
    counterexample_witness,
    ladder_proof,
    locate_critical_points,
)

lam = blend_alpha_closed()
fam = BlendGapFamily(lam)
print(f"sharp parameter p = {lam}")
print(f"gap limit at infinity: {fam.limit_at_infinity()!r} (vanishes exactly at the sharp p)")

print("\ngap values (negative on all of (1, inf), -> 0 at both ends):")
for t in (1 + 1e-6, 1.5, 6.14, 100.0, 1e8):
    print(f"  gap({t:<12.8g}) = {fam.gap(t): .3e}")

report = locate_critical_points(fam)
print("\ncritical-point ladder (roots of chain_4..chain_1, closed form):")
print(f"  t0 = {report.t0:.12f}   (chain_4 sign change; chain_3 turns here)")
print(f"  t1 = {report.t1:.12f}   (chain_3 sign change; chain_2 turns here)")
print(f"  t2 = {report.t2:.12f}   (chain_2 sign change; chain_1 turns here)")
print(f"  t3 = {report.t3:.12f}   (chain_1 sign change; gap minimum)")
print(f"  max root residual = {max(report.residuals):.2e}")

proof = ladder_proof()
lo, hi = proof["pi_bounds"]
print(f"\nproof: {lo} < pi < {hi} puts u = 3/pi - 1 in [{proof['u'][0]}, {proof['u'][1]}]")
print(f"  and c_1 in [{proof['c1'][0]}, {proof['c1'][1]}]: u < 0 < c_1 is {proof['signs']}, so")
print("  each chain has one sign change (Descartes) and gap < 0 on (1, inf)")
print(f"  identity exact on the 5 x 6 rational (p, t) grid, hence for all p: {proof['identity_exact']}")

print("\nendpoint identities of the chain (any p):")
for p in (0.7, lam, 1.0):
    f = BlendGapFamily(p)
    print(
        f"  p={p:.4f}: chain_1(1)={f.chain(1.0, 1)}, chain_2(1)={f.chain(1.0, 2)}, "
        f"chain_3(1)={f.chain(1.0, 3):+.6f} (=6p^2-6p), chain_4(1)={f.chain(1.0, 4):+.6f} (=9p^2-9p)"
    )

print("\nwhy the constants are best possible:")
w = counterexample_witness(0.97, "above_alpha")
print(
    f"  p=0.97 (above the sharp alpha): blend exceeds Seiffert at a/b = {w.t:.4f} "
    f"({w.blend_value:.6f} > {w.seiffert_value:.6f})"
)
w = counterexample_witness(0.99, "below_one")
print(
    f"  p=0.99 (below beta = 1): Seiffert exceeds blend near the diagonal, a/b = {w.t!r} "
    f"({w.seiffert_value!r} > {w.blend_value!r})"
)
