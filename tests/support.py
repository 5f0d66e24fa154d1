"""Shared builders for canonical sources used across the test modules."""

import math

import numpy as np

from ucrlab.probspace import JointPmf


def h2(p: float) -> float:
    """Binary entropy in bits."""
    if p <= 0.0 or p >= 1.0:
        return 0.0
    return -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p)


def dsbs(p: float) -> JointPmf:
    """Uniform binary X, Y equals X flipped with probability p."""
    return JointPmf(np.array([[(1.0 - p) / 2.0, p / 2.0],
                              [p / 2.0, (1.0 - p) / 2.0]]))


def diagonal_source() -> JointPmf:
    """X = Y, uniform binary."""
    return JointPmf(np.array([[0.5, 0.0], [0.0, 0.5]]))


def independent_source(px, py) -> JointPmf:
    return JointPmf(np.outer(np.asarray(px, dtype=float),
                             np.asarray(py, dtype=float)))


def random_joint(rng: np.random.Generator, nx: int, ny: int,
                 concentration: float = 1.0) -> JointPmf:
    probs = rng.dirichlet(np.full(nx * ny, concentration)).reshape(nx, ny)
    return JointPmf(probs)


def bsc_family(q: float, p: float) -> JointPmf:
    """Binary X with P[X = 1] = q, and Y = X xor Z with Z ~ Bernoulli(p)."""
    return JointPmf(np.array([[(1.0 - q) * (1.0 - p), (1.0 - q) * p],
                              [q * p, q * (1.0 - p)]]))


def bsc_family_curve(q: float, p: float, c_bits: float) -> float:
    """Exact V(C) for `bsc_family(q, p)`, 0 <= p <= 1/2.

    V(C) = H(X) - h(a*), where a* is the smallest a in [0, min(q, 1 - q)]
    with h(a * p) - h(a) <= C - H(X) + H(Y) and a * p = a(1 - p) + (1 - a)p.
    Mrs. Gerber's Lemma, H(Y|U) >= h(h^-1(H(X|U)) * p), bounds every U by
    it, and a binary U with X | U Bernoulli(a*) or Bernoulli(1 - a*) meets
    it. The left side decreases in a, so a* is a bisection; the returned
    end satisfies the inequality, so rounding only lowers the value.
    """
    def conv(a):
        return a * (1.0 - p) + (1.0 - a) * p

    h_x = h2(q)
    rhs = c_bits - h_x + h2(conv(q))
    lo, hi = 0.0, min(q, 1.0 - q)
    if h2(conv(lo)) - h2(lo) <= rhs:
        return h_x
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return h_x - h2(hi)
        if h2(conv(mid)) - h2(mid) <= rhs:
            hi = mid
        else:
            lo = mid


def erasure_family(px, e: float) -> JointPmf:
    """Y is X, or the erasure symbol (last column) with probability e."""
    px = np.asarray(px, dtype=float)
    return JointPmf(np.column_stack([np.diag(px * (1.0 - e)), px * e]))


def erasure_family_curve(px, e: float, c_bits: float) -> float:
    """Exact V(C) = min(H(X), C / e) for `erasure_family(px, e)`, e > 0:
    I(U;Y) = (1 - e) I(U;X), so the gap is e I(U;X)."""
    h_x = -sum(v * math.log2(v) for v in px if v > 0.0)
    return min(h_x, c_bits / e)
