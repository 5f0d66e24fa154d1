"""Finite probability primitives used everywhere else in the package.

Containers for single, pairwise, and triple-joint pmfs plus conditional
kernels; entropy and mutual information in bits; the inverse-cdf
categorical draw and i.i.d. block sampling on it; largest-remainder type
quantization; and the seed tree: seeds in [0, 2**64) and named child
seeds.

Conventions: all logarithms are base 2, 0 * log 0 = 0, pmf entries are
validated nonnegative and summing to one within 1e-12.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, GuardError, InternalInvariantError, ValidationError

SUM_TOL = 1e-12


SEED_LIMIT = 2 ** 64


def check_seed(seed) -> int:
    """The seed as an int, if it is an integer in [0, SEED_LIMIT)."""
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)):
        raise ValidationError(f"a seed must be an integer, got {type(seed).__name__}")
    if not 0 <= seed < SEED_LIMIT:
        raise ValidationError(f"seed must lie in [0, 2**64), got {seed}")
    return int(seed)


def as_rng(seed) -> np.random.Generator:
    """Coerce an int seed, a SeedSequence, or a Generator into a Generator."""
    if isinstance(seed, np.random.Generator):
        return seed
    if isinstance(seed, np.random.SeedSequence):
        return np.random.default_rng(seed)
    if isinstance(seed, (int, np.integer)):
        return np.random.default_rng(np.random.SeedSequence(check_seed(seed)))
    raise ValidationError(f"cannot build a generator from {type(seed).__name__}")


def subseed(seed: int, *key: int) -> np.random.SeedSequence:
    """Named child seed; identical for any execution schedule."""
    return np.random.SeedSequence(entropy=check_seed(seed),
                                  spawn_key=tuple(int(k) for k in key))


def _validate_prob_array(arr: np.ndarray, what: str) -> np.ndarray:
    arr = np.asarray(arr, dtype=float)
    if arr.size == 0:
        raise ValidationError(f"{what}: empty probability array")
    if not np.all(np.isfinite(arr)):
        raise ValidationError(f"{what}: non-finite entries")
    if np.any(arr < 0.0):
        raise ValidationError(f"{what}: negative entries (min {arr.min():.3e})")
    total = float(arr.sum())
    if abs(total - 1.0) > SUM_TOL:
        raise ValidationError(f"{what}: entries sum to {total!r}, not 1 within {SUM_TOL}")
    return arr


@dataclass(frozen=True)
class Pmf:
    """Probability mass function on a finite alphabet indexed 0..size-1."""

    probs: np.ndarray

    def __post_init__(self):
        arr = _validate_prob_array(self.probs, "Pmf")
        if arr.ndim != 1:
            raise DimensionError(f"Pmf needs a 1-D array, got shape {arr.shape}")
        object.__setattr__(self, "probs", arr)

    @property
    def size(self) -> int:
        return int(self.probs.size)

    def support_size(self) -> int:
        return int(np.count_nonzero(self.probs > 0.0))


@dataclass(frozen=True)
class JointPmf:
    """Joint pmf over an (X, Y) pair; probs[x, y], row-major in x."""

    probs: np.ndarray

    def __post_init__(self):
        arr = _validate_prob_array(self.probs, "JointPmf")
        if arr.ndim != 2:
            raise DimensionError(f"JointPmf needs a 2-D array, got shape {arr.shape}")
        object.__setattr__(self, "probs", arr)

    @property
    def nx(self) -> int:
        return int(self.probs.shape[0])

    @property
    def ny(self) -> int:
        return int(self.probs.shape[1])

    def marginal_x(self) -> Pmf:
        return Pmf(self.probs.sum(axis=1))

    def marginal_y(self) -> Pmf:
        return Pmf(self.probs.sum(axis=0))


@dataclass(frozen=True)
class ConditionalPmf:
    """Stochastic matrix: rows[i] is a pmf over the output alphabet."""

    rows: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.rows, dtype=float)
        if arr.ndim != 2 or arr.size == 0:
            raise DimensionError(f"ConditionalPmf needs a 2-D array, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)) or np.any(arr < 0.0):
            raise ValidationError("ConditionalPmf: rows must be finite and nonnegative")
        sums = arr.sum(axis=1)
        if np.any(np.abs(sums - 1.0) > SUM_TOL):
            bad = int(np.argmax(np.abs(sums - 1.0)))
            raise ValidationError(
                f"ConditionalPmf: row {bad} sums to {float(sums[bad])!r}, not 1 within {SUM_TOL}")
        object.__setattr__(self, "rows", arr)

    @property
    def n_in(self) -> int:
        return int(self.rows.shape[0])

    @property
    def n_out(self) -> int:
        return int(self.rows.shape[1])

    def is_deterministic(self) -> bool:
        return bool(np.all(np.max(self.rows, axis=1) == 1.0))


@dataclass(frozen=True)
class TriplePmf:
    """Joint pmf over (U, X, Y); probs[u, x, y]."""

    probs: np.ndarray

    def __post_init__(self):
        arr = _validate_prob_array(self.probs, "TriplePmf")
        if arr.ndim != 3:
            raise DimensionError(f"TriplePmf needs a 3-D array, got shape {arr.shape}")
        object.__setattr__(self, "probs", arr)

    def pair_ux(self) -> JointPmf:
        return JointPmf(self.probs.sum(axis=2))

    def pair_uy(self) -> JointPmf:
        return JointPmf(self.probs.sum(axis=1))

    def marginal(self, axis: int) -> Pmf:
        keep = [a for a in range(3) if a != axis]
        return Pmf(self.probs.sum(axis=tuple(keep)))


def entropy_bits(probs: np.ndarray) -> float:
    """Shannon entropy in bits of a raw nonnegative array; 0 log 0 = 0.

    The p log2 p terms of the positive cells are formed in one temporary;
    zero cells, if any, are compressed out; a point mass yields +0.0."""
    p = np.asarray(probs, dtype=float).ravel()
    pos = p if (p > 0.0).all() else p[p > 0.0]
    terms = np.log2(pos)
    terms *= pos
    return max(0.0 - float(terms.sum()), 0.0)


def entropy(p: Pmf | np.ndarray) -> float:
    """Entropy in bits of a validated pmf."""
    if not isinstance(p, Pmf):
        p = Pmf(np.asarray(p, dtype=float))
    return entropy_bits(p.probs)


def mutual_information(j: JointPmf) -> float:
    """I(X;Y) in bits, computed as H(X) + H(Y) - H(X,Y) and clamped at zero."""
    hx = entropy_bits(j.probs.sum(axis=1))
    hy = entropy_bits(j.probs.sum(axis=0))
    hxy = entropy_bits(j.probs)
    mi = hx + hy - hxy
    if mi < -1e-9:
        raise InternalInvariantError(f"mutual information {mi} below -1e-9")
    return max(mi, 0.0)


def conditional_entropy_x_given_y(j: JointPmf) -> float:
    """H(X|Y) in bits, clamped at zero: when Y determines X the two
    entropies can differ by rounding alone."""
    return max(entropy_bits(j.probs) - entropy_bits(j.probs.sum(axis=0)), 0.0)


def compose_aux(source: JointPmf, aux: ConditionalPmf) -> TriplePmf:
    """Attach an auxiliary variable U to X through a channel X -> U.

    Produces the triple joint P(u, x, y) = aux(u|x) * source(x, y), which by
    construction satisfies the chain U - X - Y (I(U;Y|X) = 0).
    """
    if aux.n_in != source.nx:
        raise DimensionError(
            f"aux has {aux.n_in} input symbols but the source X-alphabet is {source.nx}")
    probs = np.einsum("xu,xy->uxy", aux.rows, source.probs)
    return TriplePmf(probs)


def sample_iid(j: JointPmf, n: int, seed) -> tuple[np.ndarray, np.ndarray]:
    """Draw n i.i.d. symbol pairs from a joint pmf; returns (x, y) int arrays."""
    if n < 1:
        raise ValidationError(f"block length must be >= 1, got {n}")
    return pairs_from_uniforms(j, as_rng(seed).random(n))


def _cdf_steps(probs: np.ndarray, u: np.ndarray):
    """(k, u >= cdf step k) for the first K - 1 steps of the cdf of probs."""
    cum = np.cumsum(probs, axis=-1)
    for k in range(cum.shape[-1] - 1):
        yield k, u >= cum[k]


def _cell_dtype(k: int) -> np.dtype:
    """The smallest signed integer dtype that holds -k..k - 1, and so
    every cell 0..k - 1 of a k-cell alphabet."""
    return np.min_scalar_type(-k)


def categorical_from_uniforms(probs: np.ndarray, u: np.ndarray,
                              rows: np.ndarray | None = None) -> np.ndarray:
    """Map uniforms in [0, 1) of any shape to cells of that shape, by
    inverting a cdf.

    probs is one pmf (K,), or a table (R, K) of them with rows, an integer
    array of u's shape, naming each uniform's row. A uniform's cell is the
    number of the first K - 1 cdf steps at or below it, as
    searchsorted(side="right") counts them; the last step is never
    compared, so a cdf that rounds to just below 1 loses no uniform. One
    comparison pass per step beats a binary search per uniform on the
    small alphabets sampled here, and allocates no (..., K) temporary.
    With a table, each row r compares the uniforms where rows == r with
    its own steps: R * (K - 1) passes of boolean masks, with rows kept in
    its own dtype, no intp copy of it and no gathered float64 array of
    thresholds. On the 2- and 3-row channels sampled here that beats
    gathering each step's thresholds, whose fresh 8-byte-per-uniform
    arrays cost more in new pages than in arithmetic.
    The cells are counted in the smallest signed integer dtype that holds
    K, int8 up to K = 128: adding the step masks into it costs a fraction
    of an int64 count.
    """
    cell = np.zeros(np.shape(u), dtype=_cell_dtype(np.shape(probs)[-1]))
    if rows is None:
        for _, step in _cdf_steps(probs, u):
            cell += step
        return cell
    cum = np.cumsum(probs, axis=-1)
    for r in range(cum.shape[0]):
        mine = rows == r
        for k in range(cum.shape[1] - 1):
            cell += mine & (u >= cum[r, k])
    return cell


def pairs_from_uniforms(j: JointPmf, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Map uniforms in [0, 1) of any shape to (x, y) arrays of that shape, by
    inverting the row-major cdf of the joint pmf.

    The cell is categorical_from_uniforms' count of flat cdf steps, in its
    dtype. x counts the steps that end a row, k % ny == ny - 1, among them,
    which is cell // ny, and y is cell - ny * x: one pass over the uniforms
    per step, and no integer division.
    """
    ny = j.ny
    cell = np.zeros(np.shape(u), dtype=_cell_dtype(j.probs.size))
    x = np.zeros_like(cell)
    for k, step in _cdf_steps(j.probs.ravel(), u):
        cell += step
        if k % ny == ny - 1:
            x += step
    cell -= ny * x
    return x, cell


def type_counts(p: Pmf | np.ndarray, n: int) -> np.ndarray:
    """Quantize n * p to integer counts: round to nearest, then fix the total
    by largest-remainder correction. Counts stay nonnegative and sum to n."""
    if not isinstance(p, Pmf):
        p = Pmf(np.asarray(p, dtype=float))
    if n < 1:
        raise ValidationError(f"type length must be >= 1, got {n}")
    if p.support_size() > n:
        raise GuardError(
            f"infeasible type: pmf has {p.support_size()} support points but n = {n}")
    exact = n * p.probs
    base = np.floor(exact + 0.5)
    remainder = exact - base
    deficit = int(round(n - base.sum()))
    if deficit > 0:
        order = np.argsort(-remainder, kind="stable")
        base[order[:deficit]] += 1
    elif deficit < 0:
        order = np.argsort(remainder, kind="stable")
        take = [i for i in order if base[i] >= 1][: -deficit]
        base[take] -= 1
    counts = base.astype(np.int64)
    if counts.sum() != n or np.any(counts < 0):
        raise InternalInvariantError("type quantization failed to produce valid counts")
    return counts
