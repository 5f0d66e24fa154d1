"""Channel kernels, capacity, and information-spectrum estimation.

Two block kernels are provided: a memoryless product channel and a mixture
of kernels in which one branch is drawn per block (a simple non-ergodic
channel). Capacity of a DMC comes from safeguarded Newton steps on the
Kuhn-Tucker conditions (Gallager 1968, Thm 4.5.1), each checked against
one alternating-maximization step, with the certified bracket
[I(r; W), max_x D(W_x || rW)]. The spectral side draws per-block
information densities under an i.i.d. input, each from the block's joint
type rather than its symbols, and estimates the left edge of the limiting
spectrum, which is the rate the mixture channel supports.

Blocks are integer arrays: any other dtype is refused, not cast. Each
block is validated once, where it enters, and keeps its own dtype. A DMC
scores a block through its flat cells t * n_out + z, held in a small-int
dtype: one gather from the flattened log2 W per symbol, and no intp copy.
"""
from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import (
    DimensionError,
    GuardError,
    InternalInvariantError,
    UndefinedDensityError,
    ValidationError,
)
from .probspace import (ConditionalPmf, Pmf, _cell_dtype, as_rng, categorical_from_uniforms,
                        subseed)

_SPECTRUM_KEY = 11
# spectrum_samples refuses a longer block, and holds at most this many
# type cells per batch
_SPECTRUM_MAX_N = _SPECTRUM_BATCH_CELLS = 2 ** 16
# dmc_capacity forms at most this many points before it raises GuardError
CAPACITY_STEP_LIMIT = 200_000
# inf_info_rate_estimate's rate grid, and the left-tail mass it lets through
SPECTRUM_GRID_STEP = 0.01
SPECTRUM_DROP_TOL = 0.01


class ChannelKernel(ABC):
    """A block channel: sample outputs and score block likelihoods.

    Blocks run along the last axis: every method takes one (n,) block or a
    (B, n) batch of blocks, and scores a block as a scalar, a batch as (B,).
    The public methods check their blocks. _log2_likelihood and
    _log2_output_prob take blocks that are already checked; a kernel whose
    public methods check overrides them to skip a second pass.
    """

    n_in: int
    n_out: int

    @abstractmethod
    def sample_output(self, t: np.ndarray, seed) -> np.ndarray:
        """Draw z^n given the input block t^n."""

    @abstractmethod
    def log2_likelihood(self, t: np.ndarray, z: np.ndarray) -> float | np.ndarray:
        """log2 P(z^n | t^n); -inf when the block is impossible."""

    @abstractmethod
    def log2_output_prob(self, input_pmf: Pmf, z: np.ndarray) -> float | np.ndarray:
        """log2 P(z^n) under an i.i.d. input with the given single-letter pmf."""

    def block_likelihood(self, t: np.ndarray, z: np.ndarray) -> float | np.ndarray:
        return np.exp2(self.log2_likelihood(t, z))

    def _log2_likelihood(self, t: np.ndarray, z: np.ndarray) -> float | np.ndarray:
        return self.log2_likelihood(t, z)

    def _log2_output_prob(self, input_pmf: Pmf, z: np.ndarray) -> float | np.ndarray:
        return self.log2_output_prob(input_pmf, z)


def _check_block(seq, alphabet: int, what: str) -> np.ndarray:
    """seq as an array, once checked: a nonempty (n,) block or (B, n) batch
    of symbols in 0..alphabet-1, in an integer dtype, which it keeps. A
    float, bool, str or object block is refused rather than cast, so no
    value is truncated or parsed into a symbol. The range test is one
    min and one max."""
    seq = np.asarray(seq)
    if seq.ndim not in (1, 2) or seq.size == 0:
        raise DimensionError(f"{what} block must be a nonempty 1-D block or 2-D batch")
    if seq.dtype.kind not in "iu":
        raise ValidationError(f"{what} block must hold integers, got dtype {seq.dtype}")
    if seq.min() < 0 or seq.max() >= alphabet:
        raise ValidationError(f"{what} block has symbols outside 0..{alphabet - 1}")
    return seq


def _check_pair(kernel: ChannelKernel, t, z) -> tuple[np.ndarray, np.ndarray]:
    t = _check_block(t, kernel.n_in, "input")
    z = _check_block(z, kernel.n_out, "output")
    if t.shape != z.shape:
        raise DimensionError("input and output blocks differ in shape")
    return t, z


def _check_input_pmf(kernel: ChannelKernel, input_pmf: Pmf) -> None:
    if input_pmf.size != kernel.n_in:
        raise DimensionError("input pmf does not match the channel input alphabet")


@dataclass(frozen=True)
class DmcProduct(ChannelKernel):
    """Memoryless channel used independently on every letter of the block.

    Outputs are drawn by the inverse cdf of each letter's row, in the
    smallest signed dtype that holds n_out (int8 up to 128 symbols). A
    block is scored through its flat cells t * n_out + z, formed in the
    smallest signed dtype that holds n_in * n_out: log2 P(z^n | t^n)
    gathers log2 W at the cells and log2 P(z^n) gathers log2 q at z, each
    into a C-contiguous float64 array summed along the block, the values
    and the sum of 2-D indexing, so the bits are the same. Indexing with a
    small-int array casts it in buffered chunks, where an intp cell, or
    np.take, would add a fresh 8-byte-per-symbol array per call.
    """

    kernel: ConditionalPmf

    @property
    def n_in(self) -> int:
        return self.kernel.n_in

    @property
    def n_out(self) -> int:
        return self.kernel.n_out

    def sample_output(self, t: np.ndarray, seed) -> np.ndarray:
        t = _check_block(t, self.n_in, "input")
        return categorical_from_uniforms(self.kernel.rows, as_rng(seed).random(t.shape), t)

    def log2_likelihood(self, t: np.ndarray, z: np.ndarray) -> float | np.ndarray:
        return self._log2_likelihood(*_check_pair(self, t, z))

    def log2_output_prob(self, input_pmf: Pmf, z: np.ndarray) -> float | np.ndarray:
        _check_input_pmf(self, input_pmf)
        return self._log2_output_prob(input_pmf, _check_block(z, self.n_out, "output"))

    def _log2_likelihood(self, t: np.ndarray, z: np.ndarray) -> float | np.ndarray:
        cell = t.astype(_cell_dtype(self.n_in * self.n_out))
        cell *= self.n_out
        cell += z.astype(cell.dtype, copy=False)
        with np.errstate(divide="ignore"):
            return np.log2(self.kernel.rows).ravel()[cell].sum(axis=-1)

    def _log2_output_prob(self, input_pmf: Pmf, z: np.ndarray) -> float | np.ndarray:
        with np.errstate(divide="ignore"):
            return np.log2(input_pmf.probs @ self.kernel.rows)[z].sum(axis=-1)


@dataclass(frozen=True)
class MixedChannel(ChannelKernel):
    """Mixture of kernels; a single branch is drawn once per block.

    The block likelihood and output law are the weight-averaged branch laws,
    so the information density sees the mixture even though each sampled
    block physically went through one branch. Outputs come in the smallest
    signed dtype that holds n_out, as DmcProduct draws them.
    """

    components: tuple[tuple[float, ChannelKernel], ...]

    def __post_init__(self):
        if not self.components:
            raise ValidationError("MixedChannel needs at least one component")
        weights = np.array([w for w, _ in self.components], dtype=float)
        Pmf(weights)  # weights must form a pmf
        kernels = [k for _, k in self.components]
        if len({(k.n_in, k.n_out) for k in kernels}) != 1:
            raise DimensionError("MixedChannel components must share alphabets")
        object.__setattr__(
            self, "components", tuple((float(w), k) for w, k in self.components))

    @property
    def n_in(self) -> int:
        return self.components[0][1].n_in

    @property
    def n_out(self) -> int:
        return self.components[0][1].n_out

    def sample_output(self, t: np.ndarray, seed) -> np.ndarray:
        t = _check_block(t, self.n_in, "input")
        rng = as_rng(seed)
        weights = np.array([w for w, _ in self.components])
        batch = t.reshape(-1, t.shape[-1])
        branch = rng.choice(len(self.components), size=batch.shape[0],
                            p=weights / weights.sum())
        z = np.empty(batch.shape, dtype=_cell_dtype(self.n_out))
        for k, (_, kernel) in enumerate(self.components):
            rows = branch == k
            if rows.any():
                z[rows] = kernel.sample_output(batch[rows], rng)
        return z.reshape(t.shape)

    def log2_likelihood(self, t: np.ndarray, z: np.ndarray) -> float | np.ndarray:
        return self._log2_likelihood(*_check_pair(self, t, z))

    def log2_output_prob(self, input_pmf: Pmf, z: np.ndarray) -> float | np.ndarray:
        _check_input_pmf(self, input_pmf)
        return self._log2_output_prob(input_pmf, _check_block(z, self.n_out, "output"))

    def _log2_likelihood(self, t: np.ndarray, z: np.ndarray) -> float | np.ndarray:
        return np.logaddexp2.reduce([math.log2(w) + k._log2_likelihood(t, z)
                                     for w, k in self.components if w > 0.0])

    def _log2_output_prob(self, input_pmf: Pmf, z: np.ndarray) -> float | np.ndarray:
        return np.logaddexp2.reduce([math.log2(w) + k._log2_output_prob(input_pmf, z)
                                     for w, k in self.components if w > 0.0])


@dataclass(frozen=True)
class CapacityResult:
    """Capacity value with a certified bracket and the achieving input.

    iterations counts the points whose bracket was computed: the uniform
    start and one per step, so it is 1 + newton_steps + alternating_steps.
    """

    value_bits: float
    input_pmf: Pmf
    lower_bits: float
    upper_bits: float
    newton_steps: int
    alternating_steps: int

    @property
    def iterations(self) -> int:
        return 1 + self.newton_steps + self.alternating_steps

    @property
    def certificate_bits(self) -> float:
        return self.upper_bits - self.lower_bits


_LN2 = math.log(2.0)
# an input is in the Newton active set while its weight is above this share
# of the largest weight
_ACTIVE_SHARE = 1e-3
# the weight, as a share of max r / |X|, that an input with weight exactly 0
# starts the alternating step from
_REVIVE_SHARE = 1e-12
# a rank-deficient Newton system counts as inconsistent once a divergence
# falls this far below the level in its least-squares solution
_RESIDUAL_TOL = 1e-12


class _Point(NamedTuple):
    """An input pmf r, its output pmf q = rW, d_x = D(W_x || q) in bits and
    I(r; W) = r . d. d_x is +inf when W_x puts mass on an output that q
    misses; such an x has r_x = 0 and adds nothing to I."""

    r: np.ndarray
    q: np.ndarray
    d: np.ndarray
    info: float


def _point(w: np.ndarray, log2w: np.ndarray, r: np.ndarray) -> _Point:
    q = r @ w
    with np.errstate(divide="ignore", invalid="ignore"):
        log2q = np.log2(q)
        d = np.sum(np.where(w > 0.0, w * (log2w - log2q[None, :]), 0.0), axis=1)
    return _Point(r, q, d, float(np.dot(r, np.where(r > 0.0, d, 0.0))))


def _alternating_step(w, log2w, point: _Point) -> _Point:
    """One alternating-maximization step r_x <- r_x 2^(d_x) / sum, from full
    support: an input at weight 0 first gets a tiny one, since the update
    only rescales weights and could never bring it back."""
    if np.any(point.r <= 0.0):
        r = np.maximum(point.r, _REVIVE_SHARE * point.r.max() / point.r.size)
        point = _point(w, log2w, r / r.sum())
    r = point.r * np.exp2(point.d - np.max(point.d))
    return _point(w, log2w, r / r.sum())


def _newton_point(w, point: _Point) -> np.ndarray | None:
    """The Newton point of the Kuhn-Tucker system D(W_x || rW) = C on an
    active set S, with sum r = 1 and r = 0 off S, or None.

    Linearised at q, d_x(r') = d_x + 1/ln 2 - (W_S diag(1/q) W_S^T r')_x / ln 2,
    so one solve gives r' and the level. S is every input above
    _ACTIVE_SHARE of the largest weight, and argmax d. The system is
    singular when the rows of W_S are dependent (always when |S| > |Y|); it
    is solved by least squares, and if that leaves a divergence below the
    level, the input furthest below leaves S. An input whose weight comes
    out at 0 or below leaves S too, the most negative first.
    """
    r, q, d, _ = point
    if not np.all(np.isfinite(d)):
        return None
    active = r > _ACTIVE_SHARE * r.max()
    active[np.argmax(d)] = True
    seen = q > 0.0
    while active.any():
        idx = np.flatnonzero(active)
        k = idx.size
        rows = w[np.ix_(idx, seen)]
        m = np.zeros((k + 1, k + 1))
        m[:k, :k] = -((rows / q[seen]) @ rows.T) / _LN2
        m[:k, k] = -1.0
        m[k, :k] = 1.0
        if not np.all(np.isfinite(m)):
            return None
        rhs = np.append(-d[idx], 1.0)
        sol, _, rank, _ = np.linalg.lstsq(m, rhs, rcond=None)
        if rank <= k:
            below = (m @ sol - rhs)[:k]
            if below.min() < -_RESIDUAL_TOL:
                active[idx[np.argmin(below)]] = False
                continue
        weights = sol[:k]
        if np.all(weights > 0.0):
            out = np.zeros_like(r)
            out[idx] = weights
            return out / out.sum()
        active[idx[np.argmin(weights)]] = False
    return None


def _newton_step(w, log2w, point: _Point) -> _Point | None:
    """The Newton point p, or, where I falls before it, the secant estimate
    of I's peak on the segment to it: I is concave along the segment, with
    slope (p - r) . d."""
    target = _newton_point(w, point)
    if target is None:
        return None
    new = _point(w, log2w, target)
    v = target - point.r
    slope0 = float(v @ point.d)
    slope1 = float(v @ np.where(v != 0.0, new.d, 0.0))
    if slope0 > 0.0 and -np.inf < slope1 < 0.0:
        mid = np.maximum(point.r + slope0 / (slope0 - slope1) * v, 0.0)
        mid = _point(w, log2w, mid / mid.sum())
        if mid.info > new.info:
            return mid
    return new


def dmc_capacity(kernel: ConditionalPmf, tol: float = 1e-9) -> CapacityResult:
    """Capacity of a DMC in bits by safeguarded Newton steps on the
    Kuhn-Tucker conditions.

    From the uniform input, each step forms two candidates and keeps the
    one with the larger I(r; W): one alternating-maximization step, and one
    Newton point on an active set (_newton_point), cut back to I's peak on
    the segment to it when it overshoots. Newton converges in a few steps
    where its active set is right; the alternating step keeps I rising
    where it is not. It stops once the classical bracket
    [I(r; W), max_x D(W_x || rW)] is at most tol wide, so the returned
    value is within tol of the true capacity, and raises GuardError if
    CAPACITY_STEP_LIMIT points do not get there. iterations counts both
    kinds of step and the start.
    """
    if not tol > 0.0:
        raise ValidationError(f"tol must be positive, got {tol}")
    w = kernel.rows
    n_in = kernel.n_in
    log2w = np.where(w > 0.0, np.log2(np.where(w > 0.0, w, 1.0)), 0.0)
    point = _point(w, log2w, np.full(n_in, 1.0 / n_in))
    newton_steps = alternating_steps = 0
    for it in range(1, CAPACITY_STEP_LIMIT + 1):
        # 0 <= C <= max d, so rounding at an exact Kuhn-Tucker point cannot
        # turn the bracket over
        upper = max(float(np.max(point.d)), 0.0)
        lower = min(point.info, upper)
        if upper - lower <= tol:
            value = 0.5 * (lower + upper)
            return CapacityResult(max(value, 0.0), Pmf(point.r), lower, upper,
                                  newton_steps, alternating_steps)
        if it == CAPACITY_STEP_LIMIT:
            break
        newton = _newton_step(w, log2w, point)
        point = _alternating_step(w, log2w, point)
        if newton is not None and newton.info > point.info:
            point = newton
            newton_steps += 1
        else:
            alternating_steps += 1
    raise GuardError(
        f"capacity iteration did not reach bracket {tol} in {CAPACITY_STEP_LIMIT} steps "
        f"(current bracket {upper - lower:.3e})")


def information_density(kernel: ChannelKernel, input_pmf: Pmf,
                        t: np.ndarray, z: np.ndarray) -> float | np.ndarray:
    """(1/n) log2 [ P(z^n|t^n) / P(z^n) ] in bits per symbol.

    A scalar for one (n,) block, shape (B,) for a (B, n) batch. t and z
    must be integer arrays; they are validated once, here, and scored
    through the kernel's unchecked methods without a second check.
    """
    _check_input_pmf(kernel, input_pmf)
    t, z = _check_pair(kernel, t, z)
    ll = kernel._log2_likelihood(t, z)
    lo = kernel._log2_output_prob(input_pmf, z)
    if np.any(ll == -np.inf) or np.any(lo == -np.inf):
        raise UndefinedDensityError("zero likelihood or output mass at this block")
    return (ll - lo) / t.shape[-1]


@dataclass(frozen=True)
class SpectrumEstimate:
    """Sorted sample of normalized information densities at one block length."""

    values_bits: np.ndarray
    n: int

    def __post_init__(self):
        arr = np.sort(np.asarray(self.values_bits, dtype=float))
        if arr.size == 0:
            raise ValidationError("SpectrumEstimate needs at least one sample")
        object.__setattr__(self, "values_bits", arr)

    @property
    def num_samples(self) -> int:
        return int(self.values_bits.size)

    def quantile(self, q: float) -> float:
        if not (0.0 <= q <= 1.0):
            raise ValidationError(f"quantile level must be in [0, 1], got {q}")
        idx = min(max(int(math.ceil(q * self.num_samples)) - 1, 0), self.num_samples - 1)
        return float(self.values_bits[idx])

    def mass_below(self, r: float) -> float:
        """Empirical P[density <= r]; right-continuous in r. A search of the
        sorted sample, so the count of values <= r."""
        return float(np.searchsorted(self.values_bits, r, side="right") / self.num_samples)

    def mean(self) -> float:
        return float(self.values_bits.mean())

    def std(self) -> float:
        return float(self.values_bits.std(ddof=1)) if self.num_samples > 1 else 0.0


def _branches(kernel: ChannelKernel, weight: float = 1.0) -> list[tuple[float, np.ndarray]]:
    """(weight, W) of each DMC branch of a DmcProduct or a mixture of them."""
    if isinstance(kernel, DmcProduct):
        return [(weight, kernel.kernel.rows)]
    if isinstance(kernel, MixedChannel):
        return [b for w, k in kernel.components for b in _branches(k, weight * w)]
    raise ValidationError(f"no joint type to draw for a {type(kernel).__name__}")


def _log2_type_probs(counts: np.ndarray, probs: np.ndarray) -> np.ndarray:
    """(K, B): log2 of each branch's probability of one sequence with each
    column of the cell-major (C, B) counts, sum c * log2 p over the cells of
    the (K, C) probs, as elementwise products summed along the leading cell
    axis. A cell of mass 0 gives -inf where its count is positive and
    nothing where it is 0: 0 * -inf is never formed."""
    counts, probs = counts[:, None, :], probs.T[:, :, None]
    out = (counts * np.log2(np.where(probs > 0.0, probs, 1.0))).sum(axis=0)
    out[((counts > 0) & (probs == 0.0)).any(axis=0)] = -np.inf
    return out


def spectrum_samples(kernel: ChannelKernel, input_pmf: Pmf, n: int,
                     num_samples: int, seed: int) -> SpectrumEstimate:
    """Monte Carlo spectrum of the normalized information density.

    Under branch k of a DmcProduct or a mixture of them, a block's density
    is a function of its joint type c[t, z], whose law is Multinomial(n,
    P_T x W_k) (the method of types). So each block draws its type, not its
    n symbols, with the per-symbol draw's law, and scores the counts:
    ll = log2 sum_j w_j 2^(sum c log2 W_j), lo = log2 sum_j w_j 2^(sum_z
    c_z log2 q_j) with q_j = P_T W_j, density (ll - lo) / n. A branch of
    weight 0 is neither drawn nor scored.

    Layout: batches of B = max(1, 2**16 // (K |T| |Z|)) blocks for the K
    branches of positive weight (the last holds the remainder), so batch
    temporaries hold at most 2**16 cells. Batch b owns the named sub-seed
    (seed, _SPECTRUM_KEY, n, b): it draws its branch counts ~ Multinomial(B,
    weights), then, branch by branch, that many types over the branch's
    cells of positive mass, each law normalised by its sum. The result
    depends only on (seed, n, num_samples). A block longer than 2**16
    symbols is refused (GuardError).
    """
    if num_samples < 1:
        raise ValidationError("num_samples must be >= 1")
    if n < 1:
        raise ValidationError(f"block length must be >= 1, got {n}")
    if n > _SPECTRUM_MAX_N:
        raise GuardError(f"block length {n} exceeds {_SPECTRUM_MAX_N} symbols, the longest "
                         f"block a spectrum batch draws")
    _check_input_pmf(kernel, input_pmf)
    weights, rows = zip(*[b for b in _branches(kernel) if b[0] > 0.0])
    joint = input_pmf.probs[:, None] * np.array(rows)
    w_cells, q = np.array(rows).reshape(len(rows), -1), joint.sum(axis=1)
    laws = [(law > 0.0, law[law > 0.0] / law[law > 0.0].sum())
            for law in joint.reshape(w_cells.shape)]
    per_batch = max(1, _SPECTRUM_BATCH_CELLS // joint.size)
    log2_w = np.log2(weights)[:, None]
    values = []
    for b, start in enumerate(range(0, num_samples, per_batch)):
        rng = np.random.default_rng(subseed(seed, _SPECTRUM_KEY, n, b))
        sizes = rng.multinomial(min(per_batch, num_samples - start), weights / np.sum(weights))
        counts = np.zeros((w_cells.shape[1], sizes.sum()), dtype=np.int64)
        for (support, pvals), size, end in zip(laws, sizes, np.cumsum(sizes)):
            counts[support, end - size:end] = rng.multinomial(n, pvals, size=size).T
        ll = np.logaddexp2.reduce(log2_w + _log2_type_probs(counts, w_cells), axis=0)
        c_z = counts.reshape(*joint.shape[1:], -1).sum(axis=0)
        lo = np.logaddexp2.reduce(log2_w + _log2_type_probs(c_z, q), axis=0)
        if np.any(ll == -np.inf) or np.any(lo == -np.inf):
            raise UndefinedDensityError("zero likelihood or output mass at a drawn block")
        values.append((ll - lo) / n)
    return SpectrumEstimate(np.concatenate(values), n)


@dataclass(frozen=True)
class SpectralRateEstimate:
    """Left-edge rate estimate with a monotone-evidence flag."""

    value_bits: float
    conclusive: bool


def inf_info_rate_estimate(spectra: list[SpectrumEstimate]) -> SpectralRateEstimate:
    """Estimate the largest rate whose left-tail spectrum mass dies out.

    Scans the rate grid of step SPECTRUM_GRID_STEP and takes the largest R
    whose mass_below at the largest block length is <= SPECTRUM_DROP_TOL.
    The estimate is conclusive when that mass is also non-increasing
    across the provided block lengths; otherwise it is returned flagged.
    """
    if len(spectra) < 2:
        raise ValidationError("need spectra at two or more block lengths")
    ns = [s.n for s in spectra]
    if sorted(ns) != ns or len(set(ns)) != len(ns):
        raise ValidationError("spectra must come at strictly increasing block lengths")
    lo = min(float(s.values_bits[0]) for s in spectra)
    hi = max(float(s.values_bits[-1]) for s in spectra)
    k_lo = int(math.floor(lo / SPECTRUM_GRID_STEP)) - 1
    k_hi = int(math.ceil(hi / SPECTRUM_GRID_STEP)) + 1
    best = None
    for k in range(k_hi, k_lo - 1, -1):
        r = k * SPECTRUM_GRID_STEP
        if spectra[-1].mass_below(r) <= SPECTRUM_DROP_TOL:
            best = r
            break
    if best is None:
        raise InternalInvariantError("grid failed to cover the sample range")
    masses = [s.mass_below(best) for s in spectra]
    monotone = all(b <= a + 1e-12 for a, b in zip(masses, masses[1:]))
    return SpectralRateEstimate(best, monotone)


def bsc(p: float) -> ConditionalPmf:
    """Binary symmetric channel with crossover probability p."""
    if not (0.0 <= p <= 1.0):
        raise ValidationError(f"crossover must be in [0, 1], got {p}")
    return ConditionalPmf(np.array([[1.0 - p, p], [p, 1.0 - p]]))


def bec(e: float) -> ConditionalPmf:
    """Binary erasure channel; output symbol 2 is the erasure."""
    if not (0.0 <= e <= 1.0):
        raise ValidationError(f"erasure probability must be in [0, 1], got {e}")
    return ConditionalPmf(np.array([[1.0 - e, 0.0, e], [0.0, 1.0 - e, e]]))
