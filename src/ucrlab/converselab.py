"""Quantitative machinery behind the outer bound.

Three groups of tools, all exact arithmetic on explicit pmfs (no sampling):

* derived slack constants: mu_beta from the uniformity gap and cardinality
  exponent, gamma_ab from mu_beta and the error bound, kappa_ab as the
  residual mass guaranteed after intersecting the three good events;
* concentration checks for the normalized self-information of K: an exact
  variance computation against the mu_beta budget, and the one-sided
  level-set probabilities with their Chebyshev/Markov floors;
* the telescoping decomposition that converts a blockwise mutual-information
  difference into n times a single-coordinate difference, verified exactly
  on small joint laws.

The interval chain is swept over many random parameter points at once
(interval_sweep): one numpy pass evaluates the same formulas as
derive_params and interval_lemma_check on a whole batch of draws. The
telescoping right side is read off marginals of the explicit joint law, one
per coordinate, with no loop over its cells.

The floors and the variance budget are asymptotic claims; at desk-scale n
the preconditions may fail, so every checker reports margins and flags
applicability instead of asserting. The two exact identities (the interval
chain and the telescoping decomposition) are asserted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, InternalInvariantError, ValidationError
from .probspace import Pmf, as_rng, entropy_bits

__all__ = [
    "ConverseParams",
    "derive_params",
    "interval_lemma_check",
    "IntervalSweep",
    "interval_sweep",
    "VarianceBoundReport",
    "variance_bound_check",
    "SetBoundReport",
    "set_bound_checks",
    "TelescopingInstance",
    "telescoping_identity_check",
]


@dataclass(frozen=True)
class ConverseParams:
    """Error/uniformity/cardinality constants and their derived slacks.

    alpha bounds P[K != L]; beta bounds the per-symbol uniformity gap;
    c bounds log2|K|/n. The derived values follow the defining formulas:

        mu_beta  = beta + 2*beta*c + beta^2
        gamma_ab = 2*sqrt(sqrt(mu_beta) / (1 - sqrt(alpha)))
        kappa_ab = alpha + 1 - (1 - 4*mu_beta/gamma_ab^2)^2

    gamma_ab and kappa_ab are NaN when alpha >= 1 (the defining
    expressions have no real value there).
    """

    alpha: float
    beta: float
    c: float
    mu_beta: float = field(init=False)
    gamma_ab: float = field(init=False)
    kappa_ab: float = field(init=False)

    def __post_init__(self):
        if not (self.alpha > 0.0 and math.isfinite(self.alpha)):
            raise ValidationError(f"alpha must be positive, got {self.alpha}")
        if not (self.beta > 0.0 and math.isfinite(self.beta)):
            raise ValidationError(f"beta must be positive, got {self.beta}")
        if not (self.c >= 0.0 and math.isfinite(self.c)):
            raise ValidationError(f"c must be nonnegative, got {self.c}")
        mu = self.beta + 2.0 * self.beta * self.c + self.beta * self.beta
        if self.alpha < 1.0:
            gamma = 2.0 * math.sqrt(math.sqrt(mu) / (1.0 - math.sqrt(self.alpha)))
            kappa = self.alpha + 1.0 - (1.0 - 4.0 * mu / gamma**2) ** 2
        else:
            gamma = math.nan
            kappa = math.nan
        object.__setattr__(self, "mu_beta", mu)
        object.__setattr__(self, "gamma_ab", gamma)
        object.__setattr__(self, "kappa_ab", kappa)

    @property
    def alpha_in_range(self) -> bool:
        return 0.0 < self.alpha < 1.0

    @property
    def kappa_in_range(self) -> bool:
        return 0.0 < self.kappa_ab < 0.5

    @property
    def mu_in_range(self) -> bool:
        return 0.0 < self.mu_beta < 1.0

    @property
    def constraints_hold(self) -> bool:
        return self.alpha_in_range and self.kappa_in_range and self.mu_in_range

    @property
    def chebyshev_ratio(self) -> float:
        """4*mu/gamma^2; algebraically sqrt(mu_beta)*(1 - sqrt(alpha))."""
        return 4.0 * self.mu_beta / self.gamma_ab**2


def derive_params(alpha: float, beta: float, c: float) -> ConverseParams:
    """Compute the derived slack constants; range violations are flags."""
    return ConverseParams(alpha=alpha, beta=beta, c=c)


def interval_lemma_check(p: ConverseParams) -> bool:
    """True iff 0 < 4*mu/gamma^2 < 1 - sqrt(alpha) < 1 numerically.

    Holds for every parameter point with alpha in (0,1) and mu_beta in
    (0,1): the ratio collapses to sqrt(mu_beta)*(1 - sqrt(alpha)).
    """
    if not math.isfinite(p.gamma_ab):
        return False
    ratio = p.chebyshev_ratio
    ceiling = 1.0 - math.sqrt(p.alpha)
    return 0.0 < ratio < ceiling < 1.0


# draws per batch of interval_sweep; the lemmas command's box accepts about
# one draw in six, so its 2,000-draw sweep takes two batches
_SWEEP_BATCH = 8192


def _interval_arrays(alpha: np.ndarray, beta: np.ndarray, c: np.ndarray):
    """derive_params and interval_lemma_check over arrays of parameter points.

    Returns (mu_beta, gamma_ab, kappa_ab, valid, passes), with valid the
    points' constraints_hold and passes their interval_lemma_check. Every
    constant follows ConverseParams' formula in the same order, so mu_beta
    and gamma_ab keep their bits. numpy squares where Python's ** calls
    pow, so gamma_ab**2 can sit 1 ulp off, and kappa_ab, whose last step
    cancels, a few ulps of alpha + 1.
    """
    mu = beta + 2.0 * beta * c + beta * beta
    root_alpha = np.sqrt(alpha)
    with np.errstate(divide="ignore", invalid="ignore"):
        gamma = np.where(alpha < 1.0, 2.0 * np.sqrt(np.sqrt(mu) / (1.0 - root_alpha)), np.nan)
        ratio = 4.0 * mu / gamma**2
    kappa = alpha + 1.0 - (1.0 - ratio) ** 2
    valid = ((0.0 < alpha) & (alpha < 1.0) & (0.0 < kappa) & (kappa < 0.5)
             & (0.0 < mu) & (mu < 1.0))
    ceiling = 1.0 - root_alpha
    passes = np.isfinite(gamma) & (0.0 < ratio) & (ratio < ceiling) & (ceiling < 1.0)
    return mu, gamma, kappa, valid, passes


@dataclass(frozen=True)
class IntervalSweep:
    """The valid draws of an interval-chain sweep, in the order drawn.

    draws[i] is the i-th valid (alpha, beta, c), passes counts the draws
    whose interval chain holds, and attempts counts every draw up to and
    including the last one accepted.
    """

    draws: np.ndarray
    passes: int
    attempts: int


def interval_sweep(rng: np.random.Generator, target: int, box) -> IntervalSweep:
    """The interval chain on the first `target` valid draws from a box.

    box is ((alpha_lo, alpha_hi), (beta_lo, beta_hi), (c_lo, c_hi)) inside
    derive_params' domain. Each draw takes alpha, beta and c in that order
    as lo + (hi - lo) * u, which is what rng.uniform(lo, hi) computes, so
    the draws and their bits are those of three scalar uniform calls per
    draw. A draw is valid when its constraints_hold. Draws come in batches,
    so rng moves past the last draw accepted. Raises
    InternalInvariantError when the target-th valid draw is not among the
    first 100 * target.
    """
    low, high = (np.array(b, dtype=float) for b in zip(*box))
    if target < 1 or low.shape != (3,) or not (
            np.all(np.isfinite(high)) and np.all(low <= high)
            and low[0] > 0.0 and low[1] > 0.0 and low[2] >= 0.0):
        raise ValidationError(f"interval_sweep needs target >= 1 and a box in the "
                              f"parameter domain, got {target} and {box!r}")
    span = high - low
    limit = 100 * target
    draws, verdicts = [], []
    valid = drawn = 0
    while valid < target:
        if drawn >= limit:
            raise InternalInvariantError("parameter sampler failed to hit the valid region")
        batch = low + span * rng.random((min(_SWEEP_BATCH, limit - drawn), 3))
        _, _, _, ok, passes = _interval_arrays(*batch.T)
        keep = np.flatnonzero(ok)[:target - valid]
        draws.append(batch[keep])
        verdicts.append(passes[keep])
        valid += keep.size
        drawn += batch.shape[0]
    # the last batch holds the target-th valid draw
    return IntervalSweep(draws=np.concatenate(draws),
                         passes=int(np.concatenate(verdicts).sum()),
                         attempts=drawn - batch.shape[0] + int(keep[-1]) + 1)


@dataclass(frozen=True)
class VarianceBoundReport:
    """Exact var[(1/n) log2 1/P_K(K)] against the mu_beta budget.

    holds is None when a precondition fails: the budget is only claimed
    under the cardinality and uniformity conditions with at least three
    support points, and only for large n, so no boolean verdict is
    offered outside that region. The margin is rhs - lhs (positive when
    the budget is met).
    """

    lhs: float
    rhs: float
    holds: bool | None
    applicable: bool
    support_size: int
    cardinality_ok: bool
    uniformity_ok: bool

    @property
    def margin(self) -> float:
        return self.rhs - self.lhs


def _self_information_stats(probs: np.ndarray, n: int) -> tuple[float, float]:
    """(mean, variance) of (1/n) log2(1/p) under p, over the support."""
    pos = probs[probs > 0.0]
    z = -np.log2(pos) / float(n)
    mean = float(np.sum(pos * z))
    var = float(np.sum(pos * z * z) - mean * mean)
    return mean, max(var, 0.0)


def variance_bound_check(k_pmf: Pmf | np.ndarray, n: int, beta: float,
                         c: float) -> VarianceBoundReport:
    """Exact self-information variance of K versus mu_beta.

    The cardinality condition log2|K| <= c*n and the uniformity condition
    |H(K)/n - log2|K|/n| <= beta are evaluated on the pmf's full alphabet
    and reported; the verdict is offered only when both hold and the
    support has at least three points.
    """
    if not isinstance(k_pmf, Pmf):
        k_pmf = Pmf(np.asarray(k_pmf, dtype=float))
    if n < 1:
        raise ValidationError(f"n must be >= 1, got {n}")
    mu = beta + 2.0 * beta * c + beta * beta
    _, var = _self_information_stats(k_pmf.probs, n)
    log_card = math.log2(k_pmf.size)
    h_k = entropy_bits(k_pmf.probs)
    support = k_pmf.support_size()
    card_ok = log_card <= c * n + 1e-12
    unif_ok = abs(h_k / n - log_card / n) <= beta + 1e-12
    applicable = support >= 3 and card_ok and unif_ok
    return VarianceBoundReport(
        lhs=var,
        rhs=mu,
        holds=(var <= mu) if applicable else None,
        applicable=applicable,
        support_size=support,
        cardinality_ok=card_ok,
        uniformity_ok=unif_ok,
    )


@dataclass(frozen=True)
class SetBoundReport:
    """One-sided self-information level sets and their probability floors.

    The first set keeps the values of K whose normalized self-information
    is no more than gamma/2 below H(K)/n; its mass is floored by
    1 - 4*mu/gamma^2 (Chebyshev). The second keeps the pairs (k, y-block)
    whose normalized conditional self-information is no more than gamma
    below H(K|Y-block)/n; its mass is floored by the square of the same
    quantity (Markov on top of the first floor). Floors are asymptotic;
    holds-verdicts are offered only when the preconditions certify.
    """

    p_in_l: float
    l_lower_bound: float
    p_in_d: float
    d_lower_bound: float
    l_holds: bool | None
    d_holds: bool | None
    applicable: bool
    support_size: int
    cardinality_ok: bool
    uniformity_ok: bool
    entropy_k_bits: float
    entropy_k_given_y_bits: float


def set_bound_checks(joint_ky: np.ndarray, n: int, params: ConverseParams,
                     log2_k_cardinality: float | None = None) -> SetBoundReport:
    """Exact level-set masses for an explicit (K, Y-block) joint law.

    joint_ky[k, y] is the joint probability of value k and y-block y.
    log2_k_cardinality overrides the alphabet size used in the
    cardinality/uniformity preconditions (the row count understates the
    nominal label space when unused labels were dropped).
    """
    joint = np.asarray(joint_ky, dtype=float)
    if joint.ndim != 2:
        raise DimensionError(f"joint_ky needs a 2-D array, got shape {joint.shape}")
    if np.any(joint < 0.0) or abs(joint.sum() - 1.0) > 1e-9:
        raise ValidationError("joint_ky must be a probability matrix summing to 1")
    if n < 1:
        raise ValidationError(f"n must be >= 1, got {n}")

    gamma = params.gamma_ab
    if not math.isfinite(gamma):
        raise ValidationError("params have no real gamma_ab (alpha >= 1)")
    ratio = params.chebyshev_ratio
    l_bound = 1.0 - ratio
    d_bound = l_bound * l_bound

    p_k = joint.sum(axis=1)
    p_y = joint.sum(axis=0)
    h_k = entropy_bits(p_k)
    h_ky = entropy_bits(joint)
    h_y = entropy_bits(p_y)
    h_k_given_y = max(h_ky - h_y, 0.0)

    # members of the first set: p_k(k) <= 2^{n*gamma/2 - H(K)}
    sup = p_k > 0.0
    in_l = np.zeros_like(sup)
    in_l[sup] = -np.log2(p_k[sup]) / n >= h_k / n - gamma / 2.0 - 1e-12
    p_in_l = float(p_k[in_l].sum())

    # members of the second: p_{k|y} <= 2^{n*gamma - H(K|Y)}
    with np.errstate(divide="ignore", invalid="ignore"):
        cond = np.where(p_y[None, :] > 0.0, joint / p_y[None, :], 0.0)
    mask = joint > 0.0
    in_d = np.zeros_like(mask)
    in_d[mask] = -np.log2(cond[mask]) / n >= h_k_given_y / n - gamma - 1e-12
    p_in_d = float(joint[in_d].sum())

    log_card = math.log2(joint.shape[0]) if log2_k_cardinality is None \
        else float(log2_k_cardinality)
    support = int(np.count_nonzero(sup))
    card_ok = log_card <= params.c * n + 1e-12
    unif_ok = abs(h_k / n - log_card / n) <= params.beta + 1e-12
    applicable = (support >= 3 and card_ok and unif_ok
                  and params.constraints_hold)
    return SetBoundReport(
        p_in_l=p_in_l,
        l_lower_bound=l_bound,
        p_in_d=p_in_d,
        d_lower_bound=d_bound,
        l_holds=(p_in_l >= l_bound - 1e-12) if applicable else None,
        d_holds=(p_in_d >= d_bound - 1e-12) if applicable else None,
        applicable=applicable,
        support_size=support,
        cardinality_ok=card_ok,
        uniformity_ok=unif_ok,
        entropy_k_bits=h_k,
        entropy_k_given_y_bits=h_k_given_y,
    )


_TELESCOPE_CELL_GUARD = 4 * 10**6
# telescoping_identity_check raises when the two sides differ by more
TELESCOPING_TOL = 1e-10


@dataclass(frozen=True)
class TelescopingInstance:
    """Explicit joint law of (S, R, X-block, Y-block) on tiny alphabets.

    joint has shape (s_card, r_card) + (x_card,)*n + (y_card,)*n. Kept
    small (n <= 4, per-coordinate alphabets <= 3): the joint is a dense
    array with (x_card * y_card)^n cells per (s, r), and the identity check
    sums it 2n + 2 times, once for each side's law per coordinate.
    """

    joint: np.ndarray
    n: int

    def __post_init__(self):
        arr = np.asarray(self.joint, dtype=float)
        if not (1 <= self.n <= 4):
            raise ValidationError(f"n must be in 1..4, got {self.n}")
        if arr.ndim != 2 + 2 * self.n:
            raise DimensionError(
                f"joint needs {2 + 2 * self.n} axes for n={self.n}, got {arr.ndim}")
        if any(d > 3 for d in arr.shape[2:]):
            raise ValidationError("per-coordinate alphabets are capped at 3")
        if arr.size > _TELESCOPE_CELL_GUARD:
            raise ValidationError(f"instance has {arr.size} cells; too large")
        if np.any(arr < 0.0) or abs(arr.sum() - 1.0) > 1e-9:
            raise ValidationError("joint must be a probability array summing to 1")
        if len(set(arr.shape[2:2 + self.n])) != 1 or len(set(arr.shape[2 + self.n:])) != 1:
            raise DimensionError("all X axes (and all Y axes) must share one size")
        object.__setattr__(self, "joint", arr)

    @property
    def s_card(self) -> int:
        return self.joint.shape[0]

    @property
    def r_card(self) -> int:
        return self.joint.shape[1]

    @property
    def x_card(self) -> int:
        return self.joint.shape[2]

    @property
    def y_card(self) -> int:
        return self.joint.shape[2 + self.n]

    @staticmethod
    def random(seed, n: int, s_card: int = 2, r_card: int = 2,
               x_card: int = 2, y_card: int = 2,
               concentration: float = 1.0) -> "TelescopingInstance":
        """Dirichlet-random instance; handy for property sweeps."""
        rng = as_rng(seed)
        shape = (s_card, r_card) + (x_card,) * n + (y_card,) * n
        cells = int(np.prod(shape))
        probs = rng.dirichlet(np.full(cells, concentration)).reshape(shape)
        return TelescopingInstance(joint=probs, n=n)


def _cmi(p_abc: np.ndarray) -> float:
    """I(A;B|C) of a 3-axis probability array."""
    h_ac = entropy_bits(p_abc.sum(axis=1))
    h_bc = entropy_bits(p_abc.sum(axis=0))
    h_abc = entropy_bits(p_abc)
    h_c = entropy_bits(p_abc.sum(axis=(0, 1)))
    return h_ac + h_bc - h_abc - h_c


def telescoping_identity_check(inst: TelescopingInstance) -> tuple[float, float, float]:
    """Both sides of the blockwise-to-single-coordinate identity.

    Left side: I(S;X-block|R) - I(S;Y-block|R) computed on the explicit
    joint. Right side: n*[I(S;X_J|V) - I(S;Y_J|V)] with J uniform on the
    coordinates, independent of everything, and V the tuple (X-prefix
    before J, Y-suffix after J, R, J). Returns (lhs, rhs, gap) and raises
    when the gap exceeds TELESCOPING_TOL: equality is an identity, so a
    violation means broken arithmetic, not an unlucky instance.
    """
    n = inst.n
    joint = inst.joint
    s_card, r_card = inst.s_card, inst.r_card

    p_sxr = joint.sum(axis=tuple(range(2 + n, 2 + 2 * n)))      # (S, R, X-block)
    p_syr = joint.sum(axis=tuple(range(2, 2 + n)))              # (S, R, Y-block)
    lhs = (_cmi(np.moveaxis(p_sxr.reshape(s_card, r_card, -1), 2, 1))
           - _cmi(np.moveaxis(p_syr.reshape(s_card, r_card, -1), 2, 1)))

    # right side: coordinate j's (S, X_j, V) and (S, Y_j, V) laws, with
    # V = (X before j, Y after j, R), are marginals of the joint. The X side
    # sums out X after j and Y up to j, the Y side X from j on and Y before
    # j; either way X_j or Y_j is left on axis 2 + j. Weighted by 1/n and
    # set side by side along V, they are the laws with J folded into V.
    x_laws, y_laws = [], []
    for j in range(n):
        for laws, drop in ((x_laws, range(3 + j, 3 + n + j)),
                           (y_laws, range(2 + j, 2 + n + j))):
            law = np.moveaxis(joint.sum(axis=tuple(drop)), 2 + j, 1)
            laws.append(law.reshape(s_card, law.shape[1], -1) / n)
    rhs = n * (_cmi(np.concatenate(x_laws, axis=2))
               - _cmi(np.concatenate(y_laws, axis=2)))
    gap = abs(lhs - rhs)
    if gap > TELESCOPING_TOL:
        raise InternalInvariantError(
            f"telescoping identity violated: |{lhs} - {rhs}| = {gap:.3e}")
    return lhs, rhs, gap

