"""Solvers for the one-way uniform common randomness capacity.

The quantity of interest, for a fixed source joint pmf and a helper-rate
budget C in bits, is

    max I(U;X)  over channels X -> U  with  I(U;X) - I(U;Y) <= C,

where (U, X, Y) always carries the chain U - X - Y. Because a time-sharing
coordinate can be absorbed into U, the optimum over u_card = |X| + 1 symbols
is concave and nondecreasing in C, equals H(X) once C reaches H(X|Y), and
hits the Gacs-Korner point at C = 0.

Two independent paths are provided: a brute-force oracle that enumerates
row-stochastic matrices on a fine simplex grid, and a fast solver built from
deterministic maps, a budgeted coarse-grid skeleton, batched multi-level
local search, and an upper concave envelope over every point it discovered.
The oracle is the arbiter; the solver is validated against it, never
trusted alone.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import GuardError, InternalInvariantError, ValidationError
from .probspace import (
    ConditionalPmf,
    JointPmf,
    Pmf,
    as_rng,
    compose_aux,
    conditional_entropy_x_given_y,
    entropy_bits,
    mutual_information,
)

FEAS_TOL = 1e-9
ORACLE_GUARD = 10 ** 8
_COARSE_BUDGET = 60_000
# _upper_hull thins clouds of at least this many points with a sub-hull
# through the highest point of each of this many gap bins
_PREFILTER_MIN = 1024
_PREFILTER_BINS = 256


@dataclass(frozen=True)
class AuxiliaryChannel:
    """Auxiliary variable U attached to X through a stochastic matrix.

    cond.rows is indexed by x; row x is the pmf of U given X = x. There is
    no hard cap on u_card here: |X| + 1 suffices for the optimum and is the
    default search width, but wider channels are legal (and useful as a
    no-improvement diagnostic).
    """

    cond: ConditionalPmf

    @property
    def x_card(self) -> int:
        return self.cond.n_in

    @property
    def u_card(self) -> int:
        return self.cond.n_out

    @staticmethod
    def from_matrix(rows: np.ndarray) -> "AuxiliaryChannel":
        return AuxiliaryChannel(ConditionalPmf(np.asarray(rows, dtype=float)))

    @staticmethod
    def identity(x_card: int, u_card: int | None = None) -> "AuxiliaryChannel":
        u_card = x_card if u_card is None else u_card
        if u_card < x_card:
            raise ValidationError("identity auxiliary needs u_card >= x_card")
        rows = np.zeros((x_card, u_card))
        rows[np.arange(x_card), np.arange(x_card)] = 1.0
        return AuxiliaryChannel(ConditionalPmf(rows))

    @staticmethod
    def constant(x_card: int, u_card: int = 1) -> "AuxiliaryChannel":
        rows = np.zeros((x_card, u_card))
        rows[:, 0] = 1.0
        return AuxiliaryChannel(ConditionalPmf(rows))

    @staticmethod
    def deterministic(mapping, u_card: int) -> "AuxiliaryChannel":
        mapping = list(mapping)
        rows = np.zeros((len(mapping), u_card))
        rows[np.arange(len(mapping)), mapping] = 1.0
        return AuxiliaryChannel(ConditionalPmf(rows))


@dataclass(frozen=True)
class TimeSharedAux:
    """Convex combination of two auxiliary channels via a shared coin.

    Objective and constraint are the same convex combinations of the two
    endpoints' values. flatten() realizes the coin explicitly by stacking
    the two U alphabets, at the price of a larger u_card.
    """

    first: AuxiliaryChannel
    second: AuxiliaryChannel
    weight: float  # on `first`

    def __post_init__(self):
        if not (0.0 <= self.weight <= 1.0):
            raise ValidationError(f"time-share weight must be in [0, 1], got {self.weight}")
        if self.first.x_card != self.second.x_card:
            raise ValidationError("time-shared endpoints must share the X alphabet")

    def flatten(self) -> AuxiliaryChannel:
        a = self.first.cond.rows * self.weight
        b = self.second.cond.rows * (1.0 - self.weight)
        return AuxiliaryChannel.from_matrix(np.concatenate([a, b], axis=1))


@dataclass(frozen=True)
class UcrSolution:
    """A feasible operating point: value in bits, its achiever, and slack."""

    value_bits: float
    achiever: AuxiliaryChannel | TimeSharedAux
    constraint_slack: float
    method: str  # "oracle" | "envelope"

    def __post_init__(self):
        if self.method not in ("oracle", "envelope"):
            raise ValidationError(f"unknown solution method {self.method!r}")
        if self.constraint_slack < -FEAS_TOL:
            raise InternalInvariantError(
                f"solution violates the rate constraint by {-self.constraint_slack:.3e}")


def ucr_objective(source: JointPmf, aux: AuxiliaryChannel) -> tuple[float, float]:
    """Return (I(U;X), I(U;X) - I(U;Y)) in bits for one auxiliary channel."""
    triple = compose_aux(source, aux.cond)
    i_ux = mutual_information(triple.pair_ux())
    i_uy = mutual_information(triple.pair_uy())
    gap = i_ux - i_uy
    if gap < -FEAS_TOL:
        raise InternalInvariantError(
            f"I(U;X) - I(U;Y) = {gap} < 0 despite the Markov chain")
    return i_ux, max(gap, 0.0)


def _plogp(p: np.ndarray, axis) -> np.ndarray:
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(p > 0.0, p * np.log2(np.where(p > 0.0, p, 1.0)), 0.0)
    return terms.sum(axis=axis)


def _batch_objectives(mats: np.ndarray, px: np.ndarray,
                      pxy: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized (I(U;X), gap) for a stack of matrices shaped (M, u, x)."""
    h_x = entropy_bits(px)
    h_y = entropy_bits(pxy.sum(axis=0))
    pux = mats * px[None, None, :]
    pu = pux.sum(axis=2)
    h_u = -_plogp(pu, axis=1)
    h_ux = -_plogp(pux, axis=(1, 2))
    puy = np.einsum("mux,xy->muy", mats, pxy)
    h_uy = -_plogp(puy, axis=(1, 2))
    i_ux = h_u + h_x - h_ux
    gap = i_ux - (h_u + h_y - h_uy)
    return np.maximum(i_ux, 0.0), np.maximum(gap, 0.0)


def _simplex_grid(m: int, k: int) -> np.ndarray:
    """All compositions of m into k nonnegative parts, divided by m."""
    out = []
    comp = [0] * k

    def rec(pos: int, left: int):
        if pos == k - 1:
            comp[pos] = left
            out.append(comp.copy())
            return
        for v in range(left + 1):
            comp[pos] = v
            rec(pos + 1, left - v)

    rec(0, m)
    return np.array(out, dtype=float) / m


def _grid_chunk(row_pts: np.ndarray, x_card: int, start: int, stop: int) -> np.ndarray:
    """Decode flat channel indices [start, stop) into matrices shaped (M, u, x).

    A channel is one grid row per input symbol; the last input symbol is the
    least significant digit of the flat index.
    """
    n_rows = row_pts.shape[0]
    idx = np.arange(start, stop)
    rows_idx = np.empty((idx.size, x_card), dtype=np.int64)
    rem = idx.copy()
    for x in range(x_card - 1, -1, -1):
        rows_idx[:, x] = rem % n_rows
        rem //= n_rows
    return row_pts[rows_idx].transpose(0, 2, 1)


def _deterministic_maps(x_card: int, u_card: int) -> list[np.ndarray]:
    mats = []
    for assignment in itertools.product(range(u_card), repeat=x_card):
        rows = np.zeros((u_card, x_card))
        rows[list(assignment), np.arange(x_card)] = 1.0
        mats.append(rows)
    return mats


class _PointCloud:
    """Accumulates (gap, value) points with their achiever matrices.

    Matrices are stored in the (u, x) layout used by the batch evaluator;
    aux() converts back to the x-indexed AuxiliaryChannel convention.
    """

    def __init__(self):
        self.gaps: list[float] = []
        self.values: list[float] = []
        self.mats: list[np.ndarray] = []

    def add(self, gap: float, value: float, mat: np.ndarray):
        self.gaps.append(float(gap))
        self.values.append(float(value))
        self.mats.append(np.asarray(mat, dtype=float))

    def aux(self, idx: int) -> AuxiliaryChannel:
        return AuxiliaryChannel.from_matrix(self.mats[idx].T)

    def add_batch(self, gaps: np.ndarray, values: np.ndarray, mats: np.ndarray):
        for g, v, m in zip(gaps, values, mats):
            self.add(g, v, m)


def _hull_scan(gaps: np.ndarray, values: np.ndarray) -> list[int]:
    """Indices of the upper concave hull of the cloud, sorted by gap.

    The one exact scan: sort by gap (highest value first within equal gaps),
    keep the first point of every run of gaps within 1e-15 of the last kept
    gap, then a monotone-chain pass that also drops collinear middle points.
    `_upper_hull` returns the same list; this loop is its reference.
    """
    order = np.lexsort((-values, gaps))
    # one point per distinct gap: the highest
    dedup: list[int] = []
    last_g = None
    for idx in order:
        g = gaps[idx]
        if last_g is None or g > last_g + 1e-15:
            dedup.append(int(idx))
            last_g = g
    hull: list[int] = []
    for idx in dedup:
        while len(hull) >= 2:
            i, j = hull[-2], hull[-1]
            cross = (gaps[j] - gaps[i]) * (values[idx] - values[i]) \
                - (values[j] - values[i]) * (gaps[idx] - gaps[i])
            if cross >= 0.0:
                hull.pop()
            else:
                break
        hull.append(idx)
    return hull


def _run_tops(values: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Mask of the entries equal to the maximum of their run; runs begin at starts."""
    sizes = np.diff(np.append(starts, values.size))
    return values == np.repeat(np.maximum.reduceat(values, starts), sizes)


def _upper_hull(gaps: np.ndarray, values: np.ndarray) -> list[int]:
    """Indices of the upper concave hull of the cloud, sorted by gap.

    Returns exactly `_hull_scan(gaps, values)`. A large finite cloud is
    thinned in numpy first: after the scan's own sort and gap dedup, the
    highest point of each gap bin plus both end points give a sub-hull.
    Every sub-hull vertex is a cloud point, so the sub-hull never lies above
    the true hull, and a point more than 1e-12 below it is no hull vertex.
    Only the points left go through the scan.
    """
    n = gaps.size
    if n < _PREFILTER_MIN or not (np.isfinite(gaps).all() and np.isfinite(values).all()):
        return _hull_scan(gaps, values)
    order = np.argsort(gaps)
    gs = gaps[order]
    vs = values[order]
    # one point per gap: the scan's lexsort heads a group of equal gaps with
    # its highest value, and equal values with the lowest index
    start = np.flatnonzero(np.r_[True, gs[1:] != gs[:-1]])
    idx = np.minimum.reduceat(np.where(_run_tops(vs, start), order, n), start)
    # the scan's 1e-15 dedup: a gap more than 1e-15 above its predecessor
    # heads a run; only a run spanning more than 1e-15 can keep a second
    # point, and there the sequential rule is replayed
    g = gaps[idx]
    keep = np.r_[True, g[1:] > g[:-1] + 1e-15]
    heads = np.flatnonzero(keep)
    ends = np.append(heads[1:], g.size) - 1
    wide = g[ends] > g[heads] + 1e-15
    for h, e in zip(heads[wide].tolist(), ends[wide].tolist()):
        last = g[h]
        for k in range(h + 1, e + 1):
            if g[k] > last + 1e-15:
                keep[k] = True
                last = g[k]
    idx = idx[keep]
    if idx.size < 3:  # one or two points are their own hull
        return idx.tolist()
    g = gaps[idx]
    v = values[idx]
    bins = np.minimum(((g - g[0]) * (_PREFILTER_BINS / (g[-1] - g[0]))).astype(np.int64),
                      _PREFILTER_BINS - 1)
    sub = _run_tops(v, np.flatnonzero(np.r_[True, bins[1:] != bins[:-1]]))
    sub[0] = sub[-1] = True
    sub = np.flatnonzero(sub)
    sub = sub[_hull_scan(g[sub], v[sub])]
    # survivors keep the deduped gap order, so the scan's own sort and dedup
    # drop none of them
    live = np.flatnonzero(v >= np.interp(g, g[sub], v[sub]) - 1e-12)
    return idx[live[_hull_scan(g[live], v[live])]].tolist()


def _evaluate_envelope(cloud: _PointCloud, c_bits: float,
                       method: str) -> UcrSolution:
    gaps = np.array(cloud.gaps)
    values = np.array(cloud.values)
    hull = _upper_hull(gaps, values)
    hg = gaps[hull]
    hv = values[hull]
    peak = int(np.argmax(hv))
    c_eval = min(c_bits, hg[peak])
    # locate the hull segment containing c_eval
    pos = int(np.searchsorted(hg[: peak + 1], c_eval, side="right"))
    if pos == 0:
        # below the first vertex; only possible if the smallest gap > C
        feasible = np.where(gaps <= c_bits + FEAS_TOL)[0]
        if feasible.size == 0:
            raise InternalInvariantError("no feasible point; the constant map is missing")
        best = int(feasible[np.argmax(values[feasible])])
        return UcrSolution(values[best], cloud.aux(best), c_bits - gaps[best], method)
    left = hull[pos - 1]
    if pos > peak or c_eval <= hg[pos - 1] + 1e-15:
        return UcrSolution(values[left], cloud.aux(left), c_bits - gaps[left], method)
    right = hull[pos]
    lam = (gaps[right] - c_eval) / (gaps[right] - gaps[left])
    value = lam * values[left] + (1.0 - lam) * values[right]
    mix_gap = lam * gaps[left] + (1.0 - lam) * gaps[right]
    achiever = TimeSharedAux(cloud.aux(left), cloud.aux(right), float(lam))
    return UcrSolution(float(value), achiever, c_bits - mix_gap, method)


def _common_inputs(source: JointPmf, c_bits: float, u_card: int | None):
    if c_bits < 0.0:
        raise ValidationError(f"rate budget must be >= 0, got {c_bits}")
    x_card = source.nx
    if u_card is None:
        u_card = x_card + 1
    if u_card < 1:
        raise ValidationError("u_card must be >= 1")
    px = source.probs.sum(axis=1)
    return x_card, int(u_card), px


def ucr_capacity_oracle(source: JointPmf, c_bits: float, u_card: int | None = None,
                        grid_step: float = 0.02, seed: int = 0,
                        n_random: int = 2048) -> UcrSolution:
    """Brute-force reference maximization over a simplex grid of channels.

    Enumerates every row-stochastic matrix whose rows sit on the simplex
    grid of the given step, together with all deterministic maps and a batch
    of Dirichlet draws, then takes the upper concave envelope of the whole
    cloud (two-point time-sharing between enumerated achievers) at c_bits.
    grid_step must be the reciprocal of an integer to within 1e-9.
    """
    x_card, u_card, px = _common_inputs(source, c_bits, u_card)
    if not (0.0 < grid_step <= 0.5):
        raise ValidationError(f"grid_step must be in (0, 0.5], got {grid_step}")
    m = int(round(1.0 / grid_step))
    if abs(1.0 / grid_step - m) > 1e-9:
        raise ValidationError(
            f"grid_step must be 1/m for an integer m, got {grid_step} (1/{1.0 / grid_step:.6g})")
    row_pts = _simplex_grid(m, u_card)
    n_rows = row_pts.shape[0]
    total = n_rows ** x_card
    if total > ORACLE_GUARD:
        raise GuardError(
            f"oracle grid would hold {total:.3e} matrices (> {ORACLE_GUARD:.0e}); "
            "use a coarser grid_step or smaller u_card, or call ucr_capacity_solve")

    pxy = source.probs
    cloud = _PointCloud()
    chunk = 200_000
    # per-chunk concave-hull survivors keep the cloud small
    for start in range(0, total, chunk):
        mats = _grid_chunk(row_pts, x_card, start, min(start + chunk, total))
        values, gaps = _batch_objectives(mats, px, pxy)
        keep = set(_upper_hull(gaps, values))
        feas = np.where(gaps <= c_bits + FEAS_TOL)[0]
        if feas.size:
            keep.add(int(feas[np.argmax(values[feas])]))
        for i in sorted(keep):
            cloud.add(gaps[i], values[i], mats[i])

    for mat in _deterministic_maps(x_card, u_card):
        values, gaps = _batch_objectives(mat[None], px, pxy)
        cloud.add(gaps[0], values[0], mat)
    if n_random > 0:
        rng = as_rng(seed)
        mats = rng.dirichlet(np.ones(u_card), size=(n_random, x_card)).transpose(0, 2, 1)
        values, gaps = _batch_objectives(mats, px, pxy)
        keep = set(_upper_hull(gaps, values))
        for i in sorted(keep):
            cloud.add(gaps[i], values[i], mats[i])

    return _evaluate_envelope(cloud, c_bits, "oracle")


def _slope_grid(count: int) -> np.ndarray:
    """Support-line slopes: dense linear sweep plus a geometric tail."""
    n_geo = count // 3
    lin = np.linspace(0.0, 2.0, count - n_geo)
    geo = np.geomspace(2.5, 64.0, n_geo)
    return np.concatenate([lin, geo])


def _climb(rng, slope_vec: np.ndarray, starts: np.ndarray, px: np.ndarray,
           pxy: np.ndarray, steps: int, x_card: int, u_card: int):
    """Batched random-coordinate ascent of I(U;X) - slope * gap per climber."""
    batch = slope_vec.size
    cur = starts.copy()
    cur_v, cur_g = _batch_objectives(cur, px, pxy)
    cur_obj = cur_v - slope_vec * cur_g
    best = cur.copy()
    best_v = cur_v.copy()
    best_g = cur_g.copy()
    best_obj = cur_obj.copy()
    arange = np.arange(batch)
    for t in range(steps):
        step = 0.1 * (0.01 ** (t / max(steps - 1, 1)))
        cols = rng.integers(0, x_card, size=batch)
        u_from = rng.integers(0, u_card, size=batch)
        shift = rng.integers(1, u_card, size=batch) if u_card > 1 else np.zeros(batch, int)
        u_to = (u_from + shift) % u_card
        amount = np.minimum(step * rng.random(batch), cur[arange, u_from, cols])
        trial = cur.copy()
        trial[arange, u_from, cols] -= amount
        trial[arange, u_to, cols] += amount
        tv, tg = _batch_objectives(trial, px, pxy)
        t_obj = tv - slope_vec * tg
        accept = t_obj > cur_obj
        cur[accept] = trial[accept]
        cur_v = np.where(accept, tv, cur_v)
        cur_g = np.where(accept, tg, cur_g)
        cur_obj = np.where(accept, t_obj, cur_obj)
        improved = t_obj > best_obj
        best[improved] = trial[improved]
        best_v = np.where(improved, tv, best_v)
        best_g = np.where(improved, tg, best_g)
        best_obj = np.where(improved, t_obj, best_obj)
    return best_g, best_v, best


def _collect_points(source: JointPmf, u_card: int, seed: int, slopes: np.ndarray,
                    restarts_per_slope: int, steps: int,
                    refine_rounds: int = 2) -> _PointCloud:
    """Deterministic maps, coarse-grid skeleton, and support-line climbing.

    For each slope s the climbers maximize I(U;X) - s * gap without any
    feasibility gate; every maximizer is a support point of the upper
    concave envelope, which is the object both solver paths report. After
    the slope sweep, extra climbs at the chord slopes of adjacent hull
    support pairs bisect the dual and close wide segments.
    """
    x_card = source.nx
    px = source.probs.sum(axis=1)
    pxy = source.probs
    cloud = _PointCloud()

    det = _deterministic_maps(x_card, u_card)
    det_mats = np.stack(det)
    values, gaps = _batch_objectives(det_mats, px, pxy)
    cloud.add_batch(gaps, values, det_mats)

    # coarse grid skeleton: densest simplex step within the element budget
    coarse = coarse_v = coarse_g = None
    for m in range(40, 1, -1):
        if math.comb(m + u_card - 1, u_card - 1) ** x_card <= _COARSE_BUDGET:
            row_pts = _simplex_grid(m, u_card)
            coarse = _grid_chunk(row_pts, x_card, 0, row_pts.shape[0] ** x_card)
            coarse_v, coarse_g = _batch_objectives(coarse, px, pxy)
            for i in sorted(set(_upper_hull(coarse_g, coarse_v))):
                cloud.add(coarse_g[i], coarse_v[i], coarse[i])
            break

    rng = as_rng(seed)
    slope_vec = np.repeat(slopes, restarts_per_slope)
    batch = slope_vec.size
    starts = rng.dirichlet(np.ones(u_card), size=(batch, x_card)).transpose(0, 2, 1)
    # seed every third start from a deterministic map, lightly smoothed
    for b in range(0, batch, 3):
        base = det_mats[b % len(det)] + 0.05
        starts[b] = base / base.sum(axis=0, keepdims=True)
    if u_card >= x_card:
        ident = AuxiliaryChannel.identity(x_card, u_card).cond.rows.T
        for b in range(1, batch, 3):
            mix = 0.85 * ident + 0.15 * starts[b]
            starts[b] = mix / mix.sum(axis=0, keepdims=True)
    if coarse is not None:
        # polish the skeleton's own winner for each climber's slope
        for b in range(2, batch, 3):
            i = int(np.argmax(coarse_v - slope_vec[b] * coarse_g))
            base = coarse[i] + 0.02
            starts[b] = base / base.sum(axis=0, keepdims=True)
    bg, bv, bm = _climb(rng, slope_vec, starts, px, pxy, steps, x_card, u_card)
    cloud.add_batch(bg, bv, bm)

    for _ in range(refine_rounds):
        g_all = np.array(cloud.gaps)
        v_all = np.array(cloud.values)
        hull = _upper_hull(g_all, v_all)
        pairs = [(hull[i], hull[i + 1]) for i in range(len(hull) - 1)
                 if g_all[hull[i + 1]] - g_all[hull[i]] > 2e-3]
        if not pairs:
            break
        pairs.sort(key=lambda ij: g_all[ij[1]] - g_all[ij[0]], reverse=True)
        pairs = pairs[:40]
        per = 6
        r_slopes = np.empty(len(pairs) * per)
        r_starts = np.empty((len(pairs) * per, u_card, x_card))
        for k, (i, j) in enumerate(pairs):
            s = (v_all[j] - v_all[i]) / (g_all[j] - g_all[i])
            a, b = cloud.mats[i], cloud.mats[j]
            seeds = [a + 0.02, b + 0.02, 0.5 * (a + b) + 0.01,
                     0.75 * a + 0.25 * b + 0.01, 0.25 * a + 0.75 * b + 0.01,
                     rng.dirichlet(np.ones(u_card), size=x_card).T]
            for r in range(per):
                base = seeds[r]
                r_slopes[k * per + r] = s
                r_starts[k * per + r] = base / base.sum(axis=0, keepdims=True)
        bg, bv, bm = _climb(rng, r_slopes, r_starts, px, pxy, steps, x_card, u_card)
        cloud.add_batch(bg, bv, bm)
    return cloud


def ucr_capacity_solve(source: JointPmf, c_bits: float, u_card: int | None = None, *,
                       seed: int = 0, slope_count: int = 33,
                       restarts_per_slope: int = 8, steps: int = 700) -> UcrSolution:
    """Fast solver: exact fast path, then envelope over searched points.

    For C >= H(X|Y) the identity auxiliary is optimal and exact. Below that,
    support-line climbers sweep a grid of slopes; their maximizers, together
    with all deterministic maps and a budgeted coarse-grid skeleton, feed an
    upper concave envelope evaluated at c_bits. The collected point set does
    not depend on c_bits, so the result is monotone in C.
    """
    return ucr_curve(source, [c_bits], u_card, seed=seed, slope_count=slope_count,
                     restarts_per_slope=restarts_per_slope, steps=steps)[0][1]


def ucr_curve(source: JointPmf, c_grid, u_card: int | None = None, *,
              seed: int = 0, slope_count: int = 33, restarts_per_slope: int = 8,
              steps: int = 700) -> list[tuple[float, UcrSolution]]:
    """Evaluate the capacity at several budgets off one shared search pass."""
    c_grid = [float(c) for c in c_grid]
    if any(c < 0.0 for c in c_grid):
        raise ValidationError("rate budgets must be >= 0")
    x_card, u_card, px = _common_inputs(source, max(c_grid, default=0.0), u_card)
    h_x = entropy_bits(px)
    h_x_given_y = conditional_entropy_x_given_y(source)
    cloud = None
    out: list[tuple[float, UcrSolution]] = []
    for c in c_grid:
        if u_card >= x_card and c >= h_x_given_y - 1e-12:
            sol = UcrSolution(h_x, AuxiliaryChannel.identity(x_card, u_card),
                              c - h_x_given_y, "envelope")
        else:
            if cloud is None:
                cloud = _collect_points(source, u_card, seed, _slope_grid(slope_count),
                                        restarts_per_slope, steps)
            sol = _evaluate_envelope(cloud, c, "envelope")
        out.append((c, sol))
    return out
