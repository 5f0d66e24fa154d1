"""Solvers for the one-way uniform common randomness capacity.

The quantity of interest, for a fixed source joint pmf and a helper-rate
budget C in bits, is

    max I(U;X)  over channels X -> U  with  I(U;X) - I(U;Y) <= C,

where (U, X, Y) always carries the chain U - X - Y. Because a time-sharing
coordinate can be absorbed into U, the optimum over u_card = |X| + 1 symbols
is concave and nondecreasing in C, equals H(X) once C reaches H(X|Y), and
hits the Gacs-Korner point at C = 0.

Two independent paths are provided: a brute-force oracle that enumerates
row-stochastic matrices on a fine simplex grid, and a fast solver that
reads none of that grid. The solver starts from the upper-hull
points of every deterministic map X -> U, then runs a fixed number of
polish rounds: for each hull segment up to the peak whose chord slope s
exceeds 1, it climbs I(U;X) - s * gap from the segment's end points and
their midpoint. At s > 1 that objective is the information-bottleneck
Lagrangian at beta = s / (s - 1), whose self-consistent update never
lowers it, so the climbs are deterministic and the solver draws no random
numbers. A round's climbers step together in one flat (x, u·M) array, so
each contraction is one 2-D matmul for all of them. For slopes in [0, 1]
the objective is convex in P(u|x) and the maximizer is a deterministic
map, which the skeleton already holds.
Both paths build their point cloud once, as (gaps, values, mats) arrays
with mats an (x, u, M) stack, scored by one kernel over such stacks that
gives each matrix the same bits in any batch and sets gaps and values at
or below 1e-12 to exactly 0, so the constant map anchors every envelope
at gap 0. The oracle scores one grid matrix per U-relabelling orbit
(relabelling U moves neither I(U;X) nor the gap), though ORACLE_GUARD
counts the full grid it walks. It keeps each grid chunk's hull, with the
hull kept so far as a floor: a chunk with no point near or above it keeps
nothing, any other keeps its whole hull. A chunk is scored one kernel
block at a time and thinned as it goes to the points near a chain of its
own points, so what the oracle holds scales with the kernel block and the
hull, not with the chunk or the grid. The oracle is the arbiter; the
solver is validated against it, never trusted alone.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import GuardError, InternalInvariantError, ValidationError
from .probspace import (
    ConditionalPmf,
    JointPmf,
    Pmf,
    as_rng,
    conditional_entropy_x_given_y,
    entropy_bits,
)

FEAS_TOL = 1e-9
# the oracle's grid size limit, counted over every matrix (relabellings too)
ORACLE_GUARD = 10 ** 8
# the solver's skeleton is every map X -> U, refused above this many of them
_MAP_GUARD = 2 ** 20
# the solver's polish: rounds over the hull, and fixed-point steps per climb
_POLISH_ROUNDS = 6
_CLIMB_STEPS = 200
# _upper_hull thins clouds of at least this many points against a `_chain`;
# _grid_hull first thins its survivors when they number this many
_PREFILTER_MIN = 1024
# rounds of `_chain`: more only tighten it
_CHAIN_ROUNDS = 16
# _objectives sets gaps and values at or below this to exactly 0:
# rounding leaves a few ulp on maps whose true gap or value is 0, the
# constant map among them (the gap never exceeds the value, so the gap of a
# snapped value is snapped too)
_GAP_SNAP = 1e-12
# Dirichlet draws the oracle adds to its grid
_ORACLE_DRAWS = 2048
# the oracle keeps each range of this many grid indices to its own hull; of
# two matrices equal in exact arithmetic but a few ulp apart (two splits of
# one channel into proportional columns), which one a chunk keeps can hang on
# its other vertices, so another size can move the oracle's goldens
_ORACLE_CHUNK = 200_000
# grid matrices per kernel call, so its temporaries stay in cache, and per
# thinning step of `_grid_hull`, so it also sets the oracle's memory (no bit moves)
_KERNEL_BLOCK = 8192


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
        return AuxiliaryChannel.deterministic(range(x_card), u_card)

    @staticmethod
    def constant(x_card: int, u_card: int = 1) -> "AuxiliaryChannel":
        return AuxiliaryChannel.deterministic([0] * x_card, u_card)

    @staticmethod
    def deterministic(mapping, u_card: int) -> "AuxiliaryChannel":
        mapping = list(mapping)
        if u_card < 1:
            raise ValidationError(f"an auxiliary needs u_card >= 1, got {u_card}")
        if len(mapping) * u_card > _MAP_GUARD:
            raise GuardError(f"an auxiliary of {len(mapping)} x {u_card} cells is past "
                             f"{_MAP_GUARD}; use a smaller u_card")
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


def _entropies(slabs, term: np.ndarray) -> np.ndarray:
    """-sum p log2 p over the rows of (rows, M) slabs shaped like term, the
    buffer it works in, with 0 log 0 = 0: one masked log pass per slab, then
    its rows added into one accumulator in the order given, elementwise."""
    total = None
    for p in slabs:
        term.fill(0.0)
        np.log2(p, out=term, where=p > 0.0)
        term *= p
        for row in term:
            if total is None:
                total = row.copy()
            else:
                total += row
    return np.negative(total, out=total)


def _source_terms(pxy: np.ndarray):
    """What the objective kernel reads of a source: (P_X, P_XY, H(X), H(Y))."""
    px = pxy.sum(axis=1)
    return px, pxy, entropy_bits(px), entropy_bits(pxy.sum(axis=0))


def _objectives(w: np.ndarray, terms) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized (I(U;X), gap) for a stack of matrices shaped (x, u, M).

    Each matrix gets the same bits in any batch (alone, in a grid chunk, in
    a permuted or strided stack): every reduction over the small x, u and y
    axes is an explicit loop in one fixed order, elementwise over M. The
    joint laws P(u, x), P(u) and P(y, u) are formed one (u, M) slab at a
    time, x or y leading, and each slab goes straight into its entropy, so
    no (x, u, M) temporary is held. Gaps and values at or below _GAP_SNAP
    are set to exactly 0. terms comes from `_source_terms`.
    """
    px, pxy, h_x, h_y = terms
    slab, part, term = np.empty((3,) + w.shape[1:])

    def pux():
        for x, p in enumerate(px):
            yield np.multiply(w[x], p, out=slab)

    def mixed(weights):
        # slab k: sum_x weights[x, k] P(u|x) over (u, M), added in x order
        for k in range(weights.shape[1]):
            np.multiply(w[0], weights[0, k], out=slab)
            for x in range(1, w.shape[0]):
                np.add(slab, np.multiply(w[x], weights[x, k], out=part), out=slab)
            yield slab

    h_u = _entropies(mixed(px[:, None]), term)
    h_ux = _entropies(pux(), term)
    h_uy = _entropies(mixed(pxy), term)
    i_ux = h_u + h_x - h_ux
    gap = i_ux - (h_u + h_y - h_uy)
    gap[gap <= _GAP_SNAP] = 0.0
    i_ux[i_ux <= _GAP_SNAP] = 0.0
    return i_ux, gap


def _simplex_grid(m: int, k: int) -> np.ndarray:
    """All compositions of m into k nonnegative parts, in increasing
    lexicographic order, divided by m."""
    heads = np.zeros((1, 0), dtype=np.int64)
    left = np.array([m])
    for _ in range(k - 1):
        # each head grows by every part 0..left in turn
        count = left + 1
        parent = np.repeat(np.arange(left.size), count)
        part = np.arange(parent.size) - np.repeat(np.cumsum(count) - count, count)
        heads = np.column_stack([heads[parent], part])
        left = left[parent] - part
    return np.column_stack([heads, left]) / m


def _grid_block(row_pts: np.ndarray, flat: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Grid channels with the given flat indices, written into out, shaped
    (x, u, flat.size), and returned.

    A channel is one grid row per input symbol; the last input symbol is the
    least significant digit of the flat index.
    """
    for x in range(out.shape[0] - 1, -1, -1):
        flat, digit = np.divmod(flat, row_pts.shape[0])
        np.take(row_pts.T, digit, axis=1, out=out[x], mode="clip")
    return out


def _hull_scan(gaps: np.ndarray, values: np.ndarray) -> list[int]:
    """Indices of the upper concave hull of the cloud, sorted by gap.

    The one exact scan: sort by gap (highest value first within equal gaps,
    then lowest index), keep the first point of each distinct gap, then a
    monotone-chain pass over Python floats (the same IEEE arithmetic) that
    also drops collinear middle points. `_upper_hull` returns the same list;
    this scan is its reference.
    """
    order = np.lexsort((-values, gaps))
    # one point per distinct gap: the highest
    g = gaps[order]
    first = np.ones(order.size, dtype=bool)
    first[1:] = g[1:] > g[:-1]
    order = order[first]
    hull: list[tuple] = []
    for point in zip(order.tolist(), gaps[order].tolist(), values[order].tolist()):
        while len(hull) >= 2:
            (_, gi, vi), (_, gj, vj) = hull[-2:]
            if (gj - gi) * (point[2] - vi) - (vj - vi) * (point[1] - gi) >= 0.0:
                hull.pop()
            else:
                break
        hull.append(point)
    return [idx for idx, _, _ in hull]


def _above(gaps: np.ndarray, values: np.ndarray, chain) -> np.ndarray:
    """Which points lie within 1e-12 of or above the chain (gaps, values),
    or outside its gap range."""
    return values >= np.interp(gaps, *chain, left=-np.inf, right=-np.inf) - 1e-12


def _upper_hull(gaps: np.ndarray, values: np.ndarray, floor=None) -> list[int]:
    """Indices of the upper concave hull of the cloud, sorted by gap.

    Returns exactly `_hull_scan(gaps, values)`, or [] if a floor is given
    and no point lies within 1e-12 of or above it. A floor is a hull (gaps,
    values) of points of a larger cloud that this one joins, as the oracle's
    running hull is, so it never lies above that cloud's hull: a cloud
    wholly below it adds no vertex there. A large finite cloud is thinned in
    numpy first: a point more than 1e-12 below its `_chain` is no hull
    vertex. Only the points on or above the chain, or outside its gap
    range, go through the scan, whose own sort and dedup settle equal gaps.
    """
    if floor is not None and not _above(gaps, values, floor).any():
        return []
    if gaps.size < _PREFILTER_MIN or not (np.isfinite(gaps).all() and np.isfinite(values).all()):
        return _hull_scan(gaps, values)
    live = np.flatnonzero(_above(gaps, values, _chain(gaps, values)))
    return live[_hull_scan(gaps[live], values[live])].tolist()


def _chain(gaps: np.ndarray, values: np.ndarray):
    """(gaps, values) of a chain through points of a finite cloud, sorted by
    gap: the highest point at each distinct gap, then _CHAIN_ROUNDS rounds
    at most, each dropping every vertex at which the slope does not fall.
    Its vertices are cloud points, so it never lies above the cloud's upper
    hull; the rounds only bring it closer."""
    order = np.argsort(gaps)
    g, v = gaps[order], values[order]
    first = np.flatnonzero(np.diff(g, prepend=-np.inf))
    g, v = g[first], np.maximum.reduceat(v, first)
    for _ in range(_CHAIN_ROUNDS):
        slope = (v[1:] - v[:-1]) / (g[1:] - g[:-1])
        keep = np.ones(g.size, dtype=bool)
        np.less(slope[1:], slope[:-1], out=keep[1:-1])
        if keep.all():
            break
        g, v = g[keep], v[keep]
    return g, v


def _orbit_blocks(row_pts: np.ndarray, x_card: int, start: int, stop: int):
    """Yield the flat indices in [start, stop) of one grid channel per
    U-relabelling orbit, increasing, in blocks of at most _KERNEL_BLOCK;
    int32 where the grid's indices fit.

    A channel is kept when its U-columns are in non-decreasing lexicographic
    order, x = 0 the most significant key. As `_simplex_grid` numbers rows in
    increasing lexicographic order, that is the orbit's lowest flat index.
    Each pair of neighbouring columns reads how a row's two entries compare
    (-1, 0 or 1) off a table, at each row digit: the first nonzero, from
    x = 0, orders the pair. The leading digits are folded once into one such
    state per run of channels that share them; each of the (at most
    3^(|U| - 1)) distinct states keeps one fixed list of last-digit rows,
    from which each block gathers its indices.
    """
    if stop <= start:
        return
    n = row_pts.shape[0]
    dtype = np.int32 if n ** x_card <= np.iinfo(np.int32).max else np.int64
    rises = np.sign(np.diff(row_pts, axis=1)).astype(np.int8).T  # (pair, row)
    first = start // n
    lead = np.arange(first, -(-stop // n))
    order = np.zeros((rises.shape[0], lead.size), dtype=np.int8)
    for _ in range(x_card - 1):  # x = |X| - 2 first, so x = 0 decides last
        lead, digit = np.divmod(lead, n)
        step = rises[:, digit]
        order = np.where(step != 0, step, order)
    code = 3 ** np.arange(rises.shape[0]) @ (order + 1).astype(np.int64)
    _, pick, state = np.unique(code, return_index=True, return_inverse=True)
    states = order[:, pick, None]
    keep = ((states > 0) | ((states == 0) & (rises[:, None, :] >= 0))).all(axis=0)
    rows = [np.flatnonzero(k) for k in keep]
    sizes = np.array([r.size for r in rows])
    # run r keeps cat[lo[r]:hi[r]]; start and stop cut the first and the last run
    cat = np.concatenate(rows).astype(dtype)
    offset = (np.cumsum(sizes) - sizes)[state]
    lo, hi = offset.copy(), offset + sizes[state]
    lo[0] += np.searchsorted(rows[state[0]], start - first * n)
    hi[-1] = offset[-1] + np.searchsorted(rows[state[-1]], stop - (first + state.size - 1) * n)
    bounds = np.concatenate([[0], np.cumsum(hi - lo)])
    shift = lo - bounds[:-1]
    base = ((first + np.arange(state.size)) * n).astype(dtype)
    for p in range(0, int(bounds[-1]), _KERNEL_BLOCK):
        q = min(p + _KERNEL_BLOCK, int(bounds[-1]))
        r0, r1 = np.searchsorted(bounds, p, side="right") - 1, np.searchsorted(bounds, q)
        count = np.minimum(bounds[r0 + 1:r1 + 1], q) - np.maximum(bounds[r0:r1], p)
        pos = np.arange(p, q) + np.repeat(shift[r0:r1], count)
        yield cat[pos] + np.repeat(base[r0:r1], count)


def _grid_hull(row_pts: np.ndarray, x_card: int, blocks, terms, floor=None):
    """`_upper_hull` of the grid channels whose flat indices the blocks hold,
    as (gaps, values, mats), mats shaped (x, u, M) and built for the hull
    alone; with a floor, channels wholly below it keep nothing.

    Each block holds at most _KERNEL_BLOCK indices, increasing and above
    those of the blocks before it, and is scored into one reused buffer. It
    passes the floor by the elementwise test of `_upper_hull`, and the
    channels pass if any block does. Its points more than 1e-12 below the
    chain are dropped and the rest join the survivors, in index order. When
    the survivors reach their limit, the chain is rebuilt from them
    (`_chain`), the survivors are cut to the points within 1e-12 of it or
    above it, and the limit becomes the larger of _PREFILTER_MIN and twice
    what is left. The chain runs through the channels' own points, so it
    never lies above their hull: no point it cuts is a hull vertex or
    settles a tie in the scan, and the survivors' hull is the hull of every
    channel.
    """
    out = np.empty((x_card, row_pts.shape[1], _KERNEL_BLOCK))
    flat = np.empty(0, dtype=np.int64)
    gaps = values = np.empty(0)
    chain = None
    limit = _PREFILTER_MIN
    passed = floor is None
    for block in blocks:
        v, g = _objectives(_grid_block(row_pts, block, out[:, :, :block.size]), terms)
        passed = passed or bool(_above(g, v, floor).any())
        if chain is not None:
            near = _above(g, v, chain)
            block, g, v = block[near], g[near], v[near]
        flat, gaps, values = (np.concatenate(pair) for pair in
                              zip((flat, gaps, values), (block, g, v)))
        if gaps.size >= limit:
            chain = _chain(gaps, values)
            near = _above(gaps, values, chain)
            flat, gaps, values = flat[near], gaps[near], values[near]
            limit = max(_PREFILTER_MIN, 2 * gaps.size)
    keep = np.array(_upper_hull(gaps, values) if passed else [], dtype=np.int64)
    mats = np.empty((x_card, row_pts.shape[1], keep.size))
    return gaps[keep], values[keep], _grid_block(row_pts, flat[keep], mats)


def _map_hull(x_card: int, u_card: int, terms):
    """`_grid_hull` of every map X -> U, the step-1 grid: (gaps, values, mats)."""
    total = u_card ** x_card
    blocks = (np.arange(lo, min(lo + _KERNEL_BLOCK, total))
              for lo in range(0, total, _KERNEL_BLOCK))
    return _grid_hull(np.eye(u_card), x_card, blocks, terms)


def _stack(parts):
    """Concatenate (gaps, values, mats) parts into one point cloud."""
    gaps, values, mats = zip(*parts)
    return np.concatenate(gaps), np.concatenate(values), np.concatenate(mats, axis=2)


def _evaluate_envelope(cloud, c_bits: float, method: str) -> UcrSolution:
    """Upper concave envelope of the (gaps, values, mats) cloud at c_bits.

    mats is an (x, u, M) stack, so mats[:, :, i] is point i's channel in
    the x-indexed AuxiliaryChannel convention. The cloud must hold
    a point at gap exactly 0, as the constant map always is, so every
    c_bits >= 0 lies on or above the hull's first vertex.
    """
    gaps, values, mats = cloud

    def aux(i: int) -> AuxiliaryChannel:
        return AuxiliaryChannel.from_matrix(mats[:, :, i])

    hull = _upper_hull(gaps, values)
    hg = gaps[hull]
    hv = values[hull]
    if hg[0] != 0.0:
        raise InternalInvariantError(
            f"the hull starts at gap {hg[0]!r}, not 0; the constant map is missing")
    peak = int(np.argmax(hv))
    c_eval = min(c_bits, hg[peak])
    # locate the hull segment containing c_eval
    pos = int(np.searchsorted(hg[: peak + 1], c_eval, side="right"))
    left = hull[pos - 1]
    if pos > peak or c_eval <= hg[pos - 1] + 1e-15:
        return UcrSolution(values[left], aux(left), c_bits - gaps[left], method)
    right = hull[pos]
    lam = (gaps[right] - c_eval) / (gaps[right] - gaps[left])
    value = lam * values[left] + (1.0 - lam) * values[right]
    mix_gap = lam * gaps[left] + (1.0 - lam) * gaps[right]
    achiever = TimeSharedAux(aux(left), aux(right), float(lam))
    return UcrSolution(float(value), achiever, c_bits - mix_gap, method)


def _common_inputs(source: JointPmf, c_bits: float, u_card: int | None):
    if not 0.0 <= c_bits < math.inf:
        raise ValidationError(f"rate budget must be finite and >= 0, got {c_bits}")
    x_card = source.nx
    if u_card is None:
        u_card = x_card + 1
    if u_card < 1:
        raise ValidationError("u_card must be >= 1")
    return x_card, int(u_card)


def ucr_capacity_oracle(source: JointPmf, c_bits: float, u_card: int | None = None,
                        grid_step: float = 0.02, seed: int = 0) -> UcrSolution:
    """Brute-force reference maximization over a simplex grid of channels.

    Enumerates every row-stochastic matrix whose rows sit on the simplex
    grid of the given step, together with _ORACLE_DRAWS Dirichlet draws,
    then takes the upper concave envelope of the whole cloud (two-point
    time-sharing between enumerated achievers) at c_bits. Relabelling U
    moves neither I(U;X) nor the gap, so of each orbit of relabelled grid
    matrices only the lowest flat index, the one with its U-columns in
    lexicographic order, is scored (`_orbit_blocks`); ORACLE_GUARD still
    counts every matrix of the grid, which the filter walks. The grid is
    scored in the kernel's (x, u, M) layout, and each flat-index range of
    _ORACLE_CHUNK keeps its upper-hull vertices: `_upper_hull` with the
    running hull of all points kept so far as its floor, so a chunk wholly
    below that hull keeps nothing and any other keeps its whole hull. A
    chunk is never held whole: `_grid_hull` scores it _KERNEL_BLOCK
    matrices at a time and keeps only the points near a chain of its own
    points, which holds every hull vertex, so every output bit is the whole
    chunk's. The kernel gives a matrix the same bits in any batch and snaps
    gaps and values at or below 1e-12 to exactly 0, so the grid's constant
    map anchors the hull at gap 0. grid_step must be the reciprocal of an
    integer to within 1e-9.
    """
    x_card, u_card = _common_inputs(source, c_bits, u_card)
    if not (0.0 < grid_step <= 0.5 and math.isfinite(1.0 / grid_step)):
        raise ValidationError(f"grid_step must be 1/m for an integer m >= 2, got {grid_step}")
    m = int(round(1.0 / grid_step))
    if abs(1.0 / grid_step - m) > 1e-9:
        raise ValidationError(
            f"grid_step must be 1/m for an integer m, got {grid_step} (1/{1.0 / grid_step:.6g})")
    total = math.comb(m + u_card - 1, u_card - 1) ** x_card
    if total > ORACLE_GUARD:
        raise GuardError(
            f"oracle grid would hold C({m + u_card - 1}, {u_card - 1})^{x_card} matrices "
            f"(> {ORACLE_GUARD:.0e}); "
            "use a coarser grid_step or smaller u_card, or call ucr_capacity_solve")
    row_pts = _simplex_grid(m, u_card)

    terms = _source_terms(source.probs)
    # the running hull starts from the maps (grid points with the same bits) and the
    # draws' hull; the draws still join the cloud last, as ties go to the lower index
    maps = _map_hull(x_card, u_card, terms)
    mats = as_rng(seed).dirichlet(np.ones(u_card), size=(_ORACLE_DRAWS, x_card))
    mats = mats.transpose(1, 2, 0)
    values, gaps = _objectives(mats, terms)
    keep = _upper_hull(gaps, values)
    draws = gaps[keep], values[keep], mats[:, :, keep]
    gaps, values, _ = _stack([maps, draws])
    parts = []
    for start in range(0, total, _ORACLE_CHUNK):
        top = _upper_hull(gaps, values)
        floor = gaps[top], values[top]
        blocks = _orbit_blocks(row_pts, x_card, start, min(start + _ORACLE_CHUNK, total))
        parts.append(_grid_hull(row_pts, x_card, blocks, terms, floor))
        gaps, values = (np.concatenate(pair) for pair in zip(floor, parts[-1]))
    return _evaluate_envelope(_stack(parts + [draws]), c_bits, "oracle")


def _climb(slope_vec: np.ndarray, starts: np.ndarray, terms, steps: int):
    """Information-bottleneck fixed-point rounds on I(U;X) - slope * gap.

    At a slope s > 1 the objective is s I(U;Y) - (s - 1) I(U;X), the
    bottleneck Lagrangian at beta = s / (s - 1) (Tishby, Pereira & Bialek,
    1999). Each of `steps` rounds sets every climber's
    P(u|x) to P(u) 2^(-beta D(P(y|x) || P(y|u))), normalised over u, which
    never lowers its objective; the climbers are scored once, at the end.
    A u with P(y|u) = 0 where P(y|x) > 0 gets P(u|x) = 0, and a row of
    zero P_X(x) becomes P(u), as nothing reads it. starts are shaped
    (x, u, M); returns (gaps, values, mats) of the end points, mats in the
    same shape.

    The M climbers run side by side in one flat (x, u·M) array, column
    u·M + m holding climber m's P(u|x) over x, so each contraction over x
    or y is one 2-D matmul for the whole batch; the max over u, exp2 and
    the normalisation run on its (x, u, M) view, which `_objectives`
    scores as it is.
    """
    px, pxy, _, _ = terms
    cond = np.divide(pxy, px[:, None], out=np.zeros_like(pxy), where=px[:, None] > 0.0)
    seen = cond > 0.0  # (x, y)
    x_card, u_card, count = starts.shape
    beta = np.tile(slope_vec / (slope_vec - 1.0), u_card)  # (u·M,)
    cur = starts.copy()
    flat = cur.reshape(x_card, u_card * count)
    # log2(0) = -inf is wanted; its differences are nan only in cells set to 0 below
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(steps):
            pu = px @ flat  # (u·M,)
            puy = pxy.T @ flat  # (y, u·M)
            dead = puy == 0.0
            log_pu = np.log2(pu)
            log_q = np.log2(puy)
            log_q -= log_pu
            log_q[dead] = 0.0
            # up to a constant in u, -D(P(y|x) || P(y|u)) = sum_y P(y|x) log2 P(y|u)
            logit = cond @ log_q  # (x, u·M)
            logit *= beta
            logit += log_pu
            logit[seen @ dead] = -np.inf
            logit = logit.reshape(cur.shape)
            logit -= logit.max(axis=1, keepdims=True)
            np.exp2(logit, out=cur)
            cur /= cur.sum(axis=1, keepdims=True)
    values, gaps = _objectives(cur, terms)
    return gaps, values, cur


def _collect_points(source: JointPmf, u_card: int):
    """Deterministic-map skeleton, then fixed-point climbs at its hull slopes.

    The skeleton is every map X -> U. Each of _POLISH_ROUNDS rounds takes
    the cloud's upper-hull segments up to the peak whose chord slope s
    exceeds 1 and climbs I(U;X) - s * gap (`_climb`) from both end points
    and their midpoint; a climber that ends above the chord splits the
    segment. At s <= 1 the objective is (1 - s) I(U;X) + s I(U;Y), convex
    in P(u|x), so a map maximises it and the segment is left alone. Returns
    the cloud as (gaps, values, mats) arrays, mats shaped (x, u, M).
    """
    x_card = source.nx
    terms = _source_terms(source.probs)
    total = u_card ** x_card
    if total > _MAP_GUARD:
        raise GuardError(
            f"the solver's skeleton would hold all {total} maps X -> U "
            f"(> {_MAP_GUARD}); use a smaller u_card")
    cloud = _map_hull(x_card, u_card, terms)
    for _ in range(_POLISH_ROUNDS):
        gaps, values, mats = cloud
        hull = np.array(_upper_hull(gaps, values))
        peak = int(np.argmax(values[hull]))
        left, right = hull[:peak], hull[1:peak + 1]
        slopes = (values[right] - values[left]) / (gaps[right] - gaps[left])
        steep = slopes > 1.0
        if not steep.any():
            break
        left, right = left[steep], right[steep]
        ends = mats[:, :, left], mats[:, :, right]
        starts = np.concatenate([*ends, 0.5 * (ends[0] + ends[1])], axis=2)
        cloud = _stack([cloud, _climb(np.tile(slopes[steep], 3), starts, terms, _CLIMB_STEPS)])
    return cloud


def ucr_capacity_solve(source: JointPmf, c_bits: float,
                       u_card: int | None = None) -> UcrSolution:
    """Fast solver: exact fast path, then envelope over searched points.

    For C >= H(X|Y) the identity auxiliary is optimal and exact. Below that,
    the cloud is every deterministic map X -> U, polished by
    information-bottleneck fixed-point climbs at the chord slope of each
    steep segment of its upper hull (`_collect_points`); the value is the
    cloud's upper concave envelope at c_bits. The search draws no random
    numbers, and the cloud does not depend on c_bits, so the result is
    monotone in C.
    """
    return ucr_curve(source, [c_bits], u_card)[0][1]


def ucr_curve(source: JointPmf, c_grid,
              u_card: int | None = None) -> list[tuple[float, UcrSolution]]:
    """Evaluate the capacity at several budgets off one shared search.

    Each budget below H(X|Y) reads the envelope of the one cloud that
    `ucr_capacity_solve` describes; with u_card >= |X|, budgets at or above
    it take the exact fast path, and a grid made only of those runs no
    search.
    """
    c_grid = [float(c) for c in c_grid]
    if not all(c >= 0.0 for c in c_grid):
        raise ValidationError("rate budgets must be >= 0")
    x_card, u_card = _common_inputs(source, max(c_grid, default=0.0), u_card)
    h_x = entropy_bits(source.probs.sum(axis=1))
    h_x_given_y = conditional_entropy_x_given_y(source)
    cloud = None
    out: list[tuple[float, UcrSolution]] = []
    for c in c_grid:
        if u_card >= x_card and c >= h_x_given_y - 1e-12:
            sol = UcrSolution(h_x, AuxiliaryChannel.identity(x_card, u_card),
                              c - h_x_given_y, "envelope")
        else:
            if cloud is None:
                cloud = _collect_points(source, u_card)
            sol = _evaluate_envelope(cloud, c, "envelope")
        out.append((c, sol))
    return out
