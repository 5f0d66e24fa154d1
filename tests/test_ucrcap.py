"""Constrained auxiliary-channel maximization: oracle, solver, and curve."""

import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from support import (
    bsc_family_curve,
    climb_reference,
    diagonal_source,
    dsbs,
    h2,
    independent_source,
    orbit_indices,
    random_joint,
    ucr_objective,
)
from ucrlab import ucrcap
from ucrlab.errors import GuardError, InternalInvariantError, ValidationError
from ucrlab.probspace import JointPmf, as_rng, conditional_entropy_x_given_y, entropy
from ucrlab.ucrcap import (
    _PREFILTER_MIN,
    AuxiliaryChannel,
    TimeSharedAux,
    _evaluate_envelope,
    _grid_block,
    _grid_hull,
    _hull_scan,
    _objectives,
    _orbit_blocks,
    _simplex_grid,
    _source_terms,
    _stack,
    _upper_hull,
    ucr_capacity_oracle,
    ucr_capacity_solve,
    ucr_curve,
)

# oracle reference on DSBS(0.1) at C = 0.2 bits, u_card 3, grid step 0.02
G1_ORACLE = 0.5059245194168636
G1_SOLVER = 0.5060788753645655
# criterion 03's 28th source (|U| = 2 there); at one time 2 of its 8
# deterministic maps got other last bits inside a grid chunk than alone
C03_SOURCE_28 = [[0.0010244352540482444, 0.10752797925113887, 0.04930480904197328],
                 [0.10372939537370722, 0.06733451174997217, 0.06651399394199892],
                 [0.2022215057298297, 0.06255283405699907, 0.3397905356003327]]


def achieved_point(source, achiever) -> tuple[float, float]:
    """(value, gap) reproduced from the reported achiever."""
    if isinstance(achiever, TimeSharedAux):
        v1, g1 = ucr_objective(source, achiever.first)
        v2, g2 = ucr_objective(source, achiever.second)
        w = achiever.weight
        return w * v1 + (1 - w) * v2, w * g1 + (1 - w) * g2
    return ucr_objective(source, achiever)


def climb_case(seed, nx, ny, u_card, massless):
    """(terms, starts, slopes) for a climb: a random source with zero cells,
    and a zero-mass X row if massless; four maps and four mixed starts with
    zero cells, as an (x, u, M) stack; slopes from 1 + 19^-6 to 20."""
    rng = as_rng(seed)
    probs = random_joint(rng, nx, ny).probs.copy()
    probs[rng.random(probs.shape) < 0.25] = 0.0
    if massless:
        probs[int(rng.integers(0, nx))] = 0.0
    probs.flat[int(rng.integers(0, probs.size))] += 0.1
    terms = _source_terms(probs / probs.sum())
    maps = np.eye(u_card)[rng.integers(0, u_card, size=(4, nx))].transpose(0, 2, 1)
    mixed = rng.dirichlet(np.ones(u_card), size=(4, nx)).transpose(0, 2, 1)
    mixed[rng.random(mixed.shape) < 0.2] = 0.0
    mixed[:, 0] += 1e-3
    starts = np.concatenate([maps, mixed / mixed.sum(axis=1, keepdims=True)])
    slopes = 1.0 + 19.0 ** rng.uniform(-6.0, 1.0, size=starts.shape[0])
    return terms, starts.transpose(2, 1, 0), slopes


def hull_cloud(seed: int, zeros: bool, duplicates: bool, jitter: bool,
               collinear: bool, single_gap: bool) -> tuple[np.ndarray, np.ndarray]:
    """(gaps, values) above the hull prefilter's size threshold.

    Points scatter below a concave ridge, some within a few ulps of it. The
    flags add the degeneracies the exact scan has to settle: exact-zero
    gaps, exact duplicate points, runs of distinct gaps a few ulps apart
    (each gap its own dedup group), points exactly on two straight hull
    pieces, and a cloud with one distinct gap.
    """
    rng = as_rng(seed)
    n = _PREFILTER_MIN + int(rng.integers(0, 2048))
    gaps = rng.random(n)
    if collinear:
        gaps[: n // 2] = rng.integers(0, 65, n // 2) / 64.0
    if zeros:
        gaps[rng.random(n) < 0.3] = 0.0
    if jitter:
        k = n // 2
        heads = rng.choice(gaps, size=32)
        gaps[:k] = rng.choice(heads, size=k) + rng.random(k) * rng.choice([5e-16, 3e-15])
    if collinear:
        ridge = np.minimum(0.2 + 2.0 * gaps, 0.6 + 0.5 * gaps)
    else:
        ridge = np.sqrt(gaps)
    noise = rng.exponential(10.0 ** rng.uniform(-14, -1), size=n)
    noise[rng.random(n) < 0.3] = 0.0
    values = ridge - noise
    if duplicates:
        src, dst = rng.integers(0, n, size=(2, n // 4))
        gaps[dst] = gaps[src]
        values[dst] = values[src]
    if single_gap:
        gaps[:] = gaps[0]
    return gaps, values


def ref_hull_scan(gaps: np.ndarray, values: np.ndarray) -> list[int]:
    """`_hull_scan` as a loop over numpy scalars: after the same lexsort,
    keep each point whose gap exceeds the last kept gap, then run the
    monotone chain."""
    order = np.lexsort((-values, gaps))
    dedup: list[int] = []
    last_g = None
    for idx in order:
        g = gaps[idx]
        if last_g is None or g > last_g:
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


def grid_chunk(row_pts: np.ndarray, x_card: int, start: int, stop: int) -> np.ndarray:
    """Decode flat channel indices [start, stop) into matrices shaped (M, u, x).

    A channel is one grid row per input symbol; the last input symbol is the
    least significant digit of the flat index. The oracle's own enumerator,
    `_grid_block`, must give the same matrices.
    """
    n_rows = row_pts.shape[0]
    idx = np.arange(start, stop)
    rows_idx = np.empty((idx.size, x_card), dtype=np.int64)
    rem = idx.copy()
    for x in range(x_card - 1, -1, -1):
        rows_idx[:, x] = rem % n_rows
        rem //= n_rows
    return row_pts[rows_idx].transpose(0, 2, 1)


def grid_indices(row_pts: np.ndarray, mats: np.ndarray) -> np.ndarray:
    """Flat `grid_chunk` indices of (M, u, x) matrices whose columns are grid
    rows: each row is looked up by its integer composition, whose digits
    (base m + 1) order rows as `_simplex_grid` does."""
    m = round(1.0 / row_pts[row_pts > 0.0].min())
    base = (m + 1) ** np.arange(row_pts.shape[1] - 1, -1, -1)
    codes = np.rint(row_pts * m).astype(np.int64) @ base
    assert (np.diff(codes) > 0).all()
    flat = np.zeros(len(mats), dtype=np.int64)
    for x in range(mats.shape[2]):
        rows = codes.searchsorted(np.rint(mats[:, :, x] * m).astype(np.int64) @ base)
        flat = flat * row_pts.shape[0] + rows
    return flat


def orbit_minima(row_pts: np.ndarray, mats: np.ndarray) -> np.ndarray:
    """Lowest `grid_indices` over every relabelling of U (permutation of the
    u axis) of each (M, u, x) matrix."""
    return np.min([grid_indices(row_pts, mats[:, list(perm)])
                   for perm in itertools.permutations(range(mats.shape[1]))], axis=0)


def ref_oracle(source: JointPmf, c_bits: float, u_card: int, grid_step: float,
               seed: int, n_random: int, canonical: bool):
    """The oracle without the running hull: every `_ORACLE_CHUNK` grid
    matrices are built and scored at once, and each chunk keeps its whole
    upper hull. With canonical set, a chunk scores only the matrices that
    are their orbit's lowest grid index, as the oracle does; without it,
    every matrix of the grid."""
    terms = _source_terms(source.probs)
    row_pts = _simplex_grid(round(1.0 / grid_step), u_card)
    total = row_pts.shape[0] ** source.nx
    parts = []

    def keep_hull(mats):
        values, gaps = _objectives(mats.transpose(2, 1, 0), terms)
        keep = np.sort(np.array(_upper_hull(gaps, values), dtype=np.int64))
        parts.append((gaps[keep], values[keep], mats[keep].transpose(2, 1, 0)))

    for start in range(0, total, ucrcap._ORACLE_CHUNK):
        mats = grid_chunk(row_pts, source.nx, start, min(start + ucrcap._ORACLE_CHUNK, total))
        if canonical:
            mats = mats[orbit_minima(row_pts, mats) == np.arange(start, start + len(mats))]
        keep_hull(mats)
    if n_random > 0:
        rng = as_rng(seed)
        keep_hull(rng.dirichlet(np.ones(u_card), size=(n_random, source.nx)).transpose(0, 2, 1))
    return _evaluate_envelope(_stack(parts), c_bits, "oracle")


def solution_bytes(sol) -> tuple:
    """Value, slack, time-share weight and achiever rows of a solution, as bytes."""
    ach = sol.achiever
    ends = (ach.first, ach.second) if isinstance(ach, TimeSharedAux) else (ach,)
    weight = ach.weight if isinstance(ach, TimeSharedAux) else None
    return (np.float64(sol.value_bits).tobytes(), np.float64(sol.constraint_slack).tobytes(),
            None if weight is None else np.float64(weight).tobytes(),
            tuple(e.cond.rows.tobytes() for e in ends))


def sparse_source(rng, nx: int) -> JointPmf:
    """A random nx x nx source with about 30% zero cells and one heavier cell."""
    probs = random_joint(rng, nx, nx).probs.copy()
    probs[rng.random(probs.shape) < 0.3] = 0.0
    probs.flat[int(rng.integers(0, probs.size))] += 0.1
    return JointPmf(probs / probs.sum())


def traced_oracle_peak(probs, u_card: int, grid_step: float) -> int:
    """Traced peak of one oracle call at C = 0.2 bits, in bytes; a call on a
    coarse grid first does the lazy imports outside the trace."""
    src = JointPmf(np.array(probs))
    ucr_capacity_oracle(src, 0.2, u_card, grid_step=0.5)
    tracemalloc.start()
    try:
        ucr_capacity_oracle(src, 0.2, u_card, grid_step=grid_step)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


TERNARY_SOURCE = [[0.2, 0.05, 0.05], [0.05, 0.25, 0.05], [0.05, 0.05, 0.25]]


def assert_layout_invariant(probs: np.ndarray, u_card: int, m: int, rng) -> None:
    """Every deterministic map and some random points of the step-1/m grid
    get bit-identical (value, gap) alone, inside a grid chunk, in a permuted
    batch, in strided views and as entries of the step-1 grid, which holds
    exactly the maps."""
    terms = _source_terms(probs)
    x_card = probs.shape[0]
    row_pts = _simplex_grid(m, u_card)
    total = row_pts.shape[0] ** x_card
    det = grid_chunk(_simplex_grid(1, u_card), x_card, 0, u_card ** x_card)
    picks = rng.integers(0, total, size=16)
    mats = np.concatenate([det] + [grid_chunk(row_pts, x_card, k, k + 1) for k in picks])
    value, gap = _objectives(mats.transpose(2, 1, 0), terms)

    def check(batch, idx):
        v, g = _objectives(batch.transpose(2, 1, 0), terms)
        assert v.tobytes() == value[idx].tobytes()
        assert g.tobytes() == gap[idx].tobytes()

    check(det, np.arange(len(det)))
    perm = rng.permutation(len(mats))
    check(mats[perm], perm)
    check(np.repeat(mats, 2, axis=0)[::2], np.arange(len(mats)))
    check(np.ascontiguousarray(mats.transpose(0, 2, 1)).transpose(0, 2, 1),
          np.arange(len(mats)))
    for i, mat in enumerate(mats):
        check(mat[None], [i])
        k = int(grid_indices(row_pts, mat[None])[0])
        start = max(0, k - int(rng.integers(0, 40)))
        chunk = grid_chunk(row_pts, x_card, start, min(total, k + 1 + int(rng.integers(0, 40))))
        v, g = _objectives(chunk.transpose(2, 1, 0), terms)
        assert (v[k - start], g[k - start]) == (value[i], gap[i])


class TestHull:
    @given(st.integers(0, 2**32 - 1), st.booleans(), st.booleans(), st.booleans(),
           st.booleans(), st.booleans())
    @settings(max_examples=150)
    def test_prefilter_returns_the_exact_scan(self, seed, zeros, duplicates, jitter,
                                              collinear, single_gap):
        gaps, values = hull_cloud(seed, zeros, duplicates, jitter, collinear, single_gap)
        assert gaps.size >= _PREFILTER_MIN
        assert _upper_hull(gaps, values) == _hull_scan(gaps, values)

    @given(st.integers(0, 2**32 - 1), st.booleans(), st.booleans(), st.booleans(),
           st.booleans(), st.floats(-0.2, 0.01), st.integers(0, 40), st.integers(1, 40))
    @settings(max_examples=150)
    def test_floor_pruning_returns_the_batch_hull(self, seed, zeros, duplicates, jitter,
                                                  collinear, lift, first, count):
        # the floor: a window of the cloud's own hull, lifted or lowered, so
        # that batch hull vertices fall below it, above it and outside its range
        gaps, values = hull_cloud(seed, zeros, duplicates, jitter, collinear, False)
        hull = _hull_scan(gaps, values)
        window = hull[min(first, len(hull) - 1):][:count]
        floor = gaps[window], values[window] + lift
        near = values >= np.interp(gaps, *floor, left=-np.inf, right=-np.inf) - 1e-12
        want = hull if near.any() else []
        assert _upper_hull(gaps, values, floor) == want
        assert _upper_hull(gaps, values) == hull

    @given(st.integers(0, 2**32 - 1), st.booleans(), st.booleans(), st.booleans(),
           st.booleans(), st.booleans(),
           st.sampled_from(["", "nan values", "inf gaps", "-inf values"]))
    @settings(max_examples=100)
    def test_scan_matches_the_loop_reference(self, seed, zeros, duplicates, jitter,
                                             collinear, single_gap, nonfinite):
        gaps, values = hull_cloud(seed, zeros, duplicates, jitter, collinear, single_gap)
        if nonfinite:
            value, which = nonfinite.split()
            (values if which == "values" else gaps)[as_rng(seed).integers(0, 64, 5)] = \
                float(value)
        for size in (0, 1, 2, 50, gaps.size):
            g, v = gaps[:size], values[:size]
            with np.errstate(invalid="ignore"):  # inf - inf in the reference's numpy scalars
                assert _hull_scan(g, v) == ref_hull_scan(g, v)

    def test_small_and_nonfinite_clouds_take_the_scan(self):
        gaps, values = hull_cloud(5, True, True, True, False, False)
        assert _upper_hull(gaps[:100], values[:100]) == _hull_scan(gaps[:100], values[:100])
        values[7] = np.nan
        assert _upper_hull(gaps, values) == _hull_scan(gaps, values)


@st.composite
def small_grids(draw):
    """(|X|, |U|, m) with |X| in 2-3, |U| in 2-4 and at most 20k grid matrices."""
    nx, u_card = draw(st.integers(2, 3)), draw(st.integers(2, 4))
    m_max = max(m for m in range(1, 200) if math.comb(m + u_card - 1, u_card - 1) ** nx <= 20_000)
    return nx, u_card, draw(st.integers(1, m_max))


class TestOrbits:
    @given(small_grids(), st.lists(st.floats(0.0, 1.0), max_size=4))
    @settings(max_examples=60, deadline=None)
    def test_kept_indices_are_the_orbit_minima(self, grid, cuts):
        nx, u_card, m = grid
        row_pts = _simplex_grid(m, u_card)
        total = row_pts.shape[0] ** nx
        mats = grid_chunk(row_pts, nx, 0, total)
        # flat ranges split anywhere, as the oracle's chunks split the grid
        bounds = sorted({0, total} | {int(c * total) for c in cuts})
        kept = np.concatenate([orbit_indices(row_pts, nx, a, b)
                               for a, b in zip(bounds, bounds[1:])])
        assert kept.tolist() == np.unique(orbit_minima(row_pts, mats)).tolist()
        # Burnside: the orbits number the mean count of matrices each
        # relabelling fixes
        fixed = sum(int((mats[:, list(perm)] == mats).all(axis=(1, 2)).sum())
                    for perm in itertools.permutations(range(u_card)))
        assert kept.size * math.factorial(u_card) == fixed

    @pytest.mark.parametrize("nx, u_card, total, orbits", [
        (2, 3, 1_758_276, 293_384), (3, 2, 132_651, 66_326)])
    def test_benchmark_grids_score_one_matrix_per_orbit(self, nx, u_card, total, orbits):
        row_pts = _simplex_grid(50, u_card)
        assert row_pts.shape[0] ** nx == total
        assert orbit_indices(row_pts, nx, 0, total).size == orbits


class TestGridHull:
    @given(st.integers(0, 2**32 - 1), st.sampled_from([(2, 3, 25), (3, 2, 30), (2, 2, 150)]),
           st.integers(1024, 4096), st.sampled_from(["no floor", "no block", "one block"]))
    @settings(max_examples=30, deadline=None)
    def test_thinned_blocks_keep_the_whole_chunk_hull(self, seed, shape, block, floor_case):
        # a range of several kernel blocks, each thinned as it is scored,
        # against `_upper_hull` of the whole range scored at once
        nx, u_card, m = shape
        rng = as_rng(seed)
        terms = _source_terms(sparse_source(rng, nx).probs)
        row_pts = _simplex_grid(m, u_card)
        orbits = orbit_indices(row_pts, nx, 0, row_pts.shape[0] ** nx)
        count = min(orbits.size, 5 * block)
        first = int(rng.integers(0, orbits.size - count + 1))
        start, stop = int(orbits[first]), int(orbits[first + count - 1]) + 1
        flat = orbit_indices(row_pts, nx, start, stop)
        mats = _grid_block(row_pts, flat, np.empty((nx, u_card, flat.size)))
        values, gaps = _objectives(mats, terms)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ucrcap, "_KERNEL_BLOCK", block)
            blocks = list(_orbit_blocks(row_pts, nx, start, stop))
        assert len(blocks) >= 2
        ends = np.cumsum([b.size for b in blocks])
        floor = None
        if floor_case != "no floor":
            # the hull lifted by 1e-9, of every point or of all but the block
            # holding the greatest gap, which then passes by lying outside it
            rest = np.ones(flat.size, dtype=bool)
            if floor_case == "one block":
                own = int(np.searchsorted(ends, int(np.argmax(gaps)), side="right"))
                rest[ends[own] - blocks[own].size:ends[own]] = False
            hull = np.flatnonzero(rest)[_hull_scan(gaps[rest], values[rest])]
            floor = gaps[hull], values[hull] + 1e-9
            near = values >= np.interp(gaps, *floor, left=-np.inf, right=-np.inf) - 1e-12
            passes = [part.any() for part in np.split(near, ends[:-1])]
            assume(sum(passes) == (floor_case == "one block"))
        keep = np.array(_upper_hull(gaps, values, floor), dtype=np.int64)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ucrcap, "_KERNEL_BLOCK", block)
            got = _grid_hull(row_pts, nx, iter(blocks), terms, floor)
        want = gaps[keep], values[keep], mats[:, :, keep]
        assert [a.tobytes() for a in got] == [a.tobytes() for a in want]


class TestObjective:
    def test_identity_auxiliary(self):
        src = dsbs(0.1)
        value, gap = ucr_objective(src, AuxiliaryChannel.identity(2))
        assert value == pytest.approx(1.0, abs=1e-12)
        assert gap == pytest.approx(h2(0.1), abs=1e-12)

    def test_constant_auxiliary(self):
        value, gap = ucr_objective(dsbs(0.1), AuxiliaryChannel.constant(2))
        assert value == pytest.approx(0.0, abs=1e-12)
        assert gap == pytest.approx(0.0, abs=1e-12)

    def test_binary_cascade(self):
        aux = AuxiliaryChannel.from_matrix(np.array([[0.8, 0.2], [0.2, 0.8]]))
        value, gap = ucr_objective(dsbs(0.1), aux)
        assert value == pytest.approx(1.0 - h2(0.2), abs=1e-12)
        assert gap == pytest.approx(h2(0.26) - h2(0.2), abs=1e-12)

    def test_time_shared_point_is_the_convex_combination(self):
        src = dsbs(0.1)
        ts = TimeSharedAux(AuxiliaryChannel.identity(2),
                           AuxiliaryChannel.constant(2), weight=0.25)
        flat_value, flat_gap = ucr_objective(src, ts.flatten())
        value, gap = achieved_point(src, ts)
        assert flat_value == pytest.approx(value, abs=1e-12)
        assert flat_gap == pytest.approx(gap, abs=1e-12)

    @given(st.integers(0, 2**32 - 1), st.integers(2, 4), st.integers(2, 4),
           st.integers(1, 4), st.integers(2, 6))
    @settings(max_examples=60)
    def test_batch_layout_does_not_move_a_bit(self, seed, nx, ny, u_card, m):
        rng = as_rng(seed)
        probs = random_joint(rng, nx, ny).probs.copy()
        probs[rng.random(probs.shape) < 0.3] = 0.0
        probs.flat[int(rng.integers(0, probs.size))] += 0.1
        assert_layout_invariant(probs / probs.sum(), u_card, m, rng)

    def test_batch_layout_does_not_move_a_bit_on_criterion_03(self):
        assert_layout_invariant(np.array(C03_SOURCE_28), 2, 50, as_rng(28))

    def test_empty_batch_scores_to_empty_arrays(self):
        values, gaps = _objectives(np.zeros((2, 3, 0)), _source_terms(dsbs(0.1).probs))
        assert values.shape == gaps.shape == (0,)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=40)
    def test_data_processing_on_random_auxiliaries(self, seed):
        rng = as_rng(seed)
        src = random_joint(rng, 2, 2)
        aux = AuxiliaryChannel.from_matrix(rng.dirichlet(np.ones(3), size=2))
        value, gap = ucr_objective(src, aux)
        assert gap >= -1e-9
        assert value <= entropy(src.marginal_x()) + 1e-9


@pytest.fixture(scope="module")
def g1_oracle():
    return ucr_capacity_oracle(dsbs(0.1), 0.2, u_card=3, grid_step=0.02)


class TestOracle:
    def test_identical_source_reaches_full_entropy(self):
        sol = ucr_capacity_oracle(diagonal_source(), 0.0, u_card=2,
                                  grid_step=0.1)
        assert sol.value_bits == pytest.approx(1.0, abs=1e-9)

    def test_independent_source_is_rate_limited(self):
        src = independent_source([0.5, 0.5], [0.5, 0.5])
        sol = ucr_capacity_oracle(src, 0.3, u_card=2, grid_step=0.05)
        assert sol.value_bits == pytest.approx(0.3, abs=5e-3)

    def test_reference_value_is_frozen(self, g1_oracle):
        sol = g1_oracle
        assert sol.value_bits == pytest.approx(G1_ORACLE, abs=1e-9)
        assert sol.method == "oracle"
        assert sol.constraint_slack >= -1e-9

    def test_reference_output_is_pinned(self, g1_oracle):
        # every bit of the reference output, achiever included
        sol = g1_oracle
        assert sol.value_bits == 0.5059245194168636
        assert sol.constraint_slack == 0.0
        assert isinstance(sol.achiever, TimeSharedAux)
        assert sol.achiever.first.cond.rows.tolist() == [[0.04, 0.08, 0.88], [0.3, 0.6, 0.1]]
        assert sol.achiever.second.cond.rows.tolist() == [[0.1, 0.18, 0.72], [0.9, 0.02, 0.08]]
        assert sol.achiever.weight == 0.8230687289329729

    @pytest.mark.parametrize("nx, seed, c_bits, value, slack, rows", [
        (3, 3, 0.0, 0.0, 0.0, [[[0.0, 1.0], [0.0, 1.0], [0.0, 1.0]]]),
        (3, 3, 0.1, 0.17890522007657977, 0.0,
         [[[0.18, 0.82], [0.7, 0.3], [0.28, 0.72]],
          [[0.16, 0.84], [0.7, 0.3], [0.26, 0.74]], 0.7822615443345342]),
        (2, 1, 0.0, 0.0, 0.0, [[[0.0, 1.0], [0.0, 1.0]]]),
        (2, 1, 0.1, 0.10532171293081669, 0.0,
         [[[0.36, 0.64], [0.04, 0.96]],
          [[0.38727270714294176, 0.6127272928570583],
           [0.041621972795699666, 0.9583780272043004]], 0.23956701640710767]),
    ])
    def test_two_symbol_outputs_are_pinned(self, nx, seed, c_bits, value, slack, rows):
        # every bit of the output at |U| = 2, grid step 0.02
        sol = ucr_capacity_oracle(random_joint(as_rng(seed), nx, nx), c_bits,
                                  u_card=2, grid_step=0.02)
        assert sol.value_bits == value
        assert sol.constraint_slack == slack
        if len(rows) == 1:
            assert sol.achiever.cond.rows.tolist() == rows[0]
        else:
            assert isinstance(sol.achiever, TimeSharedAux)
            assert sol.achiever.first.cond.rows.tolist() == rows[0]
            assert sol.achiever.second.cond.rows.tolist() == rows[1]
            assert sol.achiever.weight == rows[2]

    def test_near_equal_relabelled_points_keep_their_chunk_hull(self):
        # every bit of the output as it was when each chunk scanned all its
        # points: two U-relabelled matrices sit 5e-16 apart, and which one a
        # chunk keeps depends on a chunk hull vertex far below the cloud's hull
        src = JointPmf(np.array([[0.45598448018463505, 0.10012982509523974],
                                 [0.32610623156599167, 0.11777946315413357]]))
        sol = ucr_capacity_oracle(src, 0.38582381846640873, u_card=3, grid_step=0.02,
                                  seed=1301394346)
        assert sol.value_bits == 0.38954758174065734
        assert sol.constraint_slack == 0.0
        assert sol.achiever.first.cond.rows.tolist() == [[0.06, 0.08, 0.86], [0.36, 0.48, 0.16]]
        assert sol.achiever.second.cond.rows.tolist() == [[0.02, 0.1, 0.88], [0.14, 0.7, 0.16]]
        assert sol.achiever.weight == 0.8876858858701477

    def test_time_shared_grid_maps_are_pinned(self):
        # both achievers are deterministic maps, reached through the grid
        src = JointPmf(np.array([
            [0.07911268654573542, 0.0790371186354025, 0.2356979975720005],
            [0.26464068821953096, 0.05592348515291694, 0.005918270477254092],
            [0.007959651535651056, 0.08845563290379324, 0.18325446895771536]]))
        sol = ucr_capacity_oracle(src, 0.8803540287195378, u_card=2, grid_step=0.05)
        assert sol.value_bits == 0.9642664796050737
        assert sol.constraint_slack == 0.0
        assert sol.achiever.first.cond.rows.tolist() == [[0.0, 1.0], [1.0, 0.0], [0.0, 1.0]]
        assert sol.achiever.second.cond.rows.tolist() == [[0.0, 1.0], [1.0, 0.0], [1.0, 0.0]]
        assert sol.achiever.weight == 0.053111275113487774

    def test_zero_budget_without_a_common_part_is_exactly_zero(self, monkeypatch):
        # both constant maps and the uniform channel sit at gap 0; values
        # within 1e-12 of 0 are snapped to 0, so no rounding noise wins and
        # the lowest grid index, a constant map, is kept
        src = JointPmf(np.array([
            [0.2986326980616272, 0.02157789165918048, 0.14472742719146103],
            [0.015914553977739186, 0.01763178304917487, 0.06806966472372052],
            [0.43341770588603035, 1.955122902858218e-05, 8.72422203773017e-06]]))
        monkeypatch.setattr(ucrcap, "_ORACLE_DRAWS", 0)
        sol = ucr_capacity_oracle(src, 0.0, u_card=2, grid_step=0.5)
        assert sol.value_bits == 0.0
        assert sol.constraint_slack == 0.0
        assert sol.achiever.cond.rows.tolist() == [[0.0, 1.0], [0.0, 1.0], [0.0, 1.0]]

    def test_zero_budget_isolates_a_source_component(self):
        # X = 0 and Y = 0 only occur together, so the map isolating X = 0 has
        # gap 0 and value h(0.3), the Gacs-Korner point; the oracle once
        # dropped it for a noisy grid channel worth 0.8314 at gap exactly 0
        src = JointPmf(np.array([[0.3, 0.0, 0.0], [0.0, 0.35, 0.05], [0.0, 0.1, 0.2]]))
        oracle = ucr_capacity_oracle(src, 0.0, u_card=2, grid_step=0.02)
        assert oracle.value_bits == pytest.approx(h2(0.3), abs=1e-12)
        solved = ucr_capacity_solve(src, 0.0, u_card=2)
        assert abs(solved.value_bits - oracle.value_bits) <= 5e-3

    @given(st.integers(0, 2**32 - 1),
           st.sampled_from([(2, 2, 20), (2, 2, 50), (2, 3, 10), (2, 3, 12),
                            (3, 2, 10), (3, 2, 16), (3, 3, 3), (3, 3, 4)]),
           st.integers(150, 700), st.integers(1, 300), st.booleans(), st.sampled_from([0, 64]))
    @settings(max_examples=40, deadline=None)
    def test_running_hull_keeps_every_output_bit(self, seed, shape, chunk, block, zero_budget,
                                                 n_random):
        # many small chunks, each pruned against the hull kept so far and
        # scored in several kernel blocks, against the whole hull of every
        # chunk's one-per-orbit matrices scored at once
        nx, u_card, m = shape
        rng = as_rng(seed)
        probs = random_joint(rng, nx, nx).probs.copy()
        probs[rng.random(probs.shape) < 0.3] = 0.0
        probs.flat[int(rng.integers(0, probs.size))] += 0.1
        src = JointPmf(probs / probs.sum())
        c_bits = 0.0 if zero_budget else float(rng.uniform(0.0, 1.2)) * \
            conditional_entropy_x_given_y(src)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ucrcap, "_ORACLE_CHUNK", chunk)
            mp.setattr(ucrcap, "_KERNEL_BLOCK", block)
            mp.setattr(ucrcap, "_ORACLE_DRAWS", n_random)
            got = ucr_capacity_oracle(src, c_bits, u_card, grid_step=1.0 / m, seed=seed)
            want = ref_oracle(src, c_bits, u_card, 1.0 / m, seed, n_random, canonical=True)
        assert solution_bytes(got) == solution_bytes(want)

    @given(st.integers(0, 2**32 - 1),
           st.sampled_from([(2, 2, 20), (2, 3, 12), (2, 4, 6), (3, 2, 16), (3, 3, 4)]),
           st.booleans())
    @settings(max_examples=30, deadline=None)
    def test_one_matrix_per_orbit_loses_no_value(self, seed, shape, zero_budget):
        # relabelling U moves only the last bits of a point, so scoring one
        # matrix per orbit must reach the value of the whole grid
        nx, u_card, m = shape
        rng = as_rng(seed)
        probs = random_joint(rng, nx, nx).probs.copy()
        probs[rng.random(probs.shape) < 0.3] = 0.0
        probs.flat[int(rng.integers(0, probs.size))] += 0.1
        src = JointPmf(probs / probs.sum())
        c_bits = 0.0 if zero_budget else float(rng.uniform(0.0, 1.2)) * \
            conditional_entropy_x_given_y(src)
        got = ucr_capacity_oracle(src, c_bits, u_card, grid_step=1.0 / m, seed=seed)
        want = ref_oracle(src, c_bits, u_card, 1.0 / m, seed, ucrcap._ORACLE_DRAWS,
                          canonical=False)
        assert abs(got.value_bits - want.value_bits) <= 1e-14

    @given(st.integers(0, 2**32 - 1),
           st.sampled_from([(2, 2, 200), (2, 3, 25), (3, 2, 30), (3, 3, 8)]),
           st.integers(1024, 8192), st.integers(2, 4), st.booleans())
    @settings(max_examples=12, deadline=None)
    def test_running_hull_keeps_every_output_bit_in_thinned_blocks(
            self, seed, shape, block, blocks_per_chunk, zero_budget):
        # kernel blocks large enough to be thinned as they are scored, a few
        # to a chunk, against every chunk's one-per-orbit matrices at once
        nx, u_card, m = shape
        rng = as_rng(seed)
        src = sparse_source(rng, nx)
        c_bits = 0.0 if zero_budget else float(rng.uniform(0.0, 1.2)) * \
            conditional_entropy_x_given_y(src)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ucrcap, "_ORACLE_CHUNK", blocks_per_chunk * block * math.factorial(u_card))
            mp.setattr(ucrcap, "_KERNEL_BLOCK", block)
            got = ucr_capacity_oracle(src, c_bits, u_card, grid_step=1.0 / m, seed=seed)
            want = ref_oracle(src, c_bits, u_card, 1.0 / m, seed, ucrcap._ORACLE_DRAWS,
                              canonical=True)
        assert solution_bytes(got) == solution_bytes(want)

    @pytest.mark.parametrize("probs, u_card, step", [
        (dsbs(0.1).probs, 3, 0.02), (dsbs(0.1).probs, 2, 0.001),
        (TERNARY_SOURCE, 2, 0.02), (TERNARY_SOURCE, 2, 0.01)],
        ids=["dsbs-u3-0.02", "dsbs-u2-0.001", "ternary-u2-0.02", "ternary-u2-0.01"])
    def test_traced_peak_is_a_few_kernel_blocks(self, probs, u_card, step):
        # scoring each grid chunk whole peaked at 4.26, 8.62, 3.44 and 7.38 MiB
        assert traced_oracle_peak(probs, u_card, step) <= 2.5 * 2 ** 20

    def test_traced_peak_does_not_grow_with_the_grid(self):
        coarse, fine = (traced_oracle_peak(TERNARY_SOURCE, 2, step) for step in (0.02, 0.01))
        assert abs(fine - coarse) <= 0.5 * 2 ** 20

    def test_grid_guard(self, monkeypatch):
        def built(*args):
            raise AssertionError("the oracle enumerated matrices past its guard")

        monkeypatch.setattr(ucrcap, "_grid_block", built)
        src = random_joint(as_rng(0), 3, 3)
        with pytest.raises(GuardError):
            ucr_capacity_oracle(src, 0.1, u_card=4, grid_step=0.02)

    @pytest.mark.parametrize("u_card", [7, 10 ** 30])
    def test_grid_guard_fires_before_the_grid_is_listed(self, monkeypatch, u_card):
        # at u_card = 7 the grid would list C(56, 6) = 32,468,436 rows first
        def listed(*args):
            raise AssertionError("the oracle listed its grid past its guard")

        monkeypatch.setattr(ucrcap, "_simplex_grid", listed)
        with pytest.raises(GuardError, match="oracle grid"):
            ucr_capacity_oracle(dsbs(0.1), 0.1, u_card=u_card, grid_step=0.02)

    def test_validation(self):
        with pytest.raises(ValidationError):
            ucr_capacity_oracle(dsbs(0.1), -0.1)
        with pytest.raises(ValidationError):
            ucr_capacity_oracle(dsbs(0.1), 0.1, grid_step=0.7)

    @pytest.mark.parametrize("step", [0.03, 0.3, 0.015, 0.0021])
    def test_grid_step_must_be_a_reciprocal(self, step):
        with pytest.raises(ValidationError, match="1/m"):
            ucr_capacity_oracle(dsbs(0.1), 0.1, u_card=1, grid_step=step)

    @pytest.mark.parametrize("step", [0.002, 0.02, 0.05, 0.1, 0.5])
    def test_reciprocal_grid_steps_are_accepted(self, step):
        sol = ucr_capacity_oracle(dsbs(0.1), 0.1, u_card=1, grid_step=step)
        assert sol.value_bits == pytest.approx(0.0, abs=1e-12)


class TestEnvelope:
    def test_every_cloud_hull_starts_at_gap_zero(self, monkeypatch):
        evaluate = ucrcap._evaluate_envelope
        starts = []

        def spy(cloud, c_bits, method):
            gaps, values, _ = cloud
            starts.append(gaps[_upper_hull(gaps, values)[0]])
            return evaluate(cloud, c_bits, method)

        monkeypatch.setattr(ucrcap, "_evaluate_envelope", spy)
        monkeypatch.setattr(ucrcap, "_ORACLE_DRAWS", 64)
        rng = as_rng(6)
        cases = [(2, 1), (2, 2), (2, 3), (3, 2), (3, 3), (4, 2)] * 2
        for nx, u_card in cases:
            probs = random_joint(rng, nx, nx).probs.copy()
            probs[rng.random(probs.shape) < 0.3] = 0.0
            probs[np.arange(nx), np.arange(nx)] += 0.05
            probs[0] += 0.05  # X = 0 and X = y share every column y: H(X|Y) > 0
            src = JointPmf(probs / probs.sum())
            ucr_capacity_oracle(src, 0.0, u_card, grid_step=0.1)
            ucr_capacity_solve(src, 0.0, u_card)
        assert len(starts) == 2 * len(cases)
        assert all(g == 0.0 for g in starts)

    def test_hull_off_gap_zero_is_an_internal_error(self):
        cloud = (np.array([0.1, 0.3]), np.array([0.2, 0.5]), np.zeros((2, 2, 2)))
        with pytest.raises(InternalInvariantError, match="gap"):
            _evaluate_envelope(cloud, 0.2, "oracle")


class TestSolver:
    def test_exact_fast_path_at_generous_budget(self):
        src = dsbs(0.1)
        c = conditional_entropy_x_given_y(src) + 0.01
        sol = ucr_capacity_solve(src, c)
        assert sol.value_bits == pytest.approx(entropy(src.marginal_x()), abs=1e-12)
        assert sol.constraint_slack == pytest.approx(0.01, abs=1e-12)

    def test_matches_oracle_reference(self):
        sol = ucr_capacity_solve(dsbs(0.1), 0.2, u_card=3)
        assert sol.value_bits == pytest.approx(G1_SOLVER, abs=1e-7)
        assert abs(sol.value_bits - G1_ORACLE) <= 5e-3
        assert sol.value_bits <= bsc_family_curve(0.5, 0.1, 0.2) + 1e-12

    def test_zero_budget_on_dsbs_collapses(self):
        sol = ucr_capacity_solve(dsbs(0.1), 0.0)
        assert sol.value_bits <= 0.01

    def test_achiever_reproduces_the_reported_point(self):
        src = dsbs(0.1)
        sol = ucr_capacity_solve(src, 0.2, u_card=3)
        value, gap = achieved_point(src, sol.achiever)
        assert value == pytest.approx(sol.value_bits, abs=1e-9)
        assert 0.2 - gap == pytest.approx(sol.constraint_slack, abs=1e-9)

    def test_curve_points_track_the_oracle(self):
        # criterion 03 checks one budget per source; here every curve point
        rng = as_rng(707)
        for nx, u_card in ((2, 3), (2, 3), (3, 2)):
            src = random_joint(rng, nx, nx)
            h_cond = conditional_entropy_x_given_y(src)
            assert h_cond >= 0.02
            grid = [0.1 * h_cond, 0.45 * h_cond, 0.9 * h_cond]
            for c, sol in ucr_curve(src, grid, u_card):
                oracle = ucr_capacity_oracle(src, c, u_card, grid_step=0.02)
                assert sol.value_bits >= oracle.value_bits - 5e-3, (nx, c)

    def test_map_skeleton_alone_reaches_every_feasible_map(self):
        # the search must report at least the best map within budget
        src = random_joint(as_rng(55), 5, 5)
        c_bits = 0.5 * conditional_entropy_x_given_y(src)
        best = 0.0
        for mapping in itertools.product(range(5), repeat=5):
            value, gap = ucr_objective(src, AuxiliaryChannel.deterministic(mapping, 5))
            if gap <= c_bits:
                best = max(best, value)
        sol = ucr_capacity_solve(src, c_bits, u_card=5)
        assert sol.value_bits >= best - 1e-12
        assert best > 0.0

    def test_map_guard_fires_before_any_map_is_built(self, monkeypatch):
        # |X| = 7 at the default |U| = 8 would stack 8**7 maps
        def built(*args):
            raise AssertionError("the skeleton was built past the map guard")

        monkeypatch.setattr(ucrcap, "_grid_block", built)
        with pytest.raises(GuardError, match="maps"):
            ucr_capacity_solve(random_joint(as_rng(7), 7, 7), 0.0)

    @pytest.mark.parametrize("u_card", [2 ** 19 + 1, 10 ** 30])
    def test_fast_path_auxiliary_is_guarded(self, u_card):
        # a budget past H(X|Y) builds no skeleton, but its identity is |X| x |U|
        with pytest.raises(GuardError, match="cells"):
            ucr_capacity_solve(dsbs(0.1), 2.0, u_card=u_card)
        assert ucr_capacity_solve(dsbs(0.1), 2.0, u_card=2 ** 19).value_bits == 1.0

    def test_zero_mass_x_symbol_changes_nothing(self):
        # a row of zero P_X(x) has no P(y|x); its P(u|x) moves no objective
        probs = np.array([[0.3, 0.1], [0.0, 0.0], [0.15, 0.45]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = ucr_capacity_solve(JointPmf(probs), 0.1, u_card=3).value_bits
        want = ucr_capacity_solve(JointPmf(probs[[0, 2]]), 0.1, u_card=3).value_bits
        assert abs(got - want) <= 1e-12

    @given(st.integers(0, 2**32 - 1), st.integers(2, 3), st.integers(2, 3),
           st.integers(2, 4), st.booleans())
    @settings(max_examples=60)
    def test_fixed_point_climb_never_loses_ground(self, seed, nx, ny, u_card, massless):
        # at any slope s > 1 the bottleneck update never lowers value - s * gap
        terms, starts, slopes = climb_case(seed, nx, ny, u_card, massless)
        values, gaps = _objectives(starts, terms)
        end_gaps, end_values, end = ucrcap._climb(slopes, starts, terms, 200)
        assert np.isfinite(end).all()
        assert np.allclose(end.sum(axis=1), 1.0, atol=1e-12)
        loss = (values - slopes * gaps) - (end_values - slopes * end_gaps)
        assert loss.max() <= 1e-12

    @given(st.integers(0, 2**32 - 1), st.integers(2, 3), st.integers(2, 3),
           st.integers(2, 4), st.booleans())
    @settings(max_examples=60)
    def test_climb_follows_the_reference_update(self, seed, nx, ny, u_card, massless):
        # the batched step is the per-climber update of `climb_reference`
        terms, starts, slopes = climb_case(seed, nx, ny, u_card, massless)
        for steps in (1, 50):
            end_gaps, end_values, end = ucrcap._climb(slopes, starts, terms, steps)
            want = climb_reference(slopes, starts.transpose(2, 1, 0), terms,
                                   steps).transpose(2, 1, 0)
            assert end.shape == starts.shape
            assert np.abs(end - want).max() <= 1e-8
            values, gaps = _objectives(want, terms)
            assert np.abs(end_values - values).max() <= 1e-8
            assert np.abs(end_gaps - gaps).max() <= 1e-8

    @given(st.integers(0, 2**32 - 1), st.floats(0.0, 0.6))
    @settings(max_examples=10)
    def test_solution_invariants_on_random_sources(self, seed, c_bits):
        src = random_joint(as_rng(seed), 2, 2)
        sol = ucr_capacity_solve(src, c_bits)
        h_x = entropy(src.marginal_x())
        assert -1e-12 <= sol.value_bits <= h_x + 1e-9
        assert sol.constraint_slack >= -1e-9
        later = ucr_capacity_solve(src, c_bits + 0.1)
        assert later.value_bits >= sol.value_bits - 1e-9


class TestCurve:
    def test_identical_source_is_flat(self):
        pts = ucr_curve(diagonal_source(), [0.0, 0.3, 0.8])
        assert all(sol.value_bits == pytest.approx(1.0, abs=1e-12)
                   for _, sol in pts)

    def test_independent_source_tracks_the_budget(self):
        src = independent_source([0.5, 0.5], [0.3, 0.7])
        grid = [0.1 * k for k in range(13)]
        for c, sol in ucr_curve(src, grid):
            assert sol.value_bits == pytest.approx(min(1.0, c), abs=5e-3)

    def test_nondecreasing_and_saturating(self):
        src = dsbs(0.1)
        grid = [0.1 * k for k in range(7)]
        pts = ucr_curve(src, grid)
        values = [sol.value_bits for _, sol in pts]
        assert all(a <= b + 1e-9 for a, b in zip(values, values[1:]))
        assert values[-1] == pytest.approx(1.0, abs=1e-12)  # 0.6 > h2(0.1)

    def test_rejects_negative_budgets(self):
        for bad in (-0.2, math.nan, math.inf):
            for grid in ([bad, 0.1], [0.1, bad]):
                with pytest.raises(ValidationError):
                    ucr_curve(dsbs(0.1), grid)
            with pytest.raises(ValidationError):
                ucr_capacity_solve(dsbs(0.1), bad)
            with pytest.raises(ValidationError):
                ucrcap.ucr_capacity_oracle(dsbs(0.1), bad, 2, grid_step=0.5)
