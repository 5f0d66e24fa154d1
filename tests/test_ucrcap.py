"""Constrained auxiliary-channel maximization: oracle, solver, and curve."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from support import diagonal_source, dsbs, h2, independent_source, random_joint
from ucrlab.errors import GuardError, ValidationError
from ucrlab.probspace import as_rng, conditional_entropy_x_given_y, entropy
from ucrlab.ucrcap import (
    _PREFILTER_MIN,
    AuxiliaryChannel,
    TimeSharedAux,
    _hull_scan,
    _upper_hull,
    ucr_capacity_oracle,
    ucr_capacity_solve,
    ucr_curve,
    ucr_objective,
)

# oracle reference on DSBS(0.1) at C = 0.2 bits, u_card 3, grid step 0.02
G1_ORACLE = 0.5059245194168638
G1_SOLVER = 0.5060752581797665


def achieved_point(source, achiever) -> tuple[float, float]:
    """(value, gap) reproduced from the reported achiever."""
    if isinstance(achiever, TimeSharedAux):
        v1, g1 = ucr_objective(source, achiever.first)
        v2, g2 = ucr_objective(source, achiever.second)
        w = achiever.weight
        return w * v1 + (1 - w) * v2, w * g1 + (1 - w) * g2
    return ucr_objective(source, achiever)


def hull_cloud(seed: int, zeros: bool, duplicates: bool, jitter: bool,
               collinear: bool, single_gap: bool) -> tuple[np.ndarray, np.ndarray]:
    """(gaps, values) above the hull prefilter's size threshold.

    Points scatter below a concave ridge, some within a few ulps of it. The
    flags add the degeneracies the exact scan has to settle: exact-zero
    gaps, exact duplicate points, runs of gaps whose neighbours differ by
    less than 1e-15 (some runs spanning more than 1e-15), points exactly on
    two straight hull pieces, and a cloud with one distinct gap.
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


class TestHull:
    @given(st.integers(0, 2**32 - 1), st.booleans(), st.booleans(), st.booleans(),
           st.booleans(), st.booleans())
    @settings(max_examples=150)
    def test_prefilter_returns_the_exact_scan(self, seed, zeros, duplicates, jitter,
                                              collinear, single_gap):
        gaps, values = hull_cloud(seed, zeros, duplicates, jitter, collinear, single_gap)
        assert gaps.size >= _PREFILTER_MIN
        assert _upper_hull(gaps, values) == _hull_scan(gaps, values)

    def test_small_and_nonfinite_clouds_take_the_scan(self):
        gaps, values = hull_cloud(5, True, True, True, False, False)
        assert _upper_hull(gaps[:100], values[:100]) == _hull_scan(gaps[:100], values[:100])
        values[7] = np.nan
        assert _upper_hull(gaps, values) == _hull_scan(gaps, values)


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
        assert sol.value_bits == 0.5059245194168638
        assert sol.constraint_slack == 0.0
        assert isinstance(sol.achiever, TimeSharedAux)
        assert sol.achiever.first.cond.rows.tolist() == [[0.1, 0.6, 0.3], [0.88, 0.08, 0.04]]
        assert sol.achiever.second.cond.rows.tolist() == [[0.1, 0.18, 0.72], [0.9, 0.02, 0.08]]
        assert sol.achiever.weight == 0.8230687289329593

    def test_grid_guard(self):
        src = random_joint(as_rng(0), 3, 3)
        with pytest.raises(GuardError):
            ucr_capacity_oracle(src, 0.1, u_card=4, grid_step=0.02)

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

    def test_zero_budget_on_dsbs_collapses(self):
        sol = ucr_capacity_solve(dsbs(0.1), 0.0)
        assert sol.value_bits <= 0.01

    def test_achiever_reproduces_the_reported_point(self):
        src = dsbs(0.1)
        sol = ucr_capacity_solve(src, 0.2, u_card=3)
        value, gap = achieved_point(src, sol.achiever)
        assert value == pytest.approx(sol.value_bits, abs=1e-9)
        assert 0.2 - gap == pytest.approx(sol.constraint_slack, abs=1e-9)

    @given(st.integers(0, 2**32 - 1), st.floats(0.0, 0.6))
    @settings(max_examples=10)
    def test_solution_invariants_on_random_sources(self, seed, c_bits):
        src = random_joint(as_rng(seed), 2, 2)
        kwargs = dict(slope_count=9, restarts_per_slope=3, steps=150)
        sol = ucr_capacity_solve(src, c_bits, **kwargs)
        h_x = entropy(src.marginal_x())
        assert -1e-12 <= sol.value_bits <= h_x + 1e-9
        assert sol.constraint_slack >= -1e-9
        later = ucr_capacity_solve(src, c_bits + 0.1, **kwargs)
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
        with pytest.raises(ValidationError):
            ucr_curve(dsbs(0.1), [-0.2, 0.1])
