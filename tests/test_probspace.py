"""Distribution containers, information measures, sampling, and type quantization."""

import math
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from support import (diagonal_source, dsbs, h2, independent_source, markov_defect,
                     random_joint)
from ucrlab.channelcap import DmcProduct
from ucrlab.errors import DimensionError, GuardError, ValidationError
from ucrlab.probspace import (
    ConditionalPmf,
    JointPmf,
    Pmf,
    as_rng,
    compose_aux,
    conditional_entropy_x_given_y,
    entropy,
    entropy_bits,
    mutual_information,
    categorical_from_uniforms,
    pairs_from_uniforms,
    sample_iid,
    subseed,
    type_counts,
)

pmf_arrays = st.integers(2, 5).flatmap(
    lambda k: st.lists(st.floats(0.01, 1.0), min_size=k, max_size=k))


def normalized(weights) -> np.ndarray:
    arr = np.asarray(weights, dtype=float)
    return arr / arr.sum()


class PresetUniforms(np.random.Generator):
    """A generator whose random(size) returns the given uniforms, reshaped."""

    def __init__(self, u):
        super().__init__(np.random.PCG64(0))
        self.u = np.asarray(u, dtype=float)

    def random(self, size=None, dtype=np.float64, out=None):
        return self.u.reshape(size)


def ref_int64_cells(probs, u, rows=None) -> np.ndarray:
    """The inverse cdf as it was counted before its small-int dtype: int64
    cells, one comparison pass per cdf step."""
    cum = np.cumsum(probs, axis=-1)
    cell = np.zeros(np.shape(u), dtype=np.int64)
    for k in range(cum.shape[-1] - 1):
        cell += u >= (cum[k] if rows is None else cum[rows, k])
    return cell


def ref_cells(table, rows, u) -> np.ndarray:
    """The reference draw, symbol by symbol: searchsorted on the row's cdf,
    clipped to the last cell."""
    last = table.shape[1] - 1
    return np.array([min(np.searchsorted(np.cumsum(table[r]), v, side="right"), last)
                     for r, v in zip(rows, u)])


class TestValidation:
    def test_pmf_rejects_negative_entries(self):
        with pytest.raises(ValidationError):
            Pmf(np.array([1.2, -0.2]))

    def test_pmf_rejects_bad_normalization(self):
        with pytest.raises(ValidationError):
            Pmf(np.array([0.4, 0.4]))

    def test_joint_requires_matrix(self):
        with pytest.raises(ValidationError):
            JointPmf(np.array([0.5, 0.5]))

    def test_conditional_rejects_non_stochastic_row(self):
        with pytest.raises(ValidationError):
            ConditionalPmf(np.array([[0.7, 0.2], [0.5, 0.5]]))


class TestEntropy:
    def test_uniform_binary(self):
        assert entropy(Pmf(np.array([0.5, 0.5]))) == pytest.approx(1.0, abs=1e-12)

    def test_point_mass(self):
        assert entropy(Pmf(np.array([0.0, 1.0]))) == 0.0

    def test_skewed_binary_golden(self):
        val = entropy(Pmf(np.array([0.9, 0.1])))
        assert val == pytest.approx(0.4689955935892812, abs=1e-12)

    def test_accepts_plain_arrays(self):
        assert entropy(np.array([0.25, 0.25, 0.25, 0.25])) == pytest.approx(2.0)

    @given(pmf_arrays)
    def test_bounds(self, weights):
        p = Pmf(normalized(weights))
        val = entropy(p)
        assert -1e-12 <= val <= math.log2(p.size) + 1e-9

    @settings(max_examples=300)
    @given(cells=st.lists(st.floats(0.0, 2.0), max_size=600)
           | st.lists(st.floats(1e-3, 1.0), max_size=600)
           | st.lists(st.sampled_from([0.0, math.nan]) | st.floats(0.0, 1.0), max_size=600),
           rows=st.integers(1, 3))
    @example(cells=[0.25] * 400, rows=2)
    @example(cells=[0.5, 0.0] * 200, rows=1)
    @example(cells=[0.5, math.nan, 0.25, 0.0] * 100, rows=4)
    def test_equals_the_sum_over_the_positive_cells_bit_for_bit(self, cells, rows):
        # with and without zeros, with NaN, and past the 128-term leaves of
        # numpy's pairwise sum; a zero entropy is +0.0
        p = np.array(cells[:len(cells) // rows * rows], dtype=float).reshape(rows, -1)
        pos = p[p > 0]
        want = max(float(-np.sum(pos * np.log2(pos))), 0.0) + 0.0
        assert struct.pack("<d", entropy_bits(p)) == struct.pack("<d", want)

    @pytest.mark.parametrize("cells", [[1.0], [0.0, 1.0, 0.0], []])
    def test_a_point_mass_has_positive_zero_entropy(self, cells):
        assert math.copysign(1.0, entropy_bits(np.array(cells))) == 1.0


class TestMutualInformation:
    def test_product_is_independent(self):
        j = independent_source([0.3, 0.7], [0.2, 0.5, 0.3])
        assert mutual_information(j) == pytest.approx(0.0, abs=1e-12)

    def test_identical_binary(self):
        assert mutual_information(diagonal_source()) == pytest.approx(1.0, abs=1e-12)

    def test_dsbs_golden(self):
        assert mutual_information(dsbs(0.1)) == pytest.approx(
            1.0 - h2(0.1), abs=1e-12)

    def test_conditional_entropy_complements(self):
        j = dsbs(0.1)
        assert conditional_entropy_x_given_y(j) == pytest.approx(h2(0.1), abs=1e-12)

    def test_conditional_entropy_is_zero_when_y_determines_x(self):
        # the unclamped difference of entropies reads -2.2e-16 here
        j = JointPmf(np.array([[0.0, 0.421, 0.291], [0.288, 0.0, 0.0]]))
        assert conditional_entropy_x_given_y(j) == 0.0

    @given(st.integers(0, 2**32 - 1), st.integers(2, 4), st.integers(2, 4))
    @settings(max_examples=60)
    def test_bounds(self, seed, nx, ny):
        j = random_joint(as_rng(seed), nx, ny)
        mi = mutual_information(j)
        assert mi >= 0.0
        assert mi <= min(entropy(j.marginal_x()), entropy(j.marginal_y())) + 1e-9


class TestComposeAux:
    def test_identity_embeds_the_source(self):
        src = dsbs(0.1)
        trip = compose_aux(src, ConditionalPmf(np.eye(2)))
        for x in range(2):
            assert trip.probs[x, x, :] == pytest.approx(src.probs[x, :])
            assert trip.probs[1 - x, x, :] == pytest.approx(np.zeros(2))

    def test_constant_aux_is_independent_of_x(self):
        trip = compose_aux(dsbs(0.1), ConditionalPmf(np.array([[1.0], [1.0]])))
        assert mutual_information(trip.pair_ux()) == pytest.approx(0.0, abs=1e-12)

    def test_binary_cascade_golden(self):
        # flip(0.2) after flip(0.1) has crossover 0.2*0.9 + 0.8*0.1 = 0.26
        aux = ConditionalPmf(np.array([[0.8, 0.2], [0.2, 0.8]]))
        trip = compose_aux(dsbs(0.1), aux)
        assert mutual_information(trip.pair_uy()) == pytest.approx(
            1.0 - h2(0.26), abs=1e-12)
        assert mutual_information(trip.pair_ux()) == pytest.approx(
            1.0 - h2(0.2), abs=1e-12)

    def test_alphabet_mismatch(self):
        with pytest.raises(DimensionError):
            compose_aux(dsbs(0.1), ConditionalPmf(np.eye(3)))

    @given(st.integers(0, 2**32 - 1), st.integers(2, 3), st.integers(1, 4))
    @settings(max_examples=40)
    def test_chain_property_holds_by_construction(self, seed, nx, u_card):
        rng = as_rng(seed)
        src = random_joint(rng, nx, 3)
        aux = ConditionalPmf(rng.dirichlet(np.ones(u_card), size=nx))
        assert markov_defect(compose_aux(src, aux)) <= 1e-10


class TestSampling:
    def test_diagonal_pairs_agree(self):
        x, y = sample_iid(diagonal_source(), 500, seed=1)
        assert np.array_equal(x, y)

    def test_seed_determinism(self):
        a = sample_iid(dsbs(0.1), 256, seed=9)
        b = sample_iid(dsbs(0.1), 256, seed=9)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_dsbs_disagreement_rate(self):
        x, y = sample_iid(dsbs(0.1), 10**5, seed=42)
        assert abs(float(np.mean(x != y)) - 0.1) <= 0.01

    def test_rejects_empty_block(self):
        with pytest.raises(ValidationError):
            sample_iid(dsbs(0.1), 0, seed=0)

    @settings(max_examples=150)
    @given(cuts=st.integers(2, 4).flatmap(lambda k: st.lists(
               st.lists(st.integers(0, 8), min_size=k - 1, max_size=k - 1).map(sorted),
               min_size=1, max_size=3)),
           u=st.lists(st.one_of(st.integers(0, 7).map(lambda k: k / 8.0),
                                st.floats(0.0, 1.0, exclude_max=True)), min_size=1, max_size=40),
           seed=st.integers(0, 2 ** 32 - 1))
    @example(cuts=[[2, 6], [0, 8]], u=[0.25, 0.75, 0.0, 0.5, 0.9], seed=1)
    def test_every_draw_counts_the_cdf_steps_at_or_below_a_uniform(self, cuts, u, seed):
        # rows in eighths have exact cdf steps, and uniforms in eighths land on them
        table = np.diff([[0] + r + [8] for r in cuts], axis=1) / 8.0
        u = np.array(u)
        first = np.zeros(u.size, dtype=np.int64)
        x, y = pairs_from_uniforms(JointPmf(table[:1]), u)
        assert not x.any() and np.array_equal(y, ref_cells(table, first, u))
        t = np.random.default_rng(seed).integers(0, len(table), size=u.size)
        z = DmcProduct(ConditionalPmf(table)).sample_output(t, PresetUniforms(u))
        assert np.array_equal(z, ref_cells(table, t, u))

    @settings(max_examples=120)
    @given(nx=st.integers(1, 16), ny=st.integers(1, 16), zeros=st.floats(0.0, 0.5),
           uniform_law=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
    @example(nx=16, ny=16, zeros=0.0, uniform_law=False, seed=0)
    @example(nx=2, ny=5, zeros=0.0, uniform_law=True, seed=0)
    @example(nx=8, ny=16, zeros=0.0, uniform_law=False, seed=0)
    def test_small_int_cells_match_the_int64_reference(self, nx, ny, zeros, uniform_law,
                                                       seed):
        # a 16 x 16 joint has 256 cells: the count needs int16. A flat law of
        # 10 cells has a cdf that rounds to just below 1.
        rng = np.random.default_rng(seed)
        k = nx * ny
        if uniform_law:
            probs = np.full(k, 1.0 / k)
        else:
            probs = rng.dirichlet(np.ones(k)) * (rng.random(k) >= zeros)
            probs = probs / probs.sum() if probs.sum() > 0.0 else np.full(k, 1.0 / k)
        cum = np.cumsum(probs)
        steps = cum[:-1]
        # uniforms at random, exactly on every cdf step and one ulp either side
        u = np.concatenate([rng.random(200), steps, np.nextafter(steps, 0.0),
                            np.nextafter(steps, 1.0), [0.0, np.nextafter(1.0, 0.0)]])
        u = u[u < 1.0].reshape(1, -1)
        want = ref_int64_cells(probs, u)
        x, y = pairs_from_uniforms(JointPmf(probs.reshape(nx, ny)), u)
        cells = categorical_from_uniforms(probs, u)
        for got in (x, y, cells):
            info = np.iinfo(got.dtype)
            # the cells run 0..k - 1: int8 holds all 128 of an 8 x 16 joint
            assert got.dtype.kind == "i" and info.min <= -k and info.max >= k - 1
            assert got.shape == u.shape
        assert (x.dtype, cells.dtype) == (np.int8 if k <= 128 else np.int16,) * 2
        assert np.array_equal(cells, want)
        assert np.array_equal(x, want // ny) and np.array_equal(y, want % ny)
        # the table form: each uniform inverts the cdf of its own row
        table = rng.dirichlet(np.ones(ny), size=nx)
        rows = rng.integers(0, nx, size=u.shape)
        assert np.array_equal(categorical_from_uniforms(table, u, rows),
                              ref_int64_cells(table, u, rows))
        if uniform_law and k == 10:
            assert cum[-1] < 1.0 and cells[0, -1] == k - 1


class TestTypeClasses:
    def test_largest_remainder_golden(self):
        assert type_counts(Pmf(np.array([0.3, 0.7])), 10).tolist() == [3, 7]

    def test_counts_for_uniform_binary(self):
        assert type_counts(Pmf(np.array([0.5, 0.5])), 4).tolist() == [2, 2]

    def test_point_mass_gives_constant_sequence(self):
        assert type_counts(Pmf(np.array([0.0, 1.0])), 6).tolist() == [0, 6]

    def test_support_larger_than_block_is_infeasible(self):
        with pytest.raises(GuardError):
            type_counts(Pmf(np.full(4, 0.25)), 3)

    @given(pmf_arrays, st.integers(6, 300))
    @settings(max_examples=80)
    def test_quantized_type_properties(self, weights, n):
        p = Pmf(normalized(weights))
        counts = type_counts(p, n)
        assert counts.sum() == n
        assert np.all(counts >= 0)
        assert np.max(np.abs(counts - n * p.probs)) <= 1.5


class TestSeedTree:
    def test_subseed_children_are_distinct(self):
        a = as_rng(subseed(5, 1)).random()
        b = as_rng(subseed(5, 2)).random()
        assert a != b

    def test_subseed_is_stable(self):
        assert as_rng(subseed(5, 1, 2)).random() == as_rng(subseed(5, 1, 2)).random()

    def test_as_rng_rejects_non_integer_seed(self):
        with pytest.raises(ValidationError):
            as_rng((1, 2))

    @pytest.mark.parametrize("seed", [-1, 2 ** 64, 2 ** 64 + 1])
    def test_seeds_outside_64_bits_are_refused(self, seed):
        with pytest.raises(ValidationError, match="2\\*\\*64"):
            subseed(seed, 1)
        with pytest.raises(ValidationError, match="2\\*\\*64"):
            as_rng(seed)

    @pytest.mark.parametrize("seed", [True, False, np.True_])
    def test_boolean_seeds_are_refused(self, seed):
        with pytest.raises(ValidationError, match="a seed must be an integer"):
            subseed(seed, 1)

    def test_largest_seed_is_accepted(self):
        assert as_rng(2 ** 64 - 1).random() == as_rng(np.uint64(2 ** 64 - 1)).random()
        as_rng(subseed(2 ** 64 - 1, 3)).random()
