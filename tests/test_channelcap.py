"""Capacity iteration, information density, and spectrum estimation."""

import itertools
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from support import (
    h2,
    ref_information_density,
    ref_log2_likelihood,
    ref_log2_output_prob,
    ref_sample_output,
    ref_spectrum_samples,
)
from ucrlab.channelcap import (
    DmcProduct,
    MixedChannel,
    SpectrumEstimate,
    bec,
    bsc,
    dmc_capacity,
    information_density,
    inf_info_rate_estimate,
    spectrum_samples,
)
from ucrlab.errors import (
    DimensionError,
    GuardError,
    UndefinedDensityError,
    ValidationError,
)
from ucrlab.probspace import ConditionalPmf, Pmf

UNIFORM2 = Pmf(np.array([0.5, 0.5]))
IDENTITY2 = DmcProduct(ConditionalPmf(np.eye(2)))
BLOCK_DTYPES = (np.int8, np.int16, np.int64)


def sparse_pmfs(rng, rows: int, size: int, zeros: float) -> np.ndarray:
    """rows random pmfs over size cells, each cell zeroed with probability
    zeros; a row left empty puts its mass on one cell."""
    probs = rng.dirichlet(np.ones(size), size=rows) * (rng.random((rows, size)) >= zeros)
    empty = np.flatnonzero(probs.sum(axis=1) == 0.0)
    probs[empty, rng.integers(0, size, size=empty.size)] = 1.0
    return probs / probs.sum(axis=1, keepdims=True)


def same_outcome(got, want) -> None:
    """got() returns want()'s bits, or both raise UndefinedDensityError."""
    try:
        expected = want()
    except UndefinedDensityError:
        with pytest.raises(UndefinedDensityError):
            got()
        return
    value = got()
    assert np.asarray(value).dtype == np.asarray(expected).dtype
    assert np.shape(value) == np.shape(expected) and np.array_equal(value, expected)


_NEAR = 1e-6
# channels on which alternating maximization alone is slow or never certifies
HARD_CHANNELS = {
    "near-duplicate-3x2": [[0.0, 1.0], [_NEAR, 1.0 - _NEAR], [0.66, 0.34]],
    "near-duplicate-6x2": [[0.9, 0.1], [0.9 - _NEAR, 0.1 + _NEAR], [0.3, 0.7],
                           [0.6, 0.4], [0.05, 0.95], [0.5, 0.5]],
    # the last row is the average of the other two
    "average-row": [[0.8, 0.1, 0.1], [0.1, 0.1, 0.8], [0.45, 0.1, 0.45]],
    "dominated-8x2": [[a, 1.0 - a] for a in (0.97, 0.02, 0.2, 0.35, 0.5, 0.65, 0.8, 0.9)],
    # only the last input reaches output 0; Newton points set its weight to
    # exactly 0, and only the alternating step can bring it back
    "sparse-5x3": [[0.0, 0.74, 0.26], [0.0, 0.0, 1.0], [0.0, 1.4e-4, 1.0 - 1.4e-4],
                   [0.0, 0.64, 0.36], [4.4e-5, 3.5e-3, 1.0 - 3.5e-3 - 4.4e-5]],
    # a spectrum-lemmas benchmark DMC (seed 2, group 2): one optimal weight
    # is near 0.005, and alternating maximization needs 15,609 steps
    "benchmark-3x3": [
        [0.21047266751607824, 0.32900483330669633, 0.4605224991772252],
        [0.3078653194284853, 0.5367989105430235, 0.15533577002849117],
        [0.382977826317933, 0.28377526019705274, 0.33324691348501423]],
}
# the inputs whose optimal weight is 0
ZERO_WEIGHT = {"near-duplicate-3x2": [1], "near-duplicate-6x2": [1, 2, 3, 5],
               "average-row": [2], "dominated-8x2": list(range(2, 8)), "sparse-5x3": [2, 3, 4],
               "benchmark-3x3": []}


def _assert_certified(w: np.ndarray, res, tol: float) -> None:
    """The bracket is [I(r; W), max_x D(W_x || rW)] of the returned input,
    recomputed here, and is at most tol wide around the value."""
    r = res.input_pmf.probs
    q = r @ w
    with np.errstate(divide="ignore", invalid="ignore"):
        div = np.array([sum(wy * np.log2(wy / qy) for wy, qy in zip(row, q) if wy > 0.0)
                        for row in w])
    mutual = float(sum(rx * dx for rx, dx in zip(r, div) if rx > 0.0))
    assert res.upper_bits == pytest.approx(float(div.max()), abs=1e-12)
    assert res.lower_bits == pytest.approx(min(mutual, res.upper_bits), abs=1e-12)
    assert res.lower_bits <= res.value_bits <= res.upper_bits
    assert res.upper_bits - res.lower_bits <= tol


class TestCapacity:
    def test_bsc_golden(self):
        res = dmc_capacity(bsc(0.11))
        assert res.value_bits == pytest.approx(1.0 - h2(0.11), abs=1e-6)
        assert res.input_pmf.probs == pytest.approx(np.array([0.5, 0.5]), abs=1e-3)

    def test_bec_golden(self):
        assert dmc_capacity(bec(0.3)).value_bits == pytest.approx(0.7, abs=1e-6)

    def test_extremes(self):
        assert dmc_capacity(bsc(0.0)).value_bits == pytest.approx(1.0, abs=1e-9)
        assert dmc_capacity(bsc(0.5)).value_bits == pytest.approx(0.0, abs=1e-9)
        assert dmc_capacity(bec(1.0)).value_bits == pytest.approx(0.0, abs=1e-9)

    def test_bracket_certificate(self):
        res = dmc_capacity(bsc(0.2), tol=1e-7)
        assert res.upper_bits - res.lower_bits <= 1e-7
        assert res.lower_bits - 1e-12 <= res.value_bits <= res.upper_bits + 1e-12

    def test_tolerance_must_be_positive(self):
        for tol in (0.0, -1e-9, float("nan")):
            with pytest.raises(ValidationError):
                dmc_capacity(bsc(0.2), tol=tol)

    def test_matches_fine_input_grid_on_2x2(self):
        rng = np.random.default_rng(14)
        for _ in range(5):
            w = ConditionalPmf(rng.dirichlet(np.ones(2), size=2))
            cap = dmc_capacity(w, tol=1e-9).value_bits
            grid = np.linspace(0.0, 1.0, 1001)
            best = 0.0
            for a in grid:
                r = np.array([a, 1.0 - a])
                q = r @ w.rows
                with np.errstate(divide="ignore", invalid="ignore"):
                    ratio = np.where(w.rows > 0, w.rows / q[None, :], 1.0)
                    mi = float(np.sum(r[:, None] * np.where(
                        w.rows > 0, w.rows * np.log2(ratio), 0.0)))
                best = max(best, mi)
            assert cap == pytest.approx(best, abs=1e-5)

    def test_iterations_count_both_kinds_of_step(self):
        res = dmc_capacity(ConditionalPmf(np.array(HARD_CHANNELS["benchmark-3x3"])))
        assert res.iterations == 1 + res.newton_steps + res.alternating_steps
        assert res.certificate_bits == res.upper_bits - res.lower_bits
        # the uniform start is optimal for a symmetric channel
        res = dmc_capacity(bsc(0.2))
        assert (res.iterations, res.newton_steps, res.alternating_steps) == (1, 0, 0)

    @pytest.mark.parametrize("name", sorted(HARD_CHANNELS))
    def test_hard_channels_certify_fast(self, name):
        w = np.array(HARD_CHANNELS[name])
        start = time.perf_counter()
        res = dmc_capacity(ConditionalPmf(w), tol=1e-9)
        assert time.perf_counter() - start < 1.0
        assert res.iterations <= 20
        _assert_certified(w, res, 1e-9)
        assert res.input_pmf.probs[ZERO_WEIGHT[name]] == pytest.approx(0.0, abs=1e-12)

    def test_a_newton_point_past_the_peak_is_cut_back(self):
        # on this 10x8 channel, full Newton points often lower I; taking the
        # alternating step instead needs about 1,000 steps
        w = np.random.default_rng(279).dirichlet(np.full(8, 0.05), size=10)
        res = dmc_capacity(ConditionalPmf(w), tol=1e-9)
        assert res.iterations <= 20
        _assert_certified(w, res, 1e-9)

    def test_seeded_random_channels_certify(self):
        rng = np.random.default_rng(21)
        for _ in range(100):
            nx, ny = rng.integers(2, 9, size=2)
            w = rng.dirichlet(np.full(ny, rng.choice([0.2, 1.0, 5.0])), size=nx)
            res = dmc_capacity(ConditionalPmf(w), tol=1e-9)
            assert res.iterations <= 100, w
            _assert_certified(w, res, 1e-9)

    @pytest.mark.parametrize("p", [-0.1, 1.2])
    def test_bsc_crossover_validation(self, p):
        with pytest.raises(ValidationError):
            bsc(p)


class TestBlockKernels:
    def test_dmc_block_likelihood_normalizes(self):
        k = DmcProduct(bsc(0.3))
        t = np.array([0, 1, 1, 0])
        total = sum(k.block_likelihood(t, np.array(z))
                    for z in itertools.product((0, 1), repeat=4))
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_mixed_block_likelihood_normalizes(self):
        k = MixedChannel(((0.5, DmcProduct(bsc(0.0))),
                          (0.5, DmcProduct(bsc(0.5)))))
        t = np.array([0, 1, 0])
        total = sum(k.block_likelihood(t, np.array(z))
                    for z in itertools.product((0, 1), repeat=3))
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_mixed_weights_must_form_a_pmf(self):
        with pytest.raises(ValidationError):
            MixedChannel(((0.5, IDENTITY2), (0.4, IDENTITY2)))

    def test_mixed_components_must_share_alphabets(self):
        with pytest.raises(DimensionError):
            MixedChannel(((0.5, IDENTITY2),
                          (0.5, DmcProduct(bec(0.3)))))

    def test_sample_output_matches_alphabet(self):
        k = DmcProduct(bec(0.3))
        z = k.sample_output(np.array([0, 1, 0, 1]), seed=3)
        assert z.shape == (4,)
        assert set(z.tolist()) <= {0, 1, 2}

    def test_mixed_sample_output_matches_alphabet(self):
        # a single block leaves one branch with no rows; these seeds draw both.
        # Outputs come in the smallest dtype that holds the output alphabet,
        # as DmcProduct draws them, whatever the input's dtype.
        k = MixedChannel(((0.5, DmcProduct(bec(0.3))),
                          (0.5, DmcProduct(bec(0.6)))))
        for seed in range(6):
            for t in (np.array([0, 1, 0, 1]), np.array([[0, 1, 0], [1, 1, 0]])):
                z = k.sample_output(t, seed=seed)
                assert z.shape == t.shape and z.dtype == np.int8
                assert set(z.ravel().tolist()) <= {0, 1, 2}


class TestBlockGuards:
    KERNELS = [DmcProduct(bsc(0.1)),
               MixedChannel(((0.5, DmcProduct(bsc(0.1))), (0.5, DmcProduct(bsc(0.3)))))]

    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize("bad", [
        np.array([0.7, 1.9]),                  # float: once truncated to [0, 1]
        np.array([1.0, 0.0]),                  # float, even with integral values
        np.array([True, False]),
        np.array(["1", "0"]),                  # once parsed as symbols
        np.array([1, 0], dtype=object),
    ], ids=["float", "integral-float", "bool", "str", "object"])
    def test_non_integer_blocks_are_refused(self, kernel, bad):
        good = np.array([0, 1])
        calls = [
            lambda: information_density(kernel, UNIFORM2, bad, good),
            lambda: information_density(kernel, UNIFORM2, good, bad),
            lambda: kernel.log2_likelihood(bad, good),
            lambda: kernel.log2_likelihood(good, bad),
            lambda: kernel.log2_output_prob(UNIFORM2, bad),
            lambda: kernel.block_likelihood(bad, good),
            lambda: kernel.sample_output(bad, 0),
        ]
        for call in calls:
            with pytest.raises(ValidationError):
                call()

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_python_int_lists_still_pass(self, kernel):
        t, z = [0, 1, 1], [0, 1, 0]
        assert information_density(kernel, UNIFORM2, t, z) == information_density(
            kernel, UNIFORM2, np.array(t), np.array(z))
        assert kernel.sample_output(t, 4).tolist() == kernel.sample_output(
            np.array(t), 4).tolist()

    def test_out_of_range_and_empty_blocks_are_refused(self):
        k = DmcProduct(bsc(0.1))
        for t in (np.array([0, 2]), np.array([-1, 0], dtype=np.int8),
                  np.array([0, 300], dtype=np.uint16)):
            with pytest.raises(ValidationError):
                information_density(k, UNIFORM2, t, np.array([0, 1]))
        for t in (np.array([], dtype=np.int64), np.zeros((1, 1, 2), dtype=np.int8)):
            with pytest.raises(DimensionError):
                k.log2_likelihood(t, t)


class TestFlatCellScoring:
    """Every kernel path returns the bits of the references in support.py:
    the 2-D gather np.log2(W)[t, z] on int64 blocks and the cum[rows, k]
    inverse cdf."""

    @settings(max_examples=150)
    @given(n_in=st.integers(1, 8), n_out=st.integers(1, 8), zeros=st.floats(0.0, 0.6),
           kind=st.sampled_from(["dmc", "mixture", "bsc-pair"]), mixed=st.integers(2, 3),
           shape=st.sampled_from([(1,), (9,), (1, 4), (7, 13)]),
           dtype=st.sampled_from(BLOCK_DTYPES), seed=st.integers(0, 2 ** 32 - 1))
    @example(n_in=2, n_out=2, zeros=0.0, kind="bsc-pair", mixed=2, shape=(7, 13),
             dtype=np.int8, seed=0)
    @example(n_in=8, n_out=8, zeros=0.5, kind="mixture", mixed=3, shape=(7, 13),
             dtype=np.int16, seed=1)
    def test_kernels_match_the_references(self, n_in, n_out, zeros, kind, mixed, shape,
                                          dtype, seed):
        rng = np.random.default_rng(seed)
        if kind == "bsc-pair":
            n_in = n_out = 2
            w = float(rng.random())
            kernel = MixedChannel(((w, DmcProduct(bsc(0.0))), (1.0 - w, DmcProduct(bsc(0.5)))))
        elif kind == "dmc":
            kernel = DmcProduct(ConditionalPmf(sparse_pmfs(rng, n_in, n_out, zeros)))
        else:
            weights = sparse_pmfs(rng, 1, mixed, zeros)[0]
            kernel = MixedChannel(tuple(
                (float(w), DmcProduct(ConditionalPmf(sparse_pmfs(rng, n_in, n_out, zeros))))
                for w in weights))
        pmf = Pmf(sparse_pmfs(rng, 1, n_in, zeros)[0])
        t = rng.integers(0, n_in, size=shape).astype(dtype)
        z = rng.integers(0, n_out, size=shape).astype(dtype)

        assert np.array_equal(kernel.log2_likelihood(t, z), ref_log2_likelihood(kernel, t, z))
        assert np.array_equal(kernel.log2_output_prob(pmf, z),
                              ref_log2_output_prob(kernel, pmf, z))
        same_outcome(lambda: information_density(kernel, pmf, t, z),
                     lambda: ref_information_density(kernel, pmf, t, z))

        drawn = kernel.sample_output(t, np.random.default_rng(seed))
        want = ref_sample_output(kernel, t, np.random.default_rng(seed))
        assert drawn.dtype == want.dtype == np.int8 and np.array_equal(drawn, want)
        same_outcome(lambda: information_density(kernel, pmf, t, drawn),
                     lambda: ref_information_density(kernel, pmf, t, want))

        n, num_samples = shape[-1], int(rng.integers(1, 40))
        same_outcome(lambda: spectrum_samples(kernel, pmf, n, num_samples, seed).values_bits,
                     lambda: np.sort(ref_spectrum_samples(kernel, pmf, n, num_samples, seed)))

    @pytest.mark.parametrize("kernel, pmf", [
        (DmcProduct(bsc(0.12)), UNIFORM2),
        (DmcProduct(ConditionalPmf(np.array([[0.5, 0.3, 0.2], [0.1, 0.8, 0.1],
                                             [0.25, 0.25, 0.5]]))), Pmf(np.full(3, 1 / 3))),
        (MixedChannel(((0.4, DmcProduct(bsc(0.0))), (0.6, DmcProduct(bsc(0.5))))), UNIFORM2),
    ], ids=["bsc", "dmc3", "mixture"])
    def test_spectrum_matches_the_reference_across_batches(self, kernel, pmf):
        # at n = 2**14 + 1 a batch holds 3 blocks: 7 samples span three batches
        n = 2 ** 14 + 1
        est = spectrum_samples(kernel, pmf, n, 7, seed=5)
        assert np.array_equal(est.values_bits, np.sort(ref_spectrum_samples(kernel, pmf, n, 7, 5)))


class TestInformationDensity:
    def test_identity_channel_is_one_bit(self):
        t = np.array([0, 1, 1, 0, 1])
        assert information_density(IDENTITY2, UNIFORM2, t, t) == pytest.approx(
            1.0, abs=1e-12)

    def test_output_independent_channel_is_zero(self):
        k = DmcProduct(ConditionalPmf(np.array([[0.4, 0.6], [0.4, 0.6]])))
        val = information_density(k, UNIFORM2, np.array([0, 1]), np.array([1, 1]))
        assert val == pytest.approx(0.0, abs=1e-12)

    def test_bsc_two_point_golden(self):
        k = DmcProduct(bsc(0.1))
        same = information_density(k, UNIFORM2, np.array([0]), np.array([0]))
        diff = information_density(k, UNIFORM2, np.array([0]), np.array([1]))
        assert same == pytest.approx(0.8479969065549501, abs=1e-12)
        assert diff == pytest.approx(-2.321928094887362, abs=1e-12)

    def test_zero_likelihood_is_undefined(self):
        k = DmcProduct(bsc(0.0))
        with pytest.raises(UndefinedDensityError):
            information_density(k, UNIFORM2, np.array([0]), np.array([1]))

    def test_block_length_mismatch(self):
        with pytest.raises(DimensionError):
            information_density(IDENTITY2, UNIFORM2, np.array([0, 1]),
                                np.array([0]))

    @pytest.mark.parametrize("kernel", [
        DmcProduct(bsc(0.2)),
        MixedChannel(((0.3, DmcProduct(bsc(0.1))), (0.7, DmcProduct(bsc(0.4))))),
    ])
    def test_batch_matches_single_blocks(self, kernel):
        rng = np.random.default_rng(9)
        t = rng.integers(0, 2, size=(5, 12))
        z = rng.integers(0, 2, size=(5, 12))
        batch = information_density(kernel, UNIFORM2, t, z)
        single = [information_density(kernel, UNIFORM2, t[b], z[b]) for b in range(5)]
        assert batch.shape == (5,)
        assert np.array_equal(batch, np.array(single))

    def test_mean_matches_mutual_information(self):
        # sample mean within 3 standard errors of I(input; W)
        k = DmcProduct(bsc(0.2))
        est = spectrum_samples(k, UNIFORM2, 40, 400, seed=8)
        target = 1.0 - h2(0.2)
        se = est.std() / 20.0
        assert abs(est.mean() - target) <= 3.0 * se


class TestSpectrum:
    def test_identity_spectrum_is_a_point_mass(self):
        est = spectrum_samples(IDENTITY2, UNIFORM2, 16, 64, seed=0)
        assert np.all(est.values_bits == 1.0)

    def test_seed_determinism_across_batches(self):
        # at n = 2**14 a batch holds 4 blocks: 6 samples span two batches
        k = DmcProduct(bsc(0.15))
        a = spectrum_samples(k, UNIFORM2, 2 ** 14, 6, seed=21)
        b = spectrum_samples(k, UNIFORM2, 2 ** 14, 6, seed=21)
        assert a.num_samples == 6 and a.n == 2 ** 14
        assert np.array_equal(a.values_bits, b.values_bits)

    def test_sample_count_validation(self):
        with pytest.raises(ValidationError):
            spectrum_samples(IDENTITY2, UNIFORM2, 8, 0, seed=0)

    def test_block_length_validation(self):
        with pytest.raises(ValidationError):
            spectrum_samples(IDENTITY2, UNIFORM2, 0, 4, seed=0)

    @pytest.mark.parametrize("n", [2 ** 16 + 1, 10 ** 30])
    def test_block_longer_than_a_batch_is_refused(self, n):
        with pytest.raises(GuardError, match="batch"):
            spectrum_samples(IDENTITY2, UNIFORM2, n, 1, seed=0)

    def test_input_alphabet_validation(self):
        with pytest.raises(DimensionError):
            spectrum_samples(IDENTITY2, Pmf(np.array([0.2, 0.3, 0.5])), 8, 4,
                             seed=0)

    def test_quantile_and_mass_below_are_monotone(self):
        est = spectrum_samples(DmcProduct(bsc(0.25)), UNIFORM2, 20, 200, seed=5)
        qs = [est.quantile(q) for q in np.linspace(0.0, 1.0, 21)]
        assert all(a <= b + 1e-12 for a, b in zip(qs, qs[1:]))
        rs = np.linspace(qs[0] - 0.1, qs[-1] + 0.1, 31)
        ms = [est.mass_below(r) for r in rs]
        assert all(a <= b + 1e-12 for a, b in zip(ms, ms[1:]))
        assert ms[0] == 0.0 and ms[-1] == 1.0

    @given(st.lists(st.floats(-5.0, 5.0), min_size=1, max_size=40))
    @settings(max_examples=40)
    def test_mass_below_is_a_cdf_on_any_sample(self, values):
        est = SpectrumEstimate(np.array(values), n=4)
        lo, hi = est.values_bits[0], est.values_bits[-1]
        assert est.mass_below(lo - 1.0) == 0.0
        assert est.mass_below(hi) == 1.0
        assert 0.0 <= est.mass_below(0.5 * (lo + hi)) <= 1.0


class TestInfRateEstimate:
    def test_identity_estimate(self):
        sp = [spectrum_samples(IDENTITY2, UNIFORM2, n, 100, seed=4)
              for n in (10, 20)]
        est = inf_info_rate_estimate(sp)
        assert est.value_bits == pytest.approx(0.99, abs=1e-12)
        assert est.conclusive

    def test_useless_channel_estimate(self):
        sp = [spectrum_samples(DmcProduct(bsc(0.5)), UNIFORM2, n, 100, seed=4)
              for n in (10, 20)]
        assert inf_info_rate_estimate(sp).value_bits <= 0.01

    def test_needs_two_block_lengths(self):
        one = spectrum_samples(IDENTITY2, UNIFORM2, 8, 16, seed=0)
        with pytest.raises(ValidationError):
            inf_info_rate_estimate([one])

    def test_block_lengths_must_increase(self):
        sp = [spectrum_samples(IDENTITY2, UNIFORM2, n, 16, seed=0)
              for n in (20, 10)]
        with pytest.raises(ValidationError):
            inf_info_rate_estimate(sp)
