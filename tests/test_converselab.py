"""Quantitative lemma checks: derived constants, tail sets, telescoping."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, target
from hypothesis import strategies as st

from ucrlab import converselab
from ucrlab.converselab import (
    TelescopingInstance,
    _interval_arrays,
    derive_params,
    interval_lemma_check,
    interval_sweep,
    set_bound_checks,
    telescoping_identity_check,
    variance_bound_check,
)
from ucrlab.errors import DimensionError, InternalInvariantError, ValidationError
from ucrlab.probspace import as_rng
from ucrlab.protocol import ProtocolConfig, exact_analyze
from ucrlab.ucrcap import AuxiliaryChannel
from support import dsbs, telescoping_rhs_reference

# the lemmas command's proposal box, and criterion 06's wider one
LEMMAS_BOX = ((1e-6, 0.5), (1e-9, 1.0 / 9.0), (0.0, 4.0))
WIDE_BOX = ((1e-6, 1.0 - 1e-6), (1e-9, 0.5), (0.0, 4.0))


def scalar_sweep(rng, target, box):
    """The interval sweep one draw at a time: (valid draws, passes, attempts)."""
    draws, passes, attempts = [], 0, 0
    while len(draws) < target:
        attempts += 1
        p = derive_params(*(float(rng.uniform(lo, hi)) for lo, hi in box))
        if p.constraints_hold:
            draws.append((p.alpha, p.beta, p.c))
            passes += bool(interval_lemma_check(p))
    return np.array(draws), passes, attempts


@pytest.fixture(scope="module")
def reference_cfg():
    """The small reference run (n = 8)."""
    return ProtocolConfig(n=8, mu=0.3, theta=0.0, eps_typ=0.15,
                          aux=AuxiliaryChannel.identity(2), source=dsbs(0.1),
                          seed=0, allow_degenerate_rate=True)


@pytest.fixture(scope="module")
def reference_joint(reference_cfg):
    """Exact (K, Y-block) law of the small reference run."""
    return exact_analyze(reference_cfg)


class TestDerivedConstants:
    def test_small_parameter_golden(self):
        p = derive_params(0.01, 0.001, 2.0)
        assert p.mu_beta == pytest.approx(0.005001, abs=1e-15)

    def test_closed_form_gamma_golden(self):
        # beta chosen so mu = beta * (1 + beta) = 1/4; alpha = 0.81
        beta = (math.sqrt(2.0) - 1.0) / 2.0
        p = derive_params(0.81, beta, 0.0)
        assert p.mu_beta == pytest.approx(0.25, abs=1e-12)
        assert p.gamma_ab == pytest.approx(2.0 * math.sqrt(5.0), abs=1e-12)
        assert p.kappa_ab == pytest.approx(0.81 + 1.0 - 0.95**2, abs=1e-12)

    def test_validation(self):
        for bad in (dict(alpha=0.0), dict(beta=0.0), dict(c=-0.1)):
            kwargs = dict(alpha=0.1, beta=0.1, c=1.0)
            kwargs.update(bad)
            with pytest.raises(ValidationError):
                derive_params(**kwargs)

    def test_alpha_above_one_has_no_real_gamma(self):
        p = derive_params(1.5, 0.1, 1.0)
        assert math.isnan(p.gamma_ab)
        assert not p.alpha_in_range

    @given(st.floats(1e-4, 1.0 - 1e-4), st.floats(1e-5, 0.4),
           st.floats(0.0, 2.0))
    @settings(max_examples=200)
    def test_ratio_identity(self, alpha, beta, c):
        p = derive_params(alpha, beta, c)
        expected = math.sqrt(p.mu_beta) * (1.0 - math.sqrt(alpha))
        assert p.chebyshev_ratio == pytest.approx(expected, abs=1e-12)


class TestIntervalLemma:
    @given(st.floats(1e-4, 1.0 - 1e-4), st.floats(1e-5, 0.4),
           st.floats(0.0, 2.0))
    @settings(max_examples=300)
    def test_holds_on_the_valid_region(self, alpha, beta, c):
        p = derive_params(alpha, beta, c)
        assume(p.mu_in_range)
        assert interval_lemma_check(p)

    @given(st.floats(1e-6, 1.0 - 1e-6), st.floats(1e-9, 0.5), st.floats(0.0, 4.0))
    @settings(max_examples=500)
    def test_valid_region_lies_in_the_lemmas_proposal_box(self, alpha, beta, c):
        # `ucrlab lemmas` proposes alpha < 1/2 and beta < 1/9 only; every
        # valid point of the wider box must lie inside that
        p = derive_params(alpha, beta, c)
        valid = p.constraints_hold
        target(alpha if valid else 0.0, label="valid alpha")
        target(beta if valid else 0.0, label="valid beta")
        if valid:
            assert alpha < 0.5 and beta < 1.0 / 9.0

    def test_lemmas_proposal_box_is_nearly_tight(self):
        assert derive_params(0.49, 1e-9, 0.0).constraints_hold
        assert derive_params(1.0 / 16.0, 0.1, 0.0).constraints_hold

    def test_fails_when_mu_saturates(self):
        p = derive_params(0.5, 2.0, 1.0)  # mu = 2 + 4 + 4 = 10
        assert not p.mu_in_range
        assert not interval_lemma_check(p)

    def test_fails_without_a_real_gamma(self):
        assert not interval_lemma_check(derive_params(1.2, 0.1, 1.0))


class TestIntervalSweep:
    @pytest.mark.parametrize("box", [LEMMAS_BOX, WIDE_BOX], ids=["lemmas", "wide"])
    def test_arrays_match_the_scalar_constants_and_verdicts(self, box):
        rng = as_rng(18)
        low, high = (np.array(b) for b in zip(*box))
        draws = low + (high - low) * rng.random((24_000, 3))
        mu, gamma, kappa, valid, passes = _interval_arrays(*draws.T)
        scalar = [derive_params(*map(float, d)) for d in draws]
        assert np.array_equal(valid, [p.constraints_hold for p in scalar])
        assert np.array_equal(passes, [interval_lemma_check(p) for p in scalar])
        assert 400 < valid.sum() < valid.size
        assert np.array_equal(mu, [p.mu_beta for p in scalar])
        assert np.array_equal(gamma, [p.gamma_ab for p in scalar])
        # Python's gamma**2 calls pow where numpy squares, so the two squares
        # can sit 1 ulp apart. kappa = (alpha + 1) - (1 - ratio)^2 cancels,
        # so that ulp shows at the scale of alpha + 1, not of kappa.
        want = np.array([p.kappa_ab for p in scalar])
        assert np.all(np.abs(kappa - want) <= 4 * np.spacing(draws[:, 0] + 1.0))

    def test_arrays_flag_points_outside_the_region(self):
        alpha = np.array([1.2, 1.0, 0.5, 0.25])
        beta = np.array([0.1, 0.1, 2.0, 0.01])
        _, gamma, _, valid, passes = _interval_arrays(alpha, beta, np.ones(4))
        assert np.isnan(gamma[:2]).all()
        assert valid.tolist() == [False, False, False, True]
        assert passes.tolist() == [False, False, False, True]

    @pytest.mark.parametrize("box, seed, target", [
        (LEMMAS_BOX, 5, 2000), (LEMMAS_BOX, 7, 1), (WIDE_BOX, 11, 300)])
    def test_sweep_accepts_the_scalar_loops_draws(self, box, seed, target):
        draws, passes, attempts = scalar_sweep(as_rng(seed), target, box)
        sweep = interval_sweep(as_rng(seed), target, box)
        assert np.array_equal(sweep.draws, draws)
        assert (sweep.passes, sweep.attempts) == (passes, attempts)

    def test_sweep_spanning_batches(self, monkeypatch):
        monkeypatch.setattr(converselab, "_SWEEP_BATCH", 7)
        draws, passes, attempts = scalar_sweep(as_rng(3), 40, LEMMAS_BOX)
        sweep = interval_sweep(as_rng(3), 40, LEMMAS_BOX)
        assert np.array_equal(sweep.draws, draws)
        assert (sweep.passes, sweep.attempts) == (passes, attempts)

    def test_sweep_guard_counts_a_hundred_draws_per_target(self):
        # one box point, alpha = 0.6: never valid
        box = ((0.6, 0.6), (0.01, 0.01), (1.0, 1.0))
        with pytest.raises(InternalInvariantError):
            interval_sweep(as_rng(0), 3, box)

    @pytest.mark.parametrize("target, box", [
        (0, LEMMAS_BOX), (5, ((0.0, 0.5), (1e-9, 0.1), (0.0, 4.0))),
        (5, ((0.1, 0.5), (0.2, 0.1), (0.0, 4.0))), (5, ((0.1, 0.5), (1e-9, 0.1)))])
    def test_sweep_refuses_an_empty_target_or_a_box_outside_the_domain(self, target, box):
        with pytest.raises(ValidationError):
            interval_sweep(as_rng(0), target, box)


class TestVarianceBound:
    def test_uniform_support_is_applicable_and_holds(self):
        report = variance_bound_check(np.full(16, 1.0 / 16.0), n=8,
                                      beta=0.05, c=1.0)
        assert report.applicable
        assert report.holds is True
        assert report.lhs == pytest.approx(0.0, abs=1e-12)
        assert report.margin > 0.0

    def test_two_point_support_is_not_applicable(self):
        report = variance_bound_check(np.array([0.5, 0.5]), n=4, beta=0.2,
                                      c=1.0)
        assert not report.applicable
        assert report.holds is None
        assert report.support_size == 2

    def test_reference_run_variance_golden(self, reference_joint):
        k_pmf = reference_joint.joint_ky.sum(axis=1)
        report = variance_bound_check(k_pmf, n=8, beta=0.001, c=2.0)
        assert report.lhs == pytest.approx(0.1764399244403802, abs=1e-12)
        assert not report.applicable  # far from uniform at this small n


class TestSetBounds:
    def test_uniform_law_is_applicable_and_meets_its_floors(self):
        joint = np.full((16, 1), 1.0 / 16.0)
        report = set_bound_checks(joint, 8, derive_params(0.01, 0.001, 2.0))
        assert report.applicable
        assert report.l_holds is True and report.d_holds is True
        assert report.p_in_l == pytest.approx(1.0, abs=1e-12)
        assert report.p_in_d == pytest.approx(1.0, abs=1e-12)
        assert report.l_lower_bound == pytest.approx(0.9363540260503462,
                                                     abs=1e-12)
        assert report.d_lower_bound == pytest.approx(0.8767588621006924,
                                                     abs=1e-12)

    def test_uniform_independent_law_meets_its_floors(self):
        # K uniform on 8 values, independent of a biased binary Y
        joint = np.outer(np.full(8, 1.0 / 8.0), np.array([0.3, 0.7]))
        report = set_bound_checks(joint, n=3, params=derive_params(0.01, 0.001, 1.0))
        assert report.applicable
        assert report.l_holds is True and report.d_holds is True
        assert report.p_in_l == pytest.approx(1.0, abs=1e-12)
        assert report.p_in_d == pytest.approx(1.0, abs=1e-12)

    def test_reference_law_masses_clear_the_floors_but_gate_closed(
            self, reference_cfg, reference_joint):
        # same loose parameters; the near-uniformity precondition fails
        # (H(K)/n = 0.315 vs log2|K|/n = 1.369 with beta = 0.001), so the
        # verdicts stay None even though the raw masses clear the floors
        p = derive_params(0.01, 0.001, 2.0)
        report = set_bound_checks(reference_joint.joint_ky, 8, p,
                                  reference_cfg.log2_k_cardinality)
        assert report.p_in_l == pytest.approx(1.0, abs=1e-9)
        assert report.p_in_d == pytest.approx(1.0, abs=1e-9)
        assert report.p_in_l >= report.l_lower_bound
        assert report.p_in_d >= report.d_lower_bound
        assert not report.uniformity_ok
        assert not report.applicable
        assert report.l_holds is None and report.d_holds is None

    def test_tight_parameters_expose_the_small_n_gap(self, reference_cfg, reference_joint):
        # gamma pinned to 0.05 via mu = (gamma/2)^4 * (1 - sqrt(alpha))^2
        mu_target = (0.05 / 2.0) ** 4 * 0.25
        beta = (-1.0 + math.sqrt(1.0 + 4.0 * mu_target)) / 2.0
        p = derive_params(0.25, beta, 0.0)
        assert p.gamma_ab == pytest.approx(0.05, abs=1e-9)
        report = set_bound_checks(reference_joint.joint_ky, 8, p,
                                  reference_cfg.log2_k_cardinality)
        assert report.p_in_l == pytest.approx(70 / 256, abs=1e-12)
        assert report.p_in_d == pytest.approx(0.4052691835937501, abs=1e-12)
        assert report.p_in_l < report.l_lower_bound
        assert report.p_in_d < report.d_lower_bound
        assert report.l_holds is None and report.d_holds is None

    def test_rejects_non_probability_input(self):
        with pytest.raises(ValidationError):
            set_bound_checks(np.array([[0.7, 0.7]]), 4,
                             derive_params(0.1, 0.01, 1.0))

    def test_rejects_complex_gamma(self, reference_joint):
        with pytest.raises(ValidationError):
            set_bound_checks(reference_joint.joint_ky, 8,
                             derive_params(2.0, 0.01, 1.0))


class TestTelescoping:
    def test_identity_on_random_instances(self):
        for t in range(20):
            inst = TelescopingInstance.random(seed=t, n=2 + (t % 2))
            lhs, rhs, gap = telescoping_identity_check(inst)
            assert gap <= 1e-10
            assert lhs == pytest.approx(rhs, abs=1e-10)

    def test_ternary_alphabets(self):
        inst = TelescopingInstance.random(seed=5, n=2, x_card=3, y_card=3)
        _, _, gap = telescoping_identity_check(inst)
        assert gap <= 1e-10

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("cards", [(2, 2, 2, 2), (2, 2, 3, 3), (3, 1, 3, 2), (1, 3, 2, 3)])
    @pytest.mark.parametrize("zeros", [False, True], ids=["dense", "zero-cells"])
    def test_right_side_matches_the_cell_loop(self, n, cards, zeros):
        s_card, r_card, x_card, y_card = cards
        inst = TelescopingInstance.random(seed=10 * n + x_card, n=n, s_card=s_card,
                                          r_card=r_card, x_card=x_card, y_card=y_card)
        joint = inst.joint
        if zeros:
            # a zero X_0 = 0 slice and a third of the other cells
            rng = as_rng(n)
            joint = np.where(rng.random(joint.shape) < 1.0 / 3.0, 0.0, joint)
            joint[:, :, 0] = 0.0
            inst = TelescopingInstance(joint / joint.sum(), n)
        _, rhs, gap = telescoping_identity_check(inst)
        assert gap <= 1e-10
        assert rhs == pytest.approx(telescoping_rhs_reference(inst), abs=1e-13)

    def test_random_is_deterministic(self):
        a = TelescopingInstance.random(seed=9, n=2)
        b = TelescopingInstance.random(seed=9, n=2)
        assert np.array_equal(a.joint, b.joint)

    def test_block_length_cap(self):
        with pytest.raises(ValidationError):
            TelescopingInstance(np.full((2, 2) + (2,) * 10, 1.0 / 2**12), 5)

    def test_alphabet_cap(self):
        shape = (2, 2, 4, 4, 4, 4)
        with pytest.raises(ValidationError):
            TelescopingInstance(np.full(shape, 1.0 / np.prod(shape)), 2)

    def test_axis_shape_mismatch(self):
        shape = (2, 2, 2, 3, 2, 2)
        with pytest.raises(DimensionError):
            TelescopingInstance(np.full(shape, 1.0 / np.prod(shape)), 2)

