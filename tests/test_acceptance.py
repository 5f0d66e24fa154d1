"""Acceptance gate: eleven numbered end-to-end checks, one report line each.

Every test prints (and registers for the terminal summary) a single line
    [criterion NN] PASS|FAIL  <measured quantities> (<elapsed>, budget <s>)
and fails the run when a tolerance or a runtime budget is exceeded.
"""

import functools
import json
import math
import time
from pathlib import Path

import numpy as np

from conftest import record_acceptance
from support import (
    bsc_family,
    bsc_family_curve,
    diagonal_source,
    dsbs,
    erasure_family,
    erasure_family_curve,
    h2,
    independent_source,
    random_joint,
)
from ucrlab.channelcap import (
    DmcProduct,
    MixedChannel,
    bec,
    bsc,
    dmc_capacity,
    inf_info_rate_estimate,
    spectrum_samples,
)
from ucrlab.cli import EXIT_OK
from ucrlab.cli import main as cli_main
from ucrlab.converselab import (
    TelescopingInstance,
    interval_sweep,
    telescoping_identity_check,
)
from ucrlab.probspace import (
    Pmf,
    as_rng,
    conditional_entropy_x_given_y,
    entropy,
    subseed,
)
from ucrlab.protocol import ProtocolConfig, exact_analyze, run_monte_carlo
from ucrlab.ucrcap import (
    AuxiliaryChannel,
    ucr_capacity_oracle,
    ucr_capacity_solve,
    ucr_curve,
)

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def criterion(num: int, budget_s: float | None):
    """Wrap one criterion: time it, report one line, enforce the budget."""
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                detail = fn(*args, **kwargs)
            except BaseException as exc:
                elapsed = time.perf_counter() - t0
                line = (f"[criterion {num:02d}] FAIL  "
                        f"{type(exc).__name__}: {exc} ({elapsed:.1f}s)")
                record_acceptance(line)
                print(line)
                raise
            elapsed = time.perf_counter() - t0
            in_budget = budget_s is None or elapsed <= budget_s
            budget_txt = "no budget" if budget_s is None else f"budget {budget_s:.0f}s"
            line = (f"[criterion {num:02d}] {'PASS' if in_budget else 'FAIL'}  "
                    f"{detail} ({elapsed:.1f}s, {budget_txt})")
            record_acceptance(line)
            print(line)
            assert in_budget, f"runtime {elapsed:.1f}s over the {budget_s:.0f}s budget"
        return run
    return wrap


def random_source_with_noise(rng, nx: int, ny: int, min_h_cond: float):
    """Random joint law resampled until H(X|Y) clears the floor."""
    while True:
        src = random_joint(rng, nx, ny)
        if conditional_entropy_x_given_y(src) >= min_h_cond:
            return src


@criterion(1, budget_s=1.0)
def test_criterion_01_capacity_goldens():
    worst = 0.0
    for p in (0.0, 0.05, 0.11, 0.25, 0.5):
        got = dmc_capacity(bsc(p), tol=1e-9).value_bits
        worst = max(worst, abs(got - (1.0 - h2(p))))
    for e in (0.0, 0.3, 1.0):
        got = dmc_capacity(bec(e), tol=1e-9).value_bits
        worst = max(worst, abs(got - (1.0 - e)))
    assert worst <= 1e-6
    return f"8 channel goldens, max |error| = {worst:.2e} <= 1e-6"


@criterion(2, budget_s=10.0)
def test_criterion_02_budget_endpoints():
    rng = as_rng(20260815)
    worst_high = 0.0
    worst_margin = math.inf
    for _ in range(10):
        src = random_source_with_noise(rng, 2, 2, min_h_cond=0.06)
        h_x = entropy(src.marginal_x())
        h_cond = conditional_entropy_x_given_y(src)
        above = ucr_capacity_solve(src, h_cond + 0.01)
        worst_high = max(worst_high, abs(above.value_bits - h_x))
        below = ucr_capacity_solve(src, h_cond - 0.05)
        worst_margin = min(worst_margin, h_x - below.value_bits)
    assert worst_high <= 1e-6
    assert worst_margin > 1e-4
    return (f"10 sources: |value - H(X)| <= {worst_high:.2e} above the knee, "
            f"min shortfall {worst_margin:.4f} > 1e-4 below it")


@criterion(3, budget_s=600.0)
def test_criterion_03_solver_oracle_equivalence():
    rng = as_rng(3033)
    worst = 0.0
    cases = [(2, 2, 3)] * 20 + [(3, 3, 2)] * 10
    for nx, ny, u_card in cases:
        src = random_source_with_noise(rng, nx, ny, min_h_cond=0.02)
        c_bits = float(rng.uniform(0.0, conditional_entropy_x_given_y(src)))
        solved = ucr_capacity_solve(src, c_bits, u_card)
        oracle = ucr_capacity_oracle(src, c_bits, u_card, grid_step=0.02)
        worst = max(worst, abs(solved.value_bits - oracle.value_bits))
    assert worst <= 5e-3
    return f"30 random sources, max |solve - oracle| = {worst:.2e} <= 5e-3"


@criterion(4, budget_s=None)
def test_criterion_04_special_structure():
    for c, sol in ucr_curve(diagonal_source(), [0.0, 0.3, 0.7, 1.2]):
        assert abs(sol.value_bits - 1.0) <= 1e-12, f"X = Y at C = {c}"
    src = independent_source([0.5, 0.5], [0.4, 0.6])
    worst = 0.0
    for c, sol in ucr_curve(src, [0.1 * k for k in range(13)]):
        worst = max(worst, abs(sol.value_bits - min(1.0, c)))
    assert worst <= 5e-3
    collapsed = ucr_capacity_solve(dsbs(0.1), 0.0).value_bits
    assert collapsed <= 0.01
    return (f"X = Y exact; X indep Y off by <= {worst:.2e}; "
            f"DSBS(0.1) at C = 0 gives {collapsed:.2e} <= 0.01")


@criterion(5, budget_s=30.0)
def test_criterion_05_telescoping_identity():
    worst = 0.0
    for t in range(50):
        inst = TelescopingInstance.random(subseed(77, t), n=2 + (t % 2))
        _, _, gap = telescoping_identity_check(inst)
        worst = max(worst, gap)
    assert worst <= 1e-10
    return f"50 instances, max |lhs - rhs| = {worst:.2e} <= 1e-10"


@criterion(6, budget_s=None)
def test_criterion_06_interval_lemma_sweep():
    """The interval chain on 10,000 valid parameter draws.

    The chain collapses algebraically: 4 mu / gamma^2 equals
    sqrt(mu_beta)(1 - sqrt(alpha)), below 1 - sqrt(alpha) whenever
    mu_beta < 1. So every valid draw satisfies it, and the sweep checks
    the floating-point evaluation of the constants, not the converse.
    """
    sweep = interval_sweep(as_rng(606), 10**4,
                           ((1e-6, 1.0 - 1e-6), (1e-9, 0.5), (0.0, 4.0)))
    assert sweep.attempts < 10**6, "sampler failed to reach the valid region"
    valid = len(sweep.draws)
    passes = sweep.passes
    assert passes == valid == 10**4
    return f"{passes}/{valid} valid parameter draws satisfy the interval chain"


@criterion(7, budget_s=120.0)
def test_criterion_07_protocol_exact_oracle():
    cfg = ProtocolConfig(n=8, mu=0.3, theta=0.0, eps_typ=0.15,
                         aux=AuxiliaryChannel.identity(2), source=dsbs(0.1),
                         seed=0, allow_degenerate_rate=True)
    res = exact_analyze(cfg, include_joint=False)
    assert abs(res.p_disagree - 70 / 256) <= 1e-12
    assert abs(res.entropy_k_bits - 2.5223299263043213) <= 1e-9
    assert abs(res.entropy_k_given_y_bits - 1.3308369040324166) <= 1e-9
    mc = run_monte_carlo(cfg, 10**5, keep_outcomes=False)
    se = math.sqrt(res.p_disagree * (1.0 - res.p_disagree) / 10**5)
    z = (mc.p_disagree - res.p_disagree) / se
    assert abs(z) <= 3.0
    return (f"frozen triple reproduced; Monte Carlo z = {z:+.2f} "
            f"within 3 binomial SE")


@criterion(8, budget_s=600.0)
def test_criterion_08_desk_scale_achievability():
    cfg = ProtocolConfig(n=1000, mu=0.1, theta=0.01, eps_typ=0.15,
                         aux=AuxiliaryChannel.identity(2), source=dsbs(0.05),
                         seed=11)
    mc = run_monte_carlo(cfg, 2000, keep_outcomes=False)
    assert mc.p_disagree <= 0.1
    assert cfg.cardinality_ok
    assert cfg.log2_k_cardinality <= cfg.n * (cfg.i_ux + cfg.mu + 1.0) + 1e-9
    return (f"P[K != L] = {mc.p_disagree:.4f} <= 0.1; "
            f"log2|K| = {cfg.log2_k_cardinality:.1f} <= "
            f"{cfg.cardinality_bound_log2:.1f}")


@criterion(9, budget_s=300.0)
def test_criterion_09_spectrum_properties():
    uniform = Pmf(np.array([0.5, 0.5]))
    clean = DmcProduct(bsc(0.1))
    sp250 = spectrum_samples(clean, uniform, 250, 10**4, seed=2026)
    sp1000 = spectrum_samples(clean, uniform, 1000, 10**4, seed=2026)
    mean_err = abs(sp1000.mean() - (1.0 - h2(0.1)))
    ratio = sp1000.std() / sp250.std()
    assert mean_err <= 0.01
    assert 0.35 <= ratio <= 0.65
    mixed = MixedChannel(((0.5, DmcProduct(bsc(0.0))),
                          (0.5, DmcProduct(bsc(0.5)))))
    mp250 = spectrum_samples(mixed, uniform, 250, 10**4, seed=2026)
    mp500 = spectrum_samples(mixed, uniform, 500, 10**4, seed=2026)
    mass = mp500.mass_below(0.1)
    assert 0.4 <= mass <= 0.6
    rate = inf_info_rate_estimate([mp250, mp500]).value_bits
    assert rate <= 0.05
    return (f"mean err {mean_err:.4f} <= 0.01, std ratio {ratio:.3f} in "
            f"[0.35, 0.65]; mixed mass {mass:.3f} in [0.4, 0.6], "
            f"rate estimate {rate:.3f} <= 0.05")


@criterion(10, budget_s=None)
def test_criterion_10_manifest_replay(tmp_path):
    runs = [
        ("capacity", ["capacity", str(CONFIGS / "bsc011.json")]),
        ("spectrum", ["spectrum", str(CONFIGS / "mixed_half.json"),
                      "--n", "8,16", "--samples", "32"]),
        ("simulate", ["simulate", str(CONFIGS / "protocol_small.json"),
                      "--trials", "64"]),
    ]
    compared = 0
    for name, argv in runs:
        first = tmp_path / name / "first"
        assert cli_main(argv + ["--out-dir", str(first)]) == EXIT_OK
        manifest = first / "manifest.json"
        outputs = json.loads(manifest.read_text())["outputs"]
        baseline = {rel: (first / rel).read_bytes() for rel in outputs.values()}
        for tag, threads in (("r1", "1"), ("r2", "1"), ("r4", "4")):
            out = tmp_path / name / tag
            assert cli_main(["replay", str(manifest), "--out-dir", str(out),
                             "--threads", threads]) == EXIT_OK
            got = {rel: (out / rel).read_bytes() for rel in outputs.values()}
            assert got == baseline, f"{name} replay {tag} diverged"
            compared += len(got)
    return (f"3 commands x 3 replays (threads 1 and 4): "
            f"{compared} output files byte-identical")


# (P[X = 1], crossover) of the BSC family, and (P_X, erasure probability)
BSC_FAMILY = [(0.5, 0.05), (0.5, 0.1), (0.5, 0.25), (0.3, 0.1), (0.2, 0.02),
              (0.1, 0.3), (0.45, 0.15), (0.3, 0.3)]
ERASURE_FAMILY = [([0.5, 0.5], 0.3), ([0.8, 0.2], 0.5), ([0.5, 0.3, 0.2], 0.4)]


@criterion(11, budget_s=120.0)
def test_criterion_11_closed_form_curves():
    # one-sided: no solver or oracle value may exceed the exact curve; how
    # far the solver falls short is reported, not gated
    cases = []
    for q, p in BSC_FAMILY:
        cases += [(bsc_family(q, p), u_card, 0.02, functools.partial(bsc_family_curve, q, p))
                  for u_card in (2, 3)]
    for px, e in ERASURE_FAMILY:
        cases.append((erasure_family(px, e), None, 0.02 if len(px) == 2 else 0.05,
                      functools.partial(erasure_family_curve, px, e)))
    over = 0.0
    misses = []
    for src, u_card, step, exact in cases:
        h_cond = conditional_entropy_x_given_y(src)
        grid = [h_cond * k / 24 for k in range(24)]
        for c, sol in ucr_curve(src, grid, u_card):
            over = max(over, sol.value_bits - exact(c))
            misses.append(exact(c) - sol.value_bits)
        for c in grid[::6]:
            oracle = ucr_capacity_oracle(src, c, u_card or 2, grid_step=step)
            over = max(over, oracle.value_bits - exact(c))
    assert over <= 1e-12
    return (f"{len(BSC_FAMILY)} BSC-family sources at |U| = 2 and 3, "
            f"{len(ERASURE_FAMILY)} erasure sources, 24 budgets each: solver and oracle "
            f"exceed the exact curve by at most {over:.1e} <= 1e-12; "
            f"solver miss worst {max(misses):.2e}, mean {np.mean(misses):.2e}")
