"""Command-line front end.

Subcommands: capacity, ucr, simulate, spectrum, lemmas, replay. Every run
writes its result files plus a manifest.json holding the fully resolved
configuration and seed; `replay` re-executes a manifest and reproduces the
result files byte-for-byte. --threads is accepted and validated but has no
effect: every command runs on one thread.

Exit codes: 0 success, 2 validation error, 3 guard/infeasibility,
4 internal invariant violation.
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import fields
from functools import cache
from pathlib import Path

import numpy as np

from . import __version__
from .channelcap import (
    SPECTRUM_DROP_TOL,
    SPECTRUM_GRID_STEP,
    DmcProduct,
    MixedChannel,
    dmc_capacity,
    inf_info_rate_estimate,
    spectrum_samples,
)
from .converselab import (TELESCOPING_TOL, TelescopingInstance, interval_sweep,
                          telescoping_identity_check)
from .errors import (
    GuardError,
    InternalInvariantError,
    UcrlabError,
    ValidationError,
)
from .probspace import Pmf, as_rng, check_seed, subseed
from .protocol import (
    TRIAL_LIMIT,
    ProtocolConfig,
    achievability_targets,
    check_achievability_conditions,
    exact_analyze,
    rate_feasibility,
    run_monte_carlo,
)
from .serialize import (
    SCHEMA_VERSION,
    RunManifest,
    _need,
    aux_from_dict,
    channel_from_dict,
    json_field,
    load_json,
    pmf_from_dict,
    source_from_dict,
    write_csv,
    write_json,
)
from .ucrcap import TimeSharedAux, ucr_capacity_oracle, ucr_curve

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_GUARD = 3
EXIT_INTERNAL = 4

_LEMMA_SEED_KEY = 41


def _achiever_to_dict(achiever) -> dict:
    if isinstance(achiever, TimeSharedAux):
        return {
            "kind": "time_shared",
            "weight": float(achiever.weight),
            "first": _achiever_to_dict(achiever.first),
            "second": _achiever_to_dict(achiever.second),
        }
    return {
        "kind": "matrix",
        "rows": [[float(v) for v in row] for row in achiever.cond.rows],
    }


def _single_letter_kernel(spec: dict, what: str):
    kernel = channel_from_dict(spec)
    if isinstance(kernel, MixedChannel):
        raise ValidationError(
            f"{what} needs a single-letter channel; mixtures are only "
            f"supported by the spectrum command")
    return kernel


# ---------------------------------------------------------------- executors
# Each executor consumes a fully resolved config dict (no file paths) and
# writes its outputs under out_dir, returning {artifact name: relative path}.
# replay calls these directly with a stored config.


def _exec_capacity(config: dict, out_dir: Path) -> dict:
    kernel = _single_letter_kernel(_need(config, "channel", "capacity config"), "capacity")
    res = dmc_capacity(kernel, tol=json_field(config, "tol", "capacity config", float))
    payload = {
        "schema_version": SCHEMA_VERSION,
        "value_bits": float(res.value_bits),
        "lower_bits": float(res.lower_bits),
        "upper_bits": float(res.upper_bits),
        "iterations": int(res.iterations),
        "input_pmf": [float(v) for v in res.input_pmf.probs],
        "diagnostics": {
            "newton_steps": int(res.newton_steps),
            "alternating_steps": int(res.alternating_steps),
            "certificate_bits": float(res.certificate_bits),
        },
    }
    write_json(out_dir / "capacity.json", payload)
    print(f"C = {res.value_bits:.9f} bits "
          f"(bracket [{res.lower_bits:.9f}, {res.upper_bits:.9f}], "
          f"{res.iterations} iterations: {res.newton_steps} Newton, "
          f"{res.alternating_steps} alternating)")
    print("optimal input: " + ", ".join(f"{v:.6f}" for v in res.input_pmf.probs))
    return {"capacity": "capacity.json"}


def _exec_ucr(config: dict, out_dir: Path) -> dict:
    source = source_from_dict(_need(config, "source", "ucr config"))
    seed = check_seed(_need(config, "seed", "ucr config"))
    # a null u_card is the default alphabet, and a null grid no curve
    u_card = None if config.get("u_card") is None else json_field(
        config, "u_card", "ucr config", int)

    if config.get("channel") is not None:
        cap = dmc_capacity(_single_letter_kernel(config["channel"], "ucr"))
        c_bits = float(cap.value_bits)
        print(f"channel capacity C = {c_bits:.9f} bits")
    else:
        c_bits = json_field(config, "c_bits", "ucr config", float)

    # the budget and the curve's budgets off one search
    grid = [] if config.get("grid") is None else json_field(
        config, "grid", "ucr config", list[float])
    if json_field(config, "oracle", "ucr config", bool, False):
        grid_step = json_field(config, "grid_step", "ucr config", float)
        points = [(c, ucr_capacity_oracle(source, c, u_card, grid_step=grid_step, seed=seed))
                  for c in [c_bits] + grid]
    else:
        points = ucr_curve(source, [c_bits] + grid, u_card)
    sol = points[0][1]
    payload = {
        "schema_version": SCHEMA_VERSION,
        "c_bits": c_bits,
        "value_bits": float(sol.value_bits),
        "constraint_slack": float(sol.constraint_slack),
        "method": sol.method,
        "achiever": _achiever_to_dict(sol.achiever),
    }
    write_json(out_dir / "ucr.json", payload)
    outputs = {"ucr": "ucr.json"}
    print(f"UCR capacity at C = {c_bits:.6f}: {sol.value_bits:.9f} bits "
          f"({sol.method}, slack {sol.constraint_slack:.3e})")

    if grid:
        budgets, sols = zip(*points[1:])
        write_csv(out_dir / "ucr_curve.csv",
                  ["c_bits", "value_bits", "constraint_slack", "method"],
                  [budgets, [s.value_bits for s in sols],
                   [s.constraint_slack for s in sols], [s.method for s in sols]])
        outputs["curve"] = "ucr_curve.csv"
        print(f"curve with {len(grid)} budgets -> ucr_curve.csv")
    return outputs


def _exec_simulate(config: dict, out_dir: Path) -> dict:
    desc = _need(config, "descriptor", "simulate config")
    source = source_from_dict(_need(desc, "source", "descriptor"))
    aux = aux_from_dict(_need(desc, "aux", "descriptor"), source.nx)
    cfg = ProtocolConfig(
        n=json_field(desc, "n", "descriptor", int),
        mu=json_field(desc, "mu", "descriptor", float),
        theta=json_field(desc, "theta", "descriptor", float),
        eps_typ=json_field(desc, "eps_typ", "descriptor", float),
        aux=aux,
        source=source,
        seed=check_seed(desc.get("seed", 0)),
        allow_degenerate_rate=json_field(desc, "allow_degenerate_rate", "descriptor", bool,
                                         False),
    )
    given = desc.get("conditions", {})
    # epsilon has no default: absent, the entropy remark is left out
    targets = achievability_targets(cfg, lambda name, default: (
        json_field(given, name, "conditions", float, default)
        if default is not None or name in given else None))
    unknown = sorted(set(given) - set(targets))
    if unknown:
        raise ValidationError(f"conditions: unknown key(s) {', '.join(map(repr, unknown))}; "
                              f"the targets are {', '.join(targets)}")
    # the index channel and mu' are checked before the run, so a bad one leaves no file
    mu_prime = json_field(desc, "mu_prime", "descriptor", float, 0.0)
    if mu_prime < 0.0:
        raise ValidationError(f"descriptor: mu_prime must be >= 0, got {mu_prime}")
    rc = None if "index_channel" not in desc else rate_feasibility(
        cfg, _single_letter_kernel(desc["index_channel"], "rate check"), mu_prime)
    summary: dict = {
        "schema_version": SCHEMA_VERSION,
        "n": cfg.n,
        "n1": int(cfg.n1),
        "n2": int(cfg.n2),
        "log2_k_cardinality": float(cfg.log2_k_cardinality),
        "cardinality_bound_log2": float(cfg.cardinality_bound_log2),
        "cardinality_ok": bool(cfg.cardinality_ok),
        "theta": cfg.theta,
        "seed": cfg.seed,
    }
    outputs = {"summary": "simulate.json"}
    # why the key came out as it did: its rate against the target, and for
    # Monte Carlo how often the encoder fell back to the reserved word
    diagnostics: dict = {}

    if json_field(config, "exact", "simulate config", bool, False):
        res = exact_analyze(cfg, include_joint=False)
        summary["mode"] = "exact"
        print(f"exact: P[K != L] = {res.p_disagree:.9f}, "
              f"H(K) = {res.entropy_k_bits:.6f} bits, "
              f"H(K|Y^n) = {res.entropy_k_given_y_bits:.6f} bits")
    else:
        trials = json_field(config, "trials", "simulate config", int)
        res = run_monte_carlo(cfg, trials)
        summary["mode"] = "monte_carlo"
        diagnostics["encoder_fallback_fraction"] = (
            res.event_counts["encoder_fallback"] / trials)
        outs = res.outcomes
        write_csv(out_dir / "trials.csv",
                  ["trial", "i_sent", "i_received", "k_is_fallback", "agreed"],
                  [outs.trial, outs.index_sent, outs.index_received, outs.k_row == 0,
                   outs.agreed])
        outputs["trials"] = "trials.csv"
        print(f"{res.engine} engine, {trials} trials: "
              f"P[K != L] = {res.p_disagree:.6f}, "
              f"events {res.event_counts}")

    # the measured numbers, each under its result field's name; the
    # config's keys above say what was run, and no name is in both
    summary.update((f.name, getattr(res, f.name)) for f in fields(res)
                   if f.name not in ("joint_ky", "outcomes"))
    diagnostics["rate_bits"] = float(res.entropy_k_bits / cfg.n)
    diagnostics["target_rate_bits"] = float(cfg.i_ux)
    summary["diagnostics"] = diagnostics
    report = summary["conditions"] = check_achievability_conditions(cfg, res, targets)

    if rc is not None:
        summary["rate_check"] = rc
        print("index rate %.6f bits/symbol vs C - mu' = %.6f: %s"
              % (rc["index_rate_bits"], rc["capacity_bits"] - rc["mu_prime"],
                 "ok" if rc["ok"] else "INFEASIBLE"))

    write_json(out_dir / "simulate.json", summary)
    verdict = "pass" if report["all_hold"] else "fail"
    print(f"conditions: {verdict} "
          f"({sum(c['holds'] for c in report['conditions'])}/4 hold)")
    return outputs


def _exec_spectrum(config: dict, out_dir: Path) -> dict:
    kernel = channel_from_dict(_need(config, "channel", "spectrum config"))
    if not isinstance(kernel, MixedChannel):
        kernel = DmcProduct(kernel)
    if config.get("input") is not None:
        input_pmf = pmf_from_dict(config["input"])
    else:
        input_pmf = Pmf(np.full(kernel.n_in, 1.0 / kernel.n_in))
    ns = json_field(config, "ns", "spectrum config", list[int])
    if not ns or sorted(set(ns)) != ns:
        raise ValidationError(f"block lengths must be strictly increasing integers, got {ns!r}")
    samples = json_field(config, "samples", "spectrum config", int)
    if samples > TRIAL_LIMIT:  # the bound on a Monte Carlo run's trials
        raise ValidationError(f"samples must be at most 2**32, got {samples}")
    seed = check_seed(_need(config, "seed", "spectrum config"))

    estimates = []
    per_n = []
    for n in ns:
        est = spectrum_samples(kernel, input_pmf, n, samples, seed)
        estimates.append(est)
        per_n.append({
            "n": n,
            "num_samples": est.num_samples,
            "mean_bits": float(est.mean()),
            "std_bits": float(est.std()),
            "min_bits": float(est.values_bits[0]),
            "max_bits": float(est.values_bits[-1]),
        })
        print(f"n = {n}: mean {est.mean():.6f} bits, std {est.std():.6f}")
    write_csv(out_dir / "spectrum.csv", ["n", "sample", "density_bits"],
              [np.concatenate([np.full(e.num_samples, n) for n, e in zip(ns, estimates)]),
               np.concatenate([np.arange(e.num_samples) for e in estimates]),
               np.concatenate([e.values_bits for e in estimates])])

    payload = {
        "schema_version": SCHEMA_VERSION,
        "samples_per_n": samples,
        "seed": seed,
        "per_n": per_n,
    }
    if len(estimates) >= 2:
        rate = inf_info_rate_estimate(estimates)
        payload["inf_info_rate"] = {
            "value_bits": float(rate.value_bits),
            "conclusive": bool(rate.conclusive),
            "drop_tol": SPECTRUM_DROP_TOL,
            "grid_step": SPECTRUM_GRID_STEP,
        }
        print(f"inf-information rate estimate: {rate.value_bits:.6f} bits "
              f"({'conclusive' if rate.conclusive else 'inconclusive'})")
    else:
        payload["inf_info_rate"] = None
    write_json(out_dir / "spectrum.json", payload)
    return {"samples": "spectrum.csv", "summary": "spectrum.json"}


def _exec_lemmas(config: dict, out_dir: Path) -> dict:
    seed = check_seed(_need(config, "seed", "lemmas config"))
    interval_target = json_field(config, "interval_draws", "lemmas config", int)
    telescope_target = json_field(config, "telescoping_instances", "lemmas config", int)
    # a sweep over no draws would report "all_pass" vacuously, and counts are
    # bounded as a Monte Carlo run's trials are; a replayed manifest is held to both
    if not (1 <= interval_target <= TRIAL_LIMIT and 1 <= telescope_target <= TRIAL_LIMIT):
        raise ValidationError(
            f"lemmas needs interval_draws and telescoping_instances in [1, 2**32], "
            f"got {interval_target} and {telescope_target}")

    # The box holds the whole valid region. With r = sqrt(mu)(1 - sqrt(alpha)),
    # kappa < 1/2 forces (1 - r)^2 > alpha + 1/2, so alpha < 1/2 and
    # sqrt(mu) < (1 - sqrt(alpha + 1/2)) / (1 - sqrt(alpha)) <= 1/3 (the
    # maximum is at alpha = 1/16); beta < mu < 1/9. Draws stay uniform
    # over the valid region, and far fewer are rejected.
    sweep = interval_sweep(as_rng(subseed(seed, _LEMMA_SEED_KEY)), interval_target,
                           ((1e-6, 0.5), (1e-9, 1.0 / 9.0), (0.0, 4.0)))
    valid = len(sweep.draws)
    passes = sweep.passes

    worst_gap = 0.0
    for t in range(telescope_target):
        inst = TelescopingInstance.random(
            subseed(seed, _LEMMA_SEED_KEY, 1, t), n=2 + (t % 2))
        _, _, gap = telescoping_identity_check(inst)
        worst_gap = max(worst_gap, gap)

    payload = {
        "schema_version": SCHEMA_VERSION,
        "seed": seed,
        "interval": {
            "valid_draws": valid,
            "passes": passes,
            "all_pass": bool(passes == valid),
        },
        "telescoping": {
            "instances": telescope_target,
            "max_gap": float(worst_gap),
            "tolerance": TELESCOPING_TOL,
        },
    }
    write_json(out_dir / "lemmas.json", payload)
    print(f"interval chain: {passes}/{valid} valid draws pass")
    print(f"telescoping: max gap {worst_gap:.3e} over {telescope_target} instances")
    return {"report": "lemmas.json"}


_EXECUTORS = {
    "capacity": _exec_capacity,
    "ucr": _exec_ucr,
    "simulate": _exec_simulate,
    "spectrum": _exec_spectrum,
    "lemmas": _exec_lemmas,
}


# ---------------------------------------------------------------- dispatch


def _run(command: str, config: dict, seed: int, args) -> None:
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    t0 = time.perf_counter()
    outputs = _EXECUTORS[command](config, out_dir)
    manifest = RunManifest(
        command=command,
        config=config,
        seed=seed,
        outputs=outputs,
        duration_seconds=time.perf_counter() - t0,
    )
    manifest.write(out_dir / "manifest.json")
    # --format echoes the run's document of that kind, if it wrote one
    for rel in outputs.values():
        if args.format is not None and rel.endswith("." + args.format):
            print((out_dir / rel).read_text(encoding="utf-8"), end="")


def cmd_capacity(args) -> None:
    config = {"channel": load_json(args.channel), "tol": args.tol}
    _run("capacity", config, seed=0, args=args)


def cmd_ucr(args) -> None:
    seed = args.seed if args.seed is not None else 0
    config = {
        "source": load_json(args.source),
        "c_bits": args.C,
        "channel": load_json(args.channel) if args.channel else None,
        "u_card": args.u_card,
        "oracle": bool(args.oracle),
        "grid_step": args.grid_step,
        "grid": args.grid,
        "seed": seed,
    }
    _run("ucr", config, seed=seed, args=args)


def cmd_simulate(args) -> None:
    desc = load_json(args.descriptor)
    if args.seed is not None:
        desc["seed"] = args.seed
    if args.trials is not None:
        desc["trials"] = args.trials
    if "trials" not in desc and not args.exact:
        raise ValidationError(
            "descriptor has no trial count; add \"trials\" or pass --trials/--exact")
    config = {
        "descriptor": desc,
        "exact": bool(args.exact),
        "trials": json_field(desc, "trials", "descriptor", int, 0),
    }
    _run("simulate", config, seed=check_seed(desc.get("seed", 0)), args=args)


def cmd_spectrum(args) -> None:
    seed = args.seed if args.seed is not None else 0
    config = {
        "channel": load_json(args.channel),
        "input": load_json(args.input) if args.input else None,
        "ns": args.n,
        "samples": args.samples,
        "seed": seed,
    }
    _run("spectrum", config, seed=seed, args=args)


def cmd_lemmas(args) -> None:
    seed = args.seed if args.seed is not None else 0
    config = {
        "interval_draws": args.instances,
        "telescoping_instances": args.telescoping,
        "seed": seed,
    }
    _run("lemmas", config, seed=seed, args=args)


def cmd_replay(args) -> None:
    manifest = RunManifest.load(args.manifest)
    if manifest.command not in _EXECUTORS:
        raise ValidationError(f"manifest names unknown command {manifest.command!r}")
    _run(manifest.command, manifest.config, seed=manifest.seed, args=args)


def _positive_int(text: str) -> int:
    """argparse type for counts that must be at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _comma_list(kind):
    """argparse type for a comma-separated list of kind (int or float)."""
    def parse(text: str) -> list:
        try:
            return [kind(v) for v in text.split(",")]
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected comma-separated {kind.__name__}s, got {text!r}") from None
    return parse


def _seed(text: str) -> int:
    """argparse type for a master seed, an integer in [0, 2**64)."""
    try:
        return check_seed(int(text))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    except ValidationError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


@cache
def build_parser() -> argparse.ArgumentParser:
    """The command line's parser, built once per process: parsing leaves
    it as it was, so every main call shares it."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=_seed, default=None,
                        help="master seed (64-bit unsigned); command default otherwise")
    common.add_argument("--out-dir", default="runs/latest",
                        help="directory for result files and the manifest")
    common.add_argument("--format", choices=("json", "csv"), default=None,
                        help="additionally echo the result document to stdout")
    common.add_argument("--threads", type=_positive_int, default=1,
                        help="kept for compatibility; no effect, every command runs "
                             "on one thread")

    parser = argparse.ArgumentParser(
        prog="ucrlab",
        description="uniform common randomness: capacity, spectrum, protocol, lemma checks")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("capacity", parents=[common],
                       help="channel capacity of a DMC spec")
    p.add_argument("channel", help="channel spec JSON file")
    p.add_argument("--tol", type=float, default=1e-9,
                   help="bracket width at which the iteration stops")
    p.set_defaults(func=cmd_capacity)

    p = sub.add_parser("ucr", parents=[common],
                       help="uniform common randomness capacity of a source")
    p.add_argument("source", help="source spec JSON file")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--C", type=float, default=None,
                       help="communication budget in bits/symbol")
    group.add_argument("--channel", default=None,
                       help="channel spec JSON; budget becomes its capacity")
    p.add_argument("--u-card", type=int, default=None,
                   help="auxiliary alphabet size (default |X|+1)")
    p.add_argument("--oracle", action="store_true",
                   help="brute-force grid reference instead of the fast solver")
    p.add_argument("--grid-step", type=float, default=0.02,
                   help="simplex grid step for --oracle, 1/m for an integer m")
    p.add_argument("--grid", type=_comma_list(float), default=None,
                   help="comma-separated budgets for a CSV curve")
    p.set_defaults(func=cmd_ucr)

    p = sub.add_parser("simulate", parents=[common],
                       help="run the codebook protocol on a descriptor")
    p.add_argument("descriptor", help="run descriptor JSON file")
    p.add_argument("--exact", action="store_true",
                   help="exact enumeration instead of Monte Carlo (small n)")
    p.add_argument("--trials", type=int, default=None,
                   help="override the descriptor's trial count")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("spectrum", parents=[common],
                       help="information-density spectrum of a channel")
    p.add_argument("channel", help="channel spec JSON file")
    p.add_argument("--input", default=None,
                   help="input pmf JSON file (default uniform)")
    p.add_argument("--n", type=_comma_list(int), default="250,1000",
                   help="comma-separated block lengths")
    p.add_argument("--samples", type=int, default=10_000,
                   help="samples per block length")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("lemmas", parents=[common],
                       help="property sweeps for the converse-side lemmas")
    p.add_argument("--instances", type=_positive_int, default=10_000,
                   help="valid parameter draws for the interval chain")
    p.add_argument("--telescoping", type=_positive_int, default=50,
                   help="random telescoping instances")
    p.set_defaults(func=cmd_lemmas)

    p = sub.add_parser("replay", parents=[common],
                       help="re-execute a manifest byte-identically")
    p.add_argument("manifest", help="manifest.json from a previous run")
    p.set_defaults(func=cmd_replay)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.func(args)
        return EXIT_OK
    except InternalInvariantError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except GuardError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except UcrlabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
