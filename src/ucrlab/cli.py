"""Command-line front end.

Subcommands: capacity, ucr, simulate, spectrum, lemmas, replay. Every run
writes its result files plus a manifest.json holding the fully resolved
configuration and seed; `replay` re-executes a manifest and reproduces the
result files byte-for-byte, independent of thread count.

Exit codes: 0 success, 2 validation error, 3 guard/infeasibility,
4 internal invariant violation.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .channelcap import (
    DmcProduct,
    MixedChannel,
    dmc_capacity,
    inf_info_rate_estimate,
    spectrum_samples,
)
from .converselab import (
    TelescopingInstance,
    derive_params,
    interval_lemma_check,
    set_bound_checks,
    telescoping_identity_check,
    variance_bound_check,
)
from .errors import (
    GuardError,
    InternalInvariantError,
    UcrlabError,
    ValidationError,
)
from .probspace import Pmf, as_rng, subseed
from .protocol import (
    AchievabilityParams,
    ProtocolConfig,
    check_achievability_conditions,
    exact_analyze,
    rate_feasibility,
    run_monte_carlo,
)
from .serialize import (
    SCHEMA_VERSION,
    RunManifest,
    aux_from_dict,
    channel_from_dict,
    load_json,
    pmf_from_dict,
    source_from_dict,
    write_csv,
    write_json,
)
from .ucrcap import TimeSharedAux, ucr_capacity_oracle, ucr_capacity_solve, ucr_curve

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


def _exec_capacity(config: dict, out_dir: Path, threads: int, fmt: str | None) -> dict:
    kernel = _single_letter_kernel(config["channel"], "capacity")
    res = dmc_capacity(kernel, tol=float(config["tol"]))
    payload = {
        "schema_version": SCHEMA_VERSION,
        "value_bits": float(res.value_bits),
        "lower_bits": float(res.lower_bits),
        "upper_bits": float(res.upper_bits),
        "iterations": int(res.iterations),
        "input_pmf": [float(v) for v in res.input_pmf.probs],
    }
    write_json(out_dir / "capacity.json", payload)
    print(f"C = {res.value_bits:.9f} bits "
          f"(bracket [{res.lower_bits:.9f}, {res.upper_bits:.9f}], "
          f"{res.iterations} iterations)")
    print("optimal input: " + ", ".join(f"{v:.6f}" for v in res.input_pmf.probs))
    if fmt == "json":
        print(_json_text(payload), end="")
    return {"capacity": "capacity.json"}


def _exec_ucr(config: dict, out_dir: Path, threads: int, fmt: str | None) -> dict:
    source = source_from_dict(config["source"])
    seed = int(config["seed"])
    u_card = config.get("u_card")
    u_card = int(u_card) if u_card is not None else None

    if config.get("channel") is not None:
        cap = dmc_capacity(_single_letter_kernel(config["channel"], "ucr"))
        c_bits = float(cap.value_bits)
        print(f"channel capacity C = {c_bits:.9f} bits")
    else:
        c_bits = float(config["c_bits"])

    if config.get("oracle"):
        sol = ucr_capacity_oracle(source, c_bits, u_card,
                                  grid_step=float(config["grid_step"]), seed=seed)
    else:
        sol = ucr_capacity_solve(source, c_bits, u_card, seed=seed)
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

    grid = config.get("grid")
    if grid:
        grid = [float(g) for g in grid]
        if config.get("oracle"):
            points = [(g, ucr_capacity_oracle(
                source, g, u_card, grid_step=float(config["grid_step"]),
                seed=seed)) for g in grid]
        else:
            points = ucr_curve(source, grid, u_card, seed=seed)
        write_csv(out_dir / "ucr_curve.csv",
                  ["c_bits", "value_bits", "constraint_slack", "method"],
                  [(g, s.value_bits, s.constraint_slack, s.method)
                   for g, s in points])
        outputs["curve"] = "ucr_curve.csv"
        print(f"curve with {len(grid)} budgets -> ucr_curve.csv")
        if fmt == "csv":
            print((out_dir / "ucr_curve.csv").read_text(encoding="utf-8"), end="")
    if fmt == "json":
        print(_json_text(payload), end="")
    return outputs


def _conditions_from(desc: dict, cfg: ProtocolConfig) -> AchievabilityParams:
    given = desc.get("conditions", {})
    return AchievabilityParams(
        alpha=float(given.get("alpha", 0.1)),
        c=float(given.get("c", cfg.i_ux + cfg.mu + 1.0)),
        beta=float(given.get("beta", 1.5)),
        delta=float(given.get("delta", 1.0)),
        h_target=float(given.get("h_target", cfg.i_ux)),
        epsilon=(float(given["epsilon"]) if "epsilon" in given else None),
    )


def _report_to_dict(report) -> dict:
    out = {
        "all_hold": bool(report.all_hold),
        "theta_pairing_ok": bool(report.theta_pairing_ok),
        "conditions": [
            {"name": c.name, "holds": bool(c.holds), "margin": float(c.margin)}
            for c in report.conditions
        ],
    }
    if report.remark is not None:
        out["remark"] = {
            "name": report.remark.name,
            "holds": bool(report.remark.holds),
            "margin": float(report.remark.margin),
        }
    return out


def _exec_simulate(config: dict, out_dir: Path, threads: int, fmt: str | None) -> dict:
    desc = config["descriptor"]
    source = source_from_dict(desc["source"])
    aux = aux_from_dict(desc["aux"], source.nx)
    cfg = ProtocolConfig(
        n=int(desc["n"]),
        mu=float(desc["mu"]),
        theta=float(desc["theta"]),
        eps_typ=float(desc["eps_typ"]),
        aux=aux,
        source=source,
        seed=int(desc.get("seed", 0)),
        allow_degenerate_rate=bool(desc.get("allow_degenerate_rate", False)),
    )
    params = _conditions_from(desc, cfg)
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

    if config.get("exact"):
        res = exact_analyze(cfg)
        summary["mode"] = "exact"
        summary["p_disagree"] = float(res.p_disagree)
        summary["entropy_k_bits"] = float(res.entropy_k_bits)
        summary["entropy_k_given_y_bits"] = float(res.entropy_k_given_y_bits)
        summary["entropy_l_bits"] = float(res.entropy_l_bits)
        summary["uniformity_gap_bits"] = float(res.uniformity_gap_bits)
        summary["claim_rate_bits"] = float(res.claim_rate_bits)
        print(f"exact: P[K != L] = {res.p_disagree:.9f}, "
              f"H(K) = {res.entropy_k_bits:.6f} bits, "
              f"H(K|Y^n) = {res.entropy_k_given_y_bits:.6f} bits")
    else:
        trials = int(config["trials"])
        res = run_monte_carlo(cfg, trials, threads=threads)
        summary["mode"] = "monte_carlo"
        summary["engine"] = res.engine
        summary["trials"] = trials
        summary["p_disagree"] = float(res.p_disagree)
        summary["event_counts"] = {k: int(v) for k, v in res.event_counts.items()}
        summary["entropy_k_bits"] = float(res.entropy_k_bits)
        summary["entropy_k_plugin_bits"] = float(res.entropy_k_plugin_bits)
        summary["distinct_k"] = int(res.distinct_k)
        summary["uniformity_gap_bits"] = float(res.uniformity_gap_bits)
        write_csv(out_dir / "trials.csv",
                  ["trial", "i_sent", "i_received", "k_is_fallback", "agreed"],
                  [(o.trial, o.index_sent, o.index_received,
                    o.k_index is None, o.agreed) for o in res.outcomes])
        outputs["trials"] = "trials.csv"
        print(f"{res.engine} engine, {trials} trials: "
              f"P[K != L] = {res.p_disagree:.6f}, "
              f"events {res.event_counts}")
        if fmt == "csv":
            print((out_dir / "trials.csv").read_text(encoding="utf-8"), end="")

    report = check_achievability_conditions(res, params)
    summary["conditions"] = _report_to_dict(report)

    if "index_channel" in desc:
        kernel = _single_letter_kernel(desc["index_channel"], "rate check")
        rc = rate_feasibility(cfg, kernel, float(desc.get("mu_prime", 0.0)))
        summary["rate_check"] = {
            "ok": bool(rc.ok),
            "index_rate_bits": float(rc.index_rate_bits),
            "capacity_bits": float(rc.capacity_bits),
            "mu_prime": float(rc.mu_prime),
            "margin": float(rc.margin),
        }
        print("index rate %.6f bits/symbol vs C - mu' = %.6f: %s"
              % (rc.index_rate_bits, rc.capacity_bits - rc.mu_prime,
                 "ok" if rc.ok else "INFEASIBLE"))

    write_json(out_dir / "simulate.json", summary)
    verdict = "pass" if report.all_hold else "fail"
    print(f"conditions: {verdict} "
          f"({sum(c.holds for c in report.conditions)}/4 hold)")
    if fmt == "json":
        print(_json_text(summary), end="")
    return outputs


def _exec_spectrum(config: dict, out_dir: Path, threads: int, fmt: str | None) -> dict:
    kernel = channel_from_dict(config["channel"])
    if not isinstance(kernel, MixedChannel):
        kernel = DmcProduct(kernel)
    if config.get("input") is not None:
        input_pmf = pmf_from_dict(config["input"])
    else:
        input_pmf = Pmf(np.full(kernel.n_in, 1.0 / kernel.n_in))
    ns = [int(n) for n in config["ns"]]
    if not ns or sorted(set(ns)) != ns:
        raise ValidationError("block lengths must be strictly increasing")
    samples = int(config["samples"])
    seed = int(config["seed"])

    estimates = []
    rows = []
    per_n = []
    for n in ns:
        est = spectrum_samples(kernel, input_pmf, n, samples, seed)
        estimates.append(est)
        rows.extend((n, i, v) for i, v in enumerate(est.values_bits))
        per_n.append({
            "n": n,
            "num_samples": est.num_samples,
            "mean_bits": float(est.mean()),
            "std_bits": float(est.std()),
            "min_bits": float(est.values_bits[0]),
            "max_bits": float(est.values_bits[-1]),
        })
        print(f"n = {n}: mean {est.mean():.6f} bits, std {est.std():.6f}")
    write_csv(out_dir / "spectrum.csv",
              ["n", "sample", "density_bits"], rows)

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
            "drop_tol": float(rate.drop_tol),
            "grid_step": float(rate.grid_step),
        }
        print(f"inf-information rate estimate: {rate.value_bits:.6f} bits "
              f"({'conclusive' if rate.conclusive else 'inconclusive'})")
    else:
        payload["inf_info_rate"] = None
    write_json(out_dir / "spectrum.json", payload)
    if fmt == "csv":
        print((out_dir / "spectrum.csv").read_text(encoding="utf-8"), end="")
    if fmt == "json":
        print(_json_text(payload), end="")
    return {"samples": "spectrum.csv", "summary": "spectrum.json"}


def _exec_lemmas(config: dict, out_dir: Path, threads: int, fmt: str | None) -> dict:
    seed = int(config["seed"])
    interval_target = int(config["interval_draws"])
    telescope_target = int(config["telescoping_instances"])

    rng = as_rng(subseed(seed, _LEMMA_SEED_KEY))
    valid = 0
    passes = 0
    attempts = 0
    while valid < interval_target:
        attempts += 1
        if attempts > 100 * interval_target:
            raise InternalInvariantError(
                "parameter sampler failed to hit the valid region")
        p = derive_params(alpha=float(rng.uniform(1e-6, 1.0 - 1e-6)),
                          beta=float(rng.uniform(1e-9, 0.5)),
                          c=float(rng.uniform(0.0, 4.0)))
        if not p.constraints_hold:
            continue
        valid += 1
        passes += bool(interval_lemma_check(p))

    worst_gap = 0.0
    for t in range(telescope_target):
        inst = TelescopingInstance.random(
            subseed(seed, _LEMMA_SEED_KEY, 1, t), n=2 + (t % 2))
        _, _, gap = telescoping_identity_check(inst)
        worst_gap = max(worst_gap, gap)

    variance_entries = []
    uniform = np.full(16, 1.0 / 16.0)
    rep = variance_bound_check(uniform, n=8, beta=0.05, c=1.0)
    variance_entries.append({
        "case": "uniform_16",
        "lhs": float(rep.lhs), "rhs": float(rep.rhs),
        "applicable": bool(rep.applicable),
        "holds": (bool(rep.holds) if rep.holds is not None else None),
    })
    rep = variance_bound_check(np.array([0.5, 0.5]), n=4, beta=0.2, c=1.0)
    variance_entries.append({
        "case": "two_point_not_applicable",
        "lhs": float(rep.lhs), "rhs": float(rep.rhs),
        "applicable": bool(rep.applicable),
        "holds": (bool(rep.holds) if rep.holds is not None else None),
    })

    joint = np.outer(np.full(8, 1.0 / 8.0), np.array([0.3, 0.7]))
    sb_params = derive_params(0.01, 0.001, 1.0)
    sb = set_bound_checks(joint, n=3, params=sb_params)
    set_bounds = {
        "case": "uniform_independent",
        "p_in_l": float(sb.p_in_l),
        "l_lower_bound": float(sb.l_lower_bound),
        "p_in_d": float(sb.p_in_d),
        "d_lower_bound": float(sb.d_lower_bound),
        "applicable": bool(sb.applicable),
        "l_holds": (bool(sb.l_holds) if sb.l_holds is not None else None),
        "d_holds": (bool(sb.d_holds) if sb.d_holds is not None else None),
    }

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
            "tolerance": 1e-10,
        },
        "variance": variance_entries,
        "set_bounds": set_bounds,
    }
    write_json(out_dir / "lemmas.json", payload)
    print(f"interval chain: {passes}/{valid} valid draws pass")
    print(f"telescoping: max gap {worst_gap:.3e} over {telescope_target} instances")
    print("variance: " + ", ".join(
        f"{e['case']}={'n/a' if e['holds'] is None else e['holds']}"
        for e in variance_entries))
    if fmt == "json":
        print(_json_text(payload), end="")
    return {"report": "lemmas.json"}


_EXECUTORS = {
    "capacity": _exec_capacity,
    "ucr": _exec_ucr,
    "simulate": _exec_simulate,
    "spectrum": _exec_spectrum,
    "lemmas": _exec_lemmas,
}


def _json_text(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"


# ---------------------------------------------------------------- dispatch


def _run(command: str, config: dict, seed: int, args) -> None:
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    t0 = time.perf_counter()
    outputs = _EXECUTORS[command](config, out_dir, args.threads, args.format)
    manifest = RunManifest(
        command=command,
        config=config,
        seed=seed,
        outputs=outputs,
        duration_seconds=time.perf_counter() - t0,
    )
    manifest.write(out_dir / "manifest.json")


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
        "grid": [float(v) for v in args.grid.split(",")] if args.grid else None,
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
        "trials": int(desc.get("trials", 0)),
    }
    _run("simulate", config, seed=int(desc.get("seed", 0)), args=args)


def cmd_spectrum(args) -> None:
    seed = args.seed if args.seed is not None else 0
    config = {
        "channel": load_json(args.channel),
        "input": load_json(args.input) if args.input else None,
        "ns": [int(v) for v in args.n.split(",")],
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


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=None,
                        help="master seed (64-bit unsigned); command default otherwise")
    common.add_argument("--out-dir", default="runs/latest",
                        help="directory for result files and the manifest")
    common.add_argument("--format", choices=("json", "csv"), default=None,
                        help="additionally echo the result document to stdout")
    common.add_argument("--threads", type=_positive_int, default=1,
                        help="worker threads for simulate's Monte Carlo trials; other "
                             "commands ignore it (results never depend on it)")

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
    p.add_argument("--grid", default=None,
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
    p.add_argument("--n", default="250,1000",
                   help="comma-separated block lengths")
    p.add_argument("--samples", type=int, default=10_000,
                   help="samples per block length")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("lemmas", parents=[common],
                       help="property sweeps for the converse-side lemmas")
    p.add_argument("--instances", type=int, default=10_000,
                   help="valid parameter draws for the interval chain")
    p.add_argument("--telescoping", type=int, default=50,
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
