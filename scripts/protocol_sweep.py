"""Protocol disagreement probability versus block length at desk scale.

Runs the typed-codebook protocol over a range of block lengths on a
doubly symmetric binary source with the identity auxiliary, recording the
empirical P[K != L], the event breakdown (encoder fallbacks, index errors,
decoder misses), the engine used, and the per-symbol entropy rate H(K)/n
of the generated value next to log2|K|. The rate is the number to compare
with I(U;X) = 1 bit per symbol: with every codeword drawn from one exact
type class most encoders fall back to the reserved word, so today the
rate falls as n grows instead of approaching that bound.

Usage:
    python scripts/protocol_sweep.py --ns 200,400,600,800,1000 \
        --trials 1000 --out results/protocol_sweep.csv
"""

import argparse
import sys
import time
from pathlib import Path

import numpy as np

from ucrlab.probspace import JointPmf
from ucrlab.protocol import ProtocolConfig, run_monte_carlo
from ucrlab.serialize import write_csv
from ucrlab.ucrcap import AuxiliaryChannel


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--flip", type=float, default=0.05)
    ap.add_argument("--ns", default="200,400,600,800,1000",
                    help="comma-separated block lengths")
    ap.add_argument("--mu", type=float, default=0.1)
    ap.add_argument("--theta", type=float, default=0.01)
    ap.add_argument("--eps-typ", type=float, default=0.15)
    ap.add_argument("--trials", type=int, default=1000)
    ap.add_argument("--seed", type=int, default=11)
    ap.add_argument("--out", default="results/protocol_sweep.csv")
    args = ap.parse_args(argv)

    p = args.flip
    source = JointPmf(np.array([[(1 - p) / 2, p / 2], [p / 2, (1 - p) / 2]]))
    aux = AuxiliaryChannel.identity(2)

    rows = []
    for n in (int(v) for v in args.ns.split(",")):
        cfg = ProtocolConfig(n=n, mu=args.mu, theta=args.theta,
                             eps_typ=args.eps_typ, aux=aux, source=source,
                             seed=args.seed)
        t0 = time.perf_counter()
        mc = run_monte_carlo(cfg, args.trials, keep_outcomes=False)
        dt = time.perf_counter() - t0
        rate = mc.entropy_k_bits / n
        rows.append((n, mc.p_disagree, rate, cfg.log2_k_cardinality,
                     mc.event_counts["encoder_fallback"],
                     mc.event_counts["index_error"],
                     mc.event_counts["decoder_miss"], mc.engine))
        print(f"n = {n:5d}  P[K != L] = {mc.p_disagree:.4f}  "
              f"H(K)/n = {rate:.4f}  engine = {mc.engine}  ({dt:.1f}s)")

    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    write_csv(out, ["n", "p_disagree", "entropy_rate_bits", "log2_k_card",
                    "encoder_fallback", "index_error", "decoder_miss",
                    "engine"], list(zip(*rows)))
    print(f"{len(rows)} rows -> {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
