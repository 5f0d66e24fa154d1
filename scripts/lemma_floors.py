"""How fast the tail-set probability floors become binding as gamma shrinks.

On the exact (K, Y-block) law of the small reference protocol run, sweeps
the margin parameter gamma downward and records the two tail-set
memberships against their guaranteed floors. At desk-scale n the floors
only bind for generous gamma; the crossover illustrates the "sufficiently
large n" caveat quantitatively.

Usage:
    python scripts/lemma_floors.py --gammas 1.0,0.5,0.2,0.1,0.05 \
        --out results/lemma_floors.csv
"""

import argparse
import math
import sys
from pathlib import Path

import numpy as np

from ucrlab.converselab import derive_params, set_bound_checks
from ucrlab.probspace import JointPmf
from ucrlab.protocol import ProtocolConfig, exact_analyze
from ucrlab.serialize import write_csv
from ucrlab.ucrcap import AuxiliaryChannel


def params_for_gamma(alpha: float, gamma: float):
    """Invert gamma(alpha, beta) at c = 0: mu = (gamma/2)^4 (1-sqrt(a))^2."""
    mu = (gamma / 2.0) ** 4 * (1.0 - math.sqrt(alpha)) ** 2
    beta = (-1.0 + math.sqrt(1.0 + 4.0 * mu)) / 2.0
    return derive_params(alpha, beta, 0.0)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--flip", type=float, default=0.1)
    ap.add_argument("--n", type=int, default=8)
    ap.add_argument("--alpha", type=float, default=0.25)
    ap.add_argument("--gammas", default="1.0,0.5,0.2,0.1,0.05")
    ap.add_argument("--out", default="results/lemma_floors.csv")
    args = ap.parse_args(argv)

    p = args.flip
    source = JointPmf(np.array([[(1 - p) / 2, p / 2], [p / 2, (1 - p) / 2]]))
    cfg = ProtocolConfig(n=args.n, mu=0.3, theta=0.0, eps_typ=0.15,
                         aux=AuxiliaryChannel.identity(2), source=source,
                         seed=0, allow_degenerate_rate=True)
    res = exact_analyze(cfg)
    print(f"reference law: n = {cfg.n}, H(K) = {res.entropy_k_bits:.4f} bits, "
          f"{res.joint_ky.shape[0]} values")

    rows = []
    for gamma in (float(g) for g in args.gammas.split(",")):
        prm = params_for_gamma(args.alpha, gamma)
        rep = set_bound_checks(res.joint_ky, cfg.n, prm,
                               cfg.log2_k_cardinality)
        # raw mass-vs-floor comparison; the formal verdict fields stay None
        # here because this law is far from uniform at n = 8
        l_ok = rep.p_in_l >= rep.l_lower_bound
        d_ok = rep.p_in_d >= rep.d_lower_bound
        rows.append((gamma, rep.p_in_l, rep.l_lower_bound, l_ok,
                     rep.p_in_d, rep.d_lower_bound, d_ok))
        print(f"gamma = {gamma:5.2f}: P[L] = {rep.p_in_l:.4f} vs floor "
              f"{rep.l_lower_bound:.4f} ({'ok' if l_ok else 'gap'}), "
              f"P[D] = {rep.p_in_d:.4f} vs floor {rep.d_lower_bound:.4f} "
              f"({'ok' if d_ok else 'gap'})")

    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    write_csv(out, ["gamma", "p_in_l", "l_floor", "l_holds", "p_in_d",
                    "d_floor", "d_holds"], list(zip(*rows)))
    print(f"{len(rows)} rows -> {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
