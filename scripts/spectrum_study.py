"""Information-density spectra: ergodic concentration versus mixture splitting.

Samples normalized information densities for a clean BSC and for a
half/half mixture of a perfect and a useless BSC at several block lengths.
The clean channel's spectrum tightens around 1 - h(p) as n grows; the
mixture stays bimodal, which is what pins its left-edge rate estimate to
the bad branch.

Usage:
    python scripts/spectrum_study.py --ns 100,250,1000 --samples 4000 \
        --out results/spectrum_study.csv
"""

import argparse
import sys
from pathlib import Path

import numpy as np

from ucrlab.channelcap import (
    DmcProduct,
    MixedChannel,
    bsc,
    inf_info_rate_estimate,
    spectrum_samples,
)
from ucrlab.probspace import Pmf
from ucrlab.serialize import write_csv

QUANTILES = (0.05, 0.25, 0.5, 0.75, 0.95)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--flip", type=float, default=0.1)
    ap.add_argument("--ns", default="100,250,1000")
    ap.add_argument("--samples", type=int, default=4000)
    ap.add_argument("--seed", type=int, default=2026)
    ap.add_argument("--out", default="results/spectrum_study.csv")
    args = ap.parse_args(argv)

    uniform = Pmf(np.array([0.5, 0.5]))
    kernels = {
        "bsc": DmcProduct(bsc(args.flip)),
        "mixed": MixedChannel(((0.5, DmcProduct(bsc(0.0))),
                               (0.5, DmcProduct(bsc(0.5))))),
    }
    ns = [int(v) for v in args.ns.split(",")]

    rows = []
    for name, kernel in kernels.items():
        estimates = []
        for n in ns:
            est = spectrum_samples(kernel, uniform, n, args.samples, args.seed)
            estimates.append(est)
            qs = [est.quantile(q) for q in QUANTILES]
            rows.append((name, n, est.mean(), est.std(), *qs))
            print(f"{name:5s} n = {n:5d}  mean {est.mean():+.4f}  "
                  f"std {est.std():.4f}  iqr [{qs[1]:+.4f}, {qs[3]:+.4f}]")
        rate = inf_info_rate_estimate(estimates)
        flag = "" if rate.conclusive else " (inconclusive)"
        print(f"{name:5s} left-edge rate estimate: "
              f"{rate.value_bits:.3f} bits{flag}")

    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    write_csv(out, ["kernel", "n", "mean_bits", "std_bits",
                    *(f"q{int(100 * q):02d}" for q in QUANTILES)], list(zip(*rows)))
    print(f"{len(rows)} rows -> {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
