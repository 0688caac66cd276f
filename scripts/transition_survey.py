#!/usr/bin/env python3
"""Survey steady-state-to-chaos verdicts across shape parameters.

For each map and shape k, solves the equilibrium branches at a noise level
safely inside the feasible region and classifies each branch's deterministic
regime. The logistic column should read NO TRANSITION everywhere; the Ricker
column flips to TRANSITION for small k.
"""

import argparse

from steadychaos import logistic_noise_bound, transition_report


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--k", default="0.5,1,2,5,10,100", help="comma-separated shape values"
    )
    args = parser.parse_args()
    ks = [float(part) for part in args.k.split(",")]

    print(f"{'map':<10}{'k':>8}{'var_eps':>12}  verdict")
    for kind in ("logistic", "ricker"):
        for k in ks:
            if kind == "logistic":
                v = min(0.05, 0.5 * logistic_noise_bound(k))
            else:
                v = 0.0
            rep = transition_report(kind, k, v)
            verdict = "TRANSITION" if rep.transition_found else "NO TRANSITION"
            detail = ", ".join(
                f"{label}: r={regime.r:.4f} {regime.regime}"
                for label, regime in rep.branches
            )
            print(f"{kind:<10}{k:>8g}{v:>12.4g}  {verdict}  [{detail}]")


if __name__ == "__main__":
    main()
