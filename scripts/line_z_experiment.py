#!/usr/bin/env python3
"""Desk experiment on the integer line: forbid a factor and watch the
entropy of the loop language drop, with a certified bound.

The unrestricted loop counts are central binomial coefficients (entropy
log 2 up to a polynomial correction); forbidding rr leaves only walks
whose right-steps are isolated, and the certificate pins the drop from
(alpha, D, R, conn_K, rho) = (1/2, 0, 2, 1, 1).
"""

import argparse
import math

import entroscope as es


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--depth", type=int, default=40)
    ap.add_argument("--forbid", default="rr")
    ap.add_argument("--family", default="line_Z", choices=es.family_names())
    args = ap.parse_args()

    spec = es.builtin_family(args.family)
    forbidden = es.ForbiddenSet.from_strings([args.forbid], spec.alphabet)
    report = es.entropy_gap_report(
        es.schreier_graph(spec), spec.root, spec.root, forbidden, args.depth
    )

    print(f"family           : {args.family} (forbidding {args.forbid!r}, N={args.depth})")
    print(f"h   (count fit)  : {report.h.value:.6f}   [log|Sigma| = {math.log(len(spec.alphabet)):.6f}]")
    hf = report.h_forbidden.value
    print(f"h^F (count fit)  : {'finite language' if hf == float('-inf') else f'{hf:.6f}'}")
    print(f"gap              : {report.gap:.6f}")
    cert = report.certificate
    if cert is None:
        print("certificate      : none")
        for w in report.warnings:
            print(f"  warning: {w}")
        return
    print(f"certificate      : scope={report.certificate_scope}, path="
          f"{'stochastic' if cert.stochastic_path else 'general'}")
    print(f"  alpha={cert.alpha}  D={cert.D}  R={cert.R}  k={cert.k}  conn_K={cert.conn_k}")
    print(f"  eps0={cert.eps0:.6g}  alpha_bar={cert.alpha_bar:.6g}  rho={cert.rho}")
    print(f"  rho_F <= bound = {cert.bound:.6f}")
    print(f"  h^F   <= log(bound*|Sigma|) = {cert.h_bound(len(spec.alphabet)):.6f}")
    for w in report.warnings:
        print(f"  warning: {w}")


if __name__ == "__main__":
    main()
