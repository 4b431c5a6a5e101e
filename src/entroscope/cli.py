"""Command-line orchestration and report emission.

Five subcommands: ``count`` (word censuses), ``analyze`` (entropy gap with
certificate), ``bound`` (certificate arithmetic alone), ``rho`` (transition
probability decay and the h-transform identity check), ``schreier``
(built-in coset-graph families).  Reports are JSON on stdout (plus an
optional per-n CSV table); identical configs produce byte-identical
reports except for the timestamp field.

Exit codes: 0 success, 2 configuration error, 3 expansion budget exceeded,
4 certification failed (the analysis report is still emitted, or an error
report when the bound degenerates).
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import os
import sys
from dataclasses import replace
from datetime import datetime, timezone
from fractions import Fraction
from typing import Optional

from . import __version__, census, chain, factors, graphs, growth, schreier

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_BUDGET = 3
EXIT_CERTIFICATION = 4


def _num(obj):
    """JSON-safe value: Fractions become text, infinities and NaN null,
    containers are converted recursively."""
    if isinstance(obj, dict):
        return {str(k): _num(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_num(v) for v in obj]
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    return obj


def _estimate_dict(fit: growth.GrowthFit, tail: int) -> dict:
    """The report entry of an entropy fitted on word counts."""
    return {
        "value": _num(fit.value),
        "method": "count-fit",
        "period": fit.period,
        "finite_language": fit.finite,
        "diagnostics": _num({"residual": fit.residual, "points_used": fit.points_used,
                             "tail": tail, "last_ratio": fit.last_ratio,
                             "finite_language": fit.finite}),
    }


def _error(exc: Exception, kind: Optional[str] = None) -> None:
    print(json.dumps({"error": {"type": kind or type(exc).__name__, "message": str(exc)}},
                     indent=2, sort_keys=True))


def _report(config: dict, results: dict, warnings: list[str]) -> dict:
    return {
        "tool": "entroscope",
        "version": __version__,
        "command": config["command"],
        "generated_at": datetime.now(timezone.utc).isoformat(),
        "config": _num(config),
        "results": results,
        "warnings": list(warnings),
    }


def _emit(report: dict, config: dict, csv_rows=None, csv_header=None) -> None:
    text = json.dumps(report, indent=2, sort_keys=True)
    print(text)
    if config["out"]:
        with open(config["out"], "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    if config.get("csv") and csv_rows is not None:
        with open(config["csv"], "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(csv_header)
            writer.writerows(csv_rows)


def _budget(args) -> int:
    """The per-search vertex budget: --budget, else ENTROSCOPE_BUDGET, else
    the default; anything but an integer >= 1 is a configuration error."""
    option, value = "--budget", args.budget
    if value is None:
        option = "ENTROSCOPE_BUDGET"
        value = os.environ.get(option, graphs.DEFAULT_BUDGET)
    try:
        budget = int(value)
    except ValueError:
        budget = 0
    if budget < 1:
        raise graphs.GraphFormatError(f"{option} must be an integer >= 1, got {value!r}")
    return budget


def _load_graph(args) -> tuple[graphs.LabelledGraph, tuple[str, ...]]:
    """Graph, under the budget, plus any forbidden words carried by the
    source document."""
    if getattr(args, "graph", None):
        doc = graphs.load_graph_json(args.graph)
        g, words = doc.graph, doc.forbidden
    elif getattr(args, "family", None):
        g, words = schreier.schreier_graph(schreier.builtin_family(args.family)), ()
    else:
        raise graphs.GraphFormatError("a graph source is required: --graph FILE or --family NAME")
    g.budget = _budget(args)
    return g, words


def _parse_vertex(text: str):
    """CLI vertex syntax: int, "(i,j)" integer tuple, else raw string."""
    try:
        return int(text)
    except ValueError:
        pass
    if text.startswith("(") and text.endswith(")"):
        parts = text[1:-1].split(",")
        try:
            return tuple(int(p) for p in parts)
        except ValueError:
            pass
    return text


# canonical vertex forms of the built-in families, as _parse_vertex returns them
_CANONICAL = {
    "line_Z": lambda v: isinstance(v, int),
    "grid_Z2": lambda v: isinstance(v, tuple) and len(v) == 2,
    # freely reduced words over a, b and their inverses A, B, no leading a/A
    "free2_mod_cyclic": lambda v: (
        isinstance(v, str) and set(v) <= set("aAbB") and v[:1] not in ("a", "A")
        and all(c != d.swapcase() for c, d in zip(v, v[1:]))
    ),
}


def _resolve_endpoints(g: graphs.LabelledGraph, args):
    ends = []
    for name in ("x", "y"):
        text = getattr(args, name, None)
        v = _parse_vertex(text) if text else g.roots[0]
        if g.is_finite and v not in g.vertex_list:
            by_key = {graphs.vertex_key(u): u for u in g.vertex_list}
            k = graphs.vertex_key(v)
            if k not in by_key:
                raise graphs.GraphFormatError(f"--{name} {k!r} is not a vertex of the graph")
            v = by_key[k]
        elif not g.is_finite and not _CANONICAL[args.family](v):
            raise graphs.GraphFormatError(
                f"--{name} {text!r} is not a canonical vertex of {args.family}"
            )
        ends.append(v)
    return tuple(ends)


def _forbidden_from(args, g: graphs.LabelledGraph, doc_words) -> Optional[factors.ForbiddenSet]:
    words = tuple(getattr(args, "forbid", None) or ()) or tuple(doc_words or ())
    if not words:
        return None
    return factors.ForbiddenSet.from_strings(words, g.alphabet)


def _config(args, **resolved) -> dict:
    """The echoed config: the subcommand's parsed options, each replaced by
    its ``resolved`` value if it has one (canonical vertex ids, parsed
    forbidden words, the budget)."""
    resolved["budget"] = _budget(args)
    return {k: resolved.get(k, v) for k, v in vars(args).items() if k != "handler"}


def _check_constants(args) -> None:
    """Refuse the certificate constants given outside their ranges."""
    for option, name, ok, rule in (
        ("--D", "D", lambda v: v >= 0, ">= 0"),
        ("--conn-K", "conn_K", lambda v: v >= 1, ">= 1"),
        ("--alpha", "alpha", lambda v: 0 < v <= 1, "in (0, 1]"),
        ("--rho", "rho", lambda v: 0 < v <= 1, "in (0, 1]"),
    ):
        value = getattr(args, name, None)
        if value is not None and not ok(value):
            raise graphs.GraphFormatError(f"{option} must be {rule}, got {value}")


def _setup(args, min_depth: int = 0):
    """Graph, endpoints, forbidden set and echoed config of a subcommand
    that reads a graph, its options checked.  rho's --conn-K replaces the
    graph's declared conn_k, which the h-transform reads."""
    if args.depth < min_depth:
        raise graphs.GraphFormatError(f"--depth must be >= {min_depth}, got {args.depth}")
    if args.tail < 1:
        raise graphs.GraphFormatError(f"--tail must be >= 1, got {args.tail}")
    g, doc_words = _load_graph(args)
    x, y = _resolve_endpoints(g, args)
    forbidden = _forbidden_from(args, g, doc_words)
    config = _config(
        args, x=graphs.vertex_key(x), y=graphs.vertex_key(y),
        forbid=forbidden.as_strings() if forbidden else (),
    )
    _check_constants(args)
    if getattr(args, "conn_K", None) is not None:
        g.declared = replace(g.declared, conn_k=args.conn_K)
    return g, x, y, forbidden, config


def _csv_rows(column, column_f=None):
    """(n, value, restricted value or "") rows of a per-n table."""
    return [(n, v, "" if column_f is None else column_f[n]) for n, v in enumerate(column)]


def cmd_count(args) -> int:
    g, x, y, forbidden, config = _setup(args)
    counts = census.count_words(g, x, y, args.depth)
    results = {
        "counts": list(counts),
        "entropy": _estimate_dict(growth.fit_log_growth(counts, tail=args.tail), args.tail),
    }
    counts_f = None
    if forbidden is not None:
        counts_f = census.count_words(g, x, y, args.depth, forbidden=forbidden)
        results["counts_forbidden"] = list(counts_f)
        results["entropy_forbidden"] = _estimate_dict(
            growth.fit_log_growth(counts_f, tail=args.tail), args.tail)
    report = _report(config, results, [])
    _emit(report, config, _csv_rows(counts, counts_f), ("n", "c_n", "c_n_F"))
    return EXIT_OK


def _gap_results(g, report: chain.GapReport, tail: int) -> dict:
    sigma = len(g.alphabet)
    results = {
        "h": _estimate_dict(report.h, tail),
        "h_forbidden": _estimate_dict(report.h_forbidden, tail),
        "gap": _num(report.gap),
        "counts": list(report.counts),
        "counts_forbidden": list(report.counts_forbidden),
        "denseness_D": report.denseness_D,
        "certificate_scope": report.certificate_scope,
        "certificate": None,
    }
    if report.certificate is not None:
        cert = report.certificate.to_dict()
        cert["h_bound"] = _num(report.certificate.h_bound(sigma))
        results["certificate"] = cert
    return results


def cmd_analyze(args) -> int:
    g, x, y, forbidden, config = _setup(args)
    if forbidden is None:
        raise graphs.GraphFormatError(f"{args.command} requires forbidden words (--forbid)")
    report = chain.entropy_gap_report(g, x, y, forbidden, args.depth, tail=args.tail)
    results = _gap_results(g, report, args.tail)
    if args.command == "schreier":
        results["family"] = args.family
        results["declared"] = {"conn_K": g.declared.conn_k, "rho": g.declared.rho}
    out = _report(config, results, report.warnings)
    _emit(out, config, _csv_rows(report.counts, report.counts_forbidden), ("n", "c_n", "c_n_F"))
    return EXIT_OK if report.certificate is not None else EXIT_CERTIFICATION


def cmd_bound(args) -> int:
    _check_constants(args)
    if args.sigma_size is not None and args.sigma_size < 1:
        raise graphs.GraphFormatError(f"--sigma-size must be >= 1, got {args.sigma_size}")
    if bool(args.graph) != bool(args.forbid):
        given, missing = ("--graph", "--forbid") if args.graph else ("--forbid", "--graph")
        raise graphs.GraphFormatError(f"{missing} is required with {given} (row-sum check)")
    rho = args.rho if args.rho is not None else 1.0
    config = _config(args, rho=rho, forbid=tuple(args.forbid or ()))
    try:
        cert = chain.certified_gap_bound(
            alpha=args.alpha, D=args.D, R=args.R, conn_k=args.conn_K, rho=rho,
            stochastic=args.stochastic,
        )
    except chain.DegenerateBound as exc:
        _error(exc)
        return EXIT_CERTIFICATION
    results = cert.to_dict()
    results["h_bound"] = (
        _num(cert.h_bound(args.sigma_size)) if args.sigma_size else None
    )
    window_check = None
    if args.graph:
        g, _ = _load_graph(args)
        forbidden = factors.ForbiddenSet.from_strings(args.forbid, g.alphabet)
        w = graphs.full_window(g)
        # rows of the uniform chain against the alpha the certificate claims,
        # read exactly as the decimal it prints as
        check = chain.k_step_restricted_rowsum_check(
            chain.uniform_weights(g), forbidden, D=args.D, k=cert.k, w=w,
            alpha=Fraction(str(cert.alpha)),
        )
        window_check = {
            "ok": check.ok,
            "threshold": _num(check.threshold),
            "max_row_sum": _num(check.max_row_sum()),
            "violations": [
                [graphs.vertex_key(v), _num(s)] for v, s in check.violations
            ],
        }
    results["rowsum_check"] = window_check
    report = _report(config, results, [])
    _emit(report, config)
    if window_check is not None and not window_check["ok"]:
        return EXIT_CERTIFICATION
    return EXIT_OK


def cmd_rho(args) -> int:
    g, x, y, forbidden, config = _setup(args, min_depth=chain.MIN_DEPTH)
    if args.transform_check and forbidden is None:
        raise graphs.GraphFormatError("--transform-check requires --forbid")
    ch = chain.uniform_weights(g)
    warnings: list[str] = []
    est = chain.rho_estimate(ch, x, y, args.depth, tail=args.tail)
    results = {
        "rho": _num(est.value),
        "period": est.fit.period,
        "residual": _num(est.fit.residual),
        "converged": est.converged,
        "entropy_dictionary": {
            "value": _num(chain.entropy_from_rho(est.value, len(g.alphabet))),
            "method": "rho-dictionary", "period": est.fit.period,
            "finite_language": est.value == 0,
            "diagnostics": _num({"rho": est.value, "residual": est.fit.residual}),
        },
    }
    table_f = None
    if forbidden is not None:
        est_f = chain.rho_estimate(ch, x, y, args.depth, forbidden=forbidden, tail=args.tail)
        table_f = [float(p) for p in est_f.table]
        results["rho_forbidden"] = _num(est_f.value)
        results["period_forbidden"] = est_f.fit.period
        results["residual_forbidden"] = _num(est_f.fit.residual)
    if not est.converged:
        warnings.append("rho estimate did not stabilize (large tail residual)")
    if args.transform_check:
        # the transformed DP needs h wherever mass can reach within N steps
        hv = chain.harmonic_vector(ch, x, args.depth + 2, tol=1e-8 if g.is_finite else 1e-3)
        identity = chain.transform_identity_check(
            ch, hv, forbidden, x, y, args.depth, tail=args.tail, restricted=est_f)
        results["harmonic"] = {
            "rho_hat": _num(hv.rho_hat),
            "residual": _num(hv.residual),
            "radius": hv.radius,
            "scheme": hv.scheme,
            "diagnostics": _num(hv.diagnostics),
        }
        results["transform_identity"] = {
            "lhs": _num(identity.lhs),
            "rhs": _num(identity.rhs),
            "difference": _num(identity.difference),
            "threshold": identity.threshold,
            "ok": identity.ok,
        }
        if not identity.ok:
            warnings.append("h-transform identity check exceeded its threshold")
    report = _report(config, results, warnings)
    _emit(report, config, _csv_rows([float(p) for p in est.table], table_f), ("n", "p_n", "p_n_F"))
    return EXIT_OK


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--budget", type=int,
                   help="expansion budget in vertices per search (env ENTROSCOPE_BUDGET)")
    p.add_argument("--out", help="also write the JSON report to this file")


def _add_source(p: argparse.ArgumentParser) -> None:
    p.add_argument("--graph", help="finite graph JSON document")
    p.add_argument("--family", choices=schreier.family_names(),
                   help="built-in infinite family")
    p.add_argument("--x", help="start vertex (default: first root)")
    p.add_argument("--y", help="end vertex (default: first root)")


def _add_analysis(p: argparse.ArgumentParser) -> None:
    p.add_argument("--depth", type=int, required=True, help="census horizon N")
    p.add_argument("--forbid", action="append", default=None,
                   help="forbidden word (repeatable; per-character over 1-char alphabets)")
    p.add_argument("--tail", type=int, default=20, help="tail points used by the slope fit")
    p.add_argument("--csv", help="write the per-n table to this CSV file")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process and reused by every
    ``main`` call: parsing neither changes it nor shares a default between
    calls (argparse copies ``append`` defaults)."""
    parser = argparse.ArgumentParser(
        prog="entroscope",
        description="entropy of automaton languages and certified drops under forbidden factors",
    )
    parser.add_argument("--version", action="version", version=f"entroscope {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("count", help="word census between two vertices")
    _add_source(p)
    _add_analysis(p)
    _add_common(p)
    p.set_defaults(handler=cmd_count)

    p = sub.add_parser("analyze", help="entropy gap under forbidden factors, with certificate")
    _add_source(p)
    _add_analysis(p)
    _add_common(p)
    p.set_defaults(handler=cmd_analyze)

    p = sub.add_parser("bound", help="certified gap bound from explicit constants")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--D", type=int, required=True)
    p.add_argument("--R", type=int, required=True, help="max forbidden word length")
    p.add_argument("--conn-K", dest="conn_K", type=int, default=None)
    p.add_argument("--rho", type=float, default=None)
    p.add_argument("--stochastic", action="store_true")
    p.add_argument("--sigma-size", type=int, default=None,
                   help="alphabet size for the entropy form of the bound")
    p.add_argument("--graph", help="optional finite graph for the k-step row-sum check")
    p.add_argument("--forbid", action="append", default=None)
    _add_common(p)
    p.set_defaults(handler=cmd_bound)

    p = sub.add_parser("rho", help="n-step probability decay and h-transform identity")
    _add_source(p)
    _add_analysis(p)
    p.add_argument("--conn-K", dest="conn_K", type=int, default=None)
    p.add_argument("--transform-check", action="store_true",
                   help="fit a harmonic vector and check the h-transform identity")
    _add_common(p)
    p.set_defaults(handler=cmd_rho)

    p = sub.add_parser("schreier", help="growth sensitivity of a built-in coset family")
    p.add_argument("--family", choices=schreier.family_names(), required=True)
    _add_analysis(p)
    _add_common(p)
    p.set_defaults(handler=cmd_analyze)

    return parser


_CONFIG_ERRORS = (
    graphs.GraphFormatError,
    factors.ForbiddenWordError,
    census.NondeterministicWindow,
    census.CountRangeError,
    chain.ChainError,
    FileNotFoundError,
    UnicodeDecodeError,
    json.JSONDecodeError,
)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except graphs.ExpansionBudgetExceeded as exc:
        _error(exc, "budget-exceeded")
        return EXIT_BUDGET
    except growth.InsufficientData as exc:
        _error(graphs.GraphFormatError(
            f"too little data at --depth {args.depth}, --tail {args.tail}: {exc}"))
        return EXIT_CONFIG
    except _CONFIG_ERRORS as exc:
        _error(exc)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
