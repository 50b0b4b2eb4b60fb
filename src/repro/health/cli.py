"""``python -m repro soak``: the long-run health soak.

``soak [--quick] [--seed N] [--out DIR]`` composes the fault surfaces
over successive rounds, marches the module down the whole recovery
ladder, and writes a schema-pinned ``SOAK_<timestamp>.json`` report.
Exits non-zero when the soak fails its acceptance gate: any data loss,
a missing ladder edge, p99 latency past the bound, or a sanitizer
violation.
"""

from __future__ import annotations

import argparse


def cmd_soak(args: argparse.Namespace) -> int:
    from repro.health.soak import DEFAULT_P99_BOUND, SoakRound, run_soak
    from repro.report import gate, write_report

    def progress(rnd: SoakRound) -> None:
        print(f"  [{rnd.health_before:>9} -> {rnd.health_after:<9}] "
              f"{rnd.name:<12} writes={rnd.writes} reads={rnd.reads} "
              f"refused={rnd.refused_writes} loss={rnd.data_loss}")

    mode = "quick" if args.quick else "full"
    print(f"repro soak: {mode} run, seed {args.seed}")
    result = run_soak(seed=args.seed, quick=args.quick, progress=progress,
                      snapshot=not args.no_snapshot)
    status = write_report(result, args.out)
    if status:
        return status
    totals = result.totals()
    print(f"rounds={totals['rounds']} writes={totals['writes']} "
          f"reads={totals['reads']} refused={totals['refused_writes']} "
          f"data_loss={totals['data_loss']} "
          f"violations={totals['violations']}")
    print("edges: " + " ".join(
        f"{edge}={count}" for edge, count in sorted(result.edges.items())))
    print(f"p99: clean={result.clean_p99_ps} ps "
          f"soak={result.soak_p99_ps} ps "
          f"ratio={result.p99_ratio_x1000 / 1000:.2f}x "
          f"(bound {DEFAULT_P99_BOUND:.0f}x)")
    return gate(result, "soak clean: zero data loss, full ladder coverage, "
                "p99 within bound, sanitizers quiet")


def register(sub: "argparse._SubParsersAction") -> None:
    """Register the ``soak`` command under the ``repro`` CLI."""
    from repro.report import add_harness_flags
    parser = sub.add_parser(
        "soak", help="long-run health soak down the recovery ladder")
    add_harness_flags(parser, "SOAK", "smaller footprint per round",
                      seed_help="soak seed")
    parser.add_argument("--no-snapshot", action="store_true",
                        help="run the fault-free twin from zero instead of "
                             "forking it from the shared prefix snapshot "
                             "(reports are byte-identical either way)")
    parser.set_defaults(fn=cmd_soak)
