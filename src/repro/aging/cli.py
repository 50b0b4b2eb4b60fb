"""``python -m repro age``: device-lifetime endurance campaigns.

``age run [--quick]`` ages a population of independently-seeded module
shards to organic end-of-life under each FTL victim-selection strategy
and writes a schema-pinned ``AGING_<timestamp>.json`` report.  Exits
non-zero when the campaign fails an acceptance gate: any committed-data
loss, a sanitizer violation, a shard that fail-stopped before reaching
``read_only`` (degradation out of order), or a wear-leveling strategy
that does not beat the greedy baseline's wear spread.
"""

from __future__ import annotations

import argparse
import sys


def cmd_run(args: argparse.Namespace) -> int:
    from repro.aging.campaign import AgingConfig, run_aging
    from repro.errors import ConfigError
    from repro.report import gate, write_report

    try:
        config = AgingConfig(
            quick=args.quick, seed=args.seed, shards=args.shards,
            max_epochs=args.epochs, snapshot=not args.no_snapshot)
    except ConfigError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    mode = "quick" if config.quick else "full"
    print(f"repro age: {mode} campaign, {config.shard_count} shards x "
          f"{len(config.strategies)} strategies, "
          f"<= {config.epoch_budget} epochs, seed {config.seed}")
    def progress(outcome) -> None:
        print(f"  aged {outcome.strategy}/{outcome.shard}: "
              f"{outcome.epochs_run} epochs, end {outcome.end_state}, "
              f"spread {outcome.wear_spread_x1000}")

    result = run_aging(config, progress=progress)
    status = write_report(result, args.out)
    if status:
        return status
    for name in config.strategies:
        ttro = result.time_to_read_only(name)
        print(f"  {name:<12} spread={result.mean_wear_spread_x1000(name)} "
              f"waf={result.mean_waf_x1000(name)} "
              f"read_only={ttro['reached']}/{ttro['reached'] + ttro['censored']} "
              f"p50={ttro['p50_epochs']}ep "
              f"survival={result.survival_curve(name)}")
    histogram = result.ladder_histogram()
    print("  ladder: " + " ".join(
        f"{key}={count}" for key, count in sorted(histogram.items())))
    return gate(result, "aging clean: zero data loss, sanitizers quiet, "
                "graceful degradation order, wear leveling beats greedy")


def register(sub: "argparse._SubParsersAction") -> None:
    """Register the ``age`` command under the ``repro`` CLI."""
    from repro.report import add_harness_flags
    parser = sub.add_parser(
        "age", help="age a module population to end-of-life")
    commands = parser.add_subparsers(dest="age_command", required=True)

    p_run = commands.add_parser(
        "run", help="run the endurance campaign and write a report")
    add_harness_flags(p_run, "AGING",
                      "CI-sized campaign (2 shards, <= 8 epochs)", out=".")
    p_run.add_argument("--shards", type=int, default=None,
                       help="shards per strategy "
                            "(default: 2 quick / 4 full)")
    p_run.add_argument("--epochs", type=int, default=None,
                       help="epoch budget per shard "
                            "(default: 8 quick / 14 full)")
    p_run.add_argument("--no-snapshot", action="store_true",
                       help="age each shard on a freshly rebuilt module "
                            "instead of forking the post-fill snapshot "
                            "(slower; byte-identical report)")
    p_run.set_defaults(fn=cmd_run)
