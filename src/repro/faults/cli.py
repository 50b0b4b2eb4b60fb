"""``python -m repro faults``: fault-injection campaigns.

Subcommands:

* ``run [--quick] [--seed N] [--out DIR] [--only ID[,ID...]]`` —
  execute the campaign matrix and write a schema-pinned
  ``FAULTS_<timestamp>.json`` report.  ``--only`` restricts the matrix
  to the named faults (an unknown id aborts with the known-id list).
  Exits non-zero when any cell fails (a recoverable cell lost data, or
  any cell tripped a sanitizer).
* ``list`` — print the injector registry.
"""

from __future__ import annotations

import argparse
import sys


def cmd_run(args: argparse.Namespace) -> int:
    from repro.faults.campaign import CellResult, run_campaign
    from repro.faults.injectors import injector_names
    from repro.report import gate, write_report

    def progress(cell: CellResult) -> None:
        flag = "ok" if cell.ok else "FAIL"
        print(f"  [{flag:>4}] {cell.fault:<28} x {cell.workload:<12} "
              f"injected={cell.injected} detected={cell.detected} "
              f"recovered={cell.recovered} lost={cell.lost} "
              f"violations={cell.violations}")

    only = None
    if args.only:
        only = [name.strip() for name in args.only.split(",") if name.strip()]
        unknown = sorted(set(only) - set(injector_names()))
        if unknown:
            print(f"unknown fault ids: {', '.join(unknown)}",
                  file=sys.stderr)
            print(f"known fault ids: {', '.join(injector_names())}",
                  file=sys.stderr)
            return 2
    mode = "quick" if args.quick else "full"
    print(f"repro faults run: {mode} matrix, seed {args.seed}"
          + (f", only {','.join(only)}" if only else ""))
    result = run_campaign(seed=args.seed, quick=args.quick,
                          progress=progress, only=only)
    status = write_report(result, args.out)
    if status:
        return status
    totals = result.totals()
    print(f"cells={totals['cells']} injected={totals['injected']} "
          f"detected={totals['detected']} recovered={totals['recovered']} "
          f"lost={totals['lost']} violations={totals['violations']} "
          f"failed={totals['failed_cells']}")
    return gate(result, "campaign clean: every recoverable cell recovered, "
                "all sanitizers quiet")


def cmd_list(args: argparse.Namespace) -> int:
    from repro.faults.injectors import INJECTORS

    for injector in INJECTORS.values():
        kind = "stream" if injector.kind == "stream" else "dax"
        tag = "recoverable" if injector.recoverable else "lossy"
        print(f"{injector.name:<28} [{kind}, {tag}] {injector.description}")
    return 0


def register(sub: "argparse._SubParsersAction") -> None:
    """Register the ``faults`` command under the ``repro`` CLI."""
    from repro.report import add_harness_flags
    parser = sub.add_parser("faults", help="fault-injection campaigns")
    commands = parser.add_subparsers(dest="faults_command", required=True)

    p_run = commands.add_parser("run", help="execute the campaign matrix")
    add_harness_flags(p_run, "FAULTS",
                      "3x2 smoke matrix instead of the full one")
    p_run.add_argument("--only", default=None, metavar="ID[,ID...]",
                       help="run only the named faults (see 'faults list'; "
                            "cell seeds are unchanged)")
    p_run.set_defaults(fn=cmd_run)

    p_list = commands.add_parser("list", help="print the injector registry")
    p_list.set_defaults(fn=cmd_list)
