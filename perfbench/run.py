"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload odt-sweep --seed 0 --seconds 30 --trace 0

Run from the repository root; the package is imported from ``src/``. The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``. The lines above it
give every metric by name with its unit, plus the run's provenance. The
full record (and, when traced, every span) is written to
``.perfbench_out/``. ``--smoke`` runs tiny inputs in seconds;
``--record-goldens`` re-records the expected outputs from the current code.
"""

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def main(argv=None) -> int:
    sys.path[:] = [ROOT, SRC] + [p for p in sys.path if os.path.abspath(p or ".") != HERE]
    from perfbench import bench, spans

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=list(bench.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for tests")
    parser.add_argument("--record-goldens", action="store_true",
                        help="re-record expected outputs (all workloads unless --workload)")
    args = parser.parse_args(argv)
    if not args.record_goldens and args.workload is None:
        parser.error("--workload is required")

    if not os.path.isfile(os.path.join(SRC, "subrank", "__init__.py")):
        print(f"error: no subrank package under {SRC}", file=sys.stderr)
        return 2
    # Single-threaded BLAS keeps runs comparable on a small shared machine.
    # Set before numpy is first imported; the values are recorded with every run.
    for var in bench.THREAD_VARS:
        os.environ[var] = "1"
    import subrank.cli

    if not os.path.abspath(subrank.cli.__file__).startswith(SRC + os.sep):
        print(f"error: imported subrank from {subrank.cli.__file__}, not {SRC}", file=sys.stderr)
        return 2

    if args.record_goldens:
        for name in [args.workload] if args.workload else list(bench.WORKLOADS):
            count = bench.record_goldens(name, args.smoke)
            print(f"recorded {count} goldens for {name}{' (smoke)' if args.smoke else ''}")
        return 0

    record = bench.run_benchmark(args.workload, args.seed, args.seconds, args.trace,
                                 smoke=args.smoke)
    out_dir = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    tag = (f"{args.workload}{'-smoke' if args.smoke else ''}"
           f"-seed{args.seed}-trace{args.trace}")
    if "spans" in record:
        spans.write_jsonl(record.pop("spans"), os.path.join(out_dir, tag + ".spans.jsonl"))
    with open(os.path.join(out_dir, tag + ".json"), "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")

    for key, value in sorted(record["provenance"].items()):
        print(f"# {key}: {value}")
    print(f"# workload {args.workload} seed {args.seed} -> input set {record['input_set']}, "
          f"{record['ops_per_rotation']} ops per rotation, rotations {record['rotations']}")
    for hook in record.get("absent_hooks", ()):
        print(f"# absent hook: {hook}")
    for failure in record["failures"][:20]:
        print(f"# FAILED {failure}")
    print(f"fail_frac {record['failed'] / record['attempted']!r} frac "
          f"({record['failed']} of {record['attempted']} ops)")
    if args.trace:
        print(f"setup_s {record['setup_s']!r} s")
    for name, metric in record["metrics"].items():
        print(f"{name} {metric['value']!r} {metric['unit']}")
    print(bench.result_line(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
