"""Command-line front end.

Subcommands: solve (rank one instance file), generate (write instance
files), experiment (run a sweep config to CSVs), gmsc-bench (LP + rounding
benchmark), verify (run the property suites). Exit codes: 0 success,
1 usage error, 2 data error, 3 verification failure. The SUBRANK_SEED
environment variable sets the default seed of solve, generate and
gmsc-bench; experiment takes its seeds from its config, and verify uses
fixed seeds.
"""

from __future__ import annotations

import argparse
import functools
import inspect
import json
import os
import sys
import time

from subrank import verify as verify_mod
from subrank import gmsc as gmsc_mod
from subrank.core import SEVERITY_ERROR, cover_report, errors_only, sequential_sum, validate
from subrank.functions import hard_family, random_coverage_instance
from subrank.instance_io import (InstanceFormatError, dumps, load_instance, load_json,
                                 save_instance)
from subrank.algorithms import (
    BagConfig,
    balanced_adaptive_greedy,
    brute_force_opt,
    greedy,
    normalized_greedy,
    random_order,
    write_trace_jsonl,
)
from subrank.harness import ExperimentConfig, sweep

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_VERIFY = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _at_least(least: int, text: str) -> int:
    value = int(text)
    if value < least:
        raise argparse.ArgumentTypeError(f"must be at least {least}, got {value}")
    return value


def positive_int(text: str) -> int:
    return _at_least(1, text)


def nonnegative_int(text: str) -> int:
    return _at_least(0, text)


def default_seed() -> int:
    text = os.environ.get("SUBRANK_SEED", "0")
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"SUBRANK_SEED must be an integer, got {text!r}") from None


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The subrank parser, built once per process.

    No default depends on the environment: seeds default to None and
    default_seed() reads SUBRANK_SEED when a command runs.
    """
    parser = _Parser(prog="subrank", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("solve", help="rank one instance file")
    p.add_argument("--instance", required=True, help="instance JSON path")
    p.add_argument("--algo", required=True, choices=("random", "greedy", "ng", "bag", "brute"))
    p.add_argument("--ratio", type=float, default=BagConfig.ratio, help="bag baseline decay")
    p.add_argument("--drop-fraction", type=float, default=BagConfig.drop_fraction)
    p.add_argument("--seed", type=int, default=None, help="seed for --algo random")
    p.add_argument("--node-limit", type=nonnegative_int, help="brute-force cap",
                   default=inspect.signature(brute_force_opt).parameters["node_limit"].default)
    p.add_argument("--trace", metavar="PATH", default=None,
                   help="write bag pick trace as JSON lines")
    p.add_argument("--out", default=None, help="also write the report as JSON")

    p = sub.add_parser("generate", help="write an instance file")
    p.add_argument("--family", required=True, choices=("hard", "coverage", "gmsc"))
    p.add_argument("--k", type=positive_int, help="agents (hard: must be a perfect square)")
    p.add_argument("--n", type=positive_int, help="elements (coverage/gmsc)")
    p.add_argument("--m", type=positive_int, help="functions or sets per agent (coverage/gmsc)")
    p.add_argument("--delta", type=float, default=0.01, help="hard-family tie margin")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True)

    p = sub.add_parser("experiment", help="run a sweep config")
    p.add_argument("--config", required=True, help="JSON config path")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--jobs", type=positive_int, default=1, help="parallel sweep cells")

    p = sub.add_parser("gmsc-bench", help="LP bound plus rounding benchmark")
    p.add_argument("--instance", required=True,
                   help="instance JSON whose functions are all unit-weight gmsc")
    p.add_argument("--seeds", type=positive_int, default=20, help="rounding repetitions")
    p.add_argument("--seed-base", type=nonnegative_int, default=None)
    p.add_argument("--out", default=None, help="per-seed results CSV")
    p.add_argument("--dump-lp", metavar="PREFIX", default=None,
                   help="write fractional solution to PREFIX_x.csv / PREFIX_y.csv")

    p = sub.add_parser("verify", help="run the property suites")
    p.add_argument("--suite", default="all", choices=(*verify_mod.SUITES, "all"))
    return parser


def _validated(inst) -> bool:
    """Print validate's warnings and errors; True when there is no error."""
    problems = validate(inst)
    for v in problems:
        print(f"warning: {v}" if v.severity != SEVERITY_ERROR else f"error: {v}",
              file=sys.stderr)
    return not errors_only(problems)


def _check_out_paths(*paths) -> None:
    """Raise OSError for an output file path that names a directory or lies in a missing one.

    Called before a command runs, so a run that cannot write its outputs
    prints no report.
    """
    for path in filter(None, paths):
        folder = os.path.dirname(path)
        if folder and not os.path.isdir(folder):
            raise FileNotFoundError(f"output directory does not exist: {folder}")
        if os.path.isdir(path):
            raise IsADirectoryError(f"output path is a directory: {path}")


def _cmd_solve(args) -> int:
    if args.trace and args.algo != "bag":
        print("error: --trace is only meaningful with --algo bag", file=sys.stderr)
        return EXIT_USAGE
    _check_out_paths(args.out, args.trace)
    inst = load_instance(args.instance)
    if not _validated(inst):
        return EXIT_DATA
    seed = args.seed if args.seed is not None else default_seed()
    run = None
    t0 = time.perf_counter()
    if args.algo == "random":
        perm = random_order(inst, seed)
    elif args.algo == "greedy":
        perm = greedy(inst)
    elif args.algo == "ng":
        perm = normalized_greedy(inst)
    elif args.algo == "bag":
        cfg = BagConfig(ratio=args.ratio, drop_fraction=args.drop_fraction)
        perm, run = balanced_adaptive_greedy(inst, cfg)
    else:
        result = brute_force_opt(inst, args.node_limit)
        perm = result.permutation
        if not result.optimal:
            print("warning: node limit exceeded; result may be suboptimal",
                  file=sys.stderr)
    runtime_ms = (time.perf_counter() - t0) * 1000.0
    # the other rankers' public names return bare permutations, so cover_report scores them
    report = cover_report(inst, perm) if run is None else run.report
    print("permutation:", " ".join(str(e) for e in perm))
    print(f"minmax: {report.minmax:.6f}")
    print(f"average: {report.average:.6f}")
    print(f"runtime_ms: {runtime_ms:.3f}")
    if args.trace:
        write_trace_jsonl(run, args.trace)
    if args.out:
        doc = {
            "permutation": list(perm),
            "minmax": report.minmax,
            "average": report.average,
            "agent_costs": list(report.agent_costs),
        }
        with open(args.out, "w") as fh:
            fh.write(dumps(doc))
    return EXIT_OK


def _require(args, names) -> None:
    missing = [n for n in names if getattr(args, n) is None]
    if missing:
        raise InstanceFormatError(
            f"family {args.family!r} needs --" + ", --".join(missing)
        )


def _cmd_generate(args) -> int:
    _check_out_paths(args.out)
    seed = args.seed if args.seed is not None else default_seed()
    if args.family == "hard":
        _require(args, ["k"])
        inst = hard_family(args.k, args.delta)
    elif args.family == "coverage":
        _require(args, ["n", "k", "m"])
        inst = random_coverage_instance(args.n, args.k, args.m, seed)
    else:
        _require(args, ["n", "k", "m"])
        inst = gmsc_mod.random_gmsc_instance(args.n, args.k, args.m, seed)
    save_instance(inst, args.out)
    print(f"wrote {args.out}")
    return EXIT_OK


def _cmd_experiment(args) -> int:
    with open(args.config) as fh:
        doc = load_json(fh)
    cfg = ExperimentConfig.from_doc(doc)
    if cfg.dataset and not os.path.exists(cfg.dataset):
        print(f"error: dataset path does not exist: {cfg.dataset}", file=sys.stderr)
        return EXIT_DATA
    results_path = os.path.join(args.out, "results.csv")
    summary_path = os.path.join(args.out, "summary.csv")
    # only checked here: the directory is made once the sweep has rows to write
    if os.path.isdir(args.out):
        _check_out_paths(results_path, summary_path)
    elif os.path.exists(args.out):
        raise NotADirectoryError(f"output path is not a directory: {args.out}")
    results = sweep(cfg, jobs=args.jobs)
    if not results.rows:
        print("error: no sweep cell succeeded", file=sys.stderr)
        return EXIT_DATA
    os.makedirs(args.out, exist_ok=True)
    results.write_csv(results_path)
    results.write_summary_csv(summary_path)
    print(f"wrote {results_path} ({len(results.rows)} rows) and {summary_path}")
    return EXIT_OK


def _cmd_gmsc_bench(args) -> int:
    base = args.seed_base if args.seed_base is not None else default_seed()
    if base < 0:  # rounding seeds feed np.random.SeedSequence
        raise ValueError(f"SUBRANK_SEED must be non-negative for gmsc-bench, got {base}")
    lp_paths = (f"{args.dump_lp}_x.csv", f"{args.dump_lp}_y.csv") if args.dump_lp else ()
    _check_out_paths(args.out, *lp_paths)
    inst = load_instance(args.instance)
    # a function that is not unit-weight gmsc is one error line, before validate's warnings
    list(gmsc_mod.gmsc_sets(inst))
    if not _validated(inst):
        return EXIT_DATA
    sol = gmsc_mod.solve_lp(inst)
    if not sol.converged:
        print("warning: cut cap reached; bound may be loose", file=sys.stderr)
    print(f"T*: {sol.T_star:.6f}  cuts: {len(sol.cuts)}  rounds: {sol.rounds}  "
          f"iterations: {sol.iterations}")
    envelope = gmsc_mod.rounding_envelope(len(inst.agents), sol.T_star)
    # Imported at call time on purpose: perfbench's traced run replaces
    # subrank.core.objective after subrank.cli is imported, and only a
    # call-time import picks up that hook. A module-level import would bind
    # the untraced function, and core.objective.* would read 0 on gmsc-lp.
    from subrank.core import objective as eval_objective

    rows = []
    within = 0
    seeds = range(base, base + args.seeds)
    for s, perm in zip(seeds, gmsc_mod.gmsc_schedules(inst, seeds, sol)):
        cost = eval_objective(inst, perm, "minmax")
        ratio = cost / sol.T_star if sol.T_star > 0 else float("inf")
        rows.append((s, cost, ratio))
        if cost <= envelope:
            within += 1
    mean_cost = sequential_sum(c for _, c, _ in rows) / len(rows)
    print(f"seeds: {args.seeds}  mean max-agent cost: {mean_cost:.6f}")
    print(f"within proven envelope ({envelope:.1f}): {within}/{args.seeds}")
    if args.out:
        with open(args.out, "w") as fh:
            fh.write("seed,max_agent_cost,ratio_to_Tstar\n")
            for s, cost, ratio in rows:
                fh.write(f"{s},{cost!r},{ratio!r}\n")
        print(f"wrote {args.out}")
    if lp_paths:
        gmsc_mod.write_fractional_csv(sol, *lp_paths)
        print(f"wrote {lp_paths[0]} and {lp_paths[1]}")
    return EXIT_OK


def _cmd_verify(args) -> int:
    results = verify_mod.run_suite(args.suite)
    for r in results:
        print(r.line())
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} checks passed")
    return EXIT_VERIFY if failed else EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "solve": _cmd_solve,
        "generate": _cmd_generate,
        "experiment": _cmd_experiment,
        "gmsc-bench": _cmd_gmsc_bench,
        "verify": _cmd_verify,
    }
    try:
        return handlers[args.command](args)
    except (InstanceFormatError, ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except MemoryError as exc:  # e.g. an instance whose n is too large to hold
        print(f"error: out of memory {exc}".rstrip(), file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
