"""The three benchmark workloads: their inputs, ops and output checks.

Every op is one ``subrank`` command line run in-process through
``subrank.cli.main``. Inputs are made through the same CLI
(``subrank generate``) or written as sweep config files, so the program
only ever sees generated files.

A run's inputs come from input set ``seed % POOL``. Each input set's
outputs were recorded at the commit that added the benchmark
(``goldens/<workload>.json``) and every op is checked against them.

Why these workloads:

- ``odt-sweep``: all K agents share the same M decision-table oracles, and
  tuning BAG's ratio is most of a cell, so it drives the selection loop, the
  marginal-gain kernel and ``cover_report``. The skewed cells separate
  oracle sharing (K >> M) from many distinct oracles (M >> K).
- ``gmsc-lp``: nearly all time is in the LP solve; it never touches the
  ranking kernel. The instance files are fixed, because LP time varies
  about fivefold between random instances of one size and that spread would
  swamp any change; the seed picks the rounding streams.
- ``file-solve``: reads and writes instance files, so loading and
  validation are a real share of each op; every agent owns distinct
  multi-item coverage oracles, so the selection kernel runs with nothing
  shared between agents.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
import os
import statistics
from dataclasses import dataclass, field

POOL = 32
GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "goldens")


@dataclass(frozen=True)
class Op:
    """One CLI call of a workload's rotation."""

    key: str  # golden key; names the inputs, so equal keys mean equal outputs
    argv: tuple
    out: str  # file the op writes and the check reads
    info: dict = field(default_factory=dict)


def _write_json(path: str, doc) -> None:
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


class Workload:
    name = ""

    def generate(self, cli_main, work: str, pool: int, smoke: bool) -> list:
        """Write the inputs into work and return the rotation's ops."""
        raise NotImplementedError

    def parse(self, op: Op, stderr: str):
        """The op's output in a JSON-comparable form."""
        raise NotImplementedError

    def golden(self, output):
        """The part of a correct output that later runs must reproduce."""
        return output

    def check(self, op: Op, output, golden) -> str:
        """Why output is wrong, or '' when it is right."""
        raise NotImplementedError

    def cost_ratio(self, ops: list, outputs: list) -> float:
        raise NotImplementedError


def _generate(cli_main, argv: list) -> None:
    rc = cli_main(["generate", *argv])
    if rc != 0:
        raise RuntimeError(f"subrank generate {' '.join(argv)} exited {rc}")


class OdtSweep(Workload):
    name = "odt-sweep"
    CELLS = {False: ((20, 20), (50, 50), (100, 10), (10, 100)), True: ((4, 4), (6, 3), (3, 6))}
    # The harness's default synthetic table (600 x 22, MFCC-like width).
    TABLE = {"rows": 600, "cols": 22, "values": 10, "seed": 20}
    COLUMNS = ("ratio", "objective_minmax", "objective_avg")

    def generate(self, cli_main, work, pool, smoke):
        ops = []
        for K, M in self.CELLS[smoke]:
            config = os.path.join(work, f"odt-K{K}-M{M}.json")
            _write_json(config, {"K": [K], "M": [M], "seeds": [pool], "synthetic": self.TABLE})
            out = os.path.join(work, f"odt-K{K}-M{M}")
            ops.append(Op(f"p{pool}/K{K}-M{M}", ("experiment", "--config", config, "--out", out),
                          os.path.join(out, "results.csv")))
        return ops

    def parse(self, op, stderr):
        # Columns are picked by header name so added columns (such as a
        # split of runtime_ms) leave the check intact.
        rows = []
        with open(op.out, newline="") as fh:
            for row in csv.DictReader(fh):
                values = [float(row[c]) if row[c] != "" else None for c in self.COLUMNS]
                rows.append([row["algorithm"], int(row["K"]), int(row["M"]), int(row["seed"]), *values])
        return rows

    def check(self, op, output, golden):
        for got, want in itertools.zip_longest(output, golden):
            if got != want:
                return f"result row {got!r} != golden {want!r}"
        return ""

    def cost_ratio(self, ops, outputs):
        """Mean over cells of tuned-BAG min-max cost over NG min-max cost."""
        ratios = []
        for rows in outputs:
            minmax = {r[0]: r[5] for r in rows}
            ratios.append(minmax["bag"] / minmax["ng"])
        return statistics.fmean(ratios)


class GmscLp(Workload):
    name = "gmsc-lp"
    AGENTS, SETS_PER_AGENT, ROUNDING_SEEDS = 4, 2, 20
    # (n, generator seeds); the same files for every run, see module doc.
    SIZES = {False: ((12, (0, 1, 2, 3)), (16, (0, 1, 2, 3))), True: ((5, (0, 1)), (6, (0, 1)))}
    T_STAR_RTOL = 1e-6

    def generate(self, cli_main, work, pool, smoke):
        ops = []
        seed_base = pool * self.ROUNDING_SEEDS
        for n, seeds in self.SIZES[smoke]:
            for s in seeds:
                inst = os.path.join(work, f"gmsc-n{n}-s{s}.json")
                _generate(cli_main, ["--family", "gmsc", "--n", str(n), "--k", str(self.AGENTS),
                                     "--m", str(self.SETS_PER_AGENT), "--seed", str(s), "--out", inst])
                out = os.path.join(work, f"gmsc-n{n}-s{s}.csv")
                ops.append(Op(f"n{n}-s{s}", ("gmsc-bench", "--instance", inst,
                                             "--seeds", str(self.ROUNDING_SEEDS),
                                             "--seed-base", str(seed_base), "--out", out),
                              out, {"seed_base": seed_base}))
        return ops

    def parse(self, op, stderr):
        with open(op.out, newline="") as fh:
            rows = [(int(r["seed"]), float(r["max_agent_cost"]), float(r["ratio_to_Tstar"]))
                    for r in csv.DictReader(fh)]
        return {
            "T_star": statistics.median(cost / ratio for _, cost, ratio in rows),
            "seeds": [s for s, _, _ in rows],
            "costs": [c for _, c, _ in rows],
            "ratios": [r for _, _, r in rows],
        }

    def golden(self, output):
        return output["T_star"]

    def check(self, op, output, golden):
        """T* against the golden; rounded costs only against the proven envelope.

        Rounding permutations are not compared: another LP optimum may move
        x, and cost_ratio tracks what that does to quality.
        """
        t_star = output["T_star"]
        if not math.isclose(t_star, golden, rel_tol=self.T_STAR_RTOL):
            return f"T* {t_star!r} != golden {golden!r}"
        base = op.info["seed_base"]
        if output["seeds"] != list(range(base, base + self.ROUNDING_SEEDS)):
            return f"rounding seeds {output['seeds']} != {base}..{base + self.ROUNDING_SEEDS - 1}"
        envelope = 1024.0 * max(math.log2(self.AGENTS), 1.0) * t_star
        for cost in output["costs"]:
            # The LP is a relaxation, so no schedule beats T*.
            if not t_star * (1 - self.T_STAR_RTOL) <= cost <= envelope:
                return f"rounded cost {cost!r} outside [T*={t_star!r}, {envelope!r}]"
        return ""

    def cost_ratio(self, ops, outputs):
        """Mean rounded max-agent cost over T*, over every instance and seed."""
        return statistics.fmean(r for out in outputs for r in out["ratios"])


class FileSolve(Workload):
    name = "file-solve"
    # (n, k, m) of weighted-coverage files; brute force runs on the small ones.
    # Four small files of each size: the optimum's gap varies a lot from file
    # to file, and cost_ratio needs that many to repeat within a few percent.
    LARGE = {False: ((40, 20, 10), (50, 25, 10), (60, 30, 10)), True: ((12, 4, 3),)}
    SMALL = {
        False: ((8, 4, 3), (8, 5, 2), (9, 4, 3), (9, 6, 2), (10, 4, 3), (10, 6, 2)) * 4,
        True: ((5, 3, 2), (6, 3, 2)),
    }
    HARD_K = {False: 16, True: 4}
    HEURISTICS = ("greedy", "ng", "bag")

    def generate(self, cli_main, work, pool, smoke):
        files = []  # (name, path, algos)
        sizes = [(size, False) for size in self.LARGE[smoke]] + [(size, True) for size in self.SMALL[smoke]]
        for j, ((n, k, m), small) in enumerate(sizes):
            name = f"cov{j}-n{n}-k{k}-m{m}"
            path = os.path.join(work, name + ".json")
            _generate(cli_main, ["--family", "coverage", "--n", str(n), "--k", str(k),
                                 "--m", str(m), "--seed", str(100 * pool + j), "--out", path])
            files.append((name, path, self.HEURISTICS + (("brute",) if small else ())))
        hard = os.path.join(work, "hard.json")
        _generate(cli_main, ["--family", "hard", "--k", str(self.HARD_K[smoke]), "--out", hard])
        files.append((f"hard-k{self.HARD_K[smoke]}", hard, self.HEURISTICS))
        ops = []
        for name, path, algos in files:
            for algo in algos:
                out = os.path.join(work, f"{name}.{algo}.out.json")
                ops.append(Op(f"p{pool}/{name}/{algo}",
                              ("solve", "--instance", path, "--algo", algo, "--out", out),
                              out, {"file": name, "algo": algo}))
        return ops

    def parse(self, op, stderr):
        with open(op.out) as fh:
            doc = json.load(fh)
        output = {"permutation": doc["permutation"], "minmax": doc["minmax"], "average": doc["average"]}
        if op.info["algo"] == "brute":
            output["optimal"] = "node limit exceeded" not in stderr
        return output

    def check(self, op, output, golden):
        if output.get("optimal") is False:
            return "brute force hit its node limit; the optimum is unproven"
        for key in ("permutation", "minmax", "average"):
            if output[key] != golden[key]:
                return f"{key} {output[key]!r} != golden {golden[key]!r}"
        return ""

    def cost_ratio(self, ops, outputs):
        """Mean over small files and heuristics of min-max cost over the optimum."""
        best = {op.info["file"]: out["minmax"] for op, out in zip(ops, outputs)
                if op.info["algo"] == "brute"}
        return statistics.fmean(out["minmax"] / best[op.info["file"]]
                                for op, out in zip(ops, outputs)
                                if op.info["file"] in best and op.info["algo"] != "brute")


WORKLOADS = {w.name: w for w in (OdtSweep(), GmscLp(), FileSolve())}


def golden_path(workload: str) -> str:
    return os.path.join(GOLDEN_DIR, f"{workload}.json")


def load_goldens(workload: str, smoke: bool) -> dict:
    path = golden_path(workload)
    if not os.path.exists(path):
        return {}
    with open(path) as fh:
        return json.load(fh).get("smoke" if smoke else "full", {})
