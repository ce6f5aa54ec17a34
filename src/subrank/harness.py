"""Dataset ingestion, instance construction, and parameter sweeps.

A data table's columns become the ground set and its rows the hypotheses;
each agent distinguishes one hidden row. Building an instance samples M
distinct rows (shared by all agents) and gives every agent its own weight
vector drawn uniformly from [1, 100]. Sweeps run the four ranking
algorithms over a (K, M) grid of cells and a list of seeds, recording both
the max and the average agent cost, and tune the baseline-decay ratio of
balanced adaptive greedy per instance over a fixed grid. The tuning time
(tune_ms) is recorded apart from the final run's time (runtime_ms).
Every row, and every run of tuning, takes its objectives from its
algorithms.Run's report. The random row's Run calls cover_report; the
greedy, NG, tuning and bag runs build theirs from their kernels' cover
times, which equal it bit for bit.

Sources: a config names a dataset CSV or a synthetic spec, not both; with
neither, the cells sample DEFAULT_SYNTHETIC_ODT. _SYNTHETIC gives each
synthetic family's builder, keys and defaults. Unknown keys are errors,
and so is K or M in a config doc with a family spec ("hard" or
"coverage"), whose instance sets its own agents and functions. A sweep
resolves its source once: a table, whose (K, M) cells each sample their
own instance, or a family spec's one instance, which is one cell. A
fault of the source stops the sweep; a fault of one cell is logged and
the cell skipped.

Seeding: one master seed per (cell, run) splits into independent streams
for row sampling, weight sampling, and the random baseline, via
numpy SeedSequence spawn keys.
"""

from __future__ import annotations

import csv
import functools
import logging
import math
import time
from dataclasses import dataclass, field, fields
from typing import Optional, Sequence

import numpy as np

from subrank.core import Agent, Instance, cover_report, sequential_sum
from subrank.functions import OdtTable, hard_family, odt_function, random_coverage_instance
from subrank.instance_io import is_integer, is_number, write_csv
from subrank.algorithms import (
    BagConfig,
    Run,
    _bag_runs,
    _greedy_run,
    balanced_adaptive_greedy,
    random_order,
)

log = logging.getLogger(__name__)

DEFAULT_MAX_VALUES = 10
DEFAULT_RATIO_GRID = tuple(round(0.05 * i, 2) for i in range(1, 20))  # 0.05..0.95
OBJECTIVES = ("minmax", "average")
WEIGHT_LOW, WEIGHT_HIGH = 1.0, 100.0

EXPECTED_DATASET_SHAPES = {
    "mfcc": (7195, 22),
    "pppts": (45730, 9),
    "ctg": (2126, 23),
}

# The synthetic table's keys and defaults (MFCC-like width): the stand-in for
# a config with no source, and the keys a partial table spec leaves out.
DEFAULT_SYNTHETIC_ODT = {"rows": 600, "cols": 22, "values": 10, "seed": 20}


@dataclass(frozen=True)
class DataTable:
    columns: tuple
    values: np.ndarray  # shape (rows, cols), float
    dropped_rows: int = 0

    @property
    def shape(self) -> tuple:
        return (self.values.shape[0], self.values.shape[1])


def ingest(path: str) -> DataTable:
    """Parse a headered CSV of finite numeric cells; rows with bad cells are dropped.

    A bad cell is one that does not parse as a float or parses to nan or
    +-inf (float() accepts "nan" and "inf", but one nan would turn every
    quantile edge of its column to nan in discretize). Each dropped row is
    counted in dropped_rows and logged with its line number.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: no rows") from None
        rows = []
        dropped = 0
        for lineno, raw in enumerate(reader, start=2):
            if not raw or all(not cell.strip() for cell in raw):
                continue
            if len(raw) != len(header):
                dropped += 1
                log.warning("%s line %d: %d cells, expected %d; row dropped",
                            path, lineno, len(raw), len(header))
                continue
            try:
                row = [float(cell) for cell in raw]
            except ValueError:
                dropped += 1
                log.warning("%s line %d: non-numeric cell; row dropped", path, lineno)
                continue
            if not all(map(math.isfinite, row)):
                dropped += 1
                log.warning("%s line %d: non-finite cell; row dropped", path, lineno)
                continue
            rows.append(row)
    if not rows:
        raise ValueError(f"{path}: no rows")
    return DataTable(
        columns=tuple(header), values=np.asarray(rows, dtype=float), dropped_rows=dropped
    )


def discretize(table: DataTable, max_values: int = DEFAULT_MAX_VALUES) -> DataTable:
    """Cap every column at max_values distinct values.

    Columns already small enough pass through unchanged; the rest get
    equal-frequency quantile bins labeled 0..max_values-1. Deterministic
    given the column.
    """
    out = table.values.copy()
    for c in range(out.shape[1]):
        col = out[:, c]
        if np.unique(col).size <= max_values:
            continue
        edges = np.quantile(col, [i / max_values for i in range(1, max_values)])
        out[:, c] = np.searchsorted(edges, col, side="right").astype(float)
    return DataTable(columns=table.columns, values=out, dropped_rows=table.dropped_rows)


def synthetic_table(rows: int, cols: int, values: int, seed: int) -> DataTable:
    """Clustered discrete table standing in for a real dataset.

    Rows are noisy copies of a few cluster centers, so same-cluster rows
    agree on most columns and telling them apart takes several tests, like
    discretized real data; iid-uniform tables would be separable in one or
    two columns.
    """
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(101,)))
    n_clusters = max(2, rows // 50)
    centers = rng.integers(0, values, size=(n_clusters, cols))
    assignment = rng.integers(0, n_clusters, size=rows)
    data = centers[assignment].astype(float)
    mutate = rng.random(size=(rows, cols)) < 0.15
    data[mutate] = rng.integers(0, values, size=int(mutate.sum())).astype(float)
    return DataTable(columns=tuple(f"c{j}" for j in range(1, cols + 1)), values=data)


# Each synthetic family's builder and its keys' defaults, None for a key the
# spec must give. A spec without "family" builds the table the cells sample.
_SYNTHETIC = {
    None: (synthetic_table, DEFAULT_SYNTHETIC_ODT),
    "hard": (hard_family, {"k": None, "delta": 0.01}),
    "coverage": (random_coverage_instance, {"n": None, "k": None, "m": None, "seed": 0}),
}


def _synthetic(spec) -> tuple:
    """(builder, params) of a synthetic spec; the source is builder(**params).

    Raises ValueError naming the spec's first bad family, key or value.
    """
    if not isinstance(spec, dict):
        raise ValueError(f"config 'synthetic' must be an object, got {spec!r}")
    family = spec.get("family")
    if "family" in spec and not (isinstance(family, str) and family in _SYNTHETIC):
        raise ValueError(f"unknown synthetic family {family!r}")
    builder, defaults = _SYNTHETIC[family]
    params = {key: value for key, value in spec.items() if key != "family"}
    unknown = [key for key in params if key not in defaults]
    if unknown:
        raise ValueError(f"config 'synthetic' key {unknown[0]!r} is not one of "
                         + ", ".join(map(repr, defaults)))
    missing = [key for key, value in defaults.items() if value is None and key not in params]
    if missing:
        raise ValueError(f"synthetic family {family!r} needs " + ", ".join(map(repr, missing)))
    for key, value in params.items():
        if key == "delta" and not is_number(value):
            raise ValueError(f"synthetic 'delta' must be a number, got {value!r}")
        least = 0 if key == "seed" else 1  # every other key is a size
        if key != "delta" and not (is_integer(value) and value >= least):
            raise ValueError(f"synthetic {key!r} must be an integer >= {least}, got {value!r}")
    return builder, {**defaults, **params}


def _streams(seed: int):
    rows_rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(1,)))
    weight_rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(2,)))
    algo_seed = int(
        np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(3,))).integers(2**31)
    )
    return rows_rng, weight_rng, algo_seed


def build_instance(table: DataTable, K: int, M: int, seed: int) -> Instance:
    """Sample M distinct hypothesis rows and weight them per agent.

    All agents share the same M row-identification functions over all
    columns; weights are per-agent uniform on [1, 100]. Duplicate row
    vectors trigger a resample (up to 100 tries).
    """
    n_rows = table.values.shape[0]
    if M > n_rows:
        raise ValueError(f"M={M} exceeds row count {n_rows}")
    rows_rng, weight_rng, _ = _streams(seed)
    chosen = None
    for _ in range(100):
        idx = rows_rng.choice(n_rows, size=M, replace=False)
        candidate = tuple(map(tuple, table.values[idx].tolist()))
        if len(set(candidate)) == M:
            chosen = candidate
            break
    if chosen is None:
        raise ValueError("rows not distinguishable after 100 resamples")
    odt = OdtTable(rows=chosen)
    oracles = [odt_function(odt, j) for j in range(1, M + 1)]
    # one draw of K x M gives the bits of K draws of M, agent by agent
    weights = weight_rng.uniform(WEIGHT_LOW, WEIGHT_HIGH, size=(K, M)).tolist()
    agents = tuple(Agent(id=i, functions=tuple(zip(oracles, row)))
                   for i, row in enumerate(weights, start=1))
    return Instance(n=table.values.shape[1], agents=agents)


def tune_ratio(
    inst: Instance,
    grid: Sequence[float] = DEFAULT_RATIO_GRID,
    mode: str = "minmax",
):
    """Best baseline-decay ratio for balanced adaptive greedy on one instance.

    Returns (ratio, objective) for mode "minmax" or "average"; ties go to
    the smaller ratio. Grid values outside (0, 1) are dropped since the
    baseline must decay strictly. All ratios run in one lockstep pass that
    shares their common picks (algorithms._bag_runs), and each run is
    scored by its own report, which its kernel recorded (equal to
    cover_report of its permutation). Raises ValueError as cover_report
    does when some f(U) < 1.
    """
    if mode not in OBJECTIVES:
        raise ValueError(f"unknown objective {mode!r}; expected one of {', '.join(OBJECTIVES)}")
    usable = sorted(r for r in grid if 0.0 < r < 1.0)
    if not usable:
        raise ValueError("ratio grid is empty after filtering endpoints")
    best = None
    for r, run in zip(usable, _bag_runs(inst, usable, BagConfig().drop_fraction)):
        report = run.report
        value = report.minmax if mode == "minmax" else report.average
        if best is None or value < best[1]:
            best = (r, value)
    return best


def _repeated(values: Sequence):
    """The first of values that equals an earlier one, or None."""
    seen = set()
    for value in values:
        if value in seen:
            return value
        seen.add(value)
    return None


@dataclass(frozen=True)
class ExperimentConfig:
    """One sweep: dataset or synthetic source, (K, M) cells, seeds.

    synthetic is a spec whose keys and defaults _SYNTHETIC gives per
    family. With neither a dataset nor a synthetic spec, cells sample
    DEFAULT_SYNTHETIC_ODT. A family spec is one instance and one cell:
    the sweep ignores K, M and pair_km for it (from_doc rejects K or M
    given with one). A source that cannot be built stops the sweep; a
    cell that fails on its data is skipped.
    """

    K: tuple
    M: tuple
    seeds: tuple
    ratio_grid: tuple = DEFAULT_RATIO_GRID
    objective: str = "minmax"
    dataset: Optional[str] = None  # CSV path
    synthetic: Optional[dict] = None  # table spec or family spec
    pair_km: bool = False  # zip K with M instead of the full product
    max_values: int = DEFAULT_MAX_VALUES

    def cells(self):
        if self.pair_km:
            return list(zip(self.K, self.M))
        return [(k, m) for k in self.K for m in self.M]

    @staticmethod
    def from_doc(doc) -> "ExperimentConfig":
        """Config from a parsed JSON document.

        Raises ValueError naming the first unknown key or field of the
        wrong type or range, when both dataset and synthetic are given,
        when K or M comes with a family spec, whose instance sets its own,
        or naming a repeated seed or (K, M) cell.
        """
        if not isinstance(doc, dict):
            raise ValueError(f"config must be a JSON object, not {type(doc).__name__}")
        known = [f.name for f in fields(ExperimentConfig)]
        unknown = [key for key in doc if key not in known]
        if unknown:
            raise ValueError(f"config key {unknown[0]!r} is not one of "
                             + ", ".join(map(repr, known)))

        def ints(key, default, least):
            value = doc.get(key, default)
            values = tuple(value) if isinstance(value, list) else (value,)
            if not values or not all(is_integer(v) and v >= least for v in values):
                raise ValueError(f"config {key!r} must be an integer >= {least} "
                                 f"or a nonempty list of them, got {value!r}")
            return values

        grid = doc.get("ratio_grid", list(DEFAULT_RATIO_GRID))
        if not (isinstance(grid, list) and all(is_number(r) for r in grid)
                and any(0 < r < 1 for r in grid)):
            raise ValueError(f"config 'ratio_grid' must be a list of numbers with "
                             f"at least one in (0, 1), got {grid!r}")
        objective = doc.get("objective", "minmax")
        if objective not in OBJECTIVES:
            raise ValueError(f"config 'objective' must be one of {', '.join(OBJECTIVES)}, "
                             f"got {objective!r}")
        dataset = doc.get("dataset")
        if dataset is not None and not isinstance(dataset, str):
            raise ValueError(f"config 'dataset' must be a CSV path, got {dataset!r}")
        synthetic = doc.get("synthetic")
        if synthetic is not None:
            builder, _ = _synthetic(synthetic)
            if dataset is not None:
                raise ValueError("config gives both 'dataset' and 'synthetic'; give one")
            sized = [key for key in ("K", "M") if key in doc]
            if builder is not synthetic_table and sized:
                raise ValueError(f"config gives {' and '.join(map(repr, sized))} with synthetic "
                                 f"family {synthetic['family']!r}, which sets its own agents "
                                 f"and functions")
        max_values = doc.get("max_values", DEFAULT_MAX_VALUES)
        if not (is_integer(max_values) and max_values >= 1):
            raise ValueError(f"config 'max_values' must be an integer >= 1, got {max_values!r}")
        K, M = ints("K", 10, 1), ints("M", 10, 1)
        pair_km = doc.get("pair_km", False)
        if not isinstance(pair_km, bool):
            raise ValueError(f"config 'pair_km' must be true or false, got {pair_km!r}")
        if pair_km and len(K) != len(M):
            raise ValueError(f"config 'pair_km' needs K and M of equal length, "
                             f"got {len(K)} and {len(M)}")
        cfg = ExperimentConfig(
            K=K,
            M=M,
            seeds=ints("seeds", [0, 1, 2, 3], 0),
            ratio_grid=tuple(grid),
            objective=objective,
            dataset=dataset,
            synthetic=synthetic,
            pair_km=pair_km,
            max_values=max_values,
        )
        # a repeat would run its cell or seed again and write its rows twice
        seed = _repeated(cfg.seeds)
        if seed is not None:
            raise ValueError(f"config 'seeds' repeats {seed!r}")
        cell = _repeated(cfg.cells())
        if cell is not None:
            raise ValueError(f"config repeats the cell K={cell[0]} M={cell[1]}")
        return cfg


@dataclass(frozen=True)
class ResultRow:
    algorithm: str
    K: int
    M: int
    ratio: Optional[float]
    seed: int
    objective_minmax: float
    objective_avg: float
    runtime_ms: float  # the final run only
    tune_ms: Optional[float] = None  # ratio tuning before it (bag only)


@dataclass
class ResultTable:
    rows: list = field(default_factory=list)

    CSV_HEADER = "algorithm,K,M,ratio,seed,objective_minmax,objective_avg,tune_ms,runtime_ms"
    SUMMARY_HEADER = "algorithm,K,M,seeds,objective_minmax,objective_avg,tune_ms,runtime_ms"

    def write_csv(self, path: str) -> None:
        write_csv(path, self.CSV_HEADER, map(vars, self.rows))

    def summary(self) -> list:
        """Mean objectives per (algorithm, K, M), averaged over seeds."""
        groups = {}
        for r in self.rows:
            groups.setdefault((r.algorithm, r.K, r.M), []).append(r)

        def mean(rows: list, column: str) -> float:
            return sequential_sum(getattr(r, column) for r in rows) / len(rows)

        out = []
        for (algo, k, m), rows in sorted(groups.items()):
            out.append(
                {
                    "algorithm": algo,
                    "K": k,
                    "M": m,
                    "seeds": len(rows),
                    "objective_minmax": mean(rows, "objective_minmax"),
                    "objective_avg": mean(rows, "objective_avg"),
                    "tune_ms": None if rows[0].tune_ms is None else mean(rows, "tune_ms"),
                    "runtime_ms": mean(rows, "runtime_ms"),
                }
            )
        return out

    def write_summary_csv(self, path: str) -> None:
        write_csv(path, self.SUMMARY_HEADER, self.summary())


def _source(cfg: ExperimentConfig) -> DataTable | Instance:
    """The sweep's source, built once: the discretized table or a family's Instance.

    Raises as ingest, discretize or the family's builder does.
    """
    if cfg.dataset:
        return discretize(ingest(cfg.dataset), cfg.max_values)
    builder, params = _synthetic({} if cfg.synthetic is None else cfg.synthetic)
    source = builder(**params)
    return discretize(source, cfg.max_values) if builder is synthetic_table else source


_ALGO_ORDER = {"random": 0, "greedy": 1, "ng": 2, "bag": 3}


def _sweep_cell(cfg: ExperimentConfig, source: DataTable | Instance, K: int, M: int, seed: int):
    inst = source if isinstance(source, Instance) else build_instance(source, K, M, seed)
    _, _, algo_seed = _streams(seed)
    rows = []

    def random_run():
        perm = random_order(inst, algo_seed)
        return Run(perm, functools.partial(cover_report, inst, perm))  # the reference evaluator

    # each run's report is built when read, after the clock stops
    baselines = [
        ("random", random_run),
        ("greedy", functools.partial(_greedy_run, inst, False)),
        ("ng", functools.partial(_greedy_run, inst, True)),
    ]
    for name, runner in baselines:
        t0 = time.perf_counter()
        run = runner()
        ms = (time.perf_counter() - t0) * 1000.0
        report = run.report
        rows.append(ResultRow(name, K, M, None, seed, report.minmax, report.average, ms))
    t0 = time.perf_counter()
    ratio, _ = tune_ratio(inst, cfg.ratio_grid, cfg.objective)
    t1 = time.perf_counter()
    _, run = balanced_adaptive_greedy(inst, BagConfig(ratio=ratio))
    ms = (time.perf_counter() - t1) * 1000.0
    report = run.report
    rows.append(ResultRow("bag", K, M, ratio, seed,
                          report.minmax, report.average, ms, (t1 - t0) * 1000.0))
    return rows


def _cell_outcome(task: tuple):
    """The rows of one sweep cell (cfg, source, K, M, seed), or the text of its ValueError."""
    try:
        return _sweep_cell(*task)
    except ValueError as exc:
        return str(exc)


def sweep(cfg: ExperimentConfig, jobs: int = 1) -> ResultTable:
    """Run Random / Greedy / NG / tuned BAG over every (cell, seed).

    The source is resolved once, before any cell runs. A table's cells are
    cfg.cells(); a family spec is one instance and so one cell, (its agent
    count, its most functions per agent), whatever cfg.K and cfg.M hold.
    A fault of the source (the dataset, the table or the family) raises
    and stops the sweep. Cells that fail on their data (ValueError, such
    as M above the table's row count or rows that cannot be told apart)
    are logged on one line each, in cell order, and skipped; any other
    error propagates. The tuned ratio targets cfg.objective; both
    objectives are recorded for every run. Cells are independent, so jobs
    > 1 fans them out over processes; every cell goes through
    _cell_outcome either way, and rows come back in a fixed canonical
    order. No more processes start than there are cells to run.
    """
    source = _source(cfg)
    if isinstance(source, Instance):
        cells = [(len(source.agents), max(len(a.functions) for a in source.agents))]
    else:
        cells = cfg.cells()
    tasks = [(cfg, source, K, M, seed) for K, M in cells for seed in cfg.seeds]
    workers = min(jobs, len(tasks))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(_cell_outcome, tasks))
    else:
        outcomes = map(_cell_outcome, tasks)
    rows = []
    for (_, _, K, M, seed), outcome in zip(tasks, outcomes):
        if isinstance(outcome, str):
            log.warning("cell K=%s M=%s seed=%s failed: %s; continuing", K, M, seed, outcome)
        else:
            rows.extend(outcome)
    rows.sort(key=lambda r: (r.K, r.M, r.seed, _ALGO_ORDER[r.algorithm]))
    return ResultTable(rows=rows)
