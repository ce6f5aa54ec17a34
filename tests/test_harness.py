"""Ingestion, discretization, instance construction, and sweeps."""

import csv
import inspect
import os

import numpy as np
import pytest

from subrank import algorithms, harness
from subrank.core import objective
from subrank.harness import (
    DEFAULT_RATIO_GRID,
    DEFAULT_SYNTHETIC_ODT,
    EXPECTED_DATASET_SHAPES,
    DataTable,
    ExperimentConfig,
    build_instance,
    discretize,
    ingest,
    sweep,
    synthetic_table,
    tune_ratio,
)
from subrank.algorithms import BagConfig, balanced_adaptive_greedy, greedy, normalized_greedy
from subrank.functions import OdtTable, hard_family


def write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


class TestIngest:
    def test_reports_shape(self, tmp_path):
        path = tmp_path / "data.csv"
        write_csv(path, ["a", "b", "c"], [[1, 2, 3], [4, 5, 6], [7, 8, 9], [1, 1, 1]])
        table = ingest(str(path))
        assert table.shape == (4, 3)
        assert table.columns == ("a", "b", "c")
        assert table.dropped_rows == 0

    def test_drops_and_counts_bad_rows(self, tmp_path):
        path = tmp_path / "data.csv"
        write_csv(path, ["a", "b"], [[1, 2], ["oops", 3], [4, 5], [6]])
        table = ingest(str(path))
        assert table.shape == (2, 2)
        assert table.dropped_rows == 2

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "NaN", "Infinity"])
    def test_non_finite_cells_drop_their_rows(self, bad, tmp_path, caplog):
        # 30 distinct values per column, so discretize bins every column; a
        # kept nan would make every quantile edge nan
        rows = [[(7 * i) % 30, (11 * i) % 30 + 0.5] for i in range(40)]
        clean, dirty = tmp_path / "clean.csv", tmp_path / "dirty.csv"
        write_csv(clean, ["a", "b"], rows)
        write_csv(dirty, ["a", "b"], rows[:5] + [[bad, 1]] + rows[5:20] + [[2, bad]] + rows[20:])
        got, want = ingest(str(dirty)), ingest(str(clean))
        assert (got.dropped_rows, want.dropped_rows) == (2, 0)
        assert np.array_equal(got.values, want.values)
        assert np.array_equal(discretize(got).values, discretize(want).values)
        assert [r.getMessage() for r in caplog.records] == [
            f"{dirty} line {lineno}: non-finite cell; row dropped" for lineno in (7, 23)]

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ValueError, match="no rows"):
            ingest(str(path))

    def test_header_only_rejected(self, tmp_path):
        path = tmp_path / "header.csv"
        path.write_text("a,b\n")
        with pytest.raises(ValueError, match="no rows"):
            ingest(str(path))

    @pytest.mark.parametrize("name,shape", sorted(EXPECTED_DATASET_SHAPES.items()))
    def test_real_dataset_shapes(self, name, shape):
        # runs only when the UCI CSVs are provided locally
        path = os.environ.get(f"SUBRANK_{name.upper()}")
        if not path or not os.path.exists(path):
            pytest.skip(f"set SUBRANK_{name.upper()} to the {name} CSV to enable")
        assert ingest(path).shape == shape


class TestDiscretize:
    def test_small_column_unchanged(self):
        values = np.array([[1.0], [2.0], [1.0], [3.0]])
        table = DataTable(columns=("x",), values=values)
        out = discretize(table)
        assert np.array_equal(out.values, values)

    def test_continuous_column_gets_exactly_ten_labels(self):
        rng = np.random.default_rng(0)
        values = rng.uniform(0, 1, size=(1000, 1))
        out = discretize(DataTable(columns=("x",), values=values))
        labels = np.unique(out.values[:, 0])
        assert labels.size == 10
        assert set(labels) <= set(float(v) for v in range(10))

    def test_every_column_capped(self):
        rng = np.random.default_rng(1)
        values = np.column_stack(
            [rng.uniform(0, 1, 500), rng.integers(0, 3, 500), rng.normal(size=500)]
        )
        out = discretize(DataTable(columns=("a", "b", "c"), values=values))
        for c in range(out.values.shape[1]):
            assert np.unique(out.values[:, c]).size <= 10

    def test_constant_column_allowed(self):
        values = np.ones((50, 1))
        out = discretize(DataTable(columns=("x",), values=values))
        assert np.unique(out.values[:, 0]).size == 1

    def test_deterministic(self):
        rng = np.random.default_rng(2)
        values = rng.uniform(0, 5, size=(300, 2))
        t = DataTable(columns=("a", "b"), values=values)
        assert np.array_equal(discretize(t).values, discretize(t).values)


class TestBuildInstance:
    def test_shape_epsilon_and_reuse(self):
        table = discretize(synthetic_table(200, 22, 10, 5))
        inst = build_instance(table, K=10, M=10, seed=3)
        assert inst.n == 22
        assert len(inst.agents) == 10
        assert all(len(a.functions) == 10 for a in inst.agents)
        assert inst.epsilon == pytest.approx(1.0 / 9.0)
        # all agents share the same oracles, each with its own weights
        first = [f for f, _ in inst.agents[0].functions]
        for agent in inst.agents[1:]:
            assert [f for f, _ in agent.functions] == first

    def test_weights_in_range(self):
        table = discretize(synthetic_table(100, 8, 10, 1))
        inst = build_instance(table, K=4, M=5, seed=0)
        weights = [w for a in inst.agents for _, w in a.functions]
        assert all(1.0 <= w <= 100.0 for w in weights)

    def test_same_seed_bitwise_identical_weights(self):
        table = discretize(synthetic_table(100, 8, 10, 1))
        a = build_instance(table, 3, 4, seed=9)
        b = build_instance(table, 3, 4, seed=9)
        assert [w for ag in a.agents for _, w in ag.functions] == [
            w for ag in b.agents for _, w in ag.functions
        ]

    def test_m_exceeding_rows_rejected(self):
        table = synthetic_table(5, 4, 10, 0)
        with pytest.raises(ValueError, match="exceeds row count"):
            build_instance(table, 2, 6, seed=0)

    def test_indistinguishable_rows_rejected(self):
        values = np.zeros((6, 3))  # all rows identical
        table = DataTable(columns=("a", "b", "c"), values=values)
        with pytest.raises(ValueError, match="not distinguishable"):
            build_instance(table, 2, 2, seed=0)


class TestTuneRatio:
    def test_singleton_grid_returns_it(self):
        inst = hard_family(9, 0.01)
        ratio, value = tune_ratio(inst, grid=(2.0 / 3.0,))
        assert ratio == 2.0 / 3.0
        perm, _ = balanced_adaptive_greedy(inst, BagConfig(ratio=ratio))
        assert value == objective(inst, perm, "minmax")

    def test_never_worse_than_default(self):
        inst = hard_family(16, 0.01)
        _, tuned = tune_ratio(inst)
        default_perm, _ = balanced_adaptive_greedy(inst)
        assert tuned <= objective(inst, default_perm, "minmax")

    def test_endpoints_filtered(self):
        inst = hard_family(9, 0.01)
        ratio, _ = tune_ratio(inst, grid=(0.0, 0.5, 1.0))
        assert ratio == 0.5
        with pytest.raises(ValueError):
            tune_ratio(inst, grid=(0.0, 1.0))

    def test_deterministic(self):
        inst = hard_family(9, 0.01)
        assert tune_ratio(inst) == tune_ratio(inst)

    def test_ties_go_to_smaller_ratio(self):
        inst = hard_family(9, 0.01)
        grid = (0.3, 0.5, 0.7)
        per_ratio = {}
        for r in grid:
            perm, _ = balanced_adaptive_greedy(inst, BagConfig(ratio=r))
            per_ratio[r] = objective(inst, perm, "minmax")
        best_value = min(per_ratio.values())
        expected = min(r for r, v in per_ratio.items() if v == best_value)
        assert tune_ratio(inst, grid=grid) == (expected, best_value)

    def test_unknown_objective_rejected(self):
        with pytest.raises(ValueError, match="unknown objective 'median'"):
            tune_ratio(hard_family(9, 0.01), mode="median")


def small_synthetic_cfg(**overrides):
    base = dict(
        K=(2,),
        M=(3,),
        seeds=(0, 1),
        synthetic={"rows": 80, "cols": 6, "values": 4, "seed": 3},
        ratio_grid=(0.3, 0.5, 0.7),
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestSweep:
    def test_row_counting(self):
        cfg = small_synthetic_cfg(K=(5, 10), M=(10,), seeds=(0, 1, 2, 3),
                                  synthetic={"rows": 120, "cols": 8, "values": 5, "seed": 1})
        res = sweep(cfg)
        assert len(res.rows) == 2 * 4 * 4  # cells x seeds x algorithms

    def test_summary_averages_exact_seed_count(self):
        cfg = small_synthetic_cfg()
        res = sweep(cfg)
        for row in res.summary():
            assert row["seeds"] == 2

    def test_rerun_identical_modulo_runtime(self):
        cfg = small_synthetic_cfg()
        a, b = sweep(cfg), sweep(cfg)
        assert _strip(a.rows) == _strip(b.rows)

    def test_hard_family_spec_keeps_known_gap(self):
        cfg = ExperimentConfig(
            K=(9,), M=(2,), seeds=(0,),
            synthetic={"family": "hard", "k": 9, "delta": 0.01},
            ratio_grid=(2.0 / 3.0,),
        )
        res = sweep(cfg)
        by_algo = {r.algorithm: r for r in res.rows}
        assert by_algo["bag"].objective_minmax == 17.0
        assert by_algo["ng"].objective_minmax == 33.0
        assert by_algo["bag"].K == 9

    def test_pair_km_zips_cells(self):
        cfg = small_synthetic_cfg(K=(2, 3), M=(3, 4), pair_km=True, seeds=(0,))
        res = sweep(cfg)
        cells = {(r.K, r.M) for r in res.rows}
        assert cells == {(2, 3), (3, 4)}

    def test_failing_cells_are_skipped(self, caplog):
        cfg = small_synthetic_cfg(synthetic={"family": "hard", "k": 5})  # invalid k
        res = sweep(cfg)
        assert res.rows == []

    def test_programming_errors_propagate(self, monkeypatch):
        def broken(*args):
            raise TypeError("not a data error")

        monkeypatch.setattr(harness, "build_instance", broken)
        with pytest.raises(TypeError, match="not a data error"):
            sweep(small_synthetic_cfg())

    def test_default_table_when_no_source_given(self):
        doc = {"K": [2], "M": [3], "seeds": [0], "ratio_grid": [0.5]}
        cfg = ExperimentConfig.from_doc(doc)
        assert harness._source_table(cfg).shape == (600, 22)
        explicit = ExperimentConfig.from_doc({**doc, "synthetic": DEFAULT_SYNTHETIC_ODT})
        rows = sweep(cfg).rows
        assert len(rows) == 4 and _strip(rows) == _strip(sweep(explicit).rows)

    def test_empty_synthetic_spec_is_the_default_table(self):
        doc = {"K": [2], "M": [3], "seeds": [0], "ratio_grid": [0.5]}
        empty = ExperimentConfig.from_doc({**doc, "synthetic": {}})
        assert _strip(sweep(empty).rows) == _strip(sweep(ExperimentConfig.from_doc(doc)).rows)

    def test_partial_table_spec_takes_the_default_keys(self):
        def table(spec):
            return harness._source_table(ExperimentConfig.from_doc({"synthetic": spec})).values

        assert np.array_equal(table({"rows": 80}), table({**DEFAULT_SYNTHETIC_ODT, "rows": 80}))

    def test_jobs_parallelism_matches_serial(self):
        cfg = small_synthetic_cfg()
        serial, parallel = sweep(cfg, jobs=1), sweep(cfg, jobs=2)
        assert _strip(serial.rows) == _strip(parallel.rows)

    def test_jobs_start_no_more_workers_than_cells(self, monkeypatch):
        # The fork start method launches all max_workers processes on the
        # first task, so a huge --jobs on a small sweep must be capped.
        # The fake pool runs each cell in this process and starts none.
        import concurrent.futures

        started = []

        class FakePool:
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
        cfg = small_synthetic_cfg(seeds=(0, 1, 2))
        rows = sweep(cfg, jobs=10_000).rows
        assert started == [3]
        assert _strip(rows) == _strip(sweep(cfg, jobs=1).rows)
        assert sweep(small_synthetic_cfg(seeds=(0,)), jobs=10_000).rows
        assert started == [3]  # one cell runs in this process

    def test_cell_builds_one_kernel_one_comparison_and_scores_one_row(self, monkeypatch):
        """Work counts of one odt cell, with no timing involved.

        The table compares its codes once for all its rows; greedy, NG,
        tuning and the final BAG share one kernel root; and greedy, NG and
        bag take their objectives from their runs' reports, so only the
        random row goes through cover_report.
        """
        builds, compared, scored = [], [], []
        init, incidences, score = (algorithms._Kernel.__init__, OdtTable._incidences,
                                   harness.cover_report)

        def counted_init(kernel, inst):
            builds.append(inst)
            init(kernel, inst)

        def counted_incidences(table):
            compared.append(table._built is None)  # True when this call compares the codes
            return incidences(table)

        def counted_score(inst, perm):
            scored.append(perm)
            return score(inst, perm)

        monkeypatch.setattr(algorithms._Kernel, "__init__", counted_init)
        monkeypatch.setattr(OdtTable, "_incidences", counted_incidences)
        monkeypatch.setattr(harness, "cover_report", counted_score)
        # a cell where greedy and NG rank differently, so each row must come from its own run
        cfg = small_synthetic_cfg(K=(4,), M=(10,), seeds=(0,))
        rows = harness._sweep_cell(cfg, harness._source_table(cfg), 4, 10, 0)
        assert len(builds) == 1
        assert compared == [True] + [False] * 9  # one comparison, then one read per row
        inst = builds[0]
        assert scored == [algorithms.random_order(inst, harness._streams(0)[2])]
        assert rows[1].objective_minmax != rows[2].objective_minmax
        for row, algo in zip(rows[1:3], (greedy, normalized_greedy)):
            perm = algo(inst)
            assert (row.objective_minmax, row.objective_avg) == (
                objective(inst, perm, "minmax"), objective(inst, perm, "average"))
        bag = rows[-1]
        perm, _ = balanced_adaptive_greedy(inst, BagConfig(ratio=bag.ratio))
        assert bag.objective_minmax == objective(inst, perm, "minmax")
        assert bag.objective_avg == objective(inst, perm, "average")


def _strip(rows):
    return [(r.algorithm, r.K, r.M, r.ratio, r.seed, r.objective_minmax, r.objective_avg)
            for r in rows]


class TestConfigFromDoc:
    def test_defaults(self):
        cfg = ExperimentConfig.from_doc({})
        assert (cfg.K, cfg.M, cfg.seeds, cfg.objective) == ((10,), (10,), (0, 1, 2, 3), "minmax")
        assert cfg.ratio_grid == DEFAULT_RATIO_GRID and cfg.synthetic is None

    @pytest.mark.parametrize("doc, match", [
        ([1, 2], "JSON object"),
        ({"K": 0}, "'K'"),
        ({"K": True}, "'K'"),
        ({"M": [2, 1.5]}, "'M'"),
        ({"M": []}, "'M'"),
        ({"seeds": [-1]}, "'seeds'"),
        ({"max_values": 0}, "'max_values'"),
        ({"max_values": [5]}, "'max_values'"),
        ({"ratio_grid": 0.5}, "'ratio_grid'"),
        ({"ratio_grid": ["0.5"]}, "'ratio_grid'"),
        ({"ratio_grid": [1, 2]}, "'ratio_grid'"),
        ({"objective": "median"}, "'objective'"),
        ({"dataset": 3}, "'dataset'"),
        ({"synthetic": "table"}, "'synthetic'"),
        ({"synthetic": {"family": "cube"}}, "unknown synthetic family 'cube'"),
        ({"synthetic": {"family": "coverage", "n": 5}}, "needs 'k', 'm'"),
        ({"synthetic": {"rows": "many"}}, "'rows' must be an integer"),
        ({"synthetic": {"family": "hard", "k": 4, "delta": "x"}}, "'delta' must be a number"),
        ({"synthetic": {"family": ["hard"], "k": 4}}, r"unknown synthetic family \['hard'\]"),
        ({"synthetic": {"family": {}, "k": 4}}, "unknown synthetic family {}"),
        ({"synthetic": {"family": "coverage", "n": 5, "k": 2, "m": 0}}, "'m' must be an integer >= 1"),
        ({"synthetic": {"rows": 20, "cols": 4, "values": 0}}, "'values' must be an integer >= 1"),
        ({"synthetic": {"rows": 20, "cols": 4, "values": 3, "seed": -2}},
         "'seed' must be an integer >= 0"),
        ({"pair_km": "false"}, "config 'pair_km' must be true or false, got 'false'"),
        ({"pair_km": 0}, "config 'pair_km' must be true or false, got 0"),
        ({"seed": [5]}, "config key 'seed' is not one of"),
        ({"synthetic": {"rowz": 80}}, "config 'synthetic' key 'rowz' is not one of"),
        ({"synthetic": {"family": "hard", "k": 4, "seed": 1}}, "'synthetic' key 'seed'"),
        ({"dataset": "d.csv", "synthetic": {}}, "both 'dataset' and 'synthetic'"),
        ({"synthetic": {"family": "hard", "k": 4}, "K": [2, 3], "M": [2], "seeds": [0]},
         "config gives 'K' and 'M' with synthetic family 'hard'"),
        ({"synthetic": {"family": "coverage", "n": 5, "k": 2, "m": 2}, "M": 3},
         "config gives 'M' with synthetic family 'coverage'"),
    ])
    def test_bad_field_is_value_error(self, doc, match):
        with pytest.raises(ValueError, match=match):
            ExperimentConfig.from_doc(doc)

    @pytest.mark.parametrize("family", list(harness._SYNTHETIC))
    def test_builder_parameters_are_the_family_keys(self, family):
        builder, defaults = harness._SYNTHETIC[family]
        assert list(inspect.signature(builder).parameters) == list(defaults)


def test_result_csv_round_trip(tmp_path):
    cfg = small_synthetic_cfg(seeds=(0,))
    res = sweep(cfg)
    path = tmp_path / "results.csv"
    res.write_csv(str(path))
    with open(path) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == len(res.rows)
    assert float(rows[0]["objective_minmax"]) == res.rows[0].objective_minmax
    res.write_summary_csv(str(tmp_path / "summary.csv"))
    assert (tmp_path / "summary.csv").read_text().startswith("algorithm,K,M,seeds,")


def test_trend_ordering_on_synthetic_fallback():
    # averaged over 4 seeds at K = M = 10: tuned balanced greedy <= stacked
    # greedy <= random, in both objectives
    for mode in ("minmax", "average"):
        cfg = ExperimentConfig(
            K=(10,), M=(10,), seeds=(0, 1, 2, 3),
            synthetic={"rows": 600, "cols": 22, "values": 10, "seed": 20},
            objective=mode,
        )
        means = {row["algorithm"]: row for row in sweep(cfg).summary()}
        key = "objective_minmax" if mode == "minmax" else "objective_avg"
        assert means["bag"][key] <= means["ng"][key] <= means["random"][key]
