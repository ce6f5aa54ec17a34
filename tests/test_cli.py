"""CLI surface: flags, outputs, and exit codes."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from subrank import cli, core
from subrank.cli import EXIT_DATA, EXIT_OK, EXIT_USAGE, build_parser, main
from subrank.instance_io import instance_to_doc, load_instance
from subrank.gmsc import gmsc_schedule, solve_lp
from subrank.core import cover_report, validate
from subrank.functions import random_coverage_instance
from subrank.algorithms import balanced_adaptive_greedy


@pytest.fixture()
def hard4(tmp_path):
    path = tmp_path / "hard4.json"
    assert main(["generate", "--family", "hard", "--k", "4", "--out", str(path)]) == EXIT_OK
    return str(path)


class TestSolve:
    def test_ng_on_hard_family(self, hard4, capsys):
        assert main(["solve", "--instance", hard4, "--algo", "ng"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "permutation: 4 1 2 3 5 6" in out
        assert "minmax: 11.000000" in out

    def test_brute_on_single_element(self, tmp_path, capsys):
        path = tmp_path / "one.json"
        doc = {
            "n": 1,
            "agents": [
                {"functions": [{"family": "singleton", "params": {"element": 1}, "weight": 2.5}]}
            ],
        }
        path.write_text(json.dumps(doc))
        assert main(["solve", "--instance", str(path), "--algo", "brute"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "minmax: 2.500000" in out  # one weighted cover time

    def test_unknown_algo_is_usage_error(self, hard4):
        with pytest.raises(SystemExit) as err:
            main(["solve", "--instance", hard4, "--algo", "fancy"])
        assert err.value.code == EXIT_USAGE

    def test_missing_instance_is_data_error(self, capsys):
        assert main(["solve", "--instance", "/does/not/exist.json", "--algo", "ng"]) == EXIT_DATA

    def test_invalid_instance_is_data_error(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        doc = {
            "n": 2,
            "agents": [
                {"functions": [{"family": "gmsc", "params": {"members": [1], "K": 1}, "weight": 1.0}]}
            ],
        }
        # oracle tops out below 1: f(U) covers only if K members present; here fine,
        # so instead reference an unknown family
        doc["agents"][0]["functions"][0]["family"] = "mystery"
        path.write_text(json.dumps(doc))
        assert main(["solve", "--instance", str(path), "--algo", "ng"]) == EXIT_DATA

    def test_agent_without_functions_is_data_error(self, tmp_path, capsys):
        path = tmp_path / "empty_agent.json"
        path.write_text(json.dumps({"n": 3, "agents": [{"functions": []}]}))
        assert main(["solve", "--instance", str(path), "--algo", "brute"]) == EXIT_DATA
        assert "agent has no functions" in capsys.readouterr().err

    @pytest.mark.parametrize("message", ["Unable to allocate 1.00 TiB for an array", ""])
    def test_memory_error_is_data_error(self, tmp_path, monkeypatch, capsys, message):
        # loading builds the instance's incidence matrix over 1..n, which
        # cannot be allocated for n = 2**40; the stand-in for the sealing
        # raises at once, so nothing is allocated
        path = tmp_path / "huge.json"
        doc = {"n": 2**40, "agents": [
            {"functions": [{"family": "singleton", "params": {"element": 1}, "weight": 1.0}]}]}
        path.write_text(json.dumps(doc))

        def out_of_memory(oracles, rows):
            assert rows == 2**40
            raise MemoryError(message)

        monkeypatch.setattr(core, "seal_incidences", out_of_memory)
        assert main(["solve", "--instance", str(path), "--algo", "ng"]) == EXIT_DATA
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: out of memory")
        assert message in err

    @pytest.mark.parametrize("algo", ["random", "greedy", "ng", "bag", "brute"])
    def test_weights_that_overflow_a_cost_are_a_data_error(self, algo, tmp_path, capsys):
        # four agents sharing two coverage oracles and a singleton, every weight 1e308
        shared = [
            {"family": "coverage", "params": {"items": [{"id": 1, "w": 1}, {"id": 2, "w": 2}],
                                              "covers": {"1": [1], "2": [2]}}},
            {"family": "coverage", "params": {"items": [{"id": 1, "w": 1}],
                                              "covers": {"3": [1]}}},
            {"family": "singleton", "params": {"element": 2}},
        ]
        path = tmp_path / "heavy.json"
        path.write_text(json.dumps({"n": 3, "agents": [
            {"functions": [dict(f, weight=1e308) for f in shared]} for _ in range(4)]}))
        assert main(["solve", "--instance", str(path), "--algo", algo]) == EXIT_DATA
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and captured.err.startswith("error: ")
        assert "weights too large" in captured.err and "RuntimeWarning" not in captured.err

    def test_bag_trace_written(self, tmp_path, capsys):
        inst_path = tmp_path / "hard9.json"
        main(["generate", "--family", "hard", "--k", "9", "--out", str(inst_path)])
        trace_path = tmp_path / "trace.jsonl"
        code = main(
            ["solve", "--instance", str(inst_path), "--algo", "bag", "--trace", str(trace_path)]
        )
        assert code == EXIT_OK
        lines = trace_path.read_text().splitlines()
        rec = json.loads(lines[0])
        assert rec["element"] == 9 and rec["t"] == 1
        assert "remaining_weights" in rec

    def test_negative_node_limit_is_usage_error(self, hard4, capsys):
        with pytest.raises(SystemExit) as err:
            main(["solve", "--instance", hard4, "--algo", "brute", "--node-limit", "-5"])
        assert err.value.code == EXIT_USAGE
        captured = capsys.readouterr()
        assert "--node-limit: must be at least 0, got -5" in captured.err
        assert captured.out == ""

    def test_zero_node_limit_returns_the_ng_order_unproven(self, hard4, capsys):
        code = main(["solve", "--instance", hard4, "--algo", "brute", "--node-limit", "0"])
        assert code == EXIT_OK
        captured = capsys.readouterr()
        assert "permutation: 4 1 2 3 5 6" in captured.out  # NG's order, as test_ng_on_hard_family
        assert captured.err.splitlines()[-1] == (
            "warning: node limit exceeded; result may be suboptimal")

    def test_trace_without_bag_is_usage_error(self, hard4, tmp_path, capsys):
        code = main(
            ["solve", "--instance", hard4, "--algo", "ng", "--trace", str(tmp_path / "t.jsonl")]
        )
        assert code == EXIT_USAGE
        assert capsys.readouterr().out == ""  # rejected before any ranking runs

    def test_report_json(self, hard4, tmp_path, capsys):
        out = tmp_path / "report.json"
        main(["solve", "--instance", hard4, "--algo", "ng", "--out", str(out)])
        doc = json.loads(out.read_text())
        assert doc["permutation"] == [4, 1, 2, 3, 5, 6]
        assert doc["minmax"] == 11.0

    def test_report_json_is_one_line_with_the_report(self, tmp_path, capsys):
        path, out = tmp_path / "c.json", tmp_path / "report.json"
        main(["generate", "--family", "coverage", "--n", "9", "--k", "3", "--m", "2",
              "--seed", "1", "--out", str(path)])
        assert main(["solve", "--instance", str(path), "--algo", "bag",
                     "--out", str(out)]) == EXIT_OK
        text = out.read_text()
        assert text.endswith("\n") and text.count("\n") == 1
        doc = json.loads(text)
        assert set(doc) == {"permutation", "minmax", "average", "agent_costs"}
        inst = load_instance(str(path))
        perm, _ = balanced_adaptive_greedy(inst)
        report = cover_report(inst, perm)
        assert doc["permutation"] == list(perm)
        assert doc["minmax"] == report.minmax and doc["average"] == report.average
        assert doc["agent_costs"] == list(report.agent_costs)

    @pytest.mark.parametrize("flag", ["--out", "--trace"])
    def test_missing_output_directory_fails_before_the_run(self, flag, hard4, tmp_path, capsys):
        missing = tmp_path / "missing"
        code = main(["solve", "--instance", hard4, "--algo", "bag", flag, str(missing / "f")])
        assert code == EXIT_DATA
        captured = capsys.readouterr()
        assert captured.out == ""  # no report for a run that cannot write its outputs
        assert captured.err == f"error: output directory does not exist: {missing}\n"

    @pytest.mark.parametrize("flag", ["--out", "--trace"])
    def test_output_path_naming_a_directory_fails_before_the_run(self, flag, hard4, tmp_path,
                                                                 capsys):
        code = main(["solve", "--instance", hard4, "--algo", "bag", flag, str(tmp_path)])
        assert code == EXIT_DATA
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: output path is a directory: {tmp_path}\n"


class TestGenerate:
    def test_hard_k9_is_validate_clean(self, tmp_path, capsys):
        path = tmp_path / "hard9.json"
        assert main(["generate", "--family", "hard", "--k", "9", "--out", str(path)]) == EXIT_OK
        assert validate(load_instance(str(path))) == []

    def test_same_flags_identical_bytes(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        main(["generate", "--family", "coverage", "--n", "6", "--k", "2", "--m", "2",
              "--seed", "5", "--out", str(a)])
        main(["generate", "--family", "coverage", "--n", "6", "--k", "2", "--m", "2",
              "--seed", "5", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_non_square_k_is_data_error(self, tmp_path, capsys):
        code = main(["generate", "--family", "hard", "--k", "5", "--out", str(tmp_path / "x.json")])
        assert code == EXIT_DATA

    @pytest.mark.parametrize("out, message", [
        ("missing/x.json", "output directory does not exist: {}/missing"),
        ("folder", "output path is a directory: {}/folder"),
    ], ids=["missing-directory", "directory"])
    def test_bad_output_path_fails_before_the_build(self, out, message, tmp_path, capsys):
        (tmp_path / "folder").mkdir()
        code = main(["generate", "--family", "hard", "--k", "4", "--out", str(tmp_path / out)])
        assert code == EXIT_DATA
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message.format(tmp_path)}\n"
        assert list(tmp_path.rglob("*")) == [tmp_path / "folder"]  # nothing written

    def test_missing_params_is_data_error(self, tmp_path, capsys):
        code = main(["generate", "--family", "coverage", "--out", str(tmp_path / "x.json")])
        assert code == EXIT_DATA

    @pytest.mark.parametrize("argv, flag", [
        (["--family", "gmsc", "--n", "5", "--k", "0", "--m", "2"], "--k"),
        (["--family", "coverage", "--n", "5", "--k", "2", "--m", "0"], "--m"),
        (["--family", "coverage", "--n", "-2", "--k", "2", "--m", "2"], "--n"),
        (["--family", "hard", "--k", "-4"], "--k"),
    ])
    def test_nonpositive_size_is_usage_error(self, argv, flag, tmp_path, capsys):
        path = tmp_path / "x.json"
        with pytest.raises(SystemExit) as err:
            main(["generate", *argv, "--out", str(path)])
        assert err.value.code == EXIT_USAGE
        assert f"argument {flag}: must be at least 1" in capsys.readouterr().err
        assert not path.exists()

    def test_coverage_family_writes_no_empty_covers_list(self, tmp_path, capsys):
        path = tmp_path / "c.json"
        main(["generate", "--family", "coverage", "--n", "12", "--k", "3", "--m", "4",
              "--seed", "2", "--out", str(path)])
        doc = json.loads(path.read_text())
        covers = [fn["params"]["covers"] for agent in doc["agents"] for fn in agent["functions"]]
        assert len(covers) == 12
        assert all(hit for c in covers for hit in c.values())
        assert all(set(c) < {str(e) for e in range(1, 13)} for c in covers)

    def test_coverage_file_is_compact_and_holds_the_instance(self, tmp_path, capsys):
        path = tmp_path / "c60.json"
        main(["generate", "--family", "coverage", "--n", "60", "--k", "30", "--m", "10",
              "--seed", "4", "--out", str(path)])
        assert path.stat().st_size <= 110_000  # 583,177 bytes when written indented
        assert json.loads(path.read_text()) == instance_to_doc(
            random_coverage_instance(60, 30, 10, 4))

    def test_gmsc_family_writes_set_system(self, tmp_path, capsys):
        path = tmp_path / "g.json"
        main(["generate", "--family", "gmsc", "--n", "6", "--k", "2", "--m", "2",
              "--seed", "1", "--out", str(path)])
        doc = json.loads(path.read_text())
        assert set(doc) == {"n", "agents"}
        assert len(doc["agents"]) == 2
        for agent in doc["agents"]:
            assert len(agent["functions"]) == 2
            for fn in agent["functions"]:
                assert fn["family"] == "gmsc" and fn["weight"] == 1.0
                assert set(fn["params"]) == {"members", "K"}


@pytest.mark.parametrize("algo", ["greedy", "ng", "bag", "brute"])
def test_dense_and_sparse_files_solve_alike(algo, tmp_path, capsys):
    sparse = tmp_path / "sparse.json"
    main(["generate", "--family", "coverage", "--n", "8", "--k", "3", "--m", "3",
          "--seed", "4", "--out", str(sparse)])
    doc = json.loads(sparse.read_text())
    for agent in doc["agents"]:  # the dense twin lists every element, empties included
        for fn in agent["functions"]:
            covers = fn["params"]["covers"]
            fn["params"]["covers"] = {str(e): covers.get(str(e), []) for e in range(1, 9)}
    dense = tmp_path / "dense.json"
    dense.write_text(json.dumps(doc))
    reports = []
    for path in (sparse, dense):
        out = tmp_path / f"{path.stem}.{algo}.out.json"
        assert main(["solve", "--instance", str(path), "--algo", algo, "--out", str(out)]) == EXIT_OK
        reports.append(json.loads(out.read_text()))
    assert reports[0] == reports[1]


@pytest.fixture()
def experiment_config(tmp_path):
    cfg = {
        "K": [2],
        "M": [3],
        "seeds": [0, 1],
        "synthetic": {"rows": 80, "cols": 6, "values": 4, "seed": 3},
        "ratio_grid": [0.3, 0.5, 0.7],
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return str(path)


class TestExperiment:
    def test_writes_results_and_summary(self, experiment_config, tmp_path, capsys):
        out = tmp_path / "exp"
        assert main(["experiment", "--config", experiment_config, "--out", str(out)]) == EXIT_OK
        results = (out / "results.csv").read_text().splitlines()
        assert results[0] == (
            "algorithm,K,M,ratio,seed,objective_minmax,objective_avg,tune_ms,runtime_ms"
        )
        assert len(results) == 1 + 2 * 4  # seeds x algorithms
        assert (out / "summary.csv").exists()

    @pytest.mark.parametrize("name", ["results.csv", "summary.csv"])
    def test_output_naming_a_directory_fails_before_the_sweep(self, name, experiment_config,
                                                              tmp_path, monkeypatch, capsys):
        def no_sweep(cfg, jobs):
            raise AssertionError("the sweep ran")

        monkeypatch.setattr(cli, "sweep", no_sweep)
        (tmp_path / "exp" / name).mkdir(parents=True)
        code = main(["experiment", "--config", experiment_config, "--out", str(tmp_path / "exp")])
        assert code == EXIT_DATA
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: output path is a directory: {tmp_path / 'exp' / name}\n"

    def test_rerun_identical_modulo_runtime(self, experiment_config, tmp_path, capsys):
        out1, out2 = tmp_path / "e1", tmp_path / "e2"
        main(["experiment", "--config", experiment_config, "--out", str(out1)])
        main(["experiment", "--config", experiment_config, "--out", str(out2)])

        def stripped(path):
            lines = (path / "results.csv").read_text().splitlines()
            return [line.rsplit(",", 2)[0] for line in lines]  # drop tune_ms, runtime_ms

        assert stripped(out1) == stripped(out2)

    def test_missing_dataset_names_path(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"dataset": "/missing/data.csv", "K": [2], "M": [2]}))
        code = main(["experiment", "--config", cfg_path.as_posix(), "--out", str(tmp_path / "o")])
        assert code == EXIT_DATA
        assert "/missing/data.csv" in capsys.readouterr().err

    def test_all_cells_failing_is_data_error(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"K": [2], "M": [700]}))  # the default table has 600 rows
        code = main(["experiment", "--config", cfg_path.as_posix(), "--out", str(tmp_path / "o")])
        assert code == EXIT_DATA
        assert capsys.readouterr().err == "error: no sweep cell succeeded\n"
        assert not (tmp_path / "o").exists()

    def test_header_only_dataset_is_one_error_line(self, tmp_path, capsys):
        (tmp_path / "data.csv").write_text("a,b,c\n")
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"dataset": str(tmp_path / "data.csv"), "K": [2],
                                        "M": [2], "seeds": [0]}))
        code = main(["experiment", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
        assert code == EXIT_DATA
        assert capsys.readouterr().err == f"error: {tmp_path / 'data.csv'}: no rows\n"
        assert not (tmp_path / "o").exists()

    def test_output_naming_a_file_fails_before_the_sweep(self, tmp_path, capsys, caplog):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"K": [2], "M": [700], "seeds": [0]}))  # cells would fail
        out = tmp_path / "o"
        out.write_text("kept\n")
        code = main(["experiment", "--config", str(cfg_path), "--out", str(out)])
        assert code == EXIT_DATA
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: output path is not a directory: {out}\n"
        assert not [r for r in caplog.records if "failed" in r.getMessage()]
        assert out.read_text() == "kept\n"

    def test_bad_family_is_one_error_line(self, tmp_path, capsys, caplog):
        """A family that cannot be built stops the sweep before any cell runs."""
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"seeds": [0, 1], "synthetic": {"family": "hard", "k": 5}}))
        code = main(["experiment", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
        assert code == EXIT_DATA
        assert capsys.readouterr().err == "error: k=5 is not a perfect square >= 4\n"
        assert not [r for r in caplog.records if "failed" in r.getMessage()]
        assert not (tmp_path / "o").exists()

    def test_failed_cells_log_one_line_each(self, tmp_path, capsys, caplog):
        """One line per failed cell, in cell order, from one process or from two."""
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"K": [2], "M": [700], "seeds": [0, 1, 2]}))
        for jobs in ("1", "2"):
            caplog.clear()
            code = main(["experiment", "--config", str(cfg_path), "--out", str(tmp_path / "o"),
                         "--jobs", jobs])
            assert code == EXIT_DATA
            assert "Traceback" not in capsys.readouterr().err + caplog.text
            failed = [r.getMessage() for r in caplog.records if "failed" in r.getMessage()]
            assert failed == [f"cell K=2 M=700 seed={seed} failed: M=700 exceeds row count 600; "
                              f"continuing" for seed in (0, 1, 2)]
            assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_nonpositive_jobs_is_usage_error(self, jobs, tmp_path, capsys):
        absent = str(tmp_path / "absent.json")  # rejected before any file is read
        out = tmp_path / "o"
        with pytest.raises(SystemExit) as err:
            main(["experiment", "--config", absent, "--out", str(out), "--jobs", jobs])
        assert err.value.code == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.err.startswith("usage: subrank experiment")
        assert f"--jobs: must be at least 1, got {int(jobs)}" in captured.err
        assert captured.out == "" and not out.exists()


@pytest.mark.parametrize("doc", [
    [{"K": [2]}],
    {"dataset": {"path": "data.csv"}},
    {"K": "x"},
    {"ratio_grid": [0, 1]},
    {"objective": "median"},
    {"K": [2, 3], "M": [3], "pair_km": True},
    {"K": [2, 3], "M": [4, 5], "pair_km": "false"},
    {"seed": [1]},
    {"synthetic": {"rowz": 80}},
    {"dataset": "data.csv", "synthetic": {"rows": 80}},
    {"synthetic": {"family": "hard", "k": 4}, "K": [2, 3], "M": [2]},
], ids=["list", "dataset-object", "K-string", "empty-grid", "unknown-objective",
        "pair-km-lengths", "pair-km-string", "unknown-key", "unknown-synthetic-key",
        "dataset-and-synthetic", "family-with-K-M"])
def test_bad_config_is_one_line_data_error(doc, tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(doc))
    code = main(["experiment", "--config", str(cfg_path), "--out", str(tmp_path / "o"),
                 "--jobs", "1"])
    err = capsys.readouterr().err
    assert code == EXIT_DATA
    assert len(err.splitlines()) == 1 and err.startswith("error: config")
    assert "Traceback" not in err


@pytest.fixture()
def gmsc6(tmp_path):
    path = tmp_path / "g.json"
    assert main(["generate", "--family", "gmsc", "--n", "6", "--k", "2", "--m", "2",
                 "--seed", "3", "--out", str(path)]) == EXIT_OK
    return str(path)


@pytest.mark.parametrize("algo", ["random", "greedy", "ng", "bag", "brute"])
def test_generated_gmsc_file_solves(gmsc6, algo, capsys):
    assert main(["solve", "--instance", gmsc6, "--algo", algo]) == EXIT_OK
    assert "minmax:" in capsys.readouterr().out


class TestGmscBench:
    def test_bench_outputs(self, gmsc6, tmp_path, capsys):
        out_csv = tmp_path / "bench.csv"
        code = main(["gmsc-bench", "--instance", gmsc6, "--seeds", "4",
                     "--out", str(out_csv), "--dump-lp", str(tmp_path / "lp")])
        assert code == EXIT_OK
        printed = capsys.readouterr().out
        t_line = next(line for line in printed.splitlines() if line.startswith("T*:"))
        fields = dict(zip(t_line.split()[::2], t_line.split()[1::2]))
        assert list(fields) == ["T*:", "cuts:", "rounds:", "iterations:"]
        sol = solve_lp(load_instance(gmsc6))
        assert fields == {"T*:": f"{sol.T_star:.6f}", "cuts:": str(len(sol.cuts)),
                          "rounds:": str(sol.rounds), "iterations:": str(sol.iterations)}
        assert sol.rounds > 1 and sol.iterations > 0
        lines = out_csv.read_text().splitlines()
        assert lines[0] == "seed,max_agent_cost,ratio_to_Tstar"
        assert len(lines) == 5
        assert (tmp_path / "lp_x.csv").exists()
        assert (tmp_path / "lp_y.csv").exists()

    @pytest.mark.parametrize("argv, env_seed, seeds", [
        (["--seed-base", "4294967290", "--seeds", "12"], None, range(2**32 - 6, 2**32 + 6)),
        ([], "18446744073709551616", range(2**64, 2**64 + 20)),
    ], ids=["seed-base-across-2**32", "env-seed-2**64"])
    def test_csv_equals_per_seed_schedules(self, argv, env_seed, seeds, gmsc6, tmp_path,
                                           monkeypatch, capsys):
        if env_seed is not None:
            monkeypatch.setenv("SUBRANK_SEED", env_seed)
        out_csv = tmp_path / "bench.csv"
        assert main(["gmsc-bench", "--instance", gmsc6, *argv, "--out", str(out_csv)]) == EXIT_OK
        inst = load_instance(gmsc6)
        sol = solve_lp(inst)
        assert sol.T_star > 0
        want = ["seed,max_agent_cost,ratio_to_Tstar"]
        for seed in seeds:
            cost = core.objective(inst, gmsc_schedule(inst, seed, sol)[0], "minmax")
            want.append(f"{seed},{cost!r},{cost / sol.T_star!r}")
        assert out_csv.read_text().splitlines() == want

    @pytest.mark.parametrize("flag,name", [("--out", "bench.csv"), ("--dump-lp", "lp")])
    def test_missing_output_directory_fails_before_the_lp(self, flag, name, gmsc6, tmp_path,
                                                          monkeypatch, capsys):
        def no_lp(inst):
            raise AssertionError("the LP ran")

        monkeypatch.setattr(cli.gmsc_mod, "solve_lp", no_lp)
        missing = tmp_path / "missing"
        code = main(["gmsc-bench", "--instance", gmsc6, "--seeds", "2", flag, str(missing / name)])
        assert code == EXIT_DATA
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: output directory does not exist: {missing}\n"

    @pytest.mark.parametrize("flag,name,directory", [("--out", "bench.csv", "bench.csv"),
                                                     ("--dump-lp", "lp", "lp_x.csv")])
    def test_output_path_naming_a_directory_fails_before_the_lp(self, flag, name, directory,
                                                                gmsc6, tmp_path, monkeypatch,
                                                                capsys):
        def no_lp(inst):
            raise AssertionError("the LP ran")

        monkeypatch.setattr(cli.gmsc_mod, "solve_lp", no_lp)
        (tmp_path / directory).mkdir()
        code = main(["gmsc-bench", "--instance", gmsc6, "--seeds", "2", flag, str(tmp_path / name)])
        assert code == EXIT_DATA
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: output path is a directory: {tmp_path / directory}\n"

    @pytest.mark.parametrize("argv", [
        ["--family", "coverage", "--n", "5", "--k", "2", "--m", "2", "--seed", "1"],
        ["--family", "hard", "--k", "4"],
    ])
    def test_non_gmsc_file_is_data_error(self, argv, tmp_path, capsys):
        path = str(tmp_path / "other.json")
        main(["generate", *argv, "--out", path])
        capsys.readouterr()
        assert main(["gmsc-bench", "--instance", path, "--seeds", "1"]) == EXIT_DATA
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "unit-weight gmsc" in err[0]

    @pytest.mark.parametrize("agents", [
        [{"functions": []}],
        [{"functions": [{"family": "gmsc", "params": {"members": [1, 2], "K": 1},
                         "weight": 1.0}]},
         {"functions": []}],
    ], ids=["only-agent", "second-agent"])
    def test_agent_without_functions_is_data_error(self, agents, tmp_path, capsys):
        path = tmp_path / "empty-agent.json"
        path.write_text(json.dumps({"n": 3, "agents": agents}))
        out_csv = tmp_path / "bench.csv"
        code = main(["gmsc-bench", "--instance", str(path), "--out", str(out_csv)])
        captured = capsys.readouterr()
        assert code == EXIT_DATA
        assert captured.err.splitlines() == [
            f"error: [error] agent {len(agents)}: agent has no functions"]
        assert "T*:" not in captured.out and not out_csv.exists()

    @pytest.mark.parametrize("seeds", ["0", "-3"])
    def test_nonpositive_seed_count_is_usage_error(self, seeds, tmp_path, capsys):
        absent = str(tmp_path / "absent.json")  # rejected before any file is read
        with pytest.raises(SystemExit) as err:
            main(["gmsc-bench", "--instance", absent, "--seeds", seeds])
        assert err.value.code == EXIT_USAGE
        assert f"--seeds: must be at least 1, got {int(seeds)}" in capsys.readouterr().err

    def test_negative_seed_base_is_usage_error(self, gmsc6, capsys):
        with pytest.raises(SystemExit) as err:
            main(["gmsc-bench", "--instance", gmsc6, "--seed-base", "-1"])
        assert err.value.code == EXIT_USAGE
        captured = capsys.readouterr()
        assert "--seed-base: must be at least 0, got -1" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("value, message", [
        ("-1", "error: SUBRANK_SEED must be non-negative for gmsc-bench, got -1"),
        ("abc", "error: SUBRANK_SEED must be an integer, got 'abc'"),
    ])
    def test_bad_env_seed_fails_before_the_lp(self, value, message, gmsc6, capsys,
                                              monkeypatch):
        monkeypatch.setenv("SUBRANK_SEED", value)
        assert main(["gmsc-bench", "--instance", gmsc6]) == EXIT_DATA
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [message]
        assert captured.out == ""  # no T* line: the LP never ran

    def test_seed_27_instance_solves(self, tmp_path, capsys):
        # the dense simplex this LP once ran on hit its iteration limit here
        path = str(tmp_path / "g27.json")
        assert main(["generate", "--family", "gmsc", "--n", "16", "--k", "4", "--m", "2",
                     "--seed", "27", "--out", path]) == EXIT_OK
        capsys.readouterr()
        assert main(["gmsc-bench", "--instance", path, "--seeds", "1"]) == EXIT_OK
        captured = capsys.readouterr()
        assert captured.err == ""
        t_star = float(captured.out.split("T*:")[1].split()[0])
        assert t_star == pytest.approx(10.0, rel=1e-6)

    def test_cut_cap_warns_and_succeeds(self, tmp_path, monkeypatch, capsys):
        from subrank import gmsc

        path = str(tmp_path / "g.json")  # its LP needs cuts to converge
        assert main(["generate", "--family", "gmsc", "--n", "8", "--k", "3", "--m", "2",
                     "--seed", "5", "--out", path]) == EXIT_OK
        capsys.readouterr()
        monkeypatch.setattr(gmsc, "MAX_CUTS", 0)
        assert main(["gmsc-bench", "--instance", path, "--seeds", "1"]) == EXIT_OK
        captured = capsys.readouterr()
        assert captured.err.splitlines() == ["warning: cut cap reached; bound may be loose"]
        assert "T*:" in captured.out

    def test_lp_failure_is_data_error(self, gmsc6, monkeypatch, capsys):
        from subrank import gmsc, simplex

        failed = simplex.LpResult(simplex.ITERATION_LIMIT, None, None, 0)
        monkeypatch.setattr(gmsc.simplex, "solve_dense_lp", lambda *a, **kw: failed)
        assert main(["gmsc-bench", "--instance", gmsc6, "--seeds", "1"]) == EXIT_DATA
        assert capsys.readouterr().err.splitlines() == [
            "error: LP solve failed: iteration_limit"
        ]


class TestVerifyCommand:
    def test_all_suites_pass(self, capsys):
        assert main(["verify", "--suite", "all"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "[PASS] core/chain_bound" in out
        assert "[PASS] gmsc/lp_soundness" in out
        assert "[PASS] gmsc/stream_seeding" in out
        assert "13/13 checks passed" in out

    def test_unknown_suite_is_usage_error(self):
        with pytest.raises(SystemExit) as err:
            main(["verify", "--suite", "everything"])
        assert err.value.code == EXIT_USAGE


def test_env_seed_override(tmp_path, capsys, monkeypatch):
    inst = tmp_path / "hard9.json"
    main(["generate", "--family", "hard", "--k", "9", "--out", str(inst)])
    capsys.readouterr()  # drop the generate chatter

    def run():
        main(["solve", "--instance", str(inst), "--algo", "random"])
        return capsys.readouterr().out.splitlines()[0]

    monkeypatch.setenv("SUBRANK_SEED", "1")
    first = run()
    monkeypatch.setenv("SUBRANK_SEED", "2")
    second = run()
    monkeypatch.setenv("SUBRANK_SEED", "1")
    assert run() == first
    assert first != second


def test_cached_parser_matches_fresh_parser(tmp_path, capsys, monkeypatch):
    """main reuses one parser; commands run on it as on a newly built one."""
    inst, gmsc = str(tmp_path / "cov.json"), str(tmp_path / "gmsc.json")
    script = [
        ("1", ["generate", "--family", "coverage", "--n", "6", "--k", "2", "--m", "2",
               "--out", inst]),
        ("1", ["solve", "--instance", inst, "--algo", "random"]),
        ("2", ["solve", "--instance", inst, "--algo", "random"]),
        ("2", ["solve", "--instance", inst, "--algo", "bag", "--ratio", "0.5"]),
        ("2", ["generate", "--family", "gmsc", "--n", "6", "--k", "2", "--m", "2",
               "--out", gmsc]),
        ("2", ["gmsc-bench", "--instance", gmsc, "--seeds", "2"]),
        ("3", ["generate", "--family", "coverage", "--n", "6", "--k", "2", "--m", "2",
               "--out", inst]),
    ]

    def session(fresh):
        outputs = []
        for seed, argv in script:
            monkeypatch.setenv("SUBRANK_SEED", seed)
            if fresh:
                build_parser.cache_clear()
            code = main(argv)
            out = [line for line in capsys.readouterr().out.splitlines()
                   if not line.startswith("runtime_ms")]
            written = Path(argv[-1]).read_text() if argv[0] == "generate" else None
            outputs.append((code, out, written))
        return outputs

    cached = session(fresh=False)
    assert cached == session(fresh=True)
    assert all(code == EXIT_OK for code, _, _ in cached)
    assert cached[1][1][0] != cached[2][1][0]  # SUBRANK_SEED 1 vs 2: another random order
    assert cached[0][2] != cached[-1][2]  # and another generated file
    assert build_parser() is build_parser()


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "subrank.cli", "--help"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    for name in ("solve", "generate", "experiment", "gmsc-bench", "verify"):
        assert name in proc.stdout


def test_cli_import_loads_no_test_tooling():
    # cli imports verify at start-up, so a test dependency pulled into
    # verify would slow down and enlarge every command
    code = "import sys, subrank.cli; print(*sorted({m.split('.')[0] for m in sys.modules}))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    assert "subrank" in loaded
    assert loaded.isdisjoint({"pytest", "_pytest", "hypothesis", "scipy"})
