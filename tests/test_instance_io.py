"""Instance JSON round-trips and loader rejection paths."""

import io
import itertools
import json
import os
import re
import subprocess
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subrank.core import Agent, Instance, cover_report, objective
from subrank.functions import (
    GmscSet,
    OdtTable,
    coverage_function,
    gmsc_function,
    odt_function,
    singleton_function,
    hard_family,
    random_coverage_instance,
)
from subrank import instance_io
from subrank.instance_io import (
    InstanceFormatError,
    doc_to_instance,
    dumps,
    instance_to_doc,
    load_instance,
    save_instance,
)
from subrank.algorithms import normalized_greedy


def mixed_instance():
    table = OdtTable(rows=((0, 1, 2), (1, 1, 2), (0, 0, 0)))
    agents = (
        Agent(
            id=1,
            functions=(
                (coverage_function([(1, 2), (2, 1)], {1: {1}, 2: {2}, 3: {1, 2}}), 1.5),
                (singleton_function(2), 1.0),
            ),
        ),
        Agent(
            id=2,
            functions=(
                (odt_function(table, 1), 2.0),
                (odt_function(table, 3), 1.0),
                (gmsc_function(GmscSet(members=frozenset({1, 3}), K=2)), 3.0),
            ),
        ),
    )
    return Instance(n=3, agents=agents)


def test_round_trip_preserves_behavior():
    inst = mixed_instance()
    doc = instance_to_doc(inst)
    again = doc_to_instance(doc)
    assert again.n == inst.n
    assert again.epsilon == inst.epsilon
    assert again.W == inst.W
    for perm in ((1, 2, 3), (3, 2, 1), (2, 3, 1)):
        assert objective(again, perm) == objective(inst, perm)


def test_round_trip_is_stable_bytes():
    inst = mixed_instance()
    first = dumps(instance_to_doc(inst))
    second = dumps(instance_to_doc(doc_to_instance(instance_to_doc(inst))))
    assert first == second


def test_odt_tables_are_deduplicated():
    doc = instance_to_doc(mixed_instance())
    assert len(doc["tables"]) == 1  # both odt functions share one table


def test_file_round_trip(tmp_path):
    inst = hard_family(9, 0.01)
    path = tmp_path / "inst.json"
    save_instance(inst, str(path))
    again = load_instance(str(path))
    assert normalized_greedy(again) == normalized_greedy(inst)


def test_stream_round_trip():
    inst = random_coverage_instance(5, 2, 2, 3)
    buf = io.StringIO()
    save_instance(inst, buf)
    buf.seek(0)
    again = load_instance(buf)
    assert objective(again, (1, 2, 3, 4, 5)) == objective(inst, (1, 2, 3, 4, 5))


def test_unknown_family_rejected():
    doc = {
        "n": 2,
        "agents": [{"functions": [{"family": "mystery", "params": {}, "weight": 1.0}]}],
    }
    with pytest.raises(InstanceFormatError, match="unknown family"):
        doc_to_instance(doc)


def test_nonpositive_weight_rejected():
    doc = {
        "n": 2,
        "agents": [
            {"functions": [{"family": "singleton", "params": {"element": 1}, "weight": 0.0}]}
        ],
    }
    with pytest.raises(InstanceFormatError, match="nonpositive weight"):
        doc_to_instance(doc)


def test_unknown_table_ref_rejected():
    doc = {
        "n": 2,
        "agents": [
            {
                "functions": [
                    {"family": "odt", "params": {"table_ref": "t9", "row": 1}, "weight": 1.0}
                ]
            }
        ],
        "tables": {"t0": [[0, 1], [1, 0]]},
    }
    with pytest.raises(InstanceFormatError, match="table_ref"):
        doc_to_instance(doc)


def test_missing_n_rejected():
    with pytest.raises(InstanceFormatError):
        doc_to_instance({"agents": []})


def test_document_shape_matches_contract():
    doc = instance_to_doc(mixed_instance())
    text = dumps(doc)
    parsed = json.loads(text)
    assert set(parsed) == {"n", "agents", "tables"}
    fn = parsed["agents"][0]["functions"][0]
    assert set(fn) == {"family", "params", "weight"}
    assert set(fn["params"]) == {"items", "covers"}


def _one_function_doc(**fields):
    fn = {"family": "gmsc", "params": {"members": [1, 2], "K": 1}, "weight": 1.0}
    fn.update(fields)
    return {"n": 2, "agents": [{"functions": [{k: v for k, v in fn.items() if v is not None}]}]}


def _coverage_doc(items=({"id": 1, "w": 1},), covers=None, n=2):
    """A one-function coverage document over 1..n (default 2) with the given params."""
    doc = _one_function_doc(family="coverage", params={
        "items": list(items), "covers": covers or {"1": [1], "2": [1]}})
    return {**doc, "n": n}


MALFORMED = {
    "missing-weight": (_one_function_doc(weight=None), "missing field 'weight'"),
    "nan-weight": (_one_function_doc(weight=float("nan")), "non-finite weight"),
    "inf-weight": (_one_function_doc(weight=float("inf")), "non-finite weight"),
    "old-gmsc-layout": (
        {"n": 2, "agents": [[{"members": [1, 2], "K": 1}]]},
        re.escape('agents entries must be {"functions": [...]}'),
    ),
    "gmsc-member-outside-ground-set": (
        _one_function_doc(params={"members": [1, 3], "K": 1}),
        r"gmsc member outside 1\.\.2",
    ),
    "gmsc-float-member": (
        _one_function_doc(params={"members": [1, 2.0], "K": 1}),
        "set member 2.0 is not an integer",
    ),
    "gmsc-bool-member": (
        _one_function_doc(params={"members": [True, 2], "K": 1}),
        "set member True is not an integer",
    ),
    "no-agents": ({"n": 3, "agents": []}, "instance has no agents"),
    "denominator-above-2**53": (
        _one_function_doc(family="coverage",
                          params={"items": [{"id": 1, "w": 2**60}], "covers": {"1": [1]}}),
        r"denominator 1152921504606846976 exceeds 2\*\*53",
    ),
    "tables-not-an-object": (
        {"n": 2, "agents": [], "tables": [[0, 1]]},
        r"tables must be a JSON object, got \[\[0, 1\]\]",
    ),
    # integer fields are not truncated, and weights and coverage ids are checked
    "float-n": ({**_one_function_doc(), "n": 2.9}, "n 2.9 is not an integer"),
    "negative-n": (
        {**_one_function_doc(family="coverage", params={"items": [], "covers": {}}), "n": -3},
        "n must be at least 0, got -3",
    ),
    "bool-n": ({**_one_function_doc(), "n": True}, "n True is not an integer"),
    "float-gmsc-K": (
        _one_function_doc(params={"members": [1, 2], "K": 1.5}), "K 1.5 is not an integer"
    ),
    "bool-gmsc-K": (
        _one_function_doc(params={"members": [1, 2], "K": True}), "K True is not an integer"
    ),
    "float-singleton-element": (
        _one_function_doc(family="singleton", params={"element": 1.0}),
        "element 1.0 is not an integer",
    ),
    "float-odt-row": (
        {**_one_function_doc(family="odt", params={"table_ref": "t0", "row": 1.5}),
         "tables": {"t0": [[0, 1], [1, 0]]}},
        "row 1.5 is not an integer",
    ),
    "float-coverage-item-id": (
        _coverage_doc(items=[{"id": 1.5, "w": 1}], covers={"1": [1.5]}),
        "item id 1.5 is not an integer",
    ),
    "float-coverage-item-w": (
        _coverage_doc(items=[{"id": 1, "w": 2.5}]), "item w 2.5 is not an integer"
    ),
    "bool-coverage-item-w": (
        _coverage_doc(items=[{"id": 1, "w": True}]), "item w True is not an integer"
    ),
    "zero-coverage-item-w": (
        _coverage_doc(items=[{"id": 1, "w": 0}]), "item 1: w must be at least 1, got 0"
    ),
    "float-covers-id": (
        _coverage_doc(covers={"1": [1.0], "2": [1]}), "covers names 1.0, which is not an item id"
    ),
    "covers-key-outside-ground-set": (
        _coverage_doc(covers={"1": [1], "3": [1]}), r"covers keys must be elements of 1\.\.2"
    ),
    "float-covers-key": (
        _coverage_doc(covers={"1.0": [1]}), r"covers keys must be elements of 1\.\.2"
    ),
    "repeated-coverage-item-id": (  # used to fail validation as f(U) = 2/3
        _coverage_doc(items=[{"id": 1, "w": 1}, {"id": 1, "w": 2}]), "item ids repeat"
    ),
    # int() used to load each of these keys as an element
    "underscore-covers-key": (
        _coverage_doc(covers={"1_0": [1]}, n=10), r"covers keys must be elements of 1\.\.10"
    ),
    "spaced-covers-key": (
        _coverage_doc(covers={" 10 ": [1]}, n=10), r"covers keys must be elements of 1\.\.10"
    ),
    "arabic-indic-covers-key": (
        _coverage_doc(covers={"\u0661\u0660": [1]}, n=10),
        r"covers keys must be elements of 1\.\.10",
    ),
    "signed-covers-key": (
        _coverage_doc(covers={"+1": [1], "2": [1]}), r"covers keys must be elements of 1\.\.2"
    ),
    "aliased-covers-keys": (  # "01" used to overwrite what "1" covers
        _coverage_doc(covers={"1": [1], "2": [1], "01": []}), "covers names an element twice"
    ),
    "string-weight": (_one_function_doc(weight="2"), "weight '2' is not a number"),
    "bool-weight": (_one_function_doc(weight=True), "weight True is not a number"),
    # messages name the field, not Python internals
    "null-document": (None, "instance must be a JSON object, got None"),
    "null-params": (
        {"n": 2, "agents": [{"functions": [{"family": "gmsc", "params": None, "weight": 1.0}]}]},
        "agent 1 function 1: params must be a JSON object",
    ),
    "unknown-covers-item-id": (
        _coverage_doc(covers={"1": [1], "2": [7]}), "covers names 7, which is not an item id"
    ),
    # keys and ids are bounded as Python ints, before numpy could overflow on them
    "oversized-covers-key": (
        _coverage_doc(covers={"1": [1], "99999999999999999999999": [1]}),
        r"covers keys must be elements of 1\.\.2",
    ),
    "oversized-covers-id": (
        _coverage_doc(covers={"1": [1], "2": [2**70]}),
        f"covers names {2**70}, which is not an item id",
    ),
    "bool-covers-id": (
        _coverage_doc(covers={"1": [True], "2": [1]}), "covers names True, which is not an item id"
    ),
    "singleton-element-outside-ground-set": (
        _one_function_doc(family="singleton", params={"element": 3}),
        r"singleton element outside 1\.\.2",
    ),
    "oversized-singleton-element": (
        _one_function_doc(family="singleton", params={"element": 2**70}),
        r"singleton element outside 1\.\.2",
    ),
}


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_structural_faults_raise_format_error(name):
    doc, match = MALFORMED[name]
    with pytest.raises(InstanceFormatError, match=match):
        doc_to_instance(doc)


# Runs each argv of the JSON list in argv[1] through subrank.cli.main in one
# interpreter and prints [exit code, stderr, traceback of an exception that
# escaped main or null] per argv, as JSON.
MAIN_LOOP = """
import contextlib, io, json, sys, traceback
from subrank.cli import main
results = []
for argv in json.loads(sys.argv[1]):
    out, err, code, escaped = io.StringIO(), io.StringIO(), None, None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except Exception:
            escaped = traceback.format_exc()
    results.append([code, err.getvalue(), escaped])
print(json.dumps(results))
"""


def assert_one_line_data_error(name, code, stderr, escaped=None):
    assert escaped is None, (name, escaped)
    assert code == 2, (name, code)
    assert len(stderr.splitlines()) == 1, (name, stderr)
    assert "Traceback" not in stderr, name


def test_solve_reports_structural_faults_in_one_line(tmp_path):
    """Every MALFORMED file, and JSON nested too deeply to parse, is exit 2 and one line.

    The deep file goes through every command that reads JSON: solve and
    gmsc-bench read instances, experiment its config. All runs share one
    interpreter; one more runs the module entry point itself.
    """
    runs = {}
    for name, (doc, _) in sorted(MALFORMED.items()):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc))
        runs[name] = ["solve", "--instance", str(path), "--algo", "ng"]
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 200_000 + "]" * 200_000)
    runs["deep solve"] = ["solve", "--instance", str(deep), "--algo", "ng"]
    runs["deep gmsc-bench"] = ["gmsc-bench", "--instance", str(deep)]
    runs["deep experiment"] = ["experiment", "--config", str(deep), "--out", str(tmp_path / "out")]
    proc = subprocess.run([sys.executable, "-c", MAIN_LOOP, json.dumps(list(runs.values()))],
                          capture_output=True, text=True, check=True)
    results = json.loads(proc.stdout)
    assert len(results) == len(runs)
    for name, result in zip(runs, results):
        assert_one_line_data_error(name, *result)
    proc = subprocess.run([sys.executable, "-m", "subrank.cli", *runs["deep solve"]],
                          capture_output=True, text=True)
    assert_one_line_data_error("python -m subrank.cli", proc.returncode, proc.stderr)


def test_repeated_covers_id_loads_as_one_hit():
    once = doc_to_instance(_coverage_doc(covers={"1": [1], "2": [1]}))
    twice = doc_to_instance(_coverage_doc(covers={"1": [1, 1], "2": [1]}))
    f, g = once.oracles[0], twice.oracles[0]
    assert np.array_equal(f._hits, g._hits)
    assert dumps(instance_to_doc(twice)) == dumps(instance_to_doc(once))


def _dense(doc):
    """doc with every element of 1..n listed in each covers, empty lists included."""
    doc = json.loads(json.dumps(doc))
    for agent in doc["agents"]:
        for fn in agent["functions"]:
            if fn["family"] == "coverage":
                covers = fn["params"]["covers"]
                fn["params"]["covers"] = {str(e): covers.get(str(e), [])
                                          for e in range(1, doc["n"] + 1)}
    return doc


def test_dense_and_sparse_covers_load_alike():
    sparse = instance_to_doc(random_coverage_instance(9, 3, 3, 5))
    dense = _dense(sparse)
    assert any(not hit for agent in dense["agents"] for fn in agent["functions"]
               for hit in fn["params"]["covers"].values())  # the dense twin lists empties
    a, b = doc_to_instance(sparse), doc_to_instance(dense)
    for f, g in zip(a.oracles, b.oracles):
        assert np.array_equal(f._hits, g._hits)
        assert [f.element_mask(e) for e in range(11)] == [g.element_mask(e) for e in range(11)]
    # either one saves as the sparse bytes
    assert dumps(instance_to_doc(b)) == dumps(instance_to_doc(a)) == dumps(sparse)


def test_dumps_is_one_stable_line():
    doc = instance_to_doc(random_coverage_instance(12, 4, 3, 6))
    text = dumps(doc)
    assert text.endswith("\n") and text.count("\n") == 1
    assert json.loads(text) == doc
    assert dumps(instance_to_doc(random_coverage_instance(12, 4, 3, 6))) == text
    # another interpreter, with another string hash seed, writes the same bytes
    code = ("import sys; from subrank.functions import random_coverage_instance as r; "
            "from subrank.instance_io import dumps, instance_to_doc; "
            "sys.stdout.write(dumps(instance_to_doc(r(12, 4, 3, 6))))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONHASHSEED": "7"}, check=True)
    assert proc.stdout == text


@pytest.mark.parametrize("make", [mixed_instance, lambda: random_coverage_instance(10, 4, 3, 2)],
                         ids=["mixed", "coverage"])
def test_indented_and_compact_files_load_alike(make, tmp_path):
    doc = instance_to_doc(make())
    indented, compact = tmp_path / "indented.json", tmp_path / "compact.json"
    indented.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    compact.write_text(dumps(doc))
    assert len(compact.read_bytes()) < len(indented.read_bytes())
    a, b = load_instance(str(indented)), load_instance(str(compact))
    perm = tuple(range(a.n, 0, -1))
    assert cover_report(a, perm) == cover_report(b, perm)
    assert normalized_greedy(a) == normalized_greedy(b)


ODT_TABLE = [[0, 1], [1, 0], [1, 1]]  # every row identifiable


@st.composite
def mixed_documents(draw):
    """Valid documents mixing many coverage functions with gmsc, singleton and odt ones.

    Coverage covers are dense (every element listed, empty lists included)
    or sparse, name ids more than once and leave items unhit. With
    leading_zeros, some keys are written like "01", which _coverage reads
    as the element it names.
    """
    n = draw(st.integers(2, 12))
    leading_zeros = draw(st.booleans())
    agents = []
    for _ in range(draw(st.integers(1, 4))):
        funcs = []
        for _ in range(draw(st.integers(0, 6))):
            family = draw(st.sampled_from(["coverage"] * 3 + ["gmsc", "singleton", "odt"]))
            if family == "coverage":
                ids = draw(st.lists(st.integers(-5, 60), max_size=4, unique=True))
                items = [{"id": i, "w": draw(st.integers(1, 9))} for i in ids]
                dense = draw(st.booleans())
                elements = range(1, n + 1) if dense else sorted(
                    draw(st.sets(st.integers(1, n), max_size=n)))
                covers = {}
                for e in draw(st.permutations(list(elements))):
                    key = "0" * draw(st.integers(0, 2)) + str(e) if leading_zeros else str(e)
                    covers[key] = draw(st.lists(st.sampled_from(ids), max_size=4)) if ids else []
                params = {"items": items, "covers": covers}
            elif family == "gmsc":
                members = sorted(draw(st.sets(st.integers(1, n), min_size=1)))
                params = {"members": members, "K": draw(st.integers(1, len(members)))}
            elif family == "singleton":
                params = {"element": draw(st.integers(1, n))}
            else:
                params = {"table_ref": "t0", "row": draw(st.integers(1, len(ODT_TABLE)))}
            weight = draw(st.one_of(st.integers(1, 5), st.floats(0.25, 4.0)))
            funcs.append({"family": family, "params": params, "weight": weight})
        agents.append({"functions": funcs})
    return {"n": n, "agents": agents, "tables": {"t0": ODT_TABLE}}


@settings(max_examples=100, deadline=None)
@given(doc=mixed_documents())
def test_one_pass_coverage_decode_matches_coverage(doc):
    """doc_to_instance builds each coverage oracle as _coverage does, in one pass.

    Only a document with a "01"-style key goes function by function.
    """
    coverage = instance_io._coverage
    with mock.patch.object(instance_io, "_coverage", wraps=coverage) as spy:
        inst = doc_to_instance(doc)
    n, checked = doc["n"], 0
    for agent, agent_doc in zip(inst.agents, doc["agents"]):
        for (oracle, _), f_doc in zip(agent.functions, agent_doc["functions"]):
            if f_doc["family"] != "coverage":
                continue
            checked += 1
            ref = coverage(f_doc["params"]["items"], f_doc["params"]["covers"], n)
            assert oracle.items == ref.items
            assert [type(v) for pair in oracle.items for v in pair] == [int] * 2 * len(ref.items)
            for got, want in ((oracle.elements, ref.elements), (oracle.positions, ref.positions)):
                assert got.dtype == want.dtype and np.array_equal(got, want)
            Instance(n=n, agents=(Agent(id=1, functions=((ref, 1.0),)),))  # seals ref's block
            assert np.array_equal(oracle._hits, ref._hits)
            assert [oracle.element_mask(e) for e in range(n + 2)] == [
                ref.element_mask(e) for e in range(n + 2)]
    canonical = all(key == str(int(key)) for agent_doc in doc["agents"]
                    for f_doc in agent_doc["functions"] if f_doc["family"] == "coverage"
                    for key in f_doc["params"]["covers"])
    assert spy.call_count == (0 if canonical else checked)


_VALID_COVERAGE = {"family": "coverage", "weight": 1.0,
                   "params": {"items": [{"id": 1, "w": 2}], "covers": {"1": [1], "2": [1]}}}


def _coverage_fault(**params):
    return {**_VALID_COVERAGE, "params": {**_VALID_COVERAGE["params"], **params}}


# (where the fault sits: "function" or "agent", the bad document part, its message)
FIRST_ERROR_FAULTS = {
    "covers-key": ("function", _coverage_fault(covers={"1": [1], "3": [1]}),
                   "covers keys must be elements of 1..2"),
    "covers-id": ("function", _coverage_fault(covers={"1": [7]}),
                  "covers names 7, which is not an item id"),
    "covers-item": ("function", _coverage_fault(items=[{"id": 1, "w": 0}]),
                    "item 1: w must be at least 1, got 0"),
    "covers-missing": ("function", {**_VALID_COVERAGE, "params": {"items": []}},
                       "missing field 'covers'"),
    "gmsc": ("function", {"family": "gmsc", "params": {"members": [1, 3], "K": 1}, "weight": 1.0},
             "gmsc member outside 1..2"),
    "weight": ("function", {**_VALID_COVERAGE, "weight": -1.0}, "nonpositive weight -1.0"),
    # a coverage function's params are read before its weight's sign
    "weight-and-key": ("function", {**_coverage_fault(covers={"01": [1], "1": [1]}), "weight": 0},
                       "covers names an element twice"),
    "agent": ("agent", [_VALID_COVERAGE], 'agents entries must be {"functions": [...]}'),
}


@pytest.mark.parametrize("first,second", itertools.permutations(sorted(FIRST_ERROR_FAULTS), 2))
@pytest.mark.parametrize("same_agent", [False, True], ids=["two-agents", "one-agent"])
def test_first_fault_in_document_order_is_raised(first, second, same_agent):
    """Of two faulty functions or agent entries, the earlier one's message is raised."""
    agents = [{"functions": [_VALID_COVERAGE]}]
    for name in (first, second):
        kind, part, _ = FIRST_ERROR_FAULTS[name]
        if kind == "agent":
            agents.append(part)
        elif same_agent and isinstance(agents[-1], dict) and len(agents) > 1:
            agents[-1]["functions"].append(part)
        else:
            agents.append({"functions": [_VALID_COVERAGE, part]})
    kind, _, message = FIRST_ERROR_FAULTS[first]
    where = "agent 2" if kind == "agent" else "agent 2 function 2"
    with pytest.raises(InstanceFormatError) as info:
        doc_to_instance({"n": 2, "agents": agents})
    assert str(info.value) == f"{where}: {message}"
