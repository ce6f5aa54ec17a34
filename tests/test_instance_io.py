"""Instance JSON round-trips and loader rejection paths."""

import io
import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest

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


def test_solve_reports_structural_faults_in_one_line(tmp_path):
    for name, (doc, _) in sorted(MALFORMED.items()):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc))
        proc = subprocess.run(
            [sys.executable, "-m", "subrank.cli", "solve", "--instance", str(path),
             "--algo", "ng"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 2, name
        assert len(proc.stderr.splitlines()) == 1, (name, proc.stderr)
        assert "Traceback" not in proc.stderr, name


def test_repeated_covers_id_loads_as_one_hit():
    once = doc_to_instance(_coverage_doc(covers={"1": [1], "2": [1]}))
    twice = doc_to_instance(_coverage_doc(covers={"1": [1, 1], "2": [1]}))
    f, g = once.oracles[0], twice.oracles[0]
    assert np.array_equal(f.incidence(2), g.incidence(2))
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
        assert np.array_equal(f.incidence(9), g.incidence(9))
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
