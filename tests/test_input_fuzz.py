"""Fuzzing the input boundary: mutated instance and config documents.

Every document a user can hand to ``solve``, ``gmsc-bench`` or
``experiment`` must end in exit 0 or a data error (exit 2) reported on
``error:``/``warning:`` lines, never in a traceback. Documents start valid and are mutated by deleting
keys or list entries, swapping values for null, lists, objects, strings,
booleans and small or negative numbers, and adding stray keys. Integers are
drawn from -3..40, so no mutation asks for a huge ground set; fixed
examples add covers keys and item ids too large for a 64-bit integer, and
covers keys that Python's int() reads but a file may not use.
"""

import copy
import json
import os
import tempfile

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from subrank.cli import EXIT_DATA, EXIT_OK, main
from subrank.functions import hard_family, random_coverage_instance
from subrank.gmsc import random_gmsc_instance
from subrank.instance_io import instance_to_doc

ODT_DOC = {
    "n": 3,
    "tables": {"t0": [[0, 1], [1, 0], [1, 1]]},
    "agents": [
        {"functions": [{"family": "odt", "params": {"table_ref": "t0", "row": 1}, "weight": 1.0},
                       {"family": "odt", "params": {"table_ref": "t0", "row": 3}, "weight": 2.0}]},
        {"functions": [{"family": "singleton", "params": {"element": 2}, "weight": 0.5}]},
    ],
}
GMSC_DOC = instance_to_doc(random_gmsc_instance(6, 2, 2, 3))
INSTANCE_DOCS = [
    GMSC_DOC,
    instance_to_doc(random_coverage_instance(5, 2, 2, 1)),
    instance_to_doc(hard_family(4)),
    ODT_DOC,
]
CONFIG_DOCS = [
    {"K": [2], "M": [2], "seeds": [0], "ratio_grid": [0.5],
     "synthetic": {"rows": 30, "cols": 5, "values": 3, "seed": 1}},
    {"K": [2, 3], "M": [2, 3], "seeds": [0], "pair_km": True, "ratio_grid": [0.3, 0.7],
     "objective": "average", "max_values": 4,
     "synthetic": {"rows": 20, "cols": 4, "values": 3}},
    {"seeds": [1], "ratio_grid": [0.5],
     "synthetic": {"family": "coverage", "n": 5, "k": 2, "m": 2, "seed": 2}},
    {"seeds": [0], "ratio_grid": [0.5], "synthetic": {"family": "hard", "k": 4, "delta": 0.01}},
]


def _coverage_doc(covers, n=2):
    """One coverage function with item id 1 over 1..n; the keys and ids are the fuzz."""
    return {"n": n, "agents": [{"functions": [
        {"family": "coverage", "params": {"items": [{"id": 1, "w": 1}], "covers": covers},
         "weight": 1.0}]}]}


SMALL_INTS = st.integers(-3, 40)
SCALARS = st.one_of(
    st.none(), st.booleans(), SMALL_INTS, st.floats(-3, 40), st.sampled_from(["", "x", "1", "t0"])
)
VALUES = st.one_of(SCALARS, st.lists(SCALARS, max_size=3), st.dictionaries(
    st.sampled_from(["n", "K", "members", "row", "x"]), SCALARS, max_size=2))


def _paths(node, path=()):
    """Every (path, node) pair below and including node."""
    yield path, node
    children = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, child in children:
        yield from _paths(child, path + (key,))


@st.composite
def mutated(draw, docs):
    doc = copy.deepcopy(draw(st.sampled_from(docs)))
    for _ in range(draw(st.integers(1, 3))):
        paths = list(_paths(doc))
        path, node = draw(st.sampled_from(paths))
        op = draw(st.sampled_from(["replace", "delete", "add"]))
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if op == "add" and isinstance(node, dict):
            node[draw(st.sampled_from(["n", "K", "extra", "weight"]))] = draw(VALUES)
        elif op == "add" and isinstance(node, list):
            node.append(draw(VALUES))
        elif not path:
            doc = draw(VALUES)
        elif op == "delete":
            del parent[path[-1]]
        else:
            parent[path[-1]] = draw(VALUES)
    return doc


def assert_clean_exit(argv, doc, name, capsys, caplog):
    """Run argv with doc written to name; exit 0 or 2, no traceback anywhere."""
    with tempfile.TemporaryDirectory() as work:
        path = os.path.join(work, name)
        with open(path, "w") as fh:
            json.dump(doc, fh)
        capsys.readouterr()
        caplog.clear()
        code = main([a.replace("{doc}", path).replace("{work}", work) for a in argv])
    err = capsys.readouterr().err
    assert code in (EXIT_OK, EXIT_DATA), (code, err)
    assert "Traceback" not in err
    assert all(line.startswith(("error: ", "warning: ")) for line in err.splitlines()), err
    if code == EXIT_DATA:
        assert "error: " in err
    assert not any(r.exc_info for r in caplog.records)


FUZZ = settings(max_examples=150, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])


@FUZZ
@given(doc=mutated(INSTANCE_DOCS), algo=st.sampled_from(["random", "greedy", "ng", "bag", "brute"]))
@example(doc={"n": 2, "agents": [{"functions": [  # used to die in a ZeroDivisionError
    {"family": "coverage", "params": {"items": [{"id": 1, "w": 0}], "covers": {"1": [1]}},
     "weight": 1.0}]}]}, algo="ng")
@example(doc=_coverage_doc({"1": [1], "99999999999999999999999": [1]}), algo="greedy")
@example(doc=_coverage_doc({"1": [1], "2": [2**70]}), algo="greedy")
@example(doc=_coverage_doc({"1": [True], "2": [1]}), algo="greedy")
@example(doc=_coverage_doc({"1": [1, 1], "2": [1]}), algo="brute")  # loads; counts once
@example(doc=_coverage_doc({"1_0": [1]}, n=10), algo="greedy")  # keys int() would take
@example(doc=_coverage_doc({" 10 ": [1]}, n=10), algo="greedy")
@example(doc=_coverage_doc({"\u0661\u0660": [1]}, n=10), algo="greedy")
@example(doc=_coverage_doc({"+1": [1], "2": [1]}), algo="greedy")
# both decode their coverage functions one by one: the first after a fault
# in its second function, the second for its "01" key, which loads
@example(doc={"n": 2, "agents": [{"functions": [
    _coverage_doc({"1": [1], "2": [1]})["agents"][0]["functions"][0],
    {"family": "coverage", "params": {"items": [{"id": 1, "w": 1}], "covers": {"1": [2]}},
     "weight": 1.0}]}]}, algo="brute")
@example(doc=_coverage_doc({"01": [1], "2": [1]}), algo="brute")
def test_solve_survives_mutated_instances(doc, algo, capsys, caplog):
    assert_clean_exit(["solve", "--instance", "{doc}", "--algo", algo, "--node-limit", "200"],
                      doc, "inst.json", capsys, caplog)


@FUZZ
@given(doc=mutated([GMSC_DOC, *INSTANCE_DOCS]))
def test_gmsc_bench_survives_mutated_instances(doc, capsys, caplog):
    assert_clean_exit(["gmsc-bench", "--instance", "{doc}", "--seeds", "2"],
                      doc, "inst.json", capsys, caplog)


@FUZZ
@given(doc=mutated(CONFIG_DOCS))
@example(doc={"seeds": [0], "ratio_grid": [0.5],  # every cell fails on its data
              "synthetic": {"family": "hard", "k": 5}})
@example(doc={**CONFIG_DOCS[1], "pair_km": "false"})  # a string is not a boolean
def test_experiment_survives_mutated_configs(doc, capsys, caplog):
    assert_clean_exit(["experiment", "--config", "{doc}", "--out", "{work}/out", "--jobs", "1"],
                      doc, "cfg.json", capsys, caplog)
