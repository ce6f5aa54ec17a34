"""JSON serialization for ranking instances.

Document layout::

    {
      "n": 6,
      "agents": [
        {"functions": [{"family": "singleton", "params": {"element": 1}, "weight": 1.01}]}
      ],
      "tables": {"t0": [[0, 1], [1, 0]]}        # only when odt functions appear
    }

Family params: coverage -> {items: [{id, w}], covers: {elem: [ids]}};
odt -> {table_ref, row} with table_ref resolved against the top-level
"tables" object; gmsc -> {members: [...], K} with members in 1..n;
singleton -> {element}. Weights are positive finite numbers. A function's
denominator (a coverage function's total item weight) may not exceed
2**53. Unknown families are rejected.
"""

from __future__ import annotations

import json
import math
from typing import IO, Union

from subrank.core import Agent, Instance
from subrank.functions import (
    CoverageFunction,
    GmscFunction,
    GmscSet,
    OdtFunction,
    OdtTable,
    SingletonFunction,
    coverage_function,
    gmsc_function,
    odt_function,
    singleton_function,
)


class InstanceFormatError(ValueError):
    """Raised when an instance document is structurally invalid."""


def instance_to_doc(inst: Instance) -> dict:
    tables: dict = {}
    table_refs: dict = {}  # id(table.rows) -> ref
    agents_doc = []
    for agent in inst.agents:
        funcs_doc = []
        for oracle, weight in agent.functions:
            if isinstance(oracle, CoverageFunction):
                family, params = "coverage", oracle.to_params()
            elif isinstance(oracle, OdtFunction):
                rows = oracle.table.rows
                key = rows  # tuples hash by content, deduping identical tables
                if key not in table_refs:
                    table_refs[key] = f"t{len(table_refs)}"
                    tables[table_refs[key]] = [list(r) for r in rows]
                family = "odt"
                params = {"table_ref": table_refs[key], "row": oracle.row}
            elif isinstance(oracle, GmscFunction):
                family, params = "gmsc", oracle.to_params()
            elif isinstance(oracle, SingletonFunction):
                family, params = "singleton", oracle.to_params()
            else:
                raise InstanceFormatError(
                    f"oracle type {type(oracle).__name__} has no JSON family"
                )
            funcs_doc.append({"family": family, "params": params, "weight": weight})
        agents_doc.append({"functions": funcs_doc})
    doc = {"n": inst.n, "agents": agents_doc}
    if tables:
        doc["tables"] = tables
    return doc


def doc_to_instance(doc: dict) -> Instance:
    """Build an Instance; every structural fault raises InstanceFormatError."""
    try:
        n = int(doc["n"])
        agents_doc = doc["agents"]
        tables = {
            ref: OdtTable(rows=tuple(tuple(r) for r in rows))
            for ref, rows in doc.get("tables", {}).items()
        }
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise InstanceFormatError(f"missing or malformed field: {exc}") from exc
    if not isinstance(agents_doc, list):
        raise InstanceFormatError("agents must be a list")
    if not agents_doc:
        raise InstanceFormatError("instance has no agents")
    agents = []
    for i, agent_doc in enumerate(agents_doc, start=1):
        funcs_doc = agent_doc.get("functions") if isinstance(agent_doc, dict) else None
        if not isinstance(funcs_doc, list):
            raise InstanceFormatError(
                f'agent {i}: agents entries must be {{"functions": [...]}}'
            )
        funcs = []
        for j, f_doc in enumerate(funcs_doc, start=1):
            where = f"agent {i} function {j}"
            try:
                weight = float(f_doc["weight"])
                oracle = _build_oracle(
                    f_doc.get("family"), f_doc.get("params", {}), tables, n, where
                )
            except InstanceFormatError:
                raise
            except KeyError as exc:
                raise InstanceFormatError(f"{where}: missing field {exc}") from exc
            except (TypeError, ValueError, AttributeError) as exc:
                raise InstanceFormatError(f"{where}: {exc}") from exc
            if not math.isfinite(weight):
                raise InstanceFormatError(f"{where}: non-finite weight {weight}")
            if weight <= 0:
                raise InstanceFormatError(f"{where}: nonpositive weight {weight}")
            funcs.append((oracle, weight))
        agents.append(Agent(id=i, functions=tuple(funcs)))
    try:
        return Instance(n=n, agents=tuple(agents))
    except ValueError as exc:  # a denominator too large for exact float64 gains
        raise InstanceFormatError(str(exc)) from exc


def _build_oracle(family, params, tables, n, where):
    if family == "coverage":
        items = [(item["id"], item["w"]) for item in params["items"]]
        covers = {int(e): ids for e, ids in params["covers"].items()}
        return coverage_function(items, covers)
    if family == "odt":
        ref = params["table_ref"]
        if ref not in tables:
            raise InstanceFormatError(f"{where}: unknown table_ref {ref!r}")
        return odt_function(tables[ref], int(params["row"]))
    if family == "gmsc":
        members = frozenset(params["members"])
        if not all(1 <= e <= n for e in members):
            raise InstanceFormatError(f"{where}: gmsc member outside 1..{n}")
        return gmsc_function(GmscSet(members=members, K=int(params["K"])))
    if family == "singleton":
        return singleton_function(int(params["element"]))
    raise InstanceFormatError(f"{where}: unknown family {family!r}")


def dumps(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def save_instance(inst: Instance, path_or_file: Union[str, IO]) -> None:
    text = dumps(instance_to_doc(inst))
    if hasattr(path_or_file, "write"):
        path_or_file.write(text)
    else:
        with open(path_or_file, "w") as fh:
            fh.write(text)


def load_instance(path_or_file: Union[str, IO]) -> Instance:
    if hasattr(path_or_file, "read"):
        doc = json.load(path_or_file)
    else:
        with open(path_or_file) as fh:
            doc = json.load(fh)
    return doc_to_instance(doc)
