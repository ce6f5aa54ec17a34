"""JSON serialization for ranking instances.

Document layout (shown indented)::

    {
      "n": 6,
      "agents": [
        {"functions": [{"family": "singleton", "params": {"element": 1}, "weight": 1.01}]}
      ],
      "tables": {"t0": [[0, 1], [1, 0]]}        # only when odt functions appear
    }

The writer emits compact JSON on one line with sorted keys, which
json.dumps writes with its C encoder; the reader accepts any whitespace,
so indented files load as before.

This module is the only home of family params: coverage -> {items: [{id,
w}], covers: {elem: [ids]}} with distinct ids, w >= 1 and each element in
1..n at most once; odt -> {table_ref, row} with table_ref resolved against
the top-level "tables" object; gmsc -> {members: [...], K} with members in
1..n; singleton -> {element} with element in 1..n. n, ids, w, elements,
row, members and K are JSON integers, never floats or booleans; a covers
key, a JSON string, is ASCII digits only (no sign, space, underscore or
other script's digits). Weights
are positive finite numbers. A denominator (a coverage function's total
item weight) may not exceed 2**53. Every fault raises an
InstanceFormatError naming the field.

covers is sparse: an element it does not name hits nothing. The writer
omits empty lists, and the reader takes a file with or without them
through one code path, which turns the lists straight into the oracle's
(element, item position) arrays. An id repeated in one list counts once.

The reader decodes all coverage functions of a document in one pass
(_coverage_together): it checks each distinct covers key once, reads every
function's items, keys, hit lists and ids with one map each, and slices
each oracle's arrays from two shared ones. _coverage, the per-function
decoder, is that pass's reference and its error path: a fault anywhere,
or a key not written as its element (such as "01", which int() takes as
1), sends the document's coverage functions through _coverage one by
one, so every message, and which fault is raised first, is _coverage's.

write_csv is the one writer of the CSV files that commands write (sweep
results and summaries, gmsc-bench's per-seed rows and fractional LP).
"""

from __future__ import annotations

import json
import sys
from itertools import accumulate, chain, repeat
from operator import itemgetter, sub
from typing import IO, Iterable, Optional, Union

import numpy as np

from subrank.core import Agent, Instance
from subrank.functions import (
    CoverageFunction,
    GmscFunction,
    GmscSet,
    OdtFunction,
    OdtTable,
    SingletonFunction,
    gmsc_function,
    odt_function,
    singleton_function,
)


class InstanceFormatError(ValueError):
    """Raised when an instance document is structurally invalid."""


def is_integer(value) -> bool:
    """Whether value is a JSON integer (a bool is not one)."""
    return isinstance(value, int) and not isinstance(value, bool)


def is_number(value) -> bool:
    """Whether value is a JSON number (a bool is not one)."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def instance_to_doc(inst: Instance) -> dict:
    tables: dict = {}
    table_refs: dict = {}  # table rows -> ref
    agents_doc = []
    for agent in inst.agents:
        funcs_doc = []
        for oracle, weight in agent.functions:
            if isinstance(oracle, CoverageFunction):
                family, params = "coverage", {
                    "items": [{"id": i, "w": w} for i, w in oracle.items],
                    "covers": _covers_doc(oracle),
                }
            elif isinstance(oracle, OdtFunction):
                rows = oracle.table.rows  # tuples hash by content, deduping identical tables
                if rows not in table_refs:
                    table_refs[rows] = f"t{len(table_refs)}"
                    tables[table_refs[rows]] = [list(r) for r in rows]
                family, params = "odt", {"table_ref": table_refs[rows], "row": oracle.row}
            elif isinstance(oracle, GmscFunction):
                gmsc_set = oracle.gmsc_set
                family, params = "gmsc", {"members": sorted(gmsc_set.members), "K": gmsc_set.K}
            elif isinstance(oracle, SingletonFunction):
                family, params = "singleton", {"element": oracle.element}
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


def doc_to_instance(doc) -> Instance:
    """Build an Instance; every structural fault raises InstanceFormatError.

    The walk builds every oracle but the coverage ones, whose params it
    keeps; _coverage_together then decodes those in one pass, or
    _coverage_each one by one when the pass does not take them. The error
    raised is the first in document order: when the walk stops at a fault,
    the coverage functions before it are decoded one by one first.
    """
    try:
        doc = _typed(doc, dict, "instance")
        n = _integer(doc["n"], "n")
        agents_doc = _typed(doc["agents"], list, "agents")
        tables = {ref: _table(ref, rows)
                  for ref, rows in _typed(doc.get("tables", {}), dict, "tables").items()}
    except KeyError as exc:
        raise InstanceFormatError(f"missing field {exc}") from exc
    except ValueError as exc:
        raise InstanceFormatError(str(exc)) from exc
    if not agents_doc:
        raise InstanceFormatError("instance has no agents")
    funcs_of = []  # each agent's (oracle, weight) list, None for a coverage oracle until decoded
    pending = []  # (where, items doc, covers doc) of each coverage function, in document order
    slots = []  # (its agent's list, its index there) of each coverage function
    try:
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
                    f_doc = _typed(f_doc, dict, "function")
                    weight = f_doc["weight"]
                    if not is_number(weight):
                        raise ValueError(f"weight {weight!r:.40} is not a number")
                    if not abs(weight) <= sys.float_info.max:  # NaN, inf, or an int past float64
                        raise ValueError(f"non-finite weight {weight!r:.40}")
                    params = _typed(f_doc.get("params", {}), dict, "params")
                    family = f_doc.get("family")
                    if family == "coverage":
                        pending.append((where, params["items"], params["covers"]))
                        slots.append((funcs, len(funcs)))
                        oracle = None
                    else:
                        oracle = _build_oracle(family, params, tables, n)
                except KeyError as exc:
                    raise InstanceFormatError(f"{where}: missing field {exc}") from exc
                except ValueError as exc:
                    raise InstanceFormatError(f"{where}: {exc}") from exc
                if weight <= 0:
                    raise InstanceFormatError(f"{where}: nonpositive weight {weight}")
                funcs.append((oracle, float(weight)))
            funcs_of.append(funcs)
    except InstanceFormatError:
        _coverage_each(pending, n)  # raises the fault of an earlier coverage function
        raise
    if pending:  # gmsc files have none
        oracles = _coverage_together(pending, n)
        if oracles is None:
            oracles = _coverage_each(pending, n)
        for (funcs, slot), oracle in zip(slots, oracles):
            funcs[slot] = (oracle, funcs[slot][1])
    agents = tuple(Agent(id=i, functions=tuple(funcs)) for i, funcs in enumerate(funcs_of, 1))
    try:
        return Instance(n=n, agents=agents)
    except ValueError as exc:  # a denominator too large for exact float64 gains
        raise InstanceFormatError(str(exc)) from exc


def _integer(value, name: str) -> int:
    if not is_integer(value):
        raise ValueError(f"{name} {value!r:.40} is not an integer")
    return value


def _typed(value, kind: type, name: str):
    """value when it is a kind (list or dict); raises ValueError otherwise."""
    if not isinstance(value, kind):
        raise ValueError(f"{name} must be a {_KIND_NAMES[kind]}, got {value!r:.40}")
    return value


_KIND_NAMES = {list: "list", dict: "JSON object"}


def _table(ref, rows) -> OdtTable:
    try:
        rows = _typed(rows, list, "rows")
        return OdtTable(rows=tuple(tuple(_typed(r, list, "row")) for r in rows))
    except ValueError as exc:
        raise ValueError(f"table {ref!r}: {exc}") from None


def _covers_doc(oracle: CoverageFunction) -> dict:
    """The nonempty covers lists: {str(element): sorted item ids}."""
    ids = [i for i, _ in oracle.items]
    pairs = {(e, ids[p]) for e, p in zip(oracle.elements.tolist(), oracle.positions.tolist())}
    covers: dict = {}
    for e, item_id in sorted(pairs):
        covers.setdefault(str(e), []).append(item_id)
    return covers


def _coverage(items_doc, covers_doc, n: int) -> CoverageFunction:
    """A coverage oracle whose hit arrays are filled in bulk from covers.

    Every key and id is checked as a Python int before it reaches numpy;
    most keys name few ids, so the checks run over whole lists. This
    per-function decoder is the reference _coverage_together must match,
    and the only writer of coverage fault messages.
    """
    items = []
    for item in _typed(items_doc, list, "items"):
        item = _typed(item, dict, "item")
        item_id, w = _integer(item["id"], "item id"), _integer(item["w"], "item w")
        if w < 1:
            raise ValueError(f"item {item_id}: w must be at least 1, got {w}")
        items.append((item_id, w))
    index = {item_id: pos for pos, (item_id, _) in enumerate(items)}
    if len(index) < len(items):
        raise ValueError("item ids repeat")
    outside = f"covers keys must be elements of 1..{n}"
    covers = _typed(covers_doc, dict, "covers")
    # int() alone would also take " 10 ", "1_0", "+1" and non-ASCII digits
    keys = "".join(covers)
    if covers and not (keys.isascii() and keys.isdigit()):
        raise ValueError(outside)
    try:
        elements = list(map(int, covers))
    except ValueError:  # an empty key
        raise ValueError(outside) from None
    if elements and not (min(elements) >= 1 and max(elements) <= n):
        raise ValueError(outside)
    if len(set(elements)) < len(elements):  # "1" and "01" name one element
        raise ValueError("covers names an element twice")
    hit_lists = list(covers.values())
    if not set(map(type, hit_lists)) <= {list}:
        raise ValueError("covers values must be lists of item ids")
    named = list(chain.from_iterable(hit_lists))
    positions = list(map(index.get, named)) if set(map(type, named)) <= {int} else [None]
    if None in positions:
        bad = next(i for i in named if type(i) is not int or i not in index)
        raise ValueError(f"covers names {bad!r:.40}, which is not an item id")
    return CoverageFunction(
        items=tuple(items),
        elements=np.array([e for e, hits in zip(elements, hit_lists) for _ in hits], np.intp),
        positions=np.array(positions, np.intp),
    )


def _coverage_each(pending, n: int) -> list:
    """_coverage of each (where, items doc, covers doc), in order.

    The first fault raises InstanceFormatError prefixed with its where.
    """
    oracles = []
    for where, items_doc, covers_doc in pending:
        try:
            oracles.append(_coverage(items_doc, covers_doc, n))
        except KeyError as exc:
            raise InstanceFormatError(f"{where}: missing field {exc}") from exc
        except ValueError as exc:
            raise InstanceFormatError(f"{where}: {exc}") from exc
    return oracles


def _coverage_together(pending, n: int) -> Optional[list]:
    """_coverage_each(pending, n) in one pass, or None where the pass does not apply.

    Each distinct covers key is checked once, for every function naming
    it, and every item, key, hit list and id is read by one map or one
    numpy call over the whole document; each oracle's arrays are slices of
    two shared ones. None wherever _coverage might differ or raise: on a
    fault, on a list or dict subclass, and on a key other than
    str(element), since int() takes "01" as 1. Then _coverage_each
    returns the same oracles or raises the first fault.
    """
    _, items_docs, covers_docs = zip(*pending)
    if not (set(map(type, items_docs)) <= {list} and set(map(type, covers_docs)) <= {dict}):
        return None
    items = list(chain.from_iterable(items_docs))
    hit_lists = list(chain.from_iterable(map(dict.values, covers_docs)))
    if not (set(map(type, items)) <= {dict} and set(map(type, hit_lists)) <= {list}):
        return None
    hit_ids = list(chain.from_iterable(hit_lists))
    try:
        ids = list(map(itemgetter("id"), items))
        ws = list(map(itemgetter("w"), items))
    except KeyError:
        return None
    if not set(map(type, chain(ids, ws, hit_ids))) <= {int}:
        return None
    if ws and min(ws) < 1:
        return None
    keys = list(chain.from_iterable(covers_docs))
    distinct = list(set(keys))
    try:
        values = list(map(int, distinct))
    except (TypeError, ValueError):  # a key int() cannot read
        return None
    # a key is taken only as exactly str(element): ASCII digits without a
    # leading zero, so no element repeats within a function
    if values and not (list(map(str, values)) == distinct and 1 <= min(values)
                       and max(values) <= n):
        return None
    elements_of = dict(zip(distinct, values))
    item_ends = list(accumulate(map(len, items_docs), initial=0))
    indexes = [dict(zip(ids[lo:hi], range(hi - lo))) for lo, hi in zip(item_ends, item_ends[1:])]
    if sum(map(len, indexes)) < len(ids):  # an id repeats within a function
        return None
    lengths = np.fromiter(map(len, hit_lists), np.intp, len(hit_lists))
    hit_ends = np.concatenate(([0], np.cumsum(lengths)))
    ends = hit_ends[list(accumulate(map(len, covers_docs), initial=0))].tolist()
    index_of_hit = chain.from_iterable(map(repeat, indexes, map(sub, ends[1:], ends)))
    try:
        positions = np.fromiter(map(dict.get, index_of_hit, hit_ids), np.intp, len(hit_ids))
    except TypeError:  # None: an id its function does not list
        return None
    elements = np.repeat(np.fromiter(map(elements_of.__getitem__, keys), np.intp, len(keys)),
                         lengths)
    pairs = list(zip(ids, ws))
    return [CoverageFunction(items=tuple(pairs[i_lo:i_hi]), elements=elements[lo:hi],
                             positions=positions[lo:hi])
            for i_lo, i_hi, lo, hi in zip(item_ends, item_ends[1:], ends, ends[1:])]


def _build_oracle(family, params, tables, n):
    if family == "odt":
        ref = params["table_ref"]
        if not isinstance(ref, str) or ref not in tables:
            raise ValueError(f"unknown table_ref {ref!r:.40}")
        return odt_function(tables[ref], _integer(params["row"], "row"))
    if family == "gmsc":
        members = _typed(params["members"], list, "members")
        members = [_integer(e, "set member") for e in members]
        if not all(1 <= e <= n for e in members):
            raise ValueError(f"gmsc member outside 1..{n}")
        return gmsc_function(GmscSet(members=frozenset(members), K=_integer(params["K"], "K")))
    if family == "singleton":
        element = _integer(params["element"], "element")
        if not 1 <= element <= n:
            raise ValueError(f"singleton element outside 1..{n}")
        return singleton_function(element)
    raise ValueError(f"unknown family {family!r:.40}")


def dumps(doc: dict) -> str:
    """doc as one line of compact JSON with sorted keys, plus a newline.

    Without indent, json.dumps takes CPython's C encoder instead of its
    pure-Python one, and the file loses the whitespace that made up most
    of its bytes.
    """
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def write_csv(path: str, header: str, rows: Iterable[dict]) -> None:
    """Write a CSV: header, then each row's cells in header order.

    None is an empty cell, a *_ms column has 3 places and any other float
    its repr.
    """
    columns = header.split(",")

    def cell(column: str, value) -> str:
        if value is None:
            return ""
        if column.endswith("_ms"):
            return f"{value:.3f}"
        return repr(value) if isinstance(value, float) else str(value)

    with open(path, "w") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(cell(c, row[c]) for c in columns) + "\n")


def save_instance(inst: Instance, path_or_file: Union[str, IO]) -> None:
    text = dumps(instance_to_doc(inst))
    if hasattr(path_or_file, "write"):
        path_or_file.write(text)
    else:
        with open(path_or_file, "w") as fh:
            fh.write(text)


def load_json(fh: IO):
    """json.load(fh); nesting too deep for the parser raises InstanceFormatError."""
    try:
        return json.load(fh)
    except RecursionError:
        raise InstanceFormatError("JSON nests too deeply to parse") from None


def load_instance(path_or_file: Union[str, IO]) -> Instance:
    if hasattr(path_or_file, "read"):
        doc = load_json(path_or_file)
    else:
        with open(path_or_file) as fh:
            doc = load_json(fh)
    return doc_to_instance(doc)
