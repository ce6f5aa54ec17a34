"""In-memory span tracer for the benchmark's traced run.

Hooks wrap public functions of the program where their callers look them
up (``subrank.cli.normalized_greedy`` is the name the CLI calls, so that is
the attribute replaced). Every hook names its targets by dotted path and is
resolved when the tracer is installed; a target that no longer exists is
reported as absent and skipped, so code moving or disappearing in the
program never stops a traced run. Spans stay in memory as
``[id, name, site, op, parent, start, end]`` lists until the run ends
and ``write_jsonl`` stores them.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Optional


def _lp_iterations(result, args):
    return {"simplex.solve_dense_lp.iterations": getattr(result, "iterations", 0)}


def _lp_cuts(result, args):
    return {
        "gmsc.solve_lp.cuts": len(getattr(result, "cuts", ())),
        "gmsc.solve_lp.unconverged": int(not getattr(result, "converged", True)),
    }


def _emptied(result, args):
    return {"gmsc.round_phase.emptied": int(bool(getattr(result, "emptied", False)))}


def _order_picks(result, args):
    return {"selection.picks": len(result)}


def _bag_picks(result, args):
    trace = result[1]
    return {
        "algorithms.bag.passes": len(trace.passes),
        "algorithms.bag.picks": len(trace.picks),
        "selection.picks": len(trace.picks),
    }


def _brute_nodes(result, args):
    return {"algorithms.brute_force_opt.nodes": getattr(result, "nodes", 0)}


def _file_bytes(result, args):
    path = args[0] if args else None
    return {"instance_io.load_instance.bytes": os.path.getsize(path) if isinstance(path, str) else 0}


@dataclass(frozen=True)
class Hook:
    """One traced function: its span name and the dotted paths it is called by."""

    name: str
    sites: tuple
    count: Optional[Callable] = None


HOOKS = (
    Hook("simplex.solve_dense_lp", ("subrank.gmsc.simplex.solve_dense_lp",), _lp_iterations),
    Hook("gmsc.solve_lp", ("subrank.cli.gmsc_mod.solve_lp",), _lp_cuts),
    Hook("gmsc.gmsc_schedule", ("subrank.cli.gmsc_mod.gmsc_schedule",)),
    Hook("gmsc.round_phase", ("subrank.gmsc.round_phase",), _emptied),
    Hook("core.objective", ("subrank.core.objective", "subrank.algorithms.objective")),
    Hook("algorithms.greedy", ("subrank.cli.greedy", "subrank.harness.greedy"), _order_picks),
    Hook(
        "algorithms.normalized_greedy",
        (
            "subrank.cli.normalized_greedy",
            "subrank.harness.normalized_greedy",
            "subrank.algorithms.normalized_greedy",
        ),
        _order_picks,
    ),
    Hook(
        "algorithms.balanced_adaptive_greedy",
        ("subrank.cli.balanced_adaptive_greedy", "subrank.harness.balanced_adaptive_greedy"),
        _bag_picks,
    ),
    Hook("algorithms.brute_force_opt", ("subrank.cli.brute_force_opt",), _brute_nodes),
    Hook("harness.tune_ratio", ("subrank.harness.tune_ratio",)),
    Hook("harness.build_instance", ("subrank.harness.build_instance",)),
    Hook("core.cover_report", ("subrank.cli.cover_report", "subrank.harness.cover_report")),
    # Both loaders count as instance file loading, so the metric keeps its
    # meaning when the two file formats are merged into one.
    Hook(
        "instance_io.load_instance",
        ("subrank.cli.load_instance", "subrank.cli.gmsc_mod.load_gmsc_instance"),
        _file_bytes,
    ),
    Hook(
        "instance_io.save_instance",
        ("subrank.cli.save_instance", "subrank.cli.gmsc_mod.save_gmsc_instance"),
    ),
    Hook("core.validate", ("subrank.cli.validate",)),
)

# Gain evaluations: every SetSystemOracle subclass's numerator is counted.
NUMERATOR_BASE = "subrank.functions.SetSystemOracle"
NUMERATOR_COUNTER = "functions.numerator.calls"


def resolve(path: str):
    """(owner, attribute) that the dotted path names, or None when absent.

    The longest importable prefix is imported and the rest is looked up as
    attributes, so ``subrank.gmsc.simplex.solve_dense_lp`` names the
    ``solve_dense_lp`` attribute of whatever ``subrank.gmsc`` calls
    ``simplex``.
    """
    parts = path.split(".")
    owner = None
    for i in range(len(parts) - 1, 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:i]))
        except ImportError:
            continue
        break
    if owner is None:
        return None
    for attr in parts[i:-1]:
        owner = getattr(owner, attr, None)
        if owner is None:
            return None
    if not callable(getattr(owner, parts[-1], None)):
        return None
    return owner, parts[-1]


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


class Tracer:
    """Installs the hooks, records spans and counters, and restores on exit."""

    def __init__(self, hooks=HOOKS):
        self.hooks = hooks
        self.spans: list = []
        self.counts: Counter = Counter()
        self.absent: list = []  # dotted paths that did not resolve
        self.op = None  # id of the op being run; stamped on every span
        self._stack: list = []
        self._patched: list = []  # (owner, attr, original)

    # -- spans -----------------------------------------------------------

    def open(self, name: str, site: str) -> list:
        span = [len(self.spans), name, site, self.op,
                self._stack[-1][0] if self._stack else None, time.perf_counter(), None]
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: list) -> None:
        span[6] = time.perf_counter()
        self._stack.pop()

    # -- hooks -----------------------------------------------------------

    def install(self) -> "Tracer":
        for hook in self.hooks:
            for site in hook.sites:
                target = resolve(site)
                if target is None:
                    self.absent.append(site)
                    continue
                owner, attr = target
                if any(o is owner and a == attr for o, a, _ in self._patched):
                    continue
                original = getattr(owner, attr)
                self._patch(owner, attr, self._wrap(original, hook, site))
        base = resolve(NUMERATOR_BASE)
        if base is None:
            self.absent.append(NUMERATOR_BASE)
        else:
            owner, attr = base
            for cls in _subclasses(getattr(owner, attr)):
                if "numerator" in cls.__dict__:
                    self._patch(cls, "numerator", self._counting(cls.__dict__["numerator"]))
        return self

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _patch(self, owner, attr, replacement) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def _wrap(self, fn, hook: Hook, site: str):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer.open(hook.name, site)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(span)
            if hook.count is not None:
                tracer.counts.update(hook.count(result, args))
            return result

        return traced

    def _counting(self, fn):
        counts = self.counts

        @functools.wraps(fn)
        def numerator(oracle, mask):
            counts[NUMERATOR_COUNTER] += 1
            return fn(oracle, mask)

        return numerator

    # -- output ----------------------------------------------------------

    def self_times(self) -> dict:
        """Span id -> duration minus the time covered by its child spans."""
        own = {s[0]: s[6] - s[5] for s in self.spans}
        for s in self.spans:
            if s[4] is not None:
                own[s[4]] -= s[6] - s[5]
        return own


def write_jsonl(spans: list, path: str) -> None:
    keys = ("id", "name", "site", "op", "parent", "start", "end")
    with open(path, "w") as fh:
        for span in spans:
            fh.write(json.dumps(dict(zip(keys, span))) + "\n")
