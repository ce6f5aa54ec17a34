"""Benchmark core: set-up, the timed rotation loop, checks and metrics.

A run generates one input set, then runs the workload's fixed rotation of
ops again and again until ``seconds`` have passed. Every op's output is
checked against the goldens and against the same op's earlier outputs.
Throughput is the rotation's op count over the sum of each op's median
time.

Times are scaled to a reference machine speed. On a shared machine other
tenants slow every op by up to twofold for seconds to minutes at a time,
which made runs of identical code differ by 15-30%. A fixed pure-Python
loop (the probe) is timed before and after every op and slows down with
it; each op time is multiplied by PROBE_REF_S over the mean of its two
probes, which cut that spread two- to sevenfold. The raw times and the
probe times are kept in the record.

With ``trace`` set, the first half of the time runs untraced and the second
half traced; the traced outputs must equal the untraced ones, and the ratio
of the two throughputs is the tracing overhead. Per-layer times and counts
are per traced rotation, except ``instance_io.save_instance.s``, which is
per traced set-up pass.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from importlib import metadata

from perfbench.spans import Tracer
from perfbench.workloads import POOL, WORKLOADS, golden_path, load_goldens

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SETUP_REPEATS = 7
PROBE_REF_S = 0.010  # the probe's time on an unloaded 2.1 GHz Xeon core
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
    "pass_frac": "frac",
    "cost_ratio": "ratio",
}

PER_LAYER = {
    "simplex.solve_dense_lp.s": "s",
    "simplex.solve_dense_lp.calls": "count",
    "simplex.solve_dense_lp.iterations": "count",
    "simplex.iterations_per_call": "count",
    "gmsc.solve_lp.s": "s",
    "gmsc.solve_lp.self_s": "s",
    "gmsc.solve_lp.cuts": "count",
    "gmsc.solve_lp.unconverged": "count",
    "gmsc.gmsc_schedule.s": "s",
    "gmsc.round_phase.calls": "count",
    "gmsc.round_phase.emptied_frac": "frac",
    "core.objective.s": "s",
    "core.objective.calls": "count",
    "algorithms.greedy.s": "s",
    "algorithms.normalized_greedy.s": "s",
    "algorithms.balanced_adaptive_greedy.s": "s",
    "algorithms.brute_force_opt.s": "s",
    "algorithms.balanced_adaptive_greedy.calls": "count",
    "algorithms.brute_force_opt.nodes": "count",
    "algorithms.bag.passes": "count",
    "algorithms.bag.picks": "count",
    "functions.numerator.calls": "count",
    "functions.numerator.per_pick": "calls/pick",
    "harness.tune_ratio.s": "s",
    "harness.final_bag.s": "s",
    "harness.build_instance.s": "s",
    "harness.tune_share": "frac",
    "core.cover_report.s": "s",
    "core.cover_report.calls": "count",
    "instance_io.load_instance.s": "s",
    "instance_io.load_instance.bytes": "bytes",
    "instance_io.save_instance.s": "s",
    "core.validate.s": "s",
    "cli.main.self_s": "s",
    "trace.overhead": "ratio",
}


@dataclass
class Phase:
    """What one timed loop over the rotation saw."""

    rotations: int = 0
    attempted: int = 0
    times: list = field(default_factory=list)  # per op: seconds of each run
    scaled: list = field(default_factory=list)  # per op: the same at reference speed
    probes: list = field(default_factory=list)  # probe seconds, one between two ops
    outputs: list = field(default_factory=list)  # per op: first checked output
    failures: list = field(default_factory=list)

    @property
    def raw_ops_per_s(self) -> float:
        return len(self.times) / sum(statistics.median(t) for t in self.times)

    @property
    def ops_per_s(self) -> float:
        return len(self.scaled) / sum(statistics.median(t) for t in self.scaled)


def probe_seconds() -> float:
    """Time of a fixed pure-Python loop that runs none of the program's code."""
    start = time.perf_counter()
    table, x = {}, 0
    for i in range(40000):
        x = (x * 31 + i) & 0xFFFF
        table[x & 1023] = table.get(x & 1023, 0) + (x >> 3)
    return time.perf_counter() - start


def _div(a: float, b: float) -> float:
    return a / b if b else 0.0


def run_op(cli, workload, op, tracer=None):
    """Run one op through cli.main; returns (seconds, output, error)."""
    if os.path.exists(op.out):
        os.remove(op.out)
    out, err = io.StringIO(), io.StringIO()
    span = tracer.open("cli.main", "perfbench") if tracer else None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(list(op.argv))
    except Exception:  # an op that raises is a failed op, not a failed run
        rc = traceback.format_exc(limit=-1).strip().splitlines()[-1]
    seconds = time.perf_counter() - start
    if span:
        tracer.close(span)
    if rc != 0:
        return seconds, None, f"exit {rc}: {err.getvalue().strip()[-300:]}"
    try:
        return seconds, workload.parse(op, err.getvalue()), ""
    except (OSError, ValueError, KeyError) as exc:
        return seconds, None, f"unreadable output: {exc!r}"


def measure(cli, workload, ops, goldens, seconds, reference=None, tracer=None) -> Phase:
    """Run whole rotations until seconds have passed (at least one).

    Each output must match its golden and equal reference[i] (the untraced
    output, in a traced phase) or else this phase's first output of op i.
    """
    phase = Phase(times=[[] for _ in ops], scaled=[[] for _ in ops], probes=[probe_seconds()],
                  outputs=list(reference or [None] * len(ops)))
    start = time.perf_counter()
    while True:
        for i, op in enumerate(ops):
            if tracer:
                tracer.op = f"r{phase.rotations}/{op.key}"
            seconds_op, output, error = run_op(cli, workload, op, tracer)
            phase.attempted += 1
            phase.probes.append(probe_seconds())
            phase.times[i].append(seconds_op)
            phase.scaled[i].append(seconds_op * 2 * PROBE_REF_S / sum(phase.probes[-2:]))
            if not error:
                if op.key not in goldens:
                    error = "no golden recorded for these inputs"
                else:
                    error = workload.check(op, output, goldens[op.key])
            if not error and phase.outputs[i] is not None and output != phase.outputs[i]:
                error = "output differs from " + ("the untraced run" if reference else "an earlier rotation")
            if error:
                phase.failures.append(f"{op.key}: {error}")
            elif phase.outputs[i] is None:
                phase.outputs[i] = output
        phase.rotations += 1
        if time.perf_counter() - start >= seconds:
            return phase


def layer_metrics(tracer: Tracer, setup_tracer: Tracer, rotations: int, overhead: float) -> dict:
    total, calls, own = defaultdict(float), Counter(), defaultdict(float)
    self_times = tracer.self_times()
    names = {s[0]: s[1] for s in tracer.spans}
    final_bag = 0.0
    for span_id, name, site, _op, parent, start, end in tracer.spans:
        total[name] += end - start
        calls[name] += 1
        own[name] += self_times[span_id]
        if (name == "algorithms.balanced_adaptive_greedy" and site.startswith("subrank.harness.")
                and names.get(parent) != "harness.tune_ratio"):
            final_bag += end - start
    save_s = sum((s[6] - s[5] for s in setup_tracer.spans if s[1] == "instance_io.save_instance"), 0.0)
    counts = tracer.counts
    per = 1.0 / rotations
    values = {
        "simplex.solve_dense_lp.s": total["simplex.solve_dense_lp"] * per,
        "simplex.solve_dense_lp.calls": calls["simplex.solve_dense_lp"] * per,
        "simplex.solve_dense_lp.iterations": counts["simplex.solve_dense_lp.iterations"] * per,
        "simplex.iterations_per_call": _div(counts["simplex.solve_dense_lp.iterations"],
                                            calls["simplex.solve_dense_lp"]),
        "gmsc.solve_lp.s": total["gmsc.solve_lp"] * per,
        "gmsc.solve_lp.self_s": own["gmsc.solve_lp"] * per,
        "gmsc.solve_lp.cuts": counts["gmsc.solve_lp.cuts"] * per,
        "gmsc.solve_lp.unconverged": counts["gmsc.solve_lp.unconverged"] * per,
        "gmsc.gmsc_schedule.s": total["gmsc.gmsc_schedule"] * per,
        "gmsc.round_phase.calls": calls["gmsc.round_phase"] * per,
        "gmsc.round_phase.emptied_frac": _div(counts["gmsc.round_phase.emptied"],
                                              calls["gmsc.round_phase"]),
        "core.objective.s": total["core.objective"] * per,
        "core.objective.calls": calls["core.objective"] * per,
        "algorithms.greedy.s": total["algorithms.greedy"] * per,
        "algorithms.normalized_greedy.s": total["algorithms.normalized_greedy"] * per,
        "algorithms.balanced_adaptive_greedy.s": total["algorithms.balanced_adaptive_greedy"] * per,
        "algorithms.brute_force_opt.s": total["algorithms.brute_force_opt"] * per,
        "algorithms.balanced_adaptive_greedy.calls": calls["algorithms.balanced_adaptive_greedy"] * per,
        "algorithms.brute_force_opt.nodes": counts["algorithms.brute_force_opt.nodes"] * per,
        "algorithms.bag.passes": counts["algorithms.bag.passes"] * per,
        "algorithms.bag.picks": counts["algorithms.bag.picks"] * per,
        "functions.numerator.calls": counts["functions.numerator.calls"] * per,
        "functions.numerator.per_pick": _div(counts["functions.numerator.calls"],
                                             counts["selection.picks"]),
        "harness.tune_ratio.s": total["harness.tune_ratio"] * per,
        "harness.final_bag.s": final_bag * per,
        "harness.build_instance.s": total["harness.build_instance"] * per,
        "harness.tune_share": _div(total["harness.tune_ratio"], total["cli.main"]),
        "core.cover_report.s": total["core.cover_report"] * per,
        "core.cover_report.calls": calls["core.cover_report"] * per,
        "instance_io.load_instance.s": total["instance_io.load_instance"] * per,
        "instance_io.load_instance.bytes": counts["instance_io.load_instance.bytes"] * per,
        "instance_io.save_instance.s": save_s,
        "core.validate.s": total["core.validate"] * per,
        "cli.main.self_s": own["cli.main"] * per,
        "trace.overhead": overhead,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER.items()}


def _generate(cli, workload, work, pool, smoke):
    with contextlib.redirect_stdout(io.StringIO()):
        return workload.generate(cli.main, work, pool, smoke)


def startup_seconds() -> float:
    """Wall time of a fresh interpreter that imports the CLI."""
    code = f"import sys; sys.path.insert(0, {os.path.join(ROOT, 'src')!r}); import subrank.cli"
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], check=True, cwd=ROOT)
    return time.perf_counter() - start


def run_benchmark(workload_name, seed, seconds, trace, smoke=False, work_root=ROOT):
    """One benchmark run; returns the result record (see ``result_line``).

    setup_s is the median start-up of a fresh interpreter importing the CLI
    plus the median time to generate the inputs, each taken SETUP_REPEATS
    times (once in smoke mode), scaled by the median probe taken between
    them.
    """
    from subrank import cli

    repeats = 1 if smoke else SETUP_REPEATS
    workload = WORKLOADS[workload_name]
    pool = seed % POOL
    goldens = load_goldens(workload_name, smoke)
    work = os.path.join(work_root, ".perfbench_work", f"{workload_name}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    try:
        probes, startup_s, gen_s = [probe_seconds()], [], []
        for r in range(repeats):
            startup_s.append(startup_seconds())
            inputs = os.path.join(work, f"inputs{r}")
            os.makedirs(inputs)
            start = time.perf_counter()
            ops = _generate(cli, workload, inputs, pool, smoke)
            gen_s.append(time.perf_counter() - start)
            probes.append(probe_seconds())
        raw_setup_s = statistics.median(startup_s) + statistics.median(gen_s)
        setup_s = raw_setup_s * PROBE_REF_S / statistics.median(probes)

        record = {"workload": workload_name, "seed": seed, "input_set": pool, "smoke": smoke,
                  "trace": bool(trace), "setup_s": setup_s, "raw_setup_s": raw_setup_s,
                  "startup_s": startup_s, "generate_s": gen_s, "setup_probe_s": probes,
                  "ops_per_rotation": len(ops)}
        if not trace:
            phase = measure(cli, workload, ops, goldens, seconds)
            phases = [phase]
            metrics = {
                "setup_s": setup_s,
                "ops_per_s": phase.ops_per_s,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "pass_frac": _div(phase.attempted - len(phase.failures), phase.attempted),
                "cost_ratio": (workload.cost_ratio(ops, phase.outputs)
                               if None not in phase.outputs else 0.0),
            }
            record["metrics"] = {k: {"value": metrics[k], "unit": u} for k, u in END_TO_END.items()}
        else:
            untraced = measure(cli, workload, ops, goldens, seconds / 2)
            with Tracer() as tracer:
                traced = measure(cli, workload, ops, goldens, seconds / 2,
                                 reference=untraced.outputs, tracer=tracer)
            with Tracer() as setup_tracer:
                setup_tracer.op = "setup"
                os.makedirs(os.path.join(work, "traced-inputs"))
                _generate(cli, workload, os.path.join(work, "traced-inputs"), pool, smoke)
            phases = [untraced, traced]
            overhead = untraced.ops_per_s / traced.ops_per_s
            record["metrics"] = layer_metrics(tracer, setup_tracer, traced.rotations, overhead)
            record["absent_hooks"] = sorted(set(tracer.absent))
            record["spans"] = tracer.spans + setup_tracer.spans
    finally:
        shutil.rmtree(work, ignore_errors=True)

    record["rotations"] = [p.rotations for p in phases]
    record["op_seconds"] = [dict(zip((op.key for op in ops), p.times)) for p in phases]
    record["probe_seconds"] = [p.probes for p in phases]
    record["raw_ops_per_s"] = [p.raw_ops_per_s for p in phases]
    record["attempted"] = sum(p.attempted for p in phases)
    record["failures"] = [f for p in phases for f in p.failures]
    record["failed"] = len(record["failures"])
    record["correct"] = record["failed"] == 0
    record["provenance"] = provenance()
    return record


def result_line(record) -> str:
    return json.dumps({k: record[k] for k in ("correct", "attempted", "failed", "metrics")})


def record_goldens(workload_name, smoke, work_root=ROOT) -> int:
    """Run every op of every input set once and store its output as golden."""
    from subrank import cli

    workload = WORKLOADS[workload_name]
    recorded = {}
    work = os.path.join(work_root, ".perfbench_work", f"record-{workload_name}-{os.getpid()}")
    try:
        for pool in range(POOL):
            inputs = os.path.join(work, f"inputs{pool}")
            os.makedirs(inputs)
            for op in _generate(cli, workload, inputs, pool, smoke):
                if op.key in recorded:
                    continue
                _, output, error = run_op(cli, workload, op)
                if not error:
                    recorded[op.key] = workload.golden(output)
                    error = workload.check(op, output, recorded[op.key])
                if error:
                    raise RuntimeError(f"{workload_name} {op.key}: {error}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    path = golden_path(workload_name)
    doc = {}
    if os.path.exists(path):
        with open(path) as fh:
            doc = json.load(fh)
    doc["smoke" if smoke else "full"] = recorded
    doc["provenance"] = provenance()
    with open(path, "w") as fh:  # one golden per line, so re-recording diffs well
        fh.write("{\n" + ",\n".join(
            f"{json.dumps(section)}: {{\n"
            + ",\n".join(f" {json.dumps(k)}: {json.dumps(v, sort_keys=True)}"
                         for k, v in sorted(entries.items()))
            + "\n}" for section, entries in sorted(doc.items())) + "\n}\n")
    return len(recorded)


def _git_commit() -> str:
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _source_digest() -> str:
    """sha256 over src/, which identifies the code when there is no .git."""
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return digest.hexdigest()


def _version(package: str) -> str:
    try:
        return metadata.version(package)
    except metadata.PackageNotFoundError:
        return "absent"


def provenance() -> dict:
    return {
        "git_commit": _git_commit(),
        "src_sha256": _source_digest(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
    }
