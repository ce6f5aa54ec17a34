"""Print a digest of the CLI's outputs on small generated inputs, to compare two checkouts.

Generates coverage instances (n=9 and n=40), a hard family (k=16) and a
gmsc instance (n=12) in a temporary directory, then runs through
subrank.cli:
- solve --out with every algorithm on each instance (brute on n=9 only),
  and --trace with bag;
- gmsc-bench --out --dump-lp on the gmsc instance;
- experiment on a 2 x 2 grid of synthetic decision-table cells.

Prints one "sha256 name" line per output: each file written, and
gmsc-bench's stdout (T*, cuts, rounds and iterations are in no file).
Timings are left out of the hash (the experiment CSVs' tune_ms and
runtime_ms columns; solve's runtime_ms line is only on its stdout), and
the temporary directory's path in that stdout is replaced by "<tmp>", so
equal code prints equal lines.

Usage: PYTHONPATH=src python tools/output_digest.py
Run it with each checkout's src on PYTHONPATH and diff the two outputs.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import os
import sys
import tempfile

from subrank.cli import main

INSTANCES = {
    "cov9": ["--family", "coverage", "--n", "9", "--k", "4", "--m", "3", "--seed", "1"],
    "cov40": ["--family", "coverage", "--n", "40", "--k", "4", "--m", "3", "--seed", "6"],
    "hard16": ["--family", "hard", "--k", "16"],
    "gmsc12": ["--family", "gmsc", "--n", "12", "--k", "3", "--m", "4", "--seed", "7"],
}
ALGORITHMS = ("random", "greedy", "ng", "bag", "brute")
BRUTE_ON = "cov9"
EXPERIMENT = {"K": [2, 3], "M": [2, 3], "seeds": [0], "ratio_grid": [0.3, 0.6]}
TIMING_COLUMNS = ("tune_ms", "runtime_ms")


def _run(argv: list, tmp: str) -> str:
    """Run one command and return its stdout, failing on a nonzero exit."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    if code != 0:
        raise SystemExit(f"exit {code}: subrank {' '.join(argv)}")
    return out.getvalue().replace(tmp, "<tmp>")


def _untimed_csv(path: str) -> bytes:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    keep = [i for i, column in enumerate(rows[0]) if column not in TIMING_COLUMNS]
    return "\n".join(",".join(row[i] for i in keep) for row in rows).encode()


def _read(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def digest(tmp: str) -> list:
    """(sha256, name) of every output, in run order."""
    outputs = []

    def add(name: str, data: bytes) -> None:
        outputs.append((hashlib.sha256(data).hexdigest(), name))

    def path(name: str) -> str:
        return os.path.join(tmp, name)

    for name, args in INSTANCES.items():
        _run(["generate", *args, "--out", path(f"{name}.json")], tmp)
    for name in INSTANCES:
        for algo in ALGORITHMS:
            if algo == "brute" and name != BRUTE_ON:
                continue
            stem = f"solve-{name}-{algo}"
            argv = ["solve", "--instance", path(f"{name}.json"), "--algo", algo,
                    "--out", path(f"{stem}.json")]
            if algo == "bag":
                argv += ["--trace", path(f"{stem}.jsonl")]
            _run(argv, tmp)
            add(f"{stem}.json", _read(path(f"{stem}.json")))
            if algo == "bag":
                add(f"{stem}.jsonl", _read(path(f"{stem}.jsonl")))
    stdout = _run(["gmsc-bench", "--instance", path("gmsc12.json"), "--seeds", "5",
                   "--out", path("gmsc-bench.csv"), "--dump-lp", path("lp")], tmp)
    add("gmsc-bench.stdout", stdout.encode())
    for name in ("gmsc-bench.csv", "lp_x.csv", "lp_y.csv"):
        add(name, _read(path(name)))
    with open(path("experiment.json"), "w") as fh:
        json.dump(EXPERIMENT, fh)
    _run(["experiment", "--config", path("experiment.json"), "--out", path("sweep")], tmp)
    for name in ("results.csv", "summary.csv"):
        add(f"experiment-{name}", _untimed_csv(path(os.path.join("sweep", name))))
    return outputs


def run() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        lines = digest(tmp)
    for sha, name in lines:
        print(sha, name)
    return 0


if __name__ == "__main__":
    sys.exit(run())
