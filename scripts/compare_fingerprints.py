#!/usr/bin/env python
"""Check that a change leaves every simulated outcome byte-identical.

    python scripts/compare_fingerprints.py BASE
    make fingerprint-check BASE=<rev>

Exports revision ``BASE`` into a temporary directory and runs each tree's
own ``perfbench/bench_pass.py --mode plain`` (the base's and this working
tree's) for every workload at seeds 1 and 2027, under ``PYTHONHASHSEED=1``
and for the benchmark's ``run_seconds`` (``BENCHMARK.json``).  Each pass
prints a ``sim`` block: op and event counts, every simulated metric and a
fingerprint of all per-op latencies.  The script diffs the two trees'
blocks and exits 1 if any differs, 2 if a pass cannot run.  The twelve
passes run one at a time, a few minutes in all.

A host-cost change (an optimisation or a refactor) must keep every block
identical.  A bugfix may move them on purpose, so this is a make target to
run by hand, not a CI gate.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path
from typing import Dict, List, Tuple

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("browse-zipf", "uniform-large", "upload-spike")
SEEDS = (1, 2027)
PASS_TIMEOUT_S = 1800


def export_revision(rev: str, dest: Path) -> None:
    """Write the tree of ``rev`` into ``dest`` (no checkout, no .git state)."""
    archive = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT,
                             stdout=subprocess.PIPE, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        # The "data" filter (where the interpreter has it) refuses members
        # that would land outside ``dest``.
        safe = {"filter": "data"} if hasattr(tarfile, "data_filter") else {}
        tar.extractall(dest, **safe)


def sim_block(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """The ``sim`` block of one plain pass of ``tree``'s own benchmark."""
    env = dict(os.environ, PYTHONHASHSEED="1")
    proc = subprocess.run(
        [sys.executable, str(tree / "perfbench" / "bench_pass.py"),
         "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
         "--mode", "plain"],
        cwd=tree, env=env, stdout=subprocess.PIPE, text=True,
        timeout=PASS_TIMEOUT_S, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{tree}: {workload} seed {seed} pass failed "
                           f"(exit {proc.returncode})")
    return json.loads(lines[-1])["sim"]


def differing_keys(base: dict, head: dict) -> List[str]:
    return sorted(key for key in set(base) | set(head)
                  if json.dumps(base.get(key), sort_keys=True)
                  != json.dumps(head.get(key), sort_keys=True))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", help="git revision to compare the working tree against")
    args = parser.parse_args(argv)
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]

    with tempfile.TemporaryDirectory(prefix="fingerprint-base-") as tmp:
        base_tree = Path(tmp)
        try:
            export_revision(args.base, base_tree)
        except subprocess.CalledProcessError:
            print(f"cannot export revision {args.base!r}")
            return 2
        if not (base_tree / "perfbench" / "bench_pass.py").exists():
            print(f"{args.base} has no perfbench/bench_pass.py to compare against")
            return 2
        results: Dict[Tuple[str, int], Tuple[dict, dict]] = {}
        try:
            for seed in SEEDS:
                for workload in WORKLOADS:
                    results[(workload, seed)] = tuple(
                        sim_block(tree, workload, seed, seconds)
                        for tree in (base_tree, ROOT))
        except (RuntimeError, subprocess.TimeoutExpired) as exc:
            print(exc)
            return 2

    different = 0
    print(f"sim blocks, {args.base} vs working tree "
          f"(--seconds {seconds:g}, PYTHONHASHSEED=1):")
    for (workload, seed), (base, head) in results.items():
        keys = differing_keys(base, head)
        verdict = "identical" if not keys else "DIFFERS in " + ", ".join(keys)
        different += bool(keys)
        print(f"  {workload:<14} seed {seed:<5} {base['fingerprint'][:16]} "
              f"{head['fingerprint'][:16]}  {verdict}")
    if different:
        print(f"{different} of {len(results)} sim blocks differ")
        return 1
    print(f"all {len(results)} sim blocks identical")
    return 0


if __name__ == "__main__":
    sys.exit(main())
