"""Print one sha256 per benchmark suite round, to prove two trees give identical outputs.

Each round is one master seed run through the public CLI at the default
config with ``--workers 1``, sized like the benchmark's suite rounds:

* ``eval``: ``gen-scenes --count 8`` then ``eval --policy oracle --n-tasks 8``;
  the digest covers ``report.json``, ``report.csv`` and
  ``report.traces.jsonl``.
* ``gen-data``: ``gen-scenes --count 8`` then ``gen-data
  --episodes-per-scene 1``; the digest covers the dataset file (its manifest
  holds a timestamp and is left out).

Each round also gets a ``scenes`` digest over the ``gen-scenes`` output
(the scene files in name order).

With ``--outcomes``, each eval round also prints one ``episode <master seed>
<task> <outcome> <steps> <min_clearance_mm>`` line for every episode of its
report that did not reach its goal, read from ``report.traces.jsonl``.

Usage::

    python3 <tree>/tools/digest_sweep.py [--seeds 8001000 8003000 8008000]

runs eval rounds 0-5 and gen-data rounds 0-11, then every ``--seeds`` master
seed of both. It prints a ``# python <version> numpy <version>`` line, since
``math`` and numpy may round some inputs differently on another build, then
``scenes <master seed> <sha256>`` and ``<workload> <master seed> <sha256>``
per round. It always digests the tree it lives in: ``<tree>/src`` goes first
on ``sys.path``, and it exits 2 if ``amr_navkit`` is imported from anywhere
else. To compare two trees, save the output of one and ``diff`` the other
against it; ``diff`` prints every round that differs and exits 1 if any does::

    python3 parent/tools/digest_sweep.py --seeds 8001000 > before.txt
    python3 change/tools/digest_sweep.py --seeds 8001000 | diff before.txt -

A change that is meant to move the eval lines compares what failed instead::

    python3 parent/tools/digest_sweep.py --outcomes --seeds 8378000 | grep ^episode > before.txt
    python3 change/tools/digest_sweep.py --outcomes --seeds 8378000 | grep ^episode | diff before.txt -

``tools/digests.txt`` holds the output without ``--seeds``; Tier-1's
``tests/test_golden_digests.py`` reruns its round-0 lines and its ``eval 1``
line, the suite round whose oracle plans at the true radius behind the
free-space certificate. A change that is meant to change outputs rewrites
it::

    python3 tools/digest_sweep.py > tools/digests.txt
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import os
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np

SRC = Path(__file__).resolve().parent.parent / "src"

EVAL_ROUNDS = range(6)
GEN_ROUNDS = range(12)
SCENES = 8
EVAL_TASKS = 8
EPISODES_PER_SCENE = 1


def _cli(master_seed: int, *argv: str) -> None:
    from amr_navkit import cli

    rc = cli.main(["--seed", str(master_seed), "--workers", "1", *argv])
    if rc != 0:
        raise SystemExit(f"amr-navkit {argv[0]} exited with {rc} (master seed {master_seed})")


def _digest(*paths: Path) -> str:
    h = hashlib.sha256()
    for path in paths:
        h.update(path.read_bytes())
    return h.hexdigest()


def gen_scenes(work: Path, master_seed: int) -> tuple[Path, str]:
    """The round's scene directory and the digest of its files."""
    scenes = work / "scenes"
    _cli(master_seed, "gen-scenes", "--count", str(SCENES), "--out", str(scenes))
    return scenes, _digest(*sorted(scenes.glob("scene_*.json")))


def eval_digest(scenes: Path, work: Path, master_seed: int) -> str:
    report = work / "report"
    _cli(
        master_seed, "eval", "--scenes", str(scenes), "--n-tasks", str(EVAL_TASKS),
        "--policy", "oracle", "--out", str(report),
    )
    return _digest(*(report.with_suffix(s) for s in (".json", ".csv", ".traces.jsonl")))


def failed_episodes(work: Path, master_seed: int) -> list[str]:
    """One ``episode`` line per episode of the eval report in ``work`` that did not reach its goal."""
    lines = []
    with open(work / "report.traces.jsonl") as fh:
        for row in map(json.loads, fh):
            if row["outcome"] != "reached":
                clearance_mm = 1000 * row["min_clearance"]
                lines.append(f"episode {master_seed} {row['task_index']} {row['outcome']} {row['steps']} {clearance_mm:.2f}")
    return lines


def gen_digest(scenes: Path, work: Path, master_seed: int) -> str:
    data = work / "data.jsonl"
    _cli(
        master_seed, "gen-data", "--scenes", str(scenes),
        "--episodes-per-scene", str(EPISODES_PER_SCENE), "--out", str(data),
    )
    return _digest(data)


def build() -> str:
    """The header line: the Python and numpy that made the digests."""
    return f"# python {platform.python_version()} numpy {np.__version__}"


def round_lines(workload: str, master_seed: int, outcomes: bool = False) -> list[str]:
    """The ``scenes`` and ``<workload>`` lines of one round, run in a temporary
    directory, and with ``outcomes`` an eval round's ``episode`` lines."""
    run = {"eval": eval_digest, "gen-data": gen_digest}[workload]
    with tempfile.TemporaryDirectory() as tmp:
        scenes, digest = gen_scenes(Path(tmp), master_seed)
        lines = [f"scenes {master_seed} {digest}", f"{workload} {master_seed} {run(scenes, Path(tmp), master_seed)}"]
        if outcomes and workload == "eval":
            lines += failed_episodes(Path(tmp), master_seed)
        return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="*", default=[], help="extra master seeds, run on both workloads")
    parser.add_argument(
        "--outcomes", action="store_true", help="also print an episode line per eval episode that did not reach its goal"
    )
    args = parser.parse_args(argv)
    sys.path.insert(0, str(SRC))
    import amr_navkit

    if Path(amr_navkit.__file__).resolve().parent != SRC / "amr_navkit":
        print(f"error: imported amr_navkit from {amr_navkit.__file__}, not {SRC}", file=sys.stderr)
        return 2
    # the default config is the one being checked: drop any env override of it
    for name in [n for n in os.environ if n.startswith("AMR_")]:
        del os.environ[name]
    logging.disable(logging.WARNING)
    rounds = [("eval", s) for s in [*EVAL_ROUNDS, *args.seeds]]
    rounds += [("gen-data", s) for s in [*GEN_ROUNDS, *args.seeds]]
    print(build(), flush=True)
    for workload, seed in rounds:
        print(*round_lines(workload, seed, args.outcomes), sep="\n", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
