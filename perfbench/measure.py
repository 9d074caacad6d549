"""Measurement for perfbench/run.py: untraced and traced runs, and their metrics.

Imported only after run.py has put the checkout's ``src`` on ``sys.path``.
"""

from __future__ import annotations

import gc
import math
import os
import platform
import random
import resource
import statistics
from collections import Counter
from pathlib import Path
from time import perf_counter

import numpy as np
from amr_navkit import evaluation

from tracer import Tracer
from workloads import ROUNDS, SUITE_ROUNDS, SUITE_SEED, CheckFailed, cost_ratio, round_seed

# the traced run covers this many seeded rounds, the same ones in each of its
# four timed passes; one slow eval round can take 25 s, and a run must end in 180 s
TRACE_ROUNDS = {"eval-oracle": 1, "gen-data": 4}

# eval-oracle precision floor: acceptance criterion 3's bounds on the medians
MAX_MEDIAN_DISTANCE_M = 0.03
MAX_MEDIAN_ANGLE_DEG = 1.0


def _read(path: str) -> str | None:
    try:
        with open(path) as fh:
            return fh.read()
    except OSError:
        return None


def _git_commit(root: Path) -> str | None:
    """HEAD of the checkout, read from .git without running git; None outside a repo."""
    head = _read(str(root / ".git" / "HEAD"))
    if head is None:
        return None
    head = head.strip()
    if not head.startswith("ref: "):
        return head
    ref = head[len("ref: "):]
    loose = _read(str(root / ".git" / ref))
    if loose is not None:
        return loose.strip()
    for line in (_read(str(root / ".git" / "packed-refs")) or "").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return None


def loadavg() -> str | None:
    text = _read("/proc/loadavg")
    return text.strip() if text else None


def environment(root: Path, seed: int) -> dict:
    cpu = None
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu or platform.processor(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "commit": _git_commit(root),
        "seed": seed,
        "loadavg_start": loadavg(),
    }


def tail(values: list[float]) -> tuple[float, int]:
    """Highest whole percentile with at least ten values beyond it, and its value."""
    n = len(values)
    pct = max(50, math.floor(100 * (n - 10) / n)) if n else 50
    return float(np.percentile(values, pct)), pct


def by_seed(rounds: list) -> dict[int, list]:
    """Rounds grouped by master seed, in order of first run."""
    groups: dict[int, list] = {}
    for r in rounds:
        groups.setdefault(r.master_seed, []).append(r)
    return groups


def counts(rounds: list) -> dict[str, int]:
    """``attempted`` and ``failed`` items, each distinct round counted once.

    A round that ran again is the same operation with the same outcome (its
    output is checked to be byte-identical), so repeats are not counted; the
    counts then depend on the seed alone, not on how many repeats the timed
    window had time for.
    """
    distinct = [runs[0] for runs in by_seed(rounds).values()]
    return {
        "attempted": sum(r.attempted for r in distinct),
        "failed": sum(r.failed for r in distinct),
    }


def ms_per_item(rounds: list, scaled: bool) -> float:
    """Mean ms per item over the distinct rounds: phase time over items.

    Phase time runs from the start of a round's first item to the end of the
    command, so it includes writing the report or the dataset. A round that
    ran more than once counts once, with its phase time averaged over its
    runs, so repeats add samples but not weight. With ``scaled``, each time
    is first converted to reference speed.
    """
    groups = by_seed(rounds)
    total_s = sum(
        statistics.fmean(r.phase_s * (r.scale if scaled else 1.0) for r in runs)
        for runs in groups.values()
    )
    return 1e3 * total_s / sum(runs[0].attempted for runs in groups.values())


def geometric_mean_ms_per_pose(rounds: list) -> float:
    """Geometric mean over distinct items of ms per pose, at reference speed.

    A diagnostic, not gated: it shows the cost of one control step or
    keyframe whatever the number of them. An item's value is its mean log
    ms/pose over every time its round ran. Items without poses (skipped
    gen-data seeds) are left out.
    """
    logs: dict[tuple[int, int], list[float]] = {}
    for r in rounds:
        for i, (t, p) in enumerate(zip(r.item_s, r.item_poses)):
            if p:
                logs.setdefault((r.master_seed, i), []).append(math.log(1e3 * r.scale * t / p))
    if not logs:
        raise CheckFailed("no item produced a pose")
    return math.exp(statistics.fmean(statistics.fmean(v) for v in logs.values()))


def end_to_end(workload: str, timed: list, fresh) -> tuple[dict, dict]:
    """(metrics, notes) of an untraced run; metrics map name -> (value, unit).

    Timings come from ``timed``, every round of the timed window, and so does
    ``bytes_per_item``. The other outcome and output figures come from each
    distinct round of the window once, plus the ``fresh`` seeded round.
    """
    suite = [runs[0] for runs in by_seed(timed).values()]
    distinct = suite + [fresh]
    items = [t for r in timed for t in r.item_s]
    phase_s = sum(r.phase_s for r in timed)
    tail_s, tail_pct = tail(items)
    attempted = sum(r.attempted for r in distinct)
    failed = sum(r.failed for r in distinct)
    poses = sum(sum(r.item_poses) for r in distinct)
    output_bytes = sum(r.output_bytes for r in distinct)
    pooled = {
        "ms_per_item": (ms_per_item(timed, scaled=True), "ms"),
        "wall_ms_per_item": (ms_per_item(timed, scaled=False), "ms"),
        "ms_per_pose": (geometric_mean_ms_per_pose(timed), "ms"),
        "bytes_per_item": (
            sum(r.output_bytes for r in suite) / sum(r.attempted for r in suite), "B"
        ),
        "bytes_per_pose": (output_bytes / poses, "B"),
        "setup_s": (statistics.median(r.scale * r.setup_s for r in timed), "s"),
        "wall_setup_s": (statistics.median(r.setup_s for r in timed), "s"),
        "ok_rate": ((attempted - failed) / attempted, "ratio"),
        "fail_rate": (failed / attempted, "ratio"),
    }
    notes = {
        "rounds": [r.master_seed for r in timed],
        "tail_percentile": tail_pct,
        "tail_samples": len(items),
        "outcomes": dict(sum((r.outcomes for r in distinct), Counter())),
        "round_setup_s": [r.setup_s for r in timed],
        "round_phase_s": [r.phase_s for r in timed],
        "round_scale": [r.scale for r in timed],
    }
    if workload == "eval-oracle":
        report = evaluation.summarize([s for r in distinct for s in r.summaries])
        m = {
            "episodes_per_s": (len(items) / phase_s, "1/s"),
            "episode_s.p50": (statistics.median(items), "s"),
            "episode_s.tail": (tail_s, "s"),
            "median_distance_error_m": (report.median_distance_error, "m"),
            "median_angle_error_deg": (report.median_angle_error, "deg"),
            "success_rate": (report.success_rate, "ratio"),
            "collision_rate": (report.collision_rate, "ratio"),
        }
    else:
        written = sum(r.outcomes["written"] for r in timed)
        m = {
            "demos_per_s": (written / phase_s, "1/s"),
            "demo_s.p50": (statistics.median(items), "s"),
            "demo_s.tail": (tail_s, "s"),
            "dataset_bytes_per_demo": (
                output_bytes / (attempted - failed), "B"
            ),
            "demo_cost_ratio.p50": (
                statistics.median(cost_ratio(*d) for r in distinct for d in r.demos),
                "ratio",
            ),
        }
    m.update(pooled)
    return m, notes


def run_untraced(workload: str, seed: int, seconds: float, work: Path) -> tuple[dict, dict, list[str]]:
    run_round = ROUNDS[workload]
    suite = [round_seed(SUITE_SEED, i) for i in range(SUITE_ROUNDS[workload])]
    random.Random(seed).shuffle(suite)
    rounds = []
    start = perf_counter()
    while len(rounds) < len(suite) or perf_counter() - start < seconds:
        # drop the last round's cyclic garbage first, so that each round starts
        # on a clean heap like a fresh command; otherwise peak RSS follows when
        # the collector happened to run (64-73 MB, against 60-61 MB with this)
        gc.collect()
        rounds.append(
            run_round(work / f"round{len(rounds)}", suite[len(rounds) % len(suite)], probe=True)
        )
    elapsed = perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    fresh = run_round(work / "fresh", round_seed(seed, 0))

    problems = []
    ran = rounds + [fresh]
    groups = by_seed(rounds)
    if all(len(runs) == 1 for runs in groups.values()):
        cheapest = min(rounds, key=lambda r: r.setup_s + r.phase_s)
        ran.append(run_round(work / "rerun", cheapest.master_seed))
    if any(len({r.digest for r in runs}) > 1 for runs in by_seed(ran).values()):
        problems.append("a round wrote different output when run again with the same seed")
    metrics, notes = end_to_end(workload, rounds, fresh)
    metrics["peak_rss_mb"] = (peak_rss_mb, "MB")
    notes.update(counts(ran))
    notes["elapsed_s"] = elapsed
    notes["fresh_round"] = {"master_seed": fresh.master_seed, "outcomes": dict(fresh.outcomes)}
    if workload == "eval-oracle":
        if metrics["median_distance_error_m"][0] > MAX_MEDIAN_DISTANCE_M:
            problems.append(f"median distance error above {MAX_MEDIAN_DISTANCE_M} m")
        if metrics["median_angle_error_deg"][0] > MAX_MEDIAN_ANGLE_DEG:
            problems.append(f"median angle error above {MAX_MEDIAN_ANGLE_DEG} deg")
    return metrics, notes, problems


def run_traced(workload: str, seed: int, work: Path, spans_path: Path) -> tuple[dict, dict, list[str]]:
    run_round = ROUNDS[workload]

    def one_pass(tag: str) -> tuple[list, float]:
        rounds = [
            run_round(work / f"{tag}{i}", round_seed(seed, i), probe=True)
            for i in range(TRACE_ROUNDS[workload])
        ]
        return rounds, sum(r.scale * (r.setup_s + r.phase_s) for r in rounds)

    # one untimed round first, so the first timed pass does not also pay for
    # imports and heap growth; it is a fixed short round, because the seed's
    # own rounds can take 20 s each. Then untraced, traced, traced, untraced,
    # so a steady drift in machine speed weighs on both sides alike
    ran = [run_round(work / "warmup", round_seed(SUITE_SEED, 0))]
    plain_s = 0.0
    outputs = []
    passes = []  # (tracer, rounds, busy seconds) per traced pass
    for tag in ("plain-a", "traced-a", "traced-b", "plain-b"):
        if tag.startswith("traced"):
            with Tracer() as tracer:
                rounds, busy_s = one_pass(tag)
            passes.append((tracer, rounds, busy_s))
        else:
            rounds, busy_s = one_pass(tag)
            plain_s += busy_s
        outputs.append([(r.outcomes, r.digest) for r in rounds])
        ran += rounds

    problems = []
    if any(out != outputs[0] for out in outputs):
        problems.append("traced outcomes or outputs differ from the untraced run")
    (tr_a, _, busy_a), (tr_b, _, busy_b) = passes
    # every derived count ratio is computed from these counters
    counters_a, counters_b = tr_a.counters(), tr_b.counters()
    if counters_a != counters_b:
        diff = sorted(k for k, v in counters_a.items() if counters_b.get(k) != v)
        problems.append(f"trace counters differ between two traced runs: {diff[:8]}")

    metrics = {}
    for name, value in tr_a.layer_metrics().items():
        unit = (
            "count" if name.endswith(".calls")
            else "s" if name.endswith(".self_s")
            else "ms" if name.endswith(".p50_ms")
            else "MB/s" if name.endswith(".mb_per_s")
            else "ratio"
        )
        metrics[name] = (value, unit)
    overhead = 100 * ((busy_a + busy_b) / plain_s - 1)
    metrics["trace.overhead_pct"] = (overhead, "%")
    tr_a.write_spans(str(spans_path))
    notes = {
        "rounds": TRACE_ROUNDS[workload],
        **counts(ran),
        "untraced_s": plain_s,  # at reference speed, like traced_s
        "traced_s": [busy_a, busy_b],
        "spans": len(tr_a.spans),
        "counters": counters_a,
    }
    return metrics, notes, problems
