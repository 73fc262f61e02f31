"""Benchmark of ``thermovisc run`` on seeded workloads.

Usage (from the repository root):

    python3 bench/run.py --workload creep_stiff --seed 1 --trace 0
    python3 bench/run.py --workload all --trace 1   # every workload, traced

Each repetition runs ``thermovisc.cli.main(["run", ...])`` in a fresh
interpreter (``child.py``) on the generated config, with BLAS pinned to one
thread.  One small warm-up run comes first; it is reported and kept out of
the medians.  Repetitions continue until ``run_seconds`` of ``BENCHMARK.json``
is used up, with at least ``MIN_REPS`` of them.  The run length is always
``run_seconds``: ``--seconds`` is accepted only so that a harness may pass
that same value, and any other value is refused.  Every repetition is verified (exit code,
``summary.json`` checks and monitor, one diagnostics row per time level,
``diagnostics.csv`` byte-identical across repetitions); a repetition that
fails any check counts in ``failed``.

``--trace 0`` reports the end-to-end metrics: medians of wall time, set-up
time, stepping rate and peak RSS.  ``--trace 1`` alternates untraced and
traced repetitions and reports the per-layer metrics of the traced ones
(medians), the tracing overhead (median over pairs of a traced repetition
and the untraced one just before it), and checks that the exact counters repeat.
The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import collections
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from spans import EXACT_COUNTS, layer_metrics, percentile  # noqa: E402
from workloads import WORKLOADS, generate, warmup_config  # noqa: E402

#: fewest measured repetitions per run, however long they take
MIN_REPS = 3
#: fewest traced and untraced repetitions each in a traced run
MIN_TRACE_REPS = 2
#: a workload's warm-up and repetitions end within this many seconds; a
#: repetition still running then is killed and counted as failed
BUDGET_S = 170.0


def child_env(tmp: Path) -> dict:
    env = dict(os.environ)
    env.pop("THERMOVISC_OUT", None)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    env["TMPDIR"] = str(tmp)
    return env


def run_rep(cfg_path: Path, rep_dir: Path, traced: bool, env: dict, deadline: float) -> dict:
    """One repetition in a fresh interpreter; returns its result record."""
    rep_dir.mkdir(parents=True)
    out, result_path = rep_dir / "out", rep_dir / "result.json"
    cmd = [sys.executable, str(HERE / "child.py"), str(cfg_path), str(out), str(result_path)]
    if traced:
        cmd.append("--trace")
    start = time.perf_counter()
    try:
        proc = subprocess.run(
            cmd, env=env, timeout=max(deadline - start, 1.0), stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, text=True,
        )
        problem = None if proc.returncode == 0 else f"child exited {proc.returncode}: {proc.stderr.strip()[-400:]}"
    except subprocess.TimeoutExpired:
        problem = f"killed at the {BUDGET_S:g} s budget"
    rep = {"traced": traced, "duration_s": time.perf_counter() - start, "problems": []}
    if problem is None and result_path.is_file():
        rep.update(json.loads(result_path.read_text()))
    else:
        rep["problems"].append(problem or "no result written")
    return rep


def verify(rep: dict, out: Path, n_steps: int) -> None:
    """Append to rep["problems"] every check the run's artifacts fail."""
    problems = rep["problems"]
    if problems:
        return
    if rep["exit_code"] != 0:
        problems.append(f"exit code {rep['exit_code']}")
    if not rep["traced"] and rep["setup_s"] is None:
        problems.append("the evolution loop was never entered")
    try:
        summary = json.loads((out / "summary.json").read_text())
        if not summary["checks"]["passed"]:
            problems.append("summary checks failed")
        if not summary["monitor"]["satisfied"]:
            problems.append("a-priori monitor not satisfied")
    except (OSError, ValueError, KeyError, TypeError) as err:
        problems.append(f"unreadable summary.json: {err}")
    try:
        data = (out / "diagnostics.csv").read_bytes()
    except OSError as err:
        problems.append(f"no diagnostics.csv: {err}")
        return
    rows = [ln for ln in data.decode().splitlines() if ln and not ln.startswith("#")]
    if len(rows) - 1 != n_steps + 1:
        problems.append(f"diagnostics.csv has {len(rows) - 1} rows, expected {n_steps + 1}")
    rep["diagnostics_sha256"] = hashlib.sha256(data).hexdigest()


def flag_odd(reps: list, values: list, what: str) -> None:
    """Flag each repetition whose value differs from the strict majority's.

    Without a strict majority (a tie for the most common value) every
    repetition is flagged, since none of them can serve as the reference.
    """
    if not values:
        return
    counts = collections.Counter(values).most_common()
    ref, top = counts[0]
    tied = len(counts) > 1 and counts[1][1] == top
    for r, v in zip(reps, values):
        if tied:
            r["problems"].append(f"{what} = {v}: no value is held by a majority of repetitions")
        elif v != ref:
            r["problems"].append(f"{what} = {v} differs from the majority value {ref}")


def check_repeats(reps: list) -> None:
    """Diagnostics bytes and exact counters must repeat across repetitions."""
    hashed = [r for r in reps if "diagnostics_sha256" in r]
    flag_odd(hashed, [r["diagnostics_sha256"] for r in hashed], "diagnostics.csv sha256")
    traced = [r for r in reps if r["traced"] and "layers" in r]
    for name in EXACT_COUNTS:
        flag_odd(traced, [r["layers"][name] for r in traced], name)


def tail_percentile(values):
    """Highest of the usual percentiles with at least ten samples beyond it."""
    for p in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if len(values) * (1.0 - p / 100.0) >= 10.0:
            return p, percentile(values, p)
    return None


def bench_workload(name: str, seed: int, seconds: int, trace: bool, tmp: Path, env: dict):
    cfg = generate(name, seed)
    n_steps = cfg["discretization"]["n_steps"]
    wdir = tmp / name
    wdir.mkdir()
    cfg_path = wdir / "config.json"
    cfg_path.write_text(json.dumps(cfg, indent=1))
    warm_cfg = warmup_config(cfg)
    warm_path = wdir / "warmup_config.json"
    warm_path.write_text(json.dumps(warm_cfg, indent=1))

    deadline = time.perf_counter() + BUDGET_S
    warm = run_rep(warm_path, wdir / "warmup", False, env, deadline)
    verify(warm, wdir / "warmup" / "out", warm_cfg["discretization"]["n_steps"])

    plan = [False, True] if trace else [False]
    min_reps = 2 * MIN_TRACE_REPS if trace else MIN_REPS
    reps, start = [], time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        next_s = statistics.median(r["duration_s"] for r in reps) if reps else 0.0
        if elapsed + next_s > (seconds if len(reps) >= min_reps else deadline - start):
            break
        traced = plan[len(reps) % len(plan)]
        rep_dir = wdir / f"rep{len(reps):03d}"
        rep = run_rep(cfg_path, rep_dir, traced, env, deadline)
        verify(rep, rep_dir / "out", n_steps)
        spans, counters = rep.pop("spans", None), rep.pop("counters", None)
        if traced and not rep["problems"]:
            rep["layers"] = layer_metrics(spans, counters, rep["bytes_written"])
        reps.append(rep)
        shutil.rmtree(rep_dir)
    check_repeats(reps)

    plain = [r for r in reps if not r["traced"] and not r["problems"]]
    samples = {
        "wall_s": [r["wall_s"] for r in plain],
        "setup_s": [r["setup_s"] for r in plain],
        "step_rate": [n_steps / (r["wall_s"] - r["setup_s"]) for r in plain],
        "peak_rss_mb": [r["peak_rss_mb"] for r in plain],
    }
    if trace:
        traced = [r for r in reps if r["traced"] and not r["problems"]]
        for key in traced[0]["layers"] if traced else ():
            samples[key] = [r["layers"][key] for r in traced]
        # plans alternate untraced, traced: pairing each traced repetition with
        # the untraced one just before it cancels the machine's slow drift
        samples["trace.overhead_s"] = [
            b["wall_s"] - a["wall_s"]
            for a, b in zip(reps[0::2], reps[1::2])
            if not a["problems"] and not b["problems"]
        ]
    return {
        "workload": name,
        "seed": seed,
        "n_steps": n_steps,
        "warmup_s": warm.get("wall_s"),
        "warmup_problems": warm["problems"],
        "env": warm.get("env"),
        "attempted": len(reps),
        "failed": sum(1 for r in reps if r["problems"]),
        "problems": [p for r in reps for p in r["problems"]],
        "samples": samples,
    }


def report(res: dict, units: dict, end_to_end: bool) -> dict:
    """Print the human-readable lines; return the metrics of ``units``."""
    name, samples = res["workload"], res["samples"]
    warm = "failed" if res["warmup_s"] is None else f"{res['warmup_s']:.3f} s"
    print(
        f"{name} seed={res['seed']}: {res['attempted']} repetitions, {res['failed']} failed; "
        f"warm-up {warm} (not in medians)"
    )
    for problem in res["warmup_problems"]:
        print(f"  FAILED (warm-up): {problem}")
    for problem in res["problems"]:
        print(f"  FAILED: {problem}")
    metrics = {}
    for key, unit in units.items():
        values = samples.get(key) or []
        if not values:
            print(f"  {key:<26} no successful samples")
            continue
        # counts stay whole numbers; they repeat exactly across repetitions
        value = statistics.median_low(values) if unit in ("count", "B") else statistics.median(values)
        metrics[key] = {"value": value, "unit": unit}
        tail = tail_percentile(values)
        tail_txt = f", p{tail[0]:g} {tail[1]:.6g}" if tail else ", no percentile with 10 samples beyond"
        print(f"  {key:<26} {value:<14.6g} {unit:<6} median of {len(values)}{tail_txt}")
    if end_to_end:
        frac = res["failed"] / res["attempted"] if res["attempted"] else 1.0
        print(f"  {'failed_frac':<26} {frac:<14.6g} {'ratio':<6} {res['failed']}/{res['attempted']}")
    return metrics


def environment(env_child) -> dict:
    src = Path("src")
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path).encode() + b"\0" + path.read_bytes())
    commit = None
    if Path(".git").exists():  # never look for a repository above the checkout
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "generating_processes": 1,
        **(env_child or {}),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, help="must equal run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "thermovisc" / "cli.py").is_file():
        print("bench: run from the repository root; src/thermovisc not found", file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    seconds = spec["run_seconds"]
    if args.seconds is not None and args.seconds != seconds:
        print(f"bench: the run length is run_seconds = {seconds}; --seconds {args.seconds} refused",
              file=sys.stderr)
        return 2

    work = root / ".bench_work"
    work.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=work))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        env = child_env(tmp)
        results = [
            bench_workload(n, args.seed, seconds, bool(args.trace), tmp, env) for n in names
        ]
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        if not any(work.iterdir()):
            work.rmdir()

    metrics = {}
    for res in results:
        per = report(res, units, not args.trace)
        metrics.update(per if len(results) == 1 else {f"{res['workload']}.{k}": v for k, v in per.items()})
    print("environment: " + json.dumps(environment(results[0]["env"]), sort_keys=True))

    # a failed warm-up clears `correct`; its time stays out of the medians
    warm_failed = any(r["warmup_problems"] for r in results)
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    if not metrics or attempted == 0:
        print("bench: no repetition produced a measurement", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": failed == 0 and not warm_failed and len(metrics) == len(units) * len(results),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
