#!/usr/bin/env python3
"""Benchmark for rangerefine: run one workload, check its outputs, print metrics.

    python3 perfbench/run.py --workload scan-knn --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

A run sets the workload up several times (each in a fresh process), then
makes timed calls to the program's entry point, each in a fresh process with
one BLAS/OpenMP thread, until ``--seconds`` have passed. ``--trace 1``
alternates untraced and traced calls and reports per-layer metrics instead
of end-to-end ones. The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. See README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from phase import REFERENCE_S, THREAD_VARS  # noqa: E402
from tracing import LAYER_METRICS, SELF_TIME_METRICS, tail_percentile  # noqa: E402

SETUP_REPS = 3
# One busy core reads 1.0; allow timer and accounting slack, not a second core.
MAX_CPU_PER_WALL = 1.2
# Every process of a run must have ended within this many seconds.
HARD_LIMIT_S = 170.0
END_TO_END = [
    ("points_per_s", "1/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
    ("setup_s", "s", "lower"),
]


class BenchError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def git_commit() -> str | None:
    """HEAD of the checkout when it is a git work tree, read without git."""
    git = ROOT / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def pinned_env() -> dict:
    env = dict(os.environ)
    env.update({k: "1" for k in THREAD_VARS})
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def at_reference_speed(wall_s: float, reference_s: float) -> float:
    """Wall time rescaled to a host on which one reference pass takes
    REFERENCE_S seconds (see phase.py)."""
    return wall_s * REFERENCE_S / reference_s


def quartiles(values) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


class Run:
    """One workload at one seed: set-ups, timed calls, checks and metrics."""

    def __init__(self, workload, seed, seconds, trace, scale, hard_deadline):
        self.workload, self.seed, self.seconds = workload, seed, seconds
        self.trace, self.scale = trace, scale
        self.hard_deadline = hard_deadline
        self.work = HERE / ".runs" / f"{workload}-{scale}-seed{seed}-trace{trace}"
        self.env = pinned_env()
        self.checks: dict[str, bool] = {}
        self.problems: list[str] = []

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks[name] = self.checks.get(name, True) and bool(ok)
        if not ok:
            self.problems.append(f"{name}: {detail}" if detail else name)

    def check_one_core(self, cpu_s: float, wall_s: float) -> None:
        self.check("one busy core", cpu_s / wall_s <= MAX_CPU_PER_WALL, f"{cpu_s / wall_s:.2f}")

    def child(self, command: str, *argv: str) -> dict:
        result = self.work / f"{command}-{time.monotonic_ns()}.json"
        timeout = self.hard_deadline - time.monotonic()
        if timeout <= 0:
            raise BenchError(f"{self.workload}: out of time before {command}")
        cmd = [
            sys.executable, str(HERE / "phase.py"), command,
            "--workload", self.workload, "--scale", self.scale, "--result", str(result), *argv,
        ]
        try:
            proc = subprocess.run(
                cmd, cwd=ROOT, env=self.env, stdout=subprocess.DEVNULL,
                stderr=subprocess.PIPE, text=True, timeout=timeout,
            )
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"{self.workload}: {command} exceeded {timeout:.0f}s") from exc
        if proc.returncode != 0:
            raise BenchError(f"{self.workload}: {command} failed:\n{proc.stderr[-2000:]}")
        data = json.loads(result.read_text())
        result.unlink()
        return data

    def set_up(self) -> dict:
        setups = []
        for rep in range(SETUP_REPS):
            setups.append(self.child(
                "setup", "--seed", str(self.seed), "--dir", str(self.work / f"setup{rep}")
            ))
            if rep:
                shutil.rmtree(self.work / f"setup{rep}")
        self.check("set-ups identical for one seed", len({s["digest"] for s in setups}) == 1)
        for s in setups:
            self.check_one_core(s["cpu_s"], s["setup_s"])
        self.setup_s = [s["setup_s"] for s in setups]
        self.setup_reference_s = [s["reference_s"] for s in setups]
        self.setup_cpu_per_wall = [s["cpu_s"] / s["setup_s"] for s in setups]
        return setups[0]

    def timed_calls(self, points: dict) -> list[dict]:
        calls, index = [], 0
        end = time.monotonic() + self.seconds
        while index < 1 + self.trace or time.monotonic() < end:
            traced = bool(self.trace) and index % 2 == 1
            out = self.work / f"call{index}"
            r = self.child(
                "call", "--dir", str(self.work / "setup0"), "--out", str(out),
                "--trace", str(int(traced)), "--spans", str(self.work / f"spans-{index}.jsonl"),
            )
            r["traced"] = traced
            self.verify_call(r, points)
            shutil.rmtree(out, ignore_errors=True)
            calls.append(r)
            index += 1
        return calls

    def verify_call(self, r: dict, points: dict) -> None:
        w = self.workload
        planned = workloads.planned_ops(w, self.scale)
        if r["error"]:
            done = len(r.get("labels", {})) if w != "train-desk" else 0
            r["failed"] = planned - done
            self.problems.append(f"call failed: {r['error']}")
            return
        r["failed"] = 0
        self.check_one_core(r["cpu_s"], r["wall_s"])
        if w == "train-desk":
            losses = r["losses"]
            self.check("one loss per epoch", len(losses) == workloads.sizes(w, self.scale).epochs)
            self.check("finite positive losses", all(math.isfinite(x) and x > 0 for x in losses))
        else:
            # The benchmark's own scan count, not the report's num_scans.
            self.check("one label file per scan", sorted(r["labels"]) == sorted(points),
                       f"{len(r['labels'])} files for {len(points)} scans")
            self.check("one label per point",
                       all(r["labels"].get(k) == n for k, n in points.items()))
            self.check("report mIoU matches labels",
                       abs(r["miou"] - r["miou_recomputed"]) <= 1e-9,
                       f"{r['miou']} vs {r['miou_recomputed']}")
            floor = workloads.MIOU_FLOOR[w]
            self.check("mIoU above floor", r["miou"] >= floor, f"{r['miou']:.4f} < {floor}")
        if r["traced"]:
            present = set(r["span_names"]) & set(workloads.ABSENT_SPANS[w])
            self.check("bypassed layers record no spans", not present, str(sorted(present)))
            # Reported, not failed: a refactor may legitimately remove a wrap point.
            note = f"not traced, the program has no {', '.join(r['missing'])}"
            if r["missing"] and note not in self.problems:
                self.problems.append(note)

    def run(self) -> dict:
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        meta = self.set_up()
        calls = self.timed_calls(meta["points"])
        shutil.rmtree(self.work / "setup0")
        ok = [c for c in calls if not c["error"]]
        untraced = [c for c in ok if not c["traced"]]
        traced = [c for c in ok if c["traced"]]
        if not untraced or (self.trace and not traced):
            raise BenchError(f"{self.workload}: no timed call succeeded: {self.problems}")
        self.check("identical outputs on every call", len({c["digest"] for c in ok}) == 1)
        if traced:
            self.check("traced outputs identical to untraced",
                       {c["digest"] for c in traced} == {c["digest"] for c in untraced})

        per_call = workloads.planned_ops(self.workload, self.scale)
        total_points = sum(meta["points"].values())
        result = {
            "workload": self.workload,
            "seed": self.seed,
            "scale": self.scale,
            "attempted": per_call * len(calls),
            "failed": sum(c["failed"] for c in calls),
            "env": dict(calls[0]["env"], commit=git_commit()),
            "setup_reference_s": self.setup_reference_s,
            "calls": [
                {k: c.get(k) for k in
                 ("traced", "wall_s", "cpu_s", "reference_s", "peak_rss_mb", "error")}
                for c in calls
            ],
        }
        walls = [c["wall_s"] for c in untraced]
        times = [at_reference_speed(c["wall_s"], c["reference_s"]) for c in untraced]
        result["report"] = {
            "points_per_s": [total_points / t for t in times],
            "peak_rss_mb": [c["peak_rss_mb"] for c in untraced],
            "setup_s": list(map(at_reference_speed, self.setup_s, self.setup_reference_s)),
            "cpu_per_wall": [c["cpu_s"] / c["wall_s"] for c in ok] + self.setup_cpu_per_wall,
            "wall_points_per_s": [total_points / t for t in walls],
            "wall_setup_s": self.setup_s,
            "reference_s": [c["reference_s"] for c in ok] + self.setup_reference_s,
        }
        if self.workload == "train-desk":
            samples = workloads.samples_per_call(self.workload, self.scale)
            result["report"]["samples_per_s"] = [samples / t for t in times]
            result["report"]["final_loss"] = [untraced[0]["losses"][-1]]
        else:
            result["report"]["miou"] = [untraced[0]["miou"]]
        if self.trace:
            result["layers"] = self.layer_metrics(traced, walls)
        else:
            result["metrics"] = {
                name: {"value": statistics.median(result["report"][name]), "unit": unit}
                for name, unit, _ in END_TO_END
            }
        result["checks"] = self.checks
        result["problems"] = self.problems
        result["correct"] = all(self.checks.values())
        (self.work / "result.json").write_text(json.dumps(result, indent=1))
        return result

    def layer_metrics(self, traced: list[dict], untraced_walls: list[float]) -> dict:
        units = {name: unit for name, unit, _ in LAYER_METRICS}
        values = {
            name: statistics.median(c["layers"].get(name, 0.0) for c in traced)
            for name in units
        }
        scans = [x for c in traced for x in c["samples"]["pipeline.refine_scan_ms"]]
        steps = [x for c in traced for x in c["samples"]["refiner.step_ms"]]
        tail = tail_percentile(scans)
        values["pipeline.refine_scan_ms"] = statistics.median(scans) if scans else 0.0
        values["pipeline.refine_scan_tail_pct"], values["pipeline.refine_scan_tail_ms"] = (
            tail if tail else (0, 0.0)
        )
        values["pipeline.refine_scan_samples"] = len(scans)
        values["refiner.step_ms"] = statistics.median(steps) if steps else 0.0
        traced_wall = 1000.0 * statistics.median(c["wall_s"] for c in traced)
        values["trace.wall_ms"] = traced_wall
        values["trace.overhead_ms"] = traced_wall - 1000.0 * statistics.median(untraced_walls)
        for c in traced:
            # Self times partition the root span, which the timed region encloses.
            accounted = sum(c["layers"].get(name, 0.0) for name in SELF_TIME_METRICS)
            gap = 1000.0 * c["wall_s"] - accounted
            self.check("self times account for the traced wall time",
                       0.0 <= gap <= max(values["trace.overhead_ms"], 0.0) + 1.0,
                       f"gap {gap:.3f} ms")
        return {name: {"value": values[name], "unit": units[name]} for name in units}


def print_run(result: dict) -> None:
    w = result["workload"]
    print(f"{w} env {json.dumps(result['env'], sort_keys=True)}")
    for i, c in enumerate(result["calls"]):
        kind = "traced" if c["traced"] else "untraced"
        print(f"{w} call {i} {kind} wall_s {c['wall_s']:.4f} reference_s "
              f"{c['reference_s']:.4f} cpu_per_wall {c['cpu_s'] / c['wall_s']:.3f} "
              f"peak_rss_mb {c['peak_rss_mb']:.1f}"
              + (f" error {c['error']}" if c["error"] else ""))
    units = {n: (u, b) for n, u, b in END_TO_END}
    units.update(samples_per_s=("1/s", "higher"), miou=("fraction", "higher"),
                 final_loss=("loss", "lower"), cpu_per_wall=("ratio", "lower"),
                 wall_points_per_s=("1/s", "higher"), wall_setup_s=("s", "lower"),
                 reference_s=("s", "lower"))
    for name, values in result["report"].items():
        q1, med, q3 = quartiles(values)
        unit, better = units[name]
        print(f"{w} {name} {med:.6g} {unit} ({better} is better; median of {len(values)}, "
              f"quartiles {q1:.6g}..{q3:.6g})")
    for name, m in result.get("layers", {}).items():
        print(f"{w} layer {name} {m['value']:.6g} {m['unit']}")
    for name, ok in result["checks"].items():
        print(f"{w} check {'PASS' if ok else 'FAIL'} {name}")
    for problem in result["problems"]:
        print(f"{w} problem {problem}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="rangerefine benchmark")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, default=0, choices=[0, 1])
    parser.add_argument("--scale", default="full", choices=workloads.SCALES,
                        help="'smoke' shrinks every workload, for the benchmark's own tests")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "rangerefine" / "__init__.py").is_file():
        print(f"error: no program to benchmark under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    for name in names:
        deadline = time.monotonic() + HARD_LIMIT_S
        run = Run(name, args.seed, args.seconds, args.trace, args.scale, deadline)
        try:
            results.append(run.run())
        except BenchError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        print_run(results[-1])

    key = "layers" if args.trace else "metrics"
    if args.workload != "all":
        r = results[0]
        line = {k: r[k] for k in ("correct", "attempted", "failed")}
        line["metrics"] = r[key]
    else:
        line = {r["workload"]: {k: r[k] for k in ("correct", "attempted", "failed", key)}
                for r in results}
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
