"""End-to-end benchmark of the latentkrig CLI pipelines.

Run from the root of a checkout:

    python3 perfbench/run.py --workload paper-cv --seed 1 --seconds 30 --trace 0

Workloads (see workloads.py for why each exists): paper-cv,
wide-forecast, gappy-impute. The package is imported from ``src/`` of
the current directory; without it the run exits with status 2.

A run does three things, each in fresh interpreters started with the
workload's thread environment:

1. set-up, SETUP_REPS times: import latentkrig and write the inputs
   generated from ``--seed``; ``setup_s`` is the median wall time from
   interpreter start to files written;
2. passes for ``--seconds``: the CLI pipeline runs in-process, every
   pass is timed with tracing off and its outputs checked against the
   simulator's truth (``pass_s`` is the median; ``peak_rss_mb`` is the
   peak RSS of that interpreter through its first pass, since later
   passes only add heap growth that depends on how many passes fit);
3. with ``--trace 1``, passes alternate untraced and traced, and the
   per-layer metrics are medians over the traced passes.

Everything is written under ``.perfbench_work/`` in the current
directory and removed at the end. The last line of stdout is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics, or with ``--trace 1`` the per-layer ones). The line
before it is a JSON report with the environment, workload properties,
sample counts, quartiles, accuracy and per-pass failures.
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
sys.path.insert(0, str(HERE))

import spans  # noqa: E402
import workloads  # noqa: E402

SETUP_REPS = 5
DEADLINE_S = 170     # a run must end within 180 s; children get what is left


def _quartiles(values: list[float]) -> dict:
    if len(values) == 1:
        q1 = q2 = q3 = values[0]
    else:
        q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "count": len(values)}


def _tail(values: list[float]) -> dict | None:
    """Highest percentile above the median with ten samples beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    for pct in range(99, 50, -1):
        rank = math.ceil(pct / 100 * n)
        if n - rank >= 10:
            return {"percentile": pct, "value": ordered[rank - 1]}
    return None


def _child(role: str, args, out: Path, env: dict, deadline: float,
           extra: tuple = ()) -> tuple[float, str]:
    cmd = [sys.executable, str(HERE / "worker.py"), role,
           "--workload", args.workload, "--seed", str(args.seed),
           "--out", str(out), *extra]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                          timeout=max(1.0, deadline - t0))
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"{role} interpreter exited with {proc.returncode}")
    return wall, proc.stdout


def measure(args, work: Path) -> tuple[dict, dict]:
    wl = workloads.WORKLOADS[args.workload]
    env = workloads.apply_env(wl, os.environ)
    deadline = time.perf_counter() + DEADLINE_S

    setup_s = []
    for rep in range(SETUP_REPS):
        wall, _ = _child("setup", args, work / f"setup{rep}", env, deadline)
        setup_s.append(wall)
    inputs = work / "setup0"
    same_inputs = all(
        workloads.tree_hash(work / f"setup{rep}" / "data")
        == workloads.tree_hash(inputs / "data") for rep in range(1, SETUP_REPS))
    props = json.loads((inputs / "props.json").read_text())

    _, stdout = _child("passes", args, inputs, env, deadline,
                       ("--seconds", str(args.seconds), "--trace",
                        str(args.trace), "--inject-nan", str(args.inject_nan)))
    rec = json.loads(stdout.strip().splitlines()[-1])
    passes = rec["passes"]
    failed = [p for p in passes if not p["ok"]]
    attempted = len(passes)
    if not same_inputs:
        failed.append({"reason": "set-up wrote different inputs for one seed"})
        attempted += 1

    plain = [p["seconds"] for p in passes if p["ok"] and not p["traced"]]
    traced = [p for p in passes if p["ok"] and p["traced"]]
    ok = [p for p in passes if p["ok"]]
    report = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "env": rec["env"], "properties": props,
        "setup_s": {**_quartiles(setup_s), "samples": setup_s},
        "pass_s": ({**_quartiles(plain), "tail": _tail(plain), "samples": plain}
                   if plain else None),
        "peak_rss_mb": rec["peak_rss_mb"],
        "peak_rss_mb_all_passes": rec["peak_rss_mb_all_passes"],
        "error_rate": {"failed": len(failed), "attempted": attempted,
                       "value": len(failed) / attempted},
        "accuracy": ok[0]["accuracy"] if ok else None,
        "printed": ok[0]["printed"] if ok else None,
        "failures": [p.get("reason") for p in failed],
    }
    result = {"correct": not failed and bool(ok), "attempted": attempted,
              "failed": len(failed)}
    if args.trace:
        layers = {}
        for name, unit in spans.METRICS:
            vals = [p["layers"][name] for p in traced]
            layers[name] = {"value": statistics.median(vals) if vals else 0.0,
                            "unit": unit}
        overhead = (statistics.median(p["seconds"] for p in traced)
                    - statistics.median(plain)) if traced and plain else 0.0
        layers["trace.overhead_s"] = {"value": overhead, "unit": "s"}
        report["traced_passes"] = len(traced)
        result["metrics"] = layers
    else:
        result["metrics"] = {
            "pass_s": {"value": report["pass_s"]["median"] if plain else 0.0,
                       "unit": "s"},
            "setup_s": {"value": report["setup_s"]["median"], "unit": "s"},
            "peak_rss_mb": {"value": rec["peak_rss_mb"], "unit": "MB"},
        }
    return report, result


def print_report(report: dict, result: dict) -> None:
    """Readable lines: every metric with its unit, sample count and check."""
    err = report["error_rate"]
    print(f"{report['workload']} seed={report['seed']}: check "
          f"{'ok' if result['correct'] else 'FAILED'} "
          f"({err['failed']} of {err['attempted']} passes failed)")
    for reason in report["failures"]:
        print(f"  failure: {reason}")
    ps = report["pass_s"]
    if ps:
        tail = (f"p{ps['tail']['percentile']} {ps['tail']['value']:.4f}"
                if ps["tail"] else "no tail: fewer than 21 passes")
        print(f"  pass_s       {ps['median']:.4f} s   median of {ps['count']} "
              f"untraced passes, q1 {ps['q1']:.4f}, q3 {ps['q3']:.4f}, {tail}")
    st = report["setup_s"]
    print(f"  setup_s      {st['median']:.4f} s   median of {st['count']} "
          f"fresh interpreters, q1 {st['q1']:.4f}, q3 {st['q3']:.4f}")
    print(f"  peak_rss_mb  {report['peak_rss_mb']:.1f} MB  "
          "peak RSS of the pass interpreter")
    print(f"  error_rate   {err['value']:.4f}      "
          f"{err['failed']} failed / {err['attempted']} attempted")
    bounds = workloads.WORKLOADS[report["workload"]].bounds
    for name in workloads.ACCURACY:
        if name in bounds and report["accuracy"]:
            print(f"  {name:<12} {report['accuracy'][name]:.6f}    first good "
                  f"pass, sanity bound {bounds[name]}")
        else:
            print(f"  {name:<12} n/a")
    if report["printed"]:
        print("  cli printed  " + " ".join(
            f"{k}={v:g}" for k, v in report["printed"].items()))
    if result["metrics"] and report["trace"]:
        print(f"  per-layer medians of {report['traced_passes']} traced passes:")
        for name, m in result["metrics"].items():
            print(f"    {name:<34} {m['value']:.6g} {m['unit']}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--inject-nan", type=int, default=0, metavar="K",
                    help="feed pass K's output to the checker with a NaN in "
                         "it, to show the failure is counted (0: never)")
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    if not (Path.cwd() / "src" / "latentkrig" / "__init__.py").is_file():
        print("perfbench: run from a checkout root; src/latentkrig is missing",
              file=sys.stderr)
        return 2
    work = Path.cwd() / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        report, result = measure(args, work)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, OSError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    print_report(report, result)
    print(json.dumps(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
