"""One fresh interpreter of a benchmark run; started by run.py.

    worker.py setup  --workload W --seed N --out DIR
    worker.py passes --workload W --seed N --out DIR --seconds S --trace 0|1

``setup`` imports latentkrig and writes the workload's inputs. ``passes``
runs the workload's CLI pipeline through ``cli.main`` in-process, with
stdout captured, until S seconds have passed, checks every pass, and
prints one JSON record as its last line. With ``--trace 1`` passes
alternate between untraced and traced, so the tracing overhead is the
difference of the two medians in one interpreter.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import sys
import time
from pathlib import Path

import numpy as np

import workloads

ROOT = Path.cwd()
sys.path.insert(0, str(ROOT / "src"))


def _tree_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        **{k: os.environ.get(k) for k in workloads.BLAS_VARS},
        "git_commit": _git_commit(),
    }


def run_setup(args) -> None:
    import latentkrig  # noqa: F401  (part of what setup_s measures)
    props = workloads.generate(args.workload, args.seed, args.out)
    (args.out / "props.json").write_text(json.dumps(props))


def run_passes(args) -> dict:
    from latentkrig import cli
    from spans import Tracer

    wl = args.workload
    # relative paths keep the CLI's stdout independent of where the run is
    os.chdir(args.out)
    data, out = Path("data"), Path("pass")
    with np.load("truth.npz") as npz:
        truth = {k: npz[k] for k in npz.files}
    argvs = workloads.commands(wl, args.seed, data, out, truth)
    tracer = Tracer() if args.trace else None

    passes = []
    reference = None
    first_rss = None
    start = time.perf_counter()
    # a traced run needs at least one untraced and one traced pass
    min_passes = 2 if tracer else 1
    while (len(passes) < min_passes
           or time.perf_counter() - start < args.seconds):
        traced = tracer is not None and len(passes) % 2 == 1
        record = {"traced": traced, "ok": False}
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)
        buf = io.StringIO()
        if traced:
            tracer.install()
        try:
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(buf):
                codes = []
                for argv in argvs:
                    codes.append(cli.main(argv))
                    if codes[-1] != 0:
                        break
            record["seconds"] = time.perf_counter() - t0
            if not passes:
                first_rss = _peak_rss_mb()
        except Exception as exc:  # a crash fails the pass, not the run
            record["reason"] = f"{type(exc).__name__}: {exc}"
            codes = None
        finally:
            if traced:
                tracer.uninstall()
                record["layers"] = tracer.pass_metrics()
        if codes is not None and codes[-1] != 0:
            record["reason"] = f"exit code {codes[-1]} from {argvs[len(codes) - 1][0]}"
        elif codes is not None:
            stdout = buf.getvalue()
            digest = hashlib.sha256(stdout.encode() + workloads.tree_hash(out).encode()).hexdigest()
            if traced:
                record["layers"]["cli.bytes_out"] = len(stdout.encode()) + _tree_bytes(out)
            try:
                reference = reference or digest
                if digest != reference:
                    raise workloads.CheckFailed("outputs differ from the first pass")
                record.update(workloads.check(
                    wl, out, stdout, truth,
                    corrupt=len(passes) + 1 == args.inject_nan))
                record["ok"] = True
            except (workloads.CheckFailed, OSError, ValueError, KeyError) as exc:
                record["reason"] = f"check: {exc}"
        passes.append(record)
    shutil.rmtree(out, ignore_errors=True)
    return {
        "passes": passes,
        "measure_s": time.perf_counter() - start,
        # one pass in a fresh interpreter; later passes grow the heap
        "peak_rss_mb": first_rss or _peak_rss_mb(),
        "peak_rss_mb_all_passes": _peak_rss_mb(),
        "env": environment(),
    }


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("role", choices=("setup", "passes"))
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--inject-nan", type=int, default=0)
    args = ap.parse_args()
    if args.role == "setup":
        run_setup(args)
    else:
        print(json.dumps(run_passes(args)))


if __name__ == "__main__":
    main()
