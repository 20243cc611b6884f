"""emomusic benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload run-cold --seed 1 --seconds 20 --trace 0

Set-up (corpus synthesis, and for ``generate`` a short training) runs three
times, each in a fresh process, and ``setup_s`` is their median. The timed
phase then runs the workload's commands through ``emomusic.cli.main`` in this
process, in a closed loop with one client, until ``--seconds`` have passed.
It prints the run's description and every metric with its unit, then, as the
last line, one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (end-to-end metrics with ``--trace 0``, per-layer metrics with
``--trace 1``). See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import os

# One BLAS thread: the benchmark machine has 2 cores and runs one client.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
SETUPS = 3
SETUP_TIMEOUT_S = 40


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True,
                   choices=["run-cold", "generate", "attributes"])
    p.add_argument("--seed", type=int, required=True,
                   help="picks the synthetic corpus; the program's own seed is fixed")
    p.add_argument("--seconds", type=float, required=True,
                   help="length of the timed phase")
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--setup-dir", help=argparse.SUPPRESS)  # set-up child mode
    return p.parse_args(argv)


def run_info(args) -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "nproc": os.cpu_count(),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": blas, "blas_threads": os.environ["OPENBLAS_NUM_THREADS"]}


def run_setups(args, work: Path, probe, digest_dir) -> tuple[list[float], list[float], Path]:
    """Set up SETUPS times in fresh processes; all must give the same bytes.
    Returns the raw times, the same rescaled to nominal speed by the probe
    bursts right before and after each, and the directory of the last one."""
    times, scaled, digests = [], [], set()
    mark = probe.mark()
    probe.after(1.0)
    for i in range(SETUPS):
        root = work / f"setup{i}"
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", "0", "--setup-dir", str(root)]
        start = time.perf_counter()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S)
        times.append(time.perf_counter() - start)
        next_mark = probe.mark()
        probe.after(times[-1])
        scaled.append(times[-1] * probe.scale_since(mark))  # bursts before and after
        mark = next_mark
        if proc.returncode != 0:
            raise RuntimeError(f"set-up failed ({proc.returncode}): {proc.stderr.strip()}")
        digests.add(tuple(digest_dir(root / d) for d in ("corpus", "art")
                          if (root / d).exists()))
        if i:
            shutil.rmtree(work / f"setup{i - 1}")
    if len(digests) != 1:
        raise RuntimeError("repeated set-ups with one seed gave different bytes")
    return times, scaled, root


def measure(workload, root: Path, seconds: float, trace: bool, probe):
    """Closed loop, one client. With trace, plain and traced iterations
    alternate, plain first. At least workload.min_plain plain iterations
    run, and with trace at least one traced."""
    from spans import COUNTERS, LAYERS, Tracer
    from workloads import Runner

    tracer = Tracer()
    runner = Runner(tracer, probe)
    plain, traced = [], []
    tracer.install(COUNTERS)
    start = time.perf_counter()
    k = 0
    try:
        while (len(plain) < workload.min_plain or (trace and not traced)
               or time.perf_counter() - start < seconds):
            layered = trace and k % 2 == 1
            tracer.spans = []
            tracer.run_id = f"{'traced' if layered else 'plain'}-{k}"
            if layered:
                tracer.uninstall()
                tracer.install(LAYERS)
            mark = probe.mark()
            try:
                iteration = workload.iterate(root, runner)
                iteration.speed_scale = probe.scale_since(mark)
            finally:
                if layered:
                    tracer.uninstall()
                    tracer.install(COUNTERS)
            (traced if layered else plain).append((iteration, tracer.spans))
            k += 1
    finally:
        tracer.uninstall()
    return plain, traced, tracer.not_found


def percentile(values: list[float], q: int) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def workload_figures(name: str, plain) -> tuple[dict[str, tuple[float, str]], list[str]]:
    """End-to-end figures that only some workloads have; printed, not gated.

    Request latencies and the outputs' facts come from the CLI. Token counts
    and stage times come from the counter spans; a figure whose spans or
    counts are absent (a traced function was renamed or changed its return
    value) is listed as missing, never computed from zeros."""
    from spans import merge, status

    spans = merge(s for _, s in plain)
    out, missing = {}, []

    def stage_time(stage):
        ran = [s.seconds for s in spans
               if s.name == f"pipeline.stage.{stage}" and status(s) == "ran"]
        return sum(ran) if ran else None

    def total(span_name, key):
        notes = [s.note[key] for s in spans if s.name == span_name and s.note]
        return sum(notes) if notes else None

    def rate(key, count, seconds, why):
        if count is None or not seconds:
            missing.append(f"{key}: no counted {why} spans")
        else:
            out[key] = (count / seconds, "1/s")

    generated = total("sampling.generate_from_bits", "tokens")
    if name == "run-cold":
        rate("train_tokens_per_s", total("model.next_token_loss", "scored"),
             stage_time("train"), "model.next_token_loss or pipeline.stage.train")
        rate("gen_tokens_per_s", generated, stage_time("generate"),
             "sampling.generate_from_bits or pipeline.stage.generate")
        facts = [it.facts for it, _ in plain if it.facts]
        for key, unit in (("objective_accuracy", "share"), ("train_loss_final", "nats")):
            if facts:
                out[key] = (statistics.median(f[key] for f in facts), unit)
    if name == "generate":
        requests = [op.seconds for it, _ in plain for op in it.ops]
        rate("gen_tokens_per_s", generated, sum(requests), "sampling.generate_from_bits")
        out["request_s_p50"] = (statistics.median(requests), "s")
        out["request_s_p90"] = (percentile(requests, 90), "s")
        out["requests"] = (len(requests), "count")
    return out, missing


def trace_figures(name: str, plain, traced, not_found: set[str]):
    from spans import layer_metrics, merge, stage_seconds

    out = layer_metrics(merge(s for _, s in traced), len(traced))
    plain_wall = statistics.median(it.scaled_seconds for it, _ in plain)
    traced_wall = statistics.median(it.scaled_seconds for it, _ in traced)
    overhead = traced_wall - plain_wall
    # nominal seconds, like the walls it is compared with
    unaccounted = statistics.median(it.speed_scale * (it.seconds - stage_seconds(s))
                                    for it, s in traced)
    out["trace.overhead_s"] = (overhead, "s")
    out["trace.overhead_share"] = (overhead / plain_wall, "share")
    out["trace.unaccounted_s"] = (unaccounted, "s")
    problems, warnings = [], []
    # Stage spans must cover the pipeline's wall time: what lies outside them
    # (argument parsing, catalog set-up per command) must stay within the
    # tracing overhead, or within 2% of the wall where that overhead is noise.
    untraced = sorted(n for n in not_found if n.startswith("pipeline.stage."))
    if name == "run-cold" and untraced:
        warnings.append(f"{', '.join(untraced)} not traced, so the stage spans' "
                        "coverage of wall_s is not checked")
    elif name == "run-cold" and unaccounted > max(overhead, 0.02 * plain_wall):
        problems.append(f"stage spans miss {unaccounted:.3f} s of {traced_wall:.3f} s, "
                        f"more than the tracing overhead {overhead:.3f} s")
    return out, problems, warnings


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "emomusic" / "cli.py").is_file():
        print(f"perfbench: no emomusic sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    from speed import SpeedProbe
    from spans import Tracer
    from workloads import WORKLOADS, Runner, digest_dir

    workload = WORKLOADS[args.workload]()
    if args.setup_dir:
        workload.setup(Path(args.setup_dir), args.seed, Runner(Tracer()))
        return 0

    info = run_info(args)
    print("run: " + json.dumps(info))
    work = WORK / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    probe = SpeedProbe()
    try:
        setup_times, setup_scaled, root = run_setups(args, work, probe, digest_dir)
        plain, traced, not_found = measure(workload, root, args.seconds, bool(args.trace),
                                           probe)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    iterations = [it for it, _ in plain + traced]
    ops = [op for it in iterations for op in it.ops]
    failed = [op for op in ops if not op.ok]
    for op in failed:
        print(f"FAILED {op.command}: {'; '.join(op.problems)}")
    problems, warnings = [], []
    if args.trace:
        metrics, problems, warnings = trace_figures(args.workload, plain, traced, not_found)
        from spans import merge, write_spans
        write_spans(merge(s for _, s in plain + traced),
                    WORK / "traces" / f"{args.workload}-seed{args.seed}.jsonl")
    else:
        metrics = {
            "setup_s": (statistics.median(setup_scaled), "s"),
            "wall_s": (statistics.median(it.scaled_seconds for it, _ in plain), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        shown = dict(metrics)
        shown["setup_raw_s"] = (statistics.median(setup_times), "s")
        shown["wall_raw_s"] = (statistics.median(it.seconds for it, _ in plain), "s")
        shown["probe_kernel_ms"] = (1e3 * probe.seconds / probe.kernels, "ms")
        shown["ops_failed_share"] = (len(failed) / len(ops), "share")
        if not failed:
            figures, missing = workload_figures(args.workload, plain)
            shown.update(figures)
            warnings += [f"missing {m}" for m in missing]
    for warning in warnings:
        print(f"WARNING {warning}")
        print(f"perfbench: {warning}", file=sys.stderr)
    for problem in problems:
        print(f"FAILED check: {problem}")
    print(f"iterations: {len(plain)} plain, {len(traced)} traced; "
          f"ops: {len(ops)} attempted, {len(failed)} failed; "
          f"digest {iterations[0].digest[:16]}")
    for key, (value, unit) in (metrics if args.trace else shown).items():
        print(f"{key:36s} {value:14.6g} {unit}")
    print(json.dumps({
        "correct": not failed and not problems,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
