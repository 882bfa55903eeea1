"""jetcalc benchmark: four workloads that drive the jetcalc CLI in-process.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload tree-degrees --seed 1 --seconds 20 --trace 0

A run starts ``WORKERS`` fresh worker interpreters, one after another.
Each imports jetcalc, builds the workload's inputs from ``--seed``, runs
the fixed job list once as a warm-up, then runs whole rounds of it until
its share of ``--seconds`` has passed.  A job calls
``jetcalc.cli.main(argv)`` with stdout captured; jobs run one after
another (a closed loop).  Spreading the timed rounds over several
interpreters averages what stays fixed for the life of one process
(memory layout, hash seed) together with the host's speed, which drifts
by 10-25 % over seconds to minutes on a shared machine.

This process then checks every output against values computed apart from
the program (workloads.py, oracles.py) and prints, as the last line of
stdout, one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
the per-layer metrics of traced rounds (tracing.py), with their overhead
against untraced rounds of the same workers.  Details go to
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOAD_NAMES = ("tree-degrees", "exact-integrals", "segre-lattice", "monte-carlo")
WORKERS = 3
# Three workers must end well within the 180 s a run may take.
WORKER_TIMEOUT_S = 50
END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "job_p50_ms": "ms",
                    "peak_rss_mb": "MB"}


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--worker", type=int, default=None, help=argparse.SUPPRESS)
    parser.add_argument("--launched", type=float, default=None, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


# -- worker: one fresh interpreter -------------------------------------------------


def import_program():
    """Import jetcalc from this checkout's src/ and nowhere else."""
    if not (SRC / "jetcalc" / "cli.py").is_file():
        raise ImportError(f"no jetcalc sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import jetcalc
    import jetcalc.cli

    if Path(jetcalc.__file__).resolve().parent != SRC / "jetcalc":
        raise ImportError(f"jetcalc was imported from {jetcalc.__file__}, not {SRC}")
    return jetcalc


def run_job(cli, argv: list[str]) -> tuple[float, int, str]:
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # a traceback is a program fault: the job failed
        code = -1
        err.write(repr(exc))
    return time.perf_counter() - start, code, out.getvalue()


def run_round(cli, jobs) -> dict:
    cpu0, wall0 = time.process_time(), time.perf_counter()
    results = [run_job(cli, job.argv) for job in jobs]
    return {
        "wall_s": time.perf_counter() - wall0,
        "cpu_s": time.process_time() - cpu0,
        "latencies": [r[0] for r in results],
        "codes": [r[1] for r in results],
        "outputs": [r[2] for r in results],
    }


def worker(args, workdir: Path) -> dict:
    """Set up, then warm up and run timed rounds.

    Returns the set-up time (from ``--launched``, the wall-clock time at
    which the parent started this interpreter), the warm-up outputs (every
    later output is compared with them), the rounds' timings and exit
    codes, and with tracing the per-layer summaries of the traced rounds."""
    jetcalc = import_program()
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed, workdir)
    for path in sorted(workdir.glob("*.json")):
        with open(path) as handle:
            jetcalc.strat.tree_from_dict(json.load(handle))
    setup_s = time.time() - args.launched

    cli, jobs = jetcalc.cli, workload.jobs
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer(jetcalc)
    warm = run_round(cli, jobs)
    plain, traced, layers = [], [], []
    start = time.perf_counter()
    while not plain or time.perf_counter() - start < args.seconds:
        plain.append(run_round(cli, jobs))
        if tracer is not None:
            tracer.reset()
            tracer.install()
            try:
                traced.append(run_round(cli, jobs))
            finally:
                tracer.uninstall()
            layers.append(tracer.summary())
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        write_spans(tracer, args)
    reruns = [run_job(cli, argv)[1:] for _, argv in workload.reruns] if args.worker == 0 else []
    rounds = [warm, *plain, *traced]
    return {
        "setup_s": setup_s,
        "outputs": warm["outputs"],
        "codes": [rnd["codes"] for rnd in rounds],
        "differs": [[i for i, out in enumerate(rnd["outputs"]) if out != warm["outputs"][i]]
                    for rnd in rounds],
        "plain": [{key: rnd[key] for key in ("wall_s", "cpu_s", "latencies")} for rnd in plain],
        "traced_wall_s": [rnd["wall_s"] for rnd in traced],
        "layers": layers,
        "peak_rss_mb": peak_rss_mb,
        "reruns": reruns,
    }


def write_spans(tracer, args) -> None:
    """The spans of the worker's last traced round, one JSON object per line."""
    path = OUT / f"trace-{args.workload}-seed{args.seed}-worker{args.worker}.jsonl"
    with open(path, "w") as handle:
        for span_id, parent, layer, name, start, end in tracer.spans():
            handle.write(json.dumps({"id": span_id, "parent": parent, "layer": layer,
                                     "name": name, "start": start, "end": end}) + "\n")


# -- the run: workers, checks, metrics ------------------------------------------------


def spawn_worker(args, index: int) -> tuple[float, dict]:
    """(set-up seconds, worker result).  Set-up runs from launching the
    interpreter until it has imported jetcalc.cli and built the inputs."""
    launched = time.time()
    command = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds / WORKERS),
               "--trace", str(args.trace), "--worker", str(index), "--launched", repr(launched)]
    with subprocess.Popen(command, stdout=subprocess.PIPE, text=True, cwd=ROOT) as child:
        try:
            out, _ = child.communicate(timeout=WORKER_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            child.kill()
            child.communicate()
            raise RuntimeError(f"worker {index} ran past {WORKER_TIMEOUT_S} s") from None
    if child.returncode != 0:
        raise RuntimeError(f"worker {index} failed with exit code {child.returncode}")
    result = json.loads(out.strip().splitlines()[-1])
    return result.pop("setup_s"), result


def check(workload, results: list[dict]) -> tuple[int, int, list[str]]:
    """(attempted, failed, mismatches) over every job run of every worker."""
    first = results[0]["outputs"]
    wrong: dict[int, str] = {}
    for index, job in enumerate(workload.jobs):
        try:
            reason = job.check(first[index])
        except Exception as exc:  # unparsable output is a wrong output
            reason = f"check raised {exc!r}"
        if reason:
            wrong[index] = reason
    for relation in workload.relations:
        for index, reason in relation(first):
            wrong.setdefault(index, reason)
    for (index, argv), (code, out) in zip(workload.reruns, results[0]["reruns"]):
        if code != 0 or out != first[index]:
            wrong.setdefault(index, f"rerun {' '.join(argv)} differs from the job's output")
    attempted = failed = 0
    for result in results:
        for index, out in enumerate(result["outputs"]):
            if out != first[index]:
                wrong.setdefault(index, "output differs between workers")
        for codes, differs in zip(result["codes"], result["differs"]):
            for index in differs:
                wrong.setdefault(index, "output differs between rounds")
            attempted += len(codes)
            failed += sum(code != 0 or index in wrong for index, code in enumerate(codes))
    mismatches = [f"{workload.jobs[i].kind}: {reason}" for i, reason in sorted(wrong.items())]
    return attempted, failed, mismatches


def end_to_end(setups: list[float], results: list[dict]) -> dict:
    plain = [rnd for result in results for rnd in result["plain"]]
    values = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(rnd["wall_s"] for rnd in plain),
        "cpu_s": statistics.median(rnd["cpu_s"] for rnd in plain),
        "job_p50_ms": 1000 * statistics.median(t for rnd in plain for t in rnd["latencies"]),
        "peak_rss_mb": max(result["peak_rss_mb"] for result in results),
    }
    return {key: {"value": value, "unit": END_TO_END_UNITS[key]} for key, value in values.items()}


def per_layer(results: list[dict]) -> dict:
    layers = [layer for result in results for layer in result["layers"]]
    metrics = {}
    for key in layers[0]:
        values = [layer[key] for layer in layers]
        if key.endswith("_s"):
            metrics[key] = {"value": statistics.median(values), "unit": "s"}
        else:
            if len(set(values)) != 1:
                print(f"warning: {key} differs between traced rounds: {values}",
                      file=sys.stderr)
            metrics[key] = {"value": values[0], "unit": "count"}
    traced = statistics.median(t for result in results for t in result["traced_wall_s"])
    plain = statistics.median(rnd["wall_s"] for result in results for rnd in result["plain"])
    metrics["trace.overhead_pct"] = {"value": 100 * (traced / plain - 1), "unit": "%"}
    return metrics


def benchmark(args, workdir: Path) -> int:
    if not (SRC / "jetcalc" / "cli.py").is_file():
        print(f"error: no jetcalc sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed, workdir)
    setups, results = [], []
    for index in range(WORKERS):
        setup_s, result = spawn_worker(args, index)
        setups.append(setup_s)
        results.append(result)
    attempted, failed, mismatches = check(workload, results)
    metrics = per_layer(results) if args.trace else end_to_end(setups, results)

    plain = [rnd for result in results for rnd in result["plain"]]
    detail = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "jobs_per_round": len(workload.jobs), "workers": WORKERS, "timed_rounds": len(plain),
        "setup_s": setups, "round_wall_s": [r["wall_s"] for r in plain],
        "round_cpu_s": [r["cpu_s"] for r in plain],
        "peak_rss_mb": [r["peak_rss_mb"] for r in results],
        "job_median_ms": {f"{i}:{job.kind}": 1000 * statistics.median(
            rnd["latencies"][i] for rnd in plain) for i, job in enumerate(workload.jobs)},
        "layers_per_round": [layer for r in results for layer in r["layers"]],
        "mismatches": mismatches, "metrics": metrics,
    }
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(detail, indent=1))

    print(f"{args.workload}: {len(workload.jobs)} jobs per round, {len(plain)} timed rounds "
          f"over {WORKERS} worker processes, {len(plain) * len(workload.jobs)} timed jobs; "
          f"details in {OUT / name}")
    for reason in mismatches:
        print(f"MISMATCH {reason}")
    for key, metric in metrics.items():
        print(f"  {key} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({"correct": not mismatches, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    # One BLAS/OpenMP thread, inherited by the workers: the MC worker pool
    # is the only parallelism (see README, "BLAS pin").
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    OUT.mkdir(exist_ok=True)
    role = "main" if args.worker is None else f"worker{args.worker}"
    workdir = OUT / f"work-{args.workload}-{role}-{os.getpid()}"
    workdir.mkdir()
    try:
        if args.worker is None:
            return benchmark(args, workdir)
        sys.path.insert(0, str(HERE))
        try:
            result = worker(args, workdir)
        except ImportError as exc:
            print(f"error: cannot import the program: {exc}", file=sys.stderr)
            return 2
        print(json.dumps(result))
        return 0
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
