"""Benchmark of groupmotion: noise-optimised group composition end to end.

    python3 bench/run.py --workload pair-ablation-32 --seed 0 --seconds 30 --trace 0

Runs from the root of a checkout, on the sources under src/. One process,
at most two BLAS threads, CLI commands with --jobs 1. After the set-up
the workload's whole job is repeated in rounds until --seconds have
passed; the outputs are then checked. The last line of standard output
is one JSON object with `correct`, `attempted`, `failed` and `metrics`.

--trace 0 reports the end-to-end metrics: setup_s (process start to the
end of the set-up), and the medians over rounds of wall_s and cpu_s, plus
peak_rss_mb. --trace 1 reports the per-layer metrics instead: it
alternates untraced and traced rounds (at least two traced), takes the
medians over the traced rounds, checks that every count repeats exactly
and reports the tracing overhead. See bench/README.md.
"""

import os
import sys
import time


def process_age() -> float:
    """Seconds since this process started (clock-tick resolution)."""
    with open("/proc/self/stat") as f:
        fields = f.read().rsplit(")", 1)[1].split()
    start = int(fields[19]) / os.sysconf("SC_CLK_TCK")
    return time.clock_gettime(time.CLOCK_BOOTTIME) - start


THREADS = str(min(2, os.cpu_count() or 1))
for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")

# per-layer metric -> span whose self time it reports
SELF_TIMES = {
    "autodiff.grad_s": "autodiff.grad",
    "autodiff.adam_s": "autodiff.adam",
    "scripts.build_pair_scripts_s": "scripts.build_pair_scripts",
    "priors.predict_s": "priors.predict",
    "diffusion.ddim_s": "diffusion.ddim",
    "diffusion.masked_s": "diffusion.masked",
    "diffusion.inpaint_s": "diffusion.inpaint",
    "penalties.aggregate_s": "penalties.aggregate",
    "composer.optimize_self_s": "composer.optimize",
    "metrics.evaluate_runs_s": "metrics.evaluate_runs",
    "metrics.penetration_s": "metrics.penetration",
    "motion.write_s": "motion.write",
    "motion.read_s": "motion.read",
    "cli.corpus_s": "cli.corpus",
    "cli.train_s": "cli.train",
    "cli.compose_s": "cli.compose",
    "cli.eval_s": "cli.eval",
    "cli.export_s": "cli.export",
    "corpus.generate_s": "corpus.generate",
    "priors.train_s": "priors.train",
}


def src_lines() -> int:
    n = 0
    for root, _, files in os.walk(SRC):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(root, name), "rb") as f:
                    n += f.read().count(b"\n")
    return n


def layer_metrics(s: dict) -> dict:
    """Per-layer metrics of one traced round, from Tracer.summary()."""
    evals = s["evaluations"]
    per_eval = (lambda v: v / evals) if evals else (lambda v: 0.0)
    opt_total = s["total"].get("composer.optimize", 0.0)
    m = {
        "autodiff.nodes_per_eval": (per_eval(s["eval_nodes"]), "count"),
        "autodiff.const_leaves_per_eval": (per_eval(s["eval_consts"]),
                                           "count"),
        "autodiff.tape_mb_per_eval": (per_eval(s["eval_bytes"]) / 1e6, "MB"),
        "priors.predict_calls": (s["calls"].get("priors.predict", 0),
                                 "count"),
        "composer.evaluations": (evals, "count"),
        "composer.evals_per_s": (evals / opt_total if opt_total else 0.0,
                                 "1/s"),
        "motion.bytes_written": (s["bytes_written"], "B"),
    }
    for name, span in SELF_TIMES.items():
        m[name] = (s["self"].get(span, 0.0), "s")
    return m


def counts(s: dict) -> dict:
    """What must repeat exactly between two traced rounds."""
    return {"calls": s["calls"], "evaluations": s["evaluations"],
            "eval_nodes": s["eval_nodes"], "eval_consts": s["eval_consts"],
            "eval_bytes": s["eval_bytes"],
            "bytes_written": s["bytes_written"]}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "groupmotion", "__init__.py")):
        print(f"bench: no groupmotion sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    out_root = os.path.join(BENCH, "out")
    os.makedirs(out_root, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=out_root)
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, work)
        setup_s = process_age()
        result = measure(wl, workloads.Ops(), args, setup_s)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


def measure(wl, ops, args, setup_s) -> dict:
    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
    walls, cpus, traced_walls, summaries = [], [], [], []
    first, first_fp = None, None
    t_begin = time.perf_counter()
    r = 0
    while True:
        # trace mode: untraced, traced, traced, then alternating
        traced = bool(tracer) and (r in (1, 2) or (r > 2 and r % 2 == 0))
        wl.prepare(r)
        if traced:
            tracer.reset()
            tracer.install()
        c0, t0 = time.process_time(), time.perf_counter()
        out = wl.run_round(ops, r)
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        print(f"bench: round {r}{' traced' if traced else ''}: wall "
              f"{wall:.3f} s, cpu {cpu:.3f} s", file=sys.stderr)
        if traced:
            tracer.uninstall()
            summaries.append(tracer.summary())
            traced_walls.append(wall)
        else:
            walls.append(wall)
            cpus.append(cpu)
        out = wl.finish(r, out)
        fp = wl.fingerprints(out)
        if r == 0:
            first, first_fp = out, fp
        else:
            for key, digest in fp.items():
                if first_fp.get(key) != digest:
                    ops.fail((r, key), "output differs from round 0")
        r += 1
        if time.perf_counter() - t_begin >= args.seconds and \
                (not tracer or len(summaries) >= 2):
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    try:
        failures = wl.check(first) + wl.gradient_check(first)
    except Exception:
        traceback.print_exc(file=sys.stderr)
        failures = [("checks", "checks", "a check raised")]
    for key, check, msg in failures:
        ops.fail((0, key), f"{check}: {msg}")

    if tracer:
        for s in summaries[1:]:
            if counts(s) != counts(summaries[0]):
                ops.fail(("trace", "counts"),
                         "counts differ between traced rounds")
        per_round = [layer_metrics(s) for s in summaries]
        metrics = {name: {"value": statistics.median(m[name][0]
                                                     for m in per_round),
                          "unit": unit}
                   for name, (_, unit) in per_round[0].items()}
        metrics["src.lines"] = {"value": src_lines(), "unit": "count"}
        metrics["trace.overhead_s"] = {
            "value": statistics.median(traced_walls) -
            statistics.median(walls), "unit": "s"}
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "cpu_s": {"value": statistics.median(cpus), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    return {"correct": not ops.failed, "attempted": ops.attempted,
            "failed": len(ops.failed), "metrics": metrics}


if __name__ == "__main__":
    sys.exit(main())
