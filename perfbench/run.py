"""segbert benchmark: one workload per process, closed loop, jobs=1.

    python3 perfbench/run.py --workload mutag-pp --seed 1 --seconds 24 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 24 --trace 0
    python3 perfbench/run.py --smoke

Run from the repository root. The workload's synthetic TU set is
generated from the seed in a child process and written under
``.perfbench_work/``. After one unmeasured warm-up pass the benchmark
repeats passes of the workload for ``--seconds`` seconds and prints a
report followed by one JSON line with ``correct``, ``attempted``,
``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics named in BENCHMARK.json,
measured with only phase-level wrappers installed. ``--trace 1``
alternates untraced passes with passes traced at every layer and op,
and reports the per-layer metrics plus the tracing overhead.
``--workload all`` runs the four workloads one after another, each in
a fresh process. ``--smoke`` runs every workload at a tiny size in both
modes and checks that each metric BENCHMARK.json names is reported
with its unit; it is a schema check, not a timing gate.
"""

from __future__ import annotations

import os

# one BLAS thread, set before numpy loads so OpenBLAS starts with it
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
WORKLOADS = ("mutag-pp", "proteins-seg", "collab-dense", "gradcheck")
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
# Measured passes per run, at least. The first pass of a process is a
# warm-up and is not measured: it also grows the heap to its peak (page
# faults, ~15 % slower on proteins-seg).
MIN_PASSES = 2


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


# ----------------------------------------------------------------------
# environment


def _blas_threads() -> str:
    """Thread count reported by the OpenBLAS numpy loaded, if found."""
    import ctypes
    import glob

    import numpy as np

    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return str(fn())
    return "unknown (env " + os.environ["OPENBLAS_NUM_THREADS"] + ")"


def environment(seed: int) -> dict:
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy before 1.25 prints instead
        blas = {}
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
            "blas_threads": _blas_threads(), "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "machine": platform.machine(), "seed": seed}


# ----------------------------------------------------------------------
# measurement


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def _tail(samples) -> tuple:
    """Highest listed percentile with at least ten samples beyond it."""
    for pct in TAIL_PERCENTILES:
        if len(samples) * (1.0 - pct / 100.0) >= 10.0:
            cut = statistics.quantiles(samples, n=1000, method="inclusive")
            return pct, float(cut[int(round(pct * 10)) - 1])
    return 0.0, 0.0


def _rate(passes, phases) -> float:
    """Graphs per model second in ``phases``, over all passes."""
    seconds = sum(p.seconds.get(ph, 0.0) for p in passes for ph in phases)
    graphs = sum(p.graphs.get(ph, 0) for p in passes for ph in phases)
    return graphs / seconds if seconds > 0.0 else 0.0


def _one_pass(workload, tracer):
    # the tape's reference cycles from the previous pass are freed
    # before, not during, this one
    gc.collect()
    start = time.perf_counter()
    with tracer:
        result = workload.run_pass(tracer)
    return time.perf_counter() - start, result


def measure(workload, seconds: float, traced: bool) -> dict:
    from spans import Tracer

    setup_samples = []
    start = time.perf_counter()
    for _ in range(workload.setup_reps if not traced else min(1, workload.setup_reps)):
        gc.collect()
        t0 = time.perf_counter()
        workload.setup()
        setup_samples.append(time.perf_counter() - t0)
    warm_up = _one_pass(workload, Tracer())
    plain, traced_runs = [], []
    while True:
        wall, result = _one_pass(workload, Tracer())
        plain.append((wall, result))
        if traced:
            tracer = Tracer(fine=True, ops=True)
            wall, result = _one_pass(workload, tracer)
            traced_runs.append((wall, result, tracer))
        enough = traced or len(plain) >= MIN_PASSES
        if enough and time.perf_counter() - start >= seconds:
            break
    setup_samples += [r.setup_s for _w, r in plain if r.setup_s is not None]
    return {"setup": setup_samples, "warm_up": warm_up, "plain": plain,
            "traced": traced_runs}


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(m: dict) -> dict:
    passes = [r for _w, r in m["plain"]]
    return {
        "setup_s": (_median(m["setup"]), "s"),
        "run_s": (statistics.fmean([w for w, _r in m["plain"]]), "s"),
        "graphs_per_s": (_rate(passes, ("train", "eval", "pretrain", "gradcheck")),
                         "1/s"),
    }


def phase_report(m: dict) -> dict:
    """The per-phase figures each workload has, for the text report."""
    passes = [r for _w, r in m["plain"]]
    out = {}
    for metric, phase in (("train_graphs_per_s", "train"),
                          ("eval_graphs_per_s", "eval"),
                          ("pretrain_graphs_per_s", "pretrain"),
                          ("gradcheck_evals_per_s", "gradcheck")):
        if any(phase in p.graphs for p in passes):
            out[metric] = (_rate(passes, (phase,)), "1/s")
    accs = [p.test_acc for p in passes if p.test_acc is not None]
    if accs:
        out["test_acc"] = (_median(accs), "fraction")
    return out


def per_layer(m: dict) -> dict:
    from spans import TAPE_OPS

    runs = m["traced"]
    n = len(runs)
    incl, self_s, calls, counts = {}, {}, {}, {}
    ops = {op: [0, 0.0, 0.0, 0] for op in TAPE_OPS}
    steps = []
    for _wall, _result, tr in runs:
        i, s, c = tr.totals()
        for src, dst in ((i, incl), (s, self_s), (c, calls), (tr.counts, counts)):
            for key, value in src.items():
                dst[key] = dst.get(key, 0) + value
        for op, st in tr.op_stats.items():
            ops[op] = [a + b for a, b in zip(ops[op], st)]
        steps += tr.step_ms

    def get(d, *names):
        return sum(d.get(x, 0) for x in names) / n

    def ratio(a, b):
        return a / b if b else 0.0

    slots = counts.get("slots", 0)
    backward_calls = counts.get("backward_calls", 0)
    encodes = counts.get("gradcheck_encodes", 0)
    tail_pct, tail_ms = _tail(steps)
    out = {
        "dataset.load_s": (get(incl, "load_tu_dataset"), "s"),
        "dataset.arcs": (get(counts, "arcs"), "count"),
        "features.wl_s": (get(incl, "dataset_wl_codes"), "s"),
        "features.bundles_s": (get(self_s, "dataset_bundles", "build_bundles"), "s"),
        "features.nodes": (get(counts, "wl_nodes"), "count"),
        "unify.s": (get(incl, "unify"), "s"),
        "unify.slots": (get(counts, "slots"), "count"),
        "unify.real_slot_fraction": (ratio(counts.get("real_slots", 0), slots),
                                     "fraction"),
        "model.prepare_s": (get(self_s, "prepare_dataset", "prepare_graph"), "s"),
        "model.build_batch_s": (get(incl, "build_batch"), "s"),
        "model.embed_s": (get(incl, "initial_embedding"), "s"),
        "model.layer_s": (get(incl, "transformer_layer"), "s"),
        "model.head_s": (get(self_s, "classify_batch")
                         + get(incl, "reconstruct_attributes", "recover_structure"),
                         "s"),
        "autodiff.ops_per_step": (ratio(counts.get("step_ops", 0), backward_calls),
                                  "count"),
        "autodiff.bytes_per_step": (ratio(counts.get("step_bytes", 0), backward_calls),
                                    "B"),
        "autodiff.backward_s": (get(incl, "Tape.backward"), "s"),
        "autodiff.adam_s": (get(incl, "adam_step"), "s"),
        "autodiff.clip_s": (get(incl, "clip_global_norm"), "s"),
    }
    for op, (n_calls, fwd, bwd, _bytes) in ops.items():
        out[f"autodiff.op.{op}.calls"] = (n_calls / n, "count")
        out[f"autodiff.op.{op}.fwd_s"] = (fwd / n, "s")
        out[f"autodiff.op.{op}.bwd_s"] = (bwd / n, "s")
    out.update({
        "training.step_ms": (_median(steps), "ms"),
        "training.step_ms.tail": (tail_ms, "ms"),
        "training.step_ms.tail_pct": (tail_pct, "%"),
        "training.step_ms.samples": (len(steps) / n, "count"),
        "training.eval_s": (get(incl, "evaluate_accuracy"), "s"),
        "training.pretrain_loss_s": (get(incl, "pretrain_batch_loss"), "s"),
        "training.graph_steps": (get(counts, "graph_steps"), "count"),
        "training.fold_s": (ratio(incl.get("finetune_fold", 0.0),
                                  calls.get("finetune_fold", 0)), "s"),
        "gradcheck.loss_evals": ((encodes - counts.get("gradcheck_backwards", 0)) / n,
                                 "count"),
        "gradcheck.ops_per_eval": (ratio(sum(v[0] for v in ops.values()), encodes),
                                   "count"),
        "memory.peak_rss_mb": (_peak_rss_mb(), "MB"),
        "trace.overhead_s": (_median([w for w, _r, _t in runs])
                             - _median([w for w, _r in m["plain"]]), "s"),
    })
    return out


# ----------------------------------------------------------------------
# one workload


def _generate(workload: str, seed: int, tiny: bool, directory: str) -> None:
    cmd = [sys.executable, os.path.join(HERE, "synth.py"), workload,
           str(seed), directory] + (["--tiny"] if tiny else [])
    subprocess.run(cmd, check=True, cwd=ROOT)


def run_workload(name: str, seed: int, seconds: float, traced: bool,
                 tiny: bool) -> int:
    import workloads

    directory = os.path.join(WORK, f"{name}-{seed}-{os.getpid()}")
    try:
        if name != "gradcheck":
            _generate(name, seed, tiny, directory)
        workload = workloads.make(name, directory, seed, tiny)
        m = measure(workload, seconds, traced)
    finally:
        shutil.rmtree(directory, ignore_errors=True)
        try:
            os.rmdir(WORK)
        except OSError:  # another run's set is still there
            pass

    results = ([m["warm_up"][1]] + [r for _w, r in m["plain"]]
               + [r for _w, r, _t in m["traced"]])
    print(f"# segbert benchmark: workload {name}, seed {seed}, "
          f"{seconds:g} s, trace {int(traced)}, {len(m['plain'])} untraced "
          f"and {len(m['traced'])} traced passes, {len(m['setup'])} set-ups")
    print("env " + json.dumps(environment(seed)))
    print("shape " + json.dumps(workload.shape))
    print("passes_s " + json.dumps([round(w, 4) for w, _r in m["plain"]])
          + f" after a {m['warm_up'][0]:.4f} s warm-up pass")
    print("setups_s " + json.dumps([round(s, 4) for s in m["setup"]]))

    correct = True
    digests = sorted({r.digest for r in results})
    for label, ok, detail in _dedupe_checks(results):
        correct &= ok
        line = f"check {'ok  ' if ok else 'FAIL'} {label}" + (f" ({detail})" if detail else "")
        print(line)
        if not ok:
            print(line, file=sys.stderr)
    attempted = sum(r.attempted for r in results) + 1
    failed = sum(r.failed for r in results)
    same = len(digests) == 1
    print(f"check {'ok  ' if same else 'FAIL'} digest equal across {len(results)} passes "
          f"({', '.join(digests)})")
    if not same:
        print(f"check FAIL digest differs across passes: {digests}", file=sys.stderr)
        failed += 1
        correct = False

    e2e = end_to_end(m)
    shown = dict(e2e)
    shown.update(phase_report(m))
    shown["peak_rss_mb"] = (_peak_rss_mb(), "MB")
    shown["failed_fraction"] = (failed / attempted, "ratio")
    for key, (value, unit) in shown.items():
        print(f"{key} {value:.6g} {unit}")
    computed = e2e
    if traced:
        computed = per_layer(m)
        for key, (value, unit) in computed.items():
            print(f"{key} {value:.6g} {unit}")
    # the result line holds exactly the metrics BENCHMARK.json names
    names = [x["name"] for x in _spec()["per_layer" if traced else "end_to_end"]]
    metrics = {name: computed[name] for name in names}
    print(json.dumps({
        "correct": bool(correct), "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def _dedupe_checks(results):
    """One line per check name; a check fails if any pass failed it."""
    merged: dict = {}
    for r in results:
        for label, ok, detail in r.checks:
            prev = merged.get(label)
            if prev is None or (prev[0] and not ok):
                merged[label] = (ok, detail)
    return [(label, ok, detail) for label, (ok, detail) in merged.items()]


# ----------------------------------------------------------------------
# several workloads, each in a fresh process


def run_children(names, seed: int, seconds: float, traces, tiny: bool) -> list:
    out = []
    for name in names:
        for trace in traces:
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
                   "--seed", str(seed), "--seconds", str(seconds),
                   "--trace", str(trace)] + (["--tiny"] if tiny else [])
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
            sys.stdout.write(proc.stdout)
            if proc.returncode != 0:
                raise SystemExit(f"{name} trace {trace} exited with {proc.returncode}")
            out.append((name, trace, json.loads(proc.stdout.strip().splitlines()[-1])))
    return out


def smoke() -> int:
    spec = _spec()
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    for name, trace, result in run_children(WORKLOADS, 0, 1, (0, 1), tiny=True):
        got = result["metrics"]
        if set(got) != set(expected[trace]):
            problems.append(f"{name} trace {trace}: missing "
                            f"{sorted(set(expected[trace]) - set(got))}, extra "
                            f"{sorted(set(got) - set(expected[trace]))}")
        for metric, unit in expected[trace].items():
            entry = got.get(metric)
            if entry is not None and (entry["unit"] != unit
                                      or not isinstance(entry["value"], (int, float))):
                problems.append(f"{name} trace {trace}: {metric} is {entry}, want unit {unit}")
        if not result["correct"] or result["failed"] or result["attempted"] < 1:
            problems.append(f"{name} trace {trace}: correct={result['correct']} "
                            f"failed={result['failed']} attempted={result['attempted']}")
    for p in problems:
        print("smoke FAIL " + p, file=sys.stderr)
    print(json.dumps({"smoke": "fail" if problems else "ok", "problems": problems}))
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny inputs, for the smoke check")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "segbert", "__init__.py")):
        print(f"perfbench: no segbert sources under {SRC}; run from a "
              f"checkout of the repository", file=sys.stderr)
        return 2
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required")
    if args.workload == "all":
        results = run_children(WORKLOADS, args.seed, args.seconds, (args.trace,),
                               args.tiny)
        print(json.dumps({
            "correct": all(r["correct"] for _n, _t, r in results),
            "attempted": sum(r["attempted"] for _n, _t, r in results),
            "failed": sum(r["failed"] for _n, _t, r in results),
            "metrics": {f"{n}.{k}": v for n, _t, r in results
                        for k, v in r["metrics"].items()},
        }))
        return 0
    sys.path[:0] = [SRC, HERE]
    try:
        return run_workload(args.workload, args.seed, args.seconds,
                            bool(args.trace), args.tiny)
    except Exception:
        traceback.print_exc()
        return 1


if __name__ == "__main__":
    sys.exit(main())
