"""Offline benchmark for nft_ood: four workloads on seeded synthetic data.

    python3 perfbench/run.py --workload <name> [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root; the library is imported from ./src. The last
line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`. With --trace 0 the metrics are the
end-to-end metrics of BENCHMARK.json, with --trace 1 its per-layer metrics.
Lines before it give the environment, the input sizes and every named metric
with its unit and direction. The exit code is 0 only when every check passed.
See perfbench/README.md for the workloads and metrics.
"""

import argparse
import glob
import json
import os
import platform
import resource
import shutil
import sys
import time
from statistics import median

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
# Set-up repeats: at least SETUP_MIN, then more until SETUP_SECONDS are spent.
SETUP_MIN, SETUP_MAX, SETUP_SECONDS = 3, 25, 1.0


def _load_json(path):
    with open(path) as f:
        return json.load(f)


def _cap_blas_threads(nproc):
    """Never let BLAS use more threads than the CPUs this process may run on."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        try:
            want = int(os.environ.get(var, nproc))
        except ValueError:
            want = nproc
        os.environ[var] = str(max(1, min(want, nproc)))
    # the library's optional scoring thread pool stays at its default of one
    os.environ.pop("NFT_OOD_THREADS", None)


def _blas_info(np):
    """BLAS name, version and the thread count in effect, as numpy reports them."""
    blas = np.show_config(mode="dicts")["Build Dependencies"].get("blas", {})
    info = {"name": blas.get("name"), "version": blas.get("version"), "threads": None}
    import ctypes

    libdir = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads"] = int(fn())
                return info
    info["threads"] = int(os.environ["OPENBLAS_NUM_THREADS"])
    info["threads_source"] = "OPENBLAS_NUM_THREADS"
    return info


def _git_commit():
    """HEAD commit read from .git, or None outside a git checkout."""
    head = os.path.join(ROOT, ".git", "HEAD")
    if not os.path.isfile(head):
        return None
    with open(head) as f:
        ref = f.read().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = os.path.join(ROOT, ".git", ref)
    if os.path.isfile(loose):
        with open(loose) as f:
            return f.read().strip()
    packed = os.path.join(ROOT, ".git", "packed-refs")
    if os.path.isfile(packed):
        with open(packed) as f:
            for line in f:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    return None


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_setup(h, wl, seed, workdir, tracer):
    """Set up several times; a traced run traces one more, untimed, set-up."""
    times = []
    while len(times) < SETUP_MIN or (sum(times) < SETUP_SECONDS and len(times) < SETUP_MAX):
        ctx = None  # drop the previous inputs first, so peak memory holds one copy
        t0 = time.perf_counter()
        ctx = wl.setup(h, seed, workdir)
        times.append(time.perf_counter() - t0)
    if tracer is not None:
        h.tracer = tracer
        with h.phase("setup", "setup"):
            ctx = wl.setup(h, seed, workdir)
        h.tracer = None
    return ctx, times


def run_phase(h, wl, ctx, seconds, tracer, first, recorded):
    """Closed loop of iterations until the next one would overrun `seconds`.

    Outputs are checked between iterations, outside the timed region. Returns
    the iteration wall times and the first iteration's output.
    """
    from workloads import equal

    h.tracer = tracer
    h.timings = {}
    walls = []
    start = time.perf_counter()
    while True:
        with h.phase("iteration", len(walls)):
            t0 = time.perf_counter()
            out = wl.iteration(h, ctx)
            walls.append(time.perf_counter() - t0)
        h.tracer = None
        if first is None:
            first = out
            wl.verify(h, ctx, first, recorded)
        else:
            h.check(wl.layer, equal(wl.same(out), wl.same(first)),
                    "iteration output differs from the first iteration")
        del out
        h.tracer = tracer
        if time.perf_counter() - start + walls[-1] > seconds:
            break
    h.tracer = None
    return walls, first


def per_layer_metrics(spec, spans, n_iter, h, overhead_s):
    """Every per-layer metric of BENCHMARK.json from the recorded spans."""
    from harness import aggregate, tail

    def weight(rec):
        return 1.0 / n_iter if isinstance(rec["iteration"], int) else 1.0

    by_name, layer_self = aggregate(spans, weight)
    out = {}
    for m in spec:
        name = m["name"]
        base, _, field = name.rpartition(".")
        agg = by_name.get(base, {})
        if name == "trace_overhead_s":
            value = overhead_s
        elif field == "failed":
            value = h.layer_failed.get(base, 0) if "." not in base else h.op_failed.get(base, 0)
        elif field == "self_s":
            value = layer_self.get(base, 0.0)
        elif field in ("p50_ms", "tail_ms"):
            durs = [1e3 * d for d in agg.get("durations", [])]
            if field == "p50_ms":
                value = median(durs) if durs else 0.0
            else:
                t = tail(durs)
                value = t[0] if t else 0.0
        else:
            value = agg.get(field, 0.0)
        out[name] = {"value": value, "unit": m["unit"]}
    return out


def main(argv=None):
    bench = _load_json(os.path.join(ROOT, "BENCHMARK.json"))
    refs = _load_json(os.path.join(HERE, "reference.json"))
    names = [w["name"] for w in bench["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=names)
    p.add_argument("--seed", type=int, default=refs["default_seed"],
                   help="workload seed (default %(default)s; recorded values are "
                        "checked only on the default)")
    p.add_argument("--seconds", type=float, default=bench["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")

    if not os.path.isfile(os.path.join(SRC, "nft_ood", "__init__.py")):
        print(f"error: no nft_ood sources under {SRC}", file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0))
    _cap_blas_threads(nproc)
    sys.path.insert(0, SRC)
    import numpy as np

    import nft_ood

    if os.path.dirname(os.path.abspath(nft_ood.__file__)) != os.path.join(SRC, "nft_ood"):
        print(f"error: nft_ood imported from {nft_ood.__file__}, not {SRC}", file=sys.stderr)
        return 2

    from harness import CheckFailed, Harness, Tracer
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload]
    blas = _blas_info(np)
    env = {
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "git_commit": _git_commit(),
        "seed": args.seed,
        "default_seed": refs["default_seed"],
        "seconds": args.seconds,
        "trace": args.trace,
        "workload": wl.name,
        "sizes": wl.sizes(),
    }
    recorded = refs["recorded"].get(wl.name) if args.seed == refs["default_seed"] else None

    os.makedirs(OUT, exist_ok=True)
    workdir = os.path.join(OUT, f"work-{wl.name}-{os.getpid()}")
    os.makedirs(workdir)
    h = Harness()
    h.check("bench", blas["threads"] is not None and blas["threads"] <= nproc,
            f"BLAS uses {blas['threads']} threads on {nproc} CPUs")
    tracer = Tracer() if args.trace else None
    result = {"env": env}
    try:
        ctx, setup_times = run_setup(h, wl, args.seed, workdir, tracer)
        walls, first = run_phase(h, wl, ctx, args.seconds, None, None, recorded)
        named, items_per_s = wl.metrics(h, ctx, walls, first)
        end_to_end = {
            "setup_s": {"value": median(setup_times), "unit": "s", "better": "lower",
                        "repeats": len(setup_times), "samples": setup_times},
            "wall_s": {"value": median(walls), "unit": "s", "better": "lower",
                       "iterations": len(walls), "samples": walls},
            "items_per_s": {"value": items_per_s, "unit": "1/s", "better": "higher"},
            "peak_rss_mb": {"value": _peak_rss_mb(), "unit": "MB", "better": "lower"},
        }
        result["untraced"] = {"end_to_end": end_to_end, "named": named,
                              "op_median_s": {k: median(v) for k, v in h.timings.items()}}
        if args.trace:
            t_walls, _ = run_phase(h, wl, ctx, args.seconds, tracer, first, recorded)
            h.tracer = tracer
            with h.phase("decompose", "decompose"):
                wl.decompose(h, ctx, first)
            h.tracer = None
            overhead = median(t_walls) - median(walls)
            result["traced"] = {"wall_s": median(t_walls), "iterations": len(t_walls),
                                "trace_overhead_s": overhead, "spans": len(tracer.spans)}
    except CheckFailed:
        pass  # already counted; report what was measured and fail below
    except Exception as e:  # a library error ends the run; report it as a failure
        if h.failed == 0:
            h.check("bench", False, f"{type(e).__name__}: {e}")
        else:
            h.messages.append(f"{type(e).__name__}: {e}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    correct = h.failed == 0 and "untraced" in result
    result.update(attempted=h.attempted, failed=h.failed,
                  failed_ratio=h.failed / max(1, h.attempted), messages=h.messages)
    tag = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    metrics = {}
    if args.trace:
        tracer.write(os.path.join(OUT, f"spans-{tag}.jsonl"))
        if "traced" in result:
            metrics = per_layer_metrics(bench["per_layer"], tracer.spans,
                                        result["traced"]["iterations"], h,
                                        result["traced"]["trace_overhead_s"])
            result["per_layer"] = metrics
    elif "untraced" in result:
        metrics = {m["name"]: {"value": result["untraced"]["end_to_end"][m["name"]]["value"],
                               "unit": m["unit"]} for m in bench["end_to_end"]}
    with open(os.path.join(OUT, f"result-{tag}.json"), "w") as f:
        json.dump(result, f, indent=2, sort_keys=True, default=float)
        f.write("\n")

    _print_report(result, bench)
    for msg in h.messages:
        print(f"check failed: {msg}", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": h.attempted, "failed": h.failed,
                      "metrics": metrics}, sort_keys=True))
    return 0 if correct else 1


def _print_report(result, bench):
    env = result["env"]
    print(f"workload {env['workload']} seed {env['seed']} seconds {env['seconds']} "
          f"trace {env['trace']}")
    print(f"env: nproc={env['nproc']} python={env['python']} numpy={env['numpy']} "
          f"blas={env['blas']['name']} {env['blas']['version']} "
          f"blas_threads={env['blas']['threads']} commit={env['git_commit']}")
    print("sizes: " + json.dumps(env["sizes"], sort_keys=True))
    rows = []
    untraced = result.get("untraced")
    if untraced:
        for name, m in list(untraced["end_to_end"].items()) + list(untraced["named"].items()):
            extra = {k: v for k, v in m.items()
                     if k not in ("value", "unit", "better", "samples")}
            rows.append((name, m["value"], m["unit"], m["better"],
                         " ".join(f"{k}={v}" for k, v in extra.items())))
    rows.append(("failed_ratio", result["failed_ratio"], "1", "lower",
                 f"failed={result['failed']} attempted={result['attempted']}"))
    for name, value, unit, better, extra in rows:
        arrow = "higher is better" if better == "higher" else "lower is better"
        print(f"  {name:<26} {value:>16.6g} {unit:<6} {arrow:<16} {extra}")
    if "traced" in result:
        t = result["traced"]
        print(f"traced: wall_s={t['wall_s']:.6g} iterations={t['iterations']} "
              f"spans={t['spans']} trace_overhead_s={t['trace_overhead_s']:.6g}")
        for m in bench["per_layer"]:
            v = result["per_layer"][m["name"]]["value"]
            if v:
                print(f"  {m['name']:<40} {v:>14.6g} {m['unit']}")


if __name__ == "__main__":
    sys.exit(main())
