"""Fixed-work benchmark of dynalg: the deciders, the exact algebra and the
path-space checks.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; dynalg is imported from the checkout's
``src``.  Each run draws a fixed list of operations from the seed (see
workloads.py), runs the whole list in passes from this one process,
checks every output, and prints one JSON object as its last line of
output.  With ``--trace 0`` it reports the end-to-end metrics; with
``--trace 1`` it runs one traced pass and reports per-layer metrics.
Detailed results and the spans go to ``perfbench/out/``.
"""

import time

REFERENCE_S = 200e-6  # time of calibrate()'s loop at the reference machine speed


def calibrate() -> float:
    """Seconds a fixed pure-Python integer loop takes at this moment."""
    started = time.perf_counter()
    s = 0
    for i in range(3000):
        s += i * i % 7
    return time.perf_counter() - started


import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import spans  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"

# Nominal seconds of one pass; an end-to-end run makes round(--seconds /
# this) passes, at least five.
PASS_SECONDS = {"search-found": 4.0, "search-refuted": 4.0, "algebra": 2.0, "path-space": 2.0}
MIN_PASSES = 5
SETUP_REPEATS = 5

SPAN_METRICS = [
    ("conjugacy.decide_partition", "ms"), ("conjugacy.decide_piecewise", "ms"),
    ("conjugacy.decide_conjugate", "ms"), ("quotient.local_signature", "calls"),
    ("dynsys.restrict", "calls"), ("matching.lex_least_injective", "calls"),
    ("conjugacy.verify_partition_witness", "ms"),
    ("semicrossed.sc_multiply", "calls"), ("semicrossed.sc_multiply", "ms"),
    ("semicrossed.apply_hom", "ms"), ("semicrossed.partition_isomorphism", "ms"),
    ("semicrossed.pullback", "calls"), ("quotient.quotient_map", "ms"),
    ("scalars.mul", "calls"), ("scalars.add", "calls"),
    ("freeprod.fp_multiply", "calls"), ("freeprod.fp_multiply", "ms"),
    ("freeprod.voiculescu_lift", "ms"), ("freeprod.ncseries_evaluate", "calls"),
    ("freeprod.frac_linear", "calls"), ("freeprod.lift_dual_check", "ms"),
    ("reps.check_ck_relations", "ms"), ("reps.build_truncated_fock", "ms"),
    ("reps.edge_operator", "calls"), ("reps.decide_tensor_vs_semicrossed", "ms"),
]


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["search-found", "search-refuted", "algebra", "path-space"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be positive")
    return args


def import_program():
    src = ROOT / "src"
    if not (src / "dynalg" / "__init__.py").is_file():
        raise SystemExit(f"dynalg sources not found under {src}")
    sys.path.insert(0, str(src))
    import numpy  # noqa: F401
    import dynalg  # noqa: F401
    import workloads

    return workloads


# A fresh interpreter loads numpy untimed, then times importing dynalg.
IMPORT_PROBE = "import time, numpy; t = time.perf_counter(); import dynalg, dynalg.cli; print(time.perf_counter() - t)"


def import_seconds() -> float:
    """Seconds a fresh interpreter takes to import dynalg, numpy already loaded."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=ROOT, env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, check=True, timeout=120)
    return float(done.stdout)


def speed_scale(samples) -> float:
    """Factor turning seconds measured now into seconds at the reference speed."""
    return REFERENCE_S / statistics.median(samples)


def run_ops(ops, passes, tracer=None):
    """Run the whole list ``passes`` times.

    Returns each operation's times per pass, raw and scaled to the
    reference speed, and the failures as (pass, op index, reason).  A
    calibration loop runs before every operation; each pass's times are
    scaled by that pass's median calibration.  An operation fails when it
    raises, when its first output fails its check, or when a later pass
    gives a different output.
    """
    raw = [[] for _ in ops]
    scaled = [[] for _ in ops]
    first_ok = [False] * len(ops)
    first_digest = [None] * len(ops)
    failures = []
    clock = time.perf_counter
    for p in range(passes):
        calibration = []
        for k, op in enumerate(ops):
            error = None
            if tracer is None:
                calibration.append(calibrate())
                started = clock()
                try:
                    out = op.run()
                except Exception as exc:  # an operation that raises counts as failed
                    error = exc
                raw[k].append(clock() - started)
            else:
                with tracer.op(op.kind):
                    try:
                        out = op.run()
                    except Exception as exc:
                        error = exc
            if error is not None:
                ok = False
            elif p == 0:
                ok = first_ok[k] = bool(op.check(out))
                first_digest[k] = op.digest(out)
            else:
                ok = first_ok[k] and op.digest(out) == first_digest[k]
            if not ok:
                failures.append((p, k, repr(error) if error else "check failed"))
        if tracer is None:
            scale = speed_scale(calibration)
            for k in range(len(ops)):
                scaled[k].append(raw[k][p] * scale)
    return raw, scaled, failures


def geomean_ms(seconds):
    return 1000 * math.exp(statistics.fmean(math.log(t) for t in seconds))


def end_to_end(ops, raw, scaled, setup_s, detail):
    medians = [statistics.median(t) for t in scaled]
    raw_medians = [statistics.median(t) for t in raw]
    kinds = {}
    for op, m in zip(ops, medians):
        entry = kinds.setdefault(op.kind, {"ops": 0, "ms": 0.0})
        entry["ops"] += 1
        entry["ms"] += 1000 * m
    for entry in kinds.values():
        entry["share"] = entry["ms"] / (1000 * sum(medians))
    detail.update(
        kinds=kinds,
        unscaled={"ops_per_s": len(ops) / sum(raw_medians), "op_geomean_ms": geomean_ms(raw_medians)},
        pass_s=[sum(t[p] for t in raw) for p in range(len(raw[0]))],
        ops_ms=[{"kind": op.kind, "label": op.label, "ms": 1000 * m, "unscaled_ms": 1000 * r}
                for op, m, r in zip(ops, medians, raw_medians)],
    )
    return {
        "ops_per_s": {"value": len(ops) / sum(medians), "unit": "ops/s"},
        "op_geomean_ms": {"value": geomean_ms(medians), "unit": "ms"},
        "setup_s": {"value": setup_s, "unit": "s"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MB"},
    }


def per_layer(tracer, wall_s, detail):
    summary = tracer.summary()
    detail["spans"] = summary
    metrics = {}
    for layer in spans.LAYERS:
        value = sum(v["self_ms"] for name, v in summary.items() if name.split(".")[0] == layer)
        metrics[f"{layer}.self_ms"] = {"value": value, "unit": "ms"}
    for span, field in SPAN_METRICS:
        value = summary.get(span, {"calls": 0, "ms": 0.0})[field]
        metrics[f"{span}.{field}"] = {"value": value, "unit": "count" if field == "calls" else "ms"}
    metrics["reps.fock_dim_total"] = {"value": tracer.fock_dim_total, "unit": "count"}
    metrics["reps.dense_operator_mb"] = {"value": tracer.dense_operator_bytes / 2**20, "unit": "MB"}
    metrics["trace.wall_s"] = {"value": wall_s, "unit": "s"}
    metrics["trace.spans"] = {"value": len(tracer.start), "unit": "count"}
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    workloads = import_program()
    os.environ["SEED"] = "7"  # the sampling seed of dynalg's lift command

    # Set-up is repeated and the medians taken: importing dynalg in a fresh
    # interpreter, and building the list (drawing inputs, writing files).
    inputs = OUT / "inputs" / args.workload
    imports, builds = [], []
    for _ in range(SETUP_REPEATS):
        scale = speed_scale([calibrate() for _ in range(9)])
        imports.append(import_seconds() * scale)
        started = time.perf_counter()
        ops = workloads.build(args.workload, args.seed, inputs)
        builds.append((time.perf_counter() - started) * scale)
    setup_s = statistics.median(imports) + statistics.median(builds)

    tracer = None
    passes = max(MIN_PASSES, round(args.seconds / PASS_SECONDS[args.workload]))
    if args.trace:
        tracer = spans.Tracer()
        tracer.install()
        passes = 1

    wall_started = time.perf_counter()
    raw, scaled, failures = run_ops(ops, passes, tracer)
    wall_s = time.perf_counter() - wall_started

    result = {
        "correct": all(ops[k].known_fault for _, k, _ in failures),
        "attempted": len(ops) * passes,
        "failed": len(failures),
    }
    detail = {
        "workload": args.workload, "seed": args.seed, "passes": passes, "operations": len(ops),
        "setup": {"import_s": imports, "build_s": builds},
        "failures": [{"pass": p, "op": k, "kind": ops[k].kind, "label": ops[k].label, "why": why}
                     for p, k, why in failures],
    }
    OUT.mkdir(parents=True, exist_ok=True)
    if tracer is None:
        result["metrics"] = end_to_end(ops, raw, scaled, setup_s, detail)
        out_name = f"{args.workload}-seed{args.seed}.json"
    else:
        result["metrics"] = per_layer(tracer, wall_s, detail)
        out_name = f"{args.workload}-seed{args.seed}-trace.json"
        tracer.save(OUT / f"trace-{args.workload}.npz")
    (OUT / out_name).write_text(json.dumps({**detail, "result": result}, indent=1), encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
