"""flatwall benchmark: closed-loop workloads over the public API and the CLI.

Run from the root of a checkout:

    python3 perfbench/run.py --workload certify --seed 1 --seconds 36 --trace 0

One client in one process and one thread: the next op starts when the
previous one has finished.  An op is one user request including the check
of its answer (see workloads.py).  The run repeats whole passes over the
seeded corpus until --seconds is used up, at least two passes and MIN_OPS
ops are done.

--trace 0 prints the end-to-end metrics; --trace 1 alternates untraced
passes with passes traced at every layer boundary (spans.py) and prints
the per-layer metrics.  The last line of standard output is one JSON
object {"correct", "attempted", "failed", "metrics"}; the line before it is
a summary with the input digest and the undetermined and error ratios.
"""

import argparse
import importlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from time import perf_counter, process_time

import spans as span_trace
import speed

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
MODULES = ("common", "graph", "decomposition", "minors", "planarity", "paths", "generators",
           "wall", "rural", "structure", "serialize", "cli")
MIN_OPS = 100
SETUP_REPEATS = 5


IMPORT_PROBE = """
import importlib, sys, time
sys.path.insert(0, sys.argv[1])
t0 = time.process_time()
for name in sys.argv[2:]:
    importlib.import_module(name)
print(time.process_time() - t0)
"""


def import_flatwall():
    """Import the package from this checkout's src/ into this process."""
    if not os.path.isfile(os.path.join(SRC, "flatwall", "__init__.py")):
        raise SystemExit("perfbench: no flatwall sources under %s" % SRC)
    sys.path.insert(0, SRC)
    pkg = importlib.import_module("flatwall")
    if not os.path.abspath(pkg.__file__).startswith(SRC + os.sep):
        raise SystemExit("perfbench: imported flatwall from %s, not %s" % (pkg.__file__, SRC))


def import_seconds():
    """CPU seconds a fresh interpreter takes to import every flatwall module."""
    names = ["flatwall"] + ["flatwall." + m for m in MODULES]
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE, SRC] + names,
                         capture_output=True, text=True, check=True, timeout=120)
    return float(out.stdout)


def percentile(values, q):
    """Nearest-rank percentile, q in (0, 100]."""
    ordered = sorted(values)
    return ordered[max(0, -(-len(ordered) * q // 100) - 1)]


class Pass:
    """Timings and outcomes of one pass over the corpus.  Times are CPU
    seconds of this process (see end_to_end)."""

    def __init__(self):
        self.latency = []
        self.verify = []       # None where the op had nothing to verify
        self.undetermined = 0
        self.errors = []       # (op index, message)
        self.signatures = []
        self.reference = []    # CPU seconds of the reference run after each op


def run_pass(cases, op, verify_times, reference):
    p = Pass()
    for case in cases:
        t0 = process_time()
        try:
            status, signature, verify_s, verify = op(case)
            p.latency.append(process_time() - t0)
            for _ in range(verify_times - 1 if verify else 0):
                t1 = process_time()
                verify()
                verify_s = min(verify_s, process_time() - t1)
        except Exception as e:  # an op that raises is a failed op; the run goes on
            status, signature, verify_s = "error", "%s: %s" % (type(e).__name__, e), None
            if len(p.latency) == len(p.signatures):
                p.latency.append(process_time() - t0)
        p.signatures.append(signature)
        if status == "error":
            p.errors.append((len(p.signatures) - 1, signature))
        elif status == "undetermined":
            p.undetermined += 1
        p.verify.append(verify_s)
        p.reference.append(reference())
    return p


def setup(build, seed, workdir, tiny, reference):
    """Import in a fresh interpreter, then build the corpus; SETUP_REPEATS
    times (once when tiny), each followed by a reference run.  Returns the
    cases, their digest and the median import time plus the median build
    time, at reference speed."""
    imports, builds, speeds = [], [], []
    for _ in range(1 if tiny else SETUP_REPEATS):
        imports.append(import_seconds())
        t0 = process_time()
        cases, digest = build(seed, workdir, tiny)
        builds.append(process_time() - t0)
        speeds.append(reference())
    cpu = statistics.median(imports) + statistics.median(builds)
    return cases, digest, cpu * speed.REFERENCE_S / statistics.median(speeds)


def measure(cases, op, verify_times, reference, seconds, min_ops, traced):
    """Whole passes until the time is used up, and at least two (so that
    every answer is seen to repeat) holding at least min_ops ops; with
    traced, every other pass runs under a fresh Tracer and times each verify
    step once, so that the layers see each op once.  Returns (untraced
    passes, [(pass, tracer)])."""
    plain, spans = [], []
    start = perf_counter()
    while True:
        if traced and len(plain) > len(spans):
            tracer = span_trace.Tracer()
            with tracer:
                spans.append((run_pass(cases, op, 1, reference), tracer))
        else:
            plain.append(run_pass(cases, op, verify_times, reference))
        done = len(plain) + len(spans)
        elapsed = perf_counter() - start
        ops = done * len(cases)
        if done >= 2 and ops >= min_ops and elapsed + elapsed / done > seconds:
            return plain, spans


def failures(passes, spans):
    """Failed ops: raised, failed a check, or answered otherwise than in the
    first pass; a traced pass whose layer counts differ from the first
    traced pass fails as a whole.  Returns (count, first messages)."""
    first = passes[0].signatures
    failed, messages = 0, []
    for p in passes:
        bad = {i for i, _ in p.errors}
        bad.update(i for i, (a, b) in enumerate(zip(p.signatures, first)) if a != b)
        failed += len(bad)
        messages.extend(m for _, m in p.errors)
    counts = [layer_counts(t) for _, t in spans]
    for (p, _), c in zip(spans[1:], counts[1:]):
        if c != counts[0]:
            failed += len(p.latency) - len({i for i, _ in p.errors})
            messages.append("layer counts differ between traced passes")
    return failed, messages


def throughput(passes):
    """Ops per second of their latencies at reference speed."""
    latency = [x for p in passes for x in speed.at_reference_speed(p.latency, p.reference)]
    return len(latency) / sum(latency)


def end_to_end(plain, setup_s):
    """Over every op of the untraced passes, in CPU time at reference speed
    (speed.py).  An op runs in this process on one thread and waits for
    nothing but the CPU, so its CPU time is its latency less the time the
    shared host gave our CPU to something else."""
    latency, verify = [], []
    for p in plain:
        latency += speed.at_reference_speed(p.latency, p.reference)
        verify += speed.at_reference_speed(p.verify, p.reference)
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (throughput(plain), "1/s"),
        "op_p50_ms": (1000 * percentile(latency, 50), "ms"),
        "op_p90_ms": (1000 * percentile(latency, 90), "ms"),
        "verify_p50_ms": (1000 * percentile(verify, 50), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def per_layer(plain, spans):
    first = spans[0][1].layers
    per_pass = {name: sum(t.layers[name].self_s for _, t in spans) / len(spans)
                for name in first}
    metrics = {}

    def count(name, field, value):
        metrics["%s.%s" % (name, field)] = (value, "count")

    for name in ("minors.find_minor", "decomposition.exact_treewidth", "wall.is_flat",
                 "paths.two_disjoint_paths", "paths.max_vertex_disjoint_paths",
                 "planarity.is_planar"):
        count(name, "calls", first[name].calls)
    for name in first:
        metrics[name + ".self_s"] = (per_pass[name], "s")
    fm = first["minors.find_minor"]
    metrics["minors.find_minor.found_ratio"] = (fm.hits / fm.calls if fm.calls else 0.0, "ratio")
    emb = first["minors.iter_topological_embeddings"]
    count("minors.iter_topological_embeddings", "yielded", emb.work)
    hits = first["structure.trichotomy_check"].hits
    metrics["structure.wall_candidate_hit_ratio"] = (hits / emb.work if emb.work else 0.0,
                                                     "ratio")
    count("decomposition.exact_treewidth", "dp_space", first["decomposition.exact_treewidth"].work)
    count("paths.two_disjoint_paths", "explored", first["paths.two_disjoint_paths"].work)
    untraced = throughput(plain)
    traced = throughput([p for p, _ in spans])
    metrics["trace.overhead_ops_per_s"] = (traced - untraced, "1/s")
    metrics["trace.overhead_share"] = (1.0 - traced / untraced, "ratio")
    return metrics


def layer_counts(tracer):
    return {name: layer.counts() for name, layer in sorted(tracer.layers.items())}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=["certify", "search", "flat-verify"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="small corpora, for the self-test")
    args = ap.parse_args(argv)

    import_flatwall()
    workloads = importlib.import_module("workloads")
    build, op, verify_times = workloads.WORKLOADS[args.workload]
    os.makedirs(os.path.join(HERE, "_work"), exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="%s-%d-" % (args.workload, args.seed),
                               dir=os.path.join(HERE, "_work"))
    try:
        reference = speed.Reference()
        cases, digest, setup_s = setup(build, args.seed, workdir, args.tiny, reference)
        plain, spans = measure(cases, op, verify_times, reference, args.seconds,
                               1 if args.tiny else MIN_OPS, bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    passes = plain + [p for p, _ in spans]
    attempted = sum(len(p.latency) for p in passes)
    failed, errors = failures(passes, spans)
    undetermined = sum(p.undetermined for p in passes)
    metrics = per_layer(plain, spans) if args.trace else end_to_end(plain, setup_s)
    summary = {"workload": args.workload, "seed": args.seed, "inputs_sha256": digest,
               "ops_per_pass": len(cases), "passes": len(plain), "traced_passes": len(spans),
               "undetermined_ratio": undetermined / attempted,
               "error_ratio": failed / attempted, "errors": sorted(set(errors))[:5],
               "cpu_ops_per_s": sum(len(p.latency) for p in plain)
               / sum(sum(p.latency) for p in plain),
               "reference_ms": 1000 * statistics.median(x for p in plain for x in p.reference)}
    print("summary " + json.dumps(summary, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
