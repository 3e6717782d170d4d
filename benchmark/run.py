#!/usr/bin/env python3
"""The repository benchmark: CHARISMA workloads end to end and layer by layer.

Run from the repository root:

    python3 benchmark/run.py --workload nas_synthetic --seed 1 --seconds 20 --trace 0
    python3 benchmark/run.py --self-test
    python3 benchmark/run.py --compare A.json B.json
    python3 benchmark/run.py --record-pins

A measuring run builds benchmark/ (the simulator libraries plus the
charisma_bench driver) with CMake, runs one small untimed warm-up
repetition, then runs charisma_bench once per repetition, each in a fresh
process, one input seed after another (the sequence starts at a position
derived from --seed) until --seconds have passed.  Metrics are medians over
the repetitions; --trace 1 interleaves untraced and traced repetitions and
reports the per-layer metrics instead.  The last stdout line is one JSON
object: correct, attempted, failed, metrics.  A longer record with the host
fingerprint and every repetition goes to <build dir>/results/.  See
benchmark/README.md.
"""

import argparse
import itertools
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent

# Per workload: studies per repetition and the input table (inputs.json)
# its seeds come from; pins.json holds every table seed's trace digest.  At
# scale 0.2 one synthetic seed's trace is about +-25 % the size of
# another's, so the synthetic table keeps only seeds whose traced ops, block
# count and total ops sit near fixed targets: every input is the same size
# and a run's median moves only with the program and the host.  A run measures
# several inputs, one per repetition.
WORKLOADS = {
    "nas_synthetic": (1, "synthetic@0.2"),
    "checkpoint_write": (1, "checkpoint@0.2"),
    "campaign_seeds": (4, "synthetic@0.2"),
}

# Input-table positions between the first inputs of runs with consecutive
# seeds, so that such runs start on different inputs.
SEED_STRIDE = 16

# Repetitions an untraced run makes at least, however short --seconds is.
MIN_REPS = 3

# The warm-up repetition runs the run's first input at this scale, unpinned.
WARMUP_SCALE = 0.05

# The traced nas_synthetic run adds a repetition of each input on the
# charisma_bench workload nas_spill_disk (memory-tier budget 0, so every
# trace block and replay-op chunk goes to the disk tier); these metrics come
# from those repetitions, because with the default budget they are zero.
SPILL_WORKLOAD = "nas_spill_disk"
SPILL_LAYERS = {
    "trace.spill_write_ms", "trace.spill_read_ms", "trace.append_stall_ms",
    "trace.spill_bytes_written", "trace.spill_bytes_read",
    "trace.mem_block_frac",
}

END_TO_END = [
    ("setup_s", "s"),
    ("time_to_results_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
]

# Per-layer metrics, in the order charisma_bench reports them, plus the
# tracing overhead this script measures.
PER_LAYER = [
    ("sim.events", "count"), ("sim.ns_per_event", "ns"),
    ("workload.ops", "count"), ("workload.next_ns", "ns"),
    ("workload.setup_ms", "ms"), ("ipsc.build_ms", "ms"),
    ("cfs.plan_ns", "ns"), ("cfs.blocks_per_request", "count"),
    ("net.route_ns", "ns"), ("net.collector_messages", "count"),
    ("disk.submit_ns", "ns"),
    ("trace.records", "count"), ("trace.bytes", "B"),
    ("trace.sink_ns_per_record", "ns"), ("trace.digest_ms", "ms"),
    ("trace.spill_write_ms", "ms"), ("trace.spill_read_ms", "ms"),
    ("trace.append_stall_ms", "ms"), ("trace.spill_bytes_written", "B"),
    ("trace.spill_bytes_read", "B"), ("trace.mem_block_frac", "ratio"),
    ("analysis.sessions", "count"), ("analysis.figures_ms", "ms"),
    ("analysis.fidelity_ms", "ms"), ("analysis.fidelity_pass_frac", "ratio"),
    ("cache.replay_ops", "count"), ("cache.block_accesses", "count"),
    ("cache.passes", "count"), ("cache.sweep_ms", "ms"),
    ("cache.pass_ms_max", "ms"), ("cache.pass_ms_mean", "ms"),
    ("cache.pass_imbalance", "ratio"), ("cache.ns_per_block_access", "ns"),
    ("cache.block_cache_access_ns", "ns"), ("cache.lru_stack_ns", "ns"),
    ("cache.decode_ns_per_op", "ns"),
    ("util.pool_busy_frac", "ratio"),
    ("core.study_s_median", "s"), ("core.study_s_max", "s"),
    ("core.straggler_ratio", "ratio"), ("core.aggregate_ms", "ms"),
    ("bench.trace_overhead_s", "s"),
]

# A run gives up on its repetitions this long after it starts measuring, so
# that it ends well within three minutes; the slowest repetition takes
# about 5 s.
RUN_LIMIT_S = 150


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build_dir():
    path = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    return path if path.is_absolute() else ROOT / path


def child_env():
    """Keeps the compiler's and the program's temporary files in the checkout."""
    tmp = build_dir() / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    return dict(os.environ, TMPDIR=str(tmp))


def build():
    """Configures and builds benchmark/; returns the charisma_bench path."""
    cmake_dir = build_dir() / "cmake"
    steps = [
        ["cmake", "-S", str(BENCH_DIR), "-B", str(cmake_dir),
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", str(cmake_dir), "-j", str(os.cpu_count() or 1)],
    ]
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                              env=child_env(), check=False)
        if done.returncode != 0:
            raise RuntimeError("build step failed: " + " ".join(step))
    return cmake_dir / "charisma_bench"


def cache_value(cmake_cache, key):
    for line in cmake_cache.read_text().splitlines():
        if line.startswith(key + ":"):
            return line.split("=", 1)[1]
    return ""


def fingerprint():
    model = ""
    for line in Path("/proc/cpuinfo").read_text().splitlines():
        if line.startswith("model name"):
            model = line.split(":", 1)[1].strip()
            break
    cmake_cache = build_dir() / "cmake" / "CMakeCache.txt"
    compiler = cache_value(cmake_cache, "CMAKE_CXX_COMPILER")
    version = subprocess.run([compiler, "--version"], capture_output=True,
                             text=True, check=False).stdout.splitlines()
    return {
        "cores": os.cpu_count(),
        "cpu_model": model,
        "kernel": platform.release(),
        "compiler": version[0] if version else compiler,
        "build_type": cache_value(cmake_cache, "CMAKE_BUILD_TYPE"),
    }


def load_pins(table):
    pins = json.loads((BENCH_DIR / "pins.json").read_text())
    return {int(seed): digest for seed, digest in pins.get(table, {}).items()}


def rep_seeds(workload, seed):
    """Returns f(rep): the generator seeds of repetition `rep` of a run."""
    studies, table = WORKLOADS[workload]
    inputs = json.loads((BENCH_DIR / "inputs.json").read_text())[table]["seeds"]
    first = seed * SEED_STRIDE * studies
    return lambda rep: [inputs[(first + rep * studies + k) % len(inputs)]
                        for k in range(studies)]


def run_rep(binary, workload, seeds, trace, pins, scale=None, spans_out=None,
            timeout=RUN_LIMIT_S):
    """One charisma_bench process; returns its JSON record or None."""
    spill_dir = build_dir() / "spill"
    spill_dir.mkdir(parents=True, exist_ok=True)
    cmd = [str(binary), "--workload=" + workload,
           "--seed=" + ",".join(str(s) for s in seeds),
           "--trace=%d" % trace, "--spill-dir=" + str(spill_dir)]
    wanted = {s: pins[s] for s in seeds if s in pins}
    if wanted:
        cmd.append("--pins=" + ",".join("%d:%s" % kv for kv in sorted(wanted.items())))
    if scale is not None:
        cmd.append("--scale=%g" % scale)
    if spans_out is not None:
        cmd.append("--spans-out=" + str(spans_out))
    try:
        done = subprocess.run(cmd, capture_output=True, text=True,
                              env=child_env(), timeout=max(timeout, 1),
                              check=False)
    except subprocess.TimeoutExpired:
        log("repetition timed out:", " ".join(cmd))
        return None
    sys.stderr.write(done.stderr)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        log("repetition failed with exit code %d" % done.returncode)
        return None
    return json.loads(lines[-1])


def median(values):
    return statistics.median(values) if values else 0.0


def measure(binary, workload, seed, seconds, trace, pins, scale=None,
            seeds=None, min_reps=MIN_REPS, warmup=True):
    """Measures one run; returns the full result record.

    After an untimed warm-up repetition, runs repetitions on successive
    inputs until `seconds` have passed and at least `min_reps` untraced
    repetitions are done.  Traced: each input runs untraced, then traced
    (then, for nas_synthetic, traced on SPILL_WORKLOAD), until `seconds`
    have passed (at least one round)."""
    studies_per_rep = WORKLOADS[workload][0]
    seeds = seeds or rep_seeds(workload, seed)
    results = build_dir() / "results"
    results.mkdir(parents=True, exist_ok=True)
    kinds = [("untraced", workload, 0, None)]
    if trace:
        kinds.append(("traced", workload, 1,
                      results / ("spans_%s_seed%d.json" % (workload, seed))))
        if workload == "nas_synthetic":
            kinds.append(("spill", SPILL_WORKLOAD, 1,
                          results / ("spans_%s_seed%d.json" % (SPILL_WORKLOAD,
                                                               seed))))
    reps = {kind[0]: [] for kind in kinds}
    attempted = failed = 0
    errors = []
    first_digests = {}

    def record(rep, check_repeats):
        nonlocal attempted, failed
        attempted += studies_per_rep
        if rep is None:
            failed += studies_per_rep
            errors.append("repetition exited abnormally")
            return False
        for study in rep["studies"]:
            if check_repeats:
                # A seed run twice must repeat its digest exactly.
                expected = first_digests.setdefault(study["seed"],
                                                    study["digest"])
                if expected != study["digest"]:
                    study["errors"].append("digest changed between repetitions")
            if study["errors"]:
                failed += 1
                errors.extend(study["errors"])
        return True

    if warmup:
        # Loads the binary and the libraries, and gets the host's caches and
        # clocks going; its times are not kept.
        record(run_rep(binary, workload, seeds(0), 0, {}, WARMUP_SCALE),
               check_repeats=False)
    start = time.monotonic()
    for index in itertools.count():
        for name, program, is_traced, spans_out in kinds:
            left = RUN_LIMIT_S - (time.monotonic() - start)
            rep = run_rep(binary, program, seeds(index), is_traced, pins,
                          scale, spans_out, timeout=left)
            if record(rep, check_repeats=True):
                reps[name].append(rep)
        enough = index + 1 >= (1 if trace else min_reps)
        elapsed = time.monotonic() - start
        if (enough and elapsed >= seconds) or elapsed >= RUN_LIMIT_S:
            break
    untraced = reps["untraced"]
    if trace:
        traced = reps["traced"]
        spill = reps.get("spill") or traced
        layers = {}
        for name, unit in PER_LAYER[:-1]:
            source = spill if name in SPILL_LAYERS else traced
            layers[name] = {"value": median([r["layers"][name] for r in source]),
                            "unit": unit}
        overhead = (median([r["time_to_results_s"] for r in traced]) -
                    median([r["time_to_results_s"] for r in untraced]))
        layers["bench.trace_overhead_s"] = {"value": overhead, "unit": "s"}
        metrics = layers
    else:
        metrics = {name: {"value": median([r[name] for r in untraced]),
                          "unit": unit} for name, unit in END_TO_END}
    return {
        "workload": workload, "seed": seed, "trace": trace,
        "host": fingerprint(),
        "repetitions": sum(len(v) for v in reps.values()),
        "attempted": attempted, "failed": failed, "errors": errors[:20],
        "digests": first_digests,
        "samples": {name: [r[name] for r in untraced] for name, _ in END_TO_END},
        "metrics": metrics,
    }


def print_summary(record):
    host = record["host"]
    print("host: cores=%s cpu=%r kernel=%s compiler=%r build=%s" % (
        host["cores"], host["cpu_model"], host["kernel"], host["compiler"],
        host["build_type"]))
    print("workload %s seed %d: %d repetitions, %d studies" % (
        record["workload"], record["seed"], record["repetitions"],
        record["attempted"]))
    for name, metric in record["metrics"].items():
        print("  %-28s %14.6g %s" % (name, metric["value"], metric["unit"]))
    print("  %-28s %14.6g ratio (%d/%d studies)" % (
        "failed_frac", record["failed"] / record["attempted"],
        record["failed"], record["attempted"]))
    for error in record["errors"]:
        print("  error: " + error)


def compare(path_a, path_b):
    a = json.loads(Path(path_a).read_text())
    b = json.loads(Path(path_b).read_text())
    if a["host"] != b["host"]:
        log("refusing to compare: host fingerprints differ")
        log("  A:", json.dumps(a["host"], sort_keys=True))
        log("  B:", json.dumps(b["host"], sort_keys=True))
        return 3
    if (a["workload"], a["trace"]) != (b["workload"], b["trace"]):
        log("refusing to compare: different workloads or trace modes")
        return 3
    print("%-28s %14s %14s %8s" % ("metric", "A", "B", "B/A"))
    for name, metric in a["metrics"].items():
        va, vb = metric["value"], b["metrics"][name]["value"]
        ratio = "%8.3f" % (vb / va) if va else "       -"
        print("%-28s %14.6g %14.6g %s" % (name, va, vb, ratio))
    return 0


def self_test(binary):
    """The correctness gate must fail on a wrong pin and see the seed."""
    ok = True

    def check(cond, what):
        nonlocal ok
        ok = ok and cond
        print("self-test %s: %s" % ("ok  " if cond else "FAIL", what))

    def once(seed, pins, scale=None, reps=1):
        return measure(binary, "nas_synthetic", seed, 0, 0, pins, scale,
                       seeds=lambda rep: [seed], min_reps=reps, warmup=False)

    pins = load_pins("synthetic@0.2")
    right = once(42, pins)
    check(right["failed"] == 0 and right["digests"].get(42) == pins[42],
          "seed 42 reproduces the pinned digest %s" % pins[42])
    wrong = once(7, {7: "0x0000000000000000"}, scale=0.05, reps=2)
    check(wrong["failed"] == wrong["attempted"] > 0,
          "a wrong pinned digest gives failed_frac 1 (%d/%d)" % (
              wrong["failed"], wrong["attempted"]))
    other = once(8, {}, scale=0.05)
    check(other["failed"] == 0 and
          other["digests"].get(8) != wrong["digests"].get(7),
          "seeds 7 and 8 give different digests")
    return 0 if ok else 1


def record_pins(binary):
    """Pins every input-table seed's digest at the current commit."""
    pins = json.loads((BENCH_DIR / "pins.json").read_text())
    inputs = json.loads((BENCH_DIR / "inputs.json").read_text())
    for workload, table in (("nas_synthetic", "synthetic@0.2"),
                            ("checkpoint_write", "checkpoint@0.2")):
        for seed in inputs[table]["seeds"]:
            rep = run_rep(binary, workload, [seed], 0, {})
            if rep is None or rep["studies"][0]["errors"]:
                log("cannot pin %s seed %d" % (table, seed))
                return 1
            pins.setdefault(table, {})[str(seed)] = rep["studies"][0]["digest"]
    (BENCH_DIR / "pins.json").write_text(json.dumps(pins, indent=1) + "\n")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--compare", nargs=2, metavar="RESULT")
    parser.add_argument("--record-pins", action="store_true",
                        help="re-pin every input seed's digest (after a "
                        "change that is meant to alter the trace)")
    args = parser.parse_args()
    if args.compare:
        return compare(*args.compare)
    if not (args.self_test or args.record_pins) and args.workload is None:
        parser.error("--workload is required")
    try:
        binary = build()
    except (OSError, RuntimeError) as err:
        log("benchmark build failed:", err)
        return 2
    if args.self_test:
        return self_test(binary)
    if args.record_pins:
        return record_pins(binary)

    record = measure(binary, args.workload, args.seed, args.seconds,
                     args.trace, load_pins(WORKLOADS[args.workload][1]))
    out = build_dir() / "results" / ("%s_seed%d_trace%d.json" % (
        args.workload, args.seed, args.trace))
    out.write_text(json.dumps(record, indent=1) + "\n")
    log("result record:", out)
    print_summary(record)
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
