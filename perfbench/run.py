"""End-to-end benchmark of Cocoon: CocoonPipeline.run on Spark local[4].

Usage, from the repository root:
    python3 perfbench/run.py --workload flights --seed 42 --seconds 25 --trace 0

Builds the program and the benchmark (perfbench/build.py), then runs one JVM
(perfbench.Main). It starts a SparkSession, sets the workload up from the
seed, runs timed passes of the pipeline, checks every pass's output and
reports the metrics. --seconds sets the number of timed passes, one per
PASS_SECONDS, at least one; it never depends on how fast the program is.

--trace 0 prints the end-to-end metrics of BENCHMARK.json. --trace 1 runs a
timed JVM and then a traced one, and prints the per-layer metrics, including
trace.overhead_s, the traced clean_s minus the timed clean_s. Both JVMs
measure their first passes, so neither pays the warm-up the other skips.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. The exit code is non-zero, with no result,
when the benchmark cannot build or run.
"""

import argparse
import json
import pathlib
import signal
import subprocess
import sys
import time

sys.dont_write_bytecode = True
sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))
import build  # noqa: E402

PASS_SECONDS = 25
# Printed with the end-to-end metrics but not gated by a bound: the pinned
# cell counts check them exactly, and they are 0 on some seeds or workloads.
REPORTED = ("eval.wrong_cells", "eval.f1")
RUN_LIMIT_S = 170
JAVA_OPTS = [
    "-Xmx3g", "-XX:-UsePerfData",
    *(f"--add-opens=java.base/{p}=ALL-UNNAMED" for p in (
        "java.lang", "java.lang.invoke", "java.io", "java.net", "java.nio", "java.util",
        "java.util.concurrent", "sun.nio.ch", "sun.util.calendar")),
]


def run_jvm(classes, args, trace, passes, deadline):
    """Run one benchmark JVM; return its result object, echoing its report lines."""
    work = build.build_dir()
    (work / "tmp").mkdir(parents=True, exist_ok=True)
    log = work / f"{args.workload}-seed{args.seed}-trace{trace}.log"
    cmd = ["java", *JAVA_OPTS, f"-Djava.io.tmpdir={work / 'tmp'}",
           "-cp", build.classpath(classes), "perfbench.Main",
           "--workload", args.workload, "--seed", str(args.seed), "--trace", str(trace),
           "--passes", str(passes), "--work-dir", str(work)]
    with open(log, "w") as err:
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err, text=True)
        try:
            out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines or not lines[-1].startswith("{"):
        sys.stderr.write(log.read_text()[-4000:])
        raise SystemExit(f"perfbench: benchmark JVM failed (exit {proc.returncode}); log in {log}")
    for line in lines[:-1]:
        print(line)
    return json.loads(lines[-1])


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, default=PASS_SECONDS)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))  # the finally in run_jvm stops the JVM

    spec = json.loads((build.ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        raise SystemExit(f"perfbench: unknown workload {args.workload!r}")
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    classes = build.build()
    deadline = time.monotonic() + RUN_LIMIT_S
    passes = max(1, args.seconds // PASS_SECONDS)
    result = run_jvm(classes, args, 0, passes, deadline)
    if args.trace:
        timed = result
        result = run_jvm(classes, args, 1, passes, deadline)
        result["metrics"]["trace.overhead_s"] = {
            "value": result["metrics"]["clean_s"]["value"] - timed["metrics"]["clean_s"]["value"], "unit": "s"}
        result["correct"] = result["correct"] and timed["correct"]
        result["attempted"] += timed["attempted"]
        result["failed"] += timed["failed"]

    missing = [m["name"] for m in wanted if m["name"] not in result["metrics"]]
    if missing:
        raise SystemExit(f"perfbench: metrics not measured: {missing}")
    metrics = {m["name"]: result["metrics"][m["name"]] for m in wanted}
    wrong_units = [n for n, m in zip(metrics, wanted) if metrics[n]["unit"] != m["unit"]]
    if wrong_units:
        raise SystemExit(f"perfbench: units differ from BENCHMARK.json: {wrong_units}")
    shown = {**metrics, **({} if args.trace else {n: result["metrics"][n] for n in REPORTED})}
    for name, v in shown.items():
        print(f"{name:40s} {v['value']:>14.4f} {v['unit']}")
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))


if __name__ == "__main__":
    main()
