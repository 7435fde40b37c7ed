"""Benchmark of the theme-community miner and TC-Tree index.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
                             [--gen-seed <n>]

Run from the repository root. Builds the program from source (see build.py),
then runs one workload in a fresh JVM on Spark `local[<cores>]`:

  mine-aminer   TCFI.run at alpha=0 on NetGen.aminerLike (generator seed 13)
  index-syn     TCTree.build on NetGen.synLike (generator seed 17)
  query-aminer  QBA/QBP queries on the AMINER TC-Tree, one closed-loop client

`--seed` picks the relabelling of vertex ids and transaction order (the
network stays isomorphic, so the work and its reference counts are fixed)
and the query mix. `--gen-seed` generates a different network, for checking
a claim on data not used while making it; correctness then rests on the
serial replays and the brute-force query scan instead of stored constants.

With `--trace 0` the last stdout line holds the end-to-end metrics; with
`--trace 1` it holds the per-layer metrics of one traced run. The line
before it is a report with the run environment and every measured figure.
Spans of a traced run go to `.bench_build/perfbench/spans-*.tsv`.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import time

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import build  # noqa: E402

WORKLOADS = ("mine-aminer", "index-syn", "query-aminer")
# A run must end within 180 s; the first run of a checkout may also compile.
RUN_LIMIT_S = 170
HEAP = "3g"

JVM_OPENS = [
    "java.lang", "java.lang.invoke", "java.lang.reflect", "java.io", "java.net",
    "java.nio", "java.util", "java.util.concurrent", "java.util.concurrent.atomic",
    "jdk.internal.ref", "sun.nio.ch", "sun.nio.cs", "sun.security.action",
    "sun.util.calendar",
]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--gen-seed", type=int, default=None)
    args = ap.parse_args()
    if args.seconds < 1:
        ap.error("--seconds must be >= 1")

    try:
        classes = build.build()
        java = build.java_bin()
        jars = build.spark_jars()
    except build.BuildError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2

    work = os.path.join(build.BUILD_DIR, "run")
    os.makedirs(os.path.join(work, "tmp"), exist_ok=True)
    cmd = [java, f"-Xmx{HEAP}", f"-Xms{HEAP}", "-XX:-UsePerfData", "-XX:+IgnoreUnrecognizedVMOptions",
           f"-Djava.io.tmpdir={os.path.join(work, 'tmp')}",
           f"-Dlog4j2.configurationFile={os.path.join(build.HERE, 'log4j2.properties')}"]
    cmd += [f"--add-opens=java.base/{p}=ALL-UNNAMED" for p in JVM_OPENS]
    cmd += ["-cp", classes + os.pathsep + os.path.join(jars, "*"), "repro.perfbench.Main",
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--work-dir", work]
    if args.gen_seed is not None:
        cmd += ["--gen-seed", str(args.gen_seed)]

    proc = subprocess.Popen(cmd, cwd=build.ROOT, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    # On SIGTERM, leave through the `finally` below so the JVM dies too.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        out, _ = proc.communicate(timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print(f"perfbench: run exceeded {RUN_LIMIT_S} s", file=sys.stderr)
        return 3
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    lines = [l for l in out.splitlines() if l.strip()]
    if proc.returncode != 0 or not lines:
        sys.stderr.write(out)
        print(f"perfbench: benchmark JVM exited with {proc.returncode}", file=sys.stderr)
        return proc.returncode or 4
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        print("perfbench: malformed result line", file=sys.stderr)
        return 5
    for l in lines[:-1]:
        print(l)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    t0 = time.time()
    code = main()
    print(f"perfbench: {time.time() - t0:.1f} s", file=sys.stderr)
    sys.exit(code)
