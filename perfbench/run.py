#!/usr/bin/env python3
"""Run the C-Extension benchmark on one workload.

    python3 perfbench/run.py --workload census-5x --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. The first run builds the solver and the
benchmark from source with sbt (perfbench/build.sbt) and records the
classpath under the build directory ($CARGO_TARGET_DIR, default
.bench_build); later runs reuse it while the sources are unchanged. The
benchmark itself runs in one JVM (perfbench.Main); its last stdout line is
the JSON result. Exits non-zero when the build, a run, an output check or a
structural guard fails.
"""
import argparse
import hashlib
import os
import shutil
import subprocess
import sys

BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 170
HEAP = "3g"
SOLVER_ENTRY = os.path.join("src", "main", "scala", "repro", "core", "CExtension.scala")
BENCH_DIR = "perfbench"
JVM_OPTS = [
    "-Xms" + HEAP, "-Xmx" + HEAP, "-XX:+UseG1GC",
    "-Dspark.driver.host=127.0.0.1",
    "-Dlog4j2.configurationFile=" + os.path.join(BENCH_DIR, "log4j2.properties"),
    # Spark 4 on Java 17 needs these module openings (as spark-submit adds).
    "--add-opens=java.base/java.lang=ALL-UNNAMED",
    "--add-opens=java.base/java.lang.invoke=ALL-UNNAMED",
    "--add-opens=java.base/java.lang.reflect=ALL-UNNAMED",
    "--add-opens=java.base/java.io=ALL-UNNAMED",
    "--add-opens=java.base/java.net=ALL-UNNAMED",
    "--add-opens=java.base/java.nio=ALL-UNNAMED",
    "--add-opens=java.base/java.util=ALL-UNNAMED",
    "--add-opens=java.base/java.util.concurrent=ALL-UNNAMED",
    "--add-opens=java.base/java.util.concurrent.atomic=ALL-UNNAMED",
    "--add-opens=java.base/jdk.internal.ref=ALL-UNNAMED",
    "--add-opens=java.base/sun.nio.ch=ALL-UNNAMED",
    "--add-opens=java.base/sun.nio.cs=ALL-UNNAMED",
    "--add-opens=java.base/sun.security.action=ALL-UNNAMED",
    "--add-opens=java.base/sun.util.calendar=ALL-UNNAMED",
    "-Djdk.reflect.useDirectMethodHandle=false",
    "-Dio.netty.tryReflectionSetAccessible=true",
]


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def source_hash():
    h = hashlib.sha256()
    roots = [os.path.join("src", "main", "scala"), os.path.join(BENCH_DIR, "src"),
             os.path.join(BENCH_DIR, "build.sbt"), os.path.join(BENCH_DIR, "project", "build.properties")]
    for root in roots:
        files = [root] if os.path.isfile(root) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(root) for f in fs)
        for path in files:
            h.update(path.encode())
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def spark_home():
    home = os.environ.get("SPARK_HOME")
    if not home and shutil.which("spark-submit"):
        home = os.path.dirname(os.path.dirname(os.path.realpath(shutil.which("spark-submit"))))
    if not home or not os.path.isdir(os.path.join(home, "jars")):
        fail("no Spark distribution found: set SPARK_HOME")
    return home


def classpath(build_dir, env):
    """Build with sbt when the sources changed; return the runtime classpath."""
    stamp = os.path.join(build_dir, "classpath.txt")
    digest = source_hash()
    if os.path.exists(stamp):
        with open(stamp) as fh:
            saved_digest, cp = fh.read().split("\n", 1)
        if saved_digest == digest and all(os.path.exists(p) for p in cp.strip().split(os.pathsep)):
            return cp.strip()
    if not shutil.which("sbt"):
        fail("sbt is needed to build the benchmark")
    cmd = ["sbt", "--batch", "-Dsbt.server.autostart=false", "-Dsbt.log.noformat=true",
           "compile", "export Runtime/fullClasspath"]
    try:
        res = subprocess.run(cmd, cwd=BENCH_DIR, env=env, stdout=subprocess.PIPE,
                             stdin=subprocess.DEVNULL, timeout=BUILD_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        fail("build timed out")
    if res.returncode != 0:
        sys.stderr.write(res.stdout)
        fail("build failed")
    cp = res.stdout.strip().splitlines()[-1].strip()
    if "perfbench" not in cp:
        sys.stderr.write(res.stdout)
        fail("could not read the classpath from sbt")
    with open(stamp, "w") as fh:
        fh.write(digest + "\n" + cp + "\n")
    return cp


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    args = ap.parse_args()

    if not os.path.isfile(SOLVER_ENTRY) or not os.path.isfile(os.path.join(BENCH_DIR, "build.sbt")):
        fail("run from the root of a checkout of the solver (missing %s)" % SOLVER_ENTRY)
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    work_dir = os.path.join(build_dir, "work")
    tmp_dir = os.path.join(build_dir, "tmp")
    for d in (build_dir, work_dir, tmp_dir):
        os.makedirs(d, exist_ok=True)
    env = dict(os.environ, SPARK_HOME=spark_home())

    cp = classpath(build_dir, env)
    java = os.path.join(env["JAVA_HOME"], "bin", "java") if env.get("JAVA_HOME") else "java"
    cmd = [java] + JVM_OPTS + ["-Djava.io.tmpdir=" + os.path.abspath(tmp_dir), "-cp", cp,
                               "perfbench.Main", "--workload", args.workload,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", args.trace, "--work-dir", os.path.abspath(work_dir)]
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, stdin=subprocess.DEVNULL, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail("run timed out after %d s" % RUN_TIMEOUT_S, 3)
    lines = out.rstrip("\n").splitlines()
    if not lines or not lines[-1].startswith("{"):
        sys.stdout.write(out)
        fail("run printed no result (exit code %d)" % proc.returncode, 3)
    sys.stdout.write(out)
    sys.stdout.flush()
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
