"""Build file of the benchmark: compiles the program's sources under
`src/main/scala` together with the benchmark's own sources under
`perfbench/src` into one class directory, with the Scala compiler that ships
in the Spark distribution.

The output lives under `.bench_build/perfbench/classes-<hash>`, keyed by a
hash of every source file, so an unchanged tree is compiled once.

    python3 perfbench/build.py        # prints the class directory
"""

import hashlib
import os
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")


class BuildError(Exception):
    pass


def spark_jars():
    """Spark jars to build and run against: $SPARK_HOME/jars, else the
    directory the program's own build.sbt compiles against."""
    home = os.environ.get("SPARK_HOME")
    if home:
        jars = os.path.join(home, "jars")
    else:
        with open(os.path.join(ROOT, "build.sbt")) as f:
            m = re.search(r'Compile\s*/\s*unmanagedBase\s*:=\s*file\("([^"]+)"\)', f.read())
        jars = m.group(1) if m else ""
    if not os.path.isdir(jars):
        raise BuildError("Spark jars not found (set SPARK_HOME)")
    return jars


def java_bin():
    home = os.environ.get("JAVA_HOME")
    if home and os.path.exists(os.path.join(home, "bin", "java")):
        return os.path.join(home, "bin", "java")
    found = shutil.which("java")
    if not found:
        raise BuildError("no java on PATH")
    return found


def _sources():
    roots = [os.path.join(ROOT, "src", "main", "scala"), os.path.join(HERE, "src")]
    if not os.path.isdir(roots[0]):
        raise BuildError(f"program sources missing: {roots[0]}")
    out = []
    for r in roots:
        for d, _, files in os.walk(r):
            out.extend(os.path.join(d, f) for f in files if f.endswith(".scala"))
    return sorted(out)


def build():
    """Compile if needed; return the class directory."""
    sources = _sources()
    h = hashlib.sha256()
    for s in sources:
        h.update(os.path.relpath(s, ROOT).encode())
        with open(s, "rb") as f:
            h.update(f.read())
    out = os.path.join(BUILD_DIR, "classes-" + h.hexdigest()[:16])
    if os.path.exists(os.path.join(out, ".done")):
        return out
    tmp = out + ".tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    cmd = [java_bin(), "-Xss4m", "-Xmx1g", "-XX:-UsePerfData",
           "-cp", os.path.join(spark_jars(), "*"), "scala.tools.nsc.Main",
           "-usejavacp", "-nowarn", "-d", tmp] + sources
    res = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
    if res.returncode != 0:
        raise BuildError(f"scalac failed with exit code {res.returncode}")
    open(os.path.join(tmp, ".done"), "w").close()
    shutil.rmtree(out, ignore_errors=True)
    os.rename(tmp, out)
    return out


if __name__ == "__main__":
    try:
        print(build())
    except BuildError as e:
        print(f"build failed: {e}", file=sys.stderr)
        sys.exit(2)
