"""Builds the benchmark: compiles the repository's main sources together
with perfbench/src into .bench_build/perfbench/classes, using the Scala
compiler that ships with the Spark distribution ($SPARK_HOME/jars), then
writes the workloads' input CSV files into .bench_build/perfbench/inputs
with the repository's generators.

Run from the repository root:  python3 perfbench/build.py
A build whose sources are unchanged since the last one is skipped.
"""

import hashlib
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
MAIN_SOURCES = os.path.join("src", "main", "scala")
OUT_DIR = os.path.join(".bench_build", "perfbench")
CLASSES = os.path.join(OUT_DIR, "classes")
INPUTS = os.path.join(OUT_DIR, "inputs")
STAMP = os.path.join(OUT_DIR, "build.stamp")

# The JPMS opens that Spark's launcher scripts pass on Java 17.
JAVA_OPENS = [f"--add-opens=java.base/{p}=ALL-UNNAMED" for p in (
    "java.lang", "java.lang.invoke", "java.lang.reflect", "java.io", "java.net", "java.nio",
    "java.util", "java.util.concurrent", "java.util.concurrent.atomic", "jdk.internal.ref",
    "sun.nio.ch", "sun.nio.cs", "sun.security.action", "sun.util.calendar",
)] + ["-Djdk.reflect.useDirectMethodHandleAccessor=false"]


class BuildError(Exception):
    pass


def spark_jars():
    jars = os.path.join(os.environ.get("SPARK_HOME", "/opt/spark"), "jars")
    if not os.path.isdir(jars) or not any(n.startswith("scala-compiler") for n in os.listdir(jars)):
        raise BuildError(f"no Spark distribution with a Scala compiler at {jars}; set SPARK_HOME")
    return jars


def sources():
    if not os.path.isdir(MAIN_SOURCES):
        raise BuildError(f"{MAIN_SOURCES} not found: run from the root of a repository checkout")
    found = []
    for top in (MAIN_SOURCES, os.path.join(BENCH_DIR, "src")):
        for d, _, files in os.walk(top):
            found += [os.path.join(d, f) for f in files if f.endswith(".scala")]
    if not any(f.startswith(MAIN_SOURCES) for f in found):
        raise BuildError(f"no Scala sources under {MAIN_SOURCES}")
    return sorted(found)


def java_command(main_class, args, heap, tmpdir, young=None):
    """The JVM command line that runs `main_class` of the built benchmark,
    with a fixed heap and, if `young` is given, a fixed young generation."""
    cp = os.pathsep.join([os.path.abspath(CLASSES), os.path.join(BENCH_DIR, "resources"),
                          os.path.join(spark_jars(), "*")])
    sizes = [f"-Xms{heap}", f"-Xmx{heap}"] + ([f"-Xmn{young}"] if young else [])
    return (["java"] + sizes + ["-Duser.timezone=UTC", f"-Djava.io.tmpdir={tmpdir}"]
            + JAVA_OPENS + ["-cp", cp, main_class] + args)


def build():
    """Compiles and generates the inputs if needed; returns the build's
    source digest."""
    jars = spark_jars()
    srcs = sources()
    digest = hashlib.sha256()
    for f in srcs:
        digest.update(f.encode())
        with open(f, "rb") as fh:
            digest.update(fh.read())
    stamp = digest.hexdigest()
    if os.path.exists(STAMP) and open(STAMP).read() == stamp:
        return stamp
    if os.path.exists(STAMP):
        os.remove(STAMP)
    tmp = CLASSES + ".tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    cmd = ["java", "-Xss8m", "-Xmx2g", "-cp", os.path.join(jars, "*"), "scala.tools.nsc.Main",
           "-usejavacp", "-nowarn", "-d", tmp] + srcs
    done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, timeout=600)
    if done.returncode != 0:
        raise BuildError(f"scalac exited with {done.returncode}")
    shutil.rmtree(CLASSES, ignore_errors=True)
    os.rename(tmp, CLASSES)

    tmp = INPUTS + ".tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(os.path.join(tmp, "tmp"))
    cmd = java_command("repro.perfbench.Generate", [tmp, str(len(os.sched_getaffinity(0)))], "2g",
                       os.path.abspath(os.path.join(tmp, "tmp")))
    done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, timeout=600)
    if done.returncode != 0:
        raise BuildError(f"input generation exited with {done.returncode}")
    for scratch in ("tmp", "spark-local"):
        shutil.rmtree(os.path.join(tmp, scratch), ignore_errors=True)
    shutil.rmtree(INPUTS, ignore_errors=True)
    os.rename(tmp, INPUTS)
    with open(STAMP, "w") as fh:
        fh.write(stamp)
    return stamp


if __name__ == "__main__":
    try:
        build()
    except (BuildError, subprocess.TimeoutExpired) as e:
        sys.exit(f"perfbench build: {e}")
