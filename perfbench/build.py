"""Build file of the benchmark: compiles the program (src/main/scala) together
with the benchmark's own sources (perfbench/src) using the Scala compiler that
ships in Spark's jar directory ($SPARK_HOME/jars), so no build tool or
network is needed.

Usage, from the repository root:
    python3 perfbench/build.py

Classes go to $CARGO_TARGET_DIR/classes (default .bench_build/classes). The
build is skipped when a stamp shows the same sources were compiled before.
"""

import hashlib
import os
import pathlib
import shutil
import subprocess
import sys

ROOT = pathlib.Path.cwd()


def spark_jars() -> pathlib.Path:
    """$SPARK_HOME/jars, or the jars of the Spark whose spark-submit is on the PATH."""
    home = os.environ.get("SPARK_HOME")
    if not home:
        submit = shutil.which("spark-submit")
        if not submit:
            raise SystemExit("perfbench: set SPARK_HOME or put spark-submit on the PATH")
        home = pathlib.Path(submit).resolve().parent.parent
    return pathlib.Path(home) / "jars"


def build_dir() -> pathlib.Path:
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def classpath(*extra: pathlib.Path) -> str:
    return os.pathsep.join([f"{spark_jars()}/*", *map(str, extra)])


def sources() -> list:
    program = sorted((ROOT / "src" / "main" / "scala").rglob("*.scala"))
    bench = sorted((ROOT / "perfbench" / "src").rglob("*.scala"))
    if not program or not bench:
        raise SystemExit("perfbench: run from the repository root; program or benchmark sources are missing")
    return program + bench


def build() -> pathlib.Path:
    """Compile if the sources changed; return the classes directory."""
    files = sources()
    digest = hashlib.sha256()
    for f in files:
        digest.update(str(f.relative_to(ROOT)).encode() + b"\0" + f.read_bytes() + b"\0")
    out = build_dir() / "classes"
    stamp = build_dir() / "classes.stamp"
    if out.is_dir() and stamp.is_file() and stamp.read_text() == digest.hexdigest():
        return out
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    tmp = build_dir() / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    cmd = ["java", "-Xmx2g", "-XX:-UsePerfData", f"-Djava.io.tmpdir={tmp}",
           "-cp", classpath(), "scala.tools.nsc.Main", "-nowarn",
           "-classpath", classpath(), "-d", str(out), *map(str, files)]
    subprocess.run(cmd, check=True, timeout=600)
    stamp.write_text(digest.hexdigest())
    return out


if __name__ == "__main__":
    try:
        print(build())
    except subprocess.CalledProcessError as e:
        sys.exit(e.returncode or 1)
