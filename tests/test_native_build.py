"""The native kernel builds from source with warnings as errors, and the
build gives the same solution streams and counters as the Python engines.

The extension is compiled by the project's own `setup.py` into a
temporary directory, next to a copy of the package's Python files, and
checked in a fresh interpreter; the checkout is left untouched.
"""

import os
import shutil
import subprocess
import sys
import sysconfig
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "indmatch"


def compiler():
    cc = (sysconfig.get_config_var("CC") or "cc").split()[0]
    return shutil.which(cc)


CHECK = """
import random
from indmatch import DynamicGraph, EnumConfig, GenSpec, ListSink, generate, is_c4_free
from indmatch import native_available
from indmatch.stats import enumerate_with_stats

assert native_available()

def run(g, algo, backend, cutoff):
    sink = ListSink()
    config = EnumConfig(algorithm=algo, backend=backend, solution_cutoff=cutoff)
    _, stats = enumerate_with_stats(g, config, sink)
    return sink.solutions, stats

rng = random.Random(7)
graphs = []
for _ in range(60):
    n = rng.randint(1, 12)
    pool = [(a, b) for a in range(n) for b in range(a + 1, n)]
    graphs.append(DynamicGraph(n, rng.sample(pool, rng.randint(0, min(len(pool), 20)))))
graphs += [generate(GenSpec(family="randomgirth5", n=n, m=int(1.2 * n), seed=s))
           for n in (16, 24, 32) for s in range(2)]
runs = 0
for g in graphs:
    for algo in ["general"] + (["c4free"] if is_c4_free(g) else []):
        for cutoff in (None, 5, 500):
            assert run(g, algo, "python", cutoff) == run(g, algo, "native", cutoff), (algo, cutoff)
            runs += 1
print(runs, "runs identical")
"""


@pytest.mark.skipif(compiler() is None, reason="no C compiler")
def test_kernel_builds_cleanly_and_matches_python(tmp_path):
    lib = tmp_path / "lib"
    build = subprocess.run(
        [sys.executable, "setup.py", "build_ext", "--build-lib", str(lib),
         "--build-temp", str(tmp_path / "temp")],
        cwd=ROOT, env=dict(os.environ, CFLAGS="-Wall -Wextra -Werror"),
        capture_output=True, text=True, timeout=300,
    )
    # optional=True turns a failed compile into a warning, so look for the module
    built = list((lib / "indmatch").glob("_fastcore*"))
    assert build.returncode == 0 and built, build.stdout + build.stderr
    for source in PACKAGE.glob("*.py"):
        shutil.copy(source, lib / "indmatch")
    check = subprocess.run(
        [sys.executable, "-c", CHECK], cwd=tmp_path, env=dict(os.environ, PYTHONPATH=str(lib)),
        capture_output=True, text=True, timeout=600,
    )
    assert check.returncode == 0, check.stdout + check.stderr
    assert "runs identical" in check.stdout
