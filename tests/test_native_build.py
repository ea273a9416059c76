"""The native kernel builds from source with warnings as errors and a
bounded recursion frame, and the build gives the same parsed graphs as
the Python reference, the same CLI output bytes, rejects bad arguments,
and stops on Ctrl-C.  The suite's native-parametrised tests, which skip
without a compiled core, run against the build too: among them the
backend parity tests, which pin the build's solution streams and
counters to the Python engine's.

The extension is compiled once by the project's own `setup.py` into a
temporary directory, next to a copy of the package's Python files, and
checked in fresh interpreters; the checkout is left untouched.
"""

import os
import shutil
import signal
import subprocess
import sys
import sysconfig
import time
from pathlib import Path

import pytest

from indmatch import GenSpec, generate, serialize_edge_list

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "indmatch"


def compiler():
    cc = (sysconfig.get_config_var("CC") or "cc").split()[0]
    return shutil.which(cc)


CHECK = r"""
import random
from indmatch import GenSpec, generate, native_available

assert native_available()

# bad arguments to run(): each raises its own exception and message
from indmatch import _fastcore

BAD = [
    ((2, [0], ["1"], b"\1"), TypeError, "edge 0 has a non-integer endpoint"),
    ((2, [0], [1.0], b"\1"), TypeError, "edge 0 has a non-integer endpoint"),
    ((2, [0], [2], b"\1"), ValueError, "edge 0 has endpoint 2 outside 0..1"),
    ((2, [-1], [1], b"\1"), ValueError, "edge 0 has endpoint -1 outside 0..1"),
    ((2, [1], [1], b"\1"), ValueError, "edge 0 is a self-loop"),
    ((2, [0, 1], [1, 0], b"\1\1"), ValueError, "vertices 0 and 1 share two edges"),
    ((2, [0], [1], b""), ValueError, "eu, ev and alive_mask must have equal length"),
    ((-1, [], [], b""), ValueError, "graph size out of range"),
    ((2, (0,), [1], b"\1"), TypeError, "run() argument 2 must be list, not tuple"),
    ((2, [0], [1], bytearray(b"\1")), TypeError, "run() argument 4 must be bytes, not bytearray"),
]
for args, exc, message in BAD:
    try:
        _fastcore.run(*args, 0, None)
    except (TypeError, ValueError) as got:
        assert (type(got), str(got)) == (exc, message), (args, got)
    else:
        raise AssertionError(args)
# only live edges count: a removed parallel edge is no error
assert _fastcore.run(2, [0, 1], [1, 0], b"\1\0", 0, None)["solutions"] == 2
print("argument errors pinned")

# The edge-list parser: kernel and Python reference give the same graph
# or the same exception, on texts over every line boundary and every
# whitespace character Python knows; the kernel itself parses exactly
# the texts the reference accepts.
from indmatch import parse_edge_list, serialize_edge_list
from indmatch.edgelist import parse_edge_list_python
from indmatch.errors import DuplicateEdge, ParseError, SelfLoop

rng = random.Random(7)
BREAKS = ["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
SPACES = [" ", "\t", "\x1f", "\xa0", "\u1680", *map(chr, range(0x2000, 0x200b)), "\u202f",
          "\u205f", "\u3000"]
# prefixes of each other, multi-byte, `#` inside a label, characters that
# are not whitespace (U+200B, U+FEFF) and a lone surrogate
WORDS = ["a", "b", "ab", "1", "01", "10", "#b", "a#", "x-y", "\u00e9", "e\u0301", "\u65e5\u672c",
         "\U0001d538", "\u200b", "\ufeff", "\ud800"]

def outcome(parse, text):
    try:
        g = parse(text)
    except Exception as exc:
        return type(exc), str(exc)
    return g.n, g.eu, g.ev, g.labels

def gaps(lo, hi, pool):
    return "".join(rng.choice(pool) for _ in range(rng.randint(lo, hi)))

def random_text():
    lines = ["\ufeff"] if rng.random() < 0.2 else []
    for _ in range(rng.randint(0, 8)):
        tokens = [rng.choice(WORDS) + rng.choice([""] * 3 + WORDS)
                  for _ in range(rng.choice((2, 2, 2, 2, 0, 1, 3)))]
        if rng.random() < 0.15:
            tokens.insert(0, rng.choice(("#", "#c")))  # a comment, indented or not
        sep = gaps(1, 2, SPACES + BREAKS[:1])  # now and then a line boundary mid-line
        lines.append(gaps(0, 2, SPACES) + sep.join(tokens) + gaps(0, 2, SPACES))
    text = "".join(line + rng.choice(BREAKS) for line in lines)
    return text.rstrip("".join(BREAKS)) if rng.random() < 0.3 else text  # last line unterminated

seen = set()
texts = [random_text() for _ in range(600)]
texts += ["", "\n", "a b", "a b\n", " # a b c\n", "a #b\n", "1 2\n01 2\n", "a b\nb a\n", "a a\n",
          "a b c\n", "a\n", "a\x1cb\n", "a\x1fb\n", "\ufeffa b\n", "\ud800 a\n",
          serialize_edge_list(generate(GenSpec(family="randomgirth5", n=3000, m=3600, seed=1)))]
for text in texts:
    want = outcome(parse_edge_list_python, text)
    assert outcome(parse_edge_list, text) == want, (text, want)
    native = _fastcore.parse(text)
    if isinstance(want[0], type):
        assert native is None, (text, want)
        seen.add(want[0])
    else:
        assert native == (want[3], want[1], want[2]), (text, native, want)
        seen.add("ok")
assert seen == {"ok", ParseError, SelfLoop, DuplicateEdge}, seen
# no str, no kernel: other types and str subclasses go to the reference
class Text(str):
    pass
assert _fastcore.parse(b"a b\n") is None and _fastcore.parse(Text("a b\n")) is None
assert outcome(parse_edge_list, b"a b\n") == outcome(parse_edge_list_python, b"a b\n")
print("parses identical")
"""


# The CLI's output bytes from the native kernel's line renderer, checked
# against the Python backend (the `solution_line` adapter) byte for byte
# and, on complete runs, against the brute oracle's set of lines (brute
# enumerates in another order).  Labels mix multi-byte UTF-8, labels that
# are prefixes of each other and labels containing `-`, for which the
# order of the joined `a-b` texts differs from the order of label pairs.
RENDER = r"""
import io, random, sys
from indmatch import GenSpec, cli, generate, is_c4_free, native_available, parse_edge_list

assert native_available()
LABELS = ["1", "10", "100", "1-0", "0", "5", "2", "-", "a-b", "z", "Z", "\u00e9", "e\u0301",
          "\u00fc", "\u65e5\u672c", "\U0001d538", "\U0001d538x", "\uffff"]

def enumerate_bytes(path, *args):
    real = sys.stdout
    # an ASCII text layer: the lines must bypass it as UTF-8 bytes
    sys.stdout = io.TextIOWrapper(io.BytesIO(), encoding="ascii")
    try:
        assert cli.main(["enumerate", path, *args]) == 0
        sys.stdout.flush()
        return sys.stdout.buffer.getvalue()
    finally:
        sys.stdout = real

def check(text, brute=True):
    path = "graph.txt"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    c4free = is_c4_free(parse_edge_list(text))
    full = complete = None
    for cutoff in (None, 1, 3, 7):
        extra = [] if cutoff is None else ["--cutoff", str(cutoff)]
        for algo in ["auto", "general"] + (["c4free"] if c4free else []):
            native = enumerate_bytes(path, "--algo", algo, "--backend", "native", *extra)
            python = enumerate_bytes(path, "--algo", algo, "--backend", "python", *extra)
            assert native == python, (text, algo, cutoff)
        lines = native.decode("utf-8").splitlines()
        if cutoff is None:
            full, complete = native, set(lines)
            assert len(complete) == len(lines)
            if brute:
                oracle = enumerate_bytes(path, "--algo", "brute").decode("utf-8").splitlines()
                assert sorted(lines) == sorted(oracle), text
        else:
            assert len(lines) == min(cutoff, len(complete)) and complete.issuperset(lines)
    return full

rng = random.Random(11)
check("")
assert enumerate_bytes("graph.txt") == b"{}\n"
check("1-0 5\n5 1\n1 2\n2 10\n10 100\n")
for _ in range(40):
    n = rng.randint(2, 10)
    pool = [(a, b) for a in range(n) for b in range(a + 1, n)]
    names = rng.sample(LABELS, n)
    edges = rng.sample(pool, rng.randint(1, min(len(pool), 14)))
    check("".join(f"{names[a]} {names[b]}\n" for a, b in edges))

# bad labels and a failing writer raise, as a failing sink does
from indmatch import _fastcore

def raises(exc, write, labels):
    try:
        _fastcore.run(2, [0], [1], b"\1", 0, write, labels)
    except exc:
        return
    raise AssertionError((exc, labels))

ignore = lambda chunk: None
raises(TypeError, ignore, ["a", "b"])
raises(ValueError, ignore, ("a",))
raises(TypeError, ignore, ("a", 1))
raises(UnicodeEncodeError, ignore, ("a", "\ud800"))
raises(ValueError, None, ("a", "b"))
raises(ZeroDivisionError, lambda chunk: 1 / 0, ("a", "b"))

# more than two 64 KiB chunks, with multi-byte labels
g = generate(GenSpec(family="randomgirth5", n=32, m=42, seed=3))
name = [LABELS[v % len(LABELS)] + str(v) for v in range(g.n)]
big = check("".join(f"{name[u]} {name[v]}\n" for u, v in zip(g.eu, g.ev)), brute=False)
assert len(big) > 2 * 65536, len(big)
print("cli output identical")
"""


# K_{2,100000}: full of 4-cycles, with 200 000 edges, under `auto`
MANY_4_CYCLES = r"""
from indmatch import DynamicGraph, EnumConfig, count_induced_matchings, native_available

assert native_available()
n = 100000
g = DynamicGraph(n + 2, [(hub, 2 + i) for i in range(n) for hub in (0, 1)])
print(count_induced_matchings(g, EnumConfig(solution_cutoff=1000)))
"""


@pytest.fixture(scope="module")
def built(tmp_path_factory):
    """A directory holding the package with the kernel built from source."""
    if compiler() is None:
        pytest.skip("no C compiler")
    tmp = tmp_path_factory.mktemp("native")
    lib = tmp / "lib"
    build = subprocess.run(
        [sys.executable, "setup.py", "build_ext", "--build-lib", str(lib),
         "--build-temp", str(tmp / "temp")],
        cwd=ROOT, env=dict(os.environ, CFLAGS="-Wall -Wextra -Werror -fstack-usage"),
        capture_output=True, text=True, timeout=300,
    )
    # optional=True turns a failed compile into a warning, so look for the module
    built = list((lib / "indmatch").glob("_fastcore*"))
    assert build.returncode == 0 and built, build.stdout + build.stderr
    for source in PACKAGE.glob("*.py"):
        shutil.copy(source, lib / "indmatch")
    return lib


# bytes of rec_c4free's stack frame: the native recursion stacks one per
# level, so each byte lowers the depth at which a long path overflows the
# C stack
FRAME_LIMIT = 160


def test_recursion_frame_is_bounded(built):
    # gcc's -fstack-usage writes `file:line:column:function<TAB>bytes<TAB>kind`
    # next to the object file, in the build's temporary directory
    usage = built.parent / "temp" / "src" / "indmatch" / "_fastcore.su"
    if not usage.exists():
        pytest.skip("the compiler wrote no stack-usage file")
    rows = [line.split("\t") for line in usage.read_text().splitlines()]
    frames = [int(row[1]) for row in rows if row[0].rsplit(":", 1)[1].split(".")[0] == "rec_c4free"]
    assert frames and max(frames) <= FRAME_LIMIT, frames


def run_check(lib, script, cwd):
    return subprocess.run(
        [sys.executable, "-c", script], cwd=cwd, env=dict(os.environ, PYTHONPATH=str(lib)),
        capture_output=True, text=True, timeout=600,
    )


def test_kernel_builds_cleanly_and_matches_python(built, tmp_path):
    check = run_check(built, CHECK, tmp_path)
    assert check.returncode == 0, check.stdout + check.stderr
    assert "argument errors pinned" in check.stdout
    assert "parses identical" in check.stdout


def test_cli_lines_match_python_and_brute(built, tmp_path):
    check = run_check(built, RENDER, tmp_path)
    assert check.returncode == 0, check.stdout + check.stderr
    assert "cli output identical" in check.stdout


def test_many_4_cycles_run_natively(built, tmp_path):
    run = run_check(built, MANY_4_CYCLES, tmp_path)
    assert (run.returncode, run.stdout) == (0, "1000\n"), run.stderr


def test_native_parametrised_tests_pass(built):
    # the suite's tests that compare with the kernel or run it, which skip
    # or are not collected where the package has no compiled core
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rs", "-p", "no:cacheprovider",
         "-k", "native or BackendParity or backends_report_identical_counts",
         "tests/test_enumerators.py", "tests/test_stats.py", "tests/test_edgelist.py"],
        cwd=ROOT, env=dict(os.environ, PYTHONPATH=str(built)),
        capture_output=True, text=True, timeout=600,
    )
    assert run.returncode == 0, run.stdout + run.stderr
    summary = run.stdout.strip().splitlines()[-1]
    assert " passed" in summary and "skipped" not in summary, run.stdout


@pytest.mark.parametrize("count_only", [True, False], ids=["count-only", "lines"])
def test_ctrl_c_stops_the_kernel(built, tmp_path, count_only):
    # far too many solutions to finish; lines go to the null device, since
    # the kernel renders them at well over 100 MB/s
    graph = tmp_path / "g.txt"
    graph.write_text(serialize_edge_list(generate(GenSpec("randomgirth5", 200, 240, seed=0))))
    argv = [sys.executable, "-m", "indmatch.cli", "enumerate", "--backend", "native", str(graph)]
    with open(os.devnull, "wb") as out:
        proc = subprocess.Popen(argv + ["--count-only"] * count_only, stdout=out,
                                stderr=subprocess.PIPE, env=dict(os.environ, PYTHONPATH=str(built)))
        try:
            time.sleep(0.5)
            assert proc.poll() is None, proc.communicate()[1]
            proc.send_signal(signal.SIGINT)
            _, err = proc.communicate(timeout=1)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
    assert b"KeyboardInterrupt" in err, err
