"""End-to-end CLI coverage through `indmatch.cli.main`."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import indmatch
from indmatch import GenSpec, generate, serialize_edge_list
from indmatch.cli import (
    EXIT_BROKEN_PIPE,
    EXIT_NOT_C4FREE,
    EXIT_OK,
    EXIT_ORACLE_GUARD,
    EXIT_PARSE,
    main,
)
from indmatch.stats import CSV_HEADER


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return str(p)


def cli_process(args, **env):
    """`python -m indmatch.cli ARGS` in a child, importing this package."""
    path = str(Path(indmatch.__file__).resolve().parent.parent)
    return subprocess.Popen([sys.executable, "-m", "indmatch.cli", *args],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=dict(os.environ, PYTHONPATH=path, **env))


P4 = "1 2\n2 3\n3 4\n"
C4 = "1 2\n2 3\n3 4\n4 1\n"
C6 = "1 2\n2 3\n3 4\n4 5\n5 6\n6 1\n"


class TestEnumerate:
    def test_streams_canonical_lines(self, tmp_path, capsys):
        path = write(tmp_path, "p4.txt", P4)
        assert main(["enumerate", path]) == EXIT_OK
        lines = capsys.readouterr().out.strip().split("\n")
        assert sorted(lines) == ["1-2", "2-3", "3-4", "{}"]

    def test_count_only(self, tmp_path, capsys):
        path = write(tmp_path, "c6.txt", C6)
        assert main(["enumerate", "--count-only", path]) == EXIT_OK
        assert capsys.readouterr().out.strip() == "10"

    def test_cutoff(self, tmp_path, capsys):
        path = write(tmp_path, "c6.txt", C6)
        assert main(["enumerate", "--cutoff", "4", path]) == EXIT_OK
        assert len(capsys.readouterr().out.strip().split("\n")) == 4

    def test_algos_agree(self, tmp_path, capsys):
        path = write(tmp_path, "c6.txt", C6)
        outs = []
        for algo in ("brute", "general", "c4free"):
            assert main(["enumerate", "--algo", algo, path]) == EXIT_OK
            outs.append(sorted(capsys.readouterr().out.strip().split("\n")))
        assert outs[0] == outs[1] == outs[2]

    def test_assert_flags_non_c4_free(self, tmp_path, capsys):
        path = write(tmp_path, "c4.txt", C4)
        assert main(["enumerate", "--algo", "c4free", "--assert", path]) == EXIT_NOT_C4FREE
        capsys.readouterr()
        # `auto` checks the C4-free lemmas only on a C4-free graph
        assert main(["enumerate", "--assert", path]) == EXIT_OK
        assert len(capsys.readouterr().out.splitlines()) == 5

    def test_assert_on_the_native_backend(self, tmp_path, capsys):
        path = write(tmp_path, "c6.txt", C6)
        assert main(["enumerate", "--assert", "--backend", "native", path]) == EXIT_PARSE
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: "), err

    def test_native_backend_without_the_kernel(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr("indmatch.enumerate._fastcore", None)
        path = write(tmp_path, "c6.txt", C6)
        for args in (["--count-only"], []):
            assert main(["enumerate", "--backend", "native", *args, path]) == EXIT_PARSE
            assert capsys.readouterr() == (
                "", "error: native backend requested but indmatch._fastcore is not built\n")

    def test_brute_guard_exit_code(self, tmp_path, capsys):
        big = "\n".join(f"0 {i}" for i in range(1, 30)) + "\n"
        path = write(tmp_path, "star.txt", big)
        assert main(["enumerate", "--algo", "brute", path]) == EXIT_ORACLE_GUARD

    def test_parse_error_exit_code(self, tmp_path, capsys):
        path = write(tmp_path, "bad.txt", "a b c\n")
        assert main(["enumerate", path]) == EXIT_PARSE

    @pytest.mark.parametrize("text, message", [
        ("a b\n\nb c c\n", "error: line 3: expected two labels, got 3\n"),
        ("a b\nc c\n", "error: edge ('c', 'c') is a self-loop\n"),
        ("a b\nb c\nc a\nb a\n", "error: edge ('b', 'a') repeats an earlier pair\n"),
    ], ids=["parse", "self-loop", "duplicate"])
    def test_bad_input_message(self, tmp_path, capsys, text, message):
        path = write(tmp_path, "bad.txt", text)
        for command in (["enumerate"], ["check"]):
            assert main([*command, path]) == EXIT_PARSE
            assert capsys.readouterr() == ("", message)

    def test_lines_are_utf8_whatever_the_locale(self, tmp_path):
        path = write(tmp_path, "u.txt", "\u00e9 z\nz \u65e5\u672c\n")
        proc = cli_process(["enumerate", path], PYTHONIOENCODING="ascii")
        out, err = proc.communicate(timeout=60)
        assert (proc.returncode, err) == (EXIT_OK, b"")
        assert sorted(out.decode("utf-8").splitlines()) == ["z-\u00e9", "z-\u65e5\u672c", "{}"]

    def test_closed_pipe_exits_quietly(self, tmp_path):
        # about 1.3 MB of lines, far more than a pipe holds
        g = generate(GenSpec(family="randomgirth5", n=32, m=42, seed=3))
        path = write(tmp_path, "g.txt", serialize_edge_list(g))
        proc = cli_process(["enumerate", path])
        assert proc.stdout.readline()
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
        assert (proc.returncode, err) == (EXIT_BROKEN_PIPE, b"")

    def test_input_that_is_not_utf8(self, tmp_path, capsys):
        path = tmp_path / "latin.txt"
        path.write_bytes(b"\xff\xfe a b\n")
        for command in (["enumerate"], ["check"]):
            assert main([*command, str(path)]) == EXIT_PARSE
            assert capsys.readouterr() == ("", f"error: {path} is not UTF-8 text (invalid start byte)\n")

    @pytest.mark.parametrize("backend", ["python", "auto"])
    def test_backend_flag(self, tmp_path, capsys, backend):
        path = write(tmp_path, "p4.txt", P4)
        assert main(["enumerate", "--backend", backend, "--count-only", path]) == EXIT_OK
        assert capsys.readouterr().out.strip() == "4"


class TestCheck:
    def test_c6_report(self, tmp_path, capsys):
        path = write(tmp_path, "c6.txt", C6)
        assert main(["check", path]) == EXIT_OK
        assert capsys.readouterr().out.strip() == "c4free=true girth=6 n=6 m=6 max_degree=2"

    def test_forest_report(self, tmp_path, capsys):
        path = write(tmp_path, "p4.txt", P4)
        main(["check", path])
        assert "girth=none" in capsys.readouterr().out


class TestGen:
    def test_path_to_file(self, tmp_path):
        out = tmp_path / "g.txt"
        assert main(["gen", "--family", "path", "--n", "4", str(out)]) == EXIT_OK
        assert out.read_text() == "1 2\n2 3\n3 4\n"

    def test_girth5_to_stdout(self, capsys):
        assert main(["gen", "--family", "randomgirth5", "--n", "20", "--m", "24",
                     "--seed", "9", "-"]) == EXIT_OK
        out = capsys.readouterr().out
        assert len(out.strip().split("\n")) == 24

    def test_infeasible_spec(self, capsys):
        assert main(["gen", "--family", "cycle", "--n", "2", "-"]) == EXIT_PARSE

    def test_negative_size(self, capsys):
        assert main(["gen", "--family", "path", "--n", "-5", "-"]) == EXIT_PARSE
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ")

    def test_output_that_cannot_be_opened(self, tmp_path, capsys):
        out = tmp_path / "missing" / "g.txt"
        assert main(["gen", "--family", "path", "--n", "5", str(out)]) == EXIT_PARSE
        assert capsys.readouterr() == ("", f"error: [Errno 2] No such file or directory: '{out}'\n")


class TestBench:
    def test_csv_output(self, tmp_path, capsys):
        specs = write(tmp_path, "specs.txt", "# family n [m] seed\ncycle 8 0\npath 6 0\n")
        assert main(["bench", "--spec-file", specs, "--algos", "c4free,general",
                     "--repeats", "1", "-"]) == EXIT_OK
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == CSV_HEADER
        assert len(lines) == 5

    def test_bad_spec_line(self, tmp_path, capsys):
        specs = write(tmp_path, "specs.txt", "cycle eight 0\n")
        assert main(["bench", "--spec-file", specs, "-"]) == EXIT_PARSE

    def test_unknown_family(self, tmp_path, capsys):
        specs = write(tmp_path, "specs.txt", "clique 8 0\n")
        assert main(["bench", "--spec-file", specs, "-"]) == EXIT_PARSE

    def test_unknown_algorithm(self, tmp_path, capsys):
        specs = write(tmp_path, "specs.txt", "cycle 8 0\n")
        assert main(["bench", "--spec-file", specs, "--algos", "c4free,bogus", "-"]) == EXIT_PARSE
        assert capsys.readouterr() == ("", "error: unknown algorithm 'bogus'\n")

    def test_infeasible_spec(self, tmp_path, capsys):
        specs = write(tmp_path, "specs.txt", "cycle 8 0\ncycle 2 0\n")
        assert main(["bench", "--spec-file", specs, "--repeats", "1", "-"]) == EXIT_PARSE
        out, err = capsys.readouterr()
        assert out == "" and err == "error: cycle needs n >= 3\n"

    def test_native_backend_without_the_kernel(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr("indmatch.enumerate._fastcore", None)
        specs = write(tmp_path, "specs.txt", "cycle 8 0\n")
        assert main(["bench", "--spec-file", specs, "--backend", "native", "-"]) == EXIT_PARSE
        assert capsys.readouterr() == (
            "", "error: native backend requested but indmatch._fastcore is not built\n")

    def test_output_that_cannot_be_opened(self, tmp_path, capsys, monkeypatch):
        # the output is opened before the first run, so nothing runs
        def no_run(*args, **kwargs):
            raise AssertionError("the benchmark ran")

        monkeypatch.setattr("indmatch.stats.bench", no_run)
        specs = write(tmp_path, "specs.txt", "cycle 8 0\n")
        out = tmp_path / "missing" / "bench.csv"
        assert main(["bench", "--spec-file", specs, "--repeats", "1", str(out)]) == EXIT_PARSE
        assert capsys.readouterr() == ("", f"error: [Errno 2] No such file or directory: '{out}'\n")

    def test_brute_guard_exit_code(self, tmp_path, capsys):
        # path 30 has 29 edges, beyond the oracle's 25, as `enumerate --algo brute` reports
        specs = write(tmp_path, "specs.txt", "path 30 0\n")
        assert main(["bench", "--spec-file", specs, "--algos", "brute", "-"]) == EXIT_ORACLE_GUARD
        assert capsys.readouterr() == ("", "error: 29 live edges exceeds the 25-edge oracle guard\n")

    @pytest.mark.parametrize("option", ["--repeats", "--cutoff"])
    def test_counts_below_one(self, tmp_path, capsys, option):
        specs = write(tmp_path, "specs.txt", "cycle 8 0\n")
        with pytest.raises(SystemExit) as exc:
            main(["bench", "--spec-file", specs, option, "0", "-"])
        assert exc.value.code == EXIT_PARSE
        assert capsys.readouterr().err.endswith(f"error: argument {option}: must be at least 1, got 0\n")

    def test_spec_file_that_is_not_utf8(self, tmp_path, capsys):
        specs = tmp_path / "specs.txt"
        specs.write_bytes(b"cycle 8 0\n\xff\n")
        assert main(["bench", "--spec-file", str(specs), "-"]) == EXIT_PARSE
        assert capsys.readouterr().err.startswith("error: ")


class TestImportSurface:
    # what `import indmatch.cli` must not load: the Python engine, the
    # benchmark harness, and the modules whose import dominated start-up
    UNUSED_ON_THE_NATIVE_PATH = {"dataclasses", "inspect", "typing", "indmatch.degree_index",
                                 "indmatch.neighborhood", "indmatch.stats"}

    def test_cli_imports_only_what_it_runs(self):
        # -S: no site hooks, which could import `typing` themselves
        path = str(Path(indmatch.__file__).resolve().parent.parent)
        proc = subprocess.run([sys.executable, "-S", "-X", "importtime", "-c", "import indmatch.cli"],
                              capture_output=True, text=True, timeout=60,
                              env=dict(os.environ, PYTHONPATH=path))
        assert proc.returncode == 0, proc.stderr
        loaded = {line.rsplit("|", 1)[1].strip() for line in proc.stderr.splitlines()
                  if line.startswith("import time:") and line.count("|") == 2}
        assert "indmatch.cli" in loaded
        assert not loaded & self.UNUSED_ON_THE_NATIVE_PATH

    def test_every_export_resolves(self):
        assert indmatch.__all__ == [
            "BenchRow", "Classifier", "CountingSink", "DegreeIndex", "DynamicGraph",
            "EnumConfig", "EnumStats", "GenSpec", "LineSink", "ListSink", "bench",
            "build_graph", "check_c4free_local", "count_induced_matchings",
            "enumerate_brute", "enumerate_c4free", "enumerate_general",
            "enumerate_solutions", "enumerate_with_stats", "generate", "girth",
            "is_c4_free", "is_induced_matching", "native_available", "parse_edge_list",
            "rows_to_csv", "sect2", "serialize_edge_list", "solution_line",
        ]
        for name in indmatch.__all__:
            value = getattr(indmatch, name)
            assert value.__name__ == name
            assert value.__module__.startswith("indmatch.")
        with pytest.raises(AttributeError):
            indmatch.no_such_name
