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

    def test_brute_guard_exit_code(self, tmp_path, capsys):
        big = "\n".join(f"0 {i}" for i in range(1, 30)) + "\n"
        path = write(tmp_path, "star.txt", big)
        assert main(["enumerate", "--algo", "brute", path]) == EXIT_ORACLE_GUARD

    def test_parse_error_exit_code(self, tmp_path, capsys):
        path = write(tmp_path, "bad.txt", "a b c\n")
        with pytest.raises(SystemExit) as exc:
            main(["enumerate", path])
        assert exc.value.code == EXIT_PARSE

    @pytest.mark.parametrize("text, message", [
        ("a b\n\nb c c\n", "error: line 3: expected two labels, got 3\n"),
        ("a b\nc c\n", "error: edge ('c', 'c') is a self-loop\n"),
        ("a b\nb c\nc a\nb a\n", "error: edge ('b', 'a') repeats an earlier pair\n"),
    ], ids=["parse", "self-loop", "duplicate"])
    def test_bad_input_message(self, tmp_path, capsys, text, message):
        path = write(tmp_path, "bad.txt", text)
        for command in (["enumerate"], ["check"]):
            with pytest.raises(SystemExit) as exc:
                main([*command, path])
            assert exc.value.code == EXIT_PARSE
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
            with pytest.raises(SystemExit) as exc:
                main([*command, str(path)])
            assert exc.value.code == EXIT_PARSE
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
