"""Command-line interface: enumerate, check, gen, and bench subcommands."""

from __future__ import annotations

import argparse
import os
import sys

from . import analysis, edgelist
from .enumerate import ALGORITHMS, BACKENDS, CountingSink, EnumConfig, enumerate_solutions
from .errors import IndmatchError, NotC4Free, ParseError, TooLargeForOracle

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_NOT_C4FREE = 3
EXIT_ORACLE_GUARD = 4
# stdout was closed early (`indmatch enumerate G | head`): 128 + SIGPIPE,
# the status a shell reports for a process killed by SIGPIPE
EXIT_BROKEN_PIPE = 141

# The errors every subcommand reports with one `error:` line instead of a
# traceback: (class, exit status, message prefix), the first match wins.
# Bad input, a file that cannot be opened, a spec that names no graph and
# a backend that cannot run all exit 2.
EXIT_STATUS = (
    (NotC4Free, EXIT_NOT_C4FREE, "not C4-free: "),
    (TooLargeForOracle, EXIT_ORACLE_GUARD, ""),
    (IndmatchError, EXIT_PARSE, ""),
    (OSError, EXIT_PARSE, ""),
)


def _read_text(path: str) -> str:
    """The file's text; a file that is not UTF-8 raises `ParseError`."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path} is not UTF-8 text ({exc.reason})") from None


def _write_output(path: str, make_text) -> int:
    """Opens the output, stdout for `-`, and then writes the text that
    make_text() returns, so a file that cannot be opened fails before
    the work does."""
    if path == "-":
        sys.stdout.write(make_text())
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(make_text())
    return EXIT_OK


def cmd_enumerate(args) -> int:
    g = edgelist.parse_edge_list(_read_text(args.input))
    config = EnumConfig(
        algorithm=args.algo,
        assertion_mode=args.assert_mode,
        solution_cutoff=args.cutoff,
        backend=args.backend,
    )
    out = sys.stdout
    if args.count_only:
        sink = CountingSink()
    else:
        # lines are UTF-8 bytes whatever the locale, written past the text layer
        out.flush()
        sink = edgelist.LineSink(g, out.buffer.write)
    total = enumerate_solutions(g, sink, config)
    if args.count_only:
        out.write(f"{total}\n")
    out.flush()
    return EXIT_OK


def _at_least_one(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def cmd_check(args) -> int:
    g = edgelist.parse_edge_list(_read_text(args.input))
    c4 = str(analysis.is_c4_free(g)).lower()
    gg = analysis.girth(g)
    max_deg = max(g.degree, default=0)
    print(
        f"c4free={c4} girth={gg if gg is not None else 'none'} "
        f"n={g.n} m={g.m} max_degree={max_deg}"
    )
    return EXIT_OK


def cmd_gen(args) -> int:
    spec = analysis.GenSpec(family=args.family, n=args.n, m=args.m, seed=args.seed)
    return _write_output(args.output, lambda: edgelist.serialize_edge_list(analysis.generate(spec)))


def _parse_spec_file(text: str) -> list[analysis.GenSpec]:
    specs = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        try:
            if len(tokens) == 3:
                family, n, seed = tokens[0], int(tokens[1]), int(tokens[2])
                m: int | None = None
            elif len(tokens) == 4:
                family, n, m, seed = tokens[0], int(tokens[1]), int(tokens[2]), int(tokens[3])
            else:
                raise ValueError(f"expected `family n [m] seed`, got {len(tokens)} fields")
            if family not in analysis.FAMILIES:
                raise ValueError(f"unknown family {family!r}")
        except ValueError as exc:
            raise ParseError(f"spec line {lineno}: {exc}") from None
        specs.append(analysis.GenSpec(family=family, n=n, m=m, seed=seed))
    return specs


def cmd_bench(args) -> int:
    from . import stats  # only this subcommand runs the harness

    specs = _parse_spec_file(_read_text(args.spec_file))
    algos = [a.strip() for a in args.algos.split(",") if a.strip()]
    unknown = [a for a in algos if a not in ALGORITHMS]
    if unknown:
        raise ParseError(f"unknown algorithm {unknown[0]!r}")
    return _write_output(args.output, lambda: stats.rows_to_csv(stats.bench(
        specs, algos, cutoff=args.cutoff, repeats=args.repeats, backend=args.backend)))


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="indmatch", description="Induced matching enumeration")
    sub = p.add_subparsers(dest="command", required=True)

    pe = sub.add_parser("enumerate", help="stream all induced matchings of an edge-list file")
    pe.add_argument("input")
    pe.add_argument("--algo", choices=ALGORITHMS, default="auto")
    pe.add_argument("--cutoff", type=_at_least_one, default=None)
    pe.add_argument("--count-only", action="store_true")
    pe.add_argument("--assert", dest="assert_mode", action="store_true",
                    help="check the C4-free lemmas at every iteration under c4free, "
                         "or auto on a C4-free graph (python backend)")
    pe.add_argument("--backend", choices=BACKENDS, default="auto")
    pe.set_defaults(func=cmd_enumerate)

    pc = sub.add_parser("check", help="report C4-freeness, girth and sizes")
    pc.add_argument("input")
    pc.set_defaults(func=cmd_check)

    pg = sub.add_parser("gen", help="generate a graph family to an edge-list file")
    pg.add_argument("--family", choices=list(analysis.FAMILIES), required=True)
    pg.add_argument("--n", type=int, required=True)
    pg.add_argument("--m", type=int, default=None)
    pg.add_argument("--seed", type=int, default=0)
    pg.add_argument("output")
    pg.set_defaults(func=cmd_gen)

    pb = sub.add_parser("bench", help="run the benchmark harness, write CSV")
    pb.add_argument("--spec-file", required=True)
    pb.add_argument("--algos", default="c4free")
    pb.add_argument("--cutoff", type=_at_least_one, default=None)
    pb.add_argument("--repeats", type=_at_least_one, default=3)
    pb.add_argument("--backend", choices=BACKENDS, default="auto")
    pb.add_argument("output")
    pb.set_defaults(func=cmd_bench)

    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # The reader is gone: stop, and point stdout at devnull so the
        # flush at interpreter exit stays quiet (Python docs, "Note on SIGPIPE").
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_BROKEN_PIPE
    except tuple(cls for cls, _, _ in EXIT_STATUS) as exc:
        status, prefix = next((s, p) for cls, s, p in EXIT_STATUS if isinstance(exc, cls))
        print(f"error: {prefix}{exc}", file=sys.stderr)
        return status


if __name__ == "__main__":
    raise SystemExit(main())
