"""Command-line interface: enumerate, check, gen, and bench subcommands."""

from __future__ import annotations

import argparse
import os
import sys

from . import analysis, edgelist
from .enumerate import ALGORITHMS, BACKENDS, CountingSink, EnumConfig, enumerate_solutions
from .errors import (
    BackendUnavailable,
    IndmatchError,
    InfeasibleSpec,
    NotC4Free,
    ParseError,
    TooLargeForOracle,
)

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_NOT_C4FREE = 3
EXIT_ORACLE_GUARD = 4
# stdout was closed early (`indmatch enumerate G | head`): 128 + SIGPIPE,
# the status a shell reports for a process killed by SIGPIPE
EXIT_BROKEN_PIPE = 141


def _read_text(path: str) -> str:
    """The file's text; a file that is not UTF-8 raises `ParseError`."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path} is not UTF-8 text ({exc.reason})") from None


def _write_text(path: str, text: str) -> int:
    """Writes text to stdout for `-`, else to the file at path; a file
    that cannot be opened or written is an error with exit status 2."""
    if path == "-":
        sys.stdout.write(text)
        return EXIT_OK
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    return EXIT_OK


def _read_graph(path: str):
    try:
        return edgelist.parse_edge_list(_read_text(path))
    except (OSError, IndmatchError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_PARSE)


def cmd_enumerate(args) -> int:
    g = _read_graph(args.input)
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
    try:
        total = enumerate_solutions(g, sink, config)
        if args.count_only:
            out.write(f"{total}\n")
        out.flush()
    except NotC4Free as exc:
        print(f"error: not C4-free: {exc}", file=sys.stderr)
        return EXIT_NOT_C4FREE
    except TooLargeForOracle as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ORACLE_GUARD
    except BackendUnavailable as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except BrokenPipeError:
        # The reader is gone: stop, and point stdout at devnull so the
        # flush at interpreter exit stays quiet (Python docs, "Note on SIGPIPE").
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, out.fileno())
        os.close(devnull)
        return EXIT_BROKEN_PIPE
    return EXIT_OK


def _cutoff(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"cutoff must be at least 1, got {value}")
    return value


def cmd_check(args) -> int:
    g = _read_graph(args.input)
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
    try:
        g = analysis.generate(spec)
    except IndmatchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    return _write_text(args.output, edgelist.serialize_edge_list(g))


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

    try:
        specs = _parse_spec_file(_read_text(args.spec_file))
    except (OSError, ParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    algos = [a.strip() for a in args.algos.split(",") if a.strip()]
    unknown = [a for a in algos if a not in ALGORITHMS]
    if unknown:
        print(f"error: unknown algorithm {unknown[0]!r}", file=sys.stderr)
        return EXIT_PARSE
    try:
        rows = stats.bench(specs, algos, cutoff=args.cutoff, repeats=args.repeats,
                           backend=args.backend)
    except (InfeasibleSpec, BackendUnavailable) as exc:  # a spec or backend that cannot run
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    return _write_text(args.output, stats.rows_to_csv(rows))


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="indmatch", description="Induced matching enumeration")
    sub = p.add_subparsers(dest="command", required=True)

    pe = sub.add_parser("enumerate", help="stream all induced matchings of an edge-list file")
    pe.add_argument("input")
    pe.add_argument("--algo", choices=ALGORITHMS, default="auto")
    pe.add_argument("--cutoff", type=_cutoff, default=None)
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
    pb.add_argument("--cutoff", type=_cutoff, default=None)
    pb.add_argument("--repeats", type=int, default=3)
    pb.add_argument("--backend", choices=BACKENDS, default="auto")
    pb.add_argument("output")
    pb.set_defaults(func=cmd_bench)

    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
