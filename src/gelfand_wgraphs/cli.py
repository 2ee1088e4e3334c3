"""
Command-line front end.

Subcommands: `insert` (play one insertion), `psi` (orbit statistics of the
transpose-comparison permutation of involutions), `graph` (build and analyse
the two Gelfand W-graphs), `verify` (run the identity suites), and `kl`
(export Kazhdan-Lusztig tables).

Exit codes: 0 success, 1 domain-precondition or self-check failure,
2 malformed input, an output option the action does not use, or an output
file that cannot be written, 3 resource cap exceeded (raise it with --force).
"""

from __future__ import annotations

import argparse
import json
import sys
from collections.abc import Iterator
from contextlib import nullcontext

from . import beissinger, gelfand, hecke, suites, wgraph
from .perm import Involution, parse_involution
from .tableau import Tableau, rs_insert

GRAPH_CAP = 8
# the output files each `graph` action writes; giving it any other is an error
GRAPH_OUTPUTS = {"build": ("out", "dot", "tables"), "molecules": ("out", "dot"),
                 "cells": ("out", "dot"), "classify": ()}
PSI_CAP = 10  # --cycles and --fixed-points enumerate I_n; one --orbit can take |I_n| steps
KL_CAP = 6  # kl and the kl suite enumerate S_n
EXIT_OK, EXIT_DOMAIN, EXIT_PARSE, EXIT_CAP = 0, 1, 2, 3


class ParseFailure(Exception):
    pass


def _load_tableau(text: str) -> Tableau:
    text = text.strip()
    if text == "-":
        text = sys.stdin.read().strip()
    elif not text.startswith("["):
        try:
            with open(text) as fh:
                text = fh.read().strip()
        except OSError as exc:
            raise ParseFailure(f"cannot read tableau file: {exc}") from exc
    try:
        rows = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseFailure(f"tableau is not valid JSON: {exc}") from exc
    if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
        raise ParseFailure("tableau JSON must be an array of arrays")
    try:
        return Tableau(rows)
    except ValueError as exc:
        raise ParseFailure(str(exc)) from exc


def _inv_json(y: Involution) -> dict:
    return {"word": list(y.word), "cycles": y.cycle_string()}


def _emit(doc, path=None):
    """
    Write doc, a string, an iterator of string chunks (a streamed export) or
    a value for json.dumps, to the file at path, ended by a newline if it
    does not end in one, or to stdout with a newline after it, as print does.
    """
    if not isinstance(doc, Iterator):
        doc = [doc if isinstance(doc, str) else json.dumps(doc)]
    with open(path, "w") if path else nullcontext(sys.stdout) as fh:
        text = ""
        for text in doc:
            fh.write(text)
        if not (path and text.endswith("\n")):
            fh.write("\n")


def cmd_insert(args) -> int:
    T = _load_tableau(args.tableau)
    if args.algo == "rs":
        if args.value is None:
            raise ParseFailure("--algo rs needs --value")
        out, _ = rs_insert(T, args.value)
    else:
        if args.pair is None:
            raise ParseFailure(f"--algo {args.algo} needs --pair a,b")
        try:
            a, b = (int(t) for t in args.pair.split(","))
        except ValueError as exc:
            raise ParseFailure(f"cannot parse pair {args.pair!r}") from exc
        if args.algo == "rbs":
            out = beissinger.rbs_insert(T, a, b)
        else:
            variant = "transposed" if args.transposed else "standard"
            out = beissinger.cbs_insert(T, a, b, variant)
    _emit([list(r) for r in out.rows], args.out)
    return EXIT_OK


def cmd_psi(args) -> int:
    y = None
    if args.orbit is not None:
        try:
            y = parse_involution(args.orbit, args.n)
        except ValueError as exc:
            raise ParseFailure(str(exc)) from exc
    if _over_cap(args, PSI_CAP):
        return EXIT_CAP
    if y is not None:
        doc = {
            "n": args.n,
            "orbit": [_inv_json(z) for z in beissinger.psi_orbit(y)],
        }
    else:
        stats = beissinger.psi_cycle_stats(args.n)
        if args.fixed_points:
            doc = {
                "n": args.n,
                "fixed_points": [_inv_json(z) for z in stats.fixed_points],
            }
        else:
            doc = {
                "n": args.n,
                "longest_cycle": stats.longest_cycle,
                "cycle_sizes": list(stats.cycle_sizes),
            }
    _emit(doc, args.out)
    return EXIT_OK


def _over_cap(args, cap: int) -> bool:
    """True, with the cap message on stderr, if n exceeds cap and --force is absent."""
    if args.n <= cap or args.force:
        return False
    print(f"n={args.n} exceeds the default cap {cap}; rerun with --force", file=sys.stderr)
    return True


def cmd_graph(args) -> int:
    for opt in ("out", "dot", "tables"):
        if getattr(args, opt) is not None and opt not in GRAPH_OUTPUTS[args.action]:
            raise ParseFailure(f"--{opt} is not used by graph {args.action}")
    if _over_cap(args, GRAPH_CAP):
        return EXIT_CAP
    reduced = not args.no_reduced
    if args.action == "classify":
        report = wgraph.classify(args.n, args.variant, reduced=reduced)
        print(f"molecules=fibers: {'OK' if report.molecules_match_fibers else 'FAIL'}")
        print(f"bidirected=combinatorial: {'OK' if report.edges_match else 'FAIL'}")
        status = "OK" if report.cells_match_molecules else "FAIL"
        print(f"molecules=cells: {status} (fibers={report.fiber_count})")
        for line in report.counterexamples:
            print(f"  {line}")
        return EXIT_OK if report.ok else EXIT_DOMAIN
    if args.tables:
        # the tables need the recursion's full run; its mu then serves the
        # graph, which alone would take the truncated run
        wgraph._gamma_model(args.n, args.variant).column_store()
    g = wgraph.build_gamma(args.n, args.variant, reduced=reduced)
    if args.action == "build":
        _emit(wgraph.export_chunks(g, "json"), args.out)
        if args.tables:
            with open(args.tables, "w") as fh:
                gelfand.tables_json(args.n, "M" if args.variant == "row" else "N", fh)
    elif args.action in ("molecules", "cells"):
        if args.action == "molecules":
            parts = wgraph.molecules(g)
            doc = {"n": args.n, "variant": args.variant, "reduced": g.reduced,
                   "molecules": [[list(g.vertices[v]) for v in part] for part in parts]}
        else:
            parts, cond = wgraph.cells(g)
            doc = {"n": args.n, "variant": args.variant, "reduced": g.reduced,
                   "cells": [[list(g.vertices[v]) for v in part] for part in parts],
                   "condensation": [list(e) for e in cond]}
        _emit(doc, args.out)
    if args.dot:
        _emit(wgraph.export_chunks(g, "dot"), args.dot)
    return EXIT_OK


def cmd_verify(args) -> int:
    # kl and all run the kl suite, like `gwg kl`; the others build graphs or enumerate I_n
    cap = KL_CAP if args.suite in ("kl", "all") else GRAPH_CAP
    if _over_cap(args, cap):
        return EXIT_CAP
    report = suites.run_suite(args.suite, args.n)
    _emit(report, args.out)
    return EXIT_OK if report["passed"] else EXIT_DOMAIN


def _kl_chunks(table) -> Iterator[str]:
    """
    The `gwg kl` document of the regular representation `table`, the text
    json.dumps gives for {"n": n, "basis": {word: [[y, [[e, c], ...]], ...]},
    "mu": [[y, w, mu(y, w)], ...]}, one basis column at a time.  Each column
    is read from the packed store, its vertices y in word order, each with
    its pairs in increasing e; mu is sorted.
    """
    words, store = table.words, table.column_store()
    sep = "" if table.n < 10 else ","
    yield '{"n": %d, "basis": {' % table.n
    for z, w in enumerate(words):
        pairs = {}
        for y, e, c in store.terms(z):
            pairs.setdefault(y, []).append([e, c])
        col = [[list(words[y]), sorted(pairs[y])] for y in sorted(pairs, key=words.__getitem__)]
        yield '%s"%s": %s' % (", " if z else "", sep.join(map(str, w)), json.dumps(col))
    mu = sorted([list(words[y]), list(words[z]), m]
                for z, col in enumerate(table.mu_columns()) for y, m in col.items())
    yield '}, "mu": %s}' % json.dumps(mu)


def cmd_kl(args) -> int:
    if _over_cap(args, KL_CAP):
        return EXIT_CAP
    table = hecke._regular(args.n)
    table.column_store()  # the full recursion, so a failed self-check writes nothing
    _emit(_kl_chunks(table), args.out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gwg",
        description="insertion algorithms and W-graphs for the Gelfand models of S_n",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("insert", help="run one insertion step")
    p.add_argument("--algo", choices=("rs", "rbs", "cbs"), required=True)
    p.add_argument("--tableau", required=True,
                   help="inline JSON rows, a filename, or - for stdin")
    p.add_argument("--value", type=int, help="value to insert (rs)")
    p.add_argument("--pair", help="pair a,b to insert (rbs/cbs)")
    p.add_argument("--transposed", action="store_true",
                   help="use the transposed column variant (cbs)")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_insert)

    p = sub.add_parser("psi", help="statistics of the transpose-comparison map")
    p.add_argument("--n", type=int, required=True)
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--cycles", action="store_true")
    mode.add_argument("--fixed-points", action="store_true")
    mode.add_argument("--orbit", help="involution, one-line or cycle notation")
    p.add_argument("--force", action="store_true",
                   help=f"lift the n<={PSI_CAP} cap")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_psi)

    p = sub.add_parser("graph", help="build or analyse a Gelfand W-graph")
    p.add_argument("action", choices=("build", "molecules", "cells", "classify"))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--variant", choices=("row", "col"), required=True)
    p.add_argument("--no-reduced", action="store_true",
                   help="keep weights with tau(v) contained in tau(w)")
    p.add_argument("--out", help="write the JSON output here (build, molecules, cells)")
    p.add_argument("--dot", help="also write the graph as DOT (build, molecules, cells)")
    p.add_argument("--tables",
                   help="also write the canonical-basis/mu tables (build only)")
    p.add_argument("--force", action="store_true",
                   help=f"lift the n<={GRAPH_CAP} cap")
    p.set_defaults(fn=cmd_graph)

    p = sub.add_parser("verify", help="run an identity suite")
    p.add_argument("--suite", required=True,
                   choices=tuple(suites.SUITES) + ("all",))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--force", action="store_true",
                   help=f"lift the n<={KL_CAP} cap of kl and all, "
                        f"n<={GRAPH_CAP} of the other suites")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("kl", help="export Kazhdan-Lusztig tables as JSON")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--force", action="store_true",
                   help=f"lift the n<={KL_CAP} cap")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_kl)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if getattr(args, "n", 1) < 1:
        print("n must be >= 1", file=sys.stderr)
        return EXIT_PARSE
    try:
        return args.fn(args)
    except ParseFailure as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_PARSE
    except OSError as exc:
        # input files are read in _load_tableau, which reports its own
        # errors, so this is an output file that could not be opened or written
        print(f"cannot write output: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (ValueError, RuntimeError) as exc:
        # RuntimeError: a self-check failed, so the result cannot be trusted:
        # a canonical-basis check (unitriangularity or the W-graph
        # certificate) or the bound on a psi orbit
        print(str(exc), file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
