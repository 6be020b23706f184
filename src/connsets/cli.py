"""Command-line front end.

Subcommands
-----------

``count``      exact counts for one graph (totals, rooted, pairs)
``family``     build a named family instance, print graph6 and, on request, its count
``enumerate``  stream all n-vertex bicyclic graphs, each with what ``count`` prints
``transform``  apply one of the named surgeries to a graph
``verify``     run a claim sweep and emit a machine-readable report; ``--n``
               is the one order of min, max and vertex-bound and the top
               order of closed-forms and tree-bound, and ``--cap`` caps the
               corpus order, the oracle (closed-forms) or the tree order
               (tree-bound); lemmas ignores both

Layers load on demand: the module imports only the standard library and
``errors`` (which holds ``DEFAULT_ORACLE_CAP`` for the help text), so
building the parser loads no layer, and each command imports the layers
it runs when it starts.

Inputs are graph6 strings, edge-list files, or family spec strings such
as ``L:9`` or ``theta:2,3,4``; exactly one input source per invocation.
Outputs are deterministic given the seed, so identical invocations yield
byte-identical files.  Exit codes: 0 success, 1 failed verification,
2 usage errors, 3 invalid requests (``ContractViolationError``), 4 size
caps (``ResourceCapError``), 5 malformed input (``FormatError``) or an
unreadable or unwritable file.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import nullcontext
from pathlib import Path
from typing import TYPE_CHECKING

from .errors import DEFAULT_ORACLE_CAP, ContractViolationError, FormatError, ResourceCapError

if TYPE_CHECKING:
    from typing import Iterable

    from .graphs import Graph

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_CONTRACT = 3
EXIT_CAP = 4
EXIT_FORMAT = 5


def _add_input_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--graph6",
        help="inline graph6 string; Linux limits one command-line argument to "
        "128 KiB, which graph6 exceeds above 1254 vertices: pass such graphs with --file",
    )
    parser.add_argument("--file", help="path to a graph6 or edge-list file")
    parser.add_argument("--family", help="family spec string, e.g. L:9")


def _load_graph(args: argparse.Namespace) -> Graph:
    from .families import build, parse_family_spec
    from .graphs import from_edge_list, from_graph6

    sources = [s for s in (args.graph6, args.file, getattr(args, "family", None)) if s]
    if len(sources) != 1:
        raise ContractViolationError(
            "exactly one input source is required (--graph6, --file or --family)"
        )
    if args.graph6:
        return from_graph6(args.graph6)
    if args.file:
        try:
            text = Path(args.file).read_text()
        except UnicodeDecodeError:
            raise FormatError(f"{args.file} is not UTF-8 text") from None
        stripped = text.lstrip()
        if stripped and stripped.split(None, 1)[0].isdigit():
            return from_edge_list(text)
        first = next((ln for ln in text.splitlines() if ln.strip()), "")
        return from_graph6(first)
    return build(parse_family_spec(args.family))


def _emit(chunks: Iterable[str], out: str | None) -> None:
    """Write ``chunks`` to ``--out`` or stdout, opened once, flushing each
    chunk so that what was written survives an interruption."""
    with open(out, "w") if out else nullcontext(sys.stdout) as handle:
        for chunk in chunks:
            handle.write(chunk)
            handle.flush()


def _check_out(out: str | None) -> None:
    """Fail before any work, and without creating ``--out``, where writing
    it would fail: a directory, or a file in a missing or read-only one."""
    if out and (Path(out).is_dir() or not os.access(Path(out).parent, os.W_OK)):
        raise OSError(f"cannot write --out {out}: not a file in a writable directory")


def _check_cap(cap: int | None) -> None:
    if cap is not None and cap < 1:
        raise ContractViolationError(f"--cap must be at least 1, got {cap}")


def _cmd_count(args: argparse.Namespace) -> int:
    from .counting import smart_count, smart_count_pair, smart_count_rooted

    g = _load_graph(args)
    lines = []
    if args.root is None and args.pair is None:
        lines.append(str(smart_count(g, args.cap).total))
    if args.root is not None:
        lines.append(str(smart_count_rooted(g, args.root, args.cap).value))
    if args.pair is not None:
        try:
            u, v = (int(tok) for tok in args.pair.split(","))
        except ValueError:
            raise FormatError("--pair expects two comma-separated vertex ids") from None
        lines.append(str(smart_count_pair(g, u, v, args.cap)))
    _emit(["\n".join(lines) + "\n"], args.out)
    return EXIT_OK


def _cmd_family(args: argparse.Namespace) -> int:
    from .counting import smart_count
    from .families import build, parse_family_spec
    from .graphs import to_graph6

    g = build(parse_family_spec(args.spec))
    lines = [to_graph6(g)]
    if args.count:
        lines.append(str(smart_count(g, args.cap).total))
    _emit(["\n".join(lines) + "\n"], args.out)
    return EXIT_OK


_CAP_HELP = (
    f"largest block, other than a cycle, counted by enumeration (default {DEFAULT_ORACLE_CAP})"
)

def _cmd_enumerate(args: argparse.Namespace) -> int:
    from .canon import canonical_certificate
    from .counting import smart_count
    from .enumeration import enumerate_bicyclic, extract_core
    from .graphs import to_graph6

    graphs = enumerate_bicyclic(args.n, args.cap)

    def rows():
        if args.format == "csv":
            yield "graph6,certificate,connected_sets,core_kind\n"
            for g in graphs:
                c = smart_count(g).total
                yield f"{to_graph6(g)},{canonical_certificate(g)},{c},{extract_core(g)[0]}\n"
        else:
            for g in graphs:
                yield f"{to_graph6(g)} {smart_count(g).total}\n"
        # Trailing summary marks completion; consumers must check it.
        yield f"# complete n={args.n} classes={len(graphs)}\n"

    _emit(rows(), args.out)
    return EXIT_OK


def _parse_vertex_list(text: str, g: Graph) -> int:
    from .graphs import check_vertices, mask_of

    try:
        ids = [int(tok) for tok in text.split(",")]
    except ValueError:
        raise FormatError("--cycle expects comma-separated vertex ids") from None
    check_vertices(g, sorted(ids))
    return mask_of(ids)


def _cmd_transform(args: argparse.Namespace) -> int:
    from .graphs import from_graph6, to_graph6
    from .transforms import branch_shift, cycle_to_tadpole, part_to_q, subtree_to_star

    if args.surgery == "branch-shift":
        needed = (args.left, args.mid, args.right, args.mid_u, args.mid_v)
        if any(x is None for x in needed):
            raise ContractViolationError(
                "branch-shift needs --left, --mid, --right, --mid-u and --mid-v"
            )
        shift = branch_shift(
            from_graph6(args.left),
            args.left_vertex,
            from_graph6(args.mid),
            args.mid_u,
            args.mid_v,
            from_graph6(args.right),
            args.right_vertex,
        )
        payload = {
            "apart_graph6": to_graph6(shift.glued_apart),
            "left_graph6": to_graph6(shift.glued_left),
            "right_graph6": to_graph6(shift.glued_right),
            "delta_left": shift.delta_left,
            "delta_right": shift.delta_right,
        }
        _emit([json.dumps(payload, sort_keys=True) + "\n"], args.out)
        return EXIT_OK
    g = _load_graph(args)
    if args.surgery == "subtree-to-star":
        if args.root is None:
            raise ContractViolationError("subtree-to-star needs --root")
        outcome = subtree_to_star(g, args.root)
    else:
        if args.cycle is None or args.anchor is None:
            raise ContractViolationError(f"{args.surgery} needs --cycle and --anchor")
        surgery = cycle_to_tadpole if args.surgery == "cycle-to-tadpole" else part_to_q
        outcome = surgery(g, _parse_vertex_list(args.cycle, g), args.anchor)
    payload = {
        "result_graph6": to_graph6(outcome.result),
        "predicted_delta": outcome.predicted_delta,
        "applied": outcome.applied,
        "family": outcome.family_name,
    }
    _emit([json.dumps(payload, sort_keys=True) + "\n"], args.out)
    return EXIT_OK


# Each runner takes the ``verify`` module, imported when ``verify`` runs.
_CLAIM_RUNNERS = {
    "min": lambda verify, args: [
        verify.verify_minimum(n, cap=args.cap)
        for n in _span(args, default_lo=5, default_hi=10)
    ],
    "max": lambda verify, args: [
        verify.verify_maximum(n, cap=args.cap)
        for n in _span(args, default_lo=5, default_hi=10)
    ],
    "vertex-bound": lambda verify, args: [
        verify.verify_vertex_bound(n, cap=args.cap)
        for n in _span(args, default_lo=4, default_hi=9)
    ],
    "closed-forms": lambda verify, args: [
        verify.verify_closed_forms(**_order(args), cap=args.cap)
    ],
    "lemmas": lambda verify, args: [
        verify.verify_lemma_algebra(
            trials=500, seed=args.seed, pendant_trials=200, branch_trials=200
        )
    ],
    "tree-bound": lambda verify, args: [
        verify.verify_tree_bound(**_order(args), cap=args.cap)
    ],
}


def _order(args: argparse.Namespace) -> dict[str, int]:
    """``--n`` as a sweep's top order, passed only when given."""
    return {} if args.n is None else {"max_n": args.n}


def _span(args: argparse.Namespace, default_lo: int, default_hi: int) -> range:
    if args.n is not None:
        return range(args.n, args.n + 1)
    return range(default_lo, default_hi + 1)


def _cmd_verify(args: argparse.Namespace) -> int:
    if args.n is not None and args.n < 1:
        raise ContractViolationError(f"--n must be at least 1, got {args.n}")
    from . import verify

    claims = list(_CLAIM_RUNNERS) if args.claim == "all" else [args.claim]
    reports = []
    for claim in claims:
        reports.extend(_CLAIM_RUNNERS[claim](verify, args))
    if args.format == "csv":
        text = verify.reports_to_csv(reports)
    else:
        text = "\n".join(rep.to_json() for rep in reports) + "\n"
    _emit([text], args.out)
    failed = [rep for rep in reports if rep.status == verify.FAIL]
    for rep in failed:
        print(f"FAILED: {rep.claim} at n={rep.n_lo}", file=sys.stderr)
    return EXIT_VERIFY_FAILED if failed else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="connsets",
        description="Exact connected-set counting for small graphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_count = sub.add_parser("count", help="count connected sets of one graph")
    _add_input_flags(p_count)
    p_count.add_argument("--root", type=int, help="also count through this vertex")
    p_count.add_argument("--pair", help="count through both of u,v")
    p_count.add_argument("--cap", type=int, help=_CAP_HELP)
    p_count.add_argument("--out", help="write output here instead of stdout")
    p_count.set_defaults(func=_cmd_count)

    p_family = sub.add_parser("family", help="build a named family instance")
    p_family.add_argument("spec", help="family spec, e.g. L:9 or dumbbell:3,4,2")
    p_family.add_argument(
        "--count", action="store_true", help="also print what count --family prints"
    )
    p_family.add_argument("--cap", type=int, help=_CAP_HELP)
    p_family.add_argument("--out", help="write output here instead of stdout")
    p_family.set_defaults(func=_cmd_family)

    p_enum = sub.add_parser("enumerate", help="stream all n-vertex bicyclic graphs and counts")
    p_enum.add_argument("--n", type=int, required=True)
    p_enum.add_argument("--cap", type=int, help="enumeration size cap override")
    p_enum.add_argument("--format", choices=("graph6", "csv"), default="graph6")
    p_enum.add_argument("--out", help="write output here instead of stdout")
    p_enum.set_defaults(func=_cmd_enumerate)

    p_tr = sub.add_parser("transform", help="apply a named surgery")
    p_tr.add_argument(
        "surgery",
        choices=("cycle-to-tadpole", "subtree-to-star", "part-to-q", "branch-shift"),
    )
    _add_input_flags(p_tr)
    p_tr.add_argument("--cycle", help="comma-separated cycle vertex ids")
    p_tr.add_argument("--anchor", type=int)
    p_tr.add_argument("--root", type=int, help="attachment root for subtree-to-star")
    p_tr.add_argument("--left", help="graph6 of the first side part (branch-shift)")
    p_tr.add_argument("--left-vertex", type=int, default=0)
    p_tr.add_argument("--mid", help="graph6 of the middle part (branch-shift)")
    p_tr.add_argument("--mid-u", type=int)
    p_tr.add_argument("--mid-v", type=int)
    p_tr.add_argument("--right", help="graph6 of the second side part (branch-shift)")
    p_tr.add_argument("--right-vertex", type=int, default=0)
    p_tr.add_argument("--out", help="write output here instead of stdout")
    p_tr.set_defaults(func=_cmd_transform)

    p_ver = sub.add_parser("verify", help="run a claim sweep")
    p_ver.add_argument(
        "claim",
        choices=tuple(_CLAIM_RUNNERS) + ("all",),
    )
    p_ver.add_argument(
        "--n",
        type=int,
        help="the one order for min, max and vertex-bound; the top order of "
        "closed-forms and tree-bound; lemmas ignores it",
    )
    p_ver.add_argument("--seed", type=int, default=2024)
    p_ver.add_argument(
        "--cap",
        type=int,
        help="corpus-order cap for min, max and vertex-bound; oracle vertices "
        "for closed-forms; tree-order cap for tree-bound; lemmas ignores it",
    )
    p_ver.add_argument("--format", choices=("json", "csv"), default="json")
    p_ver.add_argument("--out", help="write output here instead of stdout")
    p_ver.set_defaults(func=_cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_out(args.out)
        _check_cap(getattr(args, "cap", None))
        return args.func(args)
    except ResourceCapError as exc:
        print(f"size cap exceeded: {exc}", file=sys.stderr)
        return EXIT_CAP
    except ContractViolationError as exc:
        print(f"invalid request: {exc}", file=sys.stderr)
        return EXIT_CONTRACT
    except FormatError as exc:
        print(f"malformed input: {exc}", file=sys.stderr)
        return EXIT_FORMAT
    except OSError as exc:
        print(f"file error: {exc}", file=sys.stderr)
        return EXIT_FORMAT


if __name__ == "__main__":
    sys.exit(main())
