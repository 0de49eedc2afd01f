"""Command-line front end.

Subcommands: ``info`` (entropies and informations), ``gate`` (canonical
distributions), ``decompose``, ``interval``, ``lift``, ``validate``,
``lattice`` and ``scan``.  ``-`` means standard input or output.  Exit
codes: 0 success, 1 a validation or feasibility failure, 2 a usage or
format error.  Computed quantities print with 9 decimal places; emitted
files carry shortest round-trip floats so pipelines reproduce exactly.

The environment variable ``INFATOM_EPS`` overrides the numerical
tolerance used by every subcommand; it must be a number in ``[0, 1)``.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Sequence

from . import decomp as dc
from . import dist
from .errors import InfatomError
from .lattice import Antichain, enumerate_antichains
from .terms import eval_term


#: Longest usage or format error printed.  Such a message may quote the
#: offending input, which can be any size.
_MAX_MESSAGE = 150


def _usage_error(message: str) -> int:
    """Print ``message`` to stderr as one short line; return exit code 2."""
    message = " ".join(message.splitlines())
    if len(message) > _MAX_MESSAGE:
        message = message[: _MAX_MESSAGE - 3] + "..."
    print(f"infatom: {message}", file=sys.stderr)
    return 2


def _fnum(x: float) -> str:
    # A value that rounds to zero prints unsigned, whatever its sign.
    text = f"{x:.9f}"
    return text[1:] if text == "-0.000000000" else text


def _read(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _write(path: str, text: str) -> None:
    if path == "-":
        sys.stdout.write(text)
        return
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _parse_varset(text: str) -> list[int]:
    # 1-based on the command line, 0-based inside.
    toks = [tok.strip() for tok in text.split(",") if tok.strip()]
    try:
        return [int(tok) - 1 for tok in toks]
    except ValueError as exc:
        raise dist.VariableSetError(f"bad variable selection {text!r}") from exc


def _parse_groups(text: str) -> list[list[int]]:
    return [_parse_varset(part) for part in text.split(";")]


# ---------------------------------------------------------------------------
# Subcommand implementations
# ---------------------------------------------------------------------------


def _cmd_info(args, eps: float) -> int:
    table = dist.load_table(_read(args.dist), eps=eps)
    lines: list[str] = []
    for text in args.entropy or []:
        lines.append(_fnum(dist.entropy(table, _parse_varset(text))))
    for text in args.mi or []:
        groups = _parse_groups(text)
        if len(groups) != 2:
            raise dist.VariableSetError(f"--mi expects 'A;B', got {text!r}")
        lines.append(_fnum(dist.mutual_information(table, *groups)))
    for text in args.cmi or []:
        parts = text.split(";")
        if len(parts) != 3:
            raise dist.VariableSetError(f"--cmi expects 'A;B;C', got {text!r}")
        a, b = _parse_varset(parts[0]), _parse_varset(parts[1])
        c = _parse_varset(parts[2]) if parts[2].strip() else []
        lines.append(_fnum(dist.conditional_mi(table, a, b, c)))
    for text in args.interaction or []:
        lines.append(_fnum(dist.interaction_information(table, _parse_groups(text))))
    if not lines:
        lines.append("variables: " + ",".join(table.variables))
        for i, name in enumerate(table.variables):
            lines.append(f"H({name}) = " + _fnum(dist.entropy(table, [i])))
        lines.append("H(all) = " + _fnum(dist.entropy(table, range(table.n))))
    print("\n".join(lines))
    return 0


def _cmd_gate(args, eps: float) -> int:
    table = dist.gen_gate(args.spec)
    text = dist.dump_json(table) + "\n" if args.emit == "json" else dist.dump_csv(table)
    _write(args.output, text)
    return 0


def _decomposition_text(d: dc.Decomposition, interval: tuple[float, float] | None) -> str:
    lines = [f"n = {d.n}"]
    if interval is not None:
        lines.append(
            f"feasible_interval = [{_fnum(interval[0])}, {_fnum(interval[1])}]"
        )
    if d.redundancy_param is not None:
        lines.append(f"redundancy_param = {_fnum(d.redundancy_param)}")
    for atom in d.atoms:
        lines.append(
            f"{atom.label.text} = {_fnum(atom.size)}  [covering {atom.covering}]"
        )
    return "\n".join(lines) + "\n"


def _cmd_decompose(args, eps: float) -> int:
    if args.parity is not None:
        if args.dist is not None or args.set_theoretic or args.redundancy is not None:
            raise dist.GateSpecError("--parity takes no distribution and no other solver flags")
        d = dc.solve_n_parity(args.parity)
        interval = None
    else:
        if args.set_theoretic and args.redundancy is not None:
            raise dist.GateSpecError("--redundancy applies to the trivariate solver only")
        if args.dist is None:
            raise dist.VariableSetError("decompose needs a distribution or --parity N")
        table = dist.load_table(_read(args.dist), eps=eps)
        if args.set_theoretic:
            d = dc.solve_set_theoretic(table, eps=eps)
            interval = None
        else:
            d = dc.solve_trivariate(table, args.redundancy, eps=eps)
            interval = dc.feasible_interval(table)
    if args.json:
        _write(args.output, dc.decomposition_to_json(d) + "\n")
    else:
        _write(args.output, _decomposition_text(d, interval))
    return 0


def _cmd_interval(args, eps: float) -> int:
    table = dist.load_table(_read(args.dist), eps=eps)
    lo, hi = dc.feasible_interval(table)
    print(f"{_fnum(lo)} {_fnum(hi)}")
    return 0


def _cmd_lift(args, eps: float) -> int:
    d = dc.decomposition_from_json(_read(args.decomp))
    table = dist.load_table(_read(args.dist), eps=eps)
    lifted = dc.lift_decomposition(d, table, eps=eps)
    _write(args.output, dc.decomposition_to_json(lifted) + "\n")
    return 0


def _cmd_validate(args, eps: float) -> int:
    d = dc.decomposition_from_json(_read(args.decomp))
    table = dist.load_table(_read(args.dist), eps=eps)
    report = dc.validate(d, table, eps=eps)
    print(report.to_json())
    return 0 if report.passed else 1


def _node_label(a: Antichain, table, eps: float) -> str:
    base = f"{a} [{a.covering}]"
    if table is None:
        return base
    tv = eval_term(table, a, eps=eps)
    if tv.is_exact:
        return f"{base} = {_fnum(tv.value)}"
    lo, hi = tv.bounds
    return f"{base} = [{_fnum(lo)},{_fnum(hi)}]"


def _cmd_lattice(args, eps: float) -> int:
    view = enumerate_antichains(args.n)
    table = None
    if args.dist is not None:
        table = dist.load_table(_read(args.dist), eps=eps)
        if table.n != args.n:
            raise dc.WrongArity(
                f"lattice over {args.n} variables, table over {table.n}"
            )
    if not args.dot:
        print("\n".join(_node_label(a, table, eps) for a in view.elements))
        return 0
    lines = ["digraph antichains {", "  rankdir=BT;"]
    for a in view.elements:
        lines.append(f'  "{a}" [label="{_node_label(a, table, eps)}"];')
    for low, high in view.hasse_edges():
        lines.append(f'  "{low}" -> "{high}";')
    lines.append("}")
    print("\n".join(lines))
    return 0


def _cmd_scan(args, eps: float) -> int:
    cards = [int(tok) for tok in args.cards.split(",") if tok.strip()]
    summary = dc.scan_random(args.samples, args.seed, cards, eps=eps)
    print(summary.to_json())
    return 0


# ---------------------------------------------------------------------------
# Parser and dispatch
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="infatom",
        description="Non-negative information-atom decompositions of discrete systems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("info", help="entropies and mutual/interaction informations")
    p.add_argument("dist", help="distribution file (CSV or JSON), or -")
    p.add_argument("--entropy", action="append", metavar="VARS", help="H of '1,2,3'")
    p.add_argument("--mi", action="append", metavar="A;B", help="I(A;B)")
    p.add_argument("--cmi", action="append", metavar="A;B;C", help="I(A;B|C); C may be empty")
    p.add_argument("--interaction", action="append", metavar="G1;G2;...", help="I_m of groups")

    p = sub.add_parser("gate", help="emit a canonical gate distribution")
    p.add_argument("spec", help="xor | and | copy | two-coins-copy | parity(N) | random(SEED,[c,..])")
    p.add_argument("--emit", choices=("csv", "json"), default="csv")
    p.add_argument("-o", "--output", default="-")

    p = sub.add_parser("decompose", help="solve an information-atom decomposition")
    p.add_argument("dist", nargs="?", default=None, help="distribution file, or -")
    p.add_argument("--redundancy", type=float, default=None, metavar="BITS")
    p.add_argument("--set-theoretic", action="store_true")
    p.add_argument("--parity", type=int, default=None, metavar="N")
    p.add_argument("--json", action="store_true", help="emit decomposition JSON")
    p.add_argument("-o", "--output", default="-")

    p = sub.add_parser("interval", help="feasible redundancy interval of a 3-variable pmf")
    p.add_argument("dist")

    p = sub.add_parser("lift", help="extend a decomposition by the joint variable")
    p.add_argument("decomp", help="decomposition JSON file, or -")
    p.add_argument("dist", help="matching distribution file")
    p.add_argument("-o", "--output", default="-")

    p = sub.add_parser("validate", help="check a decomposition against a distribution")
    p.add_argument("decomp")
    p.add_argument("dist")

    p = sub.add_parser("lattice", help="list antichains, optionally as DOT")
    p.add_argument("n", type=int)
    p.add_argument("--dot", action="store_true")
    p.add_argument("--dist", default=None, help="annotate nodes with term sizes")

    p = sub.add_parser("scan", help="random-distribution feasibility scan")
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--cards", default="2,2,2", metavar="C1,C2,C3")
    return parser


_DISPATCH = {
    "info": _cmd_info,
    "gate": _cmd_gate,
    "decompose": _cmd_decompose,
    "interval": _cmd_interval,
    "lift": _cmd_lift,
    "validate": _cmd_validate,
    "lattice": _cmd_lattice,
    "scan": _cmd_scan,
}


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed usage
        return int(exc.code or 0)
    eps_text = os.environ.get("INFATOM_EPS")
    if eps_text is not None:
        try:
            eps = float(eps_text)
            if not 0.0 <= eps < 1.0:  # eps >= 1 would admit a zero-mass table
                raise ValueError(eps_text)
        except ValueError:
            return _usage_error(f"bad INFATOM_EPS value {eps_text!r}")
    else:
        eps = dist.DEFAULT_EPS
    try:
        return _DISPATCH[args.command](args, eps)
    except InfatomError as exc:
        # Input-contract errors are ValueErrors; the rest are mathematical.
        if isinstance(exc, ValueError):
            return _usage_error(str(exc))
        print(f"infatom: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        return _usage_error(str(exc))


if __name__ == "__main__":
    raise SystemExit(main())
