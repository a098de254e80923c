"""Command-line interface: JSON in, JSON or aligned text out.

Subcommands
    witt classify      --form F.json
    maslov compute     --loop L.json
    maslov pair        --q0 A.json --q1 B.json
    maslov real        --poly "c0,c1,..." | --preset paper-example
    lagrangian check   --module S.json
    qca apply          --circuit C.json --module S.json
    lgroup table       --p P [--d D]

Every --something argument accepts either a file path or inline JSON.
Exit codes: 0 success, 2 validation error, 3 unsupported-ring error;
failures print a machine-readable {"error": code, "detail": ...} object.
MASLOVKIT_COLOR={auto,never} controls ANSI color in text output only.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import serialize
from .errors import DomainError, MaslovkitError, UnsupportedRing
from .forms import witt_class
from .lgroups import classify_loops, fundamental_ideal_group, lgroup
from .pauli import apply as pauli_apply
from .pauli import lagrangian_report
from .realmaslov import RealPolynomial, preset_polynomial, real_maslov
from .sturm import loop_from_pair, maslov_index


def _use_color() -> bool:
    mode = os.environ.get("MASLOVKIT_COLOR", "auto")
    if mode == "never":
        return False
    return sys.stdout.isatty()


def _bold(text: str) -> str:
    if _use_color():
        return f"\x1b[1m{text}\x1b[0m"
    return text


def _load_json(arg: str, what: str):
    text = arg
    if not arg.lstrip().startswith(("{", "[")):
        try:
            with open(arg, "r", encoding="utf-8") as handle:
                text = handle.read()
        except OSError as exc:
            raise DomainError(f"{what}: cannot read {arg!r}: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise DomainError(f"{what}: malformed JSON: {exc}") from exc


def _emit(payload) -> None:
    sys.stdout.write(json.dumps(payload, indent=2) + "\n")


def _emit_text(lines) -> None:
    sys.stdout.write("\n".join(lines) + "\n")


def _bool_str(flag: bool) -> str:
    return "true" if flag else "false"


# -- subcommand bodies -------------------------------------------------------


def _cmd_witt_classify(args) -> int:
    form = serialize.decode_form(_load_json(args.form, "form"))
    cls = witt_class(form)
    payload = serialize.encode_witt(cls)
    if args.format == "json":
        _emit(payload)
    else:
        _emit_text([f"p = {cls.p}", f"class = {cls.class_name}"])
    return 0


def _emit_maslov(result, fmt: str) -> int:
    if fmt == "json":
        _emit(serialize.encode_maslov_result(result))
        return 0
    lines = []
    if result.witt is not None:
        lines.append(f"witt class = {result.witt.class_name} (p = {result.witt.p})")
    lines.append(f"rank parity = {result.rank_parity}")
    lines.append(f"determinant = {result.determinant!r}")
    lines.append(f"representative dimension = {result.form.dim}")
    _emit_text(lines)
    return 0


def _cmd_maslov_compute(args) -> int:
    loop = serialize.decode_loop(_load_json(args.loop, "loop"))
    return _emit_maslov(maslov_index(loop), args.format)


def _cmd_maslov_pair(args) -> int:
    q0 = serialize.decode_form(_load_json(args.q0, "q0"))
    q1 = serialize.decode_form(_load_json(args.q1, "q1"))
    return _emit_maslov(maslov_index(loop_from_pair(q0, q1)), args.format)


def _cmd_maslov_real(args) -> int:
    if (args.poly is None) == (args.preset is None):
        raise DomainError("provide exactly one of --poly or --preset")
    if args.preset is not None:
        poly = preset_polynomial(args.preset)
    else:
        try:
            coeffs = [float(c) for c in args.poly.split(",") if c.strip()]
        except ValueError as exc:
            raise DomainError(f"--poly: bad coefficient list: {exc}") from exc
        if not coeffs:
            raise DomainError("--poly: empty coefficient list")
        poly = RealPolynomial(coeffs)
    index = real_maslov(poly)
    if args.format == "json":
        _emit({"maslov_index": index})
    else:
        _emit_text([str(index)])
    return 0


def _cmd_lagrangian_check(args) -> int:
    module = serialize.decode_module(_load_json(args.module, "module"))
    report = lagrangian_report(module)
    if args.format == "json":
        _emit(report)
    else:
        _emit_text([f"{key} = {_bool_str(val)}" for key, val in report.items()])
    return 0


def _cmd_qca_apply(args) -> int:
    module = serialize.decode_module(_load_json(args.module, "module"))
    circuit = serialize.decode_circuit(_load_json(args.circuit, "circuit"))
    for step in circuit:
        module = pauli_apply(step, module)
    payload = serialize.encode_module(module)
    if args.format == "json":
        _emit(payload)
    else:
        lines = [f"N = {module.ambient.N}", "generators:"]
        gens = module.generators
        for j in range(gens.cols):
            parts = [repr(gens[i, j]) for i in range(gens.rows)]
            lines.append("  (" + ", ".join(parts) + ")")
        _emit_text(lines)
    return 0


def _cmd_lgroup_table(args) -> int:
    p = args.p
    d_max = args.d if args.d is not None else 4
    if d_max < 0 or d_max > 4:
        raise UnsupportedRing("the table is validated for 0 <= d <= 4")
    dims = list(range(d_max + 1))
    lrows = [
        {"n": n, "groups": [serialize.encode_group(lgroup(n, d, p)) for d in dims]}
        for n in range(4)
    ]
    ideals = [serialize.encode_group(fundamental_ideal_group(d, p)) for d in dims]
    loops = [serialize.encode_group(classify_loops(d, p)) for d in dims]
    if args.format == "json":
        _emit(
            {
                "p": p,
                "residue_mod_4": p % 4,
                "d_max": d_max,
                "lgroups": lrows,
                "fundamental_ideals": ideals,
                "loop_classes": loops,
            }
        )
        return 0
    header = ["group"] + [f"d={d}" for d in dims]
    rows = [header]
    for row in lrows:
        rows.append([f"L_{row['n']}"] + [g["name"] for g in row["groups"]])
    rows.append(["I"] + [g["name"] for g in ideals])
    rows.append(["OmegaC"] + [g["name"] for g in loops])
    widths = [max(len(r[i]) for r in rows) for i in range(len(header))]
    lines = [_bold(f"classification table, p = {p} (p = {p % 4} mod 4)")]
    for k, row in enumerate(rows):
        line = "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row))
        lines.append(_bold(line) if k == 0 else line)
    _emit_text(lines)
    return 0


# -- parser ------------------------------------------------------------------


def _add_format(parser: argparse.ArgumentParser, default: str = "json"):
    parser.add_argument(
        "--format", choices=("json", "text"), default=default, help="output format"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="maslovkit",
        description="Exact Clifford-QCA computations on JSON inputs",
    )
    top = parser.add_subparsers(dest="group", required=True)

    witt = top.add_parser("witt", help="Witt classification of forms")
    witt_sub = witt.add_subparsers(dest="action", required=True)
    classify = witt_sub.add_parser("classify", help="Witt class of a form over F_p")
    classify.add_argument("--form", required=True, help="form JSON (path or inline)")
    _add_format(classify)
    classify.set_defaults(func=_cmd_witt_classify)

    maslov = top.add_parser("maslov", help="Maslov indices of loops")
    maslov_sub = maslov.add_subparsers(dest="action", required=True)
    compute = maslov_sub.add_parser("compute", help="index of an encoded loop")
    compute.add_argument("--loop", required=True, help="loop JSON (path or inline)")
    _add_format(compute)
    compute.set_defaults(func=_cmd_maslov_compute)
    pair = maslov_sub.add_parser("pair", help="index of the loop built from q0, q1")
    pair.add_argument("--q0", required=True, help="form JSON (path or inline)")
    pair.add_argument("--q1", required=True, help="form JSON (path or inline)")
    _add_format(pair)
    pair.set_defaults(func=_cmd_maslov_pair)
    real = maslov_sub.add_parser("real", help="classical index of (P, P')")
    real.add_argument("--poly", help="comma-separated coefficients, lowest first")
    real.add_argument("--preset", help="named preset polynomial")
    _add_format(real, default="text")
    real.set_defaults(func=_cmd_maslov_real)

    lagrangian = top.add_parser("lagrangian", help="stabilizer module checks")
    lagrangian_sub = lagrangian.add_subparsers(dest="action", required=True)
    check = lagrangian_sub.add_parser("check", help="isotropy/coisotropy/summand")
    check.add_argument("--module", required=True, help="module JSON (path or inline)")
    _add_format(check)
    check.set_defaults(func=_cmd_lagrangian_check)

    qca = top.add_parser("qca", help="Clifford QCA actions")
    qca_sub = qca.add_subparsers(dest="action", required=True)
    apply_cmd = qca_sub.add_parser("apply", help="apply a circuit to a module")
    apply_cmd.add_argument("--circuit", required=True, help="circuit JSON")
    apply_cmd.add_argument("--module", required=True, help="module JSON")
    _add_format(apply_cmd)
    apply_cmd.set_defaults(func=_cmd_qca_apply)

    lgroup_cmd = top.add_parser("lgroup", help="L-group classification tables")
    lgroup_sub = lgroup_cmd.add_subparsers(dest="action", required=True)
    table = lgroup_sub.add_parser("table", help="table of L_n, I and OmegaC")
    table.add_argument("--p", required=True, type=int, help="odd prime")
    table.add_argument("--d", type=int, help="largest dimension (default 4)")
    _add_format(table, default="text")
    table.set_defaults(func=_cmd_lgroup_table)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UnsupportedRing as exc:
        _emit({"error": exc.code, "detail": str(exc)})
        return 3
    except MaslovkitError as exc:
        _emit({"error": exc.code, "detail": str(exc)})
        return 2
    except Exception as exc:  # contract: structured errors, never a traceback
        _emit({"error": "internal-error", "detail": f"{type(exc).__name__}: {exc}"})
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
