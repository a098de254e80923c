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
Each command returns its JSON payload and its text lines; `main` alone
writes stdout, printing one or the other per --format.
Exit codes: 0 success, 2 validation error, 3 unsupported-ring error;
failures, usage errors included, print a machine-readable
{"error": code, "detail": ...} object.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import DomainError, MaslovkitError, UnsupportedRing


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


# -- subcommand bodies: each returns (payload, lines) and imports the modules
# it runs, so a command loads no module that only another command needs ------


def _cmd_witt_classify(args):
    from . import serialize
    from .forms import witt_class

    form = serialize.decode_form(_load_json(args.form, "form"))
    cls = witt_class(form)
    return serialize.encode_witt(cls), [f"p = {cls.p}", f"class = {cls.class_name}"]


def _maslov_output(result):
    from . import serialize

    lines = []
    if result.witt is not None:
        lines.append(f"witt class = {result.witt.class_name} (p = {result.witt.p})")
    lines.append(f"rank parity = {result.rank_parity}")
    lines.append(f"determinant = {result.determinant!r}")
    lines.append(f"representative dimension = {result.form.dim}")
    return serialize.encode_maslov_result(result), lines


def _cmd_maslov_compute(args):
    from . import serialize
    from .sturm import maslov_index

    loop = serialize.decode_loop(_load_json(args.loop, "loop"))
    return _maslov_output(maslov_index(loop))


def _cmd_maslov_pair(args):
    from . import serialize
    from .sturm import loop_from_pair, maslov_index

    q0 = serialize.decode_form(_load_json(args.q0, "q0"))
    q1 = serialize.decode_form(_load_json(args.q1, "q1"))
    return _maslov_output(maslov_index(loop_from_pair(q0, q1)))


def _cmd_maslov_real(args):
    from .realmaslov import RealPolynomial, preset_polynomial, real_maslov

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
    return {"maslov_index": index}, [str(index)]


def _cmd_lagrangian_check(args):
    from . import serialize
    from .pauli import lagrangian_report

    module = serialize.decode_module(_load_json(args.module, "module"))
    report = lagrangian_report(module)
    return report, [f"{key} = {json.dumps(val)}" for key, val in report.items()]


def _cmd_qca_apply(args):
    from . import serialize
    from .pauli import apply as pauli_apply

    module = serialize.decode_module(_load_json(args.module, "module"))
    circuit = serialize.decode_circuit(_load_json(args.circuit, "circuit"))
    for step in circuit:
        module = pauli_apply(step, module)
    lines = [f"N = {module.ambient.N}", "generators:"]
    gens = module.generators
    for j in range(gens.cols):
        parts = [repr(gens[i, j]) for i in range(gens.rows)]
        lines.append("  (" + ", ".join(parts) + ")")
    return serialize.encode_module(module), lines


def _cmd_lgroup_table(args):
    from .lgroups import VALIDATED_DIMENSIONS, _check_validated, classify_loops
    from .lgroups import encode_group, fundamental_ideal_group, lgroup

    p = args.p
    d_max = args.d if args.d is not None else VALIDATED_DIMENSIONS
    _check_validated(d_max, p, "L-group table")
    dims = list(range(d_max + 1))
    lrows = [
        {"n": n, "groups": [encode_group(lgroup(n, d, p)) for d in dims]}
        for n in range(4)
    ]
    ideals = [encode_group(fundamental_ideal_group(d, p)) for d in dims]
    loops = [encode_group(classify_loops(d, p)) for d in dims]
    payload = {
        "p": p,
        "residue_mod_4": p % 4,
        "d_max": d_max,
        "lgroups": lrows,
        "fundamental_ideals": ideals,
        "loop_classes": loops,
    }
    rows = [["group"] + [f"d={d}" for d in dims]]
    for row in lrows:
        rows.append([f"L_{row['n']}"] + [g["name"] for g in row["groups"]])
    rows.append(["I"] + [g["name"] for g in ideals])
    rows.append(["OmegaC"] + [g["name"] for g in loops])
    widths = [max(len(r[i]) for r in rows) for i in range(len(dims) + 1)]
    lines = [f"classification table, p = {p} (p = {p % 4} mod 4)"]
    lines += ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)) for row in rows]
    return payload, lines


# -- parser ------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Usage errors raise DomainError, so main reports them like any other."""

    def error(self, message):
        raise DomainError(f"{self.prog}: {message}")


def _command(actions, name: str, help: str, func, flags: dict, fmt: str = "json"):
    """Add subcommand name to actions: it runs func and takes each flag of
    flags, with its add_argument keywords, and a --format defaulting to fmt."""
    command = actions.add_parser(name, help=help)
    for flag, kw in flags.items():
        command.add_argument(flag, **kw)
    command.add_argument("--format", choices=("json", "text"), default=fmt, help="output format")
    command.set_defaults(func=func)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="maslovkit",
        description="Exact Clifford-QCA computations on JSON inputs",
    )
    top = parser.add_subparsers(dest="group", required=True)

    def group(name: str, help: str):
        return top.add_parser(name, help=help).add_subparsers(dest="action", required=True)

    def required(help: str) -> dict:
        return {"required": True, "help": help}

    witt = group("witt", "Witt classification of forms")
    _command(witt, "classify", "Witt class of a form over F_p", _cmd_witt_classify,
             {"--form": required("form JSON (path or inline)")})

    maslov = group("maslov", "Maslov indices of loops")
    _command(maslov, "compute", "index of an encoded loop", _cmd_maslov_compute,
             {"--loop": required("loop JSON (path or inline)")})
    _command(maslov, "pair", "index of the loop built from q0, q1", _cmd_maslov_pair,
             {"--q0": required("form JSON (path or inline)"),
              "--q1": required("form JSON (path or inline)")})
    _command(maslov, "real", "classical index of (P, P')", _cmd_maslov_real,
             {"--poly": {"help": "comma-separated coefficients, lowest first"},
              "--preset": {"help": "named preset polynomial"}}, fmt="text")

    lagrangian = group("lagrangian", "stabilizer module checks")
    _command(lagrangian, "check", "isotropy/coisotropy/summand", _cmd_lagrangian_check,
             {"--module": required("module JSON (path or inline)")})

    qca = group("qca", "Clifford QCA actions")
    _command(qca, "apply", "apply a circuit to a module", _cmd_qca_apply,
             {"--circuit": required("circuit JSON"), "--module": required("module JSON")})

    lgroup = group("lgroup", "L-group classification tables")
    _command(lgroup, "table", "table of L_n, I and OmegaC", _cmd_lgroup_table,
             {"--p": {"required": True, "type": int, "help": "odd prime"},
              "--d": {"type": int, "help": "largest dimension (default 4)"}}, fmt="text")

    return parser


def main(argv=None) -> int:
    """Run one command line; the only writer of stdout."""
    try:
        args = build_parser().parse_args(argv)
        payload, lines = args.func(args)
        if args.format == "text":
            sys.stdout.write("\n".join(lines) + "\n")
            return 0
        code = 0
    except UnsupportedRing as exc:
        payload, code = {"error": exc.code, "detail": str(exc)}, 3
    except MaslovkitError as exc:
        payload, code = {"error": exc.code, "detail": str(exc)}, 2
    except Exception as exc:  # contract: structured errors, never a traceback
        payload = {"error": "internal-error", "detail": f"{type(exc).__name__}: {exc}"}
        code = 2
    sys.stdout.write(json.dumps(payload, indent=2) + "\n")
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
