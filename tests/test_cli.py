"""CLI behavior: formats, determinism, exit codes, error objects."""

import argparse
import importlib.util
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from maslovkit import (
    DomainError,
    HermitianForm,
    PauliModule,
    RingDescriptor,
    RingMatrix,
    SturmSequence,
    serialize,
)
from maslovkit.cli import main
from maslovkit.fixtures import write_all

from helpers import time_limit

ROOT = Path(__file__).resolve().parents[1]
SRC = str(ROOT / "src")


@pytest.fixture(scope="module")
def fixture_dir(tmp_path_factory):
    target = tmp_path_factory.mktemp("fixtures")
    write_all(target)
    return target


def run_cli(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def test_lgroup_table_text(capsys):
    code, out = run_cli(capsys, ["lgroup", "table", "--p", "7", "--d", "4"])
    assert code == 0
    rows = out.splitlines()
    omega = next(r for r in rows if r.startswith("OmegaC"))
    assert "Z/4" in omega
    assert "\x1b" not in out, "no color when stdout is not a tty"


def test_lgroup_table_json(capsys):
    code, out = run_cli(capsys, ["lgroup", "table", "--p", "5", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["residue_mod_4"] == 1
    assert payload["loop_classes"][4]["name"] == "Z/2 + Z/2"
    assert payload["loop_classes"][0]["name"] == "0"
    assert [g["name"] for g in payload["fundamental_ideals"]][:4] == ["Z/2"] * 4


def test_lgroup_table_unsupported_dimension(capsys):
    code, out = run_cli(capsys, ["lgroup", "table", "--p", "5", "--d", "9"])
    assert code == 3
    assert json.loads(out)["error"] == "unsupported-ring"
    # d < 0 is a validation error, not an unsupported ring
    code, out = run_cli(capsys, ["lgroup", "table", "--p", "7", "--d", "-1"])
    assert code == 2
    assert json.loads(out)["error"] == "domain-error"


def test_lgroup_table_rejects_modulus_beyond_primality_range():
    # 2^89 - 1 is prime but above the range where primality is decided
    # exactly; it must be refused at once, not trial-divided for ever.
    proc = subprocess.run(
        [sys.executable, "-m", "maslovkit", "lgroup", "table", "--p", str(2**89 - 1)],
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": SRC},
    )
    assert proc.returncode == 2
    assert json.loads(proc.stdout)["error"] == "domain-error"


def test_maslov_real_preset(capsys):
    code, out = run_cli(capsys, ["maslov", "real", "--preset", "paper-example"])
    assert code == 0
    assert out == "1\n"
    code, out = run_cli(
        capsys, ["maslov", "real", "--preset", "paper-example", "--format", "json"]
    )
    assert json.loads(out) == {"maslov_index": 1}


def test_maslov_real_poly_flag(capsys):
    # leading minus needs the = form, as usual with argparse
    code, out = run_cli(capsys, ["maslov", "real", "--poly=-2,1"])
    assert code == 0 and out == "0\n"
    code, out = run_cli(capsys, ["maslov", "real", "--poly", "0,1"])
    assert code == 2
    assert json.loads(out)["error"] == "endpoint-root"
    code, out = run_cli(capsys, ["maslov", "real", "--poly", "1,2", "--preset", "paper-example"])
    assert code == 2
    code, out = run_cli(capsys, ["maslov", "real", "--preset", "unknown"])
    assert code == 2
    for poly in ("nan,1", "1,nan", "inf,1", "-1,inf"):
        code, out = run_cli(capsys, ["maslov", "real", f"--poly={poly}"])
        assert code == 2, poly
        err = json.loads(out)
        assert err["error"] == "domain-error", poly
        assert "not a finite real number" in err["detail"], poly
    for poly in ("abc", ","):
        code, out = run_cli(capsys, ["maslov", "real", f"--poly={poly}"])
        assert code == 2 and json.loads(out)["error"] == "domain-error", poly


def test_no_command_loads_numpy():
    # numpy is a test-only oracle: no subcommand may import it at run time;
    # dataclasses and the inspect it pulls in would only slow start-up, and
    # realmaslov with fractions belongs to maslov real alone
    fixtures = Path(__file__).resolve().parents[1] / "fixtures"
    script = f"""
import json, sys, types
import maslovkit
# a plain import leaves the real Maslov index unloaded
assert "maslovkit.realmaslov" not in sys.modules, "import maslovkit loaded realmaslov"
from maslovkit import serialize
from maslovkit.cli import main
from maslovkit.fixtures import sample_pair
from maslovkit.sturm import loop_from_pair

F = {str(fixtures)!r}
loop = json.dumps(serialize.encode_loop(loop_from_pair(*sample_pair())))
argvs = [
    ["witt", "classify", "--form", F + "/pair_q1.json"],
    ["maslov", "compute", "--loop", loop],
    ["maslov", "pair", "--q0", F + "/pair_q0.json", "--q1", F + "/pair_q1.json"],
    ["lagrangian", "check", "--module", F + "/cluster_module.json"],
    ["qca", "apply", "--circuit", F + "/cluster_circuit.json",
     "--module", F + "/product_state_module.json"],
    ["lgroup", "table", "--p", "7"],
]
for argv in argvs:
    assert main(argv) == 0, argv
# only maslov real loads the real Maslov index and the fractions it computes in
assert "maslovkit.realmaslov" not in sys.modules, "realmaslov was imported"
assert "fractions" not in sys.modules, "fractions was imported"
for argv in (["maslov", "real", "--preset", "paper-example"], ["maslov", "real", "--poly=0.5,-3,1"]):
    assert main(argv) == 0, argv
assert "numpy" not in sys.modules, "numpy was imported"
assert "dataclasses" not in sys.modules, "dataclasses was imported"
assert "inspect" not in sys.modules, "inspect was imported"
# __all__ is the name table, and the package binds a public name only from
# it, on first use; a star import binds each, the seven realmaslov names among them
public = lambda: {{
    name for name, value in vars(maslovkit).items()
    if not name.startswith("_") and not isinstance(value, types.ModuleType)
}}
assert maslovkit.__all__ == list(maslovkit._HOME), maslovkit.__all__
assert public() <= set(maslovkit.__all__), public() - set(maslovkit.__all__)
star = {{}}
exec("from maslovkit import *", star)
assert set(maslovkit.__all__) <= set(star), set(maslovkit.__all__) - set(star)
assert len(maslovkit._PUBLIC["realmaslov"]) == 7 and star["real_maslov"] is maslovkit.real_maslov
assert public() == set(maslovkit.__all__), public() ^ set(maslovkit.__all__)
"""
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": SRC},
    )
    assert proc.returncode == 0, proc.stderr


def test_each_command_loads_only_its_modules(tmp_path):
    # each command, in a fresh `python -m maslovkit` process, imports the
    # package, cli and errors, and then only the modules its code path runs
    from maslovkit.fixtures import sample_pair
    from maslovkit.sturm import loop_from_pair

    loop = tmp_path / "loop.json"
    loop.write_text(json.dumps(serialize.encode_loop(loop_from_pair(*sample_pair()))))
    F = ROOT / "fixtures"
    codecs = {"ring", "linalg", "forms", "serialize"}
    cases = [
        (["witt", "classify", "--form", F / "pair_q1.json"], codecs),
        (["maslov", "pair", "--q0", F / "pair_q0.json", "--q1", F / "pair_q1.json"], codecs | {"sturm"}),
        (["maslov", "compute", "--loop", loop], codecs | {"sturm"}),
        (["lagrangian", "check", "--module", F / "cluster_module.json"], codecs | {"pauli"}),
        (["qca", "apply", "--circuit", F / "cluster_circuit.json",
          "--module", F / "product_state_module.json"], codecs | {"pauli"}),
        (["lgroup", "table", "--p", "7"], {"ring", "lgroups"}),
        (["maslov", "real", "--preset", "paper-example"], {"realmaslov"}),
    ]
    env = {**os.environ, "PYTHONPATH": SRC}
    for argv, modules in cases:
        # -X importtime writes one stderr line per module the process imports
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-m", "maslovkit", *map(str, argv)],
            capture_output=True, text=True, timeout=60, env=env,
        )
        assert proc.returncode == 0, (argv, proc.stdout)
        loaded = {
            line.rpartition("|")[2].strip() for line in proc.stderr.splitlines()
            if line.startswith("import time:")
        }
        expected = {"maslovkit", "maslovkit.cli", "maslovkit.errors"}
        expected |= {f"maslovkit.{m}" for m in modules}
        assert {m for m in loaded if m.split(".")[0] == "maslovkit"} == expected, argv
    # a plain import loads no submodule; every public name and every
    # submodule of the name table resolves on first use
    script = """
import sys
import maslovkit
assert [m for m in sys.modules if m.startswith("maslovkit.")] == [], sorted(sys.modules)
assert maslovkit.linalg is sys.modules["maslovkit.linalg"]
for name in maslovkit.__all__:
    value = getattr(maslovkit, name)
    assert value is getattr(sys.modules[f"maslovkit.{maslovkit._HOME[name]}"], name), name
    assert vars(maslovkit)[name] is value, name
assert set(maslovkit.__all__) <= set(dir(maslovkit))
for module in maslovkit._PUBLIC:
    assert getattr(maslovkit, module) is sys.modules[f"maslovkit.{module}"], module
assert not hasattr(maslovkit, "no_such_name")
"""
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=60, env=env)
    assert proc.returncode == 0, proc.stderr


def test_witt_classify(capsys, fixture_dir):
    code, out = run_cli(
        capsys, ["witt", "classify", "--form", str(fixture_dir / "pair_q1.json")]
    )
    assert code == 0
    assert json.loads(out) == {"p": 5, "class": "<t>"}
    code, out = run_cli(
        capsys,
        ["witt", "classify", "--form", str(fixture_dir / "pair_q0.json"), "--format", "text"],
    )
    assert "class = <1>" in out


def test_witt_classify_unsupported_ring(capsys):
    ring = RingDescriptor(5, 1)
    blob = serialize.encode_form(HermitianForm(RingMatrix.identity(ring, 1), 1))
    code, out = run_cli(capsys, ["witt", "classify", "--form", json.dumps(blob)])
    assert code == 3
    assert json.loads(out)["error"] == "unsupported-ring"


def test_witt_classify_degenerate(capsys):
    ring = RingDescriptor(5)
    blob = serialize.encode_form(HermitianForm(RingMatrix.zeros(ring, 1, 1), 1))
    code, out = run_cli(capsys, ["witt", "classify", "--form", json.dumps(blob)])
    assert code == 2
    assert json.loads(out)["error"] == "degenerate-form"


def test_witt_classify_rejects_a_form_without_rows(capsys):
    # a 0 x 3 "form" is not square: it must not decode to the empty form
    blob = {
        "rows": 0,
        "cols": 3,
        "ring": {"p": 5, "vars": [], "T": False},
        "entries": [],
        "sign": 1,
    }
    code, out = run_cli(capsys, ["witt", "classify", "--form", json.dumps(blob)])
    assert code == 2
    assert json.loads(out)["error"] == "shape-error"
    blob["cols"] = 0
    code, out = run_cli(capsys, ["witt", "classify", "--form", json.dumps(blob)])
    assert code == 0
    assert json.loads(out) == {"p": 5, "class": "0"}


def test_lagrangian_check_unsupported_dimension(capsys):
    ring = RingDescriptor(5, 2)
    from maslovkit import PauliModule, StabilizerModule

    module = StabilizerModule(
        PauliModule(ring, 1), RingMatrix(ring, [[1], [0]])
    )
    blob = serialize.encode_module(module)
    code, out = run_cli(capsys, ["lagrangian", "check", "--module", json.dumps(blob)])
    assert code == 3
    assert json.loads(out)["error"] == "unsupported-ring"


def test_lagrangian_check_rejects_huge_exponent_spread(capsys):
    from maslovkit import PauliModule, StabilizerModule

    ring = RingDescriptor(5, 1)
    far = 1 + ring.x(0, (1 << 16) + 1)
    module = StabilizerModule(
        PauliModule(ring, 1), RingMatrix(ring, [[far], [1 + ring.x(0)]])
    )
    blob = serialize.encode_module(module)
    code, out = run_cli(capsys, ["lagrangian", "check", "--module", json.dumps(blob)])
    assert code == 2
    assert json.loads(out)["error"] == "domain-error"


def test_maslov_pair_with_a_huge_exponent_span_is_fast(capsys):
    # q0 = q1 = a^+ a for a = (1, x^(10^9) + 2; 0, 1): the row products and
    # Bareiss steps work on sparse terms, so a span of 10^9 costs no more
    # than a span of 1; anything dense in the exponents would not finish
    ring = RingDescriptor(5, 1)
    a = RingMatrix(ring, [[1, ring.x(0, 10**9) + 2], [0, 1]])
    blob = json.dumps(serialize.encode_form(HermitianForm(a.dagger() @ a, 1)))
    with time_limit(1):
        code, out = run_cli(capsys, ["maslov", "pair", "--q0", blob, "--q1", blob])
    assert code == 0
    assert json.loads(out)["witt"] is None


def test_maslov_compute_rejects_non_loops(capsys):
    ring_t = RingDescriptor(5, 0, True)
    moving = HermitianForm(RingMatrix(ring_t, [[2 * ring_t.T()]]), 1)
    blob = {
        "N": 1,
        "ring": serialize.encode_ring(ring_t),
        "sturm": [serialize.encode_form(moving)],
    }
    code, out = run_cli(capsys, ["maslov", "compute", "--loop", json.dumps(blob)])
    assert code == 2
    assert json.loads(out)["error"] == "not-a-loop"


def test_booleans_are_not_integers(capsys):
    f5 = {"p": 5, "vars": [], "T": False}
    entry = {**f5, "terms": [{"e": [], "c": True}]}
    blob = {"rows": True, "cols": True, "ring": f5, "entries": [[entry]], "sign": 1}
    code, out = run_cli(capsys, ["witt", "classify", "--form", json.dumps(blob)])
    assert code == 2
    assert json.loads(out)["error"] == "domain-error"


def test_maslov_compute_rejects_negative_N(capsys):
    ring_t = RingDescriptor(5, 0, True)
    zero = serialize.encode_form(HermitianForm(RingMatrix.zeros(ring_t, 1, 1), 1))
    for sturm in ([], [zero]):
        for n in (-1, 1.5, True):
            blob = {"N": n, "ring": serialize.encode_ring(ring_t), "sturm": sturm}
            code, out = run_cli(capsys, ["maslov", "compute", "--loop", json.dumps(blob)])
            assert code == 2
            assert json.loads(out)["error"] == "domain-error"
    # the constructors behind the decoders take N as an int, not a float or bool
    for n in (-1, 1.5, True):
        with pytest.raises(DomainError, match="int N >= 0"):
            SturmSequence(ring_t, n, ())
    for n in (0, 1.5, True):
        with pytest.raises(DomainError, match="int >= 1"):
            PauliModule(ring_t, n)


def test_maslov_compute_rejects_an_empty_loop_at_once(capsys):
    # a type (0, 2n) sequence has at least one form; padding an empty one
    # would build an N x N zero form, which no memory holds at N = 10^9
    blob = {"N": 10**9, "ring": {"p": 5, "vars": [], "T": True}, "sturm": []}
    with time_limit(1):
        code, out = run_cli(capsys, ["maslov", "compute", "--loop", json.dumps(blob)])
    assert code == 2
    assert json.loads(out)["error"] == "domain-error"


def test_lagrangian_check_cluster(capsys, fixture_dir):
    code, out = run_cli(
        capsys,
        ["lagrangian", "check", "--module", str(fixture_dir / "cluster_module.json")],
    )
    assert code == 0
    report = json.loads(out)
    assert report == {
        "isotropic": True,
        "coisotropic": True,
        "summand": True,
        "lagrangian": True,
    }


def test_qca_apply_pipeline(capsys, fixture_dir):
    code, out = run_cli(
        capsys,
        [
            "qca",
            "apply",
            "--circuit",
            str(fixture_dir / "cluster_circuit.json"),
            "--module",
            str(fixture_dir / "product_state_module.json"),
        ],
    )
    assert code == 0
    produced = serialize.decode_module(json.loads(out))
    expected = serialize.decode_module(
        json.loads((fixture_dir / "cluster_module.json").read_text())
    )
    from maslovkit import modules_equal

    assert modules_equal(produced, expected)


def test_maslov_pair_and_compute(capsys, fixture_dir):
    code, out = run_cli(
        capsys,
        [
            "maslov",
            "pair",
            "--q0",
            str(fixture_dir / "pair_q0.json"),
            "--q1",
            str(fixture_dir / "pair_q1.json"),
        ],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["witt"] == {"p": 5, "class": "<1>+<t>"}

    # feed a loop JSON through maslov compute: rebuild from the library
    from maslovkit.fixtures import sample_pair
    from maslovkit.sturm import loop_from_pair

    loop_blob = serialize.encode_loop(loop_from_pair(*sample_pair()))
    code, out = run_cli(capsys, ["maslov", "compute", "--loop", json.dumps(loop_blob)])
    assert code == 0
    assert json.loads(out)["witt"] == {"p": 5, "class": "<1>+<t>"}


def test_malformed_json_is_a_structured_error(capsys):
    code, out = run_cli(capsys, ["witt", "classify", "--form", "{not json"])
    assert code == 2
    err = json.loads(out)
    assert err["error"] == "domain-error" and "JSON" in err["detail"]
    code, out = run_cli(capsys, ["witt", "classify", "--form", "/nonexistent.json"])
    assert code == 2


def test_byte_identical_output(capsys, fixture_dir):
    argvs = [
        ["lgroup", "table", "--p", "7"],
        ["maslov", "real", "--preset", "paper-example"],
        ["lagrangian", "check", "--module", str(fixture_dir / "cluster_module.json")],
    ]
    for argv in argvs:
        _, first = run_cli(capsys, argv)
        _, second = run_cli(capsys, argv)
        assert first == second


def test_color_env(capsys, monkeypatch):
    monkeypatch.setenv("MASLOVKIT_COLOR", "never")
    _, out = run_cli(capsys, ["lgroup", "table", "--p", "3"])
    assert "\x1b" not in out


def test_unexpected_failures_stay_structured(capsys):
    # a syntactically valid document of the wrong shape must not traceback
    code, out = run_cli(capsys, ["witt", "classify", "--form", "[1, 2, 3]"])
    assert code == 2
    err = json.loads(out)
    assert "error" in err and "detail" in err


def test_text_formats(capsys, fixture_dir):
    from maslovkit.fixtures import sample_pair
    from maslovkit.sturm import loop_from_pair

    F = str(fixture_dir)
    loop = json.dumps(serialize.encode_loop(loop_from_pair(*sample_pair())))
    maslov = (
        "witt class = <1>+<t> (p = 5)\n"
        "rank parity = 0\n"
        "determinant = 2\n"
        "representative dimension = 8\n"
    )
    cases = [
        (["maslov", "pair", "--q0", F + "/pair_q0.json", "--q1", F + "/pair_q1.json"], maslov),
        (["maslov", "compute", "--loop", loop], maslov),
        (
            ["lagrangian", "check", "--module", F + "/cluster_module.json"],
            "isotropic = true\ncoisotropic = true\nsummand = true\nlagrangian = true\n",
        ),
        (
            ["qca", "apply", "--circuit", F + "/cluster_circuit.json",
             "--module", F + "/product_state_module.json"],
            "N = 1\ngenerators:\n  (x^-1 + x, 1)\n",
        ),
    ]
    for argv, expected in cases:
        code, out = run_cli(capsys, argv + ["--format", "text"])
        assert code == 0, argv
        assert out == expected, argv


def test_internal_errors_are_structured(capsys, monkeypatch):
    import maslovkit.cli as cli

    def boom(args):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "_cmd_lgroup_table", boom)
    code, out = run_cli(capsys, ["lgroup", "table", "--p", "5"])
    assert code == 2
    assert json.loads(out) == {"error": "internal-error", "detail": "RuntimeError: boom"}


def test_lagrangian_check_zero_module(capsys):
    # a module whose generators are all zero: isotropic, not Lagrangian
    for ring in (RingDescriptor(5), RingDescriptor(5, 1)):
        blob = {
            "N": 1,
            "ring": serialize.encode_ring(ring),
            "generators": serialize.encode_matrix(RingMatrix.zeros(ring, 2, 1)),
        }
        code, out = run_cli(capsys, ["lagrangian", "check", "--module", json.dumps(blob)])
        assert code == 0, out
        assert json.loads(out) == {
            "isotropic": True,
            "coisotropic": False,
            "summand": True,
            "lagrangian": False,
        }


def test_shipped_fixtures_match_their_generator(tmp_path):
    # perfbench/expected and the README examples run on the shipped files
    shipped = Path(__file__).resolve().parents[1] / "fixtures"
    written = write_all(tmp_path)
    assert sorted(p.name for p in shipped.glob("*.json")) == sorted(p.name for p in written)
    for path in written:
        assert (shipped / path.name).read_bytes() == path.read_bytes(), path.name


def test_usage_errors_are_structured(capsys):
    for argv, flag in (
        (["maslov", "pair", "--q0", "fixtures/pair_q0.json"], "--q1"),
        (["lgroup", "table", "--p", "seven"], "--p"),
        (["lgroup", "tabel", "--p", "7"], "tabel"),
    ):
        code, out = run_cli(capsys, argv)
        assert code == 2, argv
        err = json.loads(out)
        assert err["error"] == "domain-error", argv
        assert flag in err["detail"], argv
    with pytest.raises(SystemExit) as exc:
        main(["lgroup", "table", "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage:")


def test_parser_contract():
    # read from the parser, not its help text, which argparse formats
    # differently from one Python version to the next
    import maslovkit.cli as cli

    def subcommands(parser, dest):
        (actions,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        assert actions.dest == dest and actions.required
        return actions.choices

    flags = {}
    for group, group_parser in subcommands(cli.build_parser(), "group").items():
        for action, command in subcommands(group_parser, "action").items():
            options = {a.dest: a for a in command._actions if a.option_strings}
            fmt = options.pop("format")
            assert (fmt.choices, fmt.required) == (("json", "text"), False)
            text = (group, action) in {("maslov", "real"), ("lgroup", "table")}
            assert fmt.default == ("text" if text else "json"), (group, action)
            assert command.get_default("func") is getattr(cli, f"_cmd_{group}_{action}")
            del options["help"]
            flags[group, action] = {
                a.option_strings[0]: (a.required, a.type) for a in options.values()
            }
    assert flags == {
        ("witt", "classify"): {"--form": (True, None)},
        ("maslov", "compute"): {"--loop": (True, None)},
        ("maslov", "pair"): {"--q0": (True, None), "--q1": (True, None)},
        ("maslov", "real"): {"--poly": (False, None), "--preset": (False, None)},
        ("lagrangian", "check"): {"--module": (True, None)},
        ("qca", "apply"): {"--circuit": (True, None), "--module": (True, None)},
        ("lgroup", "table"): {"--p": (True, int), "--d": (False, int)},
    }


def test_shipped_fixture_commands_print_stored_bytes(capsys, monkeypatch):
    # perfbench/expected/<name>.out holds the stdout of each command below
    monkeypatch.chdir(ROOT)
    expected = ROOT / "perfbench" / "expected"
    commands = {
        "witt-classify": ["witt", "classify", "--form", "fixtures/pair_q1.json"],
        "maslov-pair": [
            "maslov", "pair", "--q0", "fixtures/pair_q0.json", "--q1", "fixtures/pair_q1.json",
        ],
        "maslov-real": ["maslov", "real", "--preset", "paper-example"],
        "lagrangian-check": ["lagrangian", "check", "--module", "fixtures/cluster_module.json"],
        "qca-apply": [
            "qca", "apply", "--circuit", "fixtures/cluster_circuit.json",
            "--module", "fixtures/product_state_module.json",
        ],
        "lgroup-table": ["lgroup", "table", "--p", "7"],
    }
    assert sorted(commands) == sorted(p.stem for p in expected.glob("*.out"))
    for name, argv in commands.items():
        code, out = run_cli(capsys, argv)
        assert code == 0, name
        assert out == (expected / f"{name}.out").read_text(encoding="utf-8"), name
    code, out = run_cli(
        capsys, ["witt", "classify", "--form", "fixtures/pair_q1.json", "--format", "text"]
    )
    assert (code, out) == (0, "p = 5\nclass = <t>\n")
    code, out = run_cli(
        capsys, ["maslov", "real", "--preset", "paper-example", "--format", "json"]
    )
    assert (code, out) == (0, '{\n  "maslov_index": 1\n}\n')


def test_maslov_stdout_matches_mod_p_oracle_at_scale(capsys, tmp_path):
    # perfbench/gen.py derives the `maslov compute` output mod p on its own
    # (dense inverses and determinants, no maslovkit); `maslov compute` on its
    # loop document and `maslov pair` on its two form documents print exactly
    # those bytes, for seeded pairs well beyond the 1 x 1 fixtures
    spec = importlib.util.spec_from_file_location("perfbench_gen", ROOT / "perfbench" / "gen.py")
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    rng = random.Random(2029)
    for p in (7, 1_000_000_007):
        for N in (3, 8):
            q0, q1 = (gen.rand_sym_nondeg(rng, p, N) for _ in range(2))
            expected = gen.maslov_compute_stdout(q0, q1, p)
            loop, f0, f1 = (tmp_path / name for name in ("loop.json", "q0.json", "q1.json"))
            loop.write_text(json.dumps(gen.loop_from_pair_json(q0, q1, p)))
            f0.write_text(json.dumps(gen.form_json(p, 0, q0)))
            f1.write_text(json.dumps(gen.form_json(p, 0, q1)))
            for argv in (["maslov", "compute", "--loop", str(loop)],
                         ["maslov", "pair", "--q0", str(f0), "--q1", str(f1)]):
                assert run_cli(capsys, argv) == (0, expected), (argv, p, N)
