"""Fuzzing the CLI edges: every one-key mutation of an input document fails cleanly.

Each shipped fixture and one seeded `maslov compute` loop document is
mutated by setting one key, anywhere in the document, to each value of a
fixed list.  The matching command runs in-process through `cli.main` under
a SIGALRM budget.  It must exit 0, 2 or 3 with one JSON object on stdout,
and never report an `internal-error`.
"""

import copy
import json
import random
from pathlib import Path

from maslovkit import serialize
from maslovkit.cli import main
from maslovkit.sturm import loop_from_pair

from helpers import rand_symmetric_nondeg, time_limit

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"

VALUES = (0, 1, -1, 2**70, 10**9 + 7, 10**9, -(10**9), True, False, None, "x", [], {}, 1.5)

BUDGET_S = 5


def _fixture(name):
    return json.loads((FIXTURES / name).read_text(encoding="utf-8"))


def _seeded_loop():
    rng = random.Random(15)
    p = rng.choice((5, 7, 13))
    q0, q1 = (rand_symmetric_nondeg(p, 1, rng) for _ in range(2))
    return serialize.encode_loop(loop_from_pair(q0, q1))


def _key_paths(doc, prefix=()):
    """The path to every dict key in doc, through dicts and lists."""
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield prefix + (key,)
            yield from _key_paths(value, prefix + (key,))
    elif isinstance(doc, list):
        for i, value in enumerate(doc):
            yield from _key_paths(value, prefix + (i,))


def _mutated(doc, path, value):
    doc = copy.deepcopy(doc)
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


def _cases():
    """(argv before the mutated document, the document) for each command."""
    q0, q1 = _fixture("pair_q0.json"), _fixture("pair_q1.json")
    circuit = _fixture("cluster_circuit.json")
    product = _fixture("product_state_module.json")
    return [
        (["witt", "classify", "--form"], q1),
        (["maslov", "pair", "--q1", json.dumps(q1), "--q0"], q0),
        (["maslov", "pair", "--q0", json.dumps(q0), "--q1"], q1),
        (["lagrangian", "check", "--module"], _fixture("cluster_module.json")),
        (["qca", "apply", "--module", json.dumps(product), "--circuit"], circuit),
        (["qca", "apply", "--circuit", json.dumps(circuit), "--module"], product),
        (["maslov", "compute", "--loop"], _seeded_loop()),
    ]


def test_one_key_mutations_fail_cleanly(capsys):
    runs = 0
    for argv, doc in _cases():
        for path in _key_paths(doc):
            for value in VALUES:
                case = (*argv[:2], path, value)
                with time_limit(BUDGET_S):
                    code = main(argv + [json.dumps(_mutated(doc, path, value))])
                out = capsys.readouterr().out
                assert code in (0, 2, 3), case
                payload = json.loads(out)  # exactly one JSON document
                assert isinstance(payload, dict), case
                assert payload.get("error") != "internal-error", (case, payload)
                runs += 1
    assert runs > 2000
