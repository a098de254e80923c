"""Shipped fixtures: the cluster chain, its disentangling circuit, sample pairs.

Every fixture is fixed data over one prime, 5: the chain lives over the ring
F_5[x^+-] of one spatial variable, and the sample form pair over F_5.

Conventions for the one-dimensional chain of 5-state qudits: a Pauli column
holds the X content on top and the Z content below.  The term X_{-1} Z_0 X_{+1}
therefore has content (x + x^-1, 1); the product Hamiltonian built from
single-site Z terms has content (0, 1).  With these orientations the
upper-triangular circuit E1(x + x^-1) maps the product-state module onto the
cluster module.  (For the X-type product state (1, 0) the same matrix acts as
the identity: the lower-triangular transpose word is the one that moves it.
Both readings differ by swapping the roles of L and L*.)
"""

from __future__ import annotations

import json
from pathlib import Path

from .forms import HermitianForm
from .linalg import RingMatrix
from .pauli import PauliModule, StabilizerModule, elementary_unitary
from .ring import RingDescriptor
from . import serialize

# the chain ring F_5[x^+-]
_RING = RingDescriptor(5, 1, False)


def product_state_module() -> StabilizerModule:
    """Single-site product stabilizer: the Z-side generator (0, 1), that is L*."""
    return PauliModule(_RING, 1).dual_lagrangian()


def cluster_module() -> StabilizerModule:
    """Cluster stabilizer with its redundant second generator kept."""
    x_pair = cluster_coupling_form().matrix[0, 0]
    gens = RingMatrix(_RING, [[x_pair, -x_pair], [_RING.one(), _RING.constant(-1)]])
    return StabilizerModule(PauliModule(_RING, 1), gens)


def cluster_coupling_form() -> HermitianForm:
    """The +hermitian 1x1 form x + x^-1 generating the cluster circuit."""
    return HermitianForm(RingMatrix(_RING, [[_RING.x(0) + _RING.x(0, -1)]]), 1)


def disentangling_circuit() -> list:
    """One-step circuit mapping the product-state module to the cluster."""
    return [elementary_unitary("E1", cluster_coupling_form())]


def disentangling_circuit_json() -> list:
    return serialize.encode_circuit([("E1", cluster_coupling_form())])


def sample_pair():
    """A nondegenerate form pair (<1>, <theta-ish>) over F_5 for loop demonstrations."""
    ring = RingDescriptor(_RING.p, 0, False)
    q0 = HermitianForm(RingMatrix(ring, [[1]]), 1)
    q1 = HermitianForm(RingMatrix(ring, [[2]]), 1)
    return q0, q1


def write_all(target: str | Path) -> list[Path]:
    """Write every fixture as JSON under the target directory."""
    target = Path(target)
    target.mkdir(parents=True, exist_ok=True)
    q0, q1 = sample_pair()
    blobs = {
        "product_state_module.json": serialize.encode_module(product_state_module()),
        "cluster_module.json": serialize.encode_module(cluster_module()),
        "cluster_circuit.json": disentangling_circuit_json(),
        "pair_q0.json": serialize.encode_form(q0),
        "pair_q1.json": serialize.encode_form(q1),
    }
    written = []
    for name, blob in blobs.items():
        path = target / name
        path.write_text(json.dumps(blob, indent=2) + "\n")
        written.append(path)
    return written


if __name__ == "__main__":  # pragma: no cover
    for path in write_all(Path(__file__).resolve().parents[2] / "fixtures"):
        print(path)
