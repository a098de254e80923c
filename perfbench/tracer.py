"""Per-module tracing for the benchmark, installed from outside the package.

`Tracer.install()` replaces the public functions and methods of each module
with wrappers.  A function is replaced in every maslovkit module that binds
it (`sturm` does `from .linalg import det`, so patching `linalg.det` alone
would miss its calls).  Two kinds of wrapper:

- spans, for every module but `ring`: name, start, end and parent are kept
  in memory, and self time is the span's duration minus its children's;
- counters, for `ring`, whose methods run hundreds of thousands of times
  per operation: one call count and one total time per name.  Ring time is
  subtracted from the enclosing span's self time like a child's.

Nothing is recorded while `active` is false, so answer checks and set-up
between operations stay out of the numbers.
"""

from __future__ import annotations

import importlib
import sys
import time

# span name -> (module, attribute); a dotted attribute names a method
SPANS = {
    "linalg.matmul": ("linalg", "RingMatrix.__matmul__"),
    "linalg.snf": ("linalg", "smith_normal_form"),
    "linalg.divmod": ("linalg", "laurent_divmod"),
    "linalg.det": ("linalg", "det"),
    "linalg.inverse": ("linalg", "inverse"),
    "pauli.unitary_new": ("pauli", "CliffordUnitary.__init__"),
    "pauli.modules_equal": ("pauli", "modules_equal"),
    "pauli.lagrangian_report": ("pauli", "lagrangian_report"),
    "forms.is_hermitian": ("forms", "HermitianForm.is_hermitian"),
    "forms.is_nondegenerate": ("forms", "HermitianForm.is_nondegenerate"),
    "forms.witt_class": ("forms", "witt_class"),
    "sturm.loop_from_pair": ("sturm", "loop_from_pair"),
    "sturm.validate_loop": ("sturm", "validate_loop"),
    "sturm.sturm_unitary": ("sturm", "sturm_unitary"),
    "sturm.maslov_index": ("sturm", "maslov_index"),
    "realmaslov.real_maslov": ("realmaslov", "real_maslov"),
    "lgroups.lgroup": ("lgroups", "lgroup"),
    "lgroups.fundamental_ideal_group": ("lgroups", "fundamental_ideal_group"),
    "lgroups.classify_loops": ("lgroups", "classify_loops"),
}

# counter name -> [(module, attribute), ...]; timed counters nest: only the
# outermost timed call is clocked, inner ones are counted
RING_TIMED = {
    "ring.poly_mul": [("ring", "LaurentPolynomial.__mul__"), ("ring", "LaurentPolynomial.__rmul__")],
    "ring.poly_add": [("ring", "LaurentPolynomial.__add__"), ("ring", "LaurentPolynomial.__radd__")],
    "ring.descriptor_new": [("ring", "RingDescriptor.__post_init__"), ("ring", "FieldElement.__init__")],
}
RING_COUNTED = {"ring.poly_new": [("ring", "LaurentPolynomial.__init__")]}

SPAN_CAP = 500_000


class Tracer:
    def __init__(self):
        self.active = False
        self.spans = []  # (id, parent id or -1, name, start, end)
        self.spans_dropped = 0
        self.stack = []  # [span id, time covered by children]
        self.next_id = 0
        self.calls: dict = {}
        self.self_s: dict = {}
        self.entry_products = 0
        self.ring_depth = 0
        self.missing = []  # targets not found in the package
        self._undo = []

    # -- wrappers ------------------------------------------------------------

    def span(self, name, fn):
        """Wrap fn so that each call while active records a span."""
        tracer = self
        tracer.calls.setdefault(name, 0)
        tracer.self_s.setdefault(name, 0.0)
        matmul = name == "linalg.matmul"

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            if matmul:
                a, b = args
                tracer.entry_products += a.shape[0] * a.shape[1] * b.shape[1]
            sid = tracer.next_id
            tracer.next_id += 1
            parent = tracer.stack[-1][0] if tracer.stack else -1
            frame = [sid, 0.0]
            tracer.stack.append(frame)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer.stack.pop()
                duration = end - start
                tracer.calls[name] += 1
                tracer.self_s[name] += duration - frame[1]
                if tracer.stack:
                    tracer.stack[-1][1] += duration
                if len(tracer.spans) < SPAN_CAP:
                    tracer.spans.append((sid, parent, name, start, end))
                else:
                    tracer.spans_dropped += 1

        return wrapper

    def _ring_timed(self, name, fn):
        tracer = self
        tracer.calls.setdefault(name, 0)
        tracer.self_s.setdefault(name, 0.0)

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            tracer.calls[name] += 1
            if tracer.ring_depth:
                return fn(*args, **kwargs)
            tracer.ring_depth = 1
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = time.perf_counter() - start
                tracer.ring_depth = 0
                tracer.self_s[name] += duration
                if tracer.stack:
                    tracer.stack[-1][1] += duration

        return wrapper

    def _ring_counted(self, name, fn):
        tracer = self
        tracer.calls.setdefault(name, 0)

        def wrapper(*args, **kwargs):
            if tracer.active:
                tracer.calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- patching ------------------------------------------------------------

    def install(self):
        """Patch every target; a target the package no longer has is listed in `missing`."""
        modules = {}
        for module in {"ring", "linalg", "forms", "pauli", "sturm", "serialize", "realmaslov", "lgroups"}:
            try:  # modules the package imports lazily are loaded here, before any timing
                modules[module] = importlib.import_module(f"maslovkit.{module}")
            except ImportError:
                pass
        targets = [(n, t, self.span) for n, t in SPANS.items()]
        targets += [(n, t, self._ring_timed) for n, ts in RING_TIMED.items() for t in ts]
        targets += [(n, t, self._ring_counted) for n, ts in RING_COUNTED.items() for t in ts]
        for attr in dir(modules.get("serialize")):
            if attr.startswith(("encode_", "decode_")):
                targets.append((f"serialize.{attr}", ("serialize", attr), self.span))
        loaded = [m for k, m in sys.modules.items() if k == "maslovkit" or k.startswith("maslovkit.")]
        for name, (module, attr), make in targets:
            owner, _, meth = attr.rpartition(".")
            holder = modules.get(module)
            if holder is not None and owner:
                holder = getattr(holder, owner, None)
            original = vars(holder).get(meth) if holder is not None else None
            if original is None:
                self.missing.append(f"{module}.{attr}")
            elif owner:
                setattr(holder, meth, make(name, original))
                self._undo.append((holder, meth, original))
            else:
                wrapper = make(name, original)
                for mod in loaded:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapper)
                            self._undo.append((mod, key, original))

    def uninstall(self):
        for obj, key, original in reversed(self._undo):
            setattr(obj, key, original)
        self._undo.clear()

    # -- results -------------------------------------------------------------

    def totals(self) -> dict:
        """Calls and self seconds by name, plus matmul entry products."""
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "entry_products": self.entry_products,
            "spans_dropped": self.spans_dropped,
            "missing": self.missing,
        }
