#!/usr/bin/env python3
"""Seeded closed-loop benchmark of maslovkit.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One client runs one operation (op) at a time, with no threads: the library
workloads call maslovkit in this process, `cli-fixtures` starts one
`python -m maslovkit` child at a time.  Inputs come from `gen.py` and the
seed; every answer is checked against an oracle outside the timed part of
the op.  Ops run in fixed cycles of input classes, each op on an input of
its own, and a run ends at the cycle boundary nearest S seconds, so every
run weighs the classes alike.  Each op's time is also scaled by a reference
workload timed next to it, so that the host's changing speed cancels out
(see REFERENCE_NOMINAL_MS).

With --trace 0 the last stdout line carries the end-to-end metrics.  With
--trace 1 the run is split: half untraced, half with `tracer.Tracer`
installed, and the last line carries the per-module metrics.  A record of
each run (machine, per-class latencies, tail percentile, failures, shares of
self time, spans) goes to .perfbench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import platform
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace as Case  # one input of a cycle slot: label, group, op data

import gen

# numpy (imported by maslovkit) would start a BLAS thread per core; the ops
# never use BLAS, and idle threads only add scheduling noise on a shared host.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
LAUNCH = HERE / "launch.py"

OP_LIMIT_S = 20.0  # an op running longer is stopped and counted as failed
SETUP_SAMPLES = 3  # this process's set-up plus two in child processes
PROBE_SAMPLES = 5  # interpreter and import probes of the traced run

FIELD_PRIMES = (5, 7, 11, 13)  # 1 and 3 mod 4, twice each
LAURENT_PRIMES = (5, 7)
BIG_PRIMES = (1_000_000_007, 998_244_353)  # 3 mod 4, 1 mod 4
POOL = 16  # distinct inputs per slot of a cycle, more than a run has cycles; cycle c uses input c % POOL


class OpTimeout(Exception):
    pass


@contextlib.contextmanager
def time_limit(seconds: float):
    def expire(signum, frame):
        raise OpTimeout(f"op ran past {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


# -- library workloads -------------------------------------------------------


class PairLoops:
    """maslov_index(loop_from_pair(q0, q1)) on seeded nondegenerate forms.

    An op starts from the two form documents: decoding them is part of it,
    so work moved from the computation into form construction still shows.

    slots: (d, N, unipotent) for each op of a cycle; primes are spread over
    the POOL inputs of a slot.
    """

    def __init__(self, slots, primes):
        self.slots = slots
        self.primes = primes
        self.pool = []

    def setup(self, rng):
        import maslovkit  # noqa: F401  timed: the import is part of set-up

        for j, (d, n, unipotent) in enumerate(self.slots):
            variants = []
            for k in range(POOL):
                p = self.primes[(j + k) % len(self.primes)]
                if d == 0:
                    m0, m1 = gen.rand_sym_nondeg(rng, p, n), gen.rand_sym_nondeg(rng, p, n)
                else:
                    m0 = gen.rand_laurent_form(rng, p, d, n, unipotent)
                    m1 = gen.rand_laurent_form(rng, p, d, n, unipotent)
                label = f"d={d} N={n}" + (" a^+a" if unipotent else "")
                variants.append(Case(label=label, group=f"d={d}", p=p, d=d, m0=m0, m1=m1,
                                     docs=(gen.form_json(p, d, m0), gen.form_json(p, d, m1))))
            self.pool.append(variants)
        self.op(self.pool[0][0], OP_LIMIT_S)

    def schedule(self, cycle: int):
        return [variants[cycle % POOL] for variants in self.pool]

    def op(self, case, limit):
        from maslovkit import loop_from_pair, maslov_index, serialize

        with time_limit(limit):
            q0, q1 = (serialize.decode_form(doc) for doc in case.docs)
            return maslov_index(loop_from_pair(q0, q1))

    def check(self, case, result, plant: bool) -> bool:
        from maslovkit import serialize

        answer = serialize.encode_maslov_result(result)
        if case.d == 0:
            if plant:
                answer["witt"]["class"] = "no such class"
            return answer["witt"] == {"p": case.p, "class": gen.pair_witt(case.m0, case.m1, case.p)}
        # Over F_p[x^+-]: the representative is hermitian with a unit determinant,
        # and x_i -> 1 (a ring map commuting with the involution) takes its Witt
        # class to the pair formula of the evaluated forms.
        if plant:
            answer["determinant"]["terms"] = []
        p = case.p
        rep = [[{tuple(t["e"]): t["c"] for t in f["terms"]} for f in row]
               for row in answer["form"]["entries"]]
        det_terms = answer["determinant"]["terms"]
        if gen.dagger(rep) != rep or len(det_terms) != 1:
            return False
        at_one = gen.eval_at_one(rep, p)
        det_at_one = gen.det_mod(at_one, p)
        expected = gen.pair_witt(gen.eval_at_one(case.m0, p), gen.eval_at_one(case.m1, p), p)
        return det_at_one == det_terms[0]["c"] % p and gen.witt_name(len(at_one), det_at_one, p) == expected

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    def close(self):
        pass


# -- CLI workload ------------------------------------------------------------

FIXTURE_COMMANDS = [
    ("witt-classify", ["witt", "classify", "--form", "fixtures/pair_q1.json"]),
    ("maslov-pair", ["maslov", "pair", "--q0", "fixtures/pair_q0.json", "--q1", "fixtures/pair_q1.json"]),
    ("maslov-real", ["maslov", "real", "--preset", "paper-example"]),
    ("lagrangian-check", ["lagrangian", "check", "--module", "fixtures/cluster_module.json"]),
    ("qca-apply", ["qca", "apply", "--circuit", "fixtures/cluster_circuit.json",
                   "--module", "fixtures/product_state_module.json"]),
    ("lgroup-table", ["lgroup", "table", "--p", "7"]),
]
LOOP_PRIMES = (5, 7, 13)


class CliFixtures:
    """Each subcommand as its own process, stdout compared byte for byte.

    The six fixture commands are compared with the outputs stored in
    perfbench/expected/; `maslov compute` runs on seeded loop documents and
    is compared with the output gen.maslov_compute_stdout derives mod p.
    """

    def __init__(self):
        self.tmp = OUT / f"cli-{os.getpid()}"
        self.traced = False
        self.reports = []

    def setup(self, rng):
        self.tmp.mkdir(parents=True, exist_ok=True)
        commands = []
        for name, argv in FIXTURE_COMMANDS:
            expected = (HERE / "expected" / f"{name}.out").read_text(encoding="utf-8")
            commands.append([Case(label=name, group="cli", argv=argv, expected=expected)] * POOL)
        loops = []
        for k in range(POOL):
            p = LOOP_PRIMES[k % len(LOOP_PRIMES)]
            q0, q1 = gen.rand_sym_nondeg(rng, p, 2), gen.rand_sym_nondeg(rng, p, 2)
            path = self.tmp / f"loop-{k}.json"
            path.write_text(json.dumps(gen.loop_from_pair_json(q0, q1, p)), encoding="utf-8")
            loops.append(Case(label="maslov-compute", group="cli", argv=["maslov", "compute", "--loop", str(path)],
                              expected=gen.maslov_compute_stdout(q0, q1, p)))
        commands.insert(2, loops)
        self.pool = commands
        self.op(self.pool[0][0], OP_LIMIT_S)

    def schedule(self, cycle: int):
        return [variants[cycle % POOL] for variants in self.pool]

    def op(self, case, limit):
        report = self.tmp / "report.json"
        if self.traced:
            report.unlink(missing_ok=True)
            cmd = [sys.executable, str(LAUNCH), str(report), "1", *case.argv]
        else:
            cmd = [sys.executable, "-m", "maslovkit", *case.argv]
        env = dict(os.environ, PYTHONPATH=str(SRC), MASLOVKIT_COLOR="never")
        try:
            done = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=limit)
        except subprocess.TimeoutExpired as exc:
            if self.traced:
                self.reports.append(None)
            raise OpTimeout(f"op ran past {limit} s") from exc
        if self.traced:
            self.reports.append(json.loads(report.read_text(encoding="utf-8")) if report.exists() else None)
        return done

    def check(self, case, done, plant: bool) -> bool:
        out = done.stdout + ("planted" if plant else "")
        return done.returncode == 0 and out == case.expected

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024

    def close(self):
        shutil.rmtree(self.tmp, ignore_errors=True)


# The weights of a cycle keep the median and the tail sample (ten beyond it)
# inside one input class each, away from class boundaries, at the op counts
# a 28-second run gives; a quantile on a boundary jumps between classes from run to run.
def make_workload(name: str):
    if name == "cli-fixtures":
        return CliFixtures()
    if name == "loops-field":
        # weights 4:4:3:1 (N = 4, 8, 12, 16): the median sits among the N = 8
        # ops, the tail sample among the upper N = 12 ops
        return PairLoops([(0, 4, False), (0, 8, False), (0, 12, False), (0, 4, False), (0, 8, False),
                          (0, 12, False), (0, 4, False), (0, 8, False), (0, 16, False), (0, 4, False),
                          (0, 8, False), (0, 12, False)], FIELD_PRIMES)
    if name == "loops-laurent":
        # d = 2 stops at N = 3: N = 4 takes seconds per op at the seed commit.
        # Six d = 1, N = 4 slots hold the median; three d = 2, N = 3 a^+a slots,
        # the slowest class, hold the tail sample.
        return PairLoops([(1, 4, False), (2, 2, False), (2, 3, True), (1, 4, False), (2, 2, True),
                          (1, 6, False), (2, 2, False), (1, 4, False), (2, 3, True), (2, 2, True),
                          (1, 8, False), (1, 4, False), (2, 2, False), (2, 3, False), (1, 4, False),
                          (2, 2, False), (2, 3, True), (1, 4, False)], LAURENT_PRIMES)
    if name == "pair-bigp":
        # one N = 2 op to two N = 3 ops: both quantiles sit among the N = 3 ops
        return PairLoops([(0, 2, False), (0, 3, False), (0, 3, False)], BIG_PRIMES)
    raise ValueError(name)


WORKLOADS = ("cli-fixtures", "loops-field", "loops-laurent", "pair-bigp")


# -- measurement ---------------------------------------------------------------


# The shared host's speed swings by up to 2x within minutes (neighbours on
# the same cores), moving every wall time with it.  A fixed reference
# workload is timed before and after each op, and the *_norm metrics scale
# the op's wall time to the speed at which the reference takes
# REFERENCE_NOMINAL_MS: norm = wall * REFERENCE_NOMINAL_MS / mean(reference
# before, reference after).  The raw wall-time figures stay in the record.
REFERENCE_MATRIX = gen.rand_laurent_form(random.Random(0), 7, 2, 3)  # 3 x 3 over F_7[x^+-, y^+-]
REFERENCE_NOMINAL_MS = 3.0


def reference_ms() -> float:
    """Time of a fixed pure-Python workload independent of maslovkit: the machine's speed.

    Dict-of-terms polynomial matrix products mod 7 (the oracle's own code),
    the same kind of interpreter work as the ops, run with the cyclic
    collector off so that no heap left by the program changes its cost.
    """
    enabled = gc.isenabled()
    gc.disable()
    began = time.perf_counter()
    for _ in range(40):
        gen.matmul(REFERENCE_MATRIX, REFERENCE_MATRIX, 7)
    elapsed = time.perf_counter() - began
    if enabled:
        gc.enable()
    return 1000 * elapsed


def measure(wl, seconds: float, op_limit: float, plant: bool, tracer=None):
    """Run whole cycles, ending at the cycle boundary nearest `seconds`; one record per op."""
    ops = []
    start = time.perf_counter()
    hard_stop = start + 2 * seconds + 10  # ends a run whose ops keep timing out
    cycle = 0
    ref_before = reference_ms()
    while True:
        for case in wl.schedule(cycle):
            before = tracer.totals() if tracer else None
            error = None
            began = time.perf_counter()
            if tracer:
                tracer.active = True
            try:
                answer = wl.op(case, op_limit)
            except Exception as exc:  # any failure of the program is a failed op
                error = f"{type(exc).__name__}: {exc}"
            finally:
                if tracer:
                    tracer.active = False
            latency = time.perf_counter() - began
            if error is None:
                try:
                    if not wl.check(case, answer, plant and not ops):
                        error = "wrong answer"
                except Exception as exc:
                    error = f"check raised {type(exc).__name__}: {exc}"
            after = reference_ms()
            record = {"label": case.label, "group": case.group, "cycle": cycle, "latency_s": latency,
                      "ref_ms": (ref_before + after) / 2, "error": error}
            ref_before = after
            if tracer:
                record["delta"] = delta(before, tracer.totals())
            ops.append(record)
            if time.perf_counter() >= hard_stop:
                return ops
        cycle += 1
        now = time.perf_counter()
        # stop here if the next boundary would lie further from `seconds`,
        # judged by the mean cycle so far
        mean_cycle = (now - start) / cycle
        if now - start + mean_cycle / 2 >= seconds:
            return ops


def delta(before: dict, after: dict) -> dict:
    return {
        key: {k: v - before[key].get(k, 0) for k, v in after[key].items() if v != before[key].get(k, 0)}
        for key in ("calls", "self_s")
    }


def timing(ops, scale) -> dict:
    """Throughput and latency quantiles of the ops, each op's time multiplied by scale(op)."""
    latencies = sorted(o["latency_s"] * scale(o) for o in ops)
    n = len(latencies)
    median = statistics.median(latencies)
    # the highest percentile with ten samples beyond it; below 21 samples that
    # sample would sit under the median, which is reported instead
    tail = latencies[n - 11] if n >= 21 else median
    # verified ops per second of op time in each cycle, median over the cycles:
    # a burst of load from outside the benchmark spoils one cycle, not the run
    cycles = {}
    for o in ops:
        c = cycles.setdefault(o["cycle"], [0, 0.0])
        c[0] += o["error"] is None
        c[1] += o["latency_s"] * scale(o)
    return {"throughput_ops_per_s": statistics.median(ok / busy for ok, busy in cycles.values()),
            "latency_p50_ms": 1000 * median, "latency_tail_ms": 1000 * tail}


def summarize(ops) -> dict:
    n = len(ops)
    failed = sum(o["error"] is not None for o in ops)
    groups = {}
    for o in ops:
        groups.setdefault(o["label"], []).append(o["latency_s"])
    return {
        "attempted": n,
        "failed": failed,
        "failed_ops_frac": failed / n,
        "wall": timing(ops, lambda o: 1.0),
        "norm": timing(ops, lambda o: REFERENCE_NOMINAL_MS / o["ref_ms"]),
        "reference_ms_median": statistics.median(o["ref_ms"] for o in ops),
        "tail_percentile": round(100 * (n - 10) / n, 2) if n >= 21 else 50,
        "tail_samples_beyond": 10 if n >= 21 else n // 2,
        "per_class_median_ms": {k: round(1000 * statistics.median(v), 3) for k, v in sorted(groups.items())},
        "errors": [f"{o['label']}: {o['error']}" for o in ops if o["error"]][:10],
    }


def setup_once(name: str, seed: int):
    """Import the package, build the inputs and run one warm-up op.

    Returns the workload and the set-up's [wall, normalized] time in s.
    """
    ref_before = reference_ms()
    began = time.perf_counter()
    wl = make_workload(name)
    wl.setup(random.Random(f"{name}:{seed}"))
    elapsed = time.perf_counter() - began
    norm = elapsed * REFERENCE_NOMINAL_MS / ((ref_before + reference_ms()) / 2)
    # the input pool lives for the whole run: keep the cyclic collector from
    # rescanning it during the ops
    gc.collect()
    gc.freeze()
    return wl, [elapsed, norm]


def child_setup_s(args) -> list:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", "1", "--trace", "0", "--setup-only"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300, check=True)
    return json.loads(done.stdout.splitlines()[-1])["setup_s"]


def probe_ms(cmd) -> float:
    """Median wall time of a child process, in ms."""
    samples = []
    for _ in range(PROBE_SAMPLES):
        began = time.perf_counter()
        subprocess.run(cmd, cwd=ROOT, check=True, capture_output=True, timeout=60)
        samples.append(time.perf_counter() - began)
    return 1000 * statistics.median(samples)


def import_probe_ms(wl_tmp: Path) -> float:
    """Median time to import maslovkit.cli, as timed by the launcher, in ms."""
    report = wl_tmp / "import.json"
    samples = []
    for _ in range(PROBE_SAMPLES):
        subprocess.run([sys.executable, str(LAUNCH), str(report), "0"], cwd=ROOT, check=True,
                       capture_output=True, timeout=60)
        samples.append(json.loads(report.read_text(encoding="utf-8"))["import_s"])
    report.unlink()
    return 1000 * statistics.median(samples)


# -- per-module metrics ------------------------------------------------------

# per-op means of the tracer's totals: <traced name>.calls | .self_s | .self_ms
MODULE_METRICS = [
    "ring.poly_mul.calls", "ring.poly_mul.self_s", "ring.poly_add.calls", "ring.poly_add.self_s",
    "ring.poly_new.calls", "ring.descriptor_new.calls", "ring.descriptor_new.self_s",
    "linalg.matmul.calls", "linalg.matmul.self_s", "linalg.snf.calls", "linalg.snf.self_s",
    "linalg.divmod.calls", "linalg.det.calls", "linalg.det.self_s", "linalg.inverse.calls",
    "linalg.inverse.self_s",
    "pauli.unitary_new.calls", "pauli.unitary_new.self_s", "pauli.modules_equal.calls",
    "pauli.modules_equal.self_s", "pauli.lagrangian_report.self_s",
    "forms.is_hermitian.calls", "forms.is_hermitian.self_s", "forms.is_nondegenerate.calls",
    "forms.is_nondegenerate.self_s", "forms.witt_class.calls", "forms.witt_class.self_s",
    "sturm.loop_from_pair.self_s", "sturm.validate_loop.self_s", "sturm.sturm_unitary.self_s",
    "sturm.maslov_index.self_s",
    "serialize.decode.self_ms", "serialize.encode.self_ms", "realmaslov.real_maslov.self_ms",
    "lgroups.table.self_ms",
]
# metric stems that sum every traced name with this prefix
SUMS = {"serialize.decode": "serialize.decode_", "serialize.encode": "serialize.encode_",
        "lgroups.table": "lgroups."}
UNITS = {"calls": "count", "self_s": "s", "self_ms": "ms"}


def module_metrics(totals: dict, ops: int) -> dict:
    """Per-op means of the tracer totals, named as in BENCHMARK.json."""
    out = {}
    for metric in MODULE_METRICS:
        name, kind = metric.rsplit(".", 1)
        source = totals["calls" if kind == "calls" else "self_s"]
        prefix = SUMS.get(name)
        value = sum(v for k, v in source.items() if k.startswith(prefix)) if prefix else source.get(name, 0)
        out[metric] = (1000 * value if kind == "self_ms" else value) / ops
    out["linalg.matmul.entry_products"] = totals["entry_products"] / ops
    return out


def add_totals(into: dict, more: dict):
    for key in ("calls", "self_s"):
        for k, v in more[key].items():
            into[key][k] = into[key].get(k, 0) + v
    into["entry_products"] = into.get("entry_products", 0) + more.get("entry_products", 0)


def shares(ops, groups: bool = False) -> dict:
    """Share of traced op time spent as self time of each name, per op group."""
    by_group: dict = {}
    for o in ops:
        key = o["group"] if groups else "all"
        g = by_group.setdefault(key, {"busy": 0.0, "self_s": {}})
        g["busy"] += o["latency_s"]
        for k, v in o["delta"]["self_s"].items():
            g["self_s"][k] = g["self_s"].get(k, 0.0) + v
    return {
        key: dict(sorted(((k, round(v / g["busy"], 4)) for k, v in g["self_s"].items()), key=lambda kv: -kv[1])[:8])
        for key, g in by_group.items()
    }


# -- entry point ---------------------------------------------------------------


def machine() -> dict:
    sha = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        sha = done.stdout.strip() or sha
    return {"nproc": os.cpu_count(), "python": platform.python_version(), "platform": platform.platform(),
            "git_sha": sha}


def run_traced(args, wl):
    half = args.seconds / 2
    plain = summarize(measure(wl, half, args.op_limit, False))
    if isinstance(wl, CliFixtures):
        wl.traced = True
        ops = measure(wl, half, args.op_limit, args.plant_wrong)
        totals = {"calls": {}, "self_s": {}}
        reports = [r or {"import_s": 0.0, "main_s": 0.0, "trace": {"calls": {}, "self_s": {}}, "spans": []}
                   for r in wl.reports]
        for o, report in zip(ops, reports):
            add_totals(totals, report["trace"])
            # the rest of the child's wall time is interpreter start and exit
            rest = o["latency_s"] - report["import_s"] - report["main_s"]
            o["delta"] = {"calls": report["trace"]["calls"],
                          "self_s": dict(report["trace"]["self_s"], **{"cli.import": report["import_s"],
                                                                        "cli.interpreter": rest})}
        spans = [(i, *s) for i, r in enumerate(reports) for s in r["spans"]]
        dropped = sum(r["trace"].get("spans_dropped", 0) for r in reports)
        missing = sorted({m for r in reports for m in r["trace"].get("missing", [])})
        main_ms = 1000 * statistics.fmean(r["main_s"] for r in reports)
    else:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        ops = measure(wl, half, args.op_limit, args.plant_wrong, tracer)
        tracer.uninstall()
        totals = tracer.totals()
        spans = [(0, *s) for s in tracer.spans]
        dropped = tracer.spans_dropped
        missing = tracer.missing
        main_ms = 0.0
    traced = summarize(ops)
    metrics = module_metrics(totals, len(ops))
    metrics["cli.interpreter_ms"] = probe_ms([sys.executable, "-c", "pass"])
    OUT.mkdir(exist_ok=True)
    metrics["cli.import_ms"] = import_probe_ms(OUT)
    metrics["cli.main_ms"] = main_ms
    metrics["trace.overhead_frac"] = (plain["norm"]["throughput_ops_per_s"]
                                      / traced["norm"]["throughput_ops_per_s"] - 1)
    stem = f"{args.workload}-seed{args.seed}-trace1"
    with open(OUT / f"{stem}-spans.txt", "w", encoding="utf-8") as handle:
        handle.write("# op sid parent name start end (perf_counter seconds)\n")
        for op, sid, parent, name, start, end in spans:
            handle.write(f"{op} {sid} {parent} {name} {start:.9f} {end:.9f}\n")
    record = {
        "untraced": plain,
        "traced": traced,
        "spans_kept": len(spans),
        "spans_dropped": dropped,
        "tracer_missing": missing,
        "shares": shares(ops, groups=True),
        "shares_all": shares(ops)["all"],
        "ring_per_op": [{k: [v, o["delta"]["self_s"].get(k, 0.0)] for k, v in o["delta"]["calls"].items()
                         if k.startswith("ring.")} for o in ops],
    }
    return traced, metrics, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # for selftest.py: plant a wrong answer on the first op, shorten the op limit,
    # or only time set-up (the extra set-up samples run this way)
    parser.add_argument("--plant-wrong", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--op-limit", type=float, default=OP_LIMIT_S, help=argparse.SUPPRESS)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "maslovkit" / "__init__.py").is_file() or not (ROOT / "fixtures").is_dir():
        print(f"maslovkit sources not found under {ROOT}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # one CPU for this process and its children, so that an op and the
    # reference timed next to it run on the same (shared) core
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

    wl, setup_s = setup_once(args.workload, args.seed)
    try:
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        # [wall, normalized] per set-up: this process's and SETUP_SAMPLES - 1 fresh ones
        setup_samples = [setup_s] + [child_setup_s(args) for _ in range(SETUP_SAMPLES - 1)]
        if args.trace:
            summary, metrics, record = run_traced(args, wl)
            units = {m: UNITS[m.rsplit(".", 1)[1]] for m in MODULE_METRICS}
            units.update({"linalg.matmul.entry_products": "count", "cli.interpreter_ms": "ms",
                          "cli.import_ms": "ms", "cli.main_ms": "ms", "trace.overhead_frac": "ratio"})
        else:
            ops = measure(wl, args.seconds, args.op_limit, args.plant_wrong)
            summary = summarize(ops)
            norm = summary["norm"]
            record = {"ops": [[o["label"], o["cycle"], round(1000 * o["latency_s"], 4), round(o["ref_ms"], 4)]
                              for o in ops]}
            metrics = {
                "setup_s": statistics.median(norm for _, norm in setup_samples),
                "throughput_norm_ops_per_s": norm["throughput_ops_per_s"],
                "latency_p50_norm_ms": norm["latency_p50_ms"],
                "latency_tail_norm_ms": norm["latency_tail_ms"],
                "peak_rss_mb": wl.peak_rss_mb(),
            }
            units = {"setup_s": "s", "throughput_norm_ops_per_s": "1/s", "latency_p50_norm_ms": "ms",
                     "latency_tail_norm_ms": "ms", "peak_rss_mb": "MB"}
    finally:
        wl.close()

    record.update({"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
                   "machine": machine(), "setup_samples_s": setup_samples, "summary": summary, "metrics": metrics})
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1), encoding="utf-8")
    wall = summary["wall"]
    print(f"{args.workload}: {summary['attempted']} ops, {summary['failed']} failed "
          f"(failed_ops_frac {summary['failed_ops_frac']:.4f}); tail = p{summary['tail_percentile']} "
          f"with {summary['tail_samples_beyond']} samples beyond; wall time: {wall['throughput_ops_per_s']:.4g} "
          f"ops/s, p50 {wall['latency_p50_ms']:.4g} ms, tail {wall['latency_tail_ms']:.4g} ms; reference "
          f"{summary['reference_ms_median']:.4g} ms; per class (ms): {summary['per_class_median_ms']}")
    if args.trace:
        print(f"self-time shares: {record['shares']}")
    print(json.dumps({
        "correct": summary["failed"] == 0,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
