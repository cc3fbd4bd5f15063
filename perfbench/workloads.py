"""The four benchmark workloads: inputs, one measured pass, and output checks.

Each workload class has
  ``setup(seed)``  builds every input; the parent times it as set-up,
  ``run()``        one measured pass, returning its operations in order,
  ``verify(ops)``  checks every output outside the timed region, marking
                   each operation that returned a wrong answer as failed,
  ``info()``       facts about the inputs for the result record,
  ``teardown()``   removes what set-up wrote,
  ``record()``     the fixed outputs that ``expected.json`` holds digests of.

The workload code calls zsl through module attributes (``invariants.tau``,
never a ``from`` import), so the tracer's rebinding reaches these calls.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import random
import shutil
import subprocess
import sys
from dataclasses import dataclass
from time import perf_counter

import zsl
from zsl import atoms, certify, constructions, invariants, models
from zsl.ground import GroundSet

HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED_PATH = os.path.join(HERE, "expected.json")
OUT_DIR = ".perfbench_out"


@dataclass
class Op:
    kind: str
    name: str
    seconds: float
    result: object = None
    error: str | None = None
    start: float = 0.0

    @property
    def ok(self) -> bool:
        return self.error is None


def timed(ops: list, kind: str, name: str, fn, *args) -> None:
    start = perf_counter()
    try:
        result, error = fn(*args), None
    except Exception as exc:  # noqa: BLE001 - a raising operation is a failed one
        result, error = None, f"{type(exc).__name__}: {exc}"
    ops.append(Op(kind, name, perf_counter() - start, result, error, start))


def fail(op: Op, why: str) -> None:
    if op.error is None:
        op.error = why


def sha256(data) -> str:
    if not isinstance(data, bytes):
        data = json.dumps(data, sort_keys=True, default=str).encode()
    return hashlib.sha256(data).hexdigest()


def load_expected() -> dict:
    with open(EXPECTED_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def atom_digest(atom_set) -> str:
    """Sorted atom list, ``complete`` flag and largest atom length."""
    return sha256({"atoms": [list(a.mult) for a in atom_set.atoms],
                   "complete": atom_set.complete,
                   "davenport": atom_set.max_length()})


# ---------------------------------------------------------------------------
# enumerate: Hilbert bases of large ground sets
# ---------------------------------------------------------------------------

# {|x| + |y| <= 3, |y| <= 1} \ {0}: complete, 304 atoms, D = 10, and
# dominance tests make up most of its time.
BAND16 = tuple((x, y) for x in range(-3, 4) for y in range(-1, 2)
               if 0 < abs(x) + abs(y) <= 3)
RANDOM_GROUNDS = 60
RANDOM_BUDGET = 7
TEMPLATE_SEED = 2718


def template_grounds() -> list[tuple[int, list[tuple[int, ...]]]]:
    """Fixed small rank-2/3 grounds with coordinates in [-3, 3]."""
    rng = random.Random(TEMPLATE_SEED)
    out = []
    while len(out) < RANDOM_GROUNDS:
        rank = rng.randint(2, 3)
        size = rng.randint(3, 7)
        elems: set[tuple[int, ...]] = set()
        while len(elems) < size:
            v = tuple(rng.randint(-3, 3) for _ in range(rank))
            if any(v):
                elems.add(v)
        out.append((rank, sorted(elems)))
    return out


class Workload:
    def teardown(self) -> None:
        """Remove whatever set-up left on disk."""


class Enumerate(Workload):
    """enumerate_atoms on the rank-4 signed hypercube at a length budget, on a
    complete rank-2 ground, and on a seeded batch of small grounds.

    The seed re-embeds each fixed template ground by a signed permutation of
    the coordinates and shuffles its element order.  That is a lattice
    automorphism, so the inputs change with the seed while the atom count
    and the enumeration work do not: run-to-run spread stays machine noise.
    """

    def setup(self, seed: int) -> None:
        self.inputs = [
            ("rank4-budget3", constructions.hypercube_pm(4), 3),
            ("rank2-band16", GroundSet.from_elements(2, BAND16), None),
        ]
        rng = random.Random(seed)
        for i, (rank, elems) in enumerate(template_grounds()):
            perm = rng.sample(range(rank), rank)
            signs = [rng.choice((1, -1)) for _ in range(rank)]
            moved = [tuple(signs[j] * v[perm[j]] for j in range(rank)) for v in elems]
            rng.shuffle(moved)
            self.inputs.append((f"random-{i:02d}", GroundSet.from_elements(rank, moved),
                                RANDOM_BUDGET))

    def run(self) -> list[Op]:
        ops: list[Op] = []
        for name, ground, budget in self.inputs:
            timed(ops, "ground", name, atoms.enumerate_atoms, ground, budget)
        return ops

    def verify(self, ops: list[Op]) -> None:
        expected = load_expected()["enumerate"]
        for op, (name, ground, budget) in zip(ops, self.inputs):
            if not op.ok:
                continue
            if name in expected:
                if atom_digest(op.result) != expected[name]:
                    fail(op, "atom list differs from the recorded digest")
                continue
            fast = sorted(a.mult for a in op.result.atoms if a.length <= budget)
            slow = sorted(a.mult for a in atoms.brute_force_atoms(ground, budget))
            if fast != slow:
                fail(op, "atoms differ from brute_force_atoms")

    def info(self) -> dict:
        return {"grounds": len(self.inputs)}

    def record(self) -> dict:
        self.setup(0)
        return {name: atom_digest(atoms.enumerate_atoms(ground, budget))
                for name, ground, budget in self.inputs[:2]}


# ---------------------------------------------------------------------------
# factorize: element queries and a monoid-level sweep
# ---------------------------------------------------------------------------

QUERIES_PER_STRATUM = 60  # per monoid and per atom count k = 2, 3, 4
UNION_KS = (4, 5, 6)
RANK3_LENGTH3_ATOMS = 2


def ground_permutations(ground: GroundSet) -> list[tuple[int, ...]]:
    """Index permutations of a ground set induced by signed coordinate permutations."""
    index = ground.index
    out = []
    for perm in itertools.permutations(range(ground.rank)):
        for signs in itertools.product((1, -1), repeat=ground.rank):
            image = [tuple(s * v[j] for s, j in zip(signs, perm)) for v in ground.elements]
            if all(w in index for w in image):
                out.append(tuple(index[w] for w in image))
    return out


def automorphisms(monoid, candidates) -> list[tuple[int, ...]]:
    """The coordinate permutations among ``candidates`` that fix the atom set."""
    atom_set = set(monoid.atoms)
    return [p for p in candidates
            if {tuple(a[j] for j in p) for a in monoid.atoms} == atom_set]


class Factorize(Workload):
    """set_of_lengths and catenary_element on seeded elements, and a fixed
    sweep of union_of_lengths extremes and tame_degree.

    The elements are fixed template sums of k atoms, each moved by a seeded
    automorphism of its monoid (a coordinate permutation that fixes the atom
    set), so every seed asks isomorphic questions of the same difficulty.
    The queries run in chunks between the sweep items, so that the query
    latencies are sampled across the whole pass.
    """

    def setup(self, seed: int) -> None:
        ground = constructions.hypercube_pm(3)
        rank3 = invariants.block_monoid(atoms.enumerate_atoms(ground))
        acm = models.AcmModel(certify.ACM_SPEC).presented()
        self.monoids = {"rank3": rank3, "acm": acm}
        autos = {"rank3": automorphisms(rank3, ground_permutations(ground)),
                 "acm": automorphisms(acm, itertools.permutations(range(acm.ambient_dim)))}
        template = random.Random(TEMPLATE_SEED)
        rng = random.Random(seed)
        self.queries = []
        for name, monoid in self.monoids.items():
            for k in (2, 3, 4):
                for _ in range(QUERIES_PER_STRATUM):
                    counts = [0] * monoid.atom_count
                    for _ in range(k):
                        counts[template.randrange(monoid.atom_count)] += 1
                    x = monoid.element(counts)
                    p = rng.choice(autos[name])
                    self.queries.append((name, k, tuple(x[j] for j in p)))
        rng.shuffle(self.queries)
        self.automorphism_counts = {name: len(a) for name, a in autos.items()}

        lengths = rank3.atom_lengths()
        by_length = {n: [i for i, l in enumerate(lengths) if l == n] for n in (2, 3)}
        # functions by name: they are looked up when called, after the tracer is in
        self.sweep = [(f"union-rank3-k{k}", "union_of_lengths", (rank3, k, "extremes"))
                      for k in UNION_KS]
        for name, indices in (("rank3", by_length[2] + by_length[3][:RANK3_LENGTH3_ATOMS]),
                              ("acm", range(acm.atom_count))):
            self.sweep += [(f"tame-{name}-{i}", "tame_degree", (self.monoids[name], i))
                           for i in indices]
        # the definition-budget oracle takes ~0.1 s on a length-2 rank-3 atom,
        # but seconds on a length-3 one or on an acm atom
        self.oracle_atoms = [("rank3", i) for i in rng.sample(by_length[2], 2)]

    @staticmethod
    def _query(monoid, x):
        return invariants.set_of_lengths(monoid, x), invariants.catenary_element(monoid, x)

    def run(self) -> list[Op]:
        ops: list[Op] = []
        chunks = len(self.sweep)
        for c, (name, function, args) in enumerate(self.sweep):
            lo = c * len(self.queries) // chunks
            hi = (c + 1) * len(self.queries) // chunks
            for i in range(lo, hi):
                monoid_name, _, x = self.queries[i]
                timed(ops, "query", f"{monoid_name}-{i}", self._query,
                      self.monoids[monoid_name], x)
            timed(ops, "sweep", name, getattr(invariants, function), *args)
        return ops

    @staticmethod
    def _sweep_value(op: Op):
        if op.name.startswith("union"):
            return [op.result.rho, op.result.lam]
        return op.result

    def verify(self, ops: list[Op]) -> None:
        expected = load_expected()["factorize"]
        query_ops = [op for op in ops if op.kind == "query"]
        for op, (name, k, x) in zip(query_ops, self.queries):
            if op.ok:
                self._check_query(op, self.monoids[name], k, x)
        sweep = {op.name: op for op in ops if op.kind == "sweep"}
        for op in sweep.values():
            if op.ok and self._sweep_value(op) != expected.get(op.name):
                fail(op, f"{op.name} = {self._sweep_value(op)}, recorded {expected.get(op.name)}")
        for name, i in self.oracle_atoms:
            op = sweep[f"tame-{name}-{i}"]
            monoid = self.monoids[name]
            oracle = invariants.omega(monoid, i, "definition-budget")
            if oracle != invariants.omega(monoid, i, "minimal-cover"):
                fail(op, "omega differs from the definition-budget oracle")
            elif op.ok and (op.result < oracle if oracle > 1 else op.result != 0):
                fail(op, "tame degree below the oracle omega")

    @staticmethod
    def _check_query(op: Op, monoid, k: int, x) -> None:
        lengths, catenary = op.result
        if k not in lengths:
            fail(op, f"a sum of {k} atoms lacks length {k}")
            return
        atom_lengths = monoid.atom_lengths()
        total = sum(x)
        band = range(-(-total // max(atom_lengths)), total // min(atom_lengths) + 1)
        for target in band:
            if invariants.exists_length(monoid, x, target) != (target in lengths):
                fail(op, f"exists_length disagrees at length {target}")
                return
        gaps = [b - a for a, b in zip(lengths, lengths[1:])]
        if catenary == 1 or catenary > max(lengths) or (gaps and catenary < 2 + max(gaps)):
            fail(op, f"catenary {catenary} is inconsistent with lengths {lengths}")

    def info(self) -> dict:
        return {"queries": len(self.queries),
                "distinct_share": len({(n, x) for n, _, x in self.queries}) / len(self.queries),
                "automorphisms": self.automorphism_counts}

    def record(self) -> dict:
        self.setup(0)
        return {op.name: self._sweep_value(op) for op in self.run() if op.kind == "sweep"}


# ---------------------------------------------------------------------------
# certify: the acceptance criteria, one run_suite call each
# ---------------------------------------------------------------------------


class Certify(Workload):
    """The 11 acceptance criteria, each through run_suite([name]) so the
    CRITERIA time limits stay the gate."""

    def setup(self, seed: int) -> None:
        self.names = [name for name, _, _ in certify.CRITERIA]

    def run(self) -> list[Op]:
        ops: list[Op] = []
        for name in self.names:
            timed(ops, "criterion", name, certify.run_suite, [name])
        return ops

    def verify(self, ops: list[Op]) -> None:
        expected = load_expected()["certify"]
        for op in ops:
            if not op.ok:
                continue
            (res,) = op.result
            if not res.passed:
                fail(op, f"FAIL {res.name}: {res.error}")
            elif sha256(res.details) != expected.get(op.name):
                fail(op, "criterion details differ from the recorded digest")

    def info(self) -> dict:
        return {"criteria": len(self.names)}

    def record(self) -> dict:
        self.setup(0)
        out = {}
        for op in self.run():
            (res,) = op.result
            assert res.passed, res.error
            out[op.name] = sha256(res.details)
        return out


# ---------------------------------------------------------------------------
# cli: the README examples, each in a fresh interpreter
# ---------------------------------------------------------------------------

CLI_INPUTS = {
    "g0.json": {"rank": 2, "elements": [[-1, -1], [-1, 0], [0, -1], [0, 1], [1, 0], [1, 1]]},
    "seq.json": {"mult": [1, 1, 1, 1, 1, 1]},
    "rational_seq.json": {"mult": ["3/2", 0, 0, "3/2", "3/2", 0]},
    "acm.json": {"omega": 5, "c": ["1", "1", "1", "3/2", "3/2"],
                 "lambda": [[1, 2], [3, 4]]},
    "towers.json": {"udim": 1, "cycle_towers": [{"ranks": [1, 1]}, {"ranks": [2, 1]}],
                    "faithful_towers": [], "class_group": [2]},
}
# README quick tour, minus certify (workload certify) and probe-r4 (the
# rank-4 enumeration is workload enumerate); hypercube prints instead of -o.
CLI_COMMANDS = [
    ("hypercube", ["hypercube", "--rank", "2", "--signed"]),
    ("atoms", ["atoms", "-i", "g0.json"]),
    ("davenport", ["davenport", "-i", "g0.json"]),
    ("delm", ["delm", "-i", "g0.json", "--method", "both"]),
    ("bounds", ["bounds", "-i", "g0.json"]),
    ("lengths", ["lengths", "-i", "g0.json", "--element", "seq.json"]),
    ("unions", ["unions", "-i", "g0.json", "--k", "4"]),
    ("catenary", ["catenary", "-i", "g0.json", "--element", "seq.json"]),
    ("omega", ["omega", "-i", "g0.json", "--atom", "0", "--mode", "both"]),
    ("tame", ["tame", "-i", "g0.json", "--atom", "0"]),
    ("decompose", ["decompose", "-i", "g0.json", "--seq", "rational_seq.json"]),
    ("fib", ["fib", "--rank", "5", "--verify"]),
    ("fp", ["fp", "--group", "2,2", "--budget", "6"]),
    ("monext", ["monext", "--h0", "g0.json", "--d", "group:2", "--check", "all"]),
    ("acm", ["acm", "--spec", "acm.json"]),
    ("hnp", ["hnp", "--towers", "towers.json"]),
]
CLI_TIMEOUT_S = 60


class Cli(Workload):
    """Each README example as a fresh ``python -m zsl.cli`` process."""

    def __init__(self, trace_prefix: str | None = None):
        # traced passes run each command through worker.py, which installs
        # the tracer and writes its summary to <trace_prefix>-<name>.json
        self.trace_prefix = trace_prefix

    def setup(self, seed: int) -> None:
        self.workdir = os.path.abspath(os.path.join(OUT_DIR, f"cli-{os.getpid()}"))
        os.makedirs(self.workdir, exist_ok=True)
        # the commands import the same zsl as this process, from any cwd
        src = os.path.dirname(os.path.dirname(os.path.abspath(zsl.__file__)))
        self.env = dict(os.environ, PYTHONPATH=src)
        for name, data in CLI_INPUTS.items():
            with open(os.path.join(self.workdir, name), "w", encoding="utf-8") as fh:
                json.dump(data, fh)

    def _argv(self, name: str, args: list[str]) -> list[str]:
        if self.trace_prefix is None:
            return [sys.executable, "-m", "zsl.cli", *args]
        summary = f"{self.trace_prefix}-{name}.json"
        return [sys.executable, os.path.join(HERE, "worker.py"),
                "--cli-command", summary, "--", *args]

    def _command(self, name: str, args: list[str]):
        proc = subprocess.run(self._argv(name, args), cwd=self.workdir, env=self.env,
                              stdout=subprocess.PIPE, timeout=CLI_TIMEOUT_S, check=False)
        if proc.returncode != 0:
            raise RuntimeError(f"exit status {proc.returncode}")
        return proc.stdout

    def run(self) -> list[Op]:
        ops: list[Op] = []
        for name, args in CLI_COMMANDS:
            timed(ops, "command", name, self._command, name, args)
        return ops

    def verify(self, ops: list[Op]) -> None:
        expected = load_expected()["cli"]
        for op in ops:
            if op.ok and sha256(op.result) != expected.get(op.name):
                fail(op, "stdout differs from the recorded digest")

    def teardown(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)

    def info(self) -> dict:
        return {"commands": len(CLI_COMMANDS)}

    def record(self) -> dict:
        self.setup(0)
        out = {}
        for op in self.run():
            assert op.ok, (op.name, op.error)
            out[op.name] = sha256(op.result)
        self.teardown()
        return out


WORKLOADS = {"enumerate": Enumerate, "factorize": Factorize,
             "certify": Certify, "cli": Cli}
