"""Command-line front end.

Every subcommand reads exact JSON inputs, computes one report, and writes it
as JSON (default), CSV, or an aligned table.  All numeric output is exact:
integers stay integers and rationals are rendered as "p/q" strings.  Exit
status: 0 on success, 1 when a computed invariant fails (the message carries
the witness), 2 on malformed input, 130 on Ctrl-C.

Every subcommand writes ``-o`` the same way: the path is claimed before any
work runs, a file is replaced atomically once the report is complete, and a
device such as /dev/null is written in place.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import contextmanager
from fractions import Fraction

from .ground import GroundSet, RationalSequence, Sequence, _encode_mult


class InputError(Exception):
    """Malformed input: reported on stderr with exit status 2."""


def _parse_file(path: str, parse):
    """parse(the JSON in the file at path); a file that cannot be read or
    parsed is malformed input, reported with its path."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"{path} is not valid JSON: {exc}") from exc
    try:
        return parse(data)
    except ValueError as exc:
        raise InputError(f"{path}: {exc}") from exc


def _load_ground(args) -> GroundSet:
    return _parse_file(args.input,
                       lambda data: GroundSet.from_json(data, canonicalize=args.canonicalize))


def _load_sequence(ground: GroundSet, path: str, rational: bool = False):
    parse = RationalSequence.from_json if rational else Sequence.from_json
    return _parse_file(path, lambda data: parse(ground, data))


def _encode(value):
    if isinstance(value, Fraction):
        return _encode_mult(value)
    if isinstance(value, frozenset):
        return sorted(value)
    if isinstance(value, (set, tuple, list)):
        return [_encode(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _encode(v) for k, v in value.items()}
    return value


def _flatten(report, prefix=""):
    rows = []
    if isinstance(report, dict):
        for key in sorted(report):
            rows.extend(_flatten(report[key], f"{prefix}{key}." if prefix else f"{key}."))
        if not report:
            rows.append((prefix.rstrip("."), "{}"))
    else:
        rendered = json.dumps(_encode(report), sort_keys=True)
        rows.append((prefix.rstrip("."), rendered))
    return rows


def _render(report: dict, args) -> str:
    report = _encode(report)
    if args.format == "json":
        return json.dumps(report, indent=2, sort_keys=True) + "\n"
    if args.format == "csv":
        lines = ["key,value"]
        for key, value in _flatten(report):
            quoted = value.replace('"', '""')
            lines.append(f'{key},"{quoted}"')
        return "\n".join(lines) + "\n"
    rows = _flatten(report)
    width = max((len(k) for k, _ in rows), default=0)
    return "\n".join(f"{k.ljust(width)}  {v}" for k, v in rows) + "\n"


@contextmanager
def _output(path: str | None):
    """Claim the -o ``path`` (stdout for None) and yield commit(text).

    A directory, a missing parent or an unwritable path is an InputError
    naming ``path``, before any work runs.  A regular file, or a path that
    does not exist yet, gets an empty scratch file beside its target (the
    link's target, for a symlink), which commit renames onto it; an error or
    Ctrl-C before that removes the scratch file and leaves the old file as it
    was.  Any other existing path (/dev/null, /dev/stdout) cannot be renamed
    onto, so it is opened here and written in place.
    """
    if path is None:
        yield sys.stdout.write
        return
    target = os.path.realpath(path)
    # a pipe behind /dev/stdout resolves to no path, so test the path itself
    in_place = os.path.isdir(target) or (os.path.exists(path) and not os.path.isfile(path))
    head, tail = os.path.split(target)
    scratch = os.path.join(head, f".{tail}.{os.getpid()}.tmp")
    try:
        fh = open(path, "w", encoding="utf-8") if in_place else open(
            scratch, "x", encoding="utf-8")
        if not in_place and os.path.exists(target):  # keep the mode of the file replaced
            os.chmod(scratch, os.stat(target).st_mode & 0o7777)
    except OSError as exc:  # its strerror, since exc may name the scratch file
        raise InputError(f"cannot write {path}: {exc.strerror or exc}") from exc

    def commit(text: str) -> None:
        try:
            with fh:
                fh.write(text)
            if not in_place:
                os.replace(scratch, target)
        except OSError as exc:
            raise InputError(f"cannot write {path}: {exc.strerror or exc}") from exc

    try:
        yield commit
    finally:
        fh.close()
        if not in_place and os.path.exists(scratch):
            os.unlink(scratch)


def _positive_int(text: str) -> int:
    if not text.isdigit() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    return int(text)


_OPTIONS = {
    "input": (("-i", "--input"), {
        "required": True,
        "help": "ground set JSON: {\"rank\": r, \"elements\": [[..], ..]}"}),
    "output": (("-o", "--output"), {"help": "write the report to this file"}),
    "format": (("--format",), {"choices": ("json", "csv", "table"), "default": "json"}),
    "seed": (("--seed",), {"type": int, "default": 0, "help": "seed for sampled checks"}),
    "canonicalize": (("--canonicalize",), {
        "action": "store_true",
        "help": "sort ground elements lexicographically before indexing"}),
    "budget": (("--budget",), {"type": _positive_int, "default": None,
                               "help": "search length cap where applicable"}),
}
# the options of a subcommand that reads a ground set and enumerates its atoms
_GROUND = ("input", "output", "format", "canonicalize", "budget")
# the options of a subcommand that reads no ground set
_REPORT = ("output", "format")


def _add_common(parser: argparse.ArgumentParser, *names: str) -> None:
    for name in names:
        flags, kwargs = _OPTIONS[name]
        parser.add_argument(*flags, **kwargs)


def _parse_group(text: str):
    from .models import FiniteAbelianGroup

    text = text.strip()
    if text in ("", "0", "trivial"):
        return FiniteAbelianGroup.from_factors([])
    try:
        return FiniteAbelianGroup.from_factors([int(x) for x in text.split(",")])
    except ValueError as exc:
        raise InputError(f"bad group spec {text!r}: {exc}") from exc


# ---------------------------------------------------------------------------
# subcommand handlers: each imports the modules it runs, so that a command
# loads (and, without cached bytecode, compiles) only those
# ---------------------------------------------------------------------------


def cmd_atoms(args) -> dict:
    from .atoms import davenport, enumerate_atoms

    ground = _load_ground(args)
    atom_set = enumerate_atoms(ground, args.budget)
    report = atom_set.to_json()
    dav = davenport(atom_set)
    report.update(dav.to_json())
    return report


def cmd_davenport(args) -> dict:
    from .atoms import davenport, enumerate_atoms

    ground = _load_ground(args)
    return davenport(enumerate_atoms(ground, args.budget)).to_json()


def cmd_delm(args) -> dict:
    from .atoms import elementary_davenport

    ground = _load_ground(args)
    report = {"elementary_davenport": elementary_davenport(ground, args.method, args.budget),
              "method": args.method}
    if args.method == "both":
        report["certifies"] = "determinant-formula-matches-enumeration"
    return report


def cmd_bounds(args) -> dict:
    from .atoms import davenport_upper_bounds, enumerate_atoms

    ground = _load_ground(args)
    return davenport_upper_bounds(ground, enumerate_atoms(ground, args.budget))


def cmd_decompose(args) -> dict:
    from .atoms import rational_elementary_decomposition

    ground = _load_ground(args)
    seq = _load_sequence(ground, args.seq, rational=True)
    if not seq.is_zero_sum():
        raise InputError(f"{args.seq}: the sequence must be zero-sum")
    dec = rational_elementary_decomposition(seq, args.budget)
    report = dec.to_json()
    report["parts_count"] = dec.ell
    report["reconstructs"] = dec.reassemble() == seq
    return report


def _monoid_for(args, ground: GroundSet):
    from .atoms import enumerate_atoms
    from .invariants import block_monoid

    atom_set = enumerate_atoms(ground, args.budget)
    if not atom_set.complete:
        raise InputError("atom enumeration hit the budget; raise --budget")
    return block_monoid(atom_set)


def cmd_lengths(args) -> dict:
    from .invariants import factorizations

    ground = _load_ground(args)
    monoid = _monoid_for(args, ground)
    seq = _load_sequence(ground, args.element)
    zs = factorizations(monoid, seq.mult)
    return {
        "lengths": sorted(set(map(sum, zs))),
        "factorizations": zs,
        "in_monoid": bool(zs),
    }


def cmd_unions(args) -> dict:
    from .invariants import union_of_lengths

    ground = _load_ground(args)
    monoid = _monoid_for(args, ground)
    result = union_of_lengths(monoid, args.k, args.strategy)
    return result.to_json()


def cmd_catenary(args) -> dict:
    from .invariants import _packed_catenary, _packed_lengths, _sorted_factorizations

    ground = _load_ground(args)
    monoid = _monoid_for(args, ground)
    seq = _load_sequence(ground, args.element)
    lanes, zs = _sorted_factorizations(monoid, seq.mult)
    if not zs:
        raise InputError("element is not a zero-sum sequence over the ground set")
    return {
        "catenary": _packed_catenary(lanes, zs),
        "lengths": sorted(set(_packed_lengths(lanes, zs))),
        "factorizations": lanes.unpack_all(zs),
    }


def cmd_omega(args) -> dict:
    from .invariants import omega

    ground = _load_ground(args)
    monoid = _monoid_for(args, ground)
    if not 0 <= args.atom < monoid.atom_count:
        raise InputError(f"--atom must index the {monoid.atom_count} canonical atoms")
    report = {"atom": list(monoid.atoms[args.atom]), "mode": args.mode,
              "omega": omega(monoid, args.atom, args.mode)}
    if args.mode == "both":
        report["modes_agree"] = True
    return report


def cmd_tame(args) -> dict:
    from .invariants import atom_invariants

    ground = _load_ground(args)
    monoid = _monoid_for(args, ground)
    if not 0 <= args.atom < monoid.atom_count:
        raise InputError(f"--atom must index the {monoid.atom_count} canonical atoms")
    report = {"atom": list(monoid.atoms[args.atom]), **atom_invariants(monoid, args.atom)}
    if report["omega"] == 1:
        report["note"] = "prime atom, tame degree 0"
    return report


# the partial-sum check behind --verify is exhaustive and grows about 20-fold
# per rank: on one core rank 8 takes 0.16 s, rank 9 3.5 s and 290 MB
_FIB_VERIFY_MAX_RANK = 9
# hypercube and fib build the 2 (2^R - 1) signed vertices of rank R; time and
# memory double per rank: on one core rank 16 takes 1.7 s and 142 MB
_MAX_RANK = 16


def _check_rank(rank: int) -> None:
    if rank > _MAX_RANK:
        raise InputError(f"--rank must be at most {_MAX_RANK}, got {rank}")


def cmd_fib(args) -> dict:
    from .constructions import VERIFY_LIMIT, fibonacci_witness, hypercube_pm

    _check_rank(args.rank)
    if args.verify and args.rank > _FIB_VERIFY_MAX_RANK:
        raise InputError(f"--verify checks ranks up to {_FIB_VERIFY_MAX_RANK}, got --rank "
                         f"{args.rank}; drop --verify for the unverified witness")
    witness = fibonacci_witness(args.rank,
                                verify_limit=args.rank if args.verify else VERIFY_LIMIT)
    report = witness.to_json()
    report["stack"] = witness.stack.to_json()
    report["atom"] = witness.atom.to_json()
    report["ground"] = hypercube_pm(args.rank).to_json()
    return report


def cmd_hypercube(args) -> dict:
    from .constructions import hypercube_plus, hypercube_pm

    _check_rank(args.rank)
    ground = hypercube_pm(args.rank) if args.signed else hypercube_plus(args.rank)
    return ground.to_json()


def cmd_fp(args) -> dict:
    from .models import fp_rank1_invariants

    group = _parse_group(args.group)
    return fp_rank1_invariants(group, args.budget or 6)


_MONEXT_CHECKS = ("theta", "invariants", "catenary")


def cmd_monext(args) -> dict:
    from .invariants import elements_up_to, factorizations
    from .models import MonextModel, monext_catenary, monext_invariants, monext_theta_check

    kind, _, payload = args.d.partition(":")
    if kind == "group":
        d_kwargs = {"group": _parse_group(payload)}
    elif kind == "free" and (payload or "1").isdigit():
        d_kwargs = {"free_rank": int(payload or "1")}
    else:
        raise InputError("--d must look like group:2,2 or free:1")
    if args.check == "all":
        checks = _MONEXT_CHECKS if kind == "group" else ("theta",)
    else:
        checks = args.check.split(",")
        for name in checks:
            if name not in _MONEXT_CHECKS:
                raise InputError(f"--check: unknown check {name!r}, "
                                 f"expected a comma list from {','.join(_MONEXT_CHECKS)}")
        if kind != "group" and {"invariants", "catenary"} & set(checks):
            raise InputError("--check invariants and catenary need a group D, "
                             f"got --d {args.d}")
    if "theta" in checks and args.samples < 1:
        raise InputError(f"--samples must be at least 1, got {args.samples}")
    h0 = _monoid_for(args, _load_ground(args))
    model = MonextModel(h0, **d_kwargs)
    report: dict = {"h0_atoms": h0.atom_count, "d": args.d}
    if "theta" in checks:
        report["theta"] = monext_theta_check(model, samples=args.samples, seed=args.seed)
    if "invariants" in checks:
        stats = []
        for i in range(h0.atom_count):
            for d in model.group.elements():
                inv = monext_invariants(model, i, d)
                stats.append({"atom": i, "d": list(d), **inv["formula"]})
        report["atom_invariants"] = stats
    if "catenary" in checks:
        classified = 0
        for x in sorted(elements_up_to(h0, 2)):
            zs = factorizations(h0, x)
            if not zs or max(map(sum, zs)) < 2:
                continue
            for d in model.group.elements():
                monext_catenary(model, x, d, zs)
                classified += 1
        report["catenary_elements_checked"] = classified
    return report


def cmd_acm(args) -> dict:
    from .models import AcmSpec, acm_report

    spec = _parse_file(args.spec, AcmSpec.from_json)
    return acm_report(spec, level_budget=args.budget or 4)


def cmd_hnp(args) -> dict:
    from .models import TowerData, hnp_report

    data = _parse_file(args.towers, TowerData.from_json)
    return hnp_report(data, level_budget=args.budget or 4)


def _suite(text: str) -> list[str]:
    """The names of the criteria --suite selects.  argparse passes the
    InputError of an unknown name on, so it exits 2 before -o is claimed or
    the suite runs."""
    from .certify import _select

    try:
        return [name for name, _, _ in _select(None if text == "all" else text.split(","))]
    except ValueError as exc:
        raise InputError(f"--suite: {exc}") from exc


def cmd_certify(args) -> dict:
    from .certify import run_suite

    report = {}
    for name in args.suite:  # one at a time, so that each line prints as its criterion ends
        (res,) = run_suite([name])
        line = f"{'PASS' if res.passed else 'FAIL'} {res.name} ({res.seconds:.2f}s)"
        if res.error:
            line += f" :: {res.error}"
        print(line, flush=True)
        report[res.name] = {"passed": res.passed, "seconds": round(res.seconds, 3),
                            **({"error": res.error} if res.error else {}),
                            **res.details}
    return report


def _certify_status(report: dict) -> int:
    return 0 if all(entry["passed"] for entry in report.values()) else 1


def cmd_probe_r4(args) -> dict:
    """Certified lower bounds for the rank-4 signed hypercube.

    The determinant formula is swept exhaustively over the positive vertex
    tuples (sign flips never change the value), giving the elementary
    Davenport constant exactly; whether the full Davenport constant exceeds
    it stays open and is not claimed either way.
    """
    from .atoms import enumerate_atoms, longest_circuit
    from .constructions import fibonacci, hypercube_plus, hypercube_pm

    best, witness = longest_circuit(4, hypercube_plus(4).elements)
    fib_lb = fibonacci(6)
    budget = args.budget or 4
    longest = enumerate_atoms(hypercube_pm(4), budget=budget).max_length()
    return {
        "rank": 4,
        "elementary_davenport": best,
        "elementary_witness_support": [list(v) for v in witness],
        "fibonacci_lower_bound": fib_lb,
        "partial_enumeration_budget": budget,
        "partial_enumeration_longest_atom": longest,
        "davenport_lower_bound": max(best, fib_lb, longest),
        "davenport_exact": None,
        "note": "lower bounds only; no equality claim at rank 4",
    }


_EXAMPLES = """\
examples:
  zsl hypercube --rank 2 --signed -o g0.json
  zsl atoms -i g0.json --budget 10 -o atoms.json
  zsl davenport -i g0.json
  zsl delm -i g0.json --method both
  zsl bounds -i g0.json
  zsl lengths -i g0.json --element seq.json
  zsl unions -i g0.json --k 4
  zsl catenary -i g0.json --element seq.json
  zsl omega -i g0.json --atom 0 --mode both
  zsl tame -i g0.json --atom 0
  zsl decompose -i g0.json --seq rational_seq.json
  zsl fib --rank 5 --verify
  zsl fp --group 2,2 --budget 6
  zsl monext --h0 g0.json --d group:2 --check all --samples 200
  zsl acm --spec acm.json
  zsl hnp --towers towers.json
  zsl certify --suite all
  zsl probe-r4
"""


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zsl",
        description="Exact factorization invariants of zero-sum monoids over Z^r.",
        epilog=_EXAMPLES,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.set_defaults(report_on_stdout=True, exit_status=lambda report: 0)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, handler, help, *options):
        p = sub.add_parser(name, help=help)
        _add_common(p, *options)
        p.set_defaults(handler=handler)
        return p

    command("atoms", cmd_atoms, "enumerate the minimal zero-sum sequences", *_GROUND)
    command("davenport", cmd_davenport, "largest atom length, with witnesses", *_GROUND)

    p = command("delm", cmd_delm, "largest elementary atom length", *_GROUND)
    p.add_argument("--method", choices=("enumerate", "formula", "both"),
                   default="both")

    command("bounds", cmd_bounds, "certified Davenport upper bounds", *_GROUND)

    p = command("decompose", cmd_decompose, "rational elementary decomposition", *_GROUND)
    p.add_argument("--seq", required=True, help="sequence JSON {\"mult\": [..]}")

    p = command("lengths", cmd_lengths, "set of lengths of an element", *_GROUND)
    p.add_argument("--element", required=True, help="sequence JSON {\"mult\": [..]}")

    p = command("unions", cmd_unions, "union of sets of lengths through k", *_GROUND)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--strategy", choices=("exhaustive", "extremes"),
                   default="exhaustive")

    p = command("catenary", cmd_catenary, "catenary degree of an element", *_GROUND)
    p.add_argument("--element", required=True)

    p = command("omega", cmd_omega, "omega invariant of an atom", *_GROUND)
    p.add_argument("--atom", type=int, required=True,
                   help="index into the canonical (sorted) atom list")
    p.add_argument("--mode", choices=("minimal-cover", "definition-budget", "both"),
                   default="both")

    p = command("tame", cmd_tame, "tame degree of an atom", *_GROUND)
    p.add_argument("--atom", type=int, required=True)

    p = command("fib", cmd_fib, "Fibonacci witness for a rank", *_REPORT)
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--verify", action="store_true",
                   help="force the minimality check at this rank")

    p = command("hypercube", cmd_hypercube, "hypercube vertex ground set", *_REPORT)
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--signed", action="store_true",
                   help="include the negated vertices")

    p = command("fp", cmd_fp, "rank-1 finitely primary monoid invariants", *_REPORT, "budget")
    p.add_argument("--group", default="trivial",
                   help="invariant factors, e.g. 2,2 (or 'trivial')")

    p = command("monext", cmd_monext, "unit-pinned product checks",
                *_REPORT, "seed", "canonicalize", "budget")
    # stored as input, so that --h0 is read like the -i ground of the other subcommands
    p.add_argument("--h0", dest="input", metavar="H0", required=True,
                   help="ground set JSON for the base monoid")
    p.add_argument("--d", required=True, help="group:2,2 or free:1")
    p.add_argument("--check", default="all",
                   help="comma list from theta,invariants,catenary")
    p.add_argument("--samples", type=int, default=100)

    p = command("acm", cmd_acm, "almost-constant vector monoid report", *_REPORT, "budget")
    p.add_argument("--spec", required=True,
                   help='JSON {"omega": n, "c": ["1", "3/2", ..], "lambda": [[..]]}')

    p = command("hnp", cmd_hnp, "stable-class monoid report from tower data",
                *_REPORT, "budget")
    p.add_argument("--towers", required=True, help="tower data JSON")

    p = command("certify", cmd_certify, "replay the acceptance suite", "output")
    p.add_argument("--suite", type=_suite, default="all",
                   help="'all' or a comma list of criterion names/numbers")
    # certify prints its PASS/FAIL lines, writes its report as JSON to -o
    # only, and exits 1 on a FAIL
    p.set_defaults(format="json", report_on_stdout=False, exit_status=_certify_status)

    command("probe-r4", cmd_probe_r4, "rank-4 lower bounds (never equality)",
            *_REPORT, "budget")
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)  # --suite may raise InputError here
        with _output(args.output) as commit:
            report = args.handler(args)
            if args.output or args.report_on_stdout:
                commit(_render(report, args))
        return args.exit_status(report)
    except (InputError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except AssertionError as exc:
        print(f"invariant failure: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":
    sys.exit(main())
