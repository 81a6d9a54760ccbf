"""Command-line surface: family generation, solving, bound reports, decomposition, reproduction.

Exit codes: 0 success, 1 input/validation error, 2 internal invariant or
reproduction failure. Reports go to stdout as JSON; diagnostics to stderr.
A command takes no value it can derive: `bound` reports every central term
of the filtration as p0, `decompose` splits the default filtration, `solve`
runs the exact solver, and `verify-paper` the whole reproduction grid.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from pathlib import Path

from nilbound.bounds import BoundProblem, closed_form_fields, lower_bound_report, solve_exact
from nilbound.decomposition import (
    SamplingBudgetExhausted,
    build_adapted_basis,
    decompose,
    decomposition_to_json,
    extract_profile,
    verify_block_structure,
    verify_decomposition,
)
from nilbound.families import make_family
from nilbound.linalg import _INTEGER
from nilbound.liealg import (
    admissible_p0_set,
    algebra_from_json,
    algebra_to_json,
    center,
    default_filtration,
    filtration_from_json,
    is_nilpotent,
    lower_central_series,
    representation_from_json,
    representation_to_json,
    validate,
)


class InputError(Exception):
    pass


def _integer(text: str) -> int:
    """The one reader of command-line integers: ASCII [+-]?[0-9]+ only, where int() would
    also take "1_0", " 16 " and non-ASCII digits. argparse prints the error as a usage error."""
    if not _INTEGER.fullmatch(text):
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer")
    return int(text)


def _emit(obj) -> None:
    print(json.dumps(obj, indent=2))


def _load_json(path: str) -> dict:
    """The JSON in path; a file that cannot be read or decoded, however deep or long, gives an InputError."""
    try:
        return json.loads(Path(path).read_text())
    except (OSError, ValueError, RecursionError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc


def _parse_file(path: str, what: str, parse):
    """parse(data) on the JSON in path; a malformed file gives an InputError."""
    data = _load_json(path)
    try:
        return parse(data)
    except KeyError as exc:
        raise InputError(f"malformed {what} file {path}: missing field {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise InputError(f"malformed {what} file {path}: {exc}") from exc


def _load_algebra(path: str):
    """The algebra in path; one that fails the Jacobi check gives an InputError."""
    alg = _parse_file(path, "algebra", algebra_from_json)
    if violations := validate(alg):
        raise InputError("invalid algebra: " + "; ".join(violations))
    return alg


def cmd_family(args) -> int:
    params = {
        "nap": {"a": args.a, "p": args.p},
        "nabc": {"a": args.a, "b": args.b, "c": args.c},
        "heisenberg": {"m": args.m},
        "abelian": {"n": args.n},
    }[args.tag]
    missing = [k for k, v in params.items() if v is None]
    if missing:
        raise InputError(f"family {args.tag!r} needs --{' --'.join(missing)}")
    try:
        alg, rep = make_family(args.tag, **params)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    out = Path(args.output) if args.output else Path(".")
    base = alg.name.translate(str.maketrans({"{": "", "}": "", ",": "_"}))
    alg_path = out / f"{base}.algebra.json"
    rep_path = out / f"{base}.representation.json"
    try:
        out.mkdir(parents=True, exist_ok=True)
        alg_path.write_text(json.dumps(algebra_to_json(alg), indent=2) + "\n")
        rep_path.write_text(json.dumps(representation_to_json(rep), indent=2) + "\n")
    except OSError as exc:
        raise InputError(f"cannot write to {out}: {exc}") from exc
    _emit({"algebra_file": str(alg_path), "representation_file": str(rep_path), "dim": alg.dim, "dimV": rep.dimV})
    return 0


def cmd_solve(args) -> int:
    try:
        dims = tuple(_integer(x) for x in args.dims.split(","))
    except argparse.ArgumentTypeError as exc:
        raise InputError(f"malformed --dims: {exc}") from exc
    try:
        prob = BoundProblem(args.p, args.p0, dims)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    sol = solve_exact(prob)
    out = {
        "p": prob.p,
        "p0": prob.p0,
        "dims": list(dims),
        "r0_min": sol.r0_min,
        "witness": list(sol.witness),
        "nodes_explored": sol.nodes_explored,
        **closed_form_fields(prob.p0, dims),
    }
    _emit(out)
    return 0


def _parse_filtration(alg, path: str):
    return _parse_file(path, "filtration", lambda data: filtration_from_json(alg, data))


def cmd_bound(args) -> int:
    alg = _load_algebra(args.algebra)
    if not is_nilpotent(alg):
        raise InputError(f"algebra {alg.name!r} is not nilpotent")
    filt = _parse_filtration(alg, args.filtration) if args.filtration else None
    try:
        report = lower_bound_report(alg, filt)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    _emit(report)
    return 0


def cmd_analyze(args) -> int:
    alg = _load_algebra(args.algebra)
    series = lower_central_series(alg)
    nilpotent = is_nilpotent(alg)
    out = {
        "algebra": alg.name,
        "dim": alg.dim,
        "nilpotent": nilpotent,
        "series_dims": [s.dim for s in series],
        "center_dim": center(alg).dim,
    }
    if nilpotent:
        filt = default_filtration(alg)
        out["default_filtration_dims"] = list(filt.dims)
        out["admissible_p0"] = admissible_p0_set(filt)
    _emit(out)
    return 0


def cmd_decompose(args) -> int:
    """decompose checks the representation, and through it the algebra, before the split."""
    rep = _parse_file(args.representation, "representation", representation_from_json)
    try:
        dec = decompose(rep, seed=args.seed)
    except (ValueError, SamplingBudgetExhausted) as exc:
        raise InputError(str(exc)) from exc
    report = verify_decomposition(dec)
    out = decomposition_to_json(dec, report)
    ok = report.ok
    if ok:
        ab = build_adapted_basis(dec)
        blocks = verify_block_structure(ab, dec)
        out["adapted_basis"] = {"r": list(ab.r), "q": ab.q, "size": len(ab.basis_vectors)}
        out["block_structure_ok"] = ok = blocks.ok
        out["block_failures"] = blocks.failures
        out["profile"] = list(extract_profile(dec))
    _emit(out)
    return 0 if ok else 2


def _paper_rows():
    for a, p in [(1, 2), (2, 2), (3, 2), (1, 3), (2, 3)]:
        yield (f"nap({a},{p})", ("nap", {"a": a, "p": p}), (p + 1) * a)
    for a, b, c in [(1, 2, 1), (1, 3, 2), (2, 3, 1), (1, 1, 1), (2, 3, 2), (2, 4, 2)]:
        yield (f"nabc({a},{b},{c})", ("nabc", {"a": a, "b": b, "c": c}), a + b + c)


def cmd_verify_paper(args) -> int:
    all_ok = True
    print(f"{'case':<16} {'expected':>8} {'computed':>8}  status")
    for label, (tag, params), expected in _paper_rows():
        alg, _rep = make_family(tag, **params)
        got = lower_bound_report(alg)["mu_nil_lower_bound"]
        ok = got == expected
        all_ok &= ok
        print(f"{label:<16} {expected:>8} {got:>8}  {'PASS' if ok else 'FAIL'}")
    if not all_ok:
        print("reproduction failed", file=sys.stderr)
        return 2
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of this process, built on first use; parse_args leaves it unchanged."""
    parser = argparse.ArgumentParser(prog="nilbound")
    sub = parser.add_subparsers(dest="command", required=True)

    fam = sub.add_parser("family", help="emit algebra/representation files for a built-in family")
    fam.add_argument("tag", choices=["nap", "nabc", "heisenberg", "abelian"])
    for flag in ("a", "b", "c", "p", "m", "n"):
        fam.add_argument(f"--{flag}", type=_integer)
    fam.add_argument("-o", "--output", help="output directory (default: cwd)")
    fam.set_defaults(func=cmd_family)

    sol = sub.add_parser("solve", help="solve a bound problem given chain dimensions")
    sol.add_argument("--p", type=_integer, required=True)
    sol.add_argument("--p0", type=_integer, required=True)
    sol.add_argument("--dims", required=True, help="comma-separated weakly decreasing dims")
    sol.set_defaults(func=cmd_solve)

    bnd = sub.add_parser("bound", help="full lower-bound report for an algebra file")
    bnd.add_argument("algebra")
    bnd.add_argument("--filtration", help="JSON file with a custom subspace chain")
    bnd.set_defaults(func=cmd_bound)

    ana = sub.add_parser("analyze", help="structure summary for an algebra file")
    ana.add_argument("algebra")
    ana.set_defaults(func=cmd_analyze)

    dec = sub.add_parser("decompose", help="decompose and verify a representation file")
    dec.add_argument("representation")
    dec.add_argument("--seed", type=_integer, default=0)
    dec.set_defaults(func=cmd_decompose)

    ver = sub.add_parser("verify-paper", help="run the reproduction grid")
    ver.set_defaults(func=cmd_verify_paper)
    return parser


def main(argv=None) -> int:
    try:
        try:
            args = build_parser().parse_args(argv)
        except SystemExit:  # --help exits here with its text still in the stdout buffer
            sys.stdout.flush()
            raise
        code = args.func(args)
        sys.stdout.flush()  # a closed reader shows here, not in the flush at exit
        return code
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except AssertionError as exc:
        print(f"internal invariant breach: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())  # so the flush at exit cannot fail too
        return 1


if __name__ == "__main__":
    sys.exit(main())
