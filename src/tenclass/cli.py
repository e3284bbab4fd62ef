"""Command-line front end: classify tensors, run spectral routines, verify suites.

Exit codes: 0 for a fully decisive run, 2 when some verdict is Inconclusive
(or a fixture label mismatches), 1 for parse or validation errors or a
non-finite value in a classify report (no report is emitted in that case).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .classifiers import Config, SubsetCapError, classify
from .spectral import find_negative_hpp_eigenpair, spectral_radius_nonneg
from .tensor_io import (
    TensorFormatError,
    canonical_dumps,
    load_tensor,
    save_tensor,
)
from .verify import SUITES, GeneratorSpec, generate, run_all, run_fixtures, run_suite

__all__ = ["main"]


def _emit(doc: dict, out: str | None) -> None:
    text = canonical_dumps(doc, indent=2) + "\n"
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _config(args) -> Config:
    return Config(
        epsilon=args.epsilon,
        max_depth=args.max_depth,
        subset_cap=args.subset_cap,
        seed=args.seed,
    )


def _cmd_classify(args) -> int:
    try:
        A = load_tensor(args.file)
        report = classify(A, _config(args))
        # a non-finite bound cannot be serialized; _emit writes nothing then
        _emit(report.to_json(), args.out)
    except (TensorFormatError, SubsetCapError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0 if report.all_decisive else 2


def _cmd_spectral(args) -> int:
    try:
        A = load_tensor(args.file)
    except (TensorFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    doc: dict = {}
    try:
        if args.radius:
            enc = spectral_radius_nonneg(A, tol=max(args.epsilon, 1e-14))
            doc["radius"] = enc.to_json()
            undecided = not enc.converged
        else:
            pair = find_negative_hpp_eigenpair(
                A, tol=max(args.epsilon, 1e-14), restarts=args.restarts,
                nonpositive=args.nonpositive, seed=args.seed)
            doc["eigenpair"] = None if pair is None else pair.to_json()
            undecided = pair is None
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    _emit(doc, args.out)
    return 2 if undecided else 0


def _cmd_verify(args) -> int:
    config = _config(args)
    try:
        if args.suite == "all":
            report = run_all(seed=args.seed, count=args.count, config=config)
            found = [(name, v) for name, sub in report["suites"].items()
                     for v in sub["violations"]]
            inconclusive = report["inconclusive"]
        else:
            report = run_suite(args.suite, seed=args.seed, count=args.count,
                               config=config)
            found = [(args.suite, v) for v in report["violations"]]
            inconclusive = report["inconclusive"]
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    _emit(report, args.out)
    if found:
        _dump_violations(found, args.out)
        print(f"{len(found)} violation(s) recorded", file=sys.stderr)
    return 2 if inconclusive and not found else 0


def _dump_violations(found, out: str | None) -> None:
    """Write each offending tensor as a fixture-style file for triage."""
    base = Path(out).parent if out else Path(".")
    vdir = base / "violations"
    vdir.mkdir(parents=True, exist_ok=True)
    for k, (suite, violation) in enumerate(found):
        doc = {
            "name": f"{suite}_violation_{violation['instance']}",
            "description": violation["detail"],
            "tensor": violation["tensors"][0] if violation["tensors"] else None,
            "all_tensors": violation["tensors"],
        }
        path = vdir / f"{suite}_{violation['instance']}_{k}.json"
        path.write_text(canonical_dumps(doc, indent=2) + "\n", encoding="utf-8")


def _cmd_fixtures(args) -> int:
    report = run_fixtures(_config(args))
    _emit(report, args.out)
    return 0 if report["passed"] else 2


def _cmd_gen(args) -> int:
    try:
        spec = GeneratorSpec(kind=args.kind, order=args.order, dim=args.dim,
                             count=args.count, seed=args.seed, factor=args.factor)
        tensors = generate(spec, _config(args))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    out_dir = Path(args.out or ".")
    out_dir.mkdir(parents=True, exist_ok=True)
    for i, A in enumerate(tensors):
        path = out_dir / f"{args.kind}_{args.order}_{args.dim}_{args.seed}_{i}.json"
        save_tensor(A, path)
        print(path)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="tenclass",
        description="Classify structured tensor classes with certificates or witnesses.",
    )
    parser.add_argument("--epsilon", type=float, default=1e-9,
                        help="strictness margin on the normalized coefficient scale")
    parser.add_argument("--max-depth", type=int, default=40, dest="max_depth",
                        help="subdivision depth cap (exceeding it is Inconclusive)")
    parser.add_argument("--subset-cap", type=int, default=12, dest="subset_cap",
                        help="largest dimension for exact subset enumeration")
    parser.add_argument("--seed", type=int, default=0, help="seed for all randomness")
    parser.add_argument("--out", type=str, default=None, help="write the report here")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="full classification report for a tensor file")
    p.add_argument("file")
    p.set_defaults(fn=_cmd_classify)

    p = sub.add_parser("spectral", help="spectral radius enclosure or eigenpair search")
    p.add_argument("file")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--radius", action="store_true",
                       help="enclose the spectral radius (nonnegative tensors)")
    group.add_argument("--eigenpair", action="store_true",
                       help="search for a negative eigenvalue with positive eigenvector "
                            "(symmetric tensors)")
    p.add_argument("--nonpositive", action="store_true",
                   help="accept nonpositive eigenvalues too")
    p.add_argument("--restarts", type=int, default=8)
    p.set_defaults(fn=_cmd_spectral)

    p = sub.add_parser("verify", help="run a theorem property suite (or all)")
    p.add_argument("suite", choices=sorted(SUITES) + ["all"])
    p.add_argument("--count", type=int, default=None,
                   help="instances per suite (defaults to each suite's own count)")
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("fixtures", help="re-check the built-in fixture corpus")
    p.set_defaults(fn=_cmd_fixtures)

    p = sub.add_parser("gen", help="generate structured tensors into files")
    p.add_argument("--kind", required=True)
    p.add_argument("--order", type=int, default=3)
    p.add_argument("--dim", type=int, default=2)
    p.add_argument("--count", type=int, default=1)
    p.add_argument("--factor", type=float, default=None,
                   help="t / rho(B) ratio for zTensor generation")
    p.set_defaults(fn=_cmd_gen)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    raise SystemExit(main())
