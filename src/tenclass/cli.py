"""Command-line front end: classify tensors, run spectral routines, verify suites.

Exit codes: 0 for a fully decisive run, 2 when some verdict is Inconclusive
(or a fixture label mismatches, or a suite records a violation), 1 for an
option, file, parse or validation error (no report is emitted then).  A
report holding a non-finite value would be such an error; a value that does
not fit in a float is reported as null.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .classifiers import Config, classify
from .core import unit_scale, unscale
from .spectral import _require_nonneg, find_negative_hpp_eigenpair, spectral_radius_nonneg
from .tensor_io import canonical_dumps, load_tensor, save_tensor
from .verify import SUITES, GeneratorSpec, generate, run_all, run_fixtures, run_suite

__all__ = ["main"]


def _emit(doc: dict, out: str | None) -> None:
    text = canonical_dumps(doc, indent=2) + "\n"
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _cmd_classify(args, config) -> int:
    report = classify(load_tensor(args.file), config)
    # a non-finite value cannot be serialized; _emit writes nothing then
    _emit(report.to_json(), args.out)
    return 0 if report.all_decisive else 2


def _cmd_spectral(args, config) -> int:
    A = load_tensor(args.file)
    tol = max(config.epsilon, 1e-14)
    if args.radius:
        # iterate on the unit-scale copy; an end past the float range is null
        _require_nonneg(A)  # on the tensor: the copy may round -5e-324 to -0.0
        B, e = unit_scale(A)
        enc = spectral_radius_nonneg(B, tol=tol)
        doc = {"radius": {**enc.to_json(), "lower": unscale(enc.lower, e),
                          "upper": unscale(enc.upper, e)}}
        undecided = not enc.converged
    else:
        pair = find_negative_hpp_eigenpair(A, tol=tol, nonpositive=args.nonpositive)
        doc = {"eigenpair": None if pair is None else pair.to_json()}
        undecided = pair is None
    _emit(doc, args.out)
    return 2 if undecided else 0


def _cmd_verify(args, config) -> int:
    if args.suite == "all":
        report = run_all(seed=args.seed, count=args.count, config=config)
        found = [(name, v) for name, sub in report["suites"].items()
                 for v in sub["violations"]]
    else:
        report = run_suite(args.suite, seed=args.seed, count=args.count, config=config)
        found = [(args.suite, v) for v in report["violations"]]
    _emit(report, args.out)
    if found:
        _dump_violations(found, args.out)
        print(f"{len(found)} violation(s) recorded", file=sys.stderr)
    return 2 if report["inconclusive"] or found else 0


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


def _cmd_fixtures(args, config) -> int:
    report = run_fixtures(config)
    _emit(report, args.out)
    return 0 if report["passed"] else 2


def _cmd_gen(args, config) -> int:
    spec = GeneratorSpec(kind=args.kind, order=args.order, dim=args.dim,
                         count=args.count, seed=args.seed, factor=args.factor)
    tensors = generate(spec, config)
    out_dir = Path(args.out or ".")
    out_dir.mkdir(parents=True, exist_ok=True)
    for i, A in enumerate(tensors):
        path = out_dir / f"{args.kind}_{args.order}_{args.dim}_{args.seed}_{i}.json"
        save_tensor(A, path)
        print(path)
    return 0


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # an option error leaves through main's one error exit
        raise ValueError(message)


def main(argv=None) -> int:
    parser = _Parser(
        prog="tenclass",
        description="Classify structured tensor classes with certificates or witnesses.",
    )
    parser.add_argument("--epsilon", type=float, default=Config.epsilon,
                        help="strictness margin on the normalized coefficient scale")
    parser.add_argument("--max-depth", type=int, default=Config.max_depth, dest="max_depth",
                        help="subdivision depth cap (exceeding it is Inconclusive)")
    parser.add_argument("--subset-cap", type=int, default=Config.subset_cap,
                        dest="subset_cap",
                        help="largest dimension for exact subset enumeration")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed for verify and gen")
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

    try:
        args = parser.parse_args(argv)
        return args.fn(args, Config(args.epsilon, args.max_depth, args.subset_cap))
    except (ValueError, OSError, MemoryError, RecursionError) as exc:
        # every usage error (a bad option, file, tensor or report, or one too
        # deep to decode or too large to allocate) ends here
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
