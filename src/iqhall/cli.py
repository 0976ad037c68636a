"""Command-line surface.

Subcommands: validate, algebra, modules enumerate, hall mul, hall generic,
verify {serre,rank2,bridgeland,euler,reduced}, bases {monomial,pbw}.
Output is canonical JSON (sorted keys, no whitespace variation) inside the
envelope {"tool", "version", "config", "result"}, written to stdout or
--out.  The config block holds the two settings a run reads: "cache_dir"
(--cache-dir, else $IQ_CACHE_DIR, else ~/.cache/iqhall) and "use_cache"
(false under --no-cache).  The search limits are fixed constants in
``modules`` and ``algebra``, identified by "version".  Exit codes: 0
success / all relations pass, 1 verification failure, 2 input error, 3
resource cap exceeded, 4 internal error (an invariant of the engine broke
on valid input; a bug to report).  The disk cache is
best-effort: an unreadable cache is a miss, and a failed save prints one
line {"kind": "cache", "warning": ...} to stderr but leaves the result and
the exit code as they are.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from pathlib import Path
from typing import Optional

from . import __version__
from .algebra import iquiver_algebra
from .cache import load_engine, save_engine
from .dynkin import monomial_basis_check, pbw_basis_check
from .errors import InputError, IqError, ResourceError
from .hall import IHallAlgebra, generic_structure_constants
from .modules import rep_from_json, satisfies_relations
from .quivers import IQuiver, validate_iquiver
from .scalars import QSqrt
from .util import canonical_json, is_prime
from .verify import (bridgeland_suite, euler_central_suite, rank2_identities,
                     reduced_suite, serre_suite)

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_INPUT = 2
EXIT_RESOURCE = 3
EXIT_INTERNAL = 4


def _load_quiver(path: str) -> IQuiver:
    try:
        with open(path) as fh:
            return validate_iquiver(json.load(fh))
    except OSError as err:
        raise InputError(f"cannot read quiver file: {err}") from err
    except (ValueError, KeyError, TypeError, AttributeError, RecursionError) as err:
        raise InputError(f"malformed quiver file: {err!r}") from None


def _emit(result, config: dict, out: Optional[str], exit_code: int = EXIT_OK) -> int:
    envelope = {"tool": "iq", "version": __version__, "config": config, "result": result}
    text = canonical_json(envelope)
    if out:
        try:
            Path(out).write_text(text + "\n")
        except OSError as err:
            raise InputError(f"cannot write --out file: {err}") from None
    else:
        print(text)
    return exit_code


def _engine(iq: IQuiver, p: int, config: dict) -> IHallAlgebra:
    engine = IHallAlgebra(iquiver_algebra(iq), p)
    if config["use_cache"]:
        load_engine(engine, config["cache_dir"])
    return engine


def _persist(engine: IHallAlgebra, config: dict):
    if config["use_cache"]:
        try:
            save_engine(engine, config["cache_dir"])
        except OSError as err:
            print(canonical_json({"kind": "cache", "warning": f"cannot save the cache: {err}"}),
                  file=sys.stderr)


# -- option values: one argparse ``type`` per kind of value ----------------------


def _kind(kind: str, parse):
    """An argparse ``type``; a ValueError names the kind, an InputError its reason."""
    def convert(text: str):
        try:
            return parse(text)
        except (ValueError, ZeroDivisionError, RecursionError):
            raise argparse.ArgumentTypeError(f"expected {kind}, not {text!r}") from None
        except InputError as err:
            raise argparse.ArgumentTypeError(str(err)) from None
    return convert


def _checked(parse, ok):
    def run(text: str):
        value = parse(text)
        if not ok(value):
            raise ValueError(text)
        return value
    return run


def _split(parse, sep: str = ","):
    return lambda text: [parse(part) for part in text.split(sep)]


def _sigma_entry(text: str):
    name, eq, value = text.partition("=")
    if not (eq and name.strip()):
        raise ValueError(text)
    return name.strip(), Fraction(value)


_nonnegative = _checked(int, lambda n: n >= 0)
_prime = _checked(int, is_prime)
NONNEGATIVE = _kind("a nonnegative integer", _nonnegative)
POSITIVE = _kind("a positive integer", _checked(int, lambda n: n > 0))
PRIME = _kind("a prime", _prime)
PRIMES = _kind("a comma list of primes", _split(_prime))
DIMS = _kind("a comma list of nonnegative integers", _split(_nonnegative))
NAMES = _kind("a comma list of vertex names", _split(_checked(str, bool)))
ROOTS = _kind("semicolon-separated roots, each a comma list of nonnegative integers",
              _split(lambda part: tuple(_split(_nonnegative)(part)), ";"))
SIGMA = _kind("comma-separated vertex=rational entries",
              lambda text: dict(_split(_sigma_entry)(text)))
FACTORS = _kind("a JSON list of factor descriptors",
                _checked(json.loads, lambda value: isinstance(value, list)))


def _factor_element(engine: IHallAlgebra, desc):
    if not isinstance(desc, dict):
        raise InputError(f"factor {desc!r} is not a JSON object")
    if "simple" in desc:
        return engine.simple(str(desc["simple"]))
    if "torus" in desc:
        torus = desc["torus"]
        if not (isinstance(torus, dict) and set(torus) <= set(engine.vertices)
                and all(type(x) is int for x in torus.values())):
            raise InputError(f"torus factor {torus!r} must map vertices to integers")
        return engine.torus(tuple(torus.get(v, 0) for v in engine.vertices))
    if isinstance(desc.get("module"), dict):
        rep = rep_from_json(engine.algebra, {"p": engine.p, **desc["module"]})
        if rep.p != engine.p:
            raise InputError(f"module over F_{rep.p} in a product at --q {engine.p}")
        if not satisfies_relations(rep):
            raise InputError("module maps do not satisfy the relations of the algebra")
        return engine.from_rep(rep)
    raise InputError(f"unknown factor {desc!r}; use simple/torus/module")


def _element_json(engine: IHallAlgebra, elem) -> dict:
    terms = [{"X": x, "X_dims": list(engine.ctx.dims(x)), "alpha": list(alpha),
              "coeff": coeff.to_json()} for (x, alpha), coeff in sorted(elem.terms.items())]
    return {"mode": "numeric", "q": engine.p, "terms": terms}


def _generic_terms_json(out) -> list:
    return [{"X": [list(r) for r in key.roots],
             "alpha": list(key.alpha), "coeff": poly.to_json()}
            for key, poly in sorted(out.items(),
                                    key=lambda kv: (kv[0].alpha, kv[0].roots))]


# -- subcommand handlers -------------------------------------------------------


def cmd_validate(args, config: dict) -> int:
    return _emit(_load_quiver(args.quiver).to_json(), config, args.out)


def cmd_algebra(args, config: dict) -> int:
    engine = _engine(_load_quiver(args.quiver), args.q, config)
    result = engine.algebra.describe()
    result["projectives"] = {v: engine.ctx.projective(v).dims_by_name() for v in engine.vertices}
    _persist(engine, config)
    return _emit(result, config, args.out)


def cmd_modules_enumerate(args, config: dict) -> int:
    iq = _load_quiver(args.quiver)
    engine = _engine(iq, args.q, config)
    names = engine.vertices
    if len(args.dims) != len(names):
        raise InputError(f"--dims needs {len(names)} entries for vertices {names}")
    dims = dict(zip(names, args.dims))
    mids = engine.ctx.enumerate_iso_classes(dims, budget=args.budget)
    result = {"dims": dims, "count": len(mids),
              "classes": [{"id": m, "module": engine.ctx.rep(m).to_json(),
                           "predicates": engine.ctx.flags(m)} for m in mids]}
    _persist(engine, config)
    return _emit(result, config, args.out)


def cmd_hall_mul(args, config: dict) -> int:
    iq = _load_quiver(args.quiver)
    engine = _engine(iq, args.q, config)
    factors = [{"simple": v} for v in args.word] if args.word else args.factors
    elements = [_factor_element(engine, d) for d in factors]
    result = _element_json(engine, engine.product(elements))
    _persist(engine, config)
    return _emit(result, config, args.out)


def cmd_hall_generic(args, config: dict) -> int:
    iq = _load_quiver(args.quiver)
    word, primes = args.word, args.primes
    out = generic_structure_constants(iq, lambda e: e.word_product(word), primes, args.check)
    result = {"mode": "generic", "word": word, "primes": primes,
              "check_prime": args.check, "terms": _generic_terms_json(out)}
    return _emit(result, config, args.out)


def cmd_verify(args, config: dict) -> int:
    if args.suite == "rank2":
        report = rank2_identities(args.q)
    elif args.suite == "reduced":
        sigma = {v: QSqrt.of(x, args.q) for v, x in (args.sigma or {}).items()}
        report = reduced_suite(_load_quiver(args.quiver), args.q, sigma=sigma)
    elif args.suite == "euler":
        report = euler_central_suite(_load_quiver(args.quiver), args.q, sample_size=args.samples)
    else:
        suite = serre_suite if args.suite == "serre" else bridgeland_suite
        report = suite(_load_quiver(args.quiver), args.q)
    code = EXIT_OK if report.passed else EXIT_VERIFY_FAILED
    return _emit(report.to_json(), config, args.out, exit_code=code)


def cmd_bases(args, config: dict) -> int:
    iq = _load_quiver(args.quiver)
    report = (monomial_basis_check(iq, args.q, args.cap) if args.kind == "monomial" else
              pbw_basis_check(iq, args.q, args.cap, ordering=args.order))
    code = EXIT_OK if report.passed else EXIT_VERIFY_FAILED
    return _emit(report.to_json(), config, args.out, exit_code=code)


class _Parser(argparse.ArgumentParser):
    """A parse error is an input error: one JSON line on stderr, exit 2.  No
    parser, subparsers included, reads a flag's prefix (--q as --quiver)."""

    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, **kwargs)

    def error(self, message):
        raise InputError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="iq", description=__doc__)
    parser.add_argument("--cache-dir", help="override the cache directory")
    parser.add_argument("--no-cache", action="store_true",
                        help="disable the disk cache for this run")
    parser.add_argument("--out", help="write the JSON envelope to this file")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validate and normalize a quiver file")
    p.add_argument("quiver")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("algebra", help="basis and projectives of the fixed-point algebra")
    p.add_argument("quiver")
    p.add_argument("--q", type=PRIME, default=2)
    p.set_defaults(func=cmd_algebra)

    p = sub.add_parser("modules", help="module-level operations")
    msub = p.add_subparsers(dest="modcommand", required=True)
    pe = msub.add_parser("enumerate", help="exhaustively list iso classes of a dimension vector")
    pe.add_argument("--quiver", required=True)
    pe.add_argument("--q", type=PRIME, required=True)
    pe.add_argument("--dims", type=DIMS, required=True,
                    help="comma list in sorted vertex order, e.g. 2,2")
    pe.add_argument("--budget", type=NONNEGATIVE, default=None,
                    help="cap on the candidate tuples to intern; above it, exit 3")
    pe.set_defaults(func=cmd_modules_enumerate)

    p = sub.add_parser("hall", help="Hall algebra products")
    hsub = p.add_subparsers(dest="hallcommand", required=True)
    pm = hsub.add_parser("mul", help="multiply basis symbols / module classes")
    pm.add_argument("--quiver", required=True)
    pm.add_argument("--q", type=PRIME, required=True)
    factors = pm.add_mutually_exclusive_group(required=True)
    factors.add_argument("--word", type=NAMES, help="comma list of vertices: product of simples")
    factors.add_argument("--factors", type=FACTORS, help="JSON list of factor descriptors")
    pm.set_defaults(func=cmd_hall_mul)
    pg = hsub.add_parser("generic", help="Laurent structure constants by interpolation")
    pg.add_argument("--quiver", required=True)
    pg.add_argument("--primes", type=PRIMES, default=[2, 3, 5])
    pg.add_argument("--check", type=PRIME, default=7)
    pg.add_argument("--word", type=NAMES, required=True)
    pg.set_defaults(func=cmd_hall_generic)

    p = sub.add_parser("verify", help="run a relation suite")
    p.add_argument("suite", choices=["serre", "rank2", "bridgeland", "euler", "reduced"])
    p.add_argument("--quiver")
    p.add_argument("--q", type=PRIME, required=True)
    p.add_argument("--sigma", type=SIGMA, help="reduced parameters, e.g. 1=1,2=3/2")
    p.add_argument("--samples", type=POSITIVE, default=50)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("bases", help="monomial / PBW basis checks")
    p.add_argument("kind", choices=["monomial", "pbw"])
    p.add_argument("--quiver", required=True)
    p.add_argument("--q", type=PRIME, required=True)
    p.add_argument("--cap", type=POSITIVE, default=3)
    p.add_argument("--order", type=ROOTS, help="semicolon-separated roots, each a comma list")
    p.set_defaults(func=cmd_bases)
    return parser


def _config(args) -> dict:
    cache_dir = args.cache_dir if args.cache_dir is not None else (
        os.environ.get("IQ_CACHE_DIR") or Path.home() / ".cache" / "iqhall")
    return {"cache_dir": str(Path(cache_dir)), "use_cache": not args.no_cache}


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        config = _config(args)
        if args.command == "verify" and args.suite != "rank2" and not args.quiver:
            raise InputError("this verify suite needs --quiver")
        return args.func(args, config)
    except IqError as err:
        kind, code = (("resource", EXIT_RESOURCE) if isinstance(err, ResourceError) else
                      ("input", EXIT_INPUT) if isinstance(err, InputError) else
                      ("internal", EXIT_INTERNAL))
        print(canonical_json({"error": str(err), "kind": kind}), file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
