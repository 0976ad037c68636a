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
from .util import canonical_json
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
            raw = json.load(fh)
    except OSError as err:
        raise InputError(f"cannot read quiver file: {err}") from err
    except json.JSONDecodeError as err:
        raise InputError(f"quiver file is not JSON: {err}") from err
    return validate_iquiver(raw)


def _emit(result, config: dict, out: Optional[str], exit_code: int = EXIT_OK) -> int:
    envelope = {"tool": "iq", "version": __version__, "config": config, "result": result}
    text = canonical_json(envelope)
    if out:
        Path(out).write_text(text + "\n")
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


def _int(text, what: str) -> int:
    try:
        return int(str(text))
    except ValueError:
        raise InputError(f"{what} must be an integer, not {text!r}") from None


def _ints(text: str, what: str) -> list:
    return [_int(x, what) for x in text.split(",")]


def _parse_sigma(text: Optional[str], q: int):
    if not text:
        return None
    sigma = {}
    for chunk in text.split(","):
        name, _, value = chunk.partition("=")
        try:
            sigma[name.strip()] = QSqrt.of(Fraction(value), q)
        except (ValueError, ZeroDivisionError):
            raise InputError(f"bad sigma entry {chunk!r}; expected vertex=rational") from None
    return sigma


def _factor_element(engine: IHallAlgebra, desc):
    if not isinstance(desc, dict):
        raise InputError(f"factor {desc!r} is not a JSON object")
    if "simple" in desc:
        return engine.simple(str(desc["simple"]))
    if "torus" in desc:
        torus = desc["torus"]
        if not isinstance(torus, dict) or set(torus) - set(engine.vertices):
            raise InputError(f"torus factor {torus!r} must map vertices to integers")
        return engine.torus(tuple(_int(torus.get(v, 0), "a torus exponent")
                                  for v in engine.vertices))
    if isinstance(desc.get("module"), dict):
        rep = rep_from_json(engine.algebra, {"p": engine.p, **desc["module"]})
        if not satisfies_relations(rep):
            raise InputError("module maps do not satisfy the relations of the algebra")
        return engine.from_rep(rep)
    raise InputError(f"unknown factor {desc!r}; use simple/torus/module")


def _element_json(engine: IHallAlgebra, elem) -> dict:
    terms = []
    for (x, alpha), coeff in sorted(elem.terms.items()):
        terms.append({"X": x, "X_dims": list(engine.ctx.rep(x).dims),
                      "alpha": list(alpha), "coeff": coeff.to_json()})
    return {"mode": "numeric", "q": engine.p, "terms": terms}


def _generic_terms_json(out) -> list:
    return [{"X": [list(r) for r in key.roots],
             "alpha": list(key.alpha), "coeff": poly.to_json()}
            for key, poly in sorted(out.items(),
                                    key=lambda kv: (kv[0].alpha, kv[0].roots))]


# -- subcommand handlers -------------------------------------------------------


def cmd_validate(args, config: dict) -> int:
    iq = _load_quiver(args.quiver)
    return _emit(iq.to_json(), config, args.out)


def cmd_algebra(args, config: dict) -> int:
    iq = _load_quiver(args.quiver)
    alg = iquiver_algebra(iq)
    engine = _engine(iq, args.q, config) if args.q else None
    result = alg.describe()
    if engine is not None:
        result["projectives"] = {
            v: engine.ctx.projective(v).dims_by_name() for v in alg.vertices}
        _persist(engine, config)
    return _emit(result, config, args.out)


def cmd_modules_enumerate(args, config: dict) -> int:
    iq = _load_quiver(args.quiver)
    engine = _engine(iq, args.q, config)
    names = engine.vertices
    parts = _ints(args.dims, "--dims")
    if len(parts) != len(names):
        raise InputError(f"--dims needs {len(names)} entries for vertices {names}")
    dims = dict(zip(names, parts))
    mids = engine.ctx.enumerate_iso_classes(dims, budget=args.budget)
    result = {"dims": dims, "count": len(mids),
              "classes": [{"id": m, "module": engine.ctx.rep(m).to_json(),
                           "predicates": engine.ctx.flags(m)} for m in mids]}
    _persist(engine, config)
    return _emit(result, config, args.out)


def cmd_hall_mul(args, config: dict) -> int:
    iq = _load_quiver(args.quiver)
    engine = _engine(iq, args.q, config)
    if args.word:
        factors = [{"simple": v} for v in args.word.split(",")]
    elif args.factors:
        try:
            factors = json.loads(args.factors)
        except json.JSONDecodeError as err:
            raise InputError(f"--factors is not JSON: {err}") from None
        if not isinstance(factors, list):
            raise InputError("--factors must be a JSON list of factors")
    else:
        raise InputError("hall mul needs --word or --factors")
    elements = [_factor_element(engine, d) for d in factors]
    product = engine.product(elements)
    result = _element_json(engine, product)
    _persist(engine, config)
    return _emit(result, config, args.out)


def cmd_hall_generic(args, config: dict) -> int:
    iq = _load_quiver(args.quiver)
    primes = _ints(args.primes, "--primes")
    word = args.word.split(",")
    out = generic_structure_constants(
        iq, lambda engine: engine.word_product(word), primes, args.check)
    result = {"mode": "generic", "word": word, "primes": primes,
              "check_prime": args.check, "terms": _generic_terms_json(out)}
    return _emit(result, config, args.out)


def cmd_verify(args, config: dict) -> int:
    suite = args.suite
    if suite == "rank2":
        report = rank2_identities(args.q)
    else:
        iq = _load_quiver(args.quiver)
        if suite == "serre":
            report = serre_suite(iq, args.q)
        elif suite == "bridgeland":
            report = bridgeland_suite(iq, args.q)
        elif suite == "euler":
            report = euler_central_suite(iq, args.q, sample_size=args.samples)
        elif suite == "reduced":
            sigma = _parse_sigma(args.sigma, args.q)
            report = reduced_suite(iq, args.q, sigma=sigma)
        else:
            raise InputError(f"unknown verify suite {suite!r}")
    code = EXIT_OK if report.passed else EXIT_VERIFY_FAILED
    return _emit(report.to_json(), config, args.out, exit_code=code)


def cmd_bases(args, config: dict) -> int:
    iq = _load_quiver(args.quiver)
    if args.kind == "monomial":
        report = monomial_basis_check(iq, args.q, args.cap)
    else:
        ordering = None
        if args.order:
            ordering = [tuple(_ints(part, "--order")) for part in args.order.split(";")]
        report = pbw_basis_check(iq, args.q, args.cap, ordering=ordering)
    code = EXIT_OK if report.passed else EXIT_VERIFY_FAILED
    return _emit(report.to_json(), config, args.out, exit_code=code)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="iq", description=__doc__)
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
    p.add_argument("--q", type=int, default=2)
    p.set_defaults(func=cmd_algebra)

    p = sub.add_parser("modules", help="module-level operations")
    msub = p.add_subparsers(dest="modcommand", required=True)
    pe = msub.add_parser("enumerate", help="exhaustively list iso classes of a dimension vector")
    pe.add_argument("--quiver", required=True)
    pe.add_argument("--q", type=int, required=True)
    pe.add_argument("--dims", required=True,
                    help="comma list in sorted vertex order, e.g. 2,2")
    pe.add_argument("--budget", type=int, default=None,
                    help="cap on the candidate tuples to intern; above it, exit 3")
    pe.set_defaults(func=cmd_modules_enumerate)

    p = sub.add_parser("hall", help="Hall algebra products")
    hsub = p.add_subparsers(dest="hallcommand", required=True)
    pm = hsub.add_parser("mul", help="multiply basis symbols / module classes")
    pm.add_argument("--quiver", required=True)
    pm.add_argument("--q", type=int, required=True)
    pm.add_argument("--word", help="comma list of vertices: product of simples")
    pm.add_argument("--factors", help="JSON list of factor descriptors")
    pm.set_defaults(func=cmd_hall_mul)
    pg = hsub.add_parser("generic", help="Laurent structure constants by interpolation")
    pg.add_argument("--quiver", required=True)
    pg.add_argument("--primes", default="2,3,5")
    pg.add_argument("--check", type=int, default=7)
    pg.add_argument("--word", required=True)
    pg.set_defaults(func=cmd_hall_generic)

    p = sub.add_parser("verify", help="run a relation suite")
    p.add_argument("suite", choices=["serre", "rank2", "bridgeland", "euler", "reduced"])
    p.add_argument("--quiver")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--sigma", help="reduced parameters, e.g. 1=1,2=3/2")
    p.add_argument("--samples", type=int, default=50)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("bases", help="monomial / PBW basis checks")
    p.add_argument("kind", choices=["monomial", "pbw"])
    p.add_argument("--quiver", required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--cap", type=int, default=3)
    p.add_argument("--order", help="semicolon-separated roots, each a comma list")
    p.set_defaults(func=cmd_bases)
    return parser


def _config(args) -> dict:
    if args.cache_dir is not None:
        cache_dir = Path(args.cache_dir)
    else:
        env = os.environ.get("IQ_CACHE_DIR")
        cache_dir = Path(env) if env else Path.home() / ".cache" / "iqhall"
    return {"cache_dir": str(cache_dir), "use_cache": not args.no_cache}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = _config(args)
        if args.command == "verify" and args.suite != "rank2" and not args.quiver:
            raise InputError("this verify suite needs --quiver")
        return args.func(args, config)
    except ResourceError as err:
        print(canonical_json({"error": str(err), "kind": "resource"}), file=sys.stderr)
        return EXIT_RESOURCE
    except InputError as err:
        print(canonical_json({"error": str(err), "kind": "input"}), file=sys.stderr)
        return EXIT_INPUT
    except IqError as err:
        print(canonical_json({"error": str(err), "kind": "internal"}), file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
