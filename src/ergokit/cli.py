"""Command-line front end.

Subcommands: analyze, doeblin, tensor, verify.  Exit codes are part of the
contract: 0 success (a "not uniformly ergodic" verdict is still success),
1 verification-suite failure, 2 parse error, 3 validation or precondition
failure, 4 unsupported space kind.

Structured output is a single JSON document with sorted keys, every number
rendered as a decimal string, and no timing fields, so identical seeds and
flags produce byte-identical bytes.  Text output is for humans and includes
per-stage wall times.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
import time

from . import __version__
from .coefficients import ergodicity_coefficient
from .doeblin import (
    certificate_from_convergence,
    default_q_candidates,
    search_certificates,
    verify_certificate,
)
from .errors import (
    ErgokitError,
    ParseError,
    PreconditionError,
    UnsupportedSpaceError,
    ValidationError,
)
from .instances import ParsedInstance, dumps_structured, instance_hash, load_instance
from .operators import VALIDATION_TOL
from .spectral import classify, rate_profile, tensor_rate_bound
from .verification import CHECK_NAMES, instance_theorems, run_verification

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_UNSUPPORTED = 4


def _space_line(inst: ParsedInstance) -> str:
    s = inst.space
    if s.kind == "embedded":
        return f"embedded inner_dim={s.inner_dim} inner_ball={s.inner_ball}"
    return f"{s.kind} dim={s.dim}"


def _coefficient_doc(res, tolerance: float) -> dict:
    doc = {
        "value": res.value,
        "method": res.method,
        "certified_exact": res.certified_exact,
        "upper_bound": res.upper_bound,
        "tolerance": tolerance,
    }
    if res.witness is not None:
        doc["witness"] = res.witness
    if res.pair is not None:
        doc["witness_pair"] = res.pair
    return doc


def _verdict_doc(verdict) -> dict:
    return {
        "uniform": verdict.uniform,
        "weak": verdict.weak,
        "witness_n0": verdict.witness_n0,
        "consistent": verdict.consistent,
        "fixes_defect": verdict.fixes_defect,
        "commute_defect": verdict.commute_defect,
        "clauses": [
            {
                "name": c.name,
                "applicable": c.applicable,
                "holds": c.holds,
                "detail": c.detail,
            }
            for c in verdict.clauses
        ],
    }


def _spectral_doc(report) -> dict:
    return {
        # complex(z): a real eigenvalue array would otherwise print as a float
        "eigenvalues": [complex(z) for z in report.eigenvalues],
        "residual_radius": report.residual_radius,
        "subdominant_radius": report.subdominant_radius,
        "one_isolated": report.one_isolated,
        "isolation_distance": report.isolation_distance,
        "gap_norm": report.gap_norm,
    }


def _certificate_doc(cert, audit) -> dict:
    return {
        "tau": cert.tau,
        "n0": cert.n0,
        "q_variant": cert.Q.variant,
        "sup_phi_norm": cert.sup_phi_norm,
        "phi_table": cert.phi_table,
        "audit_ok": audit.ok,
        "audit_violations": audit.violations,
        "implied_bound": audit.implied_bound,
        "actual_coefficient": audit.actual_coefficient,
        "bound_holds": audit.bound_holds,
    }


def cmd_analyze(args) -> int:
    t0 = time.perf_counter()
    inst = load_instance(args.path)
    t_parse = time.perf_counter() - t0

    t0 = time.perf_counter()
    classical = ergodicity_coefficient(
        inst.operator, None, space=inst.space, seed=args.seed
    )
    # a rank-one P has ker P = ker f, so its coefficient is the classical one
    kernel = (
        classical
        if inst.projection.variant == "rank_one"
        else ergodicity_coefficient(inst.operator, inst.projection, seed=args.seed)
    )
    t_coeff = time.perf_counter() - t0

    t0 = time.perf_counter()
    verdict, spectral = classify(
        inst.operator, inst.projection,
        tolerance=args.tolerance, max_power=args.max_power, delta=kernel,
    )
    profile = rate_profile(
        inst.operator, inst.projection, N=40, classification=(verdict, spectral)
    )
    t_spectral = time.perf_counter() - t0

    t0 = time.perf_counter()
    cert = audit = None
    if inst.space.is_lattice and verdict.uniform is True:
        cert = certificate_from_convergence(
            inst.operator, inst.projection, n0_cap=args.n0_cap
        )
        audit = verify_certificate(cert, inst.operator, inst.projection, seed=args.seed)
    t_cert = time.perf_counter() - t0

    t0 = time.perf_counter()
    theorems = instance_theorems(
        inst.operator, inst.projection, verdict, spectral, kernel,
        tol=args.tolerance, seed=args.seed,
    )
    t_theorems = time.perf_counter() - t0

    if args.format == "structured":
        doc = {
            "report": "analyze",
            "generator": {"name": "ergokit", "version": __version__},
            "instance": {"hash": instance_hash(inst), "space": _space_line(inst)},
            "flags": {
                "tolerance": args.tolerance,
                "max_power": args.max_power,
                "n0_cap": args.n0_cap,
                "seed": args.seed,
            },
            "validation": {"ok": True, "tolerance": VALIDATION_TOL},
            "coefficients": {
                "classical": _coefficient_doc(classical, args.tolerance),
                "kernel": _coefficient_doc(kernel, args.tolerance),
            },
            "spectral": _spectral_doc(spectral),
            "verdict": _verdict_doc(verdict),
            "rate_profile": {
                "rate": profile.rate,
                "fitted_prefactor": profile.fitted_C,
                "norms": profile.norms,
                "alphas": profile.alphas,
            },
            "certificate": (
                _certificate_doc(cert, audit)
                if cert is not None
                else {"applicable": False}
            ),
            "theorems": [
                {"name": n, "ok": ok, "detail": d, "tolerance": args.tolerance}
                for n, ok, d in theorems
            ],
        }
        sys.stdout.write(dumps_structured(doc))
        return EXIT_OK

    w = sys.stdout.write
    w(f"ergokit {__version__} analyze: instance {instance_hash(inst)}\n")
    w(f"space: {_space_line(inst)}\n")
    w(f"validation: ok (tolerance {VALIDATION_TOL:g})\n")
    for tag, res in (("delta      ", classical), ("delta_P    ", kernel)):
        exact = "exact" if res.certified_exact else f"bracket <= {res.upper_bound:.9g}"
        w(f"{tag}= {res.value:.12g}  [{res.method}; {exact}]\n")
    w(
        f"spectrum: residual radius r = {spectral.residual_radius:.12g}, "
        f"subdominant |eig| = {spectral.subdominant_radius:.12g}, "
        f"gap norm = {spectral.gap_norm:.12g}\n"
    )
    w(
        f"verdict: uniform={verdict.uniform} weak={verdict.weak} "
        f"witness_n0={verdict.witness_n0} consistent={verdict.consistent}\n"
    )
    for c in verdict.clauses:
        state = "n/a" if not c.applicable else str(c.holds)
        w(f"  clause {c.name}: {state} ({c.detail})\n")
    if profile.fitted_C is None:
        w(
            f"rate profile: TP = PT = P fails, so there is no spectral rate "
            f"(r(T - P) = {profile.rate:.9g} is not one) and no fitted prefactor\n"
        )
    else:
        w(
            f"rate profile: r = {profile.rate:.9g}, fitted prefactor = "
            f"{profile.fitted_C:.6g}, alpha_40 = {profile.alphas[-1]:.3e}\n"
        )
    if cert is not None:
        w(
            f"certificate: tau = {cert.tau:g} at n0 = {cert.n0} "
            f"(audit {'ok' if audit.ok else 'FAILED'}; implied bound "
            f"{audit.implied_bound:g} vs actual {audit.actual_coefficient:.9g})\n"
        )
    else:
        w("certificate: not applicable\n")
    good = sum(1 for _, ok, _ in theorems if ok)
    w(f"theorems: {good}/{len(theorems)} ok\n")
    for name, ok, detail in theorems:
        w(f"  [{'ok' if ok else 'FAIL'}] {name}: {detail}\n")
    w(
        "wall times: parse {:.1f} ms, coefficients {:.1f} ms, spectral {:.1f} ms, "
        "certificate {:.1f} ms, theorems {:.1f} ms\n".format(
            1e3 * t_parse, 1e3 * t_coeff, 1e3 * t_spectral, 1e3 * t_cert, 1e3 * t_theorems
        )
    )
    return EXIT_OK


def cmd_doeblin(args) -> int:
    t0 = time.perf_counter()
    inst = load_instance(args.path)
    if not inst.space.is_lattice:
        raise UnsupportedSpaceError(
            "Doeblin certificates are only defined on simplex-like spaces"
        )
    candidates = None
    if inst.sub is not None:
        candidates = [inst.sub] + default_q_candidates(inst.projection)
    outcome = search_certificates(
        inst.operator, inst.projection, n0_cap=args.n0_cap, Q_candidates=candidates,
        seed=args.seed,
    )
    elapsed = time.perf_counter() - t0

    want_min = args.which in ("DP", "both")
    want_over = args.which in ("DPstar", "both")
    m, o = outcome.minorization, outcome.overlap
    if want_min and m is not None:
        audit = verify_certificate(m.certificate, inst.operator, inst.projection, seed=args.seed)

    if args.format == "structured":
        doc = {
            "report": "doeblin",
            "generator": {"name": "ergokit", "version": __version__},
            "instance": {"hash": instance_hash(inst), "space": _space_line(inst)},
            "flags": {"n0_cap": args.n0_cap, "which": args.which, "seed": args.seed},
            "diagnostic": outcome.diagnostic,
        }
        if want_min:
            if m is None:
                doc["minorization"] = {"feasible": False, "exhausted": True}
            else:
                doc["minorization"] = {
                    "feasible": True,
                    "certificate": _certificate_doc(m.certificate, audit),
                }
        if want_over:
            if o is None:
                doc["overlap"] = {"feasible": False, "exhausted": True}
            else:
                doc["overlap"] = {
                    "feasible": True,
                    "value": o.overlap,
                    "n0": o.certificate.n0,
                    "q_variant": o.certificate.Q.variant,
                    "u_table": o.certificate.u_table,
                    "implied_bound": o.implied_bound,
                    "actual_coefficient": o.actual_coefficient,
                    "bound_holds": o.bound_holds,
                }
        sys.stdout.write(dumps_structured(doc))
        return EXIT_OK

    w = sys.stdout.write
    w(f"ergokit {__version__} doeblin: instance {instance_hash(inst)}\n")
    w(f"space: {_space_line(inst)}; power cap {args.n0_cap}\n")
    if want_min:
        if m is None:
            w(f"minorization: exhausted up to n0 = {args.n0_cap}\n")
        else:
            w(
                f"minorization: tau = {m.tau:.12g} at n0 = {m.certificate.n0} "
                f"(Q {m.certificate.Q.variant}; audit "
                f"{'ok' if audit.ok else 'FAILED'})\n"
            )
            w(
                f"  implied delta_P(T^n0) <= {m.implied_bound:.12g}; "
                f"actual {m.actual_coefficient:.12g}; holds: {m.bound_holds}\n"
            )
    if want_over:
        if o is None:
            w(f"overlap: exhausted up to n0 = {args.n0_cap}\n")
        else:
            w(
                f"overlap: lambda = {o.overlap:.12g} at n0 = {o.certificate.n0} "
                f"(Q {o.certificate.Q.variant})\n"
            )
            w(
                f"  implied delta_P(T^n0) <= {o.implied_bound:.12g}; "
                f"actual {o.actual_coefficient:.12g}; holds: {o.bound_holds}\n"
            )
    w(f"diagnostic: {outcome.diagnostic}\n")
    w(f"wall time: {1e3 * elapsed:.1f} ms\n")
    return EXIT_OK


def cmd_tensor(args) -> int:
    t0 = time.perf_counter()
    left = load_instance(args.path_s)
    right = load_instance(args.path_t)
    for side, inst in (("left", left), ("right", right)):
        if not inst.space.is_lattice:
            raise UnsupportedSpaceError(f"{side} factor is not a simplex instance")
    rep = tensor_rate_bound(
        left.operator, left.projection, right.operator, right.projection,
        tol=args.tolerance,
    )
    elapsed = time.perf_counter() - t0

    if args.format == "structured":
        doc = {
            "report": "tensor",
            "generator": {"name": "ergokit", "version": __version__},
            "instances": {
                "left": instance_hash(left),
                "right": instance_hash(right),
            },
            "flags": {"tolerance": args.tolerance, "seed": args.seed},
            "product_rate": rep.lhs,
            "factor_rate_max": rep.rhs,
            "factor_rates": rep.factor_rates,
            "bound_holds": rep.ok,
            "tight": rep.tight,
        }
        sys.stdout.write(dumps_structured(doc))
        return EXIT_OK

    w = sys.stdout.write
    w(f"ergokit {__version__} tensor\n")
    w(f"left: {instance_hash(left)} rate {rep.factor_rates[0]:.12g}\n")
    w(f"right: {instance_hash(right)} rate {rep.factor_rates[1]:.12g}\n")
    w(f"product rate = {rep.lhs:.12g} <= max factor rate = {rep.rhs:.12g}: {rep.ok}\n")
    w(f"tight: {rep.tight}\n")
    w(f"wall time: {1e3 * elapsed:.1f} ms\n")
    return EXIT_OK


def _parse_dims(text: str) -> tuple[int, ...]:
    text = text.strip()
    try:
        if ".." in text:
            lo, hi = text.split("..", 1)
            dims = tuple(range(int(lo), int(hi) + 1))
        else:
            dims = tuple(int(p) for p in text.split(",") if p.strip())
    except ValueError:
        raise ParseError(
            f"expected a comma list or lo..hi range of integers, got {text!r}", "--dims"
        ) from None
    if not dims and ".." in text:
        raise ParseError(f"{text!r} is an empty range: lo must not exceed hi", "--dims")
    if not dims or any(d < 2 for d in dims):
        raise ParseError("dims must be integers >= 2", "--dims")
    return dims


# lowest legal value of each integer flag; subcommands without a flag skip it
FLAG_FLOORS = (
    ("max_power", "--max-power", 1),
    ("n0_cap", "--n0-cap", 1),
    ("samples", "--samples", 1),
    ("count", "--count", 0),
    ("seed", "--seed", 0),  # NumPy seeds are non-negative
)


def _check_flag_ranges(args) -> None:
    for dest, flag, low in FLAG_FLOORS:
        value = getattr(args, dest, None)
        if value is not None and value < low:
            raise ParseError(f"must be an integer >= {low}, got {value}", flag)
    tolerance = getattr(args, "tolerance", None)
    if tolerance is not None and not (math.isfinite(tolerance) and tolerance >= 0):
        raise ParseError(f"must be a finite number >= 0, got {tolerance}", "--tolerance")


def cmd_verify(args) -> int:
    dims = _parse_dims(args.dims)
    if args.count == 0:
        if args.format == "structured":
            doc = {
                "report": "verify",
                "generator": {"name": "ergokit", "version": __version__},
                "flags": {"seed": args.seed, "count": 0, "dims": list(dims)},
                "checks": [],
            }
            sys.stdout.write(dumps_structured(doc))
        else:
            sys.stdout.write("verify: no instances requested; nothing to check\n")
        return EXIT_OK

    t0 = time.perf_counter()
    results = run_verification(
        seed=args.seed, dims=dims, count=args.count,
        samples=args.samples, corrupt=args.corrupt,
    )
    elapsed = time.perf_counter() - t0
    failed = [r for r in results if not r.ok]

    if args.format == "structured":
        doc = {
            "report": "verify",
            "generator": {"name": "ergokit", "version": __version__},
            "flags": {
                "seed": args.seed,
                "count": args.count,
                "dims": list(dims),
                "samples": args.samples,
                "corrupt": args.corrupt,
            },
            # "vacuous" appears only on checks that tested nothing, so
            # reports of runs without such checks keep their old bytes
            "checks": [
                {
                    "name": r.name,
                    "ok": r.ok,
                    **({"vacuous": True} if r.vacuous else {}),
                    "passed": r.passed,
                    "failed": r.failed,
                    "messages": list(r.messages),
                }
                for r in results
            ],
            "all_ok": not failed,
        }
        sys.stdout.write(dumps_structured(doc))
        return EXIT_OK if not failed else EXIT_FAIL

    w = sys.stdout.write
    w(
        f"ergokit {__version__} verify: seed={args.seed} count={args.count} "
        f"dims={','.join(map(str, dims))}\n"
    )
    for r in results:
        if r.vacuous:
            w(f"  VACUOUS {r.name} (no applicable cases)\n")
        elif r.ok:
            w(f"  PASS {r.name} ({r.passed} cases)\n")
        else:
            w(f"  FAIL {r.name} ({r.failed}/{r.passed + r.failed} cases)\n")
            for msg in r.messages:
                w(f"       {msg}\n")
    vacuous = sum(r.vacuous for r in results)
    w(f"{len(results) - len(failed)}/{len(results)} checks passed ")
    if vacuous:
        w(f"({vacuous} vacuous) ")
    w(f"in {elapsed:.1f} s\n")
    return EXIT_OK if not failed else EXIT_FAIL


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing keeps no state in it."""
    # a subcommand takes only the flags it reads; any other is a parse error
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format", choices=("text", "structured"), default="text",
        help="text for humans, structured for byte-deterministic JSON",
    )
    common.add_argument("--seed", type=int, default=0,
                        help="seed for sampling fallbacks and corpus generation")
    tolerance = argparse.ArgumentParser(add_help=False)
    tolerance.add_argument("--tolerance", type=float, default=1e-9,
                           help="tolerance for the theorem checks")
    max_power = argparse.ArgumentParser(add_help=False)
    max_power.add_argument("--max-power", type=int, default=64, dest="max_power",
                           help="power-trail length for classification")
    n0_cap = argparse.ArgumentParser(add_help=False)
    n0_cap.add_argument("--n0-cap", type=int, default=200, dest="n0_cap",
                        help="largest power searched for certificates")

    parser = argparse.ArgumentParser(
        prog="ergokit",
        description="Contraction coefficients, spectral classification and "
        "Doeblin certificates for finite Markov operators.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", parents=[common, tolerance, max_power, n0_cap],
                       help="full report for one instance file")
    p.add_argument("path")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("doeblin", parents=[common, n0_cap],
                       help="search minorization and overlap certificates")
    p.add_argument("path")
    p.add_argument("--which", choices=("DP", "DPstar", "both"), default="both",
                   help="which certificate family to search")
    p.set_defaults(func=cmd_doeblin)

    p = sub.add_parser("tensor", parents=[common, tolerance],
                       help="product-chain rate bound for two instances")
    p.add_argument("path_s")
    p.add_argument("path_t")
    p.set_defaults(func=cmd_tensor)

    p = sub.add_parser("verify", parents=[common],
                       help="run the named theorem checks over a seeded corpus")
    p.add_argument("--count", type=int, default=3,
                   help="instances per dimension (0 for an empty summary)")
    p.add_argument("--dims", default="2,3,4,5,6",
                   help="comma list or lo..hi range of dimensions")
    p.add_argument("--samples", type=int, default=20000,
                   help="Monte-Carlo sample count per instance")
    p.add_argument("--corrupt", choices=CHECK_NAMES, default=None,
                   help="fault-injection self-test: corrupt the named check's "
                        "instance stream and expect it to fail")
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _check_flag_ranges(args)
        return args.func(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except UnsupportedSpaceError as exc:
        print(f"unsupported space: {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED
    except PreconditionError as exc:
        print(f"precondition failed: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except ErgokitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
