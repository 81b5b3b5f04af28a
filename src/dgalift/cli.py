"""Batch command-line front end.

Every command reads structured documents, computes, re-verifies whatever
it claims, and prints a JSON transcript on standard output; diagnostics go
to standard error.  Exit codes: 0 success, 1 bad input (a usage error
too), 2 a verification failed, 3 the search was inconclusive at the
requested bound.
"""

from __future__ import annotations

import argparse
import functools
import sys
import time

from .algebra import derivative, diff, format_expr, is_cycle
from .errors import DgaliftError, SchemaError, VerificationError
from .field import field_from_spec
from .io import (
    dump_canonical,
    load_json,
    matrix_to_doc,
    module_from_doc,
    module_to_doc,
    signature_from_doc,
    signature_to_doc,
)
from .jop import JOperator
from .lift import (
    construct_lift_even,
    construct_lift_odd,
    decide_naive_lift,
    obstruction,
    verify_lift,
)
from .module import bracket_diff
from .selftest import run_selftest

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_VERIFY = 2
EXIT_INCONCLUSIVE = 3


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="dgalift",
        description=(
            "Exact calculus in graded-commutative DG algebra extensions: "
            "differentials, basis derivations, lifting obstructions, and "
            "constructive lifts of free DG modules."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text, *, mod=False, var=False, bound=False, expr=False):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--sig", required=True, help="signature document (JSON)")
        if mod == "required":
            p.add_argument("--mod", required=True, help="module document (JSON)")
        elif mod:
            p.add_argument("--mod", help="module document (JSON)")
        if var == "required":
            p.add_argument("--var", required=True, help="adjoined variable name")
        elif var:
            p.add_argument("--var", help="adjoined variable name (default: top)")
        if bound:
            p.add_argument(
                "--bound", type=int, default=3, help="polygen-degree search bound"
            )
        if expr:
            p.add_argument(
                "expr", help="expression text over the signature ('-' reads it from stdin)"
            )
        return p

    add("validate", "check signature and optional module invariants", mod=True)
    add("eval", "normalize an expression", expr=True)
    add("diff", "apply the algebra differential to an expression", expr=True)
    add("derive", "apply the derivative by a variable", var="required", expr=True)
    add("jop", "the basis derivative of the module differential", mod="required", var=True)
    add(
        "obstruct",
        "the lifting obstruction matrix, a cycle since d squares to zero",
        mod="required",
        var=True,
    )
    add(
        "naive",
        "semi-decide obstruction vanishing at a bound",
        mod="required",
        var=True,
        bound=True,
    )
    add(
        "lift",
        "construct and verify a lift from a found certificate",
        mod="required",
        var=True,
        bound=True,
    )
    p = add("tate", "adjoin a variable killing a cycle")
    p.add_argument("--name", required=True, help="name for the new variable")
    p.add_argument("--degree", type=int, required=True, help="degree of the new variable")
    p.add_argument("--cycle", required=True, help="expression for its differential")
    p = sub.add_parser("selftest", help="run the seeded identity suites")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--iters", type=int, default=50)
    p.add_argument(
        "--field",
        default=None,
        help="restrict to one field: q or fp:<p> (default: both q and fp:5)",
    )
    return parser


def _load_setting(args):
    sig_doc, digest = load_json(args.sig)
    sig = signature_from_doc(sig_doc)
    inputs = {"sig": {"path": args.sig, "sha256": digest}}
    module = d = None
    if getattr(args, "mod", None):
        mod_doc, digest = load_json(args.mod)
        module, d = module_from_doc(mod_doc, sig)
        inputs["mod"] = {"path": args.mod, "sha256": digest}
    return sig, module, d, inputs


def _var_name(args, sig):
    name = getattr(args, "var", None)
    if name:
        sig.var(name)
        return name
    return sig.top_variable.name


def _compute(args, transcript: dict):
    """Run one command: returns ``(verdict, data, exit code)`` and records
    the command's inputs and parameters in `transcript`."""
    if args.command == "selftest":
        if args.iters < 1:
            raise SchemaError("--iters must be a positive integer")
        transcript["params"] = {"seed": args.seed, "iters": args.iters}
        fields = [field_from_spec(args.field)] if args.field else None
        result = run_selftest(args.seed, args.iters, fields=fields)
        if result["all_passed"]:
            return "pass", result, EXIT_OK
        return "fail", result, EXIT_VERIFY

    if getattr(args, "bound", 0) < 0:
        raise SchemaError("--bound must be a non-negative integer")
    sig, module, d, transcript["inputs"] = _load_setting(args)

    if args.command == "validate":
        data = {"signature": "ok", "degenerate": sig.degenerate}
        if module is not None:
            sq = d.square_zero
            data["module"] = "ok"
            data["square_zero"] = sq
            if not sq:
                print("validate: differential does not square to zero", file=sys.stderr)
                return "fail", data, EXIT_INPUT
        return "pass", data, EXIT_OK

    if args.command in ("eval", "diff", "derive"):
        text = args.expr
        if text == "-":  # for an expression past the size of one argument
            text = sys.stdin.read().rstrip("\r\n")
        e = sig.parse(text)
        if args.command == "diff":
            out = diff(e)
        elif args.command == "derive":
            out = derivative(e, _var_name(args, sig))
        else:
            out = e
        data = {
            "input": text,
            "result": format_expr(out),
            "homogeneous": out.is_homogeneous(),
        }
        if out.is_homogeneous():
            data["degree"] = out.degree()
            data["is_cycle"] = is_cycle(out)
        return "ok", data, EXIT_OK

    if args.command == "tate":
        new_sig = sig.adjoin(args.name, args.degree, args.cycle)
        return "ok", {"signature": signature_to_doc(new_sig)}, EXIT_OK

    # module-level commands
    var_name = _var_name(args, sig)
    transcript["params"] = {"var": var_name}

    if args.command == "jop":
        j = JOperator(module, var_name)
        h = j.of_diff(d)
        data = {
            "matrix": matrix_to_doc(h),
            "degree": h.degree,
            "top_variable": j.is_top,
        }
        if d.square_zero:
            data["commutes_with_differential"] = bracket_diff(d, h).is_zero()
        return "ok", data, EXIT_OK

    if args.command == "obstruct":
        # obstruction checks that d squares to zero, and j(d o d) =
        # (-1)^|X| [d, j(d)] for the top variable: the cycle flag is derived.
        h = obstruction(module, d, var_name)
        data = {
            "obstruction": matrix_to_doc(h),
            "degree": h.degree,
            "cycle_verified": True,
        }
        return "ok", data, EXIT_OK

    # naive and lift
    transcript["params"]["bound"] = args.bound
    decision = decide_naive_lift(module, d, var_name, args.bound)
    if decision.certificate is None:
        return "inconclusive", {"bound": args.bound}, EXIT_INCONCLUSIVE
    certificate = matrix_to_doc(decision.certificate)
    odd = sig.var(var_name).degree % 2
    if args.command == "naive":
        data = {
            "certificate": certificate,
            "bound": args.bound,
            "parity": "odd" if odd else "even",
        }
        return "vanishes", data, EXIT_OK

    construct = construct_lift_odd if odd else construct_lift_even
    result = construct(module, d, var_name, decision.certificate)
    lift_report = verify_lift(
        result.lift_diff, result.u, result.ambient_diff, var_name, u_inv=result.u_inv
    )
    # The splitting rho sends u e_lam to (u e_lam) (x) 1, extended
    # linearly.  pi(y (x) 1) = y and u u_inv = 1 (checked by invert_unit)
    # give pi o rho = id.  In the basis u e_lam the differential has the
    # lifted matrix, whose entries are free of the variable and so cross
    # the tensor sign: rho o d = d o rho.  So the lift checks establish
    # the splitting; tensor.verify_splitting, which checks it element by
    # element, is the test oracle for this.
    data = {
        "parity": result.parity,
        "certificate": certificate,
        "basis_change": matrix_to_doc(result.u),
        "lifted_matrix": matrix_to_doc(result.lift_diff.matrix),
        "verification": {
            "lift": lift_report.passed,
            "splitting": lift_report.passed,
        },
    }
    if result.parity == "odd":
        data["lifted_module"] = module_to_doc(result.module)
        data["shift"] = result.shift_k
        # The sequence 0 -> K -> N (x) A -> N -> 0 around the evaluation pi
        # exists for every d, so it needs no check here.  With iota(e'_lam)
        # = e_lam X (x) 1 - e_lam (x) X: pi o iota = 0 and pi(e_lam (x) 1)
        # = e_lam by definition, and pi commutes with d by the Leibniz rule
        # of d.  Write each entry of D as a0 + X a1, a0 and a1 free of X.
        # X a1 X = 0 and a0 X = (-1)^|a0| X a0 give d(iota(e'_lam)) =
        # iota(sum_mu e'_mu ((-1)^|a0| a0 - a1 X)), and that is how
        # tensor.odd_ses builds the kernel differential.  Its element-wise
        # OddSequence.check is the test oracle for this.
        data["verification"]["sequence"] = True
    if lift_report.passed:
        return "lifted", data, EXIT_OK
    return "verification-failed", data, EXIT_VERIFY


def _run(args) -> int:
    start = time.perf_counter()
    transcript = {"tool": "dgalift", "command": args.command}
    transcript["verdict"], transcript["data"], code = _compute(args, transcript)
    # A selftest transcript depends on its seed alone, and an input that
    # validate rejects gets no timing.
    if args.command != "selftest" and code != EXIT_INPUT:
        transcript["timing_ms"] = round((time.perf_counter() - start) * 1000, 3)
    sys.stdout.write(dump_canonical(transcript) + "\n")
    return code


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as ex:  # argparse exits 0 after --help, 2 on a usage error
        return EXIT_INPUT if ex.code else EXIT_OK
    try:
        return _run(args)
    except VerificationError as ex:
        print(f"verification failure: {ex}", file=sys.stderr)
        return EXIT_VERIFY
    except (DgaliftError, ValueError) as ex:
        print(f"error: {ex}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
