"""Command-line front end for robustness runs, probability tables, the
direction-discrimination game, and validation reports.

Exit status: 0 on success, 1 on a validation or solver failure, 2 on an I/O
or parse problem, bad numbers and flags that do not apply included.  All
file outputs are written atomically and identical configurations produce
byte-identical files; printed values carry ten significant digits.

Each command imports the modules it runs when it starts, so parsing loads
no numpy and no command loads a module it does not use.  A command that
solves imports the solver first: compiling it before any operator exists
keeps the peak memory lower.
"""

from __future__ import annotations

import argparse
import json
import sys
from math import isfinite
from typing import TYPE_CHECKING, Sequence

if TYPE_CHECKING:
    from .supermaps import SetupOperator

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_IO = 2

# numeric inputs checked before any work: (attribute, flag, valid, rule)
_NUMBER_RULES = (
    ("tol", "--tol", lambda v: isfinite(v) and v > 0, "finite and > 0"),
    ("max_iter", "--max-iter", lambda v: v >= 1, ">= 1"),
    # numpy's Poisson sampler rejects a mean above about 9.2e18
    ("shots", "--shots", lambda v: 1 <= v <= 1e18 and v.is_integer(),
     "a whole number between 1 and 1e18"),
    ("repetitions", "--repetitions", lambda v: v >= 2, ">= 2"),
    ("seed", "--seed", lambda v: v >= 0, ">= 0"),
)


def _fmt(value: float) -> str:
    return f"{value:.9e}"


def _check_numbers(args: argparse.Namespace) -> None:
    for attr, flag, valid, rule in _NUMBER_RULES:
        value = getattr(args, attr, None)
        if value is not None and not valid(value):
            raise ValueError(f"{flag} must be {rule}, got {value}")


def _fail(message: str, code: int) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _fail_uncertified(report) -> int:
    worst = max(report.residuals.items(), key=lambda kv: kv[1])
    return _fail(
        f"solver did not certify: gap {report.gap:.3e}, "
        f"worst residual {worst[0]} = {worst[1]:.3e}", EXIT_FAIL)


def _choice_error(flag: str, value: str | None, choices: Sequence[str]) -> str | None:
    """The message for a flag value outside its choices, None when the value
    is one of them or the flag was not given."""
    if value is None or value in choices:
        return None
    return f"{flag} must be one of {', '.join(choices)}, got {value!r}"


def _load_setup_arg(name: str) -> SetupOperator:
    from .supermaps import load_setup, qtf_plus_control

    if name == "qtf":
        return qtf_plus_control()
    return load_setup(name)


def _check_fit(name: str, setup: SetupOperator, flags: Sequence[str]) -> int | None:
    """Exit status for the first given flag the setup does not fit, None when
    all fit: --restricted needs the restricted witness form, any other flag
    the five-qubit layout of witness decompositions and probabilities."""
    for flag in flags:
        try:
            if flag == "--restricted":
                from .sdp import restricted_reduction

                restricted_reduction(setup)
            else:
                from .witness import require_experiment_layout

                require_experiment_layout(setup.op.layout, "the setup")
        except ValueError as exc:
            return _fail(f"{flag} does not apply to setup {name!r}: {exc}", EXIT_IO)
    return None


def _write_json(path: str, payload: dict) -> None:
    from .tensor_core import atomic_write_text

    atomic_write_text(path, json.dumps(payload, indent=2) + "\n")


# ---------------------------------------------------------------------------
# robustness
# ---------------------------------------------------------------------------

def cmd_robustness(args: argparse.Namespace) -> int:
    from .sdp import MAX_ITER, solve_max_robustness
    from .tensor_core import save_operator

    try:
        setup = _load_setup_arg(args.setup)
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        return _fail(f"cannot load setup {args.setup!r}: {exc}", EXIT_IO)
    flags = [flag for flag, given in (("--restricted", args.restricted),
                                      ("--decomposition-out", args.decomposition_out)) if given]
    if (status := _check_fit(args.setup, setup, flags)) is not None:
        return status

    max_iter = MAX_ITER if args.max_iter is None else args.max_iter
    report, witness = solve_max_robustness(setup, max_iter=max_iter, restricted=args.restricted)

    payload = report.as_dict()
    payload["command"] = "robustness"
    payload["restricted"] = bool(args.restricted)
    payload["robustness"] = report.lower

    try:
        if args.out:
            _write_json(args.out, payload)
        if args.witness_out:
            save_operator(args.witness_out, witness)
        if args.decomposition_out:
            from .witness import decompose_witness, save_decomposition

            terms = decompose_witness(witness, restricted=args.restricted)
            save_decomposition(args.decomposition_out, terms)
    except OSError as exc:
        return _fail(f"cannot write output: {exc}", EXIT_IO)

    print(f"robustness {_fmt(report.lower)}")
    print(f"gap {_fmt(report.gap)}")
    if not report.converged:
        return _fail_uncertified(report)
    return EXIT_OK


# ---------------------------------------------------------------------------
# probabilities
# ---------------------------------------------------------------------------

def cmd_probabilities(args: argparse.Namespace) -> int:
    if not args.decomposition_in:
        from . import sdp  # the solver first
    from .witness import (
        born_probabilities,
        decompose_witness,
        estimate_robustness,
        load_decomposition,
        load_probabilities,
        poisson_resample,
        save_probabilities,
    )

    needs_setup = not (args.decomposition_in and args.counts_in)
    stored = "to --decomposition-in: the stored decomposition is used as it is"
    resampling = "without --shots: only the resampling uses it"
    for flag, given, reason in (
        ("--restricted", args.decomposition_in and args.restricted, stored),
        ("--setup", not needs_setup and args.setup is not None,
         "to --decomposition-in with --counts-in: no setup is read"),
        ("--repetitions", args.shots is None and args.repetitions is not None, resampling),
        ("--seed", args.shots is None and args.seed is not None, resampling),
    ):
        if given:
            return _fail(f"{flag} does not apply {reason}", EXIT_IO)
    name = args.setup or "qtf"
    try:
        setup = _load_setup_arg(name) if needs_setup else None
        flags = [flag for flag, given in (("--restricted", args.restricted),
                                          ("--setup", needs_setup)) if given]
        if (status := _check_fit(name, setup, flags)) is not None:
            return status
        if args.decomposition_in:
            terms = load_decomposition(args.decomposition_in)
        else:
            report, witness = sdp.solve_max_robustness(setup, restricted=args.restricted)
            if not report.converged:
                return _fail_uncertified(report)
            terms = decompose_witness(witness, restricted=args.restricted)
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        return _fail(f"cannot obtain a witness decomposition: {exc}", EXIT_IO)
    terms = [term for term in terms if term.coeff != 0.0]

    try:
        if args.counts_in:
            probs = load_probabilities(args.counts_in)
        else:
            probs = born_probabilities(setup, terms)
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        return _fail(f"cannot obtain probabilities: {exc}", EXIT_IO)

    try:
        estimate = estimate_robustness(terms, probs)
    except ValueError as exc:  # Born probabilities cover every term: the counts lack one
        return _fail(f"{args.counts_in}: {exc}", EXIT_IO)

    try:
        if args.out:
            save_probabilities(args.out, probs)
    except OSError as exc:
        return _fail(f"cannot write output: {exc}", EXIT_IO)

    print(f"estimate {_fmt(estimate)}")
    if args.shots is not None:
        mean, spread = poisson_resample(
            terms, probs, shots=args.shots,
            repetitions=args.repetitions or 100, seed=args.seed or 0)
        print(f"resampled-mean {_fmt(mean)}")
        print(f"resampled-stddev {_fmt(spread)}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# game
# ---------------------------------------------------------------------------

def cmd_game(args: argparse.Namespace) -> int:
    if args.pmax_sdp:
        from . import sdp  # noqa: F401  (the solver first)
    from .game import (
        GAME_STRATEGIES,
        PMAX_DIRECTIONS,
        builtin_gate_sets,
        compute_pmax_fixed_direction,
        load_gate_pairs,
        play_game,
        save_game_report,
    )

    if args.pmax_direction is not None and not args.pmax_sdp:
        return _fail("--pmax-direction does not apply without --pmax-sdp", EXIT_IO)
    for flag, value, choices in (("--strategy", args.strategy, GAME_STRATEGIES),
                                 ("--pmax-direction", args.pmax_direction, PMAX_DIRECTIONS)):
        if message := _choice_error(flag, value, choices):
            return _fail(message, EXIT_IO)
    direction = args.pmax_direction or "convex-hull"
    try:
        if args.pairs:
            pairs = tuple(load_gate_pairs(args.pairs))
        else:
            plus, minus = builtin_gate_sets()
            pairs = plus + minus
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        return _fail(f"cannot load gate pairs: {exc}", EXIT_IO)

    records = play_game(pairs, strategy=args.strategy)

    try:
        if args.out:
            save_game_report(args.out, records)
    except OSError as exc:
        return _fail(f"cannot write output: {exc}", EXIT_IO)

    wins = sum(rec.correct for rec in records)
    print(f"correct {wins}/{len(records)}")

    if args.pmax_sdp:
        try:
            value = compute_pmax_fixed_direction(pairs, direction)
        except ValueError as exc:
            return _fail(str(exc), EXIT_FAIL)
        print(f"pmax-{direction} {_fmt(value)}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------

def _validate_setup(args: argparse.Namespace) -> tuple[int, dict]:
    from .supermaps import MEMBERSHIP_TOL, check_setup

    try:
        setup = _load_setup_arg(args.setup)
    except (OSError, ValueError) as exc:
        raise ValueError(f"cannot load setup {args.setup!r}: {exc}") from exc
    report = check_setup(setup, MEMBERSHIP_TOL if args.tol is None else args.tol)
    payload = {
        cone: {
            "cone": cone,
            "trace": report.trace,
            "trace_target": report.trace_target,
            "min_eigenvalue": report.min_eigenvalue,
            "residuals": residuals,
            "tol": report.tol,
            "passed": report.passed[cone],
        }
        for cone, residuals in report.residuals.items()
    }
    for cone, passed in report.passed.items():
        print(f"{cone} {'pass' if passed else 'fail'}")
    return (EXIT_OK if report.passed["general"] else EXIT_FAIL), payload


def _validate_witness(args: argparse.Namespace) -> tuple[int, dict]:
    from . import sdp  # noqa: F401  (the solver first)
    from .tensor_core import load_operator
    from .witness import validate_witness

    try:
        op = load_operator(args.witness)
    except (OSError, ValueError) as exc:
        raise ValueError(f"cannot load witness {args.witness!r}: {exc}") from exc
    report = validate_witness(op, tol=args.tol)
    print(f"witness {'valid' if report.valid else 'invalid'}")
    print(f"min-definite {_fmt(report.min_definite_value)}")
    print(f"certificate {'ok' if report.certificate_ok else 'absent'}")
    return (EXIT_OK if report.valid else EXIT_FAIL), report.as_dict()


def _validate_gate_table(args: argparse.Namespace) -> tuple[int, dict]:
    from .waveplates import TABLE_TOL, WAVEPLATE_CONVENTIONS, gate_table_survey, verify_gate_table

    if message := _choice_error("--convention", args.convention, WAVEPLATE_CONVENTIONS):
        raise ValueError(message)
    if args.tol is not None:
        raise ValueError(f"--tol does not apply to --gate-table: a row passes "
                         f"within the fixed distance {TABLE_TOL:g} of its gate")
    if args.convention:
        reports = {args.convention: verify_gate_table(args.convention)}
    else:
        reports = gate_table_survey()
    payload = {}
    for convention, report in reports.items():
        payload[convention] = report.as_dict()
        worst = max(report.distances.values())
        print(f"{convention} {'pass' if report.all_passed else 'fail'} "
              f"worst {_fmt(worst)}")
    status = EXIT_OK if any(r.all_passed for r in reports.values()) else EXIT_FAIL
    return status, payload


def cmd_validate(args: argparse.Namespace) -> int:
    modes = [bool(args.setup), bool(args.witness), bool(args.gate_table)]
    if sum(modes) != 1:
        return _fail("choose exactly one of --setup, --witness, --gate-table", EXIT_IO)
    if args.convention is not None and not args.gate_table:
        return _fail("--convention does not apply without --gate-table", EXIT_IO)
    try:
        if args.setup:
            status, payload = _validate_setup(args)
        elif args.witness:
            status, payload = _validate_witness(args)
        else:
            status, payload = _validate_gate_table(args)
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        return _fail(str(exc), EXIT_IO)

    try:
        if args.out:
            _write_json(args.out, payload)
    except OSError as exc:
        return _fail(f"cannot write output: {exc}", EXIT_IO)
    return status


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="timeflip",
        description="Robustness, probabilities, game, and validation drivers.")
    sub = parser.add_subparsers(dest="command", required=True)

    rob = sub.add_parser("robustness", help="solve the robustness program")
    rob.add_argument("--setup", default="qtf",
                     help="'qtf' or a setup JSON file (default: qtf)")
    rob.add_argument("--restricted", action="store_true",
                     help="confine the witness to the accessible subspace")
    rob.add_argument("--max-iter", type=int, default=None,
                     help="splitting iterations of the one run per certified pair, "
                          "rejected accelerated steps included")
    rob.add_argument("--out", help="write the solve report as JSON")
    rob.add_argument("--witness-out", help="write the optimal witness operator")
    rob.add_argument("--decomposition-out",
                     help="write the witness decomposition as CSV")
    rob.set_defaults(func=cmd_robustness)

    prob = sub.add_parser("probabilities",
                          help="ideal or resampled event probabilities")
    prob.add_argument("--setup", help="'qtf' or a setup JSON file (default: qtf)")
    prob.add_argument("--restricted", action="store_true")
    prob.add_argument("--decomposition-in",
                      help="reuse a stored decomposition instead of solving")
    prob.add_argument("--counts-in",
                      help="replay externally recorded counts into the estimate")
    prob.add_argument("--out", help="write the probability table as CSV")
    prob.add_argument("--shots", type=float, default=None,
                      help="Poisson-resample with this many shots per setting")
    prob.add_argument("--repetitions", type=int, help="with --shots (default: 100)")
    prob.add_argument("--seed", type=int, help="with --shots (default: 0)")
    prob.set_defaults(func=cmd_probabilities)

    game = sub.add_parser("game", help="play the direction-discrimination game")
    game.add_argument("--pairs", help="gate-pair JSON file (default: built-in sets)")
    game.add_argument("--strategy", default="qtf", help="qtf or switch (default: qtf)")
    game.add_argument("--out", help="write the per-pair report as CSV")
    game.add_argument("--pmax-sdp", action="store_true",
                      help="also compute the fixed-direction success bound")
    game.add_argument("--pmax-direction",
                      help="forward-only, backward-only or convex-hull, with --pmax-sdp "
                           "(default: convex-hull)")
    game.set_defaults(func=cmd_game)

    val = sub.add_parser("validate", help="membership and certificate checks")
    val.add_argument("--setup", help="'qtf' or a setup JSON file")
    val.add_argument("--witness", help="witness operator JSON file")
    val.add_argument("--gate-table", action="store_true",
                     help="check the built-in waveplate table")
    val.add_argument("--convention",
                     help="with --gate-table, one waveplate convention (default: all)")
    val.add_argument("--tol", type=float, default=None)
    val.add_argument("--out", help="write the aggregated report as JSON")
    val.set_defaults(func=cmd_validate)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _check_numbers(args)
    except ValueError as exc:
        return _fail(str(exc), EXIT_IO)
    try:
        return args.func(args)
    except ValueError as exc:
        return _fail(str(exc), EXIT_FAIL)


if __name__ == "__main__":
    sys.exit(main())
