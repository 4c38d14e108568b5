"""Command-line front end for robustness runs, probability tables, the
direction-discrimination game, and validation reports.

Exit status: 0 on success, 1 on a validation or solver failure, 2 on an I/O
or parse problem, out-of-range numeric inputs included.  All file outputs
are written atomically and identical configurations produce byte-identical
files; printed values carry ten significant digits.  The TIMEFLIP_TOL environment variable overrides the
default tolerance wherever --tol is not given explicitly.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from math import isfinite
from typing import Sequence

from .game import (
    GAME_STRATEGIES,
    PMAX_DIRECTIONS,
    TABLE_TOL,
    WAVEPLATE_CONVENTIONS,
    builtin_gate_sets,
    compute_pmax_fixed_direction,
    gate_table_survey,
    load_gate_pairs,
    play_game,
    save_game_report,
    verify_gate_table,
)
from .sdp import MAX_ITER, restricted_witness_projector, solve_max_robustness
from .supermaps import ConeId, SetupOperator, check_setup, load_setup, qtf_plus_control
from .tensor_core import atomic_write_text, load_operator, save_operator
from .witness import (
    born_probabilities,
    decompose_witness,
    estimate_robustness,
    load_decomposition,
    load_probabilities,
    poisson_resample,
    save_decomposition,
    save_probabilities,
    validate_witness,
)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_IO = 2

TOL_ENV_VAR = "TIMEFLIP_TOL"

# numeric inputs checked before any work: (attribute, flag, valid, rule)
_NUMBER_RULES = (
    ("tol", "--tol", lambda v: isfinite(v) and v > 0, "finite and > 0"),
    ("max_iter", "--max-iter", lambda v: v >= 1, ">= 1"),
    # numpy's Poisson sampler rejects a mean above about 9.2e18
    ("shots", "--shots", lambda v: 1 <= v <= 1e18, "between 1 and 1e18"),
    ("repetitions", "--repetitions", lambda v: v >= 2, ">= 2"),
    ("seed", "--seed", lambda v: v >= 0, ">= 0"),
)


def _fmt(value: float) -> str:
    return f"{value:.9e}"


def _env_tol() -> float | None:
    raw = os.environ.get(TOL_ENV_VAR)
    if raw is None:
        return None
    try:
        value = float(raw)
    except ValueError as exc:
        raise ValueError(f"{TOL_ENV_VAR} must be a number, got {raw!r}") from exc
    if not (isfinite(value) and value > 0):
        raise ValueError(f"{TOL_ENV_VAR} must be finite and > 0, got {raw!r}")
    return value


def _check_numbers(args: argparse.Namespace) -> None:
    for attr, flag, valid, rule in _NUMBER_RULES:
        value = getattr(args, attr, None)
        if value is not None and not valid(value):
            raise ValueError(f"{flag} must be {rule}, got {value}")
    _env_tol()


def _tol_kwargs(flag_value: float | None) -> dict:
    """Tolerance keyword for callees whose own default should otherwise win."""
    if flag_value is not None:
        return {"tol": flag_value}
    env = _env_tol()
    return {"tol": env} if env is not None else {}


def _fail(message: str, code: int) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _fail_uncertified(report) -> int:
    worst = max(report.residuals.items(), key=lambda kv: kv[1])
    return _fail(
        f"solver did not certify: gap {report.gap:.3e}, "
        f"worst residual {worst[0]} = {worst[1]:.3e}", EXIT_FAIL)


def _load_setup_arg(name: str) -> SetupOperator:
    if name == "qtf":
        return qtf_plus_control()
    return load_setup(name)


def _check_restricted(name: str, setup: SetupOperator) -> int | None:
    """Exit status for a --restricted run on a setup the restricted witness
    form does not fit, None when it fits."""
    try:
        restricted_witness_projector(setup)
    except ValueError as exc:
        return _fail(f"--restricted does not apply to setup {name!r}: {exc}", EXIT_IO)
    return None


def _write_json(path: str, payload: dict) -> None:
    atomic_write_text(path, json.dumps(payload, indent=2) + "\n")


# ---------------------------------------------------------------------------
# robustness
# ---------------------------------------------------------------------------

def cmd_robustness(args: argparse.Namespace) -> int:
    try:
        setup = _load_setup_arg(args.setup)
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        return _fail(f"cannot load setup {args.setup!r}: {exc}", EXIT_IO)
    if args.restricted and (status := _check_restricted(args.setup, setup)) is not None:
        return status

    report, witness = solve_max_robustness(
        setup, max_iter=args.max_iter, restricted=args.restricted, **_tol_kwargs(args.tol))

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
    needs_setup = not (args.decomposition_in and args.counts_in)
    stored = "to --decomposition-in: the stored decomposition is used as it is"
    resampling = "without --shots: only the resampling uses it"
    for flag, given, reason in (
        ("--restricted", args.decomposition_in and args.restricted, stored),
        ("--tol", args.decomposition_in and args.tol is not None, stored),
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
        if args.decomposition_in:
            terms = load_decomposition(args.decomposition_in)
        else:
            if args.restricted and (status := _check_restricted(name, setup)) is not None:
                return status
            report, witness = solve_max_robustness(
                setup, restricted=args.restricted, **_tol_kwargs(args.tol))
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
    except ValueError as exc:
        return _fail(str(exc), EXIT_FAIL)

    try:
        if args.out:
            save_probabilities(args.out, probs)
    except OSError as exc:
        return _fail(f"cannot write output: {exc}", EXIT_IO)

    print(f"estimate {_fmt(estimate)}")
    if args.shots is not None:
        mean, spread = poisson_resample(
            terms, probs, shots=int(args.shots),
            repetitions=args.repetitions or 100, seed=args.seed or 0)
        print(f"resampled-mean {_fmt(mean)}")
        print(f"resampled-stddev {_fmt(spread)}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# game
# ---------------------------------------------------------------------------

def cmd_game(args: argparse.Namespace) -> int:
    if args.pmax_direction is not None and not args.pmax_sdp:
        return _fail("--pmax-direction does not apply without --pmax-sdp", EXIT_IO)
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

def _setup_report_dict(report) -> dict:
    return {
        "cone": report.cone.value,
        "trace": report.trace,
        "trace_target": report.trace_target,
        "min_eigenvalue": report.min_eigenvalue,
        "residuals": {k: float(v) for k, v in report.residuals.items()},
        "tol": report.tol,
        "passed": bool(report.passed),
    }


def _validate_setup(args: argparse.Namespace) -> tuple[int, dict]:
    setup = _load_setup_arg(args.setup)
    payload = {}
    for cone in (ConeId.GENERAL, ConeId.FORWARD, ConeId.BACKWARD):
        report = check_setup(setup, cone, **_tol_kwargs(args.tol))
        payload[cone.value] = _setup_report_dict(report)
        print(f"{cone.value} {'pass' if report.passed else 'fail'}")
    status = EXIT_OK if payload[ConeId.GENERAL.value]["passed"] else EXIT_FAIL
    return status, payload


def _validate_witness(args: argparse.Namespace) -> tuple[int, dict]:
    op = load_operator(args.witness)
    report = validate_witness(op, **_tol_kwargs(args.tol))
    print(f"witness {'valid' if report.valid else 'invalid'}")
    print(f"min-definite {_fmt(report.min_definite_value)}")
    print(f"certificate {'ok' if report.certificate_ok else 'absent'}")
    return (EXIT_OK if report.valid else EXIT_FAIL), report.as_dict()


def _validate_gate_table(args: argparse.Namespace) -> tuple[int, dict]:
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
    if args.convention and not args.gate_table:
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
    rob.add_argument("--tol", type=float, default=None)
    rob.add_argument("--max-iter", type=int, default=MAX_ITER,
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
    prob.add_argument("--tol", type=float, default=None)
    prob.set_defaults(func=cmd_probabilities)

    game = sub.add_parser("game", help="play the direction-discrimination game")
    game.add_argument("--pairs", help="gate-pair JSON file (default: built-in sets)")
    game.add_argument("--strategy", choices=GAME_STRATEGIES, default="qtf")
    game.add_argument("--out", help="write the per-pair report as CSV")
    game.add_argument("--pmax-sdp", action="store_true",
                      help="also compute the fixed-direction success bound")
    game.add_argument("--pmax-direction", choices=PMAX_DIRECTIONS,
                      help="with --pmax-sdp (default: convex-hull)")
    game.set_defaults(func=cmd_game)

    val = sub.add_parser("validate", help="membership and certificate checks")
    val.add_argument("--setup", help="'qtf' or a setup JSON file")
    val.add_argument("--witness", help="witness operator JSON file")
    val.add_argument("--gate-table", action="store_true",
                     help="check the built-in waveplate table")
    val.add_argument("--convention", choices=WAVEPLATE_CONVENTIONS, default=None)
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
