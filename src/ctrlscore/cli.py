"""Command-line front end.

Subcommands
-----------
score      compute VCS or AECS weights for a model file
check      run the assumption checkers and report residuals
heat-demo  closed-form scores for sine-mode node sets of the heat equation
energy     minimum energy and reachable-ellipsoid data for given weights

Exit codes: 0 success, 1 parse/usage error, 2 infeasible or unstable model
(or failed checks for ``check``), 3 ambiguous result: starts that disagree
on a non-convex model, or a ``--grid-check`` FAIL, where a lattice point
beats the answer beyond rounding or a lattice minimizer lies more than a
step from it (report still emitted), 4 target outside the reachable span, 5
the solver did not converge (report still emitted; it wins over 3 when a
result is both, since an unconverged answer is not even a local optimum), 6
numerical failure (a Lyapunov solve or a Gramian failed its check, or a
feasible model's score is not finite in double precision), 141
stdout closed before the output was written (``| head``; 128 + SIGPIPE, the
status a shell reports for a process that the signal ended), with nothing
printed.  A command returns its verdict's code and raises every failure;
:func:`main` alone maps a raised failure to its code and one stderr line
(``_FAILURES``).  Only ``score`` reports two outcomes itself, ``Infeasible``
(2) and ``NonConvexAmbiguous`` (3, with its report).  ``--grid-check``
compares the scale-free objective (VCS, or the log of AECS), so no unit of
the model moves its verdict.

Importing this module sets ``OPENBLAS_NUM_THREADS=1`` as a default, before
it loads numpy.  OpenBLAS reads the variable once, when it loads, and starts
its worker threads then.  Two copies load in a CLI process: numpy's
(``numpy.libs/libscipy_openblas64_``) at the first numpy import, and scipy's
(``scipy.libs/libscipy_openblas``) when a ``dense_lti`` model needs the
Schur factor.  A command's matrices are small: from order 26 up OpenBLAS
puts a second thread on ``eigh``, which gave no wall-time gain at these
sizes and only spin-waited, about doubling the CPU time of a dense solve.
``import ctrlscore`` loads no numpy, so any caller that imports this module
before numpy (``python -m ctrlscore``, the ``ctrlscore`` script, an
in-process worker) gets both copies on one thread from load time.  A count
set in the environment already is kept for both copies, and a process that
loaded numpy first keeps its BLAS as it is.  Output is the same at any
count.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
from dataclasses import dataclass, fields

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")  # read when OpenBLAS loads

import numpy as np  # noqa: E402

from .energy import min_energy, reachable_ellipsoid  # noqa: E402
from .errors import (  # noqa: E402
    BadIndexSet,
    BeyondDoubleRange,
    CtrlscoreError,
    EigenFailure,
    IndexMismatch,
    Infeasible,
    InvalidWeights,
    LyapunovSolveFailure,
    NonConvexAmbiguous,
    ParseError,
    RankDeficient,
    TargetOutsideSpan,
    UnstableSystem,
)
from .linsys import node_labels  # noqa: E402
from .modelfile import ModelFile, parse_model_text  # noqa: E402
from .optimizer import grid_oracle, grid_units, solve  # noqa: E402
from .scores import ObjectiveKind, closed_form_optimum, scale_free_gap  # noqa: E402
from .simplex import SimplexWeights  # noqa: E402
from .spectral import AssumptionReport, check_feasibility, heat_dirichlet_model  # noqa: E402

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_INFEASIBLE = 2
EXIT_AMBIGUOUS = 3
EXIT_TARGET = 4
EXIT_UNCONVERGED = 5
EXIT_NUMERICAL = 6
EXIT_BROKEN_PIPE = 141

#: The demo's default node sets (four sine modes each).
DEFAULT_DEMO_ROWS = "1,2,3,4;1,2,3,5;1,2,3,6;2,3,4,5;2,3,4,6;3,4,5,6"


def truncate_toward_zero(value: float, decimals: int = 2) -> float:
    """Drop digits past ``decimals`` without rounding (0.2857 -> 0.28).

    The tiny guard absorbs binary representation error so exact decimal
    values such as 0.30 never slip below their boundary.
    """
    scale = 10.0**decimals
    return math.floor(abs(value) * scale + 1e-9) / scale * (1.0 if value >= 0 else -1.0)


@dataclass(frozen=True)
class RunReport:
    """One solver run, serializable as a JSON line."""

    schema_version: int
    input_digest: str
    model_kind: str
    score_kind: str
    score_order: int
    node_indices: tuple[int, ...]
    weights: tuple[float, ...]
    objective: float
    kkt_residual: float
    iterations: int
    uniqueness_certified: bool
    feasible: bool
    commuting: bool
    commutator_residual: float
    n_spectrum: bool
    n_spectrum_residual: float
    nth_eigenvalue: float
    warnings: tuple[str, ...]

    def to_json_line(self) -> str:
        payload = {field.name: getattr(self, field.name) for field in fields(self)}
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json_line(cls, line: str) -> "RunReport":
        data = json.loads(line)
        data["node_indices"] = tuple(int(i) for i in data["node_indices"])
        data["weights"] = tuple(float(w) for w in data["weights"])
        data["warnings"] = tuple(str(w) for w in data["warnings"])
        return cls(**data)


def _build_report(digest: str, model_file_kind: str, kind: ObjectiveKind,
                  node_indices, result) -> RunReport:
    rep: AssumptionReport = result.assumption_report
    return RunReport(
        schema_version=1,
        input_digest=digest,
        model_kind=model_file_kind,
        score_kind=kind.value,
        score_order=result.score_order,
        node_indices=tuple(node_indices),
        weights=tuple(float(w) for w in result.weights.values),
        objective=float(result.objective),
        kkt_residual=float(result.kkt_residual),
        iterations=result.iterations,
        uniqueness_certified=result.uniqueness_certified,
        feasible=rep.feasible,
        commuting=rep.commuting,
        commutator_residual=rep.commutator_residual,
        n_spectrum=rep.n_spectrum,
        n_spectrum_residual=rep.n_spectrum_residual,
        nth_eigenvalue=rep.nth_eigenvalue,
        warnings=result.warnings,
    )


def _format_table(report: RunReport) -> str:
    lines = [
        f"model: {report.model_kind} (digest {report.input_digest[:16]})",
        f"kind: {report.score_kind}   n: {report.score_order}   "
        f"nodes: {' '.join(str(i) for i in report.node_indices)}",
        "assumptions: "
        f"feasible={'yes' if report.feasible else 'no'} "
        f"commuting={'yes' if report.commuting else 'no'} "
        f"(residual {report.commutator_residual:.3e}) "
        f"n-spectrum={'yes' if report.n_spectrum else 'no'} "
        f"(residual {report.n_spectrum_residual:.3e}) "
        f"mu_n={report.nth_eigenvalue:.6e}",
        f"uniqueness certified: {'yes' if report.uniqueness_certified else 'no'}",
        "node  weight",
    ]
    for node, weight in zip(report.node_indices, report.weights):
        lines.append(f"{node:>4d}  {weight:.6f}")
    lines.append(f"objective: {report.objective:.9g}")
    lines.append(f"kkt residual: {report.kkt_residual:.3e}")
    lines.append(f"iterations: {report.iterations}")
    if report.warnings:
        lines.extend(f"warning: {w}" for w in report.warnings)
    return "\n".join(lines) + "\n"


def _format_csv(report: RunReport) -> str:
    rows = ["node,weight"]
    rows.extend(
        f"{node},{weight:.6f}"
        for node, weight in zip(report.node_indices, report.weights)
    )
    return "\n".join(rows) + "\n"


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _load(path: str) -> tuple[ModelFile, str]:
    with open(path, "rb") as handle:
        raw = handle.read()
    digest = hashlib.sha256(raw).hexdigest()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        # the sentinel makes the last piece the bad byte's line up to it
        head = (raw[:exc.start].decode("utf-8") + "?").splitlines()
        raise ParseError(f"invalid UTF-8 byte 0x{raw[exc.start]:02x}",
                         len(head), len(head[-1])) from None
    del raw  # with the digest and the text taken, the parse runs without it
    return parse_model_text(text), digest


def _parse_float_list(text: str, what: str) -> np.ndarray:
    # a bad --p or --target fails as a bad weight vector or target does
    error = InvalidWeights if what == "--p" else IndexMismatch
    try:
        values = [float(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError:
        raise error(f"{what} must be a comma-separated list of numbers") from None
    if not values:
        raise error(f"{what} is empty")
    return np.asarray(values, dtype=float)


def _oracle_agrees(kind: ObjectiveKind, objective: float, oracle: float) -> bool:
    """Whether ``oracle`` beats ``objective`` by no more than rounding, on the
    stopping test's scale-free objective: VCS, or the log of AECS
    (:func:`~ctrlscore.scores.scale_free_gap`)."""
    return scale_free_gap(kind, objective, oracle) <= 1e-9


def _cmd_score(args) -> int:
    if args.grid_check is not None:
        grid_units(args.grid_check)  # a bad step fails before any output
    kind = ObjectiveKind(args.kind)
    model_file, digest = _load(args.model)
    model = model_file.build(args.n)
    caps = model_file.caps

    exit_code = EXIT_OK
    try:
        result = solve(kind, model, caps=caps, seed=args.seed)
    except Infeasible as exc:
        print(f"error: infeasible model: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except NonConvexAmbiguous as exc:
        result = exc.result
        exit_code = EXIT_AMBIGUOUS
        print(f"warning: {exc}", file=sys.stderr)
    if not result.converged:
        exit_code = EXIT_UNCONVERGED
    grid_line = ""
    if args.grid_check is not None:  # an oracle failure fails before the report
        grid_weights, grid_value = grid_oracle(kind, model, step=args.grid_check,
                                               caps=caps)
        gap = result.objective - grid_value
        distance = float(np.max(np.abs(result.weights.values - grid_weights.values)))
        agree = (_oracle_agrees(kind, result.objective, grid_value)
                 and distance <= args.grid_check)
        if not agree and exit_code == EXIT_OK:
            exit_code = EXIT_AMBIGUOUS
        grid_line = (
            f"grid-check: step={args.grid_check:g} oracle_objective={grid_value:.9g} "
            f"objective_gap={gap:.3e} weight_distance={distance:.3e} "
            f"agreement={'pass' if agree else 'FAIL'}\n"
        )

    report = _build_report(digest, model_file.kind, kind,
                           model_file.node_indices, result)
    if args.format == "table":
        text = _format_table(report)
    elif args.format == "csv":
        text = _format_csv(report)
    else:
        text = report.to_json_line() + "\n"
    _emit(text, args.out)
    sys.stdout.write(grid_line)
    return exit_code


def _cmd_check(args) -> int:
    model_file, digest = _load(args.model)
    model = model_file.build(args.n)
    report = check_feasibility(model, caps=model_file.caps)
    if report.feasible:
        witness = " ".join(f"{w:.6f}" for w in report.witness.values)
        verdict, point = f"yes (witness {witness})", "witness"
    else:
        verdict, point = f"no ({report.reason})", "the central point"
    sys.stdout.write(
        f"model: {model_file.kind} (digest {digest[:16]})\n"
        f"finite node set: yes ({report.node_count} nodes, n={report.score_order})\n"
        f"feasible: {verdict}\n"
        f"mu_n at {point}: {report.nth_eigenvalue:.6e}\n"
        f"commuting: {'yes' if report.commuting else 'no'} "
        f"(residual {report.commutator_residual:.6e})\n"
        f"n-spectrum: {'yes' if report.n_spectrum else 'no'} "
        f"(residual {report.n_spectrum_residual:.6e})\n"
    )
    return EXIT_OK if report.all_pass() else EXIT_INFEASIBLE


def _parse_demo_rows(text: str) -> list[tuple[int, ...]]:
    sets = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        try:
            sets.append(node_labels([int(tok) for tok in chunk.split(",")]))
        except ValueError as exc:
            raise BadIndexSet(f"bad index set {chunk!r}: {exc}") from None
    if not sets:
        raise BadIndexSet("no index sets given")
    return sets


def _cmd_heat_demo(args) -> int:
    sets = _parse_demo_rows(args.rows)
    # Scores are displayed truncated toward zero at two decimals, matching
    # the presentation convention of the reference table for this model.
    for indices in sets:
        model = heat_dirichlet_model(indices)
        aecs = closed_form_optimum(ObjectiveKind.AECS, model)
        vcs = closed_form_optimum(ObjectiveKind.VCS, model)
        aecs_txt = ", ".join(
            f"{truncate_toward_zero(w):.2f}" for w in aecs.values
        )
        vcs_txt = ", ".join(
            f"{truncate_toward_zero(w):.2f}" for w in vcs.values
        )
        set_txt = "{" + ",".join(str(i) for i in indices) + "}"
        sys.stdout.write(f"I={set_txt}  AECS=({aecs_txt})  VCS=({vcs_txt})\n")
    return EXIT_OK


def _cmd_energy(args) -> int:
    model_file, _ = _load(args.model)
    model_at = model_file.energy_model(args.n)
    values = _parse_float_list(args.p, "--p")
    total = values.sum()
    if abs(total - 1.0) > 1e-6:
        raise InvalidWeights(f"weights sum to {total:.6g}, expected 1")
    values = values / total
    weights = SimplexWeights(values, model_file.caps)
    target = _parse_float_list(args.target, "--target")
    model, weights = model_at(weights)
    pairs = model.eigenpairs(weights)
    energy_value = min_energy(model, weights, target, pairs=pairs)
    ellipsoid = reachable_ellipsoid(model, weights, pairs=pairs)
    sys.stdout.write(
        f"energy {energy_value:.6f}\n"
        "semi-axes " + " ".join(f"{s:.6e}" for s in ellipsoid.semi_axes) + "\n"
        f"log-volume {ellipsoid.log_volume:.9g}\n"
    )
    return EXIT_OK


def nonnegative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        self.exit(EXIT_PARSE, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="ctrlscore",
        description="Controllability scores for stable linear systems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    score = sub.add_parser("score", help="compute VCS or AECS weights")
    score.add_argument("model", help="model file path")
    score.add_argument("--kind", required=True, choices=["vcs", "aecs"])
    score.add_argument("--n", type=int, default=None,
                       help="number of selected eigenvalues")
    score.add_argument("--out", default=None, help="write the report here")
    score.add_argument("--format", default="table",
                       choices=["table", "csv", "json-lines"])
    score.add_argument("--seed", type=nonnegative_int, default=0)
    score.add_argument("--grid-check", type=float, default=None, metavar="STEP",
                       help="verify against the lattice oracle at this spacing")
    score.set_defaults(handler=_cmd_score)

    check = sub.add_parser("check", help="run the assumption checkers")
    check.add_argument("model", help="model file path")
    check.add_argument("--n", type=int, default=None)
    check.set_defaults(handler=_cmd_check)

    demo = sub.add_parser("heat-demo",
                          help="closed-form scores for heat-equation node sets")
    demo.add_argument("--rows", default=DEFAULT_DEMO_ROWS,
                      help="semicolon-separated index sets, e.g. '1,2,3,4;2,3,4,5'")
    demo.set_defaults(handler=_cmd_heat_demo)

    energy = sub.add_parser("energy",
                            help="minimum energy and reachable ellipsoid")
    energy.add_argument("model", help="model file path")
    energy.add_argument("--p", required=True, help="comma-separated weights")
    energy.add_argument("--target", required=True,
                        help="comma-separated target state")
    energy.add_argument("--n", type=int, default=None)
    energy.set_defaults(handler=_cmd_energy)
    return parser


#: How :func:`main` ends a command that raised: the first row whose types
#: match gives the exit code and the stderr prefix (None: a closed stdout
#: leaves nobody to tell).  The last row matches all that ``main`` catches.
_FAILURES = (
    (BrokenPipeError, EXIT_BROKEN_PIPE, None),
    (ParseError, EXIT_PARSE, "parse error: "),
    ((UnstableSystem, RankDeficient), EXIT_INFEASIBLE, "error: "),
    (TargetOutsideSpan, EXIT_TARGET, "error: "),
    ((LyapunovSolveFailure, EigenFailure, BeyondDoubleRange), EXIT_NUMERICAL,
     "error: "),
    ((OSError, CtrlscoreError), EXIT_PARSE, "error: "),
)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (OSError, CtrlscoreError) as exc:
        code, prefix = next((code, prefix) for types, code, prefix in _FAILURES
                            if isinstance(exc, types))
        if prefix is not None:
            print(f"{prefix}{exc}", file=sys.stderr)
        return code
