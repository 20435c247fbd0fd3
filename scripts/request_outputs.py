#!/usr/bin/env python3
"""Exit code, stdout and stderr of every benchmark request, as one JSON file.

Builds every workload of ``perfbench/gen.py`` at seeds 0 and 1, writes its
model files to a temporary directory, and runs each request in this process
through ``ctrlscore.cli.main`` with ``OPENBLAS_NUM_THREADS=1``.  The output
maps ``workload/seed/request`` to ``[exit, stdout, stderr]``, with the
temporary directory written as ``<dir>``, so two checkouts that behave the
same give byte-identical files.  Beside the workloads' own requests it runs
one ``check MODEL --n K-1`` for each generated ``spectral_table`` and
``heat_dirichlet`` model, ``K`` its row count (:func:`_top_n_checks`):
every benchmark request scores the whole spectrum, where the top-n
spectrum check returns before it reads the table.  It also runs the
``heat-demo`` requests of :data:`HEAT_DEMOS`, keyed ``heat-demo/NAME``, so
the closed form's table reader sees a heat table held as an array and one
held as its nonzeros; no benchmark request reaches it.  ``--root`` names
the checkout whose ``src`` and ``perfbench/gen.py`` are used (default: the
one holding this script); the generator is only read.

Run, for a change against its parent checked out at ``../parent``:
    python3 scripts/request_outputs.py change.json
    python3 scripts/request_outputs.py --root ../parent parent.json
    python3 scripts/request_outputs.py --compare parent.json change.json

``--compare A B`` sorts every request into one of three classes and prints
one line each, then the counts: ``identical`` (byte for byte), ``equal``
(same exit code and stderr; every stdout line the same text apart from its
numbers, each number within :data:`TOLERANCE` of the other, relative to
``max(1, |a|, |b|)``, and a report's iteration count free to differ, in
JSON and in table form) or ``different``.  An ``equal`` line gives the
largest weight and objective change.  A ``different`` line names what
moved: the exit code, stderr, the keys of a JSON report that differ beyond
the tolerance, or the text before the first number of a stdout line that
does (``commuting: no (residual``).  It exits 1 when a request differs or
is missing from one file.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.util
import io
import json
import math
import os
import re
import sys
import tempfile

SEEDS = (0, 1)

#: ``heat-demo`` requests by name: the default rows, node sets of 4 whose
#: tables are held as arrays, and one set of 20 nodes, whose table is held
#: as its nonzeros (a heat table is from 16 nodes on).
HEAT_DEMOS = {
    "default": ["heat-demo"],
    "nodes1-20": ["heat-demo", "--rows", ",".join(map(str, range(1, 21)))],
}

#: Relative tolerance of ``--compare``, about 4500 units in the last place:
#: far above the rounding a reordered sum leaves, far below a changed answer.
TOLERANCE = 1e-12


def _load_gen(root: str):
    """``perfbench/gen.py`` of ``root``, loaded as a module."""
    spec = importlib.util.spec_from_file_location(
        "request_outputs_gen", os.path.join(root, "perfbench", "gen.py"))
    gen = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = gen  # dataclasses look their module up here
    spec.loader.exec_module(gen)
    return gen


def _top_n_checks(models, directory: str) -> list[tuple[str, list[str]]]:
    """``(rid, argv)`` of ``check MODEL --n K-1`` for each table and heat
    model of ``models``, ``K`` its row count, under ``directory``."""
    checks = []
    for model in models.values():
        if model.kind != "dense_lti":
            order = len(model.rows or model.nodes) - 1
            path = os.path.join(directory, model.name + ".csm")
            checks.append((f"{model.name}-check-n{order}",
                           ["check", path, "--n", str(order)]))
    return checks


def _run(main, argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects a request this way
            code = exc.code if isinstance(exc.code, int) else 1
    return code, out.getvalue(), err.getvalue()


#: A number as the CLI prints it: JSON floats, ``%.6f``, ``%.3e``, ``%g``.
#: Digits inside a word (a digest, ``mu_2``) and ``inf`` are text.
_NUMBER = re.compile(r"(?<![\w.])[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?(?!\w)")

#: The line of a table report that holds its iteration count.
_TABLE_ITERATIONS = "iterations: "


def _close(old: str, new: str) -> bool:
    """Whether two texts are the same apart from numbers, each within
    :data:`TOLERANCE` of the other."""
    texts = _NUMBER.split(old), _NUMBER.split(new)
    numbers = [[float(x) for x in _NUMBER.findall(text)] for text in (old, new)]
    return (texts[0] == texts[1] and len(numbers[0]) == len(numbers[1])
            and all(abs(a - b) <= TOLERANCE * max(1.0, abs(a), abs(b))
                    for a, b in zip(*numbers)))


def _report(line: str) -> dict | None:
    """The JSON report on a stdout line, without its iteration count."""
    try:
        report = json.loads(line)
    except ValueError:
        return None
    if not isinstance(report, dict):
        return None
    report.pop("iterations", None)
    return report


def _moved(old: str, new: str) -> list[str]:
    """What differs beyond :data:`TOLERANCE` between two stdout lines: the
    keys of a JSON report, or a text line's text before its first number
    (the whole line where that is empty).  A report's ``iterations`` may differ: a JSON key, or a table line of its
    own."""
    if old.startswith(_TABLE_ITERATIONS) and new.startswith(_TABLE_ITERATIONS):
        return []
    reports = _report(old), _report(new)
    if reports[0] is not None and reports[1] is not None:
        return [key for key in sorted(reports[0].keys() | reports[1].keys())
                if not _close(*(json.dumps(r.get(key)) for r in reports))]
    if _close(old, new):
        return []
    heads = [_NUMBER.split(line)[0].strip() or line.strip() for line in (old, new)]
    return [heads[0] if heads[0] == heads[1] else " -> ".join(heads)]


def _gaps(old: str, new: str) -> tuple[float, float]:
    """``(weight, objective)`` changes between two stdout lines that agree
    within :data:`TOLERANCE`; zero unless they are reports."""
    reports = _report(old), _report(new)
    if reports[0] is None or reports[1] is None:
        return 0.0, 0.0
    weights = max((abs(a - b) for a, b in zip(reports[0].get("weights", ()),
                                             reports[1].get("weights", ()))),
                  default=0.0)
    objectives = [r.get("objective", 0.0) for r in reports]
    scale = max(abs(objectives[0]), abs(objectives[1]), math.ulp(0.0))
    return weights, abs(objectives[0] - objectives[1]) / scale


def _classify(old, new):
    """The class of one request's ``[exit, stdout, stderr]`` in two runs,
    with its detail: ``("identical", None)``, ``("equal", (weight,
    objective))``, the largest changes, or ``("different", moved)``, the
    names of what moved (:func:`_moved`, the exit code, stderr or the
    number of stdout lines)."""
    if old == new:
        return "identical", None
    lines = old[1].splitlines(), new[1].splitlines()
    moved = [f"exit {old[0]} -> {new[0]}"] if old[0] != new[0] else []
    if old[2] != new[2]:
        moved.append("stderr")
    if len(lines[0]) != len(lines[1]):
        moved.append("stdout lines")
    for a, b in zip(*lines):
        moved.extend(_moved(a, b))
    if moved:
        return "different", tuple(dict.fromkeys(moved))
    gaps = [_gaps(a, b) for a, b in zip(*lines)]
    return "equal", tuple(max((g[i] for g in gaps), default=0.0) for i in (0, 1))


def compare(old_path: str, new_path: str) -> int:
    """Print the class of every request of two output files; 1 if any
    request differs or is missing from one of them."""
    runs = []
    for path in (old_path, new_path):
        with open(path, encoding="utf-8") as handle:
            runs.append(json.load(handle))
    counts = {"identical": 0, "equal": 0, "different": 0, "missing": 0}
    for key in sorted(runs[0].keys() | runs[1].keys()):
        if key not in runs[0] or key not in runs[1]:
            label, found = "missing", None
        else:
            label, found = _classify(runs[0][key], runs[1][key])
        counts[label] += 1
        if label == "equal":
            detail = f"  weights {found[0]:.2e}  objective {found[1]:.2e} relative"
        elif label == "different":
            detail = "  moved: " + "; ".join(found)
        else:
            detail = ""
        print(f"{label:<9}  {key}{detail}")
    print(", ".join(f"{n} {label}" for label, n in counts.items())
          + f" (tolerance {TOLERANCE:g})")
    return 1 if counts["different"] or counts["missing"] else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out", nargs="?", help="JSON file to write")
    parser.add_argument("--root", default=os.path.dirname(
        os.path.dirname(os.path.abspath(__file__))),
                        help="checkout to run (default: this script's)")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        help="classify every request of two output files instead")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.out is None:
        parser.error("an output file or --compare is required")

    root = os.path.abspath(args.root)
    os.environ["OPENBLAS_NUM_THREADS"] = "1"  # read when numpy loads OpenBLAS
    sys.path.insert(0, os.path.join(root, "src"))
    from ctrlscore import cli

    gen = _load_gen(root)
    outputs = {}
    for workload in gen.WORKLOADS:
        for seed in SEEDS:
            models, requests = gen.build(workload, seed)
            with tempfile.TemporaryDirectory() as directory:
                gen.write(models, directory)
                runs = [(request.rid, request.argv(directory)) for request in requests]
                for rid, argv in runs + _top_n_checks(models, directory):
                    code, out, err = _run(cli.main, argv)
                    outputs[f"{workload}/{seed}/{rid}"] = [
                        code, out.replace(directory, "<dir>"),
                        err.replace(directory, "<dir>")]
    for name, argv in HEAT_DEMOS.items():
        outputs[f"heat-demo/{name}"] = list(_run(cli.main, argv))
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(outputs, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"{len(outputs)} requests of {os.path.dirname(cli.__file__)} "
          f"written to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
