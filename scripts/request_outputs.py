#!/usr/bin/env python3
"""Exit code, stdout and stderr of every benchmark request, as one JSON file.

Builds every workload of ``perfbench/gen.py`` at seeds 0 and 1, writes its
model files to a temporary directory, and runs each request in this process
through ``ctrlscore.cli.main`` with ``OPENBLAS_NUM_THREADS=1``.  The output
maps ``workload/seed/request`` to ``[exit, stdout, stderr]``, with the
temporary directory written as ``<dir>``, so two checkouts that behave the
same give byte-identical files.  ``--root`` names the checkout whose
``src`` and ``perfbench/gen.py`` are used (default: the one holding this
script); the generator is only read.

Run, for a change against its parent checked out at ``../parent``:
    python3 scripts/request_outputs.py change.json
    python3 scripts/request_outputs.py --root ../parent parent.json
    cmp parent.json change.json
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.util
import io
import json
import os
import sys
import tempfile

SEEDS = (0, 1)


def _load_gen(root: str):
    """``perfbench/gen.py`` of ``root``, loaded as a module."""
    spec = importlib.util.spec_from_file_location(
        "request_outputs_gen", os.path.join(root, "perfbench", "gen.py"))
    gen = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = gen  # dataclasses look their module up here
    spec.loader.exec_module(gen)
    return gen


def _run(main, argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects a request this way
            code = exc.code if isinstance(exc.code, int) else 1
    return code, out.getvalue(), err.getvalue()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out", help="JSON file to write")
    parser.add_argument("--root", default=os.path.dirname(
        os.path.dirname(os.path.abspath(__file__))),
                        help="checkout to run (default: this script's)")
    args = parser.parse_args(argv)

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
                for request in requests:
                    code, out, err = _run(cli.main, request.argv(directory))
                    outputs[f"{workload}/{seed}/{request.rid}"] = [
                        code, out.replace(directory, "<dir>"),
                        err.replace(directory, "<dir>")]
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(outputs, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"{len(outputs)} requests of {os.path.dirname(cli.__file__)} "
          f"written to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
