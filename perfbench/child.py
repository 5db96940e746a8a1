"""Fresh-process entry points of the benchmark.

``run.py`` launches every measured process through this file (or through
plain ``python -m repro`` for the untraced serving processes), so each
repetition pays interpreter start and ``import repro`` like a user's
process does.  Commands::

    child.py probe                      versions, for the run metadata
    child.py ranking --out DIR --seed S [--presets P,...]
                     [--trace-file F --run-id R]
    child.py reference --out DIR --seed S
    child.py serve --out DIR --trace-file F --run-id R
    child.py worker --study DIR [--follow] --trace-file F --run-id R

The last stdout line of ``ranking``, ``reference`` and ``probe`` is one
JSON object.  ``serve`` and ``worker`` are the traced stand-ins for
``repro serve`` / ``repro worker``: they install the span wrappers, then
call the same public functions the CLI calls.
"""

from __future__ import annotations

import argparse
import json
import platform
import time

import tracer as _tracer

#: ``ranking_cold`` / ``ranking_warm``: three paper presets at n=16.
#: ``auto`` routes the ``figure2`` and ``comparison`` groups (4 or more
#: seeds) to the lockstep array-batched engine and the 3-seed
#: ``fault_injection`` groups to the plain array engine (SoA kernel).
RANKING_MATRIX = (
    ("figure2", {"n": "16", "seeds": 4, "max_factor": 2000}),
    ("comparison", {"n": "16", "seeds": 4}),
    ("fault_injection", {"n": "16", "seeds": 3}),
)

#: ``serve_drain``: aggregate-engine Figure 3 cells and group-engine
#: epidemic cells, each a cheap single-cell job, so serving dominates.
SERVE_MATRIX = (
    ("figure3", {"n": "128,256,512,1024", "seeds": 20}),
    ("epidemic", {"n": "8192,100000", "seeds": 20}),
)


def _emit(payload) -> None:
    print(json.dumps(payload), flush=True)


def _specs(preset, overrides, seed):
    from repro.experiments.cli import preset_specs

    return preset_specs(preset, dict(overrides, seed=seed))


def _start_tracer(args):
    if not args.trace_file:
        return None
    tracer = _tracer.Tracer(args.run_id)
    _tracer.install(tracer)
    return tracer


def _finish_tracer(tracer, args) -> None:
    if tracer is not None:
        tracer.dump(args.trace_file, _tracer.process_counters())


def probe(args) -> None:
    import importlib.util

    import numpy

    import repro  # noqa: F401 - proves the package imports

    _emit({
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba": importlib.util.find_spec("numba") is not None,
    })


def ranking(args) -> None:
    """One fresh-process pass over the ranking matrix (or the presets
    named by ``--presets``)."""
    from repro.core.table_store import session_stats
    from repro.experiments import parallel
    from repro.experiments.study import Study

    tracer = _start_tracer(args)
    marks = {}
    run_units = parallel.run_units

    def first_unit(*a, **k):
        # Study.run imports run_units at call time; its first entry is the
        # moment the first planned unit can start.
        marks.setdefault("ready", time.monotonic())
        return run_units(*a, **k)

    parallel.run_units = first_unit
    wanted = args.presets.split(",") if args.presets else None
    studies = []
    for preset, overrides in RANKING_MATRIX:
        if wanted is not None and preset not in wanted:
            continue
        before = session_stats()
        study = Study(
            _specs(preset, overrides, args.seed), name=preset, store=args.out
        )
        study.run()
        after = session_stats()
        studies.append({
            "preset": preset,
            "dir": str(study.store.directory),
            "cells": [[spec.variant, n, seed]
                      for spec, n, seed in study.cells()],
            "pairs_spilled": after["pairs_spilled"] - before["pairs_spilled"],
            "artifacts_discarded": (after["artifacts_discarded"]
                                    - before["artifacts_discarded"]),
        })
    done = time.monotonic()
    _finish_tracer(tracer, args)
    _emit({"ready": marks["ready"], "done": done, "studies": studies})


def reference(args) -> None:
    """The serial in-process rows the served drain must reproduce."""
    from repro.experiments.study import Study

    specs = []
    for preset, overrides in SERVE_MATRIX:
        specs.extend(_specs(preset, overrides, args.seed))
    study = Study(specs, name="serve_drain", store=args.out)
    study.run()
    _emit({
        "specs": [spec.as_dict() for spec in specs],
        "dir": str(study.store.directory),
        "cells": [[spec.variant, n, seed] for spec, n, seed in study.cells()],
    })


def serve(args) -> None:
    from repro.serving.server import serve as serve_forever

    tracer = _start_tracer(args)
    try:
        serve_forever(args.out, host="127.0.0.1", port=0, quiet=True)
    finally:
        _finish_tracer(tracer, args)


def worker(args) -> None:
    from repro.serving import worker as worker_module

    tracer = _start_tracer(args)
    run_worker = worker_module.run_worker
    if tracer is not None:
        run_worker = tracer.wrap("worker.run", run_worker)
    try:
        run_worker(args.study, follow=args.follow,
                   progress=lambda line: print(line, flush=True))
    finally:
        _finish_tracer(tracer, args)


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(prog="child.py")
    parser.add_argument("command", choices=(
        "probe", "ranking", "reference", "serve", "worker"))
    parser.add_argument("--out")
    parser.add_argument("--study")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--presets")
    parser.add_argument("--follow", action="store_true")
    parser.add_argument("--trace-file")
    parser.add_argument("--run-id", default="")
    args = parser.parse_args(argv)
    globals()[args.command](args)


if __name__ == "__main__":
    main()
