"""One traced operation in a fresh process.

``python perfbench/traced.py SPEC.json SPANS.json`` with ``src`` on
``PYTHONPATH``.  SPEC names the workload kind and its inputs.  The
layer functions are replaced, in the namespace of the module that calls
them (``qrtw.cli`` or the sweep runner), by wrappers that record a span
per call: name, start, end, parent span and a few exact counts.  Spans
stay in memory and are written to SPANS.json when the operation ends.
Nothing inside ``src`` is modified.
"""

from __future__ import annotations

import importlib
import json
import sys
import time


def _points(args, kwargs, result):
    return {"points": args[5]}


def _rows(args, kwargs, result):
    profile = args[0]
    return {"rows": profile.x_max - profile.x_min + 1}


def _sites(args, kwargs, result):
    return {"sites": result.x_max - result.x_min + 1}


def _steps(args, kwargs, result):
    return {"steps": result[1].steps}


def _hull(args, kwargs, result):
    coins = args[0]
    return {"hull": max(coins) - min(coins) + 1, "defects": len(coins)}


# Name bound in the calling module -> (span name, counts taken from the call).
# The span name's first component is the layer (the qrtw module).
LAYER_FUNCTIONS = {
    "parse_config": ("cli.parse_config", None),
    "_write_atomic": ("cli.write_atomic", None),
    "spectrum_scan": ("qgraph.spectrum_scan", _points),
    "spectrum_to_csv": ("qgraph.spectrum_to_csv", None),
    "init_lattice": ("evolution.init_lattice", _sites),
    "run_to_convergence": ("evolution.run_to_convergence", _steps),
    "profile_to_csv": ("scattering.profile_to_csv", _rows),
    "solve_general": ("scattering.solve_general", _hull),
    "solve_closed_form": ("scattering.solve_closed_form", None),
    "build_profile": ("scattering.build_profile", None),
    "t_series_limit": ("series.t_series_limit", None),
}


class Tracer:
    """Spans as ``[name, start_ns, end_ns, parent_index, counts]``."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._open: list[int] = []

    def call(self, name, fn, counts, *args, **kwargs):
        parent = self._open[-1] if self._open else None
        span = [name, 0, 0, parent, {}]
        self._open.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            span[4]["error"] = type(exc).__name__
            raise
        finally:
            span[2] = time.perf_counter_ns()
            self._open.pop()
        if counts is not None:
            span[4].update(counts(args, kwargs, result))
        return result

    def wrap(self, name, fn, counts=None):
        def traced(*args, **kwargs):
            return self.call(name, fn, counts, *args, **kwargs)

        return traced

    def patch(self, module) -> None:
        for attr, (name, counts) in LAYER_FUNCTIONS.items():
            if hasattr(module, attr):
                setattr(module, attr, self.wrap(name, getattr(module, attr), counts))


def main(argv: list[str]) -> int:
    with open(argv[0], encoding="utf-8") as fh:
        spec = json.load(fh)
    tracer = Tracer()
    if spec["kind"] == "cli":
        cli = tracer.call("cli.import", importlib.import_module, None, "qrtw.cli")
        tracer.patch(cli)
        code = tracer.call("cli.main", cli.main, None, spec["argv"])
        probe = spec.get("threads2")
        if probe is not None:
            # Same grid on two threads: evidence for or against the pool.
            qgraph = importlib.import_module("qrtw.qgraph")
            tracer.call(
                "qgraph.spectrum_scan.threads2", qgraph.spectrum_scan, None,
                probe["alpha"], probe["s"], probe["m"],
                probe["k_min"], probe["k_max"], probe["n"], threads=2,
            )
    else:
        # The library runner's set-up is `import qrtw`; it is reported
        # under the same name as the CLI's import.
        tracer.call("cli.import", importlib.import_module, None, "qrtw")
        sweep = importlib.import_module("sweep")
        tracer.patch(sweep)
        code = sweep.main([spec["cases"]])
    with open(argv[1], "w", encoding="utf-8") as fh:
        json.dump(tracer.spans, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
