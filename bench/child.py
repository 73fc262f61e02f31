"""One repetition of ``thermovisc run`` in a fresh interpreter.

Usage: python3 child.py CONFIG OUTDIR RESULT [--trace]

Imports the package from ``src/`` of the current directory, then times one
call of ``thermovisc.cli.main(["run", ...])``.  Interpreter and import
start-up are outside the timed region.  Untraced, the only instrumentation
is one timestamp at the entry into the evolution loop (``cli.run``), which
ends the set-up phase.  With ``--trace`` the public pipeline calls record
spans (see ``spans.py``), which are written to RESULT after the run.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, os.path.join(os.getcwd(), "src"))
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))


def _environment():
    import numpy
    import scipy

    def blas(module):
        try:
            return module.__config__.CONFIG["Build Dependencies"]["blas"]["version"]
        except (AttributeError, KeyError, TypeError):
            return "unknown"

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_openblas": blas(numpy),
        "scipy_openblas": blas(scipy),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def _bytes_written(outdir: Path) -> int:
    return sum(p.stat().st_size for p in outdir.rglob("*") if p.is_file())


def main(argv):
    config, outdir, result_path = argv[:3]
    traced = "--trace" in argv[3:]
    import thermovisc.cli as cli

    if traced:
        from spans import Tracer

        tracer = Tracer()
        entry = tracer.install()
    else:
        tracer = None
        entry = cli.main
        run = cli.run
        marks = []

        def timed_run(*args, **kwargs):
            marks.append(time.perf_counter())
            return run(*args, **kwargs)

        cli.run = timed_run

    t0 = time.perf_counter()
    code = entry(["run", "--config", config, "--out", outdir, "--quiet"])
    t1 = time.perf_counter()

    result = {
        "exit_code": code,
        "wall_s": t1 - t0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "bytes_written": _bytes_written(Path(outdir)),
        "env": _environment(),
    }
    if tracer is None:
        result["setup_s"] = marks[0] - t0 if marks else None
    else:
        result["spans"] = tracer.spans
        result["counters"] = tracer.counters
    Path(result_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
