"""One benchmark round in a fresh interpreter.

    python3 bench/worker.py ROOT CONFIG OUT_DIR SPAWN_TIME [--trace] [--setup-only]

Imports rbfadapt from ROOT/src, parses CONFIG with ``cli_io.parse_config``
and, unless --setup-only, runs it with ``cli_io.run_command`` into
OUT_DIR.  SPAWN_TIME is the parent's ``time.perf_counter()`` just before
it started this process; the system-wide monotonic clock makes the two
comparable, so set-up time covers interpreter start and every import.
Prints one JSON object on its last line of standard output.
"""

import json
import os
import platform
import resource
import sys
import time
from contextlib import ExitStack
from pathlib import Path


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(np, scipy, blas) -> dict:
    config = np.show_config(mode="dicts")
    return {
        "cpu": _cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": config["Build Dependencies"]["blas"]["name"],
        "blas_thread_counts": blas.blas_thread_counts(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def main(argv) -> int:
    root, config_path, out_dir, spawned = Path(argv[0]), argv[1], argv[2], float(argv[3])
    traced = "--trace" in argv[4:]
    src = root / "src"
    sys.path.insert(0, str(src))
    import numpy as np
    import scipy

    import rbfadapt
    from rbfadapt import blas, cli_io

    if Path(rbfadapt.__file__).resolve().parent != (src / "rbfadapt").resolve():
        print(f"rbfadapt imported from {rbfadapt.__file__}, not from {src}", file=sys.stderr)
        return 2

    with ExitStack() as stack:
        if traced:
            from spans import Tracer, installed, layer_metrics

            modules = [m for name, m in sys.modules.items() if name.startswith("rbfadapt.")]
            tracer = stack.enter_context(installed(Tracer(), rbfadapt, modules))

        config = cli_io.parse_config(config_path)
        setup_s = time.perf_counter() - spawned
        if "--setup-only" in argv[4:]:
            print(json.dumps({"setup_s": setup_s}))
            return 0

        start = time.perf_counter()
        bundle = cli_io.run_command(config, quiet=True, out_override=out_dir)
        end = time.perf_counter()

    result = {
        "setup_s": setup_s,
        "run_s": end - start,
        "exit_code": bundle.exit_code,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if traced:
        layers = layer_metrics(tracer)
        layers["cli_io.bytes_written"] = (sum(os.path.getsize(p) for p in bundle.files), "bytes")
        # run_command is itself a span, so this is only the gap between the
        # timer and its wrapper; time outside the inner layers is run_command.self_s
        layers["trace.uncovered_s"] = (result["run_s"] - tracer.covered(start, end), "s")
        result["layers"] = layers
    result["provenance"] = provenance(np, scipy, blas)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
