"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Each round runs the workload's
config in a fresh interpreter (``worker.py``) through ``cli_io.parse_config``
and ``cli_io.run_command``, then checks the files it wrote; rounds repeat
until S seconds have passed.  With ``--trace 0`` the result holds the
end-to-end metrics, medians over the rounds; with ``--trace 1`` the rounds
are traced and the result holds the per-layer metrics; one untraced round
runs first, and tracing overhead is the median traced run_s minus its
run_s.  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
Scratch output goes to ``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from workloads import WORKLOADS, Outputs, config_text

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
SRC = ROOT / "src" / "rbfadapt"

# set-up-only interpreters per untraced run, besides each round's own
SETUP_SAMPLES = 2
# a run must end within 180 s; stop starting rounds that would pass this
DEADLINE_S = 165.0
CSVS = ("loss_history.csv", "kernels.csv", "solution.csv")
UNITS = {"run_s": "s", "solves_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}


class BenchError(Exception):
    pass


def spawn(config: Path, out_dir: Path, deadline: float, *flags: str) -> dict:
    """Run worker.py in a fresh interpreter and return its JSON result."""
    spawned = time.perf_counter()
    cmd = [sys.executable, str(BENCH / "worker.py"), str(ROOT), str(config), str(out_dir), repr(spawned), *flags]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=max(1.0, deadline - spawned))
    except subprocess.TimeoutExpired as err:
        raise BenchError(f"worker {' '.join(flags)} did not finish in time") from err
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def source_hash() -> str:
    """SHA-256 of every rbfadapt source file, names and contents."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def same_bytes(name: str, out_dir: Path, source: str) -> list:
    """Compare the run's CSVs with the first run of this workload and source.

    The seed changes only the config's text, so every run of a workload
    must write the same bytes.  The record is keyed by the source hash, so
    runs of one program are compared with each other and never with the
    output of another version of it.
    """
    digest = hashlib.sha256()
    for csv_name in CSVS:
        digest.update((out_dir / csv_name).read_bytes())
    path = OUT / f"{name}-{source[:16]}.csv-sha256"
    if not path.exists():
        tmp = path.with_suffix(f".{os.getpid()}.tmp")
        tmp.write_text(digest.hexdigest())
        tmp.replace(path)
        return []
    if path.read_text() != digest.hexdigest():
        return [f"CSVs differ from the first {name} run of this source ({path})"]
    return []


def run_round(workload, config: Path, deadline: float, reference, source: str, traced: bool) -> dict:
    out_dir = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=OUT))
    try:
        result = spawn(config, out_dir, deadline, *(["--trace"] if traced else []))
        outputs = Outputs.read(out_dir)
        result["solves"] = workload.solves(outputs)
        result["failed"] = workload.failed(outputs)
        result["problems"] = workload.check(outputs, reference) + same_bytes(workload.name, out_dir, source)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "__init__.py").is_file():
        print(f"no rbfadapt sources under {ROOT / 'src'}; run from a source checkout", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    deadline = time.perf_counter() + DEADLINE_S
    OUT.mkdir(exist_ok=True)
    config = OUT / f"{workload.name}-seed{args.seed}.yaml"
    config.write_text(config_text(workload, args.seed))
    reference = workload.reference()
    source = source_hash()

    try:
        setup, untraced = [], []
        if args.trace:
            untraced = [run_round(workload, config, deadline, reference, source, traced=False)]
        else:
            setup = [spawn(config, OUT, deadline, "--setup-only")["setup_s"] for _ in range(SETUP_SAMPLES)]
        rounds = []
        start = time.perf_counter()
        while True:
            began = time.perf_counter()
            rounds.append(run_round(workload, config, deadline, reference, source, traced=bool(args.trace)))
            now = time.perf_counter()
            if now - start >= args.seconds or now + (now - began) > deadline:
                break
    except BenchError as err:
        print(f"{workload.name}: {err}", file=sys.stderr)
        return 1

    done = untraced + rounds
    problems = [p for r in done for p in r["problems"]]
    for problem in problems:
        print(f"{workload.name}: check failed: {problem}", file=sys.stderr)
    run_s = [r["run_s"] for r in rounds]
    if args.trace:
        metrics = {
            name: {"value": statistics.median(r["layers"][name][0] for r in rounds), "unit": unit}
            for name, (_, unit) in rounds[0]["layers"].items()
        }
        overhead = statistics.median(run_s) - untraced[0]["run_s"]
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    else:
        values = {
            "run_s": run_s,
            "solves_per_s": [r["solves"] / r["run_s"] for r in rounds],
            "setup_s": setup + [r["setup_s"] for r in rounds],
            "peak_rss_mb": [r["peak_rss_mb"] for r in rounds],
        }
        metrics = {name: {"value": statistics.median(v), "unit": UNITS[name]} for name, v in values.items()}

    result = {
        "correct": not problems,
        "attempted": sum(r["solves"] for r in done),
        "failed": sum(r["failed"] for r in done),
        "metrics": metrics,
    }
    record = dict(result, workload=workload.name, seed=args.seed, trace=args.trace,
                  run_s=run_s, untraced_run_s=untraced[0]["run_s"] if untraced else None,
                  setup_samples=setup, source_sha256=source, provenance=rounds[0]["provenance"],
                  problems=problems)
    (OUT / "results").mkdir(exist_ok=True)
    (OUT / "results" / f"{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n"
    )
    print("provenance: " + json.dumps(record["provenance"]))
    for name, m in metrics.items():
        print(f"{workload.name} {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
