"""Benchmark command: one workload per process, result as the last line of stdout.

    python3 bench/run.py --workload smoke-cv --seed 1 --seconds 20 --trace 0

Run from the repository root. The package is imported from ./src only; without
it the command exits 2 and prints no result. Inputs are generated from --seed
under .bench_work/ and removed at the end; a traced run (--trace 1) leaves its
span file there.
"""

import os

# one BLAS/OpenMP thread, fixed before numpy is first imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def _seconds_since_process_start() -> float:
    """Age of this process from /proc (10 ms resolution); 0 where /proc is absent."""
    try:
        fields = Path("/proc/self/stat").read_text().rsplit(")", 1)[1].split()
        started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
        uptime = float(Path("/proc/uptime").read_text().split()[0])
        return max(0.0, uptime - started)
    except (OSError, ValueError, IndexError):
        return 0.0


_AGE_AT_START = _seconds_since_process_start()
_CLOCK_AT_START = time.perf_counter()


def setup_clock() -> float:
    """Seconds from process start until now."""
    return _AGE_AT_START + time.perf_counter() - _CLOCK_AT_START


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=("smoke-cv", "full-scale", "long-clips"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.dont_write_bytecode = True
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import pcq
    except ImportError as exc:
        print(f"bench: cannot import pcq from {src}: {exc}", file=sys.stderr)
        return 2
    if src.resolve() not in Path(pcq.__file__).resolve().parents:
        print(f"bench: pcq was imported from {pcq.__file__}, not from {src}", file=sys.stderr)
        return 2

    import workloads
    details, result = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace),
                                   ROOT / ".bench_work", setup_clock)
    print(json.dumps(details))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
