"""One benchmark client: a fresh process that imports helmhdg.cli once and
runs passes of a workload through ``helmhdg.cli.main``, one after another.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S \
        --max-passes K --out-root DIR [--trace]

Run from the root of a checkout with ``src`` on PYTHONPATH.  Each pass
writes into a fresh directory under --out-root, is checked, fingerprinted
and deleted.  Passes continue while another one fits into --seconds.  There
are at least MIN_PASSES of them, however long they take, unless --max-passes
is lower.  The last line of stdout is a JSON record of the passes.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import sys
import tempfile
import time
import traceback

import workloads

#: Passes per run at the least: a median of three drops one slow pass, and
#: pass times of one command varied by up to 40 % on a busy host.
MIN_PASSES = 3


def _dir_bytes(path: str) -> int:
    return sum(
        os.path.getsize(os.path.join(dirpath, f))
        for dirpath, _, files in os.walk(path)
        for f in files
    )


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--max-passes", type=int, default=1000)
    parser.add_argument("--out-root", required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    import numpy
    import scipy

    import helmhdg
    import helmhdg.cli

    src = os.path.realpath(os.path.join(os.getcwd(), "src"))
    if not os.path.realpath(helmhdg.__file__).startswith(src + os.sep):
        print(f"perfbench: imported helmhdg from {helmhdg.__file__}, not from {src}", file=sys.stderr)
        return 2

    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer()
        tracer.install()

    passes = []
    peak_rss_mb = None
    start = time.perf_counter()
    while True:
        out_dir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=args.out_root)
        argv = workloads.argv(args.workload, args.seed, out_dir)
        stdout = io.StringIO()
        error = None
        if tracer is not None:
            tracer.run_id = len(passes)
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(stdout):
                rc = helmhdg.cli.main(argv)
        except Exception:  # a crash is a failed pass, reported with its traceback
            rc, error = None, traceback.format_exc()
        wall_s = time.perf_counter() - t0
        if peak_rss_mb is None:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        errors, fingerprint = workloads.check(args.workload, args.seed, rc, stdout.getvalue(), out_dir)
        if error is not None:
            errors.append(error)
        passes.append({
            "wall_s": wall_s,
            "errors": errors,
            "fingerprint": fingerprint,
            "csv_bytes": _dir_bytes(out_dir),
        })
        shutil.rmtree(out_dir)
        elapsed = time.perf_counter() - start
        n = len(passes)
        if n >= args.max_passes:
            break
        if n >= MIN_PASSES and elapsed * (n + 1) / n > args.seconds:
            break

    record = {
        "passes": passes,
        "peak_rss_mb": peak_rss_mb,
        "versions": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "helmhdg": helmhdg.__version__,
        },
    }
    if tracer is not None:
        spans_path = os.path.join(args.out_root, f"spans-{args.workload}-{args.seed}.json")
        tracer.dump(spans_path)
        first = [s for s in tracer.spans if s[4] == 0]
        metrics, absent = spans.layer_metrics(first, tracer.absent, passes[0]["csv_bytes"])
        record.update({
            "layers": metrics,
            "absent": absent,
            "spans_path": spans_path,
            "span_count": len(tracer.spans),
            "energy_residuals": [
                [s[5]["residual_re"], s[5]["residual_im"]]
                for s in first if s[0] == "diagnostics.energy_balance" and s[5]
            ],
        })
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
