"""pnet benchmark: one workload per call, end-to-end or traced per-layer metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload ex3_batch --seed 1 --seconds 25 --trace 0

Workloads: ex3_batch, ex2a_incremental, ex3_baseline (see BENCHMARK.json and
perfbench/DESIGN.md).  Every process this starts has BLAS and OpenMP pinned
to one thread.  The workload runs in a fresh process, which also times
set-up in fresh processes of its own between its operations.

The second-to-last line of standard output is a JSON detail record (sample
counts, machine record, determinism digests, failures); the last line is the
result: ``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0``
the metrics are the end-to-end ones, with ``--trace 1`` the per-layer ones.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("ex3_batch", "ex2a_incremental", "ex3_baseline")
PINS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# The whole call has to finish within 180 s.
DEADLINE_S = 170.0


def _env() -> dict:
    env = dict(os.environ)
    env.update({k: "1" for k in PINS})
    return env


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        ap.error("--seed and --seconds must be >= 0")
    if not os.path.isfile(os.path.join(ROOT, "src", "pnet", "__init__.py")):
        print(f"error: no pnet sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2

    cmd = [sys.executable, WORKER, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--spans", os.path.join(HERE, "out", f"spans-{args.workload}-seed{args.seed}.jsonl")]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, cwd=ROOT, env=_env(), text=True, timeout=DEADLINE_S)
    if proc.returncode != 0:
        print(f"error: worker exited with code {proc.returncode}", file=sys.stderr)
        return proc.returncode or 1
    report = json.loads(proc.stdout.strip().splitlines()[-1])

    attempted, failed = report["attempted"], report["failed"]
    probes = report["setup_probes_s"]
    setup = {"value": statistics.median(probes), "unit": "s", "n": len(probes)}
    if args.trace:
        measured = dict(report["layers"])
        split = report["setup_split_ms"]
        for name, key in (("data.gen_ms", "data_ms"), ("network.init_ms", "init_ms"), ("pnet.import_ms", "import_ms")):
            measured[name] = split[key]
        values = {name: {"value": v} for name, v in measured.items()}
    else:
        it, pr = report["iter_ms"], report["predict_ms"]
        # Every figure the run took, by name, with its unit and sample count;
        # the ones BENCHMARK.json declares go on the result line as well.
        values = {
            "setup_s": setup,
            "iter_ms.min": {"value": it["min"], "unit": "ms", "n": it["n"]},
            "iter_ms.p50": {"value": it["p50"], "unit": "ms", "n": it["n"]},
            "iter_ms.p95": {"value": it["p95"], "unit": "ms", "n": it["n"]},
            "samples_per_s": {"value": report["samples_per_s"], "unit": "pairs/s", "n": it["n"]},
            "predict_ms.min": {"value": pr["min"], "unit": "ms", "n": pr["n"]},
            "predict_ms.p50": {"value": pr["p50"], "unit": "ms", "n": pr["n"]},
            "predict_ms.p95": {"value": pr["p95"], "unit": "ms", "n": pr["n"]},
            "peak_rss_mb": {"value": report["peak_rss_mb"], "unit": "MB", "n": 1},
            "pass_ratio": {"value": (attempted - failed) / attempted, "unit": "ratio", "n": attempted},
            "fail_ratio": {"value": failed / attempted, "unit": "ratio", "n": attempted},
        }
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    missing = sorted({m["name"] for m in declared} - set(values))
    if missing:
        print(f"error: BENCHMARK.json declares metrics this run does not measure: {missing}", file=sys.stderr)
        return 3
    metrics = {m["name"]: {"value": values[m["name"]]["value"], "unit": m["unit"]} for m in declared}

    keys = ("workload", "seed", "measured_s", "machine", "digests", "unimproved_seeds", "failures",
            "setup_probes_s", "setup_split_ms")
    detail = {k: report[k] for k in keys}
    if args.trace:
        detail["layer_iterations"] = report["layer_iterations"]
    else:
        detail["metrics"] = values
    print(json.dumps({"detail": detail}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
