"""Smoke test of the benchmark itself.

Run from the root of a checkout::

    python3 perfbench/selftest.py

It checks that the traced-run wrappers record spans and always restore the
pnet module attributes, that a tiny run (one network, ``--seconds 0``) of
every workload emits every metric declared in BENCHMARK.json with its unit,
in both modes, plus every figure of the untraced detail record with its unit
and sample count, and that the benchmark refuses to run in a directory that
holds only BENCHMARK.json and the benchmark's own files.  Exits 0 when all
of that holds.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def check_wrappers() -> None:
    for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[key] = "1"
    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
    import numpy as np

    import pnet.baseline
    import pnet.network
    import pnet.training
    import tracing
    from pnet import TrainConfig, init_network, train
    from pnet.data import Dataset

    targets = [(m, a) for m, a in tracing.CLOCK_TARGETS] + [(m, a) for m, a, _, _ in tracing.LAYER_TARGETS]
    originals = [getattr(m, a) for m, a in targets]
    rng = np.random.default_rng(0)
    data = Dataset(rng.standard_normal((6, 2)), rng.standard_normal((6, 2)), "regression")
    net = init_network([2, 3, 2], "regression", 1.0, 3.0, seed=0)

    rec = tracing.Recorder(traced=True)
    for run_id, update in enumerate(("batch", "incremental")):
        cfg = TrainConfig(alpha_w=0.01, alpha_p=0.01, max_iters=3, max_error=1e-300, inner_iters=10, update=update)
        with rec.installed(), rec.run(run_id):
            assert pnet.network.evaluate_many is not originals[targets.index((pnet.network, "evaluate_many"))]
            train(net, data, cfg)
        assert len(rec.iterations(run_id)) == 3, rec.iterations(run_id)
    names = {s["name"] for s in rec.spans}
    assert {"iteration", "network.forward", "activation.solve", "training.backprop",
            "activation.slope", "activation.psens"} <= names, names
    by_id = {s["id"]: s for s in rec.spans}
    for s in rec.spans:
        if s["name"] == "activation.solve":
            assert by_id[s["parent"]]["name"] == "network.forward"
    split = tracing.layer_split(rec.spans, pairs_per_iteration=data.n)
    assert split["network.forward_ms"] >= split["activation.solve_ms"] > 0.0, split

    try:
        with rec.installed():
            raise KeyError("raised inside the wrappers")
    except KeyError:
        pass
    assert [getattr(m, a) for m, a in targets] == originals, "a wrapper was left installed"
    assert tracing.originals_restored()


def _result(cmd: list[str], cwd: str) -> tuple[int, dict | None, dict | None]:
    """Exit code, result line and detail record of one benchmark call."""
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
        detail = json.loads(lines[-2])["detail"] if len(lines) > 1 else None
    except (json.JSONDecodeError, KeyError, TypeError):
        return proc.returncode, None, None
    return proc.returncode, result, detail


# Figures every untraced run reports in its detail record, gated or not.
DETAIL_UNITS = {
    "setup_s": "s", "iter_ms.min": "ms", "iter_ms.p50": "ms", "iter_ms.p95": "ms",
    "samples_per_s": "pairs/s", "predict_ms.min": "ms", "predict_ms.p50": "ms", "predict_ms.p95": "ms",
    "peak_rss_mb": "MB", "pass_ratio": "ratio", "fail_ratio": "ratio",
}


def check_tiny_runs() -> None:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    for wl in spec["workloads"]:
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            cmd = [sys.executable, "perfbench/run.py", "--workload", wl["name"], "--seed", "1",
                   "--seconds", "0", "--trace", str(trace)]
            code, res, detail = _result(cmd, ROOT)
            where = f"{wl['name']} --trace {trace}"
            assert code == 0 and res is not None, f"{where}: exit code {code}"
            assert set(res) == {"correct", "attempted", "failed", "metrics"}, f"{where}: keys {sorted(res)}"
            assert res["correct"] is True and res["failed"] == 0 and res["attempted"] >= 1, f"{where}: {res}"
            want = {m["name"]: m["unit"] for m in spec[group]}
            got = {name: m["unit"] for name, m in res["metrics"].items()}
            assert got == want, f"{where}: metrics {got} differ from {want}"
            for name, m in res["metrics"].items():
                v = m["value"]
                assert isinstance(v, (int, float)) and math.isfinite(v), f"{where}: {name} = {v!r}"
            if trace == 0:
                units = {name: m["unit"] for name, m in detail["metrics"].items()}
                assert units == DETAIL_UNITS, f"{where}: detail metrics {units}"
                assert all(m["n"] >= 1 for m in detail["metrics"].values()), f"{where}: {detail['metrics']}"
            print(f"ok  {where}: {len(got)} metrics, {res['attempted']} networks")


def check_refuses_bare_directory() -> None:
    bare = os.path.join(HERE, "out", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(os.path.join(bare, "perfbench"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    for name in os.listdir(HERE):
        if os.path.isfile(os.path.join(HERE, name)):
            shutil.copy(os.path.join(HERE, name), os.path.join(bare, "perfbench"))
    try:
        cmd = [sys.executable, "perfbench/run.py", "--workload", "ex3_batch", "--seed", "1",
               "--seconds", "1", "--trace", "0"]
        code, res, _ = _result(cmd, bare)
        assert code != 0 and res is None, f"bare directory: exit code {code}, result {res}"
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("ok  refuses a directory without the pnet sources")


def main() -> int:
    check_wrappers()
    print("ok  wrappers record spans and restore pnet attributes")
    check_refuses_bare_directory()
    check_tiny_runs()
    return 0


if __name__ == "__main__":
    sys.exit(main())
