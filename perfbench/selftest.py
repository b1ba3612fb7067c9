"""Self-test of the benchmark runner.

    python3 perfbench/selftest.py

Checks that every metric named in BENCHMARK.json is emitted with its
unit on every workload, traced and untraced; that a deliberately wrong
program result is counted as a failed check and makes the run
incorrect; and that the runner refuses to run without the package
sources.  Takes about two minutes.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import run

SEED = 7


def emitted(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(run.BENCH / "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "0.5", "--trace", str(trace)],
        capture_output=True, text=True, timeout=300, cwd=run.ROOT)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} trace {trace} exited "
                         f"{proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_names():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    want = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    assert want[0] == dict(run.END_TO_END), "end_to_end differs from run.py"
    assert want[1] == dict(run.PER_LAYER), "per_layer differs from run.py"
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    for workload in run.WORKLOADS:
        for trace in (0, 1):
            res = emitted(workload, trace)
            assert set(res) == {"correct", "attempted", "failed", "metrics"}
            assert res["attempted"] >= 1 and res["correct"] is True, res
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            assert got == want[trace], (workload, trace, got)
            for k, v in res["metrics"].items():
                assert isinstance(v["value"], (int, float)), (workload, k)
            print(f"ok  {workload} trace {trace}: {len(got)} metrics, "
                  f"{res['attempted']} checks")


def check_wrong_results_fail():
    """A shifted convolution output and a biased bound must fail gates.

    The runs are long enough to hold several checks, so that failing
    every one of them exceeds the baseline failure shares.
    """
    sys.path.insert(0, str(run.SRC))
    from fgig import convolution, entropy, measures

    real_convolve, real_bound = convolution.free_convolve, entropy.gibbs_bound
    convolution.free_convolve = lambda mu, nu, **kw: measures.shift(
        real_convolve(mu, nu, **kw), 1e-2)
    entropy.gibbs_bound = lambda *a: real_bound(*a) + 1e-3
    try:
        for workload, step, seconds in (("convolve", "kolmogorov", 16),
                                        ("desk", "entropy", 2)):
            lines, res = run.run_workload(workload, SEED, seconds, False)
            assert res["failed"] == res["attempted"] >= 2, (workload, res)
            assert res["correct"] is False, (workload, res)
            assert any(line.startswith(f"failure {workload}/{step}/gate")
                       for line in lines), lines
            print(f"ok  {workload}: wrong result counted, "
                  f"{res['failed']}/{res['attempted']} failed, incorrect")
    finally:
        convolution.free_convolve, entropy.gibbs_bound = real_convolve, real_bound


def check_refuses_bare_directory():
    bare = run.OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    for f in run.BENCH.glob("*.py"):
        shutil.copy(f, bare / "perfbench")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "desk", "--seed",
         "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=180, cwd=bare)
    shutil.rmtree(bare)
    assert proc.returncode != 0 and not proc.stdout.strip(), proc.stdout
    print(f"ok  bare directory: exit {proc.returncode}, no result")


def main():
    run.OUT.mkdir(exist_ok=True)
    check_refuses_bare_directory()
    check_wrong_results_fail()
    check_names()
    print("selftest passed")


if __name__ == "__main__":
    main()
