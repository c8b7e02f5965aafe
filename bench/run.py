"""wavescreen benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload scan-warm --seed 1 --seconds 10 --trace 0

Run from the repository root. Inputs are generated from the seed by
``bench/gen.py`` in a process of their own and cached under ``.bench_work``;
``bench/worker.py`` then sets up and times the workload in a fresh process
whose BLAS and OpenMP pools are pinned to one thread. With ``--trace 0`` the
last stdout line holds the end-to-end metrics of ``BENCHMARK.json``; with
``--trace 1`` it holds the per-layer metrics, from spans recorded around the
package's public functions. The full record (environment, every op, every
check, spans) goes to ``.bench_work/results``.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "bench")
WORK = os.path.join(ROOT, ".bench_work")
WORKLOADS = ("scan-warm", "power", "nullsim-lowlam")
KEEP_INPUTS = 4  # cached input sets per workload; a scan-warm set is ~50 MB
DEADLINE_S = 175.0
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
# what one lambda-hat is on each workload: a window x kind screen or a null draw
THROUGHPUT_ALIAS = {"scan-warm": "screens_per_s", "power": "screens_per_s",
                    "nullsim-lowlam": "draws_per_s"}


class BenchError(RuntimeError):
    pass


def run_child(argv: list[str], env: dict, timeout: float) -> subprocess.CompletedProcess:
    """Run a child in its own process group; on timeout kill the group and wait."""
    proc = subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True, cwd=ROOT)
    try:
        out, err = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{os.path.basename(argv[1])} did not finish in {timeout:.0f} s")
    return subprocess.CompletedProcess(argv, proc.returncode, out, err)


def ensure_inputs(workload: str, seed: int, env: dict, deadline: float) -> str:
    inputs = os.path.join(WORK, "inputs", f"{workload}-s{seed}")
    if os.path.exists(os.path.join(inputs, "meta.json")):
        os.utime(inputs)
        return inputs
    tmp = f"{inputs}.tmp{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    done = run_child([sys.executable, os.path.join(BENCH, "gen.py"), "--workload", workload,
                      "--seed", str(seed), "--out", tmp], env, deadline - time.monotonic())
    if done.returncode != 0:
        raise BenchError(f"input generation failed:\n{done.stderr[-2000:]}")
    shutil.rmtree(inputs, ignore_errors=True)
    os.replace(tmp, inputs)
    sets = sorted(glob.glob(os.path.join(WORK, "inputs", f"{workload}-s*")), key=os.path.getmtime)
    for old in sets[:-KEEP_INPUTS]:
        if old != inputs:
            shutil.rmtree(old, ignore_errors=True)
    return inputs


def source_record() -> dict:
    """Git sha when available, otherwise only the hash and line count of src/."""
    files = sorted(glob.glob(os.path.join(ROOT, "src", "**", "*.py"), recursive=True))
    h, lines = hashlib.sha256(), 0
    for f in files:
        with open(f, "rb") as fh:
            data = fh.read()
        h.update(os.path.relpath(f, ROOT).encode() + b"\0" + data)
        lines += data.count(b"\n")
    sha = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        git = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        sha = git.stdout.strip() or None
    return {"git_sha": sha, "src_sha256": h.hexdigest()[:16], "src_lines": lines}


def fmt(x) -> str:
    return f"{x:.6g}" if isinstance(x, float) else str(x)


def main() -> int:
    p = argparse.ArgumentParser(description="wavescreen benchmark")
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = p.parse_args()
    deadline = time.monotonic() + DEADLINE_S

    if not os.path.isfile(os.path.join(ROOT, "src", "wavescreen", "cli.py")):
        raise BenchError(f"no wavescreen sources under {ROOT}/src")
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    metric_defs = spec["per_layer" if args.trace else "end_to_end"]

    env = {k: v for k, v in os.environ.items() if k != "WAVESCREEN_CACHE_DIR"}
    env.update(PINNED)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    inputs = ensure_inputs(args.workload, args.seed, env, deadline)

    tag = f"{args.workload}-s{args.seed}-t{args.trace}"
    os.makedirs(os.path.join(WORK, "results"), exist_ok=True)
    result_path = os.path.join(WORK, "results", f"{tag}.json")
    if os.path.exists(result_path):
        os.remove(result_path)
    done = run_child(
        [sys.executable, os.path.join(BENCH, "worker.py"), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
         "--inputs", inputs, "--work", os.path.join(WORK, "run", tag), "--result", result_path],
        env, deadline - time.monotonic(),
    )
    if done.returncode != 0 or not os.path.exists(result_path):
        raise BenchError(f"worker exited {done.returncode}:\n{done.stderr[-2000:]}")
    with open(result_path, encoding="utf-8") as fh:
        res = json.load(fh)

    values = res["per_layer"] if args.trace else res["e2e"]
    missing = [m["name"] for m in metric_defs if m["name"] not in values]
    if missing:
        raise BenchError(f"worker did not report {missing}")
    res["env"].update(nproc=len(os.sched_getaffinity(0)), **source_record())
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(res, fh, indent=1)

    env_line = " ".join(f"{k}={v}" for k, v in res["env"].items() if k != "blas_threads")
    blas = ",".join(f"{k}={v}" for k, v in res["env"]["blas_threads"].items())
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} trace {args.trace}")
    print(f"env {env_line} blas {blas}")
    print(f"inputs {json.dumps(res['inputs'], sort_keys=True)}")
    print(f"ops {res['attempted']} attempted, {res['failed']} failed "
          f"(fail_ratio {res['failed'] / res['attempted']:.6g}); "
          f"{res['units_per_op']} lambda-hats per op; set-ups {len(res['setup_s_each'])}")
    for m in metric_defs:
        note = ""
        if m["name"] == "lambda_hats_per_s":
            note = f"  (= {THROUGHPUT_ALIAS[args.workload]})"
        print(f"  {m['name']:40s} {fmt(values[m['name']]):>14s} {m['unit']}{note}")
    for prob in res["problems"]:
        print(f"  FAILED CHECK: {prob}")
    print(f"record: {os.path.relpath(result_path, ROOT)}")
    print(json.dumps({
        "correct": res["correct"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in metric_defs},
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"bench: error: {exc}", file=sys.stderr)
        sys.exit(2)
