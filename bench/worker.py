"""The measured process: set up one workload, time its ops, check every output.

Started by ``bench/run.py`` with the BLAS and OpenMP pools pinned to one
thread and ``src`` on the path; it runs nothing but the workload, so its
peak RSS is the workload's. Each op calls ``wavescreen.cli.main`` in-process.
Writes one JSON result file (and, when traced, the spans) and exits 0 unless
the workload could not be run at all.
"""

from __future__ import annotations

import time

_t_import = time.perf_counter()
import wavescreen.cli as cli  # noqa: E402  (timed: this is the program's import cost)

IMPORT_S = time.perf_counter() - _t_import

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from dataclasses import asdict  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import spans as tr  # noqa: E402

SETUP_REPEATS = 3
# the run stops starting ops once this much of the process's life is used
HARD_LIMIT_S = 150.0
with open(os.path.join(os.path.dirname(__file__), "nullsim_reference.json"), encoding="utf-8") as _fh:
    NULLSIM_REFERENCE = json.load(_fh)

PROBE = "import time; t = time.perf_counter(); import wavescreen.cli; print(time.perf_counter() - t)"


def probe_import() -> float:
    """Import time of wavescreen in a fresh interpreter (same environment)."""
    out = subprocess.run(
        [sys.executable, "-c", PROBE], check=True, capture_output=True, text=True, timeout=60
    )
    return float(out.stdout.strip())


def run_cli(argv: list[str], cache_dir: str | None) -> tuple[int | None, str, float]:
    """One in-process ``wavescreen`` call: (exit code or None if it raised, stdout, wall s)."""
    if cache_dir is None:
        os.environ.pop(cli.CACHE_ENV, None)
    else:
        os.environ[cli.CACHE_ENV] = cache_dir
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    except Exception as exc:  # an op that raises is a failed op, not a crashed run
        rc = None
        err.write(f"raised {exc!r}")
    wall = time.perf_counter() - t0
    return rc, out.getvalue() + err.getvalue(), wall


def read(path: str) -> bytes | None:
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError:
        return None


def in_unit_interval(tokens) -> bool:
    try:
        return all(0.0 < float(t) <= 1.0 for t in tokens)
    except ValueError:  # "NA" and friends
        return False


def exit_problem(rc, log: str) -> list[str]:
    return [] if rc == 0 else [f"exit {rc}: {log.strip()[-300:]}"]


class WarmCache:
    """A command run cold into an empty null cache at set-up, then timed warm.

    Every set-up writes a fresh cache; ops read the last one. Each op's
    output files must be byte-identical to the first cold run's, which
    checks the cache round trip; ``validate`` then checks their content.
    """

    FILES: tuple[str, ...] = ()

    def __init__(self, argv: list[str], work: str):
        self.argv, self.work = argv, work
        self.cache = None
        self.reference = None

    def outputs(self, out: str) -> list[bytes | None]:
        return [read(os.path.join(out, f)) for f in self.FILES]

    def setup(self, r: int) -> tuple[float, list[str]]:
        out = os.path.join(self.work, f"setup{r}")
        self.cache = os.path.join(out, "cache")
        rc, log, wall = run_cli(self.argv + ["--output-dir", out], self.cache)
        problems = exit_problem(rc, log)
        outputs = self.outputs(out)
        if not problems and None in outputs:
            problems = [f"missing one of {', '.join(self.FILES)}"]
        if not problems:
            if self.reference is None:
                self.reference = outputs
            elif outputs != self.reference:
                problems = ["outputs differ from cold run 0"]
        return wall, [f"cold run {r}: {p}" for p in problems]

    def op(self, out: str):
        return run_cli(self.argv + ["--output-dir", out], self.cache)

    def check(self, out: str, rc, log) -> list[str]:
        problems = exit_problem(rc, log)
        if problems:
            return problems
        if self.reference is None or self.outputs(out) != self.reference:
            return [f"{', '.join(self.FILES)} differ from the cold run's"]
        return self.validate([b.decode() for b in self.reference])

    def validate(self, texts: list[str]) -> list[str]:
        raise NotImplementedError


class ScanWarm(WarmCache):
    """``screen --coefficient-kind both --threads 2`` against a warm null cache."""

    FILES = ("results.tsv",)

    def __init__(self, meta, inputs, work, seed):
        super().__init__([
            "screen",
            "--genotype-path", os.path.join(inputs, "geno.tsv"),
            "--phenotype-path", os.path.join(inputs, "pheno.tsv"),
            "--coefficient-kind", "both",
            "--threads", "2",
            "--m", str(meta["m"]),
            "--seed", str(seed),
        ], work)
        self.meta = meta

    @property
    def units(self) -> int | None:
        """Window x kind screens per op: the rows of the cold run's results."""
        return None if self.reference is None else self.reference[0].count(b"\n") - 1

    def validate(self, texts: list[str]) -> list[str]:
        lines = texts[0].splitlines()
        header = lines[0].split("\t")
        i_lam, i_p, i_depth = (header.index(c) for c in ("lambda_hat", "p_value", "depth"))
        rows = [ln.split("\t") for ln in lines[1:]]
        self.meta["depths"] = sorted(int(r[i_depth]) for r in rows)
        problems = []
        lam = [float(r[i_lam]) for r in rows]
        if not all(math.isfinite(x) and x >= 1.0 for x in lam):
            problems.append(f"lambda_hat not finite and >= 1: {lam}")
        if not in_unit_interval(r[i_p] for r in rows):
            problems.append(f"p-value outside (0, 1]: {[r[i_p] for r in rows]}")
            return problems
        best = min(rows, key=lambda r: float(r[i_p]))
        pl = self.meta["planted"]
        if not (best[0] == pl["chrom"] and int(best[1]) < pl["end"] and int(best[2]) > pl["start"]):
            problems.append(f"smallest p-value in {best[0]}:{best[1]}-{best[2]}, "
                            f"planted {pl['chrom']}:{pl['start']}-{pl['end']}")
        return problems


class Power(WarmCache):
    """``power --config`` on one criterion-8 window, warm null cache."""

    FILES = ("power.tsv", "power_detail.tsv")

    def __init__(self, meta, inputs, work, seed):
        super().__init__(
            ["power", "--config", os.path.join(inputs, "power.cfg"), "--seed", str(seed)], work
        )
        self.units = 2 * meta["replicates"]  # a c- and a d-screen per replicate

    def validate(self, texts: list[str]) -> list[str]:
        rows = [ln.split("\t") for ln in texts[1].splitlines()[1:]]
        if not in_unit_interval(t for r in rows for t in r[2:5]):
            return ["p-value outside (0, 1] in power_detail.tsv"]
        return []


class NullsimLowlam:
    """``nullsim --lambda1 0.1 --depth 6`` into a fresh, empty cache per op."""

    def __init__(self, meta, inputs, work, seed):
        self.meta = meta
        self.argv = [
            "nullsim",
            "--lambda1", str(meta["lambda1"]),
            "--depth", str(meta["depth"]),
            "--m", str(meta["m"]),
            "--seed", str(seed),
        ]
        self.units = meta["m"]  # null draws per op

    def setup(self, r: int) -> tuple[float, list[str]]:
        return 0.0, []  # nothing to warm: every op starts from an empty cache

    def op(self, out: str):
        return run_cli(self.argv + ["--output-dir", out], None)

    def check(self, out: str, rc, log) -> list[str]:
        problems = exit_problem(rc, log)
        if problems:
            return problems
        cache = os.path.join(out, "null-cache")
        files = os.listdir(cache) if os.path.isdir(cache) else []
        if len(files) != 1:
            return [f"expected one cache file, found {files}"]
        lines = read(os.path.join(cache, files[0])).decode().splitlines()
        if "lambda_hat" not in lines:
            return ["cache file has no lambda_hat column"]
        try:
            draws = np.array([float(x) for x in lines[lines.index("lambda_hat") + 1:]])
        except ValueError:
            return ["cache file holds a non-numeric draw"]
        problems = []
        if len(draws) != self.meta["m"]:
            problems.append(f"cache holds {len(draws)} draws, expected {self.meta['m']}")
        if not np.all(np.isfinite(draws)) or np.any(np.diff(draws) < 0):
            problems.append("cache draws are not finite and sorted")
        if "shape xi" not in log:
            problems.append("GPD tail was not fitted")
        for q, (lo, hi) in zip(NULLSIM_REFERENCE["q"], NULLSIM_REFERENCE["band"]):
            x = float(np.quantile(draws, q))
            if not lo <= x <= hi:
                problems.append(f"{q:.0%} quantile {x:.6g} outside reference band [{lo}, {hi}]")
        return problems


WORKLOADS = {"scan-warm": ScanWarm, "power": Power, "nullsim-lowlam": NullsimLowlam}


def layer_metrics(summary: dict, meta: dict) -> dict:
    """Per-layer metrics of one traced op, from its span summary."""

    def g(name, key="s"):
        return summary.get(name, {}).get(key, 0)

    m = {}
    for name in (
        "dataio.load_cohort", "dataio.define_windows", "screening.window_spectra",
        "wavelet.quantile_transform", "wavelet.average_ranks", "wavelet.interpolation_matrix",
        "wavelet.haar_pyramid", "wavelet.pyramid_variances", "wavelet.visushrink",
        "bayes.log_bayes_factor", "bayes.build_design", "screening.maximize_lambda",
        "screening.maximize_lambda_batch", "nullsim.simulate_null", "nullsim.save_null_model",
        "nullsim.load_or_build_null_model", "nullsim.fit_gpd_tail", "nullsim.p_value",
        "simharness.gwas_lm_baseline", "simharness.simulate_phenotype", "simharness.plant_signal",
    ):
        m[f"{name}.s"] = g(name)
    for name in ("screening.screen_window", "cli.cmd_screen", "cli.cmd_power", "cli.cmd_nullsim"):
        m[f"{name}.self_s"] = g(name, "self_s")
    for name in ("screening.window_spectra", "wavelet.interpolation_matrix",
                 "wavelet.haar_pyramid", "nullsim.p_value"):
        m[f"{name}.calls"] = g(name, "calls")
    m["wavelet.quantile_transform.coeffs"] = g("wavelet.quantile_transform", "n")
    m["bayes.log_bayes_factor.coeffs"] = g("bayes.log_bayes_factor", "n")
    m["dataio.windows"] = g("dataio.define_windows", "n")
    load_s = g("dataio.load_cohort")
    m["dataio.load_cohort.mvalues_per_s"] = meta.get("dosages", 0) / load_s / 1e6 if load_s else 0.0
    draws, sim_s = g("nullsim.simulate_null", "n"), g("nullsim.simulate_null")
    m["nullsim.draws_per_s"] = draws / sim_s if sim_s else 0.0
    m["nullsim.below_one"] = g("nullsim.simulate_null", "below_one")
    m["nullsim.below_one_ratio"] = m["nullsim.below_one"] / draws if draws else 0.0
    misses = g("nullsim.load_or_build_null_model", "sim_child")
    m["nullsim.cache_misses"] = misses
    m["nullsim.cache_hits"] = g("nullsim.load_or_build_null_model", "calls") - misses
    return m


def root_span_s(spans) -> float:
    roots = [sp for sp in spans if sp.name.startswith("cli.") and sp.parent is None]
    return sum(sp.end - sp.start for sp in roots)


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], required=True)
    p.add_argument("--inputs", required=True)
    p.add_argument("--work", required=True)
    p.add_argument("--result", required=True)
    args = p.parse_args()
    t_start = time.perf_counter()

    with open(os.path.join(args.inputs, "meta.json"), encoding="utf-8") as fh:
        meta = json.load(fh)
    shutil.rmtree(args.work, ignore_errors=True)
    os.makedirs(args.work)
    wl = WORKLOADS[args.workload](meta, args.inputs, args.work, args.seed)

    # set-up: import plus the cold run, several times; the first import is
    # this process's own, the others run in fresh interpreters
    problems: list[str] = []
    setups = []
    for r in range(SETUP_REPEATS):
        imp = IMPORT_S if r == 0 else probe_import()
        cold, errs = wl.setup(r)
        problems += errs
        setups.append(imp + cold)

    tracer = tr.Tracer() if args.trace else None
    walls, traced_walls, layers, failed = [], [], [], 0
    min_ops = 2 if args.trace else 1
    t0 = time.perf_counter()
    i = 0
    while True:
        out = os.path.join(args.work, f"op{i}")
        traced = tracer is not None and i % 2 == 1
        if traced:
            tracer.install(i)
        try:
            rc, log, wall = wl.op(out)
        finally:
            if traced:
                tracer.uninstall()
        errs = wl.check(out, rc, log)
        if traced:
            op_spans = [sp for sp in tracer.spans if sp.op == i]
            lm = layer_metrics(tr.op_summary(op_spans), meta)
            root = root_span_s(op_spans)
            if not 0.95 * wall <= root <= wall:
                errs.append(f"root cli span {root:.4f} s does not match op wall {wall:.4f} s")
            if args.workload != "nullsim-lowlam" and lm["nullsim.cache_misses"]:
                errs.append(f"{lm['nullsim.cache_misses']} null-cache misses on a warm op")
            layers.append(lm)
            traced_walls.append(wall)
        else:
            walls.append(wall)
        if errs:
            failed += 1
            problems += [f"op {i}: {e}" for e in errs]
        shutil.rmtree(out, ignore_errors=True)
        i += 1
        elapsed = time.perf_counter() - t0
        mean_op = elapsed / i
        if i >= min_ops and (
            elapsed + mean_op / 2 >= args.seconds
            or time.perf_counter() - t_start + mean_op > HARD_LIMIT_S
        ):
            break

    attempted = i
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "attempted": attempted,
        "failed": failed,
        "correct": failed == 0 and not problems,
        "problems": problems,
        "setup_s_each": setups,
        "op_wall_s": walls,
        "units_per_op": wl.units,
        "inputs": meta,
        "env": {
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "blas_threads": {k: os.environ.get(k) for k in
                             ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        },
    }
    if args.trace:
        per_layer = {k: statistics.median(lm[k] for lm in layers) for k in layers[0]}
        per_layer["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(walls)
        result["per_layer"] = per_layer
        result["traced_wall_s"] = traced_walls
        result["spans"] = [asdict(sp) for sp in tracer.spans]
    else:
        result["e2e"] = {
            "wall_s": statistics.median(walls),
            "lambda_hats_per_s": wl.units / statistics.median(walls) if wl.units else 0.0,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ok_ratio": 1.0 - failed / attempted,
        }
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    shutil.rmtree(args.work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
