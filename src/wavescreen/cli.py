"""Command-line entry points: screen, nullsim, power, plot, fisher."""

from __future__ import annotations

import argparse
import os
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from wavescreen import bayes, dataio, nullsim, plotting, screening, simharness

CACHE_ENV = "WAVESCREEN_CACHE_DIR"

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_USAGE = 2


def _cache_dir(default_base: str) -> str:
    return os.environ.get(CACHE_ENV) or os.path.join(default_base, "null-cache")


def _fmt(x: float) -> str:
    return f"{x:.10g}"


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="wavescreen",
        description="Regional genome-association screening with Haar wavelet spectra.",
    )
    sub = p.add_subparsers(dest="subcommand", required=True)

    s = sub.add_parser("screen", help="screen a cohort for associated windows")
    s.add_argument("--genotype-path", required=True,
                   help="TSV: header 'chrom pos id iq s1 ... sn', one SNP per row")
    s.add_argument("--phenotype-path", required=True,
                   help="TSV: one phenotype value per row")
    s.add_argument("--covariate-path", default=None, help="TSV: n rows x c columns")
    s.add_argument("--window-bp", type=int, default=dataio.DEFAULT_WINDOW_BP)
    s.add_argument("--overlap", type=float, default=dataio.DEFAULT_OVERLAP)
    s.add_argument("--max-gap-bp", type=int, default=dataio.DEFAULT_MAX_GAP_BP)
    s.add_argument("--min-snps-per-coeff", type=float,
                   default=dataio.DEFAULT_MIN_SNPS_PER_COEFF)
    s.add_argument("--sigma-b", type=float, default=bayes.DEFAULT_SIGMA_B)
    s.add_argument("--coefficient-kind", choices=["c", "d", "both"], default="both")
    s.add_argument("--depth-cap", type=int, default=None)
    s.add_argument("--m", type=int, default=nullsim.DEFAULT_M,
                   help="null-simulation count")
    s.add_argument("--seed", type=int, required=True)
    s.add_argument("--threads", type=int, default=1)
    s.add_argument("--significance-threshold", type=float, default=0.05 / 6000)
    s.add_argument("--threshold-rule", choices=["quantile-99", "van-kerm"],
                   default=nullsim.DEFAULT_THRESHOLD_RULE)
    s.add_argument("--output-dir", required=True)
    s.add_argument("--emit-details", action="store_true",
                   help="write per-locus BF detail TSVs (scale location bf posterior_gamma)")

    s = sub.add_parser("nullsim", help="simulate the null statistic and fit its tail")
    s.add_argument("--lambda1", type=float, required=True)
    s.add_argument("--depth", type=int, required=True)
    s.add_argument("--m", type=int, default=nullsim.DEFAULT_M)
    s.add_argument("--seed", type=int, required=True)
    s.add_argument("--threshold-rule", choices=["quantile-99", "van-kerm"],
                   default=nullsim.DEFAULT_THRESHOLD_RULE)
    s.add_argument("--output-dir", required=True)

    s = sub.add_parser("power", help="planted-signal power experiment")
    s.add_argument("--config", default=None,
                   help="key = value file overriding the defaults")
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--output-dir", required=True)

    s = sub.add_parser("plot", help="render a pyramid plot from a BF detail TSV")
    s.add_argument("--details", required=True,
                   help="TSV with columns: scale location bf posterior_gamma")
    s.add_argument("--start-bp", type=int, required=True)
    s.add_argument("--end-bp", type=int, required=True)
    s.add_argument("--out", required=True)
    s.add_argument("--title", default="")

    s = sub.add_parser("fisher", help="combine p-values with Fisher's method")
    s.add_argument("p_values", nargs="*", type=float)
    s.add_argument("--file", default=None, help="one p-value per line")
    return p


def _check_inputs(args) -> None:
    for attr in ("genotype_path", "phenotype_path", "covariate_path"):
        path = getattr(args, attr, None)
        if path is not None and not os.path.exists(path):
            raise FileNotFoundError(path)


def cmd_screen(args) -> int:
    _check_inputs(args)
    cohort = dataio.load_cohort(args.genotype_path, args.phenotype_path, args.covariate_path)
    windows = dataio.define_windows(
        cohort,
        window_bp=args.window_bp,
        overlap_fraction=args.overlap,
        max_gap_bp=args.max_gap_bp,
        min_snps_per_coeff=args.min_snps_per_coeff,
        depth_cap=args.depth_cap,
    )
    ctx = bayes.build_design(cohort.phenotype, cohort.covariates, sigma_b=args.sigma_b)
    lam1 = bayes.lambda1(ctx)
    os.makedirs(args.output_dir, exist_ok=True)
    cache = _cache_dir(args.output_dir)

    # one null model per distinct window depth; the design constant is shared
    models = {}
    for depth in sorted({w.depth for w in windows}):
        models[depth] = nullsim.load_or_build_null_model(
            lam1, depth, args.m, args.seed, cache, args.threshold_rule
        )

    kinds = ("c", "d") if args.coefficient_kind == "both" else (args.coefficient_kind,)

    def run(w):
        # one spectra pass serves every kind of the window; an error names the
        # kind being screened, the first one while the spectra are built
        kind = kinds[0]
        try:
            spectra = screening.window_spectra(w, cohort.blocks[w.chromosome], kinds)
            results = []
            for kind in kinds:
                res = screening.screen_spectra(w, *spectra.pop(kind), ctx, kind)
                if not res.degenerate:
                    res.p_value = nullsim.p_value(models[w.depth], res.lambda_hat)
                results.append(res)
        except Exception as exc:
            raise RuntimeError(
                f"window {w.chromosome}:{w.start_bp}-{w.end_bp} ({kind}): {exc}"
            ) from exc
        return results

    if args.threads > 1:
        with ThreadPoolExecutor(max_workers=args.threads) as pool:
            per_window = list(pool.map(run, windows))
    else:
        per_window = [run(w) for w in windows]
    results = [r for rs in per_window for r in rs]
    results.sort(key=lambda r: (r.window.chromosome, r.window.start_bp, r.coefficient_kind))

    max_depth = max((w.depth for w in windows), default=0)
    results_path = os.path.join(args.output_dir, "results.tsv")
    with open(results_path, "w", encoding="utf-8") as fh:
        pi_cols = "\t".join(f"pi_{s}" for s in range(max_depth + 1))
        fh.write(f"chrom\tstart\tend\tkind\tn_snps\tdepth\tlambda_hat\t{pi_cols}\tp_value\n")
        for r in results:
            w = r.window
            pis = [
                _fmt(r.pi_hat[s]) if s <= w.depth else "NA" for s in range(max_depth + 1)
            ]
            pv = _fmt(r.p_value) if r.p_value is not None else "NA"
            fh.write(
                f"{w.chromosome}\t{w.start_bp}\t{w.end_bp}\t{r.coefficient_kind}\t"
                f"{w.n_snps}\t{w.depth}\t{_fmt(r.lambda_hat)}\t" + "\t".join(pis)
                + f"\t{pv}\n"
            )

    if args.emit_details:
        for r in results:
            w = r.window
            name = f"detail_{w.chromosome}_{w.start_bp}_{w.end_bp}_{r.coefficient_kind}.tsv"
            with open(os.path.join(args.output_dir, name), "w", encoding="utf-8") as fh:
                fh.write("scale\tlocation\tbf\tposterior_gamma\n")
                for s, (bfs, locs, gam) in enumerate(
                    zip(r.bf, r.locations, r.posterior_gamma)
                ):
                    for bf, l, g in zip(bfs, locs, gam):
                        fh.write(f"{s}\t{l}\t{_fmt(bf)}\t{_fmt(g)}\n")

    significant = [
        r for r in results if r.p_value is not None
        and r.p_value <= args.significance_threshold
    ]
    summary_path = os.path.join(args.output_dir, "summary.txt")
    with open(summary_path, "w", encoding="utf-8") as fh:
        fh.write(f"windows\t{len(windows)}\n")
        fh.write(f"screens\t{len(results)}\n")
        fh.write(f"lambda1\t{_fmt(lam1)}\n")
        fh.write(f"threshold\t{_fmt(args.significance_threshold)}\n")
        fh.write(f"significant\t{len(significant)}\n")
        for r in significant:
            w = r.window
            fh.write(
                f"hit\t{w.chromosome}:{w.start_bp}-{w.end_bp}\t{r.coefficient_kind}\t"
                f"p={_fmt(r.p_value)}\n"
            )
    print(f"{len(results)} screens written to {results_path}")
    print(f"{len(significant)} pass p <= {args.significance_threshold:g}")
    for r in significant:
        w = r.window
        print(f"  {w.chromosome}:{w.start_bp}-{w.end_bp} {r.coefficient_kind} "
              f"p={_fmt(r.p_value)}")
    return EXIT_OK


def cmd_nullsim(args) -> int:
    os.makedirs(args.output_dir, exist_ok=True)
    cache = _cache_dir(args.output_dir)
    model = nullsim.load_or_build_null_model(
        args.lambda1, args.depth, args.m, args.seed, cache, args.threshold_rule
    )
    if model.has_tail:
        d = model.diagnostics
        print(f"threshold u = {_fmt(model.threshold)} ({d.threshold_rule}, "
              f"{d.n_exceedances} exceedances)")
        print(f"shape xi = {_fmt(model.gpd_shape)} (se {_fmt(d.se_shape)})")
        print(f"scale beta = {_fmt(model.gpd_scale)} (se {_fmt(d.se_scale)})")
    else:
        print("tail fit unavailable; p-values will be empirical only", file=sys.stderr)
    return EXIT_OK


def _load_power_config(path: str | None, seed: int) -> simharness.PowerConfig:
    cfg = simharness.PowerConfig(seed=seed)
    if path is None:
        return cfg
    if not os.path.exists(path):
        raise FileNotFoundError(path)
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            key, _, value = line.partition("=")
            key = key.strip().replace("-", "_")
            value = value.strip()
            if not hasattr(cfg, key):
                raise ValueError(f"unknown power config key {key!r}")
            current = getattr(cfg, key)
            if isinstance(current, int):
                setattr(cfg, key, int(value))
            elif isinstance(current, float):
                setattr(cfg, key, float(value))
            else:
                setattr(cfg, key, value)
    return cfg


def cmd_power(args) -> int:
    cfg = _load_power_config(args.config, args.seed)
    os.makedirs(args.output_dir, exist_ok=True)
    cache = _cache_dir(args.output_dir)
    rows, detail = simharness.power_experiment(cfg, cache_dir=cache)
    table_path = os.path.join(args.output_dir, "power.tsv")
    with open(table_path, "w", encoding="utf-8") as fh:
        fh.write("method\tbin\tdetections\ttrials\tpower\n")
        for row in rows:
            fh.write(f"{row.method}\t{row.bin_label}\t{row.detections}\t"
                     f"{row.trials}\t{row.power:.4f}\n")
    detail_path = os.path.join(args.output_dir, "power_detail.tsv")
    with open(detail_path, "w", encoding="utf-8") as fh:
        fh.write("replicate\tk\tp_ws_c\tp_ws_d\tp_gwas\n")
        for r in detail:
            fh.write(f"{r['replicate']}\t{r['k']}\t{_fmt(r['p_ws_c'])}\t"
                     f"{_fmt(r['p_ws_d'])}\t{_fmt(r['p_gwas'])}\n")
    for row in rows:
        print(f"{row.method:8s} {row.bin_label:8s} "
              f"{row.detections}/{row.trials} = {row.power:.3f}")
    return EXIT_OK


def cmd_plot(args) -> int:
    if not os.path.exists(args.details):
        raise FileNotFoundError(args.details)
    by_scale: dict[int, list[tuple[int, float]]] = {}
    with open(args.details, "r", encoding="utf-8") as fh:
        header = fh.readline()
        if not header.startswith("scale"):
            raise ValueError("detail file must start with a 'scale ...' header")
        for line in fh:
            if not line.strip():
                continue
            s, l, bf = line.split("\t")[:3]
            by_scale.setdefault(int(s), []).append((int(l), float(bf)))
    if not by_scale:
        raise ValueError("detail file holds no coefficients")
    depth = max(by_scale)
    bf_by_scale, loc_by_scale = [], []
    for s in range(depth + 1):
        entries = sorted(by_scale.get(s, []))
        loc_by_scale.append(np.array([e[0] for e in entries], dtype=int))
        bf_by_scale.append(np.array([e[1] for e in entries]))
    svg = plotting.render_pyramid_svg(
        bf_by_scale, loc_by_scale, args.start_bp, args.end_bp, args.title
    )
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(svg)
    print(f"wrote {args.out}")
    return EXIT_OK


def cmd_fisher(args) -> int:
    pvals = list(args.p_values)
    if args.file is not None:
        if not os.path.exists(args.file):
            raise FileNotFoundError(args.file)
        with open(args.file, "r", encoding="utf-8") as fh:
            pvals.extend(float(t) for t in fh.read().split())
    combined = screening.fisher_combine(pvals)
    print(_fmt(combined))
    return EXIT_OK


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "screen": cmd_screen,
        "nullsim": cmd_nullsim,
        "power": cmd_power,
        "plot": cmd_plot,
        "fisher": cmd_fisher,
    }
    try:
        return handlers[args.subcommand](args)
    except FileNotFoundError as exc:
        print(f"error: no such file: {exc.args[0]}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
