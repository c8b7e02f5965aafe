"""Command-line entry points: screen, nullsim, power, plot, fisher."""

from __future__ import annotations

import argparse
import errno
import functools
import math
import os
import sys

import numpy as np

from wavescreen import bayes, dataio, nullsim, plotting, screening, simharness

CACHE_ENV = "WAVESCREEN_CACHE_DIR"

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_USAGE = 2


def _cache_dir(output_dir: str) -> str | None:
    """Make ``output_dir`` and the cache (``WAVESCREEN_CACHE_DIR``, or ``null-cache``
    in it); one that cannot be made costs one warning and gives None: no cache."""
    os.makedirs(output_dir, exist_ok=True)
    path = os.environ.get(CACHE_ENV) or os.path.join(output_dir, "null-cache")
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        reason = "not a directory" if isinstance(exc, FileExistsError) else exc.strerror.lower()
        print(f"warning: cache {path} not used: {reason}", file=sys.stderr)
        return None
    return path


def _fmt(x: float) -> str:
    return f"{x:.10g}"


def _checked(kind, ok, must: str):
    """An argparse type: parse with ``kind`` ("invalid int value: 'x'"), then
    require ``ok(value)`` ("must {must}, got x"). ``kind`` may be another
    checked parser, whose own check then comes first."""
    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid {kind.__name__} value: {text!r}") from None
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must {must}, got {text}")
        return value
    return parse


_positive_int = _checked(int, lambda v: v >= 1, "be at least 1")
_nonnegative_int = _checked(int, lambda v: v >= 0, "be at least 0")
_positive_float = _checked(float, lambda v: 0.0 < v < math.inf, "be positive and finite")
# a seed keys a 64-bit counter-based generator
_seed = _checked(int, lambda v: 0 <= v < 2**64, "lie in [0, 2^64)")


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
    # numeric options are checked here, so a bad value is a usage error
    # before the genotype file, the slow input, is read
    s.add_argument("--window-bp", type=_positive_int, default=dataio.DEFAULT_WINDOW_BP)
    s.add_argument("--overlap", type=_checked(float, lambda v: 0.0 <= v < 1.0, "lie in [0, 1)"),
                   default=dataio.DEFAULT_OVERLAP)
    s.add_argument("--max-gap-bp", type=_positive_int, default=dataio.DEFAULT_MAX_GAP_BP)
    s.add_argument("--min-snps-per-coeff", type=_positive_float,
                   default=dataio.DEFAULT_MIN_SNPS_PER_COEFF)
    s.add_argument("--sigma-b", default=bayes.DEFAULT_SIGMA_B, type=_checked(
        _positive_float, bayes.valid_sigma_b, "have a finite, nonzero square and inverse square"),
        help="prior SD of the phenotype effect, in SDs of its residual on the covariates")
    s.add_argument("--coefficient-kind", choices=["c", "d", "both"], default="both")
    s.add_argument("--depth-cap", type=_nonnegative_int)
    s.add_argument("--m", type=_positive_int, default=nullsim.DEFAULT_M,
                   help="null-simulation count")
    s.add_argument("--seed", type=_seed, required=True)
    s.add_argument("--threads", type=_positive_int, default=1,
                   help="screen windows, and share the rank transforms and Bayes "
                        "factors of each window's scales, on this many threads, "
                        "simulate the null samples missing from the cache on this "
                        "many threads, parse the genotype dosages in this many "
                        "processes and, with a parsed-dosage cache, hash the "
                        "genotype file on this many threads (at most one per "
                        "usable CPU)")
    s.add_argument("--significance-threshold", default=0.05 / 6000,
                   type=_checked(float, lambda v: 0.0 < v <= 1.0, "lie in (0, 1]"))
    s.add_argument("--output-dir", required=True)
    s.add_argument("--emit-details", action="store_true",
                   help="write per-locus BF detail TSVs (scale location bf posterior_gamma)")

    s = sub.add_parser("nullsim", help="simulate the null statistic and fit its tail")
    s.add_argument("--lambda1", type=_checked(float, lambda v: 0.0 < v < 1.0, "lie in (0, 1)"),
                   required=True)
    s.add_argument("--depth", type=_nonnegative_int, required=True)
    s.add_argument("--m", type=_positive_int, default=nullsim.DEFAULT_M)
    s.add_argument("--seed", type=_seed, required=True)
    s.add_argument("--output-dir", required=True)

    s = sub.add_parser("power", help="planted-signal power experiment")
    s.add_argument("--config", default=None,
                   help="key = value file overriding the defaults")
    s.add_argument("--seed", type=_seed, default=0)
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


# one parser per process: a parser is a cycle of objects, so one per call is
# garbage that only a collection frees, and a full one (tens of ms with numpy
# and scipy loaded) then runs in the next call's build, outside its command
_parser = functools.cache(build_parser)


def _check_inputs(args) -> None:
    """Report a missing input before the genotype file, the slow one, is parsed."""
    for attr in ("genotype_path", "phenotype_path", "covariate_path"):
        path = getattr(args, attr, None)
        if path is not None and not os.path.exists(path):
            raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), path)


def cmd_screen(args) -> int:
    _check_inputs(args)
    cache = _cache_dir(args.output_dir)  # fails fast, before the slow load
    # parsed dosages are cached only in a shared cache, where a later screen
    # of the file can find them, not copied into every output directory
    cohort = dataio.load_cohort(args.genotype_path, args.phenotype_path, args.covariate_path,
                                workers=args.threads,
                                cache_dir=cache if os.environ.get(CACHE_ENV) else None)
    windows = dataio.define_windows(
        cohort,
        window_bp=args.window_bp,
        overlap_fraction=args.overlap,
        max_gap_bp=args.max_gap_bp,
        min_snps_per_coeff=args.min_snps_per_coeff,
        depth_cap=args.depth_cap,
    )
    last = {w.chromosome: w for w in windows}  # windows come in position order
    for chrom, block in cohort.blocks.items():
        if chrom not in last:
            print(f"warning: chromosome {chrom} has no window: none of its "
                  f"{block.n_snps} kept SNPs is screened", file=sys.stderr)
        elif block.n_snps > last[chrom].snp_end:
            print(f"warning: chromosome {chrom}: SNPs past its last window end "
                  f"{last[chrom].end_bp} are not screened: "
                  f"{block.n_snps - last[chrom].snp_end} of {block.n_snps} kept",
                  file=sys.stderr)
    ctx = bayes.build_design(cohort.phenotype, cohort.covariates, sigma_b=args.sigma_b)
    kinds = ("c", "d") if args.coefficient_kind == "both" else (args.coefficient_kind,)
    results = nullsim.screen_windows(windows, cohort.blocks, ctx, kinds, args.m, args.seed,
                                     cache, args.significance_threshold, args.threads)

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
                for s, (log_bfs, locs) in enumerate(zip(r.log_bf, r.locations)):
                    bfs = np.exp(log_bfs)
                    gam = screening.posterior_gamma(bfs, r.pi_hat[s])
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
        fh.write(f"lambda1\t{_fmt(bayes.lambda1(ctx))}\n")
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
    cache = _cache_dir(args.output_dir)
    tail = nullsim.load_or_build_null_model(args.lambda1, args.depth, args.m, args.seed,
                                            cache, threads=dataio._usable_cpus()).tail
    if tail is not None:  # a failed fit has been reported
        print(f"threshold u = {_fmt(tail.threshold)} (99% quantile, "
              f"{tail.n_exceedances} exceedances)")
        print(f"shape xi = {_fmt(tail.shape)} (se {_fmt(tail.se_shape)})")
        print(f"scale beta = {_fmt(tail.scale)} (se {_fmt(tail.se_scale)})")
    return EXIT_OK


def _load_power_config(path: str | None, seed: int) -> simharness.PowerConfig:
    cfg = simharness.PowerConfig(seed=seed)
    if path is None:
        return cfg
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            key, eq, value = line.partition("=")
            key = key.strip().replace("-", "_")
            value = value.strip()
            if not eq:
                raise ValueError(f"line {line_no}: expected 'key = value', got {line!r}")
            if key not in vars(cfg):
                raise ValueError(f"line {line_no}: unknown power config key {key!r}")
            field_type = type(getattr(cfg, key))
            try:
                setattr(cfg, key, field_type(value))
            except ValueError:
                raise ValueError(
                    f"line {line_no}: {key} = {value!r} is not a valid {field_type.__name__}"
                ) from None
    return cfg


def cmd_power(args) -> int:
    cfg = _load_power_config(args.config, args.seed)
    simharness._check_config(cfg)  # a bad value exits before any directory is made
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
    by_scale: dict[int, list[tuple[int, float]]] = {}
    with open(args.details, "r", encoding="utf-8") as fh:
        header = fh.readline()
        if not header.startswith("scale"):
            raise ValueError("detail file must start with a 'scale ...' header")
        for line_no, line in enumerate(fh, 2):
            if not line.strip():
                continue
            try:
                s, l, bf = line.split("\t")[:3]
                s, l, bf = int(s), int(l), float(bf)
                drawable = s >= 0 and 0 <= l < 1 << s and 0.0 < bf < np.inf
            except ValueError:
                drawable = False
            if not drawable:
                raise ValueError(
                    f"line {line_no}: cannot draw {line.strip()!r}: need scale >= 0, "
                    "0 <= location < 2^scale and a finite bf > 0"
                )
            by_scale.setdefault(s, []).append((l, bf))
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
        # the one numeric reader, so a bad value names its line
        pvals.extend(dataio._read_matrix(args.file, "p-value", header=False).ravel())
    combined = screening.fisher_combine(pvals)
    print(_fmt(combined))
    return EXIT_OK


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    handlers = {
        "screen": cmd_screen,
        "nullsim": cmd_nullsim,
        "power": cmd_power,
        "plot": cmd_plot,
        "fisher": cmd_fisher,
    }
    try:
        return handlers[args.subcommand](args)
    except OSError as exc:
        print(f"error: {exc.strerror.lower()}: {exc.filename}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
