"""Deterministic benchmark inputs, generated from a workload name and a seed.

Runs in its own process, so neither the generator's time nor its memory is
charged to the measured worker. Usage:

    python3 bench/gen.py --workload scan-warm --seed 1 --out DIR

writes DIR/meta.json plus the workload's input files. The same seed always
gives byte-identical files.
"""

from __future__ import annotations

import argparse
import json
import os

import numpy as np

# scan-warm: one cohort, three chromosomes. Each chromosome spans just over
# the default 1 Mb window, so default tiling keeps exactly one window per
# chromosome. Raw SNP counts are chosen so that, after the 0.7 imputation
# quality cut drops about 10% of rows, the windows reach depths 5, 7 and 9.
SCAN_N = 1500
SCAN_RAW_SNPS = {"1": 560, "2": 1670, "3": 5800}
SCAN_SPAN_BP = (100, 1_000_300)  # first and last SNP position of every chromosome
SCAN_BLOCK_SNPS = 30  # LD block length
SCAN_FLIP_PROB = 0.1
SCAN_LOW_IQ_SHARE = 0.1
# n*h2 = 60, the signal strength of simharness.DEFAULT_H2 (0.02) at n=3000; at
# h2=0.02 and n=1500 the planted window is not reliably the top hit
SCAN_H2 = 0.04
SCAN_CAUSAL = 8  # causal SNPs, all in one LD block
SCAN_M = 4096  # one simulation chunk: a cheap cold set-up, still 41 tail exceedances

# power: the criterion-8 window (n=3000, 896 SNPs, 28 blocks) with fewer
# replicates and a smaller null sample, so one op and one cold set-up fit
# several times into one benchmark run.
POWER_CONFIG = {"n": 3000, "n_snps": 896, "n_blocks": 28, "replicates": 8, "null_m": 8192}

# nullsim-lowlam: the EM solver's slow regime, where every scale >= 1 hits EM_MAX_ITER.
NULLSIM_ARGS = {"lambda1": 0.1, "depth": 6, "m": 20_000}


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=np.array([seed, stream], dtype=np.uint64)))


def _positions(rng: np.random.Generator, k: int) -> np.ndarray:
    """Evenly spaced positions with jitter, pinned to the shared span."""
    first, last = SCAN_SPAN_BP
    spacing = (last - first) / (k - 1)
    pos = first + np.arange(k) * spacing
    pos[1:-1] += rng.uniform(-0.3, 0.3, size=k - 2) * spacing
    return np.rint(pos).astype(np.int64)


def _genotypes(rng: np.random.Generator, k: int, n: int) -> np.ndarray:
    """Hard calls 0/1/2 from an LD-block haplotype model, shape (k, n)."""
    n_blocks = -(-k // SCAN_BLOCK_SNPS)
    block_of_snp = np.arange(k) // SCAN_BLOCK_SNPS
    freqs = rng.uniform(0.05, 0.5, size=n_blocks)
    g = np.zeros((k, n), dtype=np.int8)
    for _hap in range(2):
        latent = rng.random((n_blocks, n)) < freqs[:, None]
        alleles = latent[block_of_snp]
        flips = rng.random((k, n)) < SCAN_FLIP_PROB
        g += alleles ^ flips
    return g


def gen_scan(seed: int, out: str) -> dict:
    rng = _rng(seed, 0)
    table = [f"{c / 100:g}" for c in range(201)]
    chroms = {}
    for chrom, k in SCAN_RAW_SNPS.items():
        pos = _positions(rng, k)
        low = rng.random(k) < SCAN_LOW_IQ_SHARE
        low[[0, -1]] = False  # the end SNPs pass QC, so the span and its one window hold
        iq = np.where(low, rng.uniform(0.3, 0.69, size=k), rng.uniform(0.7, 1.0, size=k)).round(3)
        g = _genotypes(rng, k, SCAN_N)
        # imputed dosage: the hard call blurred by noise that grows as quality drops
        noise = rng.normal(0.0, 1.0, size=g.shape) * (0.5 * (1.0 - iq))[:, None]
        codes = np.rint(np.clip(g + noise, 0.0, 2.0) * 100).astype(np.int64)
        chroms[chrom] = (pos, iq, g, codes)

    # planted signal: SCAN_CAUSAL kept SNPs of one LD block
    names = list(SCAN_RAW_SNPS)
    chrom = names[int(rng.integers(len(names)))]
    pos, iq, g, _ = chroms[chrom]
    block = int(rng.integers(len(pos) // SCAN_BLOCK_SNPS))
    region = block * SCAN_BLOCK_SNPS + np.where(
        iq[block * SCAN_BLOCK_SNPS:(block + 1) * SCAN_BLOCK_SNPS] >= 0.7
    )[0]
    causal = np.sort(rng.choice(region, size=SCAN_CAUSAL, replace=False))
    score = g[causal].sum(axis=0).astype(float)
    noise_sd = np.sqrt(np.var(score) * (1.0 - SCAN_H2) / SCAN_H2)
    y = score + rng.normal(0.0, noise_sd, size=SCAN_N)
    y = (y - y.mean()) / y.std()  # standardized: x'x = n, so lambda1 = 0.04n/(1 + 0.04n)

    with open(os.path.join(out, "geno.tsv"), "w", encoding="utf-8") as fh:
        fh.write("chrom\tpos\tid\tiq\t" + "\t".join(f"i{i}" for i in range(SCAN_N)) + "\n")
        for c, (pos, iq, _, codes) in chroms.items():
            for j in range(len(pos)):
                fh.write(f"{c}\t{pos[j]}\tc{c}_{j}\t{iq[j]:.3f}\t")
                fh.write("\t".join([table[v] for v in codes[j].tolist()]))
                fh.write("\n")
    with open(os.path.join(out, "pheno.tsv"), "w", encoding="utf-8") as fh:
        fh.writelines(f"{v:.17g}\n" for v in y)
    raw = sum(SCAN_RAW_SNPS.values())
    return {
        "n": SCAN_N,
        "raw_snps": raw,
        "kept_snps": {c: int((v[1] >= 0.7).sum()) for c, v in chroms.items()},
        "dosages": raw * SCAN_N,
        "m": SCAN_M,
        "planted": {
            "chrom": chrom,
            "start": int(pos[causal[0]]),
            "end": int(pos[causal[-1]]) + 1,
            "h2": SCAN_H2,
            "causal": len(causal),
        },
    }


def gen_power(seed: int, out: str) -> dict:
    with open(os.path.join(out, "power.cfg"), "w", encoding="utf-8") as fh:
        fh.writelines(f"{k} = {v}\n" for k, v in POWER_CONFIG.items())
    return dict(POWER_CONFIG)


def gen_nullsim(seed: int, out: str) -> dict:
    return dict(NULLSIM_ARGS)


GENERATORS = {"scan-warm": gen_scan, "power": gen_power, "nullsim-lowlam": gen_nullsim}


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=sorted(GENERATORS), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    args = p.parse_args()
    os.makedirs(args.out, exist_ok=True)
    meta = GENERATORS[args.workload](args.seed, args.out)
    meta.update(workload=args.workload, seed=args.seed)
    with open(os.path.join(args.out, "meta.json"), "w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=1, sort_keys=True)


if __name__ == "__main__":
    main()
