"""Regional genome-association screening with Haar wavelet spectra.

Windows of dense SNP dosage data are mapped to Haar wavelet spectra per
individual, association of each coefficient with the phenotype is scored
by a closed-form Bayes factor under reverse regression, evidence is
aggregated into a per-locus likelihood-ratio statistic maximized per scale
by a safeguarded Newton method, and p-values come from a simulated null
with a Generalized Pareto tail.
"""
