"""Regional genome-association screening with Haar wavelet spectra.

Windows of dense SNP dosage data are mapped to Haar wavelet spectra per
individual, association of each coefficient with the phenotype is scored
by a closed-form Bayes factor under reverse regression, evidence is
aggregated into a per-locus likelihood-ratio statistic maximized per scale
by a safeguarded Newton method, and p-values come from a simulated null
with a Generalized Pareto tail.
"""

from wavescreen.dataio import CohortData, Window, define_windows, load_cohort
from wavescreen.bayes import DesignContext, build_design, lambda1
from wavescreen.screening import (
    LocusResult,
    fisher_combine,
    maximize_lambda,
    screen_spectra,
    window_spectra,
)
from wavescreen.nullsim import (
    NullModel,
    fit_gpd_tail,
    load_or_build_null_model,
    p_value,
    simulate_null,
)

__all__ = [
    "CohortData",
    "Window",
    "define_windows",
    "load_cohort",
    "DesignContext",
    "build_design",
    "lambda1",
    "LocusResult",
    "fisher_combine",
    "maximize_lambda",
    "screen_spectra",
    "window_spectra",
    "NullModel",
    "fit_gpd_tail",
    "load_or_build_null_model",
    "p_value",
    "simulate_null",
]

__version__ = "0.1.0"
