"""Within-individual treatment effect estimation for n-of-1 time series."""

from .arco import ArcoParams, PropensityParams, SimConfig, long_run_apte, long_run_mean, simulate_dataset
from .core import FeatureSpec, SeedSpec, TimeSeriesDataset, assemble_features
from .errors import ConfigError, DataError, EstimatorError, Nof1TwinError
from .harness import Method, MethodOptions, StudyConfig, apply_method, default_study_params, replicate
from .models import FittedModel, ForestConfig, fit_forest, fit_glm, glm_from_coefficients
from .motr import ApteEstimate, MotrConfig, run_motr
from .oracle import EnumSpec, enumerate_apte
from .pstn import PstnConfig, PstnResult, run_pstn

__version__ = "0.1.0"

__all__ = [
    "ApteEstimate",
    "ArcoParams",
    "ConfigError",
    "DataError",
    "EnumSpec",
    "EstimatorError",
    "FeatureSpec",
    "FittedModel",
    "ForestConfig",
    "Method",
    "MethodOptions",
    "MotrConfig",
    "Nof1TwinError",
    "PropensityParams",
    "PstnConfig",
    "PstnResult",
    "SeedSpec",
    "SimConfig",
    "StudyConfig",
    "TimeSeriesDataset",
    "apply_method",
    "assemble_features",
    "default_study_params",
    "enumerate_apte",
    "fit_forest",
    "fit_glm",
    "glm_from_coefficients",
    "long_run_apte",
    "long_run_mean",
    "replicate",
    "run_motr",
    "run_pstn",
    "simulate_dataset",
]
