"""Conditional-distribution learning for tabular data with one decision tree
per diffusion timestep, trained sequentially, plus an independently-trained
per-timestep baseline and the full evaluation protocol."""

from .boosting import MeanEstimator, MeanEstimatorConfig, fit_mean_estimator, predict_mean
from .data import (
    Column,
    DataError,
    Dataset,
    SplitSpec,
    clf_toy_generate,
    load_csv,
    make_split,
    mcar_mask,
    save_csv,
    toy_generate,
)
from .dbt import (
    BINARY,
    DbtConfig,
    DbtModel,
    REGRESSION,
    classify,
    encode_prototypes,
    sample,
    sample_card_t,
    sample_dbt,
    train_card_t,
    train_dbt,
)
from . import card_t  # noqa: F401  (keeps diffboost.card_t an attribute of the package)
from .metrics import (
    DeferralReport,
    TTestResult,
    deferral_report,
    format_mean_std,
    nll,
    paired_t_test,
    piw,
    qice,
    rmse,
)
from .model_io import ModelFormatError, load_model, save_model
from .schedule import (
    NoiseSchedule,
    build_linear_schedule,
    coefficient_table,
    forward_sample,
    noise_to_score,
    posterior_mean,
    posterior_sample,
    y0_from_noise,
)
from .tree import (
    CATEGORICAL,
    NUMERIC,
    DecisionTree,
    TreeParams,
    apply_tree,
    fit_tree,
    gain_importance,
    predict_tree,
)

__version__ = "0.1.0"
