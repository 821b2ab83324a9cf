"""Joint longitudinal-survival models with personalized measurement scheduling."""

from .errors import (
    ConfigError,
    DataError,
    DomainError,
    JmschedError,
    NumericError,
    SpecError,
)
from .model import (
    BERNOULLI,
    GAUSSIAN,
    AssociationForm,
    BaselineHazard,
    Dataset,
    ExponentialFamily,
    JointModelSpec,
    LinearTime,
    LongitudinalSpec,
    Parameters,
    PolynomialTime,
    SplineTime,
    Subject,
    SubjectHistory,
    cumulative_hazard,
    default_baseline_basis,
    linear_predictor,
    log_hazard,
    log_posterior_unnormalized,
    long_log_density,
    predictor_integral,
    predictor_slope,
    surv_log_density,
    survival,
)
from .mcmc import (
    McmcConfig,
    PosteriorSamples,
    PriorSet,
    dic,
    fit,
    posterior_mode_re,
    sample_random_effects,
)
from .dynpred import (
    EklResult,
    ModelScore,
    ScheduleConfig,
    SchedulePlan,
    conditional_survival,
    cv_dcl,
    ekl,
    pi_curve,
    schedule_next,
    simulate_event_time,
    simulate_future_measurement,
)
from .simulate import SimulationDesign, generate_dataset, truth_report

__version__ = "0.1.0"
