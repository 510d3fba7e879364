"""Low-rank iterative diffusion purification, at desk scale.

A numpy-only laboratory: truncated higher-order SVD projection, a DDPM-style
forward/reverse toolkit with closed-form Gaussian oracle denoisers and small
trained MLP denoisers, the iterated purification loop built from them, and an
analysis layer that verifies the estimation-theoretic guarantees (MMSE
sandwiches, KL monotonicity, loop-splitting curves) by quadrature and Monte
Carlo.  Small gradient attacks and a toy classifier close the loop with
end-to-end robustness demonstrations.
"""

from .analysis import (
    BoundReport,
    BoundSetup,
    BoundViolation,
    CurvePoint,
    effective_snr,
    kl_gaussian_curve,
    kl_quadrature_forward,
    loop_bound_curve,
    mmse_binary,
    mmse_binary_monte_carlo,
    mmse_gaussian,
    verify_bounds,
)
from .attacks import (
    AttackBudget,
    ClassifierTrainConfig,
    PurifierBundle,
    ToyClassifier,
    classifier_grad_check,
    evaluate,
    pgd,
    train_classifier,
)
from .diffusion import (
    GaussianOracleDenoiser,
    GaussianSource,
    MlpDenoiser,
    MlpTrainConfig,
    Schedule,
    TrainReport,
    default_schedule,
    diffuse,
    make_linear_schedule,
    one_shot_recover,
    reverse_ancestral,
    reverse_skip,
    train_mlp_denoiser,
)
from .io_formats import (
    RunConfig,
    default_config,
    format_config,
    gen_gaussian_dataset,
    gen_striped_images,
    gen_two_gaussian_classes,
    gen_two_point_dataset,
    parse_config,
    read_basis,
    read_classifier,
    read_mlp,
    read_tensor,
    write_basis,
    write_classifier,
    write_csv,
    write_mlp,
    write_tensor,
)
from .purify import (
    LoridConfig,
    PurifyTrace,
    lorid_purify,
    misaligned_noise,
    uniform_sign_noise,
)
from .tensorops import SvdResult, fold, frobenius_norm, mode_product, svd, unfold
from .tucker import (
    TensorizationLayout,
    TuckerBasis,
    detensorize,
    fit_basis,
    tensorize,
    tf_apply,
    truncated_hosvd,
    tucker_error_terms,
)

__version__ = "0.1.0"
