"""Feedforward networks with trainable implicit consensus activations."""

from .activation import (
    ActivationParams,
    dv_da,
    dv_dp,
    eval_p2,
    evaluate,
    fixed_deriv,
    fixed_eval,
    method1_step,
    method2_step,
    residual,
    threshold_input,
)
from .data import Dataset, gen_abs, gen_activity_standin, gen_sign, gen_square, split_train_test
from .network import (
    ForwardTrace,
    PNetwork,
    init_network,
    load_network,
    nguyen_widrow_init,
    predict,
    save_network,
)
from .oracle import BracketingInterval, GradientCheckReport, bisect_activation, check_network_gradients, finite_diff
from .training import TrainConfig, TrainLog, TrainingDivergedError, classification_error, mse, train

__version__ = "0.1.0"
