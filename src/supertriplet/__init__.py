"""Exact and numeric laboratory for the N=1 super triplet algebra family:
characters, supercharacters and twisted characters, twisted Zhu polynomial
data, fermionic Fock models, and modular-invariance verification."""

from .arith import QuadRational, Rational, SQRT2, bernoulli_number, binom
from .characters import (
    ModuleLabel,
    central_charge,
    conformal_weight,
    fock_char,
    ramond_irred_char,
    triplet_char_bridge,
    twisted_char,
    untwisted_char,
)
from .qseries import QExpansion, QSeriesError, CutoffUnderflowError, product_expansion
from .specialfn import ThetaIndex, eisenstein, eta, frak_f, frak_f1, frak_f2, g_deriv, g_series, theta, theta_deriv
from .zhu import Fm, binomial_sum_lhs, classify_twisted, fmr_polynomial, hab_polynomial, relation_suite, singlet_eigen

__version__ = "0.1.0"
