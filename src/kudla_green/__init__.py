"""Arithmetic of Kudla Green functions for the orthogonal group SO(3,2).

The package computes, with certified error control, the quantities tied
together by the degree and Green-integral identities on the Siegel modular
threefold: Fourier coefficients of the weight-5/2 Eisenstein series and the
Cohen numbers H(2, N), Heegner-divisor degrees, the special-function
integrals J_plus / J_minus and their orbit-integral reductions, pointwise
values of the majorant-built Green function through lattice enumeration,
and the stabilizer covolumes in the Siegel normalization.
"""

from .arith import (CaseIndex, L_chi_2, L_chi_2_series, bernoulli_L_minus1,
                    is_fundamental_discriminant, kronecker_chi, sigma3,
                    sigma_gamma_m, split_discriminant, xi_twisted)
from .eisenstein import (coefficient_C, coefficient_c0, coefficient_c0_prime,
                         cohen_H)
from .geometry import SiegelPoint, embed_u, majorant_gram
from .integrals import (TheoremReport, corollary_check, frozen_normalization,
                        heegner_degree, heegner_degree_via_cohen,
                        ibk_integral, kudla_integral, theorem2_check)
from .lattice import (EnumerationCapError, GreenEvaluation, SingularPointError,
                      enumerate_bounded, green_function,
                      primitive_decomposition)
from .specfun import (ABS_TOL, EULER_GAMMA, I3_minus, I3_plus, J_minus,
                      J_plus, QuadratureResult, ToleranceError, exp_e1)
from .volumes import B, vol_sie

__version__ = "0.1.0"
