"""Contractual numerical tolerances, collected in one place.

Every cutoff used by the library is defined here so the test suite and the
documentation agree on a single set of numbers.
"""

# representation validation: ||gen**order - I||_F <= REP_VALIDATION * d0
REP_VALIDATION = 1e-10

# a generator g is orthogonal when ||g^T g - I||_F <= ORTHOGONALITY (groups.is_unitary)
ORTHOGONALITY = 1e-10

# singular values <= RANK_CUTOFF_REL * sigma_max * max(rows, cols) are zero
RANK_CUTOFF_REL = 1e-12

# eigenvalues <= PD_EIG_REL * lambda_max fail the positive-definite check
PD_EIG_REL = 1e-12

# symmetry residual, scaled by max(1, ||M||_F)
SYMMETRY = 1e-10

# singular values i, i+1 are tied when sigma_i - sigma_{i+1} <= SPECTRAL_GAP_REL * sigma_max
# (linalg.SvdFactors.tied): a tie at r-1 makes the rank-r truncation non-unique
SPECTRAL_GAP_REL = 1e-8

# invariance residual of closed-form solutions: ||WG||_F < INVARIANCE_REL * ||W||_F * ||G||_F
INVARIANCE_REL = 1e-9

# orbit mean below this magnitude makes the relative invariance error undefined
ORBIT_MEAN_FLOOR = 1e-12

# a basis row's first entry above BASIS_SIGN_FLOOR * max(1, max|row|) is made positive
BASIS_SIGN_FLOOR = 1e-12

# kernel solve: ||(K + jitter I) a - y|| <= KERNEL_RESIDUAL * ||y||, with the
# default jitter KERNEL_JITTER_REL * trace(K) / n
KERNEL_RESIDUAL = 1e-6
KERNEL_JITTER_REL = 1e-10

# ntk-check pass bounds: exact kernel identities within KERNEL_IDENTITY, the
# Monte-Carlo kernel within MONTE_CARLO_SE standard errors of the limit, and the
# augmented interpolant's orbit spread within PREDICTOR_INVARIANCE_REL * max|target|
KERNEL_IDENTITY = 1e-12
MONTE_CARLO_SE = 3.0
PREDICTOR_INVARIANCE_REL = 1e-6

# guard on the number of enumerated index subsets
MAX_SUBSETS = 10**6

# training aborts when the objective exceeds DIVERGENCE_FACTOR * initial value
DIVERGENCE_FACTOR = 1e6
