"""Why the perturbation and the nonzero input matter: three observability views.

1. The certificate matrix of the finite strategy is singular exactly when the
   feedback perturbation is switched off, and its determinant obeys a closed
   form (checked against LU on random draws).
2. Observability Gramians of the truncated spectral system: the zero input
   decouples the measured mode (a structural zero eigenvalue); small nonzero
   inputs are observable, but the smallest eigenvalue collapses like
   2 pi J_N(mu u)^2 with the truncation order, i.e. far below float64 long
   before numerically interesting N.
3. The control-magnitude bound and the radius/perturbation/sample-period
   budget produced by the parameter search.
"""

import math

import numpy as np

from unobs_stab.bessel import bessel_j
from unobs_stab.finite import observability_certificate
from unobs_stab.observability import (
    check_bound_inequalities,
    choose_radii,
    determinant_identity_check,
    max_control_bound,
    observability_gramian,
)
from unobs_stab.spectral import default_j, embedded_target

print("== certificate determinant ==")
rep = determinant_identity_check(100, rng_seed=1)
print(f"100 random draws (n in {{2,4}}): max relative error {rep.max_rel_err:.2e}; "
      f"always singular at delta=0: {rep.singular_when_unperturbed}")
q0 = observability_certificate(np.array([1.0, -3.0]),
                               np.array([[0.0, -1.0], [1.0, 0.0]]), 0.0, 2.0)
print(f"rank at delta=0: {np.linalg.matrix_rank(q0, tol=1e-10)} of {q0.shape[0]}")

print("\n== gramian sweep (zeta = constant mode, mu = 1, T = 2 pi) ==")
for n in (2, 4, 6):
    line = f"N={n}: "
    for u in (0.0, 0.1, 0.3):
        g = observability_gramian(u, 2.0 * math.pi, embedded_target(n), 1.0)
        line += f"lambda_min(u={u})={g.lambda_min:.2e}  "
    print(line)
print("analytic smallest eigenvalue ~ 2 pi J_N(mu u)^2:",
      ", ".join(f"N={n}: {2*math.pi*bessel_j(n, 0.3)**2:.2e}" for n in (2, 4, 6, 12)))

print("\n== control bound and parameter budget ==")
j = default_j()
umax, ok = max_control_bound(kappa=0.2, j=j, mu=0.1, delta=0.003)
print(f"u_max = {umax:.4f}, mu*u_max < j0: {ok}")
bounds = choose_radii(1.0, mu=0.1)
res1, res2 = check_bound_inequalities(bounds)
print(f"radii (R0, R1, R2) = ({bounds.R0}, {bounds.R1}, {bounds.R2:.4f}); "
      f"found delta={bounds.delta:.4g}, Delta={bounds.Delta:.4g}; "
      f"residuals ({res1:.3f}, {res2:.3f}) both negative")
