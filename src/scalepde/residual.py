"""Residual transport: exact residuals, defect measurement and closure.

Along a filtered family the exact residual r = F(u, u_t) satisfies the
transport equation d(r)/d(eta) = laplacian(r) + s with s the derived
filter source.  The defect e measures how far a sampled stack is from
that identity; the Frechet contraction predicts e from the filter
defect psi of the underlying family.  The closure replaces the
transport equation by the screened Poisson balance
laplacian(r) - r/eta + s = 0, solved exactly per mode.
"""

from __future__ import annotations

import numpy as np

from .grid import Field, Grid, _finite, _irfft, _rfft
from .heat import ScaleStack, eta_derivative
from .jets import JetExpr, jet_evaluate, jet_linearize, jet_values

# the residual closures a run can take: none, or the Helmholtz balance below
_CLOSURES = ("none", "helmholtz")


def exact_residual(core: JetExpr, u: Field, u_t: Field | None = None) -> Field:
    """r = F(u, u_t), the core's jet polynomial on the slice's rows, as a
    Field with u's t and eta; u_t is needed only when the core has a t entry."""
    jets = jet_values(core, u.grid, u.values, None if u_t is None else u_t.values)
    return Field(u.grid, jet_evaluate(core, jets, u.grid), t=u.t, eta=u.eta)


def residual_defect(r_stack: ScaleStack, s: np.ndarray, node: int) -> np.ndarray:
    """e = d(r)/d(eta) - laplacian(r) - s at an interior node, of the row
    s (ncomp, *grid.shape) and returned as the checked row."""
    dr, r, grid = eta_derivative(r_stack, node), r_stack.values[node], r_stack.grid
    if np.shape(s) != r.shape:
        raise ValueError(f"s {np.shape(s)} and r {r.shape} differ in grid or component count")
    lap_r = _rfft(grid, r)
    lap_r *= -grid.rksq
    return _finite(dr - _irfft(grid, lap_r) - s)


def _closure_multiplier(grid: Grid, eta: float) -> np.ndarray:
    """M = 1 / (|k|^2 + 1/eta) on the half spectrum: r_hat = M s_hat solves
    laplacian(r) - r/eta + s = 0."""
    return 1.0 / (grid.rksq + 1.0 / eta)


def solve_residual_closure(s: Field, eta: float) -> Field:
    """Solve laplacian(r) - r/eta + s = 0 exactly per Fourier mode."""
    if not eta > 0.0:
        raise ValueError(f"eta must be positive, got {eta}")
    grid = s.grid
    vals = _irfft(grid, _rfft(grid, s.values) * _closure_multiplier(grid, eta))
    return s.with_values(vals, eta=eta)


def closure_error_bound(r_stack: ScaleStack) -> tuple[np.ndarray, np.ndarray]:
    """Taylor bound behind the closure, as arrays (lhs, rhs) over the
    interior nodes from one pass: lhs = max |d(r)/d(eta) - r/eta| at a node,
    by ``eta_derivative``'s centred difference, and rhs = (eta/2) times the
    stack's ``peak_curvature``, max |d2(r)/d(eta)2| over interior nodes.
    """
    r, eta = np.stack(r_stack.values), r_stack.eta_nodes[1:-1]
    miss = (r[2:] - r[:-2]) / (2.0 * r_stack.delta_eta)
    miss -= r[1:-1] / eta.reshape((-1,) + (1,) * (r.ndim - 1))
    lhs = np.max(np.abs(miss), axis=tuple(range(1, r.ndim)))
    return lhs, 0.5 * eta * r_stack.peak_curvature


def frechet_contraction(
    core: JetExpr,
    u: Field,
    psi: Field,
    u_t: Field | None = None,
    psi_t: Field | None = None,
) -> Field:
    """Predicted defect sum_beta (C^a_b psi^b + C^{a,i}_b d_i psi^b).

    The contraction is the linearized core ``jet_linearize(core)``
    evaluated like any core on the stacked slice (u, psi) and its t
    entries (u_t, psi_t); a t entry it needs must be given.
    """
    N, grid = core.N, u.grid
    lin = jet_linearize(core)
    needed = {"psi_t" if f.component > N else "u_t" for f in lin.jet_indices() if "t" in f.derivs}
    for name, given in (("u_t", u_t), ("psi_t", psi_t)):
        if name in needed and given is None:
            raise ValueError(f"the linearized core has a t entry; {name} is required")

    def stacked(first: Field | None, second: Field | None) -> np.ndarray:
        # a t entry the core does not read stands in as zeros
        parts = [np.zeros((N,) + grid.shape) if f is None else f.values[:N] for f in (first, second)]
        if any(len(part) < N for part in parts):
            raise ValueError(f"the core needs {N} components in u and psi and their t entries")
        return np.concatenate(parts)

    jets = jet_values(lin, grid, stacked(u, psi), stacked(u_t, psi_t) if needed else None)
    return Field(grid, jet_evaluate(lin, jets, grid), t=u.t, eta=u.eta)
