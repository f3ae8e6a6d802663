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
    """r = F(u, u_t), the core's jet polynomial on the slice, as a Field with
    u's t and eta; u_t is needed only when the core has a t entry."""
    return Field(u.grid, jet_evaluate(core, jet_values(core, u, u_t), u), t=u.t, eta=u.eta)


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


def closure_error_bound(r_stack: ScaleStack, node: int) -> tuple[float, float]:
    """Taylor bound behind the closure at an interior node.

    Returns (lhs, rhs) with lhs = max |d(r)/d(eta) - r/eta| at the node
    and rhs = (eta/2) * max over interior nodes of |d2(r)/d(eta)2|.  The
    curvature is formed once per stack and shared by all its nodes.
    """
    dr = eta_derivative(r_stack, node)
    eta = float(r_stack.eta_nodes[node])
    lhs = float(np.max(np.abs(dr - r_stack.values[node] / eta)))
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

    def stacked(first: Field | None, second: Field | None) -> Field:
        # a t entry the core does not read stands in as zeros
        parts = [np.zeros((N,) + grid.shape) if f is None else f.values[:N] for f in (first, second)]
        if any(len(part) < N for part in parts):
            raise ValueError(f"the core needs {N} components in u and psi and their t entries")
        return Field(grid, np.concatenate(parts), t=u.t, eta=u.eta)

    return exact_residual(lin, stacked(u, psi), stacked(u_t, psi_t) if needed else None)
