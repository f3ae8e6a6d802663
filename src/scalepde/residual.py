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

from .grid import (
    Field,
    Grid,
    _dealias_values,
    _irfft,
    _rfft,
    laplacian,
    spectral_derivative,
)
from .heat import ScaleStack, eta_derivative
from .jets import JetExpr, jet_evaluate, jet_frechet, jet_values


def exact_residual(core: JetExpr, u: Field, u_t: Field) -> Field:
    """r = F(u, u_t), the core's jet polynomial evaluated on the slice."""
    return jet_evaluate(core, jet_values(core, u, u_t))


def residual_defect(r_stack: ScaleStack, s: Field, node: int) -> Field:
    """e = d(r)/d(eta) - laplacian(r) - s at an interior node."""
    dr = eta_derivative(r_stack, node, order=1)
    return dr - laplacian(r_stack.fields[node]) - s


def _closure_hat(grid: Grid, s_hat: np.ndarray, eta: float) -> np.ndarray:
    """Half-spectrum solution of laplacian(r) - r/eta + s = 0."""
    return s_hat / (grid.rksq + 1.0 / eta)


def solve_residual_closure(s: Field, eta: float) -> Field:
    """Solve laplacian(r) - r/eta + s = 0 exactly per Fourier mode."""
    if not eta > 0.0:
        raise ValueError(f"eta must be positive, got {eta}")
    grid = s.grid
    vals = _irfft(grid, _closure_hat(grid, _rfft(grid, s.values), eta))
    return s.with_values(vals, eta=eta)


def closure_error_bound(r_stack: ScaleStack, node: int) -> tuple[float, float]:
    """Taylor bound behind the closure at an interior node.

    Returns (lhs, rhs) with lhs = max |d(r)/d(eta) - r/eta| at the node
    and rhs = (eta/2) * max over interior nodes of |d2(r)/d(eta)2|.  The
    curvature is formed once per stack and shared by all its nodes.
    """
    if not 1 <= node <= r_stack.K - 2:
        raise ValueError(
            f"node {node} has no centered stencil in a stack of {r_stack.K} nodes"
        )
    eta = float(r_stack.eta_nodes[node])
    dr = eta_derivative(r_stack, node, order=1)
    lhs = float(np.max(np.abs(dr.values - r_stack.fields[node].values / eta)))
    return lhs, 0.5 * eta * r_stack.peak_curvature


def frechet_contraction(
    core: JetExpr,
    u: Field,
    psi: Field,
    u_t: Field | None = None,
    psi_t: Field | None = None,
) -> Field:
    """Predicted defect sum_beta (C^a_b psi^b + C^{a,i}_b d_i psi^b).

    Coefficients are the Frechet partials of the core evaluated on the
    slice; spatial psi derivatives are spectral and the t entry reads
    from psi_t.
    """
    table = jet_frechet(core)
    exprs = list(table.zero_order.values()) + list(table.first_order.values())
    jets = jet_values(exprs, u, u_t) if exprs else {}
    grid = u.grid

    def _psi_comp(beta: int, coord: str | None) -> np.ndarray:
        comp = Field(grid, psi.component(beta - 1)[np.newaxis], t=u.t, eta=u.eta)
        if coord is None:
            return comp.component(0)
        if coord == "t":
            if psi_t is None:
                raise ValueError("core has a t entry; psi_t is required")
            return psi_t.component(beta - 1)
        return spectral_derivative(comp, int(coord[1:]) - 1).component(0)

    def _accumulate(alpha: int, expr, target: np.ndarray):
        coeff = jet_evaluate(expr, jets, grid=grid).component(0)
        if expr.jet_indices():
            # non-constant coefficient: same dealiased product rule as
            # the pseudo-spectral evaluation of the core itself
            out[alpha - 1] += _dealias_values(grid, coeff * target)
        else:
            out[alpha - 1] += coeff * target

    out = np.zeros((core.num_outputs,) + grid.shape)
    for (alpha, beta), expr in table.zero_order.items():
        _accumulate(alpha, expr, _psi_comp(beta, None))
    for (alpha, beta, coord), expr in table.first_order.items():
        _accumulate(alpha, expr, _psi_comp(beta, coord))
    return Field(grid, out, t=u.t, eta=u.eta)
