"""Heat-semigroup scale filtering and scale stacks.

The filter is the solution operator of d/d(eta) u = laplacian(u) on the
torus: each Fourier mode is damped by exp(-delta_eta * |k|^2).  A scale
stack samples one filtered family on a uniform ladder of eta nodes and
supports centered differencing in eta, the filter defect psi, and the
Duhamel reconstruction of deviations between families.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .grid import Field, Grid, _spatial_axes, laplacian


def heat_propagate(f: Field, delta_eta: float) -> Field:
    """Advance a field by delta_eta along the filter scale."""
    return heat_propagate_many(f, (delta_eta,))[0]


def heat_propagate_many(f: Field, deltas) -> list[Field]:
    """heat_propagate(f, d) for each d, sharing one forward transform of f.

    Each result is the same to the last bit as a propagation on its own.
    """
    axes = _spatial_axes(f.grid)
    coeffs = np.fft.fftn(f.values, axes=axes)
    out = []
    for d in deltas:
        if d < 0.0:
            raise ValueError(f"delta_eta must be >= 0, got {d}")
        vals = np.fft.ifftn(coeffs * np.exp(-d * f.grid.ksq), axes=axes).real
        out.append(f.with_values(vals, eta=f.eta + d))
    return out


@dataclass(frozen=True)
class ScaleStack:
    """Fields sampled on a uniform ladder of at least five eta nodes."""

    eta_nodes: np.ndarray
    fields: tuple[Field, ...]

    def __post_init__(self):
        nodes = np.array(self.eta_nodes, dtype=float)
        nodes.flags.writeable = False
        object.__setattr__(self, "eta_nodes", nodes)
        object.__setattr__(self, "fields", tuple(self.fields))
        if nodes.ndim != 1 or nodes.size < 5:
            raise ValueError("scale stack needs at least 5 eta nodes")
        if len(self.fields) != nodes.size:
            raise ValueError("node and field counts differ")
        steps = np.diff(nodes)
        if np.any(steps <= 0.0):
            raise ValueError("eta nodes must be strictly increasing")
        if np.max(steps) - np.min(steps) > 1e-12 * np.max(steps):
            raise ValueError("eta nodes must be uniformly spaced")
        grid = self.fields[0].grid
        t = self.fields[0].t
        for j, f in enumerate(self.fields):
            if f.grid != grid:
                raise ValueError("stack fields live on different grids")
            if abs(f.t - t) > 1e-12:
                raise ValueError("stack fields have different slice times")
            if abs(f.eta - nodes[j]) > 1e-12:
                raise ValueError(
                    f"field {j} carries eta={f.eta} but node is {nodes[j]}"
                )

    @property
    def K(self) -> int:
        return self.eta_nodes.size

    @property
    def delta_eta(self) -> float:
        return float(self.eta_nodes[1] - self.eta_nodes[0])

    @property
    def epsilon(self) -> float:
        return float(self.eta_nodes[0])

    @property
    def eta0(self) -> float:
        return float(self.eta_nodes[-1])

    @property
    def grid(self) -> Grid:
        return self.fields[0].grid

    @cached_property
    def peak_curvature(self) -> float:
        """max |d2f/d(eta)2| over the interior nodes, by centered differences."""
        vals = np.stack([f.values for f in self.fields])
        d2 = (vals[2:] - 2.0 * vals[1:-1] + vals[:-2]) / self.delta_eta**2
        return float(np.max(np.abs(d2)))

    @classmethod
    def from_fields(cls, fields) -> "ScaleStack":
        """Assemble a stack from fields that already carry their eta."""
        fields = tuple(fields)
        return cls(np.array([f.eta for f in fields]), fields)


def build_scale_stack(
    generator: Field,
    epsilon: float,
    eta0: float,
    K: int,
    start: int = 0,
    stop: int | None = None,
) -> ScaleStack:
    """Propagate a generator slice at scale epsilon up to eta0 on K nodes.

    ``start`` and ``stop`` select the window of nodes start..stop-1 of the
    ladder ``np.linspace(epsilon, eta0, K)``, at least five of them; the
    default is the whole ladder.  Node j is heat_propagate(generator,
    eta_j - epsilon) whatever the window.
    """
    if not 0.0 < epsilon < eta0:
        raise ValueError(
            f"need 0 < epsilon < eta0, got epsilon={epsilon}, eta0={eta0}"
        )
    if eta0 > 1.0:
        raise ValueError(f"eta0 must be <= 1, got {eta0}")
    if K < 5:
        raise ValueError(f"need at least 5 nodes, got K={K}")
    stop = K if stop is None else stop
    if not (0 <= start and stop <= K and stop - start >= 5):
        raise ValueError(
            f"window of nodes {start}..{stop - 1} must hold at least 5 of the "
            f"K={K} nodes"
        )
    nodes = np.linspace(epsilon, eta0, K)[start:stop]
    base = generator.with_values(eta=epsilon)
    fields = heat_propagate_many(base, [eta - epsilon for eta in nodes])
    return ScaleStack(nodes, tuple(fields))


def _require_interior(stack: ScaleStack, node: int):
    if not 1 <= node <= stack.K - 2:
        raise ValueError(
            f"node {node} has no centered stencil in a stack of {stack.K} nodes"
        )


def eta_derivative(stack: ScaleStack, node: int, order: int = 1) -> Field:
    """Centered second-order difference in eta at an interior node."""
    if order not in (1, 2):
        raise ValueError(f"order must be 1 or 2, got {order}")
    _require_interior(stack, node)
    lo, mid, hi = stack.fields[node - 1], stack.fields[node], stack.fields[node + 1]
    h = stack.delta_eta
    if order == 1:
        vals = (hi.values - lo.values) / (2.0 * h)
    else:
        vals = (hi.values - 2.0 * mid.values + lo.values) / h**2
    return mid.with_values(vals)


def filter_defect(stack: ScaleStack, node: int) -> Field:
    """psi = d(u)/d(eta) - laplacian(u) measured at an interior node."""
    return eta_derivative(stack, node, order=1) - laplacian(stack.fields[node])


def duhamel_integral(psi_stack: ScaleStack, target_node: int) -> Field:
    """Trapezoid quadrature of propagated defects up to a target node.

    Approximates the deviation of the stack's family from the matched
    filtered family anchored at the stack's first node.
    """
    if not 1 <= target_node <= psi_stack.K - 1:
        raise ValueError(
            f"target node must lie in [1, {psi_stack.K - 1}], got {target_node}"
        )
    eta_target = float(psi_stack.eta_nodes[target_node])
    h = psi_stack.delta_eta
    total = None
    for j in range(target_node + 1):
        weight = 0.5 * h if j in (0, target_node) else h
        term = heat_propagate(
            psi_stack.fields[j], eta_target - float(psi_stack.eta_nodes[j])
        )
        contrib = weight * term
        total = contrib if total is None else total + contrib
    return total.with_values(eta=eta_target)
