"""Heat-semigroup scale filtering and scale stacks.

The filter is the solution operator of d/d(eta) u = laplacian(u) on the
torus: each Fourier mode is damped by exp(-delta_eta * |k|^2).  A ladder
samples one family on uniform eta nodes, one row per node on one grid:
physical values (``ScaleStack``: centred differences and curvature in
eta) or half spectra (``SpectralStack``).  The filter defect psi, the
deviation from the filtered family through one node and the Duhamel
reconstruction of that deviation take a ``SpectralStack``: psi is one, on
the interior nodes of a ladder of at least 5, and the others are rows.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .grid import Field, Grid, _fft, _finite, _ifft, _irfft


# Grid values (nodes x components x points) per batch: a check's 1-D ladder
# (33 x 128) is one batch; 2-D nodes of 2+ components at 64^2 measured faster alone.
BATCH_VALUES = 2**13


def node_batches(nodes, row_values: int) -> list[list]:
    """The nodes in order, BATCH_VALUES // row_values to a batch, one at least."""
    nodes, size = list(nodes), max(1, BATCH_VALUES // row_values)
    return [nodes[i : i + size] for i in range(0, len(nodes), size)]


def heat_propagate(f: Field, delta_eta: float) -> Field:
    """Advance a field by delta_eta along the filter scale."""
    [[row]] = heat_propagate_batches(f.grid, f.values, [[delta_eta]])
    return f.with_values(row, eta=f.eta + delta_eta)


def heat_propagate_batches(grid: Grid, values: np.ndarray, batches) -> Iterator[np.ndarray]:
    """The rows (ncomp, *grid.shape) propagated by each batch of deltas, one
    block (len(batch), ncomp, *grid.shape) a batch, C-contiguous, checked and
    each row a propagation alone to the last bit: forward once, back as taken.

    The transforms stay complex: ``residual-check``'s defect, built on these
    rows, is pinned to 1e-6 relative, and real transforms here move its fluid
    max_e_2 by 3.4e-7, on a value already 7.65e-7 from its recorded
    reference; a re-recorded reference would allow them.
    """
    if np.shape(values)[1:] != grid.shape:
        raise ValueError(f"rows of shape {np.shape(values)} do not fit grid shape {grid.shape}")
    batches = [np.array(batch, dtype=float) for batch in batches]
    if (low := min((batch.min(initial=0.0) for batch in batches), default=0.0)) < 0.0:
        raise ValueError(f"delta_eta must be >= 0, got {low}")
    coeffs = _fft(grid, values)
    # one expression, so that no complex block outlives the rows made of it
    return (
        _finite(np.ascontiguousarray(_ifft(grid, coeffs * damping[:, np.newaxis]).real))
        for damping in (np.exp(np.multiply.outer(-batch, grid.ksq)) for batch in batches)
    )


@dataclass(frozen=True)
class _Ladder:
    """Rows on a uniform ladder of at least three eta nodes, the fewest a
    centred difference reads: one read-only (ncomp, *layout) array per
    node, which ladders sharing a node may share."""

    grid: Grid
    eta_nodes: np.ndarray
    values: tuple[np.ndarray, ...]

    _LAYOUT = "shape"  # the Grid attribute that is each row's layout

    def __post_init__(self):
        nodes = np.array(self.eta_nodes, dtype=float)
        nodes.flags.writeable = False
        object.__setattr__(self, "eta_nodes", nodes)
        if nodes.ndim != 1 or nodes.size < 3:
            raise ValueError("scale stack needs at least 3 eta nodes")
        steps = np.diff(nodes)
        if np.any(steps <= 0.0):
            raise ValueError("eta nodes must be strictly increasing")
        if np.max(steps) - np.min(steps) > 1e-12 * np.max(steps):
            raise ValueError("eta nodes must be uniformly spaced")
        rows = tuple(np.asarray(row) for row in self.values)
        layout = getattr(self.grid, self._LAYOUT)
        shapes = {row.shape for row in rows}
        if len(rows) != nodes.size or len(shapes) != 1 or shapes.pop()[1:] != layout:
            raise ValueError(f"need one row per node, all one shape (ncomp, *grid.{self._LAYOUT})")
        for row in rows:
            row.flags.writeable = False
        object.__setattr__(self, "values", rows)

    @property
    def K(self) -> int:
        return self.eta_nodes.size

    @property
    def delta_eta(self) -> float:
        """The mean node spacing, so that a window's spacing does not depend
        on which pair of its nodes is subtracted."""
        return float(self.eta_nodes[-1] - self.eta_nodes[0]) / (self.K - 1)


class ScaleStack(_Ladder):
    """Physical values (ncomp, *grid.shape) on a uniform ladder, finite as
    a Field's are."""

    def __post_init__(self):
        super().__post_init__()
        for row in self.values:
            _finite(row)

    @cached_property
    def peak_curvature(self) -> float:
        """max |d2f/d(eta)2| over the interior nodes, by centered differences."""
        vals = np.stack(self.values)
        d2 = (vals[2:] - 2.0 * vals[1:-1] + vals[:-2]) / self.delta_eta**2
        return float(np.max(np.abs(d2)))


class SpectralStack(_Ladder):
    """A uniform ladder kept as the half spectra (ncomp, *grid.rshape) of
    its nodes alone, unchecked: what is read off it is checked."""

    _LAYOUT = "rshape"


def build_scale_stack(generator: Field, epsilon: float, eta0: float, K: int) -> ScaleStack:
    """Propagate a generator slice at scale epsilon up to eta0 on K >= 5
    nodes: node j is heat_propagate(generator, eta_j - epsilon)."""
    if not 0.0 < epsilon < eta0:
        raise ValueError(f"need 0 < epsilon < eta0, got epsilon={epsilon}, eta0={eta0}")
    if eta0 > 1.0:
        raise ValueError(f"eta0 must be <= 1, got {eta0}")
    if K < 5:
        raise ValueError(f"need at least 5 nodes, got K={K}")
    nodes = np.linspace(epsilon, eta0, K)
    grid, values = generator.grid, generator.values
    blocks = heat_propagate_batches(grid, values, node_batches(nodes - epsilon, values.size))
    return ScaleStack(grid, nodes, [row for block in blocks for row in block])


def eta_derivative(stack: ScaleStack, node: int) -> np.ndarray:
    """Centered second-order difference d/d(eta) at an interior node."""
    if not 1 <= node <= stack.K - 2:
        raise ValueError(f"node {node} has no centered stencil in a stack of {stack.K} nodes")
    return (stack.values[node + 1] - stack.values[node - 1]) / (2.0 * stack.delta_eta)


def _damping(grid: Grid, delta_eta: float, out: np.ndarray | None = None) -> np.ndarray:
    """The heat multiplier exp(-delta_eta * |k|^2) on the half spectrum,
    into ``out`` when given."""
    return np.exp(np.multiply(-delta_eta, grid.rksq, out=out), out=out)


def filter_defect(stack: SpectralStack) -> SpectralStack:
    """psi = d(u)/d(eta) - laplacian(u) at every interior node, on the half
    spectrum: (u_{j+1} - u_{j-1}) / (2 h) + |k|^2 u_j, the centred
    difference of ``eta_derivative``.  psi is a ladder of K - 2 >= 3 nodes,
    so the stack needs at least 5."""
    if stack.K < 5:
        raise ValueError(f"filter defect needs a ladder of at least 5 eta nodes, got {stack.K}")
    u_hat, rksq = stack.values, stack.grid.rksq
    psi_hat = np.empty((stack.K - 2,) + u_hat[0].shape, dtype=complex)
    laplacian = np.empty(u_hat[0].shape, dtype=complex)
    # a product, since a complex array divides by a real scalar six times slower
    half_over_h = 0.5 / stack.delta_eta
    for j, out in enumerate(psi_hat, start=1):
        np.subtract(u_hat[j + 1], u_hat[j - 1], out=out)
        out *= half_over_h
        out += np.multiply(rksq, u_hat[j], out=laplacian)
    return SpectralStack(stack.grid, stack.eta_nodes[1:-1], psi_hat)


def filter_deviation(stack: SpectralStack, anchor: int, node: int) -> np.ndarray:
    """u at a node minus the filtered family through the anchor node,
    u_node - exp((eta_node - eta_anchor) laplacian) u_anchor, on the
    ladder's half spectra and transformed back once, to a checked row."""
    if not 0 <= anchor <= node < stack.K:
        raise ValueError(f"need 0 <= anchor <= node < {stack.K}, got anchor={anchor}, node={node}")
    grid, u_hat, nodes = stack.grid, stack.values, stack.eta_nodes
    damping = _damping(grid, float(nodes[node] - nodes[anchor]))
    dev_hat = u_hat[node] - damping * u_hat[anchor]
    return _finite(_irfft(grid, dev_hat))


def duhamel_integral(psi_stack: SpectralStack, target_node: int) -> np.ndarray:
    """Trapezoid quadrature of propagated defects up to a target node.

    Approximates the deviation of the family psi measures from the
    matched filtered family anchored at psi's first node.  psi_stack is
    ``filter_defect``'s ladder: its weighted, damped spectra are summed
    with its own spacing and transformed back once, to a checked row.
    """
    if not 1 <= target_node <= psi_stack.K - 1:
        raise ValueError(f"target node must lie in [1, {psi_stack.K - 1}], got {target_node}")
    grid, nodes, psi_hat = psi_stack.grid, psi_stack.eta_nodes, psi_stack.values
    eta_target = float(nodes[target_node])
    h = psi_stack.delta_eta
    total = np.zeros(psi_hat[0].shape, dtype=complex)
    damping, term = np.empty(grid.rshape), np.empty_like(total)
    for j in range(target_node + 1):
        weight = 0.5 * h if j in (0, target_node) else h
        _damping(grid, eta_target - float(nodes[j]), out=damping)
        damping *= weight
        total += np.multiply(damping, psi_hat[j], out=term)
    return _finite(_irfft(grid, total))
