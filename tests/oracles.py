"""Independent oracles for the test suite.

Everything here deliberately avoids the package's spectral machinery:
derivatives come from 4th-order centered finite differences on the
periodic grid, the Burgers reference truth comes from the method of
characteristics solved pointwise by Newton iteration, and the evolution
right-hand sides, the filter stress, source and advection, the
hand-written core residuals, jet values, jet polynomials and the Duhamel
sum are rebuilt from plain numpy complex transforms, one round trip per
operator; a ladder's half spectra come from one ``numpy.fft.rfftn`` per
node and go back by one ``numpy.fft.irfftn``.  The Frechet table of a core comes from formal partials,
counting how often each jet variable occurs in a monomial, not from
the product rule.  The manufactured families are
closed-form fields whose time derivatives and filter defects are written
out by hand.  The per-ladder check evaluations alone chain the package's
public functions, one ladder at a time, so that the commands' sharing of
nodes between ladders can be checked against them bit for bit.
"""

import math
from dataclasses import dataclass

import numpy as np

from scalepde import (
    Field,
    FrechetTable,
    Grid,
    JetExpr,
    JetIndex,
    JetMonomial,
    ScaleStack,
    SpectralStack,
    build_scale_stack,
    derive_source,
    duhamel_integral,
    exact_residual,
    field_norms,
    filter_defect,
    filter_deviation,
    residual_defect,
)
from scalepde.families import manufactured_scalar_2d_ladder


def fd_derivative(values: np.ndarray, axis: int, spacing: float, order: int = 1) -> np.ndarray:
    """4th-order centered periodic finite difference, first or second order."""
    r = np.roll
    if order == 1:
        return (
            -r(values, -2, axis)
            + 8 * r(values, -1, axis)
            - 8 * r(values, 1, axis)
            + r(values, 2, axis)
        ) / (12.0 * spacing)
    if order == 2:
        return (
            -r(values, -2, axis)
            + 16 * r(values, -1, axis)
            - 30 * values
            + 16 * r(values, 1, axis)
            - r(values, 2, axis)
        ) / (12.0 * spacing**2)
    raise ValueError(f"unsupported order {order}")


def fd_sigma(v_values: np.ndarray, spacing: float) -> dict:
    """Brute-force filter stress sum_c d_c v^a d_c v^b from grid values."""
    n = v_values.shape[0]
    grads = [
        [fd_derivative(v_values[a], c, spacing) for c in range(n)] for a in range(n)
    ]
    return {
        (a, b): sum(grads[a][c] * grads[b][c] for c in range(n))
        for a in range(n)
        for b in range(n)
    }


def fd_fluid_source(v_values: np.ndarray, spacing: float) -> np.ndarray:
    """Brute-force s = -2 div sigma from grid values."""
    n = v_values.shape[0]
    sig = fd_sigma(v_values, spacing)
    return np.stack(
        [
            -2.0 * sum(fd_derivative(sig[(a, b)], b, spacing) for b in range(n))
            for a in range(n)
        ]
    )


def burgers_characteristics(x: np.ndarray, t: float, tol: float = 1e-13) -> np.ndarray:
    """Solve u = sin(x - u t) pointwise by Newton iteration (pre-shock)."""
    if not 0.0 <= t < 1.0:
        raise ValueError("characteristics are single-valued only for t < 1")
    u = np.sin(x)
    for _ in range(100):
        f = u - np.sin(x - u * t)
        df = 1.0 + t * np.cos(x - u * t)
        step = f / df
        u = u - step
        if np.max(np.abs(step)) < tol:
            break
    return u


def _complex_ops(n, size):
    """Wavenumbers, |k|^2, first derivative and 2/3-rule dealiasing.

    The two operators act on one physical component of the n-D periodic
    grid with ``size`` points per axis.
    """
    k1 = np.fft.fftfreq(size, 1.0 / size)
    k1[size // 2] = size // 2
    ks = np.meshgrid(*([k1] * n), indexing="ij")
    ksq = sum(k**2 for k in ks)
    mask = np.all([np.abs(k) < size / 3.0 for k in ks], axis=0)

    def deriv(f, b):
        c = np.fft.fftn(f) * 1j * ks[b]
        c[(slice(None),) * b + (size // 2,)] = 0.0
        return np.fft.ifftn(c).real

    def dealias(f):
        return np.fft.ifftn(np.fft.fftn(f) * mask).real

    return ks, ksq, deriv, dealias


def full_grid_random(
    grid: Grid, rng: np.random.Generator, ncomp: int, kmax: int, amplitude: float, solenoidal: bool
) -> np.ndarray:
    """The values of a random family draw, transformed on the whole grid.

    Standard normal noise goes through ``rfftn``, is confined to
    |k_axis| <= kmax (a solenoidal draw also loses the Nyquist planes and
    the mean and is multiplied by the projector table ``grid.rleray``,
    written out term by term), comes back through ``irfftn`` and is
    scaled to peak |value| = amplitude.  Every product is taken in the
    families' order, so only the transforms' extent differs from theirs.
    """
    axes = tuple(range(1, grid.n + 1))
    coeffs = np.fft.rfftn(rng.standard_normal((ncomp,) + grid.shape), axes=axes)
    k = np.abs(np.fft.fftfreq(grid.size, 1.0 / grid.size))
    kept = (k <= kmax) & (k < grid.size // 2) if solenoidal else k <= kmax
    for axis, size in enumerate(coeffs.shape[1:]):
        coeffs *= kept[:size].reshape((size,) + (1,) * (grid.n - 1 - axis))
    if solenoidal:
        coeffs[(slice(None),) + (0,) * grid.n] = 0.0
        leray = grid.rleray
        coeffs = np.stack([
            sum(coeffs[b] * leray[a, b] for b in range(grid.n)) for a in range(grid.n)
        ])
    values = np.fft.irfftn(coeffs, s=grid.shape, axes=axes)
    return values * (amplitude / max(values.max(), -values.min()))


def complex_dealias(values: np.ndarray) -> np.ndarray:
    """2/3-rule cut of each component of an array (ncomp, size, ..., size)."""
    _, _, _, dealias = _complex_ops(values.ndim - 1, values.shape[1])
    return np.stack([dealias(v) for v in values])


def complex_restrict(values: np.ndarray, coarse_size: int) -> np.ndarray:
    """Spectral restriction of (ncomp, size, ..., size) values onto a coarser grid.

    Modes representable on the coarse grid are copied with the complex
    layout's index lists; the coarse Nyquist mode is left at zero.
    """
    n, size = values.ndim - 1, values.shape[1]
    half = coarse_size // 2
    src = list(range(half)) + list(range(size - half + 1, size))
    dst = list(range(half)) + list(range(half + 1, coarse_size))
    axes = tuple(range(1, n + 1))
    coeffs = np.fft.fftn(values, axes=axes)
    out = np.zeros((len(values),) + (coarse_size,) * n, dtype=complex)
    comp = range(len(values))
    out[np.ix_(comp, *[dst] * n)] = coeffs[np.ix_(comp, *[src] * n)]
    out *= (coarse_size / size) ** n
    return np.fft.ifftn(out, axes=axes).real


def chained_jet_values(jets, u, u_t=None) -> dict:
    """Values of jet variables from arrays (ncomp, size, ..., size).

    A jet (``component``, ``derivs``) reads u, or u_t when it carries a t,
    and takes one complex derivative round trip per spatial label.
    """
    _, _, deriv, _ = _complex_ops(u.ndim - 1, u.shape[1])
    out = {}
    for idx in jets:
        vals = (u_t if "t" in idx.derivs else u)[idx.component - 1]
        for d in idx.derivs:
            if d.startswith("x"):
                vals = deriv(vals, int(d[1:]) - 1)
        out[idx] = vals
    return out


def pairwise_jet_evaluate(terms, jets: dict) -> np.ndarray:
    """Each output of a jet polynomial (monomials with ``coeff`` and
    ``factors``) on jet arrays, monomial by monomial, every product of two
    factors dealiased before the next factor is applied."""
    sample = next(iter(jets.values()))
    _, _, _, dealias = _complex_ops(sample.ndim, sample.shape[0])
    out = []
    for part in terms:
        acc = np.zeros(sample.shape)
        for m in part:
            vals = [jets[f] for f in m.factors]
            prod = vals[0] if vals else 1.0
            for v in vals[1:]:
                prod = dealias(prod * v)
            acc = acc + float(m.coeff) * prod
        out.append(acc)
    return np.stack(out)


def formal_frechet(core: JetExpr) -> FrechetTable:
    """The Frechet table of a first-order core by formal partials: the
    partial of a monomial holding u k times is k times the monomial with
    one u removed.  Each output visits its jet variables in
    ``JetIndex.sort_key`` order."""
    zero, first = {}, {}
    for alpha, part in enumerate(core.terms, start=1):
        variables = {f for m in part for f in m.factors}
        for var in sorted(variables, key=JetIndex.sort_key):
            monomials = []
            for m in part:
                count = m.factors.count(var)
                if count:
                    factors = list(m.factors)
                    factors.remove(var)
                    monomials.append(JetMonomial(m.coeff * count, tuple(factors)))
            partial = JetExpr(core.n, core.N, (tuple(monomials),))
            if var.derivs:
                first[(alpha, var.component) + var.derivs] = partial
            else:
                zero[(alpha, var.component)] = partial
    return FrechetTable(zero_order=zero, first_order=first)


def per_node_duhamel(psi: np.ndarray, etas, target: int) -> np.ndarray:
    """Trapezoid sum over nodes 0..target of defects psi (K, ncomp, size,
    ..., size), each heat-propagated to eta_target by its own round trip."""
    n = psi.ndim - 2
    _, ksq, _, _ = _complex_ops(n, psi.shape[2])
    axes = tuple(range(1, n + 1))
    h = etas[1] - etas[0]
    total = np.zeros(psi.shape[1:])
    for j in range(target + 1):
        weight = 0.5 * h if j in (0, target) else h
        damping = np.exp(-(etas[target] - etas[j]) * ksq)
        total += weight * np.fft.ifftn(np.fft.fftn(psi[j], axes=axes) * damping, axes=axes).real
    return total


def burgers_residual(u, u_t):
    """Hand-written Burgers core u_t + u u_x on arrays of shape (1, size)."""
    _, _, deriv, dealias = _complex_ops(1, u.shape[1])
    return u_t + dealias(u[0] * deriv(u[0], 0))[np.newaxis]


def fluid_residual(u, u_t):
    """Hand-written fluid core on the stacked (v, p) slice and its u_t.

    Momentum v_t + (v . grad) v + grad p, then the continuity value
    div v; arrays have shape (n + 1, size, ..., size).
    """
    n = u.shape[0] - 1
    _, _, deriv, dealias = _complex_ops(n, u.shape[1])
    v, p = u[:n], u[n]
    momentum = [
        u_t[a] + dealias(sum(v[b] * deriv(v[a], b) for b in range(n))) + deriv(p, a)
        for a in range(n)
    ]
    return np.stack(momentum + [sum(deriv(v[a], a) for a in range(n))])


def complex_advect(v, w):
    """(v . grad) w on arrays (n, size, ..., size) and (m, size, ..., size),
    each product v^b d_b w^a dealiased on its own."""
    n = v.shape[0]
    _, _, deriv, dealias = _complex_ops(n, v.shape[1])
    return np.stack([sum(dealias(v[b] * deriv(wc, b)) for b in range(n)) for wc in w])


def complex_sigma(v):
    """Filter stress sigma^{ab} = sum_c d_c v^a d_c v^b as an (n, n) array of
    fields, each product dealiased on its own."""
    n = v.shape[0]
    _, _, deriv, dealias = _complex_ops(n, v.shape[1])
    dv = [[deriv(v[a], c) for c in range(n)] for a in range(n)]
    return np.array(
        [
            [sum(dealias(dv[a][c] * dv[b][c]) for c in range(n)) for b in range(n)]
            for a in range(n)
        ]
    )


def complex_source(v):
    """The divergence-form source -2 div sigma, one row per component."""
    n = v.shape[0]
    _, _, deriv, _ = _complex_ops(n, v.shape[1])
    sig = complex_sigma(v)
    return np.stack([-2.0 * sum(deriv(sig[a, b], b) for b in range(n)) for a in range(n)])


def complex_fft_rhs(v, closure="none", eta=None, psi=None, e=None):
    """Projected right-hand sides of the (v, psi) system, per operator.

    Every derivative, dealiased product, closure solve and Leray
    projection is its own fftn/ifftn round trip on physical arrays of
    shape (n, size, ..., size).  Returns the v right-hand side, or the
    pair (v, psi) when psi is given.
    """
    n = v.shape[0]
    ks, ksq, _, _ = _complex_ops(n, v.shape[1])

    def leray(w):
        c = [np.fft.fftn(x) for x in w]
        dot = sum(k * x for k, x in zip(ks, c))
        safe = np.where(ksq > 0, ksq, 1.0)
        return np.stack([np.fft.ifftn(x - k * dot / safe).real for k, x in zip(ks, c)])

    rhs_v = -complex_advect(v, v)
    if closure == "helmholtz":
        rhs_v = rhs_v + np.stack(
            [np.fft.ifftn(np.fft.fftn(x) / (ksq + 1.0 / eta)).real for x in complex_source(v)]
        )
    if psi is None:
        return leray(rhs_v)
    rhs_psi = -complex_advect(v, psi) - complex_advect(psi, v)
    if e is not None:
        rhs_psi = rhs_psi + e
    return leray(rhs_v), leray(rhs_psi)


def burgers_physical_rk4(size: int, t_end: float, dt: float) -> np.ndarray:
    """Inviscid Burgers from sin x by classical RK4 on physical values.

    Each stage forms u_x and the 2/3-rule dealiased product u u_x by
    complex fft round trips.  Equal steps no longer than dt reach t_end.
    """
    x = np.arange(size) * (2.0 * np.pi / size)
    k = np.fft.fftfreq(size, 1.0 / size)
    k[size // 2] = size // 2
    mask = np.abs(k) < size / 3.0

    def rhs(u):
        c = np.fft.fft(u) * 1j * k
        c[size // 2] = 0.0
        u_x = np.fft.ifft(c).real
        return -np.fft.ifft(np.fft.fft(u * u_x) * mask).real

    n_steps = max(1, round(t_end / dt))
    h = t_end / n_steps
    u = np.sin(x)
    for _ in range(n_steps):
        k1 = rhs(u)
        k2 = rhs(u + h / 2 * k1)
        k3 = rhs(u + h / 2 * k2)
        k4 = rhs(u + h * k3)
        u = u + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    return u


def restricted_burgers_pair(u: np.ndarray, coarse_size: int) -> tuple[np.ndarray, np.ndarray]:
    """(u, u_t) of fine Burgers values u (size,) on a coarser grid: u and
    its right-hand side -(u u_x), 2/3-rule dealiased on the fine grid, each
    restricted by ``complex_restrict`` and cut to the coarse 2/3 band."""
    _, _, deriv, _ = _complex_ops(1, len(u))
    rhs = -complex_dealias((u * deriv(u, 0))[np.newaxis])
    return tuple(complex_dealias(complex_restrict(f, coarse_size))[0] for f in (u[np.newaxis], rhs))


def taylor_green_pressure(grid: Grid, amplitude: float = 1.0, t: float = 0.0, eta: float = 0.0) -> Field:
    """Pressure A^2/4 (cos 2x + cos 2y) balancing the cellular advection."""
    x, y = grid.coords()
    vals = 0.25 * amplitude**2 * (np.cos(2 * x) + np.cos(2 * y))
    return Field(grid, vals[np.newaxis], t=t, eta=eta)


@dataclass(frozen=True)
class ManufacturedSlice:
    """One (t, eta) sample of a manufactured family with exact derivatives."""

    u: Field
    u_t: Field
    psi: Field
    psi_t: Field


def manufactured_burgers(grid: Grid, t: float, eta: float) -> ManufacturedSlice:
    """Scalar family g(t, eta) sin x that is not heat filtered.

    g = (1 + eta/2 + eta^3)(1 + t/3), so psi = (g_eta + g) sin x.
    """
    x = grid.coords()[0]
    base = np.sin(x)[np.newaxis]
    g_eta_part = 1.0 + 0.5 * eta + eta**3
    dg_eta_part = 0.5 + 3.0 * eta**2
    g_t_part = 1.0 + t / 3.0
    u = Field(grid, g_eta_part * g_t_part * base, t=t, eta=eta)
    u_t = Field(grid, g_eta_part * (1.0 / 3.0) * base, t=t, eta=eta)
    psi = Field(grid, (dg_eta_part + g_eta_part) * g_t_part * base, t=t, eta=eta)
    psi_t = Field(
        grid, (dg_eta_part + g_eta_part) * (1.0 / 3.0) * base, t=t, eta=eta
    )
    return ManufacturedSlice(u=u, u_t=u_t, psi=psi, psi_t=psi_t)


def manufactured_fluid(grid: Grid, t: float, eta: float) -> ManufacturedSlice:
    """Three-component (v, p) family with nonzero filter defect.

    The velocity part is deliberately compressible so every Frechet
    entry of the advection core is exercised.
    """
    if grid.n != 2:
        raise ValueError("needs a two dimensional grid")
    x, y = grid.coords()
    m1 = np.sin(x) * np.cos(y)
    m2 = np.cos(x) * np.sin(y)
    m3 = np.cos(x)
    # coefficient, d/d(eta), d/dt factors for each component
    a_eta, da_eta = 1.0 + 0.5 * eta + eta**2, 0.5 + 2.0 * eta
    b_eta, db_eta = 1.0 - eta + eta**3, -1.0 + 3.0 * eta**2
    c_eta, dc_eta = eta + eta**2, 1.0 + 2.0 * eta
    a_t, da_t = 1.0 + t / 4.0, 0.25
    b_t, db_t = 1.0 - t / 5.0, -0.2
    c_t, dc_t = 1.0 + t / 3.0, 1.0 / 3.0
    # laplacian eigenvalues of the three spatial shapes
    lam1, lam2, lam3 = -2.0, -2.0, -1.0

    def stack(f1, f2, f3):
        return np.stack([f1 * m1, f2 * m2, f3 * m3])

    u = Field(grid, stack(a_eta * a_t, b_eta * b_t, c_eta * c_t), t=t, eta=eta)
    u_t = Field(grid, stack(a_eta * da_t, b_eta * db_t, c_eta * dc_t), t=t, eta=eta)
    psi = Field(
        grid,
        stack(
            (da_eta - lam1 * a_eta) * a_t,
            (db_eta - lam2 * b_eta) * b_t,
            (dc_eta - lam3 * c_eta) * c_t,
        ),
        t=t,
        eta=eta,
    )
    psi_t = Field(
        grid,
        stack(
            (da_eta - lam1 * a_eta) * da_t,
            (db_eta - lam2 * b_eta) * db_t,
            (dc_eta - lam3 * c_eta) * dc_t,
        ),
        t=t,
        eta=eta,
    )
    return ManufacturedSlice(u=u, u_t=u_t, psi=psi, psi_t=psi_t)


def manufactured_scalar_2d(grid: Grid, eta: float, t: float = 0.0) -> tuple[Field, Field]:
    """Scalar 2d family (u, psi) whose coefficients do not follow the heat flow.

    u = a sin x cos y + b cos x + c sin 2x cos y with a = 1 + eta,
    b = e^{-eta} and c = cos(eta); psi = du/deta - laplacian(u) weights
    each mode by its coefficient's eta-derivative plus |k|^2 = 2, 1, 5
    times the coefficient.
    """
    if grid.n != 2:
        raise ValueError("needs a two dimensional grid")
    x, y = grid.coords()
    modes = (np.sin(x) * np.cos(y), np.cos(x), np.sin(2 * x) * np.cos(y))
    a, b, c = 1.0 + eta, math.exp(-eta), math.cos(eta)
    psi_weights = (1.0 + 2.0 * a, -b + b, -math.sin(eta) + 5.0 * c)

    def field(weights):
        (w1, w2, w3), (m1, m2, m3) = weights, modes
        return Field(grid, (w1 * m1 + w2 * m2 + w3 * m3)[np.newaxis], t=t, eta=eta)

    return field((a, b, c)), field(psi_weights)


def node_fields(stack: ScaleStack) -> list[Field]:
    """A physical ladder's rows as Fields at their nodes' scales."""
    return [Field(stack.grid, row, eta=float(eta)) for row, eta in zip(stack.values, stack.eta_nodes)]


def spectral_stack(fields) -> SpectralStack:
    """The ladder of fields kept as their half spectra, one
    ``numpy.fft.rfftn`` over the spatial axes per node, at the fields'
    own scales."""
    fields = list(fields)
    grid = fields[0].grid
    axes = tuple(range(1, grid.n + 1))
    spectra = [np.fft.rfftn(f.values, axes=axes) for f in fields]
    return SpectralStack(grid, [f.eta for f in fields], spectra)


def stack_field(stack: SpectralStack, j: int) -> Field:
    """Node j of a spectral ladder as a Field at its scale, by one
    ``numpy.fft.irfftn`` over the spatial axes: ``spectral_stack``
    undone."""
    grid = stack.grid
    axes = tuple(range(1, grid.n + 1))
    values = np.fft.irfftn(stack.values[j], s=grid.shape, axes=axes)
    return Field(grid, values, eta=float(stack.eta_nodes[j]))


def per_ladder_residual_errors(core: JetExpr, u_gen: Field, ut_gen: Field,
                               epsilon: float, eta0: float, nodes) -> list[float]:
    """residual-check's max |e| for each K-node ladder built on its own: the
    full u and u_t stacks, r on nodes mid-1..mid+1 and s at mid = K // 2,
    each from its own jet table."""
    source = derive_source(core)
    errors = []
    for K in nodes:
        stacks = [build_scale_stack(g, epsilon, eta0, K) for g in (u_gen, ut_gen)]
        u, u_t = (node_fields(stack) for stack in stacks)
        window = slice(K // 2 - 1, K // 2 + 2)
        r = [exact_residual(core, *pair).values for pair in list(zip(u, u_t))[window]]
        s = exact_residual(source, u[K // 2], u_t[K // 2]).values
        e = residual_defect(ScaleStack(u_gen.grid, stacks[0].eta_nodes[window], r), s, 1)
        errors.append(float(np.max(np.abs(e))))
    return errors


def per_ladder_deviation_errors(grid: Grid, epsilon: float, eta0: float,
                                nodes) -> tuple[list[float], float]:
    """duhamel-check's quadrature errors and worst deviation/bound ratio,
    each extended ladder's spectra formed and read on its own."""
    errors, worst = [], 0.0
    for K in nodes:
        h = (eta0 - epsilon) / (K - 1)
        etas = [epsilon + (j - 1) * h for j in range(K + 2)]
        stack = SpectralStack(grid, etas, manufactured_scalar_2d_ladder(grid, etas))
        psi = filter_defect(stack)
        sup_psi = max(field_norms(stack_field(psi, j))[1] for j in range(psi.K))
        devs = [filter_deviation(stack, 1, j) for j in range(1, K + 1)]
        worst = max([worst] + [
            float(np.max(np.abs(d))) / (stack.eta_nodes[j] * sup_psi)
            for j, d in enumerate(devs, start=1)
        ])
        errors.append(float(np.max(np.abs(devs[-1] - duhamel_integral(psi, K - 1)))))
    return errors, worst
