"""Independent oracles for the test suite.

Everything here deliberately avoids the package's spectral machinery:
derivatives come from 4th-order centered finite differences on the
periodic grid, the Burgers reference truth comes from the method of
characteristics solved pointwise by Newton iteration, and the evolution
right-hand sides and the hand-written core residuals are rebuilt from
plain numpy complex transforms, one round trip per operator.
"""

import numpy as np


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
    mask = np.all([np.abs(k) <= size / 3.0 for k in ks], axis=0)

    def deriv(f, b):
        c = np.fft.fftn(f) * 1j * ks[b]
        c[(slice(None),) * b + (size // 2,)] = 0.0
        return np.fft.ifftn(c).real

    def dealias(f):
        return np.fft.ifftn(np.fft.fftn(f) * mask).real

    return ks, ksq, deriv, dealias


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


def complex_fft_rhs(v, closure="none", eta=None, psi=None, e=None):
    """Projected right-hand sides of the (v, psi) system, per operator.

    Every derivative, dealiased product, closure solve and Leray
    projection is its own fftn/ifftn round trip on physical arrays of
    shape (n, size, ..., size).  Returns the v right-hand side, or the
    pair (v, psi) when psi is given.
    """
    n = v.shape[0]
    ks, ksq, deriv, dealias = _complex_ops(n, v.shape[1])

    def advect(a, w):
        return np.stack([sum(dealias(a[b] * deriv(wc, b)) for b in range(n)) for wc in w])

    def leray(w):
        c = [np.fft.fftn(x) for x in w]
        dot = sum(k * x for k, x in zip(ks, c))
        safe = np.where(ksq > 0, ksq, 1.0)
        return np.stack([np.fft.ifftn(x - k * dot / safe).real for k, x in zip(ks, c)])

    rhs_v = -advect(v, v)
    if closure == "helmholtz":
        dv = [[deriv(v[a], c) for c in range(n)] for a in range(n)]
        sig = [
            [sum(dealias(dv[a][c] * dv[b][c]) for c in range(n)) for b in range(n)]
            for a in range(n)
        ]
        s = [-2.0 * sum(deriv(sig[a][b], b) for b in range(n)) for a in range(n)]
        rhs_v = rhs_v + np.stack(
            [np.fft.ifftn(np.fft.fftn(x) / (ksq + 1.0 / eta)).real for x in s]
        )
    if psi is None:
        return leray(rhs_v)
    rhs_psi = -advect(v, psi) - advect(psi, v)
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
    mask = np.abs(k) <= size / 3.0

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
