"""Shared test fixtures: Pauli matrices, seeded random samplers and a
counter of linalg calls."""

import numpy as np

from orthotime import linalg

SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SY = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SZ = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
I2 = np.eye(2, dtype=complex)


def random_hermitian(rng, dim, radius=1.0):
    """Gaussian Hermitian rescaled to the given spectral radius."""
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    h = 0.5 * (g + g.conj().T)
    w = np.linalg.eigvalsh(h)
    top = max(abs(w[0]), abs(w[-1]))
    return h * (radius / top) if top > 0 else h


def overflow_pair(dim):
    """1e10 diag(1, ..., -1) against 1e10 times the nearest-neighbour hopping
    (1e10 sigma_z, 1e10 sigma_x at d = 2): e^{-i lam t} overflows by t = 1e300."""
    ha = 1e10 * np.diag(np.linspace(1.0, -1.0, dim)).astype(complex)
    hb = 1e10 * (np.eye(dim, k=1) + np.eye(dim, k=-1)).astype(complex)
    return ha, hb


def haar_unitary(rng, dim):
    """Haar-random unitary: QR of a complex Gaussian, column phases fixed."""
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def random_state(rng, dim):
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def random_axis(rng):
    v = rng.standard_normal(3)
    return v / np.linalg.norm(v)


def qubit_horizon(gamma, omega_a, omega_b):
    """Search horizon of the closed-form root finder (same branch rule)."""
    a = np.cos(0.5 * gamma) ** 2
    b = np.sin(0.5 * gamma) ** 2
    if a - b > 1e-12:
        return np.inf if omega_a == omega_b else np.pi / abs(omega_a - omega_b)
    return np.pi / (omega_a + omega_b)


def count_linalg_calls(monkeypatch):
    """Calls of linalg's Hermitian eigensolver routes and input checks, by
    name, from here on; only the names called appear."""
    calls = {}
    for name in ("herm_eig", "_eigh", "assert_hermitian", "as_unit_state"):
        def counted(*args, _name=name, _fn=getattr(linalg, name), **kwargs):
            calls[_name] = calls.get(_name, 0) + 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(linalg, name, counted)
    return calls
