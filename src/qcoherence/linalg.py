"""Dense complex linear algebra core.

Validated domain types (density matrices, orthonormal bases, Hermitian
observables, subspaces) and the spectral quantities built on them: Hermitian
eigendecomposition, operator norm, von Neumann entropy, purity.

All wrapped arrays are complex128, marked read-only after construction, and
every operation here is a pure function, so values can be shared freely
across threads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    ConvergenceFailureError,
    DimensionMismatchError,
    NotFiniteError,
    NotHermitianError,
    NotOrthonormalError,
    NotPSDError,
    TraceNotOneError,
)

# Default tolerances, sized for double precision with dimensions up to a few
# hundred.  Reconstruction checks scale with the dimension.
TOL_HERM = 1e-10
TOL_ORTHO = 1e-10
TOL_TRACE = 1e-10
TOL_PSD = 1e-9
RECON_SCALE = 1e-9


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.setflags(write=False)
    return a


def _square_complex(m, name: str = "matrix") -> np.ndarray:
    """Coerce to a square, finite complex128 array; the shared validation entry."""
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatchError(f"{name} must be square, got shape {a.shape}")
    finite = np.isfinite(a)
    if not finite.all():
        raise NotFiniteError(f"{name} has {int((~finite).sum())} NaN or infinite entries")
    return a


def hermiticity_defect(m: np.ndarray) -> float:
    """Largest entrywise deviation |m_ij - conj(m_ji)|."""
    return float(np.abs(m - m.conj().T).max())


def orthonormality_defect(u: np.ndarray) -> float:
    """Largest entrywise deviation of u^H u from the identity."""
    k = u.shape[1]
    return float(np.abs(u.conj().T @ u - np.eye(k)).max())


@dataclass(frozen=True)
class DensityMatrix:
    """An n x n Hermitian, PSD, unit-trace matrix.

    The constructor trusts its input; build from untrusted data through
    :func:`validate_density`, which checks all three invariants.
    """

    matrix: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "matrix", _freeze(np.asarray(self.matrix, dtype=np.complex128)))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def eigensystem(self) -> tuple[np.ndarray, "OrthonormalBasis"]:
        """Ascending eigenvalues and one orthonormal eigenbasis.

        Computed on the first call and kept: both parts are read-only, so
        every caller can share them.
        """
        cached = self.__dict__.get("_eigensystem")
        if cached is None:
            cached = hermitian_eigendecomposition(self.matrix)
            object.__setattr__(self, "_eigensystem", cached)
        return cached

    @classmethod
    def maximally_mixed(cls, n: int) -> "DensityMatrix":
        return cls(np.eye(n, dtype=np.complex128) / n)

    @classmethod
    def pure(cls, vector) -> "DensityMatrix":
        """Rank-one projector |v><v| for a unit vector v."""
        v = np.asarray(vector, dtype=np.complex128).reshape(-1)
        v = v / np.linalg.norm(v)
        return cls(np.outer(v, v.conj()))


@dataclass(frozen=True)
class OrthonormalBasis:
    """An ordered orthonormal basis, stored as the unitary whose columns are
    the basis vectors.

    The plain constructor trusts its input (used on solver output, which is
    orthonormal by construction); use :meth:`from_columns` to validate.
    """

    vectors: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "vectors", _freeze(np.asarray(self.vectors, dtype=np.complex128)))

    @property
    def dim(self) -> int:
        return self.vectors.shape[0]

    def column(self, j: int) -> np.ndarray:
        return self.vectors[:, j]

    @classmethod
    def from_columns(cls, u, tol_ortho: float = TOL_ORTHO) -> "OrthonormalBasis":
        u = _square_complex(u, "basis")
        defect = orthonormality_defect(u)
        if defect > tol_ortho:
            raise NotOrthonormalError(
                f"max |<v_i|v_j> - delta_ij| = {defect:.3e} exceeds {tol_ortho:.1e}"
            )
        return cls(u)

    @classmethod
    def standard(cls, n: int) -> "OrthonormalBasis":
        return cls(np.eye(n, dtype=np.complex128))

    def permuted(self, permutation, phases=None) -> "OrthonormalBasis":
        """Same basis with relabelled columns, optionally rephased by unit scalars."""
        u = self.vectors[:, list(permutation)]
        if phases is not None:
            u = u * np.asarray(phases, dtype=np.complex128)[None, :]
        return OrthonormalBasis(u)


def fourier_basis(n: int) -> OrthonormalBasis:
    """The discrete Fourier basis, mutually unbiased with the standard one."""
    j = np.arange(n)
    u = np.exp(2j * np.pi * np.outer(j, j) / n) / np.sqrt(n)
    return OrthonormalBasis(u)


@dataclass(frozen=True)
class HermitianObservable:
    """A Hermitian matrix with its cached ascending spectrum and eigenbasis.

    Build through :meth:`from_matrix`, which validates hermiticity and checks
    that the spectral decomposition reconstructs the input.
    """

    matrix: np.ndarray
    spectrum: np.ndarray
    eigenbasis: OrthonormalBasis

    def __post_init__(self):
        object.__setattr__(self, "matrix", _freeze(np.asarray(self.matrix, dtype=np.complex128)))
        object.__setattr__(self, "spectrum", _freeze(np.asarray(self.spectrum, dtype=np.float64)))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @classmethod
    def from_matrix(cls, m, tol_herm: float = TOL_HERM) -> "HermitianObservable":
        m = _square_complex(m, "observable")
        defect = hermiticity_defect(m)
        if defect > tol_herm:
            raise NotHermitianError(
                f"max |A - A^H| = {defect:.3e} exceeds {tol_herm:.1e}"
            )
        spectrum, eigenbasis = hermitian_eigendecomposition(m)
        v = eigenbasis.vectors
        recon = (v * spectrum) @ v.conj().T
        recon_err = float(np.abs(recon - m).max())
        tol_recon = RECON_SCALE * m.shape[0]
        if recon_err > tol_recon:
            raise ConvergenceFailureError(
                f"spectral reconstruction error {recon_err:.3e} exceeds {tol_recon:.1e}"
            )
        return cls(m, spectrum, eigenbasis)


@dataclass(frozen=True)
class Subspace:
    """A linear subspace given by an isometry: orthonormal columns spanning it.

    Build through :meth:`from_vectors` to validate frame orthonormality.
    """

    frame: np.ndarray

    def __post_init__(self):
        f = np.asarray(self.frame, dtype=np.complex128)
        if f.ndim == 1:
            f = f.reshape(-1, 1)
        object.__setattr__(self, "frame", _freeze(f))

    @property
    def ambient_dim(self) -> int:
        return self.frame.shape[0]

    @property
    def dim(self) -> int:
        return self.frame.shape[1]

    def projector(self) -> np.ndarray:
        return self.frame @ self.frame.conj().T

    @classmethod
    def from_vectors(cls, frame, tol_ortho: float = TOL_ORTHO) -> "Subspace":
        f = np.asarray(frame, dtype=np.complex128)
        if f.ndim == 1:
            f = f.reshape(-1, 1)
        if f.shape[1] > f.shape[0]:
            raise DimensionMismatchError(
                f"frame has {f.shape[1]} vectors in ambient dimension {f.shape[0]}"
            )
        defect = orthonormality_defect(f)
        if defect > tol_ortho:
            raise NotOrthonormalError(
                f"max |<v_i|v_j> - delta_ij| = {defect:.3e} exceeds {tol_ortho:.1e}"
            )
        return cls(f)


def _matrix_of(rho) -> np.ndarray:
    if isinstance(rho, DensityMatrix):
        return rho.matrix
    return _square_complex(rho, "state")


def validate_density(
    m,
    tol_herm: float = TOL_HERM,
    tol_trace: float = TOL_TRACE,
    tol_psd: float = TOL_PSD,
) -> DensityMatrix:
    """Check the three density-matrix invariants and wrap the input.

    Raises NotHermitianError, TraceNotOneError or NotPSDError, each naming
    the offending magnitude.
    """
    m = _square_complex(m, "state")
    defect = hermiticity_defect(m)
    if defect > tol_herm:
        raise NotHermitianError(f"max |M - M^H| = {defect:.3e} exceeds {tol_herm:.1e}")
    trace_defect = abs(complex(np.trace(m)) - 1.0)
    if trace_defect > tol_trace:
        raise TraceNotOneError(f"|tr M - 1| = {trace_defect:.3e} exceeds {tol_trace:.1e}")
    try:
        smallest = float(np.linalg.eigvalsh(m).min())
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailureError(f"eigvalsh failed: {exc}") from exc
    if smallest < -tol_psd:
        raise NotPSDError(f"smallest eigenvalue {smallest:.3e} below -{tol_psd:.1e}")
    return DensityMatrix(m)


def hermitian_eigendecomposition(a, tol_herm: float = TOL_HERM):
    """Ascending spectrum and one orthonormal eigenbasis of a Hermitian matrix.

    A degenerate spectrum makes the eigenbasis non-unique; whichever basis the
    solver produces is returned, and downstream statements hold for any choice.
    """
    if isinstance(a, HermitianObservable):
        return a.spectrum, a.eigenbasis
    m = _square_complex(a, "operator")
    defect = hermiticity_defect(m)
    if defect > tol_herm:
        raise NotHermitianError(f"max |A - A^H| = {defect:.3e} exceeds {tol_herm:.1e}")
    try:
        w, v = np.linalg.eigh(m)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailureError(f"eigh failed to converge: {exc}") from exc
    return _freeze(w), OrthonormalBasis(v)


def operator_norm(m) -> float:
    """Largest singular value."""
    return float(np.linalg.norm(np.asarray(m, dtype=np.complex128), 2))


def von_neumann_entropy(rho) -> float:
    """-sum(lambda ln lambda) in nats, with 0 ln 0 = 0.

    Eigenvalues are clamped to [0, 1] before the log; solver jitter within
    the PSD tolerance otherwise produces NaNs at the boundary.
    """
    w = np.linalg.eigvalsh(_matrix_of(rho))
    w = np.clip(w, 0.0, 1.0)
    w = w[w > 0.0]
    return float(-(w * np.log(w)).sum())


def purity(rho) -> float:
    """tr(rho^2), in [1/n, 1] for a valid state."""
    m = _matrix_of(rho)
    # For Hermitian rho, tr(rho^2) = sum |rho_ij|^2.
    return float(np.vdot(m, m).real)
