"""Dense complex linear algebra core.

Validated domain types (density matrices, orthonormal bases, Hermitian
observables, subspaces) and the spectral quantities built on them: Hermitian
eigendecomposition, entropies of spectra, purity.  A state argument enters
the package through as_density alone.

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
# hundred.  The hermiticity and reconstruction checks scale with
# max(1, max |A|), and reconstruction checks with the dimension too.
TOL_HERM = 1e-10
TOL_ORTHO = 1e-10
TOL_TRACE = 1e-10
TOL_PSD = 1e-9
RECON_SCALE = 1e-9


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a, order="C")
    a.setflags(write=False)
    return a


def _check_finite(a: np.ndarray, name: str) -> None:
    finite = np.isfinite(a)
    if not finite.all():
        raise NotFiniteError(f"{name} has {int((~finite).sum())} NaN or infinite entries")


def _square_complex(m, name: str = "matrix") -> np.ndarray:
    """Coerce to a nonempty square, finite complex128 array; the shared validation entry."""
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim != 2 or not a.shape[0] == a.shape[1] >= 1:
        raise DimensionMismatchError(f"{name} must be square with n >= 1, got shape {a.shape}")
    _check_finite(a, name)
    return a


def orthonormality_defect(u: np.ndarray) -> float:
    """Largest entrywise deviation of u^H u from the identity."""
    k = u.shape[1]
    return float(np.abs(u.conj().T @ u - np.eye(k)).max())


def _entry_scale(m: np.ndarray) -> np.ndarray:
    """max(1, max |m_ij|) per matrix of a (..., n, n) stack."""
    return np.maximum(1.0, np.abs(m).max(axis=(-2, -1), initial=0.0))


def _checked_hermitian(m, name: str, symbol: str) -> np.ndarray:
    m = _square_complex(m, name)
    defect = float(np.abs(m - m.conj().T).max())
    tol = TOL_HERM * float(_entry_scale(m))
    if defect > tol:
        raise NotHermitianError(
            f"max |{symbol} - {symbol}^H| = {defect:.3e} exceeds {tol:.1e}"
        )
    return m


def _check_orthonormal(u: np.ndarray) -> None:
    defect = orthonormality_defect(u)
    if not defect <= TOL_ORTHO:  # a NaN defect fails too
        raise NotOrthonormalError(
            f"max |<v_i|v_j> - delta_ij| = {defect:.3e} exceeds {TOL_ORTHO:.1e}"
        )


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
        """Rank-one projector |v><v| for v normalized, of nonzero finite norm."""
        v = np.asarray(vector, dtype=np.complex128).reshape(-1)
        if not 0.0 < (norm := np.linalg.norm(v)) < np.inf:  # NaN fails every comparison
            raise ValueError(f"a pure state needs a vector of nonzero finite norm, got {norm}")
        v = v / norm
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

    @classmethod
    def from_columns(cls, u) -> "OrthonormalBasis":
        u = _square_complex(u, "basis")
        _check_orthonormal(u)
        return cls(u)

    @classmethod
    def standard(cls, n: int) -> "OrthonormalBasis":
        return cls(np.eye(n, dtype=np.complex128))


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
    def from_matrix(cls, m) -> "HermitianObservable":
        m = _checked_hermitian(m, "observable", "A")
        spectrum, v = checked_eigh(m)
        return cls(m, spectrum, OrthonormalBasis(v))


@dataclass(frozen=True)
class Subspace:
    """A linear subspace given by an isometry: orthonormal columns spanning it.

    Build through :meth:`from_vectors` to validate frame orthonormality.
    """

    frame: np.ndarray

    def __post_init__(self):
        f = np.asarray(self.frame, dtype=np.complex128)
        object.__setattr__(self, "frame", _freeze(f.reshape(-1, 1) if f.ndim == 1 else f))

    @property
    def ambient_dim(self) -> int:
        return self.frame.shape[0]

    @property
    def dim(self) -> int:
        return self.frame.shape[1]

    @classmethod
    def from_vectors(cls, frame) -> "Subspace":
        f = (sub := cls(frame)).frame
        if f.ndim != 2 or not 1 <= f.shape[1] <= f.shape[0]:
            raise DimensionMismatchError(
                f"frame must hold 1 <= k <= n vectors of dimension n, got shape {f.shape}"
            )
        _check_finite(f, "frame")
        _check_orthonormal(f)
        return sub


def validate_density(m) -> DensityMatrix:
    """Check the three density-matrix invariants and wrap the input.

    Raises NotHermitianError, TraceNotOneError or NotPSDError, each naming
    the offending magnitude.
    """
    m = _checked_hermitian(m, "state", "M")
    trace_defect = abs(complex(np.trace(m)) - 1.0)
    if trace_defect > TOL_TRACE:
        raise TraceNotOneError(f"|tr M - 1| = {trace_defect:.3e} exceeds {TOL_TRACE:.1e}")
    try:
        smallest = float(np.linalg.eigvalsh(m).min())
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailureError(f"eigvalsh failed: {exc}") from exc
    if smallest < -TOL_PSD:
        raise NotPSDError(f"smallest eigenvalue {smallest:.3e} below -{TOL_PSD:.1e}")
    return DensityMatrix(m)


def as_density(rho) -> DensityMatrix:
    """rho if a DensityMatrix, else validate_density(rho): how a state enters."""
    return rho if isinstance(rho, DensityMatrix) else validate_density(rho)


def as_observable(a) -> HermitianObservable:
    """a if a HermitianObservable, else HermitianObservable.from_matrix(a)."""
    return a if isinstance(a, HermitianObservable) else HermitianObservable.from_matrix(a)


def _eigh(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    try:
        return np.linalg.eigh(m)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailureError(f"eigh failed to converge: {exc}") from exc


def hermitian_eigendecomposition(a):
    """Ascending spectrum and one orthonormal eigenbasis of a Hermitian matrix.

    A degenerate spectrum makes the eigenbasis non-unique; whichever basis the
    solver produces is returned, and downstream statements hold for any choice.
    A matrix goes through HermitianObservable.from_matrix and its checks.
    """
    obs = as_observable(a)
    return obs.spectrum, obs.eigenbasis


def checked_eigh(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ascending spectra and eigenbases (columns) of a trusted (..., n, n)
    Hermitian stack; ConvergenceFailureError unless each reconstructs its
    matrix A within RECON_SCALE * n * max(1, max |A|)."""
    w, v = _eigh(m)
    recon = (v * w[..., None, :]) @ np.swapaxes(v.conj(), -1, -2)
    err = np.abs(recon - m).max(axis=(-2, -1), initial=0.0)
    tol = RECON_SCALE * m.shape[-1] * _entry_scale(m)
    excess = err / tol
    if (excess > 1.0).any():
        worst = excess.argmax()
        raise ConvergenceFailureError(
            f"spectral reconstruction error {err.flat[worst]:.3e} exceeds {tol.flat[worst]:.1e}"
        )
    return w, v


def entropies(p: np.ndarray) -> np.ndarray:
    """-sum(p ln p) over the last axis of stacked spectra, with 0 ln 0 = 0.

    Values are clamped to [0, 1] before the log; solver jitter within the
    PSD tolerance otherwise produces NaNs at the boundary.
    """
    p = np.clip(p, 0.0, 1.0)
    return -(p * np.log(np.where(p > 0.0, p, 1.0))).sum(axis=-1)


def purity(rho) -> float:
    """tr(rho^2), in [1/n, 1] for a valid state."""
    m = as_density(rho).matrix
    # For Hermitian rho, tr(rho^2) = sum |rho_ij|^2.
    return float(np.vdot(m, m).real)
