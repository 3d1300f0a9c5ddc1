"""Weighted spectrum, spectral radius, numerical range, and boundary demos.

Everything here reads the two compressions of a member X to the range of the
weight from the seminorm module: C = Q* X Q and its similar form
M = L^(1/2) C L^(-1/2), with Q the range basis and L the retained eigenvalues.
Away from zero the weighted spectrum is the set of eigenvalues of C; membership
of zero is decided by the rank test on the singular values of C, never by the
eigensolver.  The numerical range {f(AX)} is the ordinary numerical range of
M, computed by support functions: each direction is one Hermitian eigenproblem
of size rank, and an antipodal pair of directions shares one, since the
problem at theta + pi is the negative of the problem at theta.  Witnesses are
found from eigenvectors of M and C* and verified on g = Q* h, since
f(AZ) = g* L C_Z g / <A h, h> for members Z; the boundary mollifier inverts
lam_n - C.  Only returned states and inverses are lifted to n x n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import takewhile
from typing import Literal

import numpy as np

from .invert import _inverse_compression, _nonsingular
from .linalg import DEFAULT_TOL, ComplexMatrix, ToleranceConfig
from .psd import PsdDecomposition
from .seminorm import VectorState, _require_member, compressed, range_compression, range_seminorm


class SpectrumPointError(ValueError):
    """An approach value sits on the spectrum, so no inverse exists there."""


@dataclass(frozen=True)
class ASpectrumResult:
    """Finite spectrum with its radius; points sorted by (Re, Im)."""

    points: tuple[complex, ...]
    radius: float
    contains_zero: bool


@dataclass(frozen=True)
class NumericalRangePolygon:
    """Support-function approximation of the weighted numerical range.

    ``vertices`` is the convex hull of the touching points (inner polygon,
    counterclockwise).  ``angles`` and ``support`` hold the outer half-plane
    data: the true range satisfies Re(z e^{-i angle_k}) <= support_k for all k.
    """

    directions: int
    vertices: tuple[complex, ...]
    angles: tuple[float, ...]
    support: tuple[float, ...]

    def contains(self, z: complex, slack: float) -> bool:
        """Membership in the outer half-plane intersection, within slack."""
        reach = (z * np.exp(-1j * np.asarray(self.angles))).real
        return bool(np.all(reach <= np.asarray(self.support) + slack))


@dataclass(frozen=True)
class MollifierStep:
    """One approach step: normalized approximate inverse and its two defect seminorms."""

    x_n: ComplexMatrix
    left_defect: float
    right_defect: float


def _cluster(values, radius: float) -> list[complex]:
    """Greedy centroid clustering of complex points within the given radius.

    Each cluster's centroid is kept next to its members and recomputed only
    when the cluster grows.
    """
    members: list[list[complex]] = []
    centroids: list[complex] = []
    for z in sorted(values, key=lambda w: (w.real, w.imag)):
        for k, centroid in enumerate(centroids):
            if abs(z - centroid) <= radius:
                members[k].append(z)
                centroids[k] = np.mean(members[k])
                break
        else:
            members.append([z])
            centroids.append(np.mean(members[-1]))
    return sorted((complex(c) for c in centroids), key=lambda w: (w.real, w.imag))


def _spectrum(d: PsdDecomposition, x: ComplexMatrix, tol: ToleranceConfig) -> tuple[ASpectrumResult, float]:
    """Spectrum of a member, with the cluster radius rtol * sigma_max(C) (= rtol * ||P X||_2) its points
    were merged at; the same singular values of C decide zero."""
    c = range_compression(d, x)
    svals = np.linalg.svd(c, compute_uv=False)
    radius = tol.rtol * float(svals.max(initial=0.0))
    points = _cluster([complex(z) for z in np.linalg.eigvals(c) if abs(z) > radius], radius)
    contains_zero = not _nonsingular(svals, tol)
    if contains_zero:
        points.append(0j)
    points = sorted(points, key=lambda w: (w.real, w.imag))
    r = max((abs(z) for z in points), default=0.0)
    return ASpectrumResult(points=tuple(points), radius=float(r), contains_zero=contains_zero), radius


def _on_spectrum(z: complex, spec: ASpectrumResult, radius: float) -> bool:
    return any(abs(z - p) <= radius for p in spec.points)


def a_spectrum(d: PsdDecomposition, x: ComplexMatrix, tol: ToleranceConfig = DEFAULT_TOL) -> ASpectrumResult:
    """Weighted spectrum of a member X.

    Nonzero part: clustered eigenvalues of the compression C = Q* X Q.
    Zero membership: the compression rank test of the invertibility module.
    Left and right variants coincide with this set in finite dimensions.
    """
    return _spectrum(d, _require_member(d, x, tol), tol)[0]


def a_spectral_radius(d: PsdDecomposition, x: ComplexMatrix, tol: ToleranceConfig = DEFAULT_TOL) -> float:
    """Largest point modulus of the weighted spectrum (eigenvalue route)."""
    return a_spectrum(d, x, tol).radius


def gelfand_sequence(
    d: PsdDecomposition,
    x: ComplexMatrix,
    n_max: int,
    tol: ToleranceConfig = DEFAULT_TOL,
) -> list[float]:
    """Root-norm sequence of the compressed powers: the n-th entry is the
    seminorm of X^n raised to 1/n.

    Runs on the compression of X with per-step norm rescaling (log-scale
    bookkeeping), so powers never overflow even for radius above 1.  The
    sequence is bounded below by the spectral radius and converges to it.
    """
    if n_max < 1:
        raise ValueError("n_max must be positive")
    x = _require_member(d, x, tol)
    if d.rank == 0:
        return [0.0] * n_max
    w = compressed(d, x)
    terms: list[float] = []
    cur = np.eye(d.rank, dtype=np.complex128)
    log_scale = 0.0
    dead = False
    for n in range(1, n_max + 1):
        if not dead:
            cur = cur @ w
            nrm = float(np.linalg.norm(cur, 2))
            if nrm == 0.0:
                dead = True
            else:
                log_scale += np.log(nrm)
                cur = cur / nrm
        terms.append(0.0 if dead else float(np.exp(log_scale / n)))
    return terms


Side = Literal["left", "right"]


def spectrum_witness(
    d: PsdDecomposition,
    x: ComplexMatrix,
    lam: complex,
    side: Side,
    tol: ToleranceConfig = DEFAULT_TOL,
    spot_checks: int = 20,
) -> VectorState | None:
    """Vector state certifying that lam belongs to the requested one-sided spectrum.

    Every candidate is h = Q g for a unit range vector g, found in rank x
    rank.  Right side: g = L^(-1) v for an eigenvector v of C*, so
    X*(A h) = conj(lam) (A h), which makes f(A (X - lam) Y) vanish for every
    Y.  Left side: g = L^(-1/2) u for an eigenvector u of M, which forces
    f(X*AX) = |f(AX)|^2 with f(AX) = lam.  The returned state is verified
    against its side's multiplicativity identity and spot-checked on random
    members; None is returned when no searched vector state verifies (an
    outcome, not an error).
    """
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    x = _require_member(d, x, tol)
    spec, radius = _spectrum(d, x, tol)
    if not _on_spectrum(lam, spec, radius):
        raise ValueError(f"{lam} is not a point of the weighted spectrum")
    if d.rank == 0:
        return None
    lam_r = d.range_eigvals
    if side == "left":
        evals, evecs = np.linalg.eig(compressed(d, x))
        target, back = lam, lam_r**-0.5
    else:
        evals, evecs = np.linalg.eig(range_compression(d, x).conj().T)
        target, back = np.conj(lam), lam_r**-1.0
    rng = np.random.default_rng(2024)
    order = np.argsort(np.abs(evals - target))
    for idx in order:
        if abs(evals[idx] - target) > radius:
            break
        # a nonzero range vector, so <A h, h> = g* L g >= gap > 0
        g = back * evecs[:, idx]
        g = g / np.linalg.norm(g)
        state = VectorState(h=d.range_basis @ g, weight=float(lam_r @ np.abs(g) ** 2))
        if _verify_witness(d, x, lam, side, state, tol, spot_checks, rng):
            return state
    return None


def _verify_witness(
    d: PsdDecomposition,
    x: ComplexMatrix,
    lam: complex,
    side: Side,
    state: VectorState,
    tol: ToleranceConfig,
    spot_checks: int,
    rng: np.random.Generator,
) -> bool:
    """Side identities and spot checks of a candidate state, each against rtol times the size of its terms.

    Everything runs in rank x rank on g = Q* h.  For members Q* Z (I - P) = 0,
    so f(AZ) = g* L C_Z g / w with w = <A h, h> and C_Z = Q* Z Q, and the
    compression of a product of members is the product of compressions.  The
    left identity reads f(X*AX) = (Cg)* L (Cg) / w; the right identities read
    f(AXX*A) = |C* L g|^2 / w, f(AX*A) = (Lg)* C* (Lg) / w and
    f(A^2) = |Lg|^2 / w.  Each spot check draws C_Y as a rank x rank complex
    Gaussian, the distribution of Q* Y Q for a random member Y.

    Every state has |f(AZ)| <= ||Z||_A, which sizes the left identity and the
    spot checks.  With f(A^2) <= lambda_max(A), every term of the right
    identities (f(AXX*A), f(AX) f(AX*A), |f(AX)|^2 f(A^2)) is at most
    big = lambda_max(A) ||X||_A^2, which also sizes their rounding when h
    leans on small eigenvalues.  Every bound scales with A and X; no
    absolute floor enters.
    """
    lam_r = d.range_eigvals
    c = range_compression(d, x)
    g = d.range_basis.conj().T @ state.h
    lg = lam_r * g

    def f(cz: ComplexMatrix) -> complex:
        """f(AZ) for the member Z whose compression is cz."""
        return complex(lg.conj() @ (cz @ g)) / state.weight

    x_norm = range_seminorm(d, c)
    fax = f(c)
    if abs(fax - lam) > tol.rtol * x_norm:
        return False
    if side == "left":
        fxax = float(lam_r @ np.abs(c @ g) ** 2) / state.weight
        if abs(fxax - abs(fax) ** 2) > tol.rtol * x_norm**2:
            return False
    else:
        faxxa = float(np.linalg.norm(c.conj().T @ lg)) ** 2 / state.weight
        faxa = complex(lg.conj() @ (c.conj().T @ lg)) / state.weight
        fa2 = float(np.linalg.norm(lg)) ** 2 / state.weight
        big = float(d.eigvals.max()) * x_norm**2
        if abs(faxxa - fax * faxa) > tol.rtol * big:
            return False
        if abs(fax * faxa - abs(fax) ** 2 * fa2) > tol.rtol * big:
            return False
    shift = c - lam * np.eye(d.rank)
    shape = (d.rank, d.rank)
    for _ in range(spot_checks):
        cy = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2)
        # val = f(AXY) - lam f(AY) on the right (f(AYX) - lam f(AY) on the left),
        # a difference of terms bounded by ||X||_A ||Y||_A and |lam| ||Y||_A
        val = f(shift @ cy) if side == "right" else f(cy @ shift)
        if abs(val) > tol.rtol * (x_norm + abs(lam)) * range_seminorm(d, cy):
            return False
    return True


def convex_hull(points: list[complex], eps: float) -> list[complex]:
    """Monotone-chain hull, counterclockwise, robust to coincident and collinear points.

    eps is a length: points within eps of each other are merged, and a chain
    point within eps of the chord from its predecessor to the next point, or
    beyond it, is dropped.  Scaling the points and eps together scales the hull.
    """
    uniq: list[complex] = []
    for z in sorted(points, key=lambda w: (w.real, w.imag)):
        if not uniq or abs(z - uniq[-1]) > eps:
            uniq.append(z)
    dedup: list[complex] = []
    for z in uniq:
        # dedup is sorted by real part, so only its tail within eps of z.real can lie within eps of z
        window = takewhile(lambda w: z.real - w.real <= eps, reversed(dedup))
        if all(abs(z - w) > eps for w in window):
            dedup.append(z)
    if len(dedup) <= 2:
        return dedup

    def cross(o: complex, p: complex, q: complex) -> float:
        return (p.real - o.real) * (q.imag - o.imag) - (p.imag - o.imag) * (q.real - o.real)

    lower: list[complex] = []
    for z in dedup:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], z) <= eps * abs(z - lower[-2]):
            lower.pop()
        lower.append(z)
    upper: list[complex] = []
    for z in reversed(dedup):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], z) <= eps * abs(z - upper[-2]):
            upper.pop()
        upper.append(z)
    hull = lower[:-1] + upper[:-1]
    return hull if len(hull) >= 2 else dedup[:1]


def _support_data(m: ComplexMatrix, directions: int) -> tuple[list[float], list[float], list[complex]]:
    """Angles, support values and touching points of the numerical range of M.

    H(theta) = cos(theta) Re M + sin(theta) Im M is the Hermitian part of
    e^{-i theta} M; its top eigenvalue is the support value at theta and
    u* M u at its unit eigenvector u is the touching point.  Since
    H(theta + pi) = -H(theta), the bottom eigenpair of the same eigh serves
    the antipodal direction, so an even grid takes directions / 2 eighs.
    """
    re_m = (m + m.conj().T) / 2
    im_m = (m - m.conj().T) / 2j
    paired = directions % 2 == 0
    half = directions // 2 if paired else directions
    angles = [2 * np.pi * k / directions for k in range(directions)]
    support = [0.0] * directions
    touch = [0j] * directions
    for k in range(half):
        vals, vecs = np.linalg.eigh(math.cos(angles[k]) * re_m + math.sin(angles[k]) * im_m)
        u = vecs[:, -1]
        support[k], touch[k] = float(vals[-1]), complex(np.vdot(u, m @ u))
        if paired:
            u = vecs[:, 0]
            support[k + half], touch[k + half] = -float(vals[0]), complex(np.vdot(u, m @ u))
    return angles, support, touch


def a_numerical_range(
    d: PsdDecomposition,
    x: ComplexMatrix,
    directions: int,
    tol: ToleranceConfig = DEFAULT_TOL,
) -> NumericalRangePolygon:
    """Polygonal approximation of the weighted numerical range {f(AX)}.

    For a range vector h = Q L^(-1/2) u, f(AX) = u* M u / |u|^2, so this is
    the ordinary numerical range of M.  Each direction theta reads one
    eigenpair of the Hermitian part of e^{-i theta} M: the top eigenvalue is
    the support value (outer data) and u* M u at its unit eigenvector u is
    the touching point (inner hull vertex).  An antipodal pair of directions
    shares one eigh, so an even number of directions costs directions / 2
    eighs of size rank.  The hull merges touching points within rtol times
    their spread, so the polygon scales with X.
    """
    if directions < 3:
        raise ValueError("directions must be at least 3")
    x = _require_member(d, x, tol)
    if d.rank == 0:
        return NumericalRangePolygon(directions=directions, vertices=(), angles=(), support=())
    angles, support, touch = _support_data(compressed(d, x), directions)
    spread = max((abs(z) for z in touch), default=0.0)
    hull = convex_hull(touch, eps=tol.rtol * spread)
    return NumericalRangePolygon(
        directions=directions,
        vertices=tuple(hull),
        angles=tuple(angles),
        support=tuple(support),
    )


def boundary_mollifier(
    d: PsdDecomposition,
    x: ComplexMatrix,
    lam: complex,
    approach: list[complex],
    tol: ToleranceConfig = DEFAULT_TOL,
) -> list[MollifierStep]:
    """Normalized approximate inverses along an approach to a spectrum point.

    For each approach value the canonical inverse of (value - X), which is
    Q (value - C)^(-1) Q*, is built and normalized to unit seminorm; the two
    defect seminorms of the normalized inverse against (lam - X) tend to zero
    along a valid approach.  Inverse, seminorm and defects are read off
    rank x rank compressions, and only x_n is lifted.  Raises
    SpectrumPointError if an approach value lies on the spectrum.
    """
    x = _require_member(d, x, tol)
    spec, radius = _spectrum(d, x, tol)
    if not _on_spectrum(lam, spec, radius):
        raise ValueError(f"{lam} is not a point of the weighted spectrum")
    c = range_compression(d, x)
    eye = np.eye(d.rank)
    shift = lam * eye - c
    q = d.range_basis
    steps: list[MollifierStep] = []
    for lam_n in approach:
        if _on_spectrum(lam_n, spec, radius):
            raise SpectrumPointError(f"approach value {lam_n} lies on the spectrum")
        inverse = _inverse_compression(lam_n * eye - c, tol)
        if inverse is None:
            raise SpectrumPointError(f"approach value {lam_n} is not invertible against the weight")
        r_n = inverse / range_seminorm(d, inverse)
        steps.append(
            MollifierStep(
                x_n=q @ r_n @ q.conj().T,
                left_defect=range_seminorm(d, r_n @ shift),
                right_defect=range_seminorm(d, shift @ r_n),
            )
        )
    return steps
