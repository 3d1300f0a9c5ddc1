"""Weighted spectrum, spectral radius, numerical range, and boundary demos.

Everything here reads the two compressions of a member X to the range of the
weight from the seminorm module: C = Q* X Q and its similar form
M = L^(1/2) C L^(-1/2), with Q the range basis and L the retained eigenvalues.
lam is a point of the weighted spectrum iff lam - C fails the rank test,
sigma_min(C - lam) <= cutoff(sigma_max(C)), which at lam = 0 is the test that
decides invertibility.  That one test groups the eigenvalues of C into points,
picks the witness candidates and rejects approach values.  The numerical range
{f(AX)} is the ordinary numerical range of M, computed by support functions:
each direction is one Hermitian eigenproblem of size rank, and an antipodal
pair of directions shares one, since the problem at theta + pi is the
negative of the problem at theta.  Witnesses are found from the null singular
vectors of C - lam and verified on g = Q* h, since f(AZ) = g* L C_Z g /
<A h, h> for members Z; the boundary mollifier inverts lam_n - C.  Only
returned states and inverses are lifted to n x n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import takewhile
from typing import Literal

import numpy as np

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


def _cutoff(c: ComplexMatrix, tol: ToleranceConfig) -> float:
    """The cutoff of sigma_max(C), which every point test compares sigma_min(C - lam) with."""
    return tol.cutoff(float(np.linalg.svd(c, compute_uv=False).max(initial=0.0)))


def _shifted_svals(c: ComplexMatrix, lam: complex) -> np.ndarray:
    """Singular values of C - lam, descending."""
    return np.linalg.svd(c - lam * np.eye(len(c)), compute_uv=False)


def _is_point(svals: np.ndarray, cut: float) -> bool:
    """The one spectral decision, from the singular values of C - lam and the cutoff of sigma_max(C):
    lam is a point iff sigma_min(C - lam) <= cut.  Never at rank 0; at lam = 0 it decides invertibility."""
    return svals.size > 0 and bool(svals[-1] <= cut)


def _spectrum(d: PsdDecomposition, x: ComplexMatrix, tol: ToleranceConfig) -> ASpectrumResult:
    """Spectrum of a member: the eigenvalues of C, grouped by the rank test of lam - C.

    In (Re, Im) order each eigenvalue joins its nearest group when the grown
    group's centroid is a point, and otherwise starts a new group.  When 0 is
    a point it anchors a group that is reported as exactly 0.  The svd of a
    centroid's shift is skipped when the Bauer-Fike bound
    sigma_min(C - mu) >= dist(mu, eig(C)) / cond(V), with V the eigenvectors,
    already clears the cutoff by more than a rounding margin.
    """
    c = range_compression(d, x)
    svals = np.linalg.svd(c, compute_uv=False)
    cut = tol.cutoff(float(svals.max(initial=0.0)))
    contains_zero = _is_point(svals, cut)
    groups: list[list[complex]] = [[0j]] if contains_zero else []
    centroids: list[complex] = [0j] if contains_zero else []
    if d.rank:
        evals, evecs = np.linalg.eig(c)
        v_svals = np.linalg.svd(evecs, compute_uv=False)
        inv_cond = float(v_svals[-1] / v_svals[0])  # the columns of V are unit vectors, so v_svals[0] >= 1
        clear = cut + 8 * d.rank * np.finfo(float).eps * float(svals[0])
        for z in sorted((complex(w) for w in evals), key=lambda w: (w.real, w.imag)):
            if centroids:
                k = min(range(len(centroids)), key=lambda i: abs(centroids[i] - z))
                grown = complex(np.mean(groups[k] + [z]))
                if np.abs(evals - grown).min() * inv_cond <= clear and _is_point(_shifted_svals(c, grown), cut):
                    groups[k].append(z)
                    centroids[k] = grown
                    continue
            groups.append([z])
            centroids.append(z)
    points = sorted([0j] * contains_zero + centroids[contains_zero:], key=lambda w: (w.real, w.imag))
    return ASpectrumResult(points=tuple(points), radius=max(map(abs, points), default=0.0), contains_zero=contains_zero)


def a_spectrum(d: PsdDecomposition, x: ComplexMatrix, tol: ToleranceConfig = DEFAULT_TOL) -> ASpectrumResult:
    """Weighted spectrum of a member X.

    The points are the lam at which lam - C, for the compression C = Q* X Q,
    fails the rank test sigma_min(C - lam) <= cutoff(sigma_max(C)).  They are
    found as groups of eigenvalues of C; 0 is tested directly and reported
    exactly.  Left and right variants coincide with this set in finite
    dimensions.
    """
    return _spectrum(d, _require_member(d, x, tol), tol)


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

    One svd of C - lam decides that lam is a point (else ValueError) and
    supplies the candidates: the singular vectors whose singular values pass
    the cutoff, most singular first.  Every candidate is h = Q g for a unit
    range vector g.  Right side: g = L^(-1) v for a left singular vector v,
    so X*(A h) = conj(lam) (A h), which makes f(A (X - lam) Y) vanish for
    every Y.  Left side: g is a right singular vector, so C g = lam g, which
    forces f(X*AX) = |f(AX)|^2 with f(AX) = lam.  The returned state is
    verified against its side's multiplicativity identity and spot-checked on
    random members; None is returned when no searched vector state verifies
    (an outcome, not an error).
    """
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    x = _require_member(d, x, tol)
    c = range_compression(d, x)
    cut = _cutoff(c, tol)
    u, svals, vh = np.linalg.svd(c - lam * np.eye(d.rank))
    if not _is_point(svals, cut):
        raise ValueError(f"{lam} is not a point of the weighted spectrum")
    lam_r = d.range_eigvals
    rng = np.random.default_rng(2024)
    for idx in np.flatnonzero(svals <= cut)[::-1]:
        # (C - lam) g = 0 on the left, (C - lam)* L g = 0 on the right; a nonzero range
        # vector, so <A h, h> = g* L g >= gap > 0
        g = vh[idx].conj() if side == "left" else u[:, idx] / lam_r
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
    rank x rank compressions, and only x_n is lifted.  lam and each approach
    value are put to the rank test of the spectrum: ValueError if lam is not
    a point, SpectrumPointError if an approach value is one.
    """
    x = _require_member(d, x, tol)
    c = range_compression(d, x)
    cut = _cutoff(c, tol)
    if not _is_point(_shifted_svals(c, lam), cut):
        raise ValueError(f"{lam} is not a point of the weighted spectrum")
    eye = np.eye(d.rank)
    shift = lam * eye - c
    q = d.range_basis
    steps: list[MollifierStep] = []
    for lam_n in approach:
        if _is_point(_shifted_svals(c, lam_n), cut):
            raise SpectrumPointError(f"approach value {lam_n} lies on the spectrum")
        inverse = np.linalg.inv(lam_n * eye - c)
        r_n = inverse / range_seminorm(d, inverse)
        steps.append(
            MollifierStep(
                x_n=q @ r_n @ q.conj().T,
                left_defect=range_seminorm(d, r_n @ shift),
                right_defect=range_seminorm(d, shift @ r_n),
            )
        )
    return steps
