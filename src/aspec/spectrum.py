"""Weighted spectrum, spectral radius, numerical range, and boundary demos.

Everything here reads a seminorm.Member: the compression C of a member X to
the range of the weight, its similar form M, and the rank test of lam - C,
which at lam = 0 decides invertibility.  That one test groups the eigenvalues
of C into points, picks the witness candidates and rejects approach values.
The numerical range {f(AX)} is the ordinary numerical range of M, computed
by support functions: each direction is one Hermitian eigenproblem of size
rank, and an antipodal pair of directions shares one, since the problem at
theta + pi is the negative of the problem at theta.  Witnesses are found
from the null singular vectors of C - lam and verified on M: the state of
h = Q g is the ordinary state of M at u = L^(1/2) g.  f(AX) must be lam, and
f(A (X - lam) Y) (or f(A Y (X - lam))) must vanish for every Y, which is
checked by its supremum over ||Y||_A <= 1, |(M - lam)* u| / |u| (or
|(M - lam) u| / |u|), so no Y is drawn.  The boundary mollifier inverts
lam_n - M and takes its norms on M.  Only returned states and inverses are
lifted to n x n.

The numerical range and the Gelfand sequence solve many rank x rank problems
of one size.  They stack them into blocks of about _BLOCK_ENTRIES complex
entries and make one LAPACK call per block, so Python overhead is paid per
block, not per problem: a block holds 1024 problems at rank 2, 64 at rank 8
and one from rank 46 on, and memory stays flat at every rank.  The Gelfand
sequence reads each power's 2-norm as the root of the top eigenvalue of its
Gram matrix, one eigvalsh per block.  The numerical range hands its blocks
out one at a time, from one shared cursor, to one worker per CPU when the
BLAS runs one thread per call, since the stacked eigh releases the GIL;
small inputs start no thread.  Each block is formed and solved as in one
thread, so the results have the same bits at every worker count.
"""

from __future__ import annotations

import math
import os
import threading
from collections.abc import Callable
from dataclasses import dataclass
from itertools import takewhile
from typing import Literal

import numpy as np

from .linalg import DEFAULT_TOL, ComplexMatrix, ToleranceConfig, times_pow2, unit_scaled
from .psd import PsdDecomposition
from .seminorm import Member, VectorState, _is_point, _require_member


_BLOCK_ENTRIES = 4096  # complex entries per stacked array (64 KiB), so memory stays flat at every rank
# Hermitian entries (problems times rank^2) per numerical-range worker at least, so below twice this no thread
# starts.  On a 2-core x86 VM a stacked eigh costs 0.15-0.2 us per entry at ranks 4-64 and a thread's start
# and join about 0.05 ms, yet two workers lost to one below about 16k entries.
_WORKER_MIN_ENTRIES = 2 * _BLOCK_ENTRIES
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS")


def _block_size(rank: int) -> int:
    """Number of rank x rank items in one stacked block: as many as the entry budget holds, at least one."""
    return max(1, _BLOCK_ENTRIES // (rank * rank))


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


def a_spectrum(d: PsdDecomposition, x: ComplexMatrix, tol: ToleranceConfig = DEFAULT_TOL) -> ASpectrumResult:
    """Weighted spectrum of a member X.

    The points are the lam at which lam - C, for the compression C = Q* X Q,
    fails the rank test of Member.is_point.  They are the eigenvalues of C,
    grouped by that rank test: in (Re, Im) order each eigenvalue joins its
    nearest group when the grown group's centroid is a point, and otherwise
    starts a new group.  When 0 is a point it anchors a group that is
    reported as exactly 0.  The svd of a centroid's shift is skipped when the
    Bauer-Fike bound sigma_min(C - mu) >= dist(mu, eig(C)) / cond(V), with V
    the eigenvectors, already clears the cutoff by more than a rounding
    margin.  Left and right variants coincide with this set in finite
    dimensions.
    """
    member = _require_member(d, x, tol)
    c, cut = member.c, member.cut
    contains_zero = member.singular
    groups: list[list[complex]] = [[0j]] if contains_zero else []
    centroids: list[complex] = [0j] if contains_zero else []
    if d.rank:
        evals, evecs = np.linalg.eig(c)
        v_svals = np.linalg.svd(evecs, compute_uv=False)
        inv_cond = float(v_svals[-1] / v_svals[0])  # the columns of V are unit vectors, so v_svals[0] >= 1
        clear = cut + member.tol.rounding(d.rank, float(member.svals[0]))
        for z in sorted((complex(w) for w in evals), key=lambda w: (w.real, w.imag)):
            if centroids:
                k = min(range(len(centroids)), key=lambda i: abs(centroids[i] - z))
                grown = complex(np.mean(groups[k] + [z]))
                if np.abs(evals - grown).min() * inv_cond <= clear and member.is_point(grown):
                    groups[k].append(z)
                    centroids[k] = grown
                    continue
            groups.append([z])
            centroids.append(z)
    points = sorted([0j] * contains_zero + centroids[contains_zero:], key=lambda w: (w.real, w.imag))
    return ASpectrumResult(points=tuple(points), radius=max(map(abs, points), default=0.0), contains_zero=contains_zero)


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

    Runs on the similar form W of the compression.  X^n's form is kept as
    P_n 2^(E_n): P_n, from unit_scaled, has its largest entry modulus in
    [1/2, 1), and E_n is the integer sum of the exponents of the rescales of
    W and of each product.  Every rescale is by a power of two, so no power
    overflows or underflows, and the n-th term is
    exp(((E_n mod n) ln 2 + log ||P_n||) / n) 2^(E_n div n): under
    X -> 2^k X only E_n moves, by n k, so each term scales by exactly 2^k.
    The 2-norm of P_n is the square root of the top eigenvalue of its Gram
    matrix P_n* P_n, whose entries are at most rank, and the Gram matrices
    of a block of powers take one stacked eigvalsh, which needs no singular
    vectors and costs less than an svd.  A zero power, the one rescale with
    k = 0 and no nonzero entry, makes every later term 0.  The sequence is
    bounded below by the spectral radius and converges to it.
    """
    if n_max < 1:
        raise ValueError("n_max must be positive")
    member = _require_member(d, x, tol)
    if d.rank == 0:
        return [0.0] * n_max
    w, k_w = unit_scaled(member.m)
    step = min(_block_size(d.rank), n_max)
    block = np.empty((step, d.rank, d.rank), dtype=np.complex128)
    exps, norms = np.empty(n_max, dtype=np.int64), np.empty(n_max)
    cur = np.eye(d.rank, dtype=np.complex128)
    # n powers are nonzero (a zero one ends the run, as every later one vanishes too); E_n is total + n k_w
    n, zero, total = 0, False, 0
    while n < n_max and not zero:
        count = min(step, n_max - n)
        for j in range(count):
            cur, k = unit_scaled(cur @ w)
            if k == 0 and not cur.any():
                count, zero = j, True
                break
            total += k
            block[j], exps[n + j] = cur, total
        if count:
            powers = block[:count]
            gram = powers.conj().transpose(0, 2, 1) @ powers
            norms[n : n + count] = np.sqrt(np.linalg.eigvalsh(gram)[:, -1])
        n += count
    steps = np.arange(1, n + 1)
    whole, part = np.divmod(exps[:n], steps)  # E_n div n is this plus k_w, and E_n mod n is part
    return times_pow2(np.exp((part * math.log(2) + np.log(norms[:n])) / steps), whole + k_w).tolist() + [0.0] * (n_max - n)


Side = Literal["left", "right"]


def spectrum_witness(
    d: PsdDecomposition,
    x: ComplexMatrix,
    lam: complex,
    side: Side,
    tol: ToleranceConfig = DEFAULT_TOL,
) -> VectorState | None:
    """Vector state certifying that lam belongs to the requested one-sided spectrum.

    One svd of C - lam decides that lam is a point (else ValueError) and
    supplies the candidates: the singular vectors whose singular values pass
    the cutoff, most singular first.  Every candidate is h = Q g for a unit
    range vector g, scaled by unit_scaled before it is normalized.  Right
    side: g = L^(-1) v for a left singular vector v, so X*(A h) = conj(lam)
    (A h), which makes f(A (X - lam) Y) vanish for every Y.  Left side: g is
    a right singular vector, so C g = lam g, which forces f(X*AX) = |f(AX)|^2
    with f(AX) = lam.  Each candidate is verified on g by _verify_witness:
    f(AX) = lam, and the exact supremum of |f(A (X - lam) Y)| (right) or
    |f(A Y (X - lam))| (left) over ||Y||_A <= 1, which implies the side's
    multiplicativity identities; both are read on M at u = L^(1/2) g.  C, M
    and the seminorm of X are computed once for all candidates, and only the
    returned one is lifted to h.  None is returned when no searched vector
    state verifies (an outcome, not an error).
    """
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    member = _require_member(d, x, tol)
    u, svals, vh = np.linalg.svd(member.c - lam * np.eye(d.rank))
    if not _is_point(svals, member.cut):
        raise ValueError(f"{lam} is not a point of the weighted spectrum")
    lam_r = d.range_eigvals
    for idx in np.flatnonzero(svals <= member.cut)[::-1]:
        # (C - lam) g = 0 on the left, (C - lam)* L g = 0 on the right; a nonzero range
        # vector, so <A h, h> = g* L g >= gap > 0
        g = unit_scaled(vh[idx].conj() if side == "left" else u[:, idx] / lam_r)[0]
        g = g / np.linalg.norm(g)
        if _verify_witness(member, lam, side, g):
            return VectorState(h=d.range_basis @ g, weight=float(lam_r @ np.abs(g) ** 2))
    return None


def _scaled_witness(member: Member, lam: complex, side: Side, g: np.ndarray) -> tuple[float, float, int]:
    """(|f(AX) - lam| 2^-k, sup 2^-k, k) for the state f of h = Q g and (M 2^-k, k) = unit_scaled(M), where sup is
    the supremum over members Y with ||Y||_A <= 1 of |f(A (X - lam) Y)| (right) or |f(A Y (X - lam))| (left).

    f is the ordinary state of M at u = L^(1/2) g: f(AZ) = u* M_Z u / |u|^2
    for members Z, with M_Z the similar form of Z and ||Z||_A = ||M_Z||.
    The right value is ((M - lam)* u)* M_Y u / |u|^2 and the left one
    u* M_Y (M - lam) u / |u|^2.  The supremum of |a* D b| over ||D|| <= 1 is
    |a| |b|, so sup is |(M - lam)* u| / |u| on the right and
    |(M - lam) u| / |u| on the left.  All is read on M 2^-k, lam 2^-k and
    unit_scaled(u), so that no norm overflows or underflows.
    """
    m, k = unit_scaled(member.m)
    u, lam = unit_scaled(member.d.range_sqrt * g)[0], times_pow2(lam, -k)
    gap = abs(complex(u.conj() @ (m @ u)) / np.vdot(u, u).real - lam)
    m, mu = (m, lam) if side == "left" else (m.conj().T, np.conj(lam))
    return gap, float(np.linalg.norm(m @ u - mu * u) / np.linalg.norm(u)), k


def _verify_witness(member: Member, lam: complex, side: Side, g: np.ndarray) -> bool:
    """f(AX) = lam and the annihilation supremum for the state of h = Q g, each within rtol of its size.

    The state is that of M at u = L^(1/2) g, so f(AX) = u* M u / |u|^2.  |f(AX) - lam| must be at most
    rtol ||X||_A, and the supremum from _scaled_witness at most rtol (||X||_A + |lam|), all compared times
    the 2^-k of _scaled_witness.  That implies the side identities within the bound times ||Y||_A: Y = A
    gives f(AXA) = lam f(A^2) and Y = X*A gives f(AXX*A) = lam f(AX*A) on the right, and
    Y = (X - lam)^# gives f((X - lam)* A (X - lam)) = 0 on the left.
    """
    gap, sup, k = _scaled_witness(member, lam, side, g)
    rtol, x_norm = member.tol.rtol, times_pow2(member.norm, -k)
    return gap <= rtol * x_norm and sup <= rtol * (x_norm + times_pow2(abs(lam), -k))


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


def _worker_cpus() -> int:
    """CPUs the numerical range may keep busy at once.

    These are the CPUs this process may run on (its affinity where the
    platform reports one, else the machine's count) when the BLAS under
    numpy runs one thread per call, and one otherwise: a BLAS with threads
    of its own makes concurrent calls wait on its pool, and on 2 CPUs two
    threads of rank-64 eigh calls then took 1.5x as long as one thread.
    OpenBLAS, MKL and OpenMP read their thread count from the variables in
    _BLAS_THREAD_VARS when they load, and use every CPU when none is set.
    """
    caps = [os.environ[var] for var in _BLAS_THREAD_VARS if var in os.environ]
    if not caps or any(cap.strip() != "1" for cap in caps):
        return 1
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity outside Linux
        return os.cpu_count() or 1


def _run_workers(work: Callable[[], None], count: int) -> None:
    """work() on count workers at once: the calling thread and count - 1 threads of their own.

    Every started thread is joined before this returns or raises, so no
    worker outlives the call; an exception raised in a worker is re-raised
    here, after the joins.
    """
    errors: list[BaseException] = []

    def guarded() -> None:
        try:
            work()
        except BaseException as exc:  # handed to the calling thread, which re-raises it
            errors.append(exc)

    threads: list[threading.Thread] = []
    try:
        for _ in range(count - 1):
            thread = threading.Thread(target=guarded)
            thread.start()
            threads.append(thread)
        work()
    finally:
        for thread in threads:
            thread.join()
    if errors:
        raise errors[0]


def _support_data(m: ComplexMatrix, directions: int) -> tuple[list[float], list[float], list[complex]]:
    """Angles, support values and touching points of the numerical range of M.

    H(theta) = cos(theta) Re M + sin(theta) Im M is the Hermitian part of
    e^{-i theta} M; its top eigenvalue is the support value at theta and
    u* M u at its unit eigenvector u is the touching point.  Since
    H(theta + pi) = -H(theta), the bottom eigenpair of the same eigh serves
    the antipodal direction, so an even grid takes directions / 2 problems.
    They are solved a block at a time by one stacked eigh, and the touching
    points of a block at both ends come from one product of its eigenvector
    rows with M^T.  Each H(theta) gets the same bits as in an eigh of its
    own, so the support values equal those of one eigh per antipodal pair.

    The blocks go to workers, one per CPU of _worker_cpus, at most one per
    block and per _WORKER_MIN_ENTRIES entries: the calling thread and a
    thread each for the others, since the stacked eigh releases the GIL.
    Each worker takes the start of the next block from one shared cursor
    and writes that block's slices of the results itself, holding one
    block's arrays at a time.  Every block is formed and solved as in a
    single thread, so the outputs have the same bits at every worker count.
    One block, or fewer than 2 * _WORKER_MIN_ENTRIES entries in all, runs
    in the calling thread and starts no thread.
    """
    re_m = (m + m.conj().T) / 2
    im_m = (m - m.conj().T) / 2j
    paired = directions % 2 == 0
    half = directions // 2 if paired else directions
    thetas = 2 * np.pi * np.arange(half) / directions  # the bits of 2 pi k / directions
    # complex already, as the products with Re M and Im M would cast them
    cos = np.array([math.cos(t) for t in thetas.tolist()], dtype=np.complex128)[:, None, None]
    sin = np.array([math.sin(t) for t in thetas.tolist()], dtype=np.complex128)[:, None, None]
    del thetas  # not held while the workers run, which is where the memory peaks
    ends = [-1, 0] if paired else [-1]  # the top eigenpair serves theta, the bottom one theta + pi
    rank = len(m)
    step = _block_size(rank)  # Hermitian problems per eigh
    support = np.empty((len(ends), half))
    touch = np.empty((len(ends), half), dtype=np.complex128)
    m_t, ones = m.T, np.ones(rank, dtype=np.complex128)
    starts = range(0, half, step)
    cursor, lock = iter(starts), threading.Lock()

    def solve() -> None:
        """Fill support and touch for each block the cursor hands out, until it runs dry."""
        while True:
            with lock:
                lo = next(cursor, None)
            if lo is None:
                return
            hi = min(lo + step, half)
            h = cos[lo:hi] * re_m
            h += sin[lo:hi] * im_m
            vals, vecs = np.linalg.eigh(h)
            del h
            support[:, lo:hi] = vals[:, ends].T
            u = vecs.transpose(2, 0, 1)[ends]  # the unit eigenvector rows of each end
            del vals, vecs
            # u* M u for each row u: u @ M^T holds the vectors M u, and the product with ones sums each
            # row of conj(u) * (M u)
            mu = u @ m_t
            touch[:, lo:hi] = np.multiply(u.conj(), mu, out=mu) @ ones
            del u, mu

    workers = min(len(starts), half * rank * rank // _WORKER_MIN_ENTRIES)
    _run_workers(solve, min(workers, _worker_cpus()) if workers > 1 else 1)
    if paired:
        support[1] *= -1
    return (2 * np.pi * np.arange(directions) / directions).tolist(), support.ravel().tolist(), touch.ravel().tolist()


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
    shares one Hermitian eigenproblem, so an even number of directions costs
    directions / 2 problems of size rank, solved in stacked blocks of about
    4096 entries: 720 directions take one eigh at rank 2, 23 at rank 16 and
    360 from rank 46 on.  With a one-thread BLAS the blocks are solved on
    one worker per CPU, each worker taking the next block as it finishes
    one, from rank 7 at 720 directions; the polygon has the same bits at
    every worker count.  The hull merges touching points within rtol times
    their spread, so the polygon scales with X.
    """
    if directions < 3:
        raise ValueError("directions must be at least 3")
    member = _require_member(d, x, tol)
    if d.rank == 0:
        return NumericalRangePolygon(directions=directions, vertices=(), angles=(), support=())
    angles, support, touch = _support_data(member.m, directions)
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

    For each approach value the canonical inverse of (value - X) is normalized
    to unit seminorm; its two defect seminorms against (lam - X) tend to zero
    along a valid approach.  All runs on M: the inverse's similar form is
    (value - M)^(-1), each seminorm is a 2-norm on M, and only x_n is lifted.
    lam and each approach value are put to the rank test of the spectrum:
    ValueError if lam is not a point, SpectrumPointError if an approach value
    is one.
    """
    member = _require_member(d, x, tol)
    if not member.is_point(lam):
        raise ValueError(f"{lam} is not a point of the weighted spectrum")
    eye, m = np.eye(d.rank), member.m
    shift = lam * eye - m
    steps: list[MollifierStep] = []
    for lam_n in approach:
        if member.is_point(lam_n):
            raise SpectrumPointError(f"approach value {lam_n} lies on the spectrum")
        inverse = np.linalg.inv(lam_n * eye - m)
        r_n = inverse / np.linalg.norm(inverse, 2)
        left, right = (float(np.linalg.norm(p, 2)) for p in (r_n @ shift, shift @ r_n))
        steps.append(MollifierStep(x_n=d.lift(r_n), left_defect=left, right_defect=right))
    return steps
