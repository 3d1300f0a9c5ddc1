"""Randomized property suite: seeded instances, theorem invariants, reports.

Every invariant of the numerical modules is registered here as a named
property.  The runner drives each property over seeded instances; a failure
records the property name, the exact seed entropy, and the full serialized
instance, so it can be replayed even if generator code changes.
generate_instance(dim, rank, seed) draws a weight of exact rank and a member
of it; CheckContext.weight draws its weights by the same routine.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .invert import a_invertible, neumann_a_inverse, thvn_certificate
from .linalg import (
    DEFAULT_TOL,
    ComplexMatrix,
    ToleranceConfig,
    approx_equal,
    matrix_to_obj,
    max_abs,
)
from .omega import (
    Verdict,
    a_inverse_classify,
    demo_function,
    demo_weight,
    diagonal_truncation,
    is_well_supported,
)
from .psd import PsdDecomposition, fractional_power, psd_decompose
from .seminorm import (
    _complex_gaussian,
    a_adjoint,
    a_membership,
    a_seminorm,
    a_seminorm_oracle,
    is_a_selfadjoint,
    membership_certificate,
    random_member,
)
from .spectrum import a_numerical_range, a_spectral_radius, a_spectrum, convex_hull, gelfand_sequence, spectrum_witness
from . import douglas


def _random_weight(rng: np.random.Generator, dim: int, rank: int) -> ComplexMatrix:
    """G diag(d) G*, with unitary G from the QR of a Gaussian matrix and exactly ``rank`` entries of d in [0.5, 1.5)."""
    if dim < 1:
        raise ValueError("dim must be >= 1")
    if not 0 <= rank <= dim:
        raise ValueError(f"rank must lie in [0, {dim}]")
    g, _ = np.linalg.qr(_complex_gaussian(rng, (dim, dim)))
    d_vals = np.zeros(dim)
    d_vals[:rank] = rng.uniform(0.5, 1.5, rank)
    a = (g * d_vals) @ g.conj().T
    return (a + a.conj().T) / 2


def generate_instance(dim: int, rank: int, seed: int) -> tuple[ComplexMatrix, ComplexMatrix]:
    """A seeded weight of exact rank ``rank`` and a member of it.

    The member is assembled blockwise on the range and null space of the
    weight, which guarantees membership.
    """
    rng = np.random.default_rng(seed)
    a = _random_weight(rng, dim, rank)
    return a, random_member(psd_decompose(a), rng)


@dataclass(frozen=True)
class PropertyFailure:
    property: str
    seed: tuple[int, ...]
    instance: dict
    observed: str
    expected: str


@dataclass(frozen=True)
class PropertyReport:
    suite: str
    trials: int
    failures: tuple[PropertyFailure, ...]
    elapsed_ms: int

    @property
    def passed(self) -> bool:
        return not self.failures


def _hull_min_turn(points) -> float:
    """Smallest exterior angle over the convex hull of the points (pi if degenerate)."""
    hull = convex_hull([complex(z) for z in points], eps=1e-12)
    if len(hull) <= 2:
        return np.pi
    turns = []
    for i in range(len(hull)):
        a, b, c = hull[i - 1], hull[i], hull[(i + 1) % len(hull)]
        turns.append(abs(np.angle((c - b) / (b - a))))
    return float(min(turns))


class _Failed(Exception):
    def __init__(self, observed: str, expected: str):
        super().__init__(f"observed {observed}, expected {expected}")
        self.observed = observed
        self.expected = expected


@dataclass
class CheckContext:
    """Per-check sandbox: seeded RNG, tolerance, and instance bookkeeping."""

    seed: tuple[int, ...]
    dim: int
    tol: ToleranceConfig
    rng: np.random.Generator = field(init=False)
    instance: dict = field(default_factory=dict)

    def __post_init__(self):
        self.rng = np.random.default_rng(list(self.seed))

    # -- instance builders ----------------------------------------------
    def _record(self, label: str, m: ComplexMatrix):
        self.instance[label] = matrix_to_obj(m)

    def weight(self, rank: int | None = None) -> PsdDecomposition:
        rank = int(self.rng.integers(0, self.dim + 1)) if rank is None else rank
        a = _random_weight(np.random.default_rng(int(self.rng.integers(2**63))), self.dim, rank)
        self._record("a", a)
        return psd_decompose(a, self.tol)

    def member(self, dec: PsdDecomposition, label: str = "x") -> ComplexMatrix:
        x = random_member(dec, self.rng)
        self._record(label, x)
        return x

    def raw(self, label: str = "x", scale: float = 1.0) -> ComplexMatrix:
        x = _complex_gaussian(self.rng, (self.dim, self.dim), scale)
        self._record(label, x)
        return x

    def identity_weight(self) -> PsdDecomposition:
        a = np.eye(self.dim, dtype=np.complex128)
        self._record("a", a)
        return psd_decompose(a, self.tol)

    def normal_matrix(self) -> ComplexMatrix:
        # support sampling at m directions cannot see hull vertices with a
        # normal cone narrower than 2 pi / m; keep test spectra away from that
        # degeneracy (a smallest turn of 0.06 rad covers 720 directions with margin)
        for _ in range(64):
            eigs = _complex_gaussian(self.rng, self.dim)
            if _hull_min_turn(eigs) >= 0.06:
                break
        q, _ = np.linalg.qr(_complex_gaussian(self.rng, (self.dim, self.dim)))
        x = (q * eigs) @ q.conj().T
        self._record("x", x)
        return x

    # -- assertions ------------------------------------------------------
    def slack(self, scale: float) -> float:
        """The bound atol + rtol * max(1, scale) on a deviation among values of size scale."""
        return self.tol.atol + self.tol.rtol * max(1.0, scale)

    def fail(self, observed, expected):
        raise _Failed(str(observed), str(expected))

    def check(self, condition: bool, observed, expected):
        if not condition:
            self.fail(observed, expected)

    def check_matrix(self, m: ComplexMatrix, n: ComplexMatrix, what: str):
        if not approx_equal(m, n, self.tol):
            self.fail(f"{what}: deviation {max_abs(m - n):.3e}", f"{what}: entrywise agreement")

    def check_psd_dominates(self, big: ComplexMatrix, small: ComplexMatrix, what: str):
        gap = float(np.min(np.linalg.eigvalsh((big - small + (big - small).conj().T) / 2)))
        slack = self.slack(max(max_abs(big), max_abs(small)))
        if gap < -slack:
            self.fail(f"{what}: eigenvalue defect {gap:.3e}", f"{what}: >= -{slack:.1e}")


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------


def _prop_psd_roundtrip(ctx: CheckContext):
    dec = ctx.weight()
    sqrt, quarter, pinv, proj = (dec.power(s) for s in (0.5, 0.25, -1, 0))
    ctx.check_matrix(sqrt @ sqrt, dec.a, "sqrt^2")
    ctx.check_matrix(quarter @ quarter, sqrt, "quarter^2")
    ctx.check_matrix(dec.a @ pinv @ dec.a, dec.a, "A pinv A")
    ctx.check_matrix(pinv @ dec.a @ pinv, pinv, "pinv A pinv")
    ctx.check_matrix(dec.a @ pinv, proj, "A pinv = proj")
    ctx.check_matrix(proj @ proj, proj, "proj idempotent")
    ctx.check_matrix(proj, proj.conj().T, "proj Hermitian")
    ctx.check_matrix(proj @ dec.a, dec.a, "proj A = A")
    ctx.check_matrix(dec.a @ proj, dec.a, "A proj = A")
    ctx.check_matrix(pinv, pinv.conj().T, "pinv Hermitian")
    eigs = np.linalg.eigvalsh(pinv)
    ctx.check(float(eigs[0]) >= -ctx.tol.atol, f"pinv eigenvalue {eigs[0]:.3e}", "pinv PSD")
    ctx.check(dec.gap > 0 or dec.rank == 0, f"gap {dec.gap}", "positive gap for nonzero weight")


def _prop_psd_null_space_stability(ctx: CheckContext):
    dec = ctx.weight()
    for s in (0.25, 0.5, 2.0):
        ps = psd_decompose(fractional_power(dec, s), ctx.tol)
        ctx.check_matrix(ps.power(0), dec.power(0), f"range projection of power {s}")
        ctx.check(ps.rank == dec.rank, f"rank of power {s} = {ps.rank}", f"rank {dec.rank}")


def _prop_psd_power_additivity(ctx: CheckContext):
    dec = ctx.weight()
    for s, t in ((0.25, 0.25), (0.5, 2.0), (1.0, 0.5)):
        ctx.check_matrix(
            fractional_power(dec, s) @ fractional_power(dec, t),
            fractional_power(dec, s + t),
            f"A^{s} A^{t} = A^{s + t}",
        )


def _prop_douglas_factorization(ctx: CheckContext):
    x = ctx.raw("x")
    y = ctx.raw("y")
    z = douglas.douglas_solve(x, y, ctx.tol)
    ctx.check_matrix(z.conj().T @ y, x, "Z* Y = X")
    alpha = float(np.linalg.norm(z, 2)) ** 2  # ||Z||^2 = ||X Y^dagger||^2, the least alpha of Douglas' lemma
    ctx.check_psd_dominates(alpha * (y.conj().T @ y), x.conj().T @ x, "alpha Y*Y >= X*X")
    # now force a null vector of Y outside N(X): must be rejected
    u = _complex_gaussian(ctx.rng, ctx.dim)
    # an exact orthonormal basis of u's complement: none at dim 1, where y_sing is exactly 0
    comp = np.linalg.qr(u[:, None], mode="complete")[0][:, 1:]
    y_sing = y @ comp @ comp.conj().T
    try:
        douglas.douglas_solve(np.eye(ctx.dim, dtype=np.complex128), y_sing, ctx.tol)
        ctx.fail("douglas_solve accepted", "NotMajorizedError for incompatible null spaces")
    except douglas.NotMajorizedError:
        pass


def _prop_power_factorization(ctx: CheckContext):
    x = ctx.raw("x", scale=0.7)
    pad = _complex_gaussian(ctx.rng, (ctx.dim, ctx.dim), 0.5)
    b = psd_decompose(x.conj().T @ x + pad.conj().T @ pad, ctx.tol)
    ctx._record("b", b.a)
    alpha = float(ctx.rng.uniform(0.05, 0.45))
    v = douglas.power_factorize(x, b, alpha, ctx.tol)
    ctx.check_matrix(v @ b.power(alpha), x, "V B^alpha = X")
    ctx.check_psd_dominates(b.power(1 - 2 * alpha), v.conj().T @ v, "V*V <= B^(1-2a)")
    xxs = psd_decompose(x @ x.conj().T, ctx.tol)
    ctx.check_psd_dominates(xxs.power(1 - 2 * alpha), v @ v.conj().T, "VV* <= (XX*)^(1-2a)")


def _prop_generator_soundness(ctx: CheckContext):
    rank = int(ctx.rng.integers(0, ctx.dim + 1))
    a, x = generate_instance(ctx.dim, rank, int(ctx.rng.integers(2**63)))
    ctx._record("a", a)
    ctx._record("x", x)
    dec = psd_decompose(a, ctx.tol)
    ctx.check(dec.rank == rank, f"rank {dec.rank}", f"spec rank {rank}")
    ctx.check(a_membership(dec, x, ctx.tol), "non-member generated", "generated instance passes membership")


def _prop_membership_certificate(ctx: CheckContext):
    dec = ctx.weight()
    x = ctx.member(dec)
    u = membership_certificate(dec, x, ctx.tol)
    ctx.check_matrix(dec.power(0.5) @ x, u @ dec.power(0.25), "A^(1/2) X = U A^(1/4)")
    c = a_seminorm(dec, x, ctx.tol).value ** 2
    ctx.check_psd_dominates(c * dec.power(0.5), u.conj().T @ u, "U*U <= c A^(1/2)")


def _prop_membership_rejects(ctx: CheckContext):
    dec = ctx.weight(rank=max(1, ctx.dim // 2))
    if dec.rank == ctx.dim:
        return
    # a matrix sending a null vector onto the range is not a member
    x = np.outer(dec.range_basis[:, 0], dec.null_basis[:, 0].conj())
    ctx._record("x", x)
    ctx.check(not a_membership(dec, x, ctx.tol), "accepted as member", "null-space mover rejected")


def _prop_seminorm_oracle_agreement(ctx: CheckContext):
    dec = ctx.weight()
    x = ctx.member(dec)
    value = a_seminorm(dec, x, ctx.tol).value
    oracle = a_seminorm_oracle(dec, x, ctx.tol)
    bound = ctx.slack(value)
    ctx.check(abs(value - oracle) <= bound, f"|{value} - {oracle}| = {abs(value - oracle):.3e}", f"<= {bound:.1e}")


def _prop_seminorm_state_dominance(ctx: CheckContext):
    # the seminorm is a supremum over all states, vector or mixed: sampling
    # random density matrices must never beat it
    dec = ctx.weight()
    x = ctx.member(dec)
    value = a_seminorm(dec, x, ctx.tol).value
    xax = x.conj().T @ dec.a @ x
    bound = ctx.slack(value)
    for _ in range(20):
        k = int(ctx.rng.integers(1, ctx.dim + 1))
        g = _complex_gaussian(ctx.rng, (ctx.dim, k))
        rho = g @ g.conj().T
        rho = rho / np.trace(rho).real
        denom = float(np.trace(rho @ dec.a).real)
        if denom <= ctx.tol.atol:
            continue
        sampled = float(np.sqrt(max(np.trace(rho @ xax).real, 0.0) / denom))
        ctx.check(sampled <= value + bound, f"state value {sampled}", f"<= seminorm {value}")


def _worst_point_deviation(ctx: CheckContext, points, x: ComplexMatrix) -> float:
    """Worst gap between the points and X's eigenvalues, both sorted by (Re, Im); a failure unless counts agree."""
    points = sorted(points, key=lambda z: (z.real, z.imag))
    eigs = sorted((complex(z) for z in np.linalg.eigvals(x)), key=lambda z: (z.real, z.imag))
    ctx.check(len(points) == len(eigs), f"{len(points)} points", f"{len(eigs)} eigenvalues")
    return max((abs(p - e) for p, e in zip(points, eigs)), default=0.0)


def _prop_invertible_weight_classical(ctx: CheckContext):
    # full-rank weight: membership is automatic and the spectrum is the
    # ordinary one (the range projection is the identity)
    dec = ctx.weight(rank=ctx.dim)
    x = ctx.raw()
    ctx.check(a_membership(dec, x, ctx.tol), "not a member", "membership automatic for invertible weight")
    worst = _worst_point_deviation(ctx, a_spectrum(dec, x, ctx.tol).points, x)
    scale = max(1.0, float(np.linalg.norm(x, 2)))
    ctx.check(worst <= 10 * ctx.tol.atol + ctx.tol.rtol * scale, f"deviation {worst:.3e}", "classical spectrum")


def _prop_seminorm_submultiplicative(ctx: CheckContext):
    dec = ctx.weight()
    x = ctx.member(dec, "x")
    y = ctx.member(dec, "y")
    nx = a_seminorm(dec, x, ctx.tol).value
    ny = a_seminorm(dec, y, ctx.tol).value
    nxy = a_seminorm(dec, x @ y, ctx.tol).value
    bound = ctx.slack(nx * ny)
    ctx.check(nxy <= nx * ny + bound, f"|XY| = {nxy}", f"<= {nx * ny} + {bound:.1e}")


def _prop_seminorm_zero_law(ctx: CheckContext):
    dec = ctx.weight()
    null_proj = np.eye(ctx.dim) - dec.power(0)
    x0 = null_proj @ _complex_gaussian(ctx.rng, (ctx.dim, ctx.dim)) @ null_proj
    ctx._record("x", x0)
    val = a_seminorm(dec, x0, ctx.tol)
    ctx.check(val.finite and val.value <= ctx.slack(0.0), f"seminorm {val.value}", "0 for AX = 0")
    ctx.check(max_abs(dec.a @ x0) <= ctx.tol.atol + ctx.tol.rtol * max_abs(x0), f"|AX| = {max_abs(dec.a @ x0):.3e}", "0")
    if dec.rank:
        vp = a_seminorm(dec, dec.power(0), ctx.tol)
        ctx.check(abs(vp.value - 1.0) <= ctx.slack(1.0), f"seminorm of proj {vp.value}", "1")


def _prop_annihilated_member_singular(ctx: CheckContext, rank: int | None = None):
    # A X = 0 at 0 < rank < dim (X = 0 at dim 1): A X Y = 0 != A for every Y, so 0 is the one point
    dec = ctx.weight(rank=int(ctx.rng.integers(1, max(2, ctx.dim))) if rank is None else rank)
    null_proj = np.eye(ctx.dim) - dec.power(0)
    x0 = null_proj @ _complex_gaussian(ctx.rng, (ctx.dim, ctx.dim)) @ null_proj
    ctx._record("x", x0)
    u, _ = np.linalg.qr(_complex_gaussian(ctx.rng, (ctx.dim, ctx.dim)))
    ctx._record("u", u)
    cases = {f"X*{c:g}": (dec, c * x0) for c in (1.0, 1e-12, 1e12)}
    cases["U*XU"] = (psd_decompose(u.conj().T @ dec.a @ u, ctx.tol), u.conj().T @ x0 @ u)
    for label, (d, x) in cases.items():
        ctx.check(not a_invertible(d, x, ctx.tol).invertible, f"{label} invertible", "not invertible")
        ctx.check(thvn_certificate(d, x, ctx.tol) is None, f"{label} certified", "no certificate")
        points = a_spectrum(d, x, ctx.tol).points
        ctx.check(points == (0j,), f"{label} points {points}", "(0,)")


def _prop_adjoint_identity(ctx: CheckContext):
    dec = ctx.weight()
    x = ctx.member(dec)
    sharp = a_adjoint(dec, x, ctx.tol)
    ctx.check_matrix(dec.a @ x, sharp.conj().T @ dec.a, "A X = (X#)* A")
    ctx.check(a_membership(dec, sharp, ctx.tol), "X# not a member", "X# is a member")


def _prop_adjoint_selfadjoint_split(ctx: CheckContext):
    # X + X# and i(X - X#) are both weighted-self-adjoint for any member
    dec = ctx.weight()
    x = ctx.member(dec)
    sharp = a_adjoint(dec, x, ctx.tol)
    ctx.check(is_a_selfadjoint(dec.a, x + sharp, ctx.tol), "X + X# not self-adjoint", "A(X + X#) Hermitian")
    ctx.check(is_a_selfadjoint(dec.a, 1j * (x - sharp), ctx.tol), "i(X - X#) not self-adjoint", "A i(X - X#) Hermitian")


def _prop_identity_weight_collapse(ctx: CheckContext):
    dec = ctx.identity_weight()
    x = ctx.raw()
    ctx.check(a_membership(dec, x, ctx.tol), "not a member", "everything is a member for the identity weight")
    val = a_seminorm(dec, x, ctx.tol).value
    opnorm = float(np.linalg.norm(x, 2))
    ctx.check(abs(val - opnorm) <= 1e-9 * max(1.0, opnorm), f"seminorm {val}", f"operator norm {opnorm}")
    ctx.check_matrix(a_adjoint(dec, x, ctx.tol), x.conj().T, "adjoint = conjugate transpose")
    worst = _worst_point_deviation(ctx, a_spectrum(dec, x, ctx.tol).points, x)
    ctx.check(worst <= 1e-9 * max(1.0, opnorm), f"point deviation {worst:.3e}", "<= 1e-9 scale")


def _inverse_identities(ctx: CheckContext, dec: PsdDecomposition, x: ComplexMatrix, y: ComplexMatrix, what: str):
    bound = ctx.slack(max_abs(dec.a))
    lhs, rhs = dec.a @ x @ y, dec.a @ y @ x
    dev = max(max_abs(lhs - dec.a), max_abs(rhs - dec.a))
    ctx.check(dev <= bound, f"{what}: inverse identity deviation {dev:.3e}", f"<= {bound:.1e}")


def _prop_invert_two_sided(ctx: CheckContext):
    dec = ctx.weight()
    x = ctx.member(dec)
    res = a_invertible(dec, x, ctx.tol)
    if not res.invertible:
        return
    _inverse_identities(ctx, dec, x, res.canonical, "canonical")
    _inverse_identities(ctx, dec, x, res.invertible_form, "invertible form")
    smin = float(np.linalg.svd(res.invertible_form, compute_uv=False)[-1])
    ctx.check(smin > ctx.tol.atol, f"sigma_min {smin:.3e}", "> atol")
    ctx.check_matrix(dec.a @ res.canonical, dec.a @ res.invertible_form, "A Y1 = A Y2")


def _prop_invert_certificate_equivalence(ctx: CheckContext):
    dec = ctx.weight()
    x = ctx.member(dec)
    res = a_invertible(dec, x, ctx.tol)
    cert = thvn_certificate(dec, x, ctx.tol)
    ctx.check((cert is not None) == res.invertible, f"certificate {cert is not None}", f"invertible {res.invertible}")
    zero_in = a_spectrum(dec, x, ctx.tol).contains_zero
    ctx.check(zero_in == (not res.invertible), f"0 in spectrum: {zero_in}", f"not invertible: {not res.invertible}")
    if cert is None:
        return
    xax = x.conj().T @ dec.a @ x
    ctx.check_psd_dominates(cert.c * dec.a, xax, "X*AX <= c A")
    ctx.check_psd_dominates(xax, dec.a / cert.c, "(1/c) A <= X*AX")
    axxa = dec.a @ x @ x.conj().T @ dec.a
    ctx.check_psd_dominates(cert.alpha * axxa, dec.a @ dec.a, "A^2 <= alpha A X X* A")


def _prop_invert_product_rule(ctx: CheckContext):
    dec = ctx.weight()
    x = ctx.member(dec, "x")
    y = ctx.member(dec, "y")
    rx, ry = a_invertible(dec, x, ctx.tol), a_invertible(dec, y, ctx.tol)
    if not (rx.invertible and ry.invertible):
        return
    _inverse_identities(ctx, dec, x @ y, ry.canonical @ rx.canonical, "product WZ")


def _prop_invert_non_uniqueness(ctx: CheckContext):
    dec = ctx.weight()
    x = ctx.member(dec)
    res = a_invertible(dec, x, ctx.tol)
    if not res.invertible:
        return
    null_proj = np.eye(ctx.dim) - dec.power(0)
    z = null_proj @ _complex_gaussian(ctx.rng, (ctx.dim, ctx.dim)) @ null_proj
    _inverse_identities(ctx, dec, x, res.canonical + z, "canonical + null-supported Z")


def _prop_invert_compression_equivalence(ctx: CheckContext):
    dec = ctx.weight()
    x = ctx.member(dec)
    base = a_invertible(dec, x, ctx.tol).invertible
    for label, variant in (("XP", x @ dec.power(0)), ("PX", dec.power(0) @ x)):
        got = a_invertible(dec, variant, ctx.tol).invertible
        ctx.check(got == base, f"{label} invertible: {got}", f"{base}")


def _prop_invert_duality(ctx: CheckContext):
    dec = ctx.weight()
    x = ctx.member(dec)
    res = a_invertible(dec, x, ctx.tol)
    if not res.invertible:
        return
    sqrt, sqrt_pinv = dec.power(0.5), dec.power(-0.5)
    w, r = (sqrt_pinv @ z.conj().T @ sqrt for z in (x, res.canonical))
    _inverse_identities(ctx, dec, w, r, "transported pair (W, R)")


def _prop_neumann_series(ctx: CheckContext):
    dec = ctx.weight()
    x = ctx.member(dec)
    norm = a_seminorm(dec, x, ctx.tol).value
    if norm > 0:
        x = x * (0.85 * float(ctx.rng.uniform(0.2, 1.0)) / norm)
    ctx._record("x", x)
    y = neumann_a_inverse(dec, x, ctx.tol)
    one_minus = np.eye(ctx.dim) - x
    _inverse_identities(ctx, dec, one_minus, y, "series inverse")
    res = a_invertible(dec, one_minus, ctx.tol)
    ctx.check(res.invertible, "canonical route says singular", "1 - X invertible")
    ctx.check_matrix(dec.a @ y, dec.a @ res.canonical, "A (series) = A (canonical)")


def _prop_spectrum_compression(ctx: CheckContext):
    dec = ctx.weight()
    x = ctx.member(dec)
    spec = a_spectrum(dec, x, ctx.tol)
    px = dec.power(0) @ x
    scale = float(np.linalg.norm(px, 2))
    radius = 10 * ctx.tol.atol + ctx.tol.rtol * max(1.0, scale)
    eigs = [complex(z) for z in np.linalg.eigvals(px) if abs(z) > radius]
    pts = [z for z in spec.points if abs(z) > radius]
    for z in eigs:
        ctx.check(any(abs(z - p) <= radius for p in pts), f"eig {z} unmatched", "every eigenvalue matched by a point")
    for p in pts:
        ctx.check(any(abs(z - p) <= radius for z in eigs), f"point {p} unmatched", "every point matched by an eigenvalue")


def _prop_radius_dominated(ctx: CheckContext):
    dec = ctx.weight()
    x = ctx.member(dec)
    r_a = a_spectral_radius(dec, x, ctx.tol)
    r = max((abs(complex(z)) for z in np.linalg.eigvals(x)), default=0.0)
    ctx.check(r_a <= r + ctx.tol.atol + ctx.tol.rtol * max(1.0, r), f"r_A = {r_a}", f"<= r = {r}")


def _prop_gelfand_lower_bound(ctx: CheckContext):
    dec = ctx.weight()
    x = ctx.member(dec)
    r_a = a_spectral_radius(dec, x, ctx.tol)
    terms = gelfand_sequence(dec, x, 64, ctx.tol)
    bound = ctx.slack(r_a)
    low = min(terms)
    ctx.check(low >= r_a - bound, f"min term {low}", f">= {r_a} - {bound:.1e}")


def _prop_witness_validity(ctx: CheckContext):
    dec = ctx.weight()
    x = ctx.member(dec)
    spec = a_spectrum(dec, x, ctx.tol)
    a = dec.a
    rtol = ctx.tol.rtol
    # each defect meets the homogeneous bound spectrum_witness verifies against, which
    # rejects wrong states at every scale, and the atol-floored bound, which near scale 1
    # is usually the tighter of the two
    x_norm = a_seminorm(dec, x, ctx.tol).value
    big = float(dec.eigvals.max()) * x_norm**2
    for lam in spec.points:
        for side in ("left", "right"):
            state = spectrum_witness(dec, x, lam, side, ctx.tol)
            if state is None:
                continue  # soft outcome, logged by callers that care
            fax = state(a @ x)
            floor = ctx.slack(abs(fax) ** 2)
            bound = min(floor, rtol * x_norm)
            ctx.check(abs(fax - lam) <= bound, f"f(AX) = {fax}", f"within {bound:.1e} of {lam}")
            if side == "left":
                dev = abs(state(x.conj().T @ a @ x) - abs(fax) ** 2)
                bound = min(floor, rtol * x_norm**2)
                ctx.check(dev <= bound, f"left witness defect {dev:.3e}", f"<= {bound:.1e}")
            else:
                faxxa = state(a @ x @ x.conj().T @ a)
                dev = abs(faxxa - fax * state(a @ x.conj().T @ a))
                bound = min(ctx.slack(abs(faxxa)), rtol * big)
                ctx.check(dev <= bound, f"right witness defect {dev:.3e}", f"<= {bound:.1e}")


def _prop_numrange_contains_spectrum(ctx: CheckContext):
    dec = ctx.weight(rank=int(ctx.rng.integers(1, ctx.dim + 1)))
    x = ctx.member(dec)
    spec = a_spectrum(dec, x, ctx.tol)
    poly = a_numerical_range(dec, x, 72, ctx.tol)
    slack = 1e-7 * max(1.0, float(np.linalg.norm(dec.a @ x, 2)))
    for z in spec.points:
        ctx.check(poly.contains(z, slack), f"point {z} outside", "spectrum inside outer polygon")
    # returned vertices must form a convex counterclockwise polygon
    v = poly.vertices
    for i in range(len(v)):
        a, b, c = v[i - 1], v[i], v[(i + 1) % len(v)]
        turn = (np.conj(b - a) * (c - b)).imag
        ctx.check(turn >= -slack, f"reflex corner at {b}", "convex counterclockwise vertex sequence")


def _hausdorff(p: list[complex], q: list[complex]) -> float:
    def seg_dist(z: complex, a: complex, b: complex) -> float:
        if a == b:
            return abs(z - a)
        t = ((z - a) * np.conj(b - a)).real / abs(b - a) ** 2
        t = min(1.0, max(0.0, t))
        return abs(z - (a + t * (b - a)))

    def dist_to_poly(z: complex, poly: list[complex]) -> float:
        if len(poly) == 1:
            return abs(z - poly[0])
        return min(seg_dist(z, poly[i], poly[(i + 1) % len(poly)]) for i in range(len(poly)))

    d1 = max((dist_to_poly(z, q) for z in p), default=0.0)
    d2 = max((dist_to_poly(z, p) for z in q), default=0.0)
    return max(d1, d2)


def _prop_numrange_classical(ctx: CheckContext):
    dec = ctx.identity_weight()
    x = ctx.normal_matrix()
    poly = a_numerical_range(dec, x, 360, ctx.tol)
    eigs = [complex(z) for z in np.linalg.eigvals(x)]
    hull = convex_hull(eigs, eps=1e-12)
    dist = _hausdorff(list(poly.vertices), hull)
    ctx.check(dist <= 1e-6 * max(1.0, max(abs(z) for z in eigs)), f"Hausdorff {dist:.3e}", "<= 1e-6 scale")


def _prop_block_permanence(ctx: CheckContext):
    d1 = max(2, ctx.dim // 2)
    d2 = max(2, ctx.dim - d1)
    rng = ctx.rng
    blocks_a, blocks_x = [], []
    for d in (d1, d2):
        a_b, x_b = generate_instance(d, int(rng.integers(1, d + 1)), int(rng.integers(2**63)))
        blocks_a.append(a_b)
        blocks_x.append(x_b)
    a = np.zeros((d1 + d2, d1 + d2), dtype=np.complex128)
    x = np.zeros_like(a)
    a[:d1, :d1], a[d1:, d1:] = blocks_a
    x[:d1, :d1], x[d1:, d1:] = blocks_x
    ctx._record("a", a)
    ctx._record("x", x)
    dec = psd_decompose(a, ctx.tol)
    res = a_invertible(dec, x, ctx.tol)
    if not res.invertible:
        return
    off = max(max_abs(res.canonical[:d1, d1:]), max_abs(res.canonical[d1:, :d1]))
    ctx.check(off <= 1e-9, f"off-diagonal magnitude {off:.3e}", "<= 1e-9")


def _prop_omega_demo(ctx: CheckContext):
    a, x = demo_weight(), demo_function()
    first = a_inverse_classify(a, x)
    second = a_inverse_classify(a, x)
    ctx.check(first == second, "re-run differs", "bit-identical classification")
    ctx.check(first.verdict is Verdict.UNBOUNDED, first.verdict.value, "Unbounded")
    tag, expr = first.obstruction
    ctx.check(tag == "even" and str(expr) == "2*n", f"{tag}: {expr}", "even: 2*n")
    ctx.check(not is_well_supported(a), "well-supported", "not well-supported")


def _prop_omega_well_supported_gate(ctx: CheckContext):
    # a well-supported weight concentrated on one branch never yields the
    # bounded-discontinuous pathology: the off-support completion heals it
    from .omega import OmegaElement, ZERO_EXPR, parse_rational

    rng = ctx.rng
    p, q, r = int(rng.integers(1, 4)), int(rng.integers(0, 4)), int(rng.integers(0, 4))
    even = parse_rational(f"({p}*n+{q})/(n+{r})")  # positive on n >= 1, limit p != 0
    a = OmegaElement.of(ZERO_EXPR, even)
    ctx.check(is_well_supported(a), "not well-supported", "limit away from zero")
    pool = ("n/(n+1)", "2", "1/n", "(n+2)/(3*n+1)", "n")
    x_even = parse_rational(pool[int(rng.integers(len(pool)))])
    x_odd = parse_rational(pool[int(rng.integers(len(pool)))])
    x = OmegaElement.of(x_odd, x_even)
    result = a_inverse_classify(a, x)
    ctx.check(
        result.verdict is not Verdict.BOUNDED_DISCONTINUOUS,
        result.verdict.value,
        "never BoundedDiscontinuous for a well-supported single-branch weight",
    )
    if result.witness is not None:
        ctx.check(a == a * x * result.witness, "pointwise identity fails", "a = a*x*witness exactly")


def _prop_omega_truncation_growth(ctx: CheckContext):
    a_el, x_el = demo_weight(), demo_function()
    for n_points in (10, 40):
        a = diagonal_truncation(a_el, n_points)
        x = diagonal_truncation(x_el, n_points)
        dec = psd_decompose(a, ctx.tol)
        res = a_invertible(dec, x, ctx.tol)
        ctx.check(res.invertible, f"N={n_points} not invertible", "invertible truncation")
        norm = a_seminorm(dec, res.canonical, ctx.tol).value
        ctx.check(norm >= n_points * (1 - 1e-9), f"inverse seminorm {norm}", f">= {n_points}")


PROPERTIES: tuple[tuple[str, object], ...] = (
    ("psd_roundtrip", _prop_psd_roundtrip),
    ("psd_null_space_stability", _prop_psd_null_space_stability),
    ("psd_power_additivity", _prop_psd_power_additivity),
    ("douglas_factorization", _prop_douglas_factorization),
    ("power_factorization", _prop_power_factorization),
    ("generator_soundness", _prop_generator_soundness),
    ("membership_certificate", _prop_membership_certificate),
    ("membership_rejects_movers", _prop_membership_rejects),
    ("seminorm_oracle_agreement", _prop_seminorm_oracle_agreement),
    ("seminorm_state_dominance", _prop_seminorm_state_dominance),
    ("seminorm_submultiplicative", _prop_seminorm_submultiplicative),
    ("seminorm_zero_law", _prop_seminorm_zero_law),
    ("adjoint_identity", _prop_adjoint_identity),
    ("adjoint_selfadjoint_split", _prop_adjoint_selfadjoint_split),
    ("identity_weight_collapse", _prop_identity_weight_collapse),
    ("invertible_weight_classical", _prop_invertible_weight_classical),
    ("invert_two_sided", _prop_invert_two_sided),
    ("invert_certificate_equivalence", _prop_invert_certificate_equivalence),
    ("invert_product_rule", _prop_invert_product_rule),
    ("invert_non_uniqueness", _prop_invert_non_uniqueness),
    ("invert_compression_equivalence", _prop_invert_compression_equivalence),
    ("invert_duality", _prop_invert_duality),
    ("neumann_series", _prop_neumann_series),
    ("spectrum_compression", _prop_spectrum_compression),
    ("radius_dominated", _prop_radius_dominated),
    ("gelfand_lower_bound", _prop_gelfand_lower_bound),
    ("witness_validity", _prop_witness_validity),
    ("numrange_contains_spectrum", _prop_numrange_contains_spectrum),
    ("numrange_classical", _prop_numrange_classical),
    ("block_permanence", _prop_block_permanence),
    ("omega_demo_exactness", _prop_omega_demo),
    ("omega_well_supported_gate", _prop_omega_well_supported_gate),
    ("omega_truncation_growth", _prop_omega_truncation_growth),
    ("annihilated_member_singular", _prop_annihilated_member_singular),
)


def run_property_suite(
    trials: int = 25,
    dims: tuple[int, ...] = (1, 2, 3, 4, 5, 6, 7, 8),
    tol: ToleranceConfig = DEFAULT_TOL,
    seed: int = 0,
) -> list[PropertyReport]:
    """Run every registered property over seeded instances.

    Returns one report per property; a report's failures are replayable from
    their recorded seed entropy.  Identical arguments give byte-identical
    reports apart from elapsed_ms.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if not dims or min(dims) < 1:
        raise ValueError(f"dims must be a non-empty list of dimensions >= 1, got {tuple(dims)}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    reports: list[PropertyReport] = []
    for prop_idx, (name, fn) in enumerate(PROPERTIES):
        start = time.perf_counter()
        failures: list[PropertyFailure] = []
        for trial in range(trials):
            for dim in dims:
                entropy = (int(seed), prop_idx, trial, int(dim))
                ctx = CheckContext(seed=entropy, dim=int(dim), tol=tol)
                try:
                    fn(ctx)
                except _Failed as f:
                    failures.append(PropertyFailure(name, entropy, dict(ctx.instance), f.observed, f.expected))
                except Exception as exc:  # noqa: BLE001 - failures are data, not crashes
                    failures.append(PropertyFailure(name, entropy, dict(ctx.instance), f"{type(exc).__name__}: {exc}", "no exception"))
        elapsed = int(round((time.perf_counter() - start) * 1000))
        reports.append(PropertyReport(suite=name, trials=trials * len(dims), failures=tuple(failures), elapsed_ms=elapsed))
    return reports
