"""Seeded inputs and op schedules for the three workloads.

The matrices of ``cli-mix`` and ``analysis-64`` are built here with numpy
alone, never with the package's own generators, so a change to
``aspec.harness`` or ``aspec.seminorm`` cannot change what those workloads
feed the program.  ``proptest-small`` runs the package's properties as they
are defined, so its inputs come from the package's generators through
``CheckContext``.  The same seed gives the same inputs; the op schedule (which
subcommand, which size, which rank) does not depend on the seed at all, and
every timed loop ends on a whole ``PERIOD`` of it, so every run does the same
mix of work whatever its speed.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

WORKLOADS = ("cli-mix", "analysis-64", "proptest-small")

# --- analysis-64 -----------------------------------------------------------
ANALYSIS_DIM = 64
ANALYSIS_RANKS = (16, 32, 48, 64)
ANALYSIS_GELFAND = 64
ANALYSIS_DIRECTIONS = 720
# approach values lam * (1 + t) lie outside the spectrum because lam has the largest modulus
MOLLIFIER_STEPS = (0.5, 0.25, 0.125)

# --- proptest-small ----------------------------------------------------------
# The properties registered in aspec.harness.PROPERTIES when this benchmark was
# written.  Frozen by name: a property registered later does not enter the
# workload, and one that disappears fails every op instead of being skipped.
PROPERTY_NAMES = (
    "psd_roundtrip",
    "psd_null_space_stability",
    "psd_power_additivity",
    "douglas_factorization",
    "power_factorization",
    "generator_soundness",
    "membership_certificate",
    "membership_rejects_movers",
    "seminorm_oracle_agreement",
    "seminorm_state_dominance",
    "seminorm_submultiplicative",
    "seminorm_zero_law",
    "adjoint_identity",
    "adjoint_selfadjoint_split",
    "identity_weight_collapse",
    "invertible_weight_classical",
    "invert_two_sided",
    "invert_certificate_equivalence",
    "invert_product_rule",
    "invert_non_uniqueness",
    "invert_compression_equivalence",
    "invert_duality",
    "neumann_series",
    "spectrum_compression",
    "radius_dominated",
    "gelfand_lower_bound",
    "witness_validity",
    "numrange_contains_spectrum",
    "numrange_classical",
    "block_permanence",
    "omega_demo_exactness",
    "omega_well_supported_gate",
    "omega_truncation_growth",
)
PROPTEST_DIMS = (2, 3, 4, 5, 6, 7, 8)

# --- cli-mix -------------------------------------------------------------------
CLI_GELFAND, CLI_DIRECTIONS = 64, 720
# One cycle of subcommands; "invert" appears with and without --invertible-form.
CLI_CYCLE = (
    ("seminorm", ()),
    ("adjoint", ()),
    ("invert", ()),
    ("invert", ("--invertible-form",)),
    ("spectrum", ()),
    ("radius", ("--gelfand", str(CLI_GELFAND))),
    ("numrange", ("--directions", str(CLI_DIRECTIONS))),
    ("omega_classify", ()),
    ("omega_demo", ()),
)
CLI_SUBCOMMANDS = ("seminorm", "adjoint", "invert", "spectrum", "radius", "numrange", "omega_classify", "omega_demo")
SMALL_DIM, LARGE_DIM = 8, 128
SMALL_POOL, LARGE_POOL = 16, 8
SMALL_RANKS = (1, 2, 3, 4, 5, 6, 7, 8)
LARGE_RANKS = (64,)
# one pair in eight moves the weight's null space; both chosen ranks leave a null space
SMALL_NON_MEMBER, LARGE_NON_MEMBER = 3, 5
# (weight literal, function literal, expected verdict): two literals per verdict
OMEGA_POOL = (
    ("odd=1;even=1", "odd=2;even=2", "ContinuousInverse"),
    ("odd=1/n;even=1/n", "odd=(n+1)/n;even=(n+2)/n", "ContinuousInverse"),
    ("odd=1;even=1", "odd=1;even=2", "BoundedDiscontinuous"),
    ("odd=1;even=1/n", "odd=n/(n+1);even=(2*n+1)/n", "BoundedDiscontinuous"),
    ("odd=0;even=1/(2*n)", "odd=1/(2*n-1);even=1/(2*n)", "Unbounded"),
    ("odd=1;even=0", "odd=1/n;even=5", "Unbounded"),
    ("odd=1;even=1", "odd=0;even=1", "NoSolution"),
    ("odd=1/(n*n);even=1/n", "odd=1;even=0", "NoSolution"),
)
_MATRIX_PER_CYCLE = sum(1 for n, _ in CLI_CYCLE if not n.startswith("omega"))
CLI_PERIOD = 4 * len(CLI_CYCLE)  # every matrix subcommand meets one dim-128 pair

# ops after which each workload's schedule repeats
PERIOD = {"cli-mix": CLI_PERIOD, "analysis-64": len(ANALYSIS_RANKS), "proptest-small": len(PROPTEST_DIMS)}


def _gaussian(rng: np.random.Generator, shape) -> np.ndarray:
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2)


def weighted_pair(rng: np.random.Generator, dim: int, rank: int, member: bool = True) -> tuple[np.ndarray, np.ndarray]:
    """PSD weight of exact rank and a test matrix that is a member or, if not, moves the null space.

    The weight is G diag(d) G* with unitary G and d holding ``rank`` entries in
    [0.5, 1.5].  A member is P M P + (1-P) M' (1-P) for the range projection P;
    a non-member adds P E (1-P), which sends null vectors into the range.
    """
    if not member and rank >= dim:
        raise ValueError("a full-rank weight has no non-members")
    g, _ = np.linalg.qr(_gaussian(rng, (dim, dim)))
    vals = np.zeros(dim)
    vals[:rank] = rng.uniform(0.5, 1.5, rank)
    a = (g * vals) @ g.conj().T
    a = (a + a.conj().T) / 2
    p = g[:, :rank] @ g[:, :rank].conj().T
    c = np.eye(dim) - p
    x = p @ _gaussian(rng, (dim, dim)) @ p + c @ _gaussian(rng, (dim, dim)) @ c
    if not member:
        x = x + p @ _gaussian(rng, (dim, dim)) @ c
    return a, x


def analysis_rank(index: int) -> int:
    return ANALYSIS_RANKS[index % len(ANALYSIS_RANKS)]


def analysis_pair(seed: int, index: int) -> tuple[np.ndarray, np.ndarray]:
    """Member pair for analysis-64 op ``index``; each op gets its own pair."""
    rng = np.random.default_rng([seed, 64, index])
    return weighted_pair(rng, ANALYSIS_DIM, analysis_rank(index))


def proptest_dim(prop_index: int, op_index: int) -> int:
    """Dims cycle across the properties of one op and across ops, so every op mixes sizes."""
    return PROPTEST_DIMS[(prop_index + op_index) % len(PROPTEST_DIMS)]


# --- cli-mix schedule and files ---------------------------------------------


def cli_pair_spec(size: str, j: int) -> tuple[int, int, bool]:
    """(dim, rank, member) of pool pair ``j`` of the given size."""
    if size == "small":
        return SMALL_DIM, SMALL_RANKS[j % len(SMALL_RANKS)], j % 8 != SMALL_NON_MEMBER
    return LARGE_DIM, LARGE_RANKS[j % len(LARGE_RANKS)], j % 8 != LARGE_NON_MEMBER


def cli_op(index: int) -> dict:
    """Op ``index`` of the cli-mix schedule (independent of the seed, except omega literal choice)."""
    name, flags = CLI_CYCLE[index % len(CLI_CYCLE)]
    cycles, pos = divmod(index, len(CLI_CYCLE))
    op = {"index": index, "sub": name, "flags": list(flags)}
    if name.startswith("omega"):
        op["omega_slot"] = cycles  # one omega_classify per cycle
        return op
    # m counts matrix calls; every fourth one uses a dim-128 pair
    m = cycles * _MATRIX_PER_CYCLE + sum(1 for n, _ in CLI_CYCLE[:pos] if not n.startswith("omega"))
    if m % 4 == 3:
        op["size"], op["pair"] = "large", (m // 4) % LARGE_POOL
    else:
        op["size"], op["pair"] = "small", (m - (m + 1) // 4) % SMALL_POOL
    dim, rank, member = cli_pair_spec(op["size"], op["pair"])
    op.update(dim=dim, rank=rank, member=member)
    return op


def omega_case(seed: int, slot: int) -> tuple[str, str, str]:
    return OMEGA_POOL[(seed + slot) % len(OMEGA_POOL)]


def cli_argv(op: dict, seed: int, files: Path) -> list[str]:
    """Arguments after ``python -m aspec.cli`` for one op."""
    if op["sub"] == "omega_demo":
        return ["omega", "demo-e009"]
    if op["sub"] == "omega_classify":
        a, x, _ = omega_case(seed, op["omega_slot"])
        return ["omega", "classify", "--a", a, "--x", x]
    stem = files / f"{op['size']}{op['pair']}"
    return [op["sub"], "--a", f"{stem}-a.json", "--x", f"{stem}-x.json", *op["flags"]]


def matrix_doc(m: np.ndarray) -> str:
    """The CLI wire format, written independently of aspec.linalg."""
    data = [[[float(z.real), float(z.imag)] for z in row] for row in m]
    return json.dumps({"rows": int(m.shape[0]), "cols": int(m.shape[1]), "data": data})


def write_cli_inputs(seed: int, files: Path) -> None:
    """Write every pool pair as CLI input files plus one .npz holding the exact arrays."""
    arrays = {}
    for size, count in (("small", SMALL_POOL), ("large", LARGE_POOL)):
        for j in range(count):
            dim, rank, member = cli_pair_spec(size, j)
            rng = np.random.default_rng([seed, dim, j])
            a, x = weighted_pair(rng, dim, rank, member)
            stem = f"{size}{j}"
            (files / f"{stem}-a.json").write_text(matrix_doc(a))
            (files / f"{stem}-x.json").write_text(matrix_doc(x))
            arrays[f"{stem}-a"], arrays[f"{stem}-x"] = a, x
    np.savez(files / "pairs.npz", **arrays)
