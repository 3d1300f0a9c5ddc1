"""Runs inside a fresh interpreter with the checkout's ``src`` first on the path.

    worker.py run WORKLOAD SEED START SECONDS RESULT        # analysis-64 / proptest-small, untraced
    worker.py clicheck SEED FILES OUTPUTS RESULT            # check recorded cli-mix outputs
    worker.py trace WORKLOAD SEED SECONDS FILES SPANS RESULT

``run`` times the package import and one warm-up op as set-up, then runs ops
for at least SECONDS of timed work, ending on a whole period of the op
schedule, checking each op's outputs outside its timer.
``trace`` alternates untraced and traced passes over a fixed op list, so call
counts per op repeat exactly at a fixed seed and the pass times give the
tracing overhead.  Results go to the RESULT file as JSON.
"""

from __future__ import annotations

import time

# The package is imported first and timed: numpy comes in through it, so the
# set-up time of ``run`` includes numpy's import as a user's would.
_start = time.perf_counter()
import aspec  # noqa: E402
import aspec.cli  # noqa: E402
import aspec.douglas  # noqa: E402
import aspec.harness  # noqa: E402
import aspec.invert  # noqa: E402
import aspec.linalg  # noqa: E402
import aspec.omega  # noqa: E402
import aspec.psd  # noqa: E402
import aspec.seminorm  # noqa: E402
import aspec.spectrum  # noqa: E402

IMPORT_S = time.perf_counter() - _start

import io  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from contextlib import redirect_stderr, redirect_stdout  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import inputs  # noqa: E402
from tracing import Tracer  # noqa: E402


# ---------------------------------------------------------------------------
# checks: the package's default tolerances and the acceptance tests' bounds,
# computed with the benchmark's own numpy code
# ---------------------------------------------------------------------------

ATOL, RTOL = 1e-10, 1e-8  # aspec.linalg.DEFAULT_TOL
ORACLE_RTOL = 1e-8  # acceptance criterion 01
WITNESS_RTOL = 1e-8  # acceptance criterion 07
NUMRANGE_SLACK = 1e-7  # acceptance criterion 08
RADIUS_SLACK = 1e-8  # acceptance criterion 06
IDENTITY_RTOL = 1e-8  # acceptance criteria 03 and 05, relative to max(1, |A|_2)


def _max_abs(m) -> float:
    return float(np.max(np.abs(m))) if np.size(m) else 0.0


def _close(m, n) -> bool:
    """aspec.linalg.approx_equal at the default tolerance, for matrices or scalars."""
    m, n = np.asarray(m, dtype=np.complex128), np.asarray(n, dtype=np.complex128)
    if m.shape != n.shape:
        return False
    return _max_abs(m - n) <= ATOL + RTOL * max(_max_abs(m), _max_abs(n))


def _identity_bound(a) -> float:
    return IDENTITY_RTOL * max(1.0, float(np.linalg.norm(a, 2)))


def _inside(poly, z: complex, slack: float) -> bool:
    """z lies in the outer half-plane polygon of a NumericalRangePolygon."""
    return all((z * np.exp(-1j * t)).real <= h + slack for t, h in zip(poly.angles, poly.support))


def _state_value(state, m) -> complex:
    return complex(state.h.conj() @ (m @ state.h)) / state.weight


def _matrix(obj):
    return np.array([[complex(re, im) for re, im in row] for row in obj["data"]], dtype=np.complex128)


# ---------------------------------------------------------------------------
# analysis-64
# ---------------------------------------------------------------------------


def analysis_op(a, x) -> dict:
    """One pipeline over a member pair; every call the workload names, in order."""
    psd, sem, inv, spec = aspec.psd, aspec.seminorm, aspec.invert, aspec.spectrum
    d = psd.psd_decompose(a)
    value = sem.a_seminorm(d, x)
    out = {"d": d, "value": value, "oracle": sem.a_seminorm_oracle(d, x), "adjoint": sem.a_adjoint(d, x)}
    out["inverse"] = inv.a_invertible(d, x)
    out["cert"] = inv.thvn_certificate(d, x)
    out["half"] = x * (0.5 / value.value)
    out["neumann"] = inv.neumann_a_inverse(d, out["half"])
    out["spectrum"] = spectrum = spec.a_spectrum(d, x)
    out["gelfand"] = spec.gelfand_sequence(d, x, inputs.ANALYSIS_GELFAND)
    out["numrange"] = spec.a_numerical_range(d, x, inputs.ANALYSIS_DIRECTIONS)
    lam = max(spectrum.points, key=abs)
    out["lam"] = lam
    out["witnesses"] = [spec.spectrum_witness(d, x, lam, side) for side in ("left", "right")]
    out["mollifier"] = spec.boundary_mollifier(d, x, lam, [lam * (1 + t) for t in inputs.MOLLIFIER_STEPS])
    return out


def check_analysis(a, x, rank: int, out: dict) -> list[str]:
    bad = []
    d, value = out["d"], out["value"]
    if d.rank != rank:
        bad.append(f"rank {d.rank}, built with rank {rank}")
    if not value.finite:
        bad.append("member reported with infinite seminorm")
        return bad
    if abs(value.value - out["oracle"]) / max(1.0, value.value) > ORACLE_RTOL:
        bad.append(f"seminorm {value.value} vs oracle {out['oracle']}")
    if not _close(a @ x, out["adjoint"].conj().T @ a):
        bad.append("adjoint: A X != Y* A")
    res, spectrum = out["inverse"], out["spectrum"]
    if not res.invertible == (out["cert"] is not None) == (not spectrum.contains_zero):
        bad.append("invertibility, certificate and zero-in-spectrum disagree")
    if res.invertible:
        for y, what in ((res.canonical, "canonical"), (res.invertible_form, "invertible form")):
            if not (_close(a @ x @ y, a) and _close(a @ y @ x, a)):
                bad.append(f"{what} inverse: A X Y or A Y X differs from A")
    one_minus = np.eye(a.shape[0]) - out["half"]
    if _max_abs(a @ one_minus @ out["neumann"] - a) > _identity_bound(a):
        bad.append("series inverse: A (1 - X) Y differs from A")
    terms = out["gelfand"]
    if len(terms) != inputs.ANALYSIS_GELFAND or min(terms) < spectrum.radius - RADIUS_SLACK:
        bad.append("Gelfand sequence falls below the spectral radius")
    poly = out["numrange"]
    if len(poly.support) != inputs.ANALYSIS_DIRECTIONS:
        bad.append(f"numerical range has {len(poly.support)} support values")
    for z in spectrum.points:
        if not _inside(poly, z, NUMRANGE_SLACK):
            bad.append(f"spectrum point {z} outside the numerical range")
    lam = out["lam"]
    for state in out["witnesses"]:
        if state is not None and abs(_state_value(state, a @ x) - lam) > WITNESS_RTOL * max(1.0, abs(lam)):
            bad.append(f"witness gives f(AX) != {lam}")
    steps = out["mollifier"]
    if len(steps) != len(inputs.MOLLIFIER_STEPS) or not all(np.isfinite([s.left_defect, s.right_defect]).all() for s in steps):
        bad.append("boundary mollifier steps missing or not finite")
    return bad


# ---------------------------------------------------------------------------
# proptest-small
# ---------------------------------------------------------------------------


def resolve_properties() -> list:
    registered = dict(aspec.harness.PROPERTIES)
    return [(name, registered.get(name)) for name in inputs.PROPERTY_NAMES]


def proptest_op(resolved, seed: int, k: int) -> list[str]:
    """Every frozen property once through CheckContext; the problems found are the op's output."""
    harness, tol = aspec.harness, aspec.linalg.DEFAULT_TOL
    bad = []
    for i, (name, fn) in enumerate(resolved):
        dim = inputs.proptest_dim(i, k)
        if fn is None:
            bad.append(f"{name}: not registered in PROPERTIES")
            continue
        ctx = harness.CheckContext(seed=(seed, i, k, dim), dim=dim, tol=tol)
        try:
            fn(ctx)
        except Exception as exc:  # noqa: BLE001 - a raising property is a failed op
            bad.append(f"{name} (dim {dim}): {type(exc).__name__}: {exc}")
    return bad


# ---------------------------------------------------------------------------
# cli-mix: the library's in-process answer for each op, then a comparison
# ---------------------------------------------------------------------------

NON_MEMBER_REJECTED = ("adjoint", "spectrum", "radius", "numrange")


class CliReference:
    """In-process library results per pool pair, computed once per pair and kind."""

    def __init__(self, files: Path):
        self.arrays = dict(np.load(files / "pairs.npz"))
        self.cache: dict = {}

    def get(self, op: dict, kind: str):
        key = (op["size"], op["pair"], kind)
        if key not in self.cache:
            self.cache[key] = self._compute(op, kind)
        return self.cache[key]

    def pair(self, op: dict):
        stem = f"{op['size']}{op['pair']}"
        return self.arrays[f"{stem}-a"], self.arrays[f"{stem}-x"]

    def _compute(self, op: dict, kind: str):
        a, x = self.pair(op)
        if kind == "d":
            return aspec.psd.psd_decompose(a)
        d = self.get(op, "d")
        if kind == "seminorm":
            return aspec.seminorm.a_seminorm(d, x)
        if kind == "oracle":
            return aspec.seminorm.a_seminorm_oracle(d, x)
        if kind == "adjoint":
            return aspec.seminorm.a_adjoint(d, x)
        if kind == "invert":
            return aspec.invert.a_invertible(d, x)
        if kind == "spectrum":
            return aspec.spectrum.a_spectrum(d, x)
        if kind == "gelfand":
            return aspec.spectrum.gelfand_sequence(d, x, inputs.CLI_GELFAND)
        if kind == "numrange":
            return aspec.spectrum.a_numerical_range(d, x, inputs.CLI_DIRECTIONS)
        raise KeyError(kind)


def _points(obj) -> list[complex]:
    return [complex(re, im) for re, im in obj]


def _same_points(got, want) -> bool:
    return len(got) == len(want) and all(_close(g, w) for g, w in zip(got, want))


def check_cli(op: dict, seed: int, code: int, stdout: str, ref: CliReference) -> list[str]:
    sub = op["sub"]
    if sub.startswith("omega"):
        if code != 0:
            return [f"exit {code}"]
        doc = json.loads(stdout)
        if sub == "omega_demo":
            want = {"verdict": "Unbounded", "obstruction": "2*n", "obstruction_branch": "even"}
            return [] if all(doc.get(k) == v for k, v in want.items()) else [f"demo gave {doc}"]
        a_lit, x_lit, verdict = inputs.omega_case(seed, op["omega_slot"])
        omega = aspec.omega
        library = omega.a_inverse_classify(omega.parse_element(a_lit), omega.parse_element(x_lit)).verdict.value
        return [] if doc.get("verdict") == verdict == library else [f"verdict {doc.get('verdict')}, expected {verdict}"]

    if not op["member"] and sub in NON_MEMBER_REJECTED:
        return [] if code == 1 and not stdout else [f"non-member: exit {code}, expected the error exit"]
    if code != 0:
        return [f"exit {code}"]
    doc = json.loads(stdout)
    a, x = ref.pair(op)
    bad = []
    if sub == "seminorm":
        value = ref.get(op, "seminorm")
        if doc["member"] is not op["member"] or doc["member"] is not value.finite:
            bad.append(f"member {doc['member']}, built as member={op['member']}")
        elif not op["member"] and doc["value"] is not None:
            bad.append("non-member reported with a finite seminorm")
        elif op["member"]:
            if not _close(doc["value"], value.value):
                bad.append(f"seminorm {doc['value']} vs library {value.value}")
            if abs(doc["value"] - ref.get(op, "oracle")) / max(1.0, doc["value"]) > ORACLE_RTOL:
                bad.append("seminorm disagrees with the state-supremum oracle")
    elif sub == "adjoint":
        y = _matrix(doc["adjoint"])
        if not _close(y, ref.get(op, "adjoint")):
            bad.append("adjoint differs from the library's")
        if not _close(a @ x, y.conj().T @ a):
            bad.append("adjoint: A X != Y* A")
    elif sub == "invert":
        res = ref.get(op, "invert")
        if doc["invertible"] is not res.invertible or (not op["member"] and res.invertible):
            bad.append(f"invertible {doc['invertible']} vs library {res.invertible}")
        elif res.invertible:
            y = _matrix(doc["inverse"])
            want = res.invertible_form if "--invertible-form" in op["flags"] else res.canonical
            if not _close(y, want):
                bad.append("inverse differs from the library's")
            if not (_close(a @ x @ y, a) and _close(a @ y @ x, a)):
                bad.append("inverse: A X Y or A Y X differs from A")
    elif sub in ("spectrum", "radius", "numrange"):
        spec = ref.get(op, "spectrum")
        if sub == "spectrum":
            if not _same_points(_points(doc["points"]), spec.points) or doc["contains_zero"] is not spec.contains_zero:
                bad.append("spectrum differs from the library's")
        elif sub == "radius":
            terms = doc["gelfand"]
            if not _close(doc["radius"], spec.radius) or not _close(terms, ref.get(op, "gelfand")):
                bad.append("radius or Gelfand sequence differs from the library's")
            if min(terms) < doc["radius"] - RADIUS_SLACK:
                bad.append("Gelfand sequence falls below the spectral radius")
        else:
            poly = ref.get(op, "numrange")
            if not _same_points(_points(doc["vertices"]), poly.vertices):
                bad.append("numerical range differs from the library's")
            if not all(_inside(poly, z, NUMRANGE_SLACK) for z in spec.points):
                bad.append("spectrum point outside the numerical range")
    return bad


def cli_inprocess(argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = aspec.cli.main(argv)
    return code, out.getvalue()


# ---------------------------------------------------------------------------
# modes
# ---------------------------------------------------------------------------


def _write(path: str, obj: dict) -> None:
    Path(path).write_text(json.dumps(obj))


def _problems(check, *args) -> list[str]:
    """The check's findings; a check that raises on malformed output is one finding."""
    try:
        return check(*args)
    except Exception as exc:  # noqa: BLE001 - malformed output fails the op
        return [f"{type(exc).__name__}: {exc}"]


def workload_ops(workload: str, seed: int, files: Path | None):
    """(make, run, check): op k's input, the op itself, its output check."""
    if workload == "analysis-64":
        def make(k):
            return k, inputs.analysis_pair(seed, k)

        def run(item):
            return analysis_op(*item[1])

        def check(item, out):
            return check_analysis(*item[1], inputs.analysis_rank(item[0]), out)

        return make, run, check
    if workload == "proptest-small":
        resolved = resolve_properties()

        def run(k):
            return proptest_op(resolved, seed, k)

        return (lambda k: k), run, (lambda k, out: out)
    ref = CliReference(files)

    def make(k):
        op = inputs.cli_op(k)
        return op, inputs.cli_argv(op, seed, files)

    def run(item):
        return cli_inprocess(item[1])

    def check(item, out):
        return check_cli(item[0], seed, *out, ref)

    return make, run, check


def mode_run(workload: str, seed: int, start: int, seconds: float, result: str) -> None:
    make, run, check = workload_ops(workload, seed, None)
    period = inputs.PERIOD[workload]
    t = time.perf_counter()
    run(make(0))  # untimed warm-up op, part of set-up; always op 0 so every set-up does the same work
    setup_s = IMPORT_S + time.perf_counter() - t

    latencies, failures, timed, k = [], [], 0.0, start
    while timed < seconds or (k - start) % period or not latencies:
        item = make(k)
        t = time.perf_counter()
        try:
            out, error = run(item), None
        except Exception as exc:  # noqa: BLE001 - a raising op is a failed op
            out, error = None, exc
        dt = time.perf_counter() - t
        latencies.append(dt * 1000)
        timed += dt
        problems = [f"{type(error).__name__}: {error}"] if error else _problems(check, item, out)
        if problems:
            failures.append({"op": k, "problems": problems[:3]})
        k += 1
    _write(result, {"setup_s": setup_s, "latencies_ms": latencies, "failures": failures, "next": k})


def mode_clicheck(seed: int, files: str, outputs: str, result: str) -> None:
    ref = CliReference(Path(files))
    failures = []
    for rec in json.loads(Path(outputs).read_text()):
        problems = _problems(check_cli, rec["op"], seed, rec["code"], rec["stdout"], ref)
        if problems:
            failures.append({"op": rec["op"]["index"], "problems": problems[:3]})
    _write(result, {"failures": failures})


def mode_trace(workload: str, seed: int, seconds: float, files: str, spans: str, result: str) -> None:
    make, run, check = workload_ops(workload, seed, Path(files))
    pass_len = inputs.PERIOD[workload]
    pass_ops = [make(k) for k in range(pass_len)]
    tracer = Tracer()
    traced_ops, failures, op_sub = 0, [], {}

    def one_pass(traced: bool) -> float:
        nonlocal traced_ops
        if traced:
            tracer.install()
        outs = []
        t = time.perf_counter()
        for item in pass_ops:
            if traced:
                tracer.op = traced_ops
                if workload == "cli-mix":
                    op_sub[traced_ops] = item[0]["sub"]
                traced_ops += 1
                tracer.active = True
            try:
                outs.append(run(item))
            except Exception as exc:  # noqa: BLE001 - a raising op is a failed op
                outs.append(exc)
            finally:
                tracer.active = False
        elapsed = time.perf_counter() - t
        if traced:
            tracer.uninstall()
            for item, out in zip(pass_ops, outs):
                problems = [f"{type(out).__name__}: {out}"] if isinstance(out, Exception) else _problems(check, item, out)
                if problems:
                    failures.append(problems[:3])
        return elapsed

    one_pass(False)  # warm-up
    plain, traced, start = [], [], time.perf_counter()
    while time.perf_counter() - start < seconds or not traced:
        traced.append(one_pass(True))
        plain.append(one_pass(False))
    tracer.check_attached(workload)

    metrics = {k: {"value": v, "unit": u} for k, (v, u) in tracer.metrics(traced_ops).items()}
    by_sub: dict[str, list[float]] = {s: [] for s in inputs.CLI_SUBCOMMANDS}
    for _, key, _, op, t0, t1 in tracer.spans:
        if key == "cli.main":
            by_sub[op_sub[op]].append((t1 - t0) / 1e6)
    for sub, values in by_sub.items():
        metrics[f"cli.{sub}.ms_p50"] = {"value": statistics.median(values) if values else 0.0, "unit": "ms"}
    # passes alternate, so pairing each traced pass with the untraced one after it cancels slow drift
    overhead = statistics.median(t - p for t, p in zip(traced, plain)) / pass_len * 1000
    metrics["trace.overhead_ms"] = {"value": overhead, "unit": "ms"}
    metrics["trace.overhead_pct"] = {"value": 100 * statistics.median(t / p - 1 for t, p in zip(traced, plain)), "unit": "%"}
    tracer.write_spans(Path(spans))
    _write(result, {"metrics": metrics, "attempted": traced_ops, "failures": failures})


def main(argv: list[str]) -> None:
    mode, rest = argv[0], argv[1:]
    if mode == "run":
        mode_run(rest[0], int(rest[1]), int(rest[2]), float(rest[3]), rest[4])
    elif mode == "clicheck":
        mode_clicheck(int(rest[0]), rest[1], rest[2], rest[3])
    elif mode == "trace":
        mode_trace(rest[0], int(rest[1]), float(rest[2]), rest[3], rest[4], rest[5])
    else:
        raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    main(sys.argv[1:])
