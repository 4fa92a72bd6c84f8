"""Named verification checks: every headline claim at desk scale.

Each check computes its numbers fresh, and its pass is read from the
numbers it reports, compared with named module bounds from which its
``expected`` string is written; a flag is kept only for the conditions the
report does not hold (certificates, exact equalities, query counts).  The
canonical JSON report is a pure function of (seed, code); wall-clock
timings stay out of it so two runs with the same seed serialize to
identical bytes.  The determinism check (10) holds that claim across
processes: a second Python interpreter, started before the base checks,
runs them again concurrently, and its report must match byte for byte.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import os
import subprocess
import sys
import time
from dataclasses import asdict, dataclass
from fractions import Fraction

import numpy as np

from . import adversary, measures, protocols, qsim
from .boolfn import BitString, PartialFunction, catalog, make_indexing, make_named
from .sabotage import SabString, StrongInput, make_strong

# The checks' bounds, each read by its check's decision and written into its
# ``expected`` string by _bound.
_FBS_TOL = 1e-6  # 01: fbs(indexing_n) against n + 1
# 02: the slack of bs <= fbs <= n, and how far the float LP may sit from the vertex oracle.
_SANDWICH_SLACK = 1e-9
_FLOAT_VS_EXACT = 1e-9
# 03 and 04: the certificate norm's error, and the slack on each per-position norm bound.
_NORM_TOL = 1e-7
_COLUMN_SLACK = 1e-9
_MARGIN_SLACK = 1e-9  # 04: how far the value may fall below fbs / (1 + sqrt(fbs))
_HYBRID_SLACK = 1e-9  # 06: the hybrid inequality and each step's overlap drop
_HYBRID_RANDOM = 200  # 06: random instances beside the two fixed ones
# 07: the strong decision's error, and the TV of the converted and wrapped runs from the source run.
_DECISION_TOL = 1e-12
_TV_TOL = 1e-10
# 08: closed-form error for n <= _GROVER_N positions and k <= _GROVER_K iterations.
_GROVER_TOL = 1e-10
_GROVER_N = 16
_GROVER_K = 5
# 09: identity and zero-round errors, the base preparation's 1/4, the amplified mass 1.
_IDENTITY_TOL = 1e-10
_BASE_P_TOL = 1e-12
_AMPLIFIED_TOL = 1e-9


def _bound(tol: float) -> str:
    """A power-of-ten bound as an ``expected`` string writes it: 1e-07 as "1e-7"."""
    return f"{tol:.0e}".replace("e-0", "e-")


class VerifyError(ValueError):
    """A negative seed, a check filter that is empty or selects no check, or a failed re-run."""


@dataclass
class CheckResult:
    name: str
    claim: str
    computed: dict
    expected: str
    passed: bool
    seconds: float

    def to_json_dict(self) -> dict:
        """The report entry: everything but the timing."""
        out = asdict(self)
        del out["seconds"]
        return out


# ---------------------------------------------------------------------------
# Independent rational LP oracle: vertex enumeration, each basis solved on its
# k <= n support by Cramer's rule on integer minors, no simplex pivoting


def _det(mat: list[list[int]]) -> int:
    """Integer determinant by cofactor expansion along the first row, skipping its zeros."""
    if len(mat) == 1:
        return mat[0][0]
    if len(mat) == 2:
        (a, b), (c, d) = mat
        return a * d - b * c
    rest = mat[1:]
    return sum(
        (-a if i % 2 else a) * _det([row[:i] + row[i + 1:] for row in rest])
        for i, a in enumerate(mat[0])
        if a
    )


def fbs_vertex_exact(f: PartialFunction, x: BitString | str) -> Fraction:
    """Optimal fbs value by enumerating basic points of the feasible polytope.

    The polytope is {w >= 0 : A w <= 1}, one coverage row of A per position.
    A basis picks m of its n + m constraints: k coverage rows T and m - k
    unit rows, which only fix their weights to 0.  So each basis is solved
    on its support S, the k <= n weights no unit row fixes: A[T, S] w_S = 1
    by Cramer's rule on integer 0/1 minors, w_c = det(M_c) / det(M) with
    M = A[T, S] and M_c its column c set to ones, w = 0 off S.  A singular
    block is no vertex.  Signs and loads are compared in integers, scaled by
    |det M|, and a Fraction is built only for a feasible point's value.
    Independent of the simplex route.
    """
    xb = BitString.coerce(x)
    ys = f.opposite_inputs(xb)
    if not ys:
        return Fraction(0)
    m, n = len(ys), f.n
    cover = [[(y.code ^ xb.code) >> (n - 1 - j) & 1 for y in ys] for j in range(n)]  # y differs from x at j + 1

    best = Fraction(0)  # k = 0: the vertex w = 0
    for k in range(1, min(n, m) + 1):
        for rows in itertools.combinations(range(n), k):
            for support in itertools.combinations(range(m), k):
                mat = [[cover[r][c] for c in support] for r in rows]
                det = _det(mat)
                if det == 0:
                    continue  # singular: not a vertex
                sign = 1 if det > 0 else -1
                # w_S = nums / (sign * det), so w >= 0 iff every num is.
                nums = [sign * _det([row[:i] + [1] + row[i + 1:] for row in mat]) for i in range(k)]
                if any(v < 0 for v in nums):
                    continue
                scale = sign * det
                if all(sum(cover[j][c] * v for c, v in zip(support, nums)) <= scale for j in range(n)):
                    best = max(best, Fraction(sum(nums), scale))
    return best


# ---------------------------------------------------------------------------
# Individual checks


def _check_fbs_indexing(seed: int) -> tuple[dict, bool]:
    computed = {f"fbs_ind_{n}": float(measures.fbs_global(make_indexing(n))[0]) for n in (2, 3)}
    return computed, all(abs(computed[f"fbs_ind_{n}"] - (n + 1)) <= _FBS_TOL for n in (2, 3))


def _check_measures_catalog(seed: int) -> tuple[dict, bool]:
    ok = True
    points = 0
    max_gap = 0.0
    max_float_vs_exact = 0.0
    for f in catalog(max_arity=6):
        for x in f.domain():
            points += 1
            bs = measures.block_sensitivity(f, x)
            sol = measures.fbs(f, x)
            ok &= bs <= sol.value + _SANDWICH_SLACK and sol.value <= f.n + _SANDWICH_SLACK
            try:
                sol.check_certificate(f)
            except measures.MeasureError:
                ok = False
            max_gap = max(max_gap, abs(sum(sol.dual) - sol.value))
            if f.n <= 3:
                exact = fbs_vertex_exact(f, x)
                max_float_vs_exact = max(max_float_vs_exact, abs(sol.value - float(exact)))
                ok &= measures.fbs(f, x, exact=True).value == exact
    computed = {
        "points": points,
        "max_duality_gap": max_gap,
        "max_float_vs_exact": max_float_vs_exact,
    }
    return computed, ok and max_gap <= measures.DUALITY_TOL and max_float_vs_exact <= _FLOAT_VS_EXACT


_CERT_CATALOG = (
    [("OR", n) for n in range(2, 7)]
    + [("AND", n) for n in range(2, 7)]
    + [("PARITY", n) for n in range(2, 7)]
    + [("MAJ", 3), ("MAJ", 5)]
)


def _cert_functions():
    for name, n in _CERT_CATALOG:
        yield make_named(name, n)
    yield make_indexing(2)


# (f, fbs(f, x)) at the maximiser x of fbs_global for each certificate
# function, read off the LP the sweep solved there, shared by checks 03 and
# 04.  Each base pass clears the cache first, so a second pass recomputes
# everything.
@functools.cache
def _cert_global_optima() -> tuple[tuple[PartialFunction, measures.FbsSolution], ...]:
    return tuple((f, measures._fbs_global_solution(f)) for f in _cert_functions())


def _check_fbs_certificates(seed: int) -> tuple[dict, bool]:
    worst_norm_err = 0.0
    worst_col = 0.0
    for f, sol in _cert_global_optima():
        cert = adversary.build_fbs_adversary(f, sol)
        worst_norm_err = max(worst_norm_err, abs(cert.norm_gamma**2 - float(sol.value)))
        worst_col = max(worst_col, max(cert.column_norms))
    ok = worst_norm_err <= _NORM_TOL and worst_col <= 1 + _COLUMN_SLACK
    return {"max_norm_sq_error": worst_norm_err, "max_column_norm": worst_col}, ok


def _check_sabotage_certificates(seed: int) -> tuple[dict, bool]:
    worst_norm_err = 0.0
    worst_col_slack = -float("inf")
    min_value_margin = float("inf")
    for f, sol in _cert_global_optima():
        value = float(sol.value)
        cert = adversary.build_sabotage_adversary(f, sol)
        worst_norm_err = max(worst_norm_err, abs(cert.norm_gamma - value))
        bound = 1 + math.sqrt(value) + _COLUMN_SLACK
        worst_col_slack = max(worst_col_slack, max(cert.column_norms) - bound)
        min_value_margin = min(min_value_margin, cert.value - value / (1 + math.sqrt(value)))
    computed = {
        "max_norm_error": worst_norm_err,
        "max_column_slack": worst_col_slack,
        "min_value_margin": min_value_margin,
    }
    ok = worst_norm_err <= _NORM_TOL and worst_col_slack <= 0 and min_value_margin >= -_MARGIN_SLACK
    return computed, ok


def _recount_relation(rel: adversary.Relation) -> dict[int, int]:
    """Exhaustive per-position recount of the worst load product.

    Works over its own coordinate codes and a flat pair list, read from the
    relation's labels and pairs, independent of the integer arrays that
    :class:`adversary.Relation` builds and :func:`adversary.relation_bound` sums.
    """
    labels = list(rel.x_side) + list(rel.y_side)
    ids = {label: i for i, label in enumerate(labels)}
    codes: dict[tuple[int, int], int] = {}
    coord_ids: dict = {}
    for label, i in ((lab, i) for lab in labels for i in range(rel.arity)):
        value = label[i]
        code = coord_ids.setdefault(value, len(coord_ids))
        codes[(ids[label], i)] = code
    pairs = [(ids[u], ids[v]) for u, v in rel.pairs]
    out: dict[int, int] = {}
    for u, v in pairs:
        for i in range(rel.arity):
            if codes[(u, i)] == codes[(v, i)]:
                continue
            lu = sum(1 for a, b in pairs if a == u and codes[(a, i)] != codes[(b, i)])
            lv = sum(1 for a, b in pairs if b == v and codes[(a, i)] != codes[(b, i)])
            out[i + 1] = max(out.get(i + 1, 0), lu * lv)
    return out


def _check_indexing_relation(seed: int) -> tuple[dict, bool]:
    ok = True
    computed = {}
    for n in (2, 3, 4):
        for strong in (False, True):
            rel = adversary.build_indexing_relation(n, strong=strong)
            rb = adversary.relation_bound(rel)
            want_m = math.comb(n, 2)
            addr = {rb.per_position.get(j) for j in range(1, n + 1)}
            data = {rb.per_position[j] for j in rb.per_position if j > n}
            label = f"n{n}_{'strong' if strong else 'weak'}"
            computed[label] = {
                "m_x": rb.m_x,
                "m_y": rb.m_y,
                "l_max": rb.l_max,
                "bound": rb.bound,
                "min_aggregate": min(max(addr), max(data)),
                "max_aggregate": max(max(addr), max(data)),
            }
            ok &= rb.m_x == rb.m_y == want_m and addr == {(n - 1) ** 2} and data == {want_m}
            ok &= _recount_relation(rel) == dict(rb.per_position)
    return computed, ok


def _hybrid_instances(seed: int):
    yield qsim.deutsch_parity(), BitString.from_text("00"), (1, 2)
    yield qsim.grover_or(4, 1), BitString.from_text("0000"), (3,)
    rng = np.random.default_rng([seed, 6])
    for _ in range(_HYBRID_RANDOM):
        alg = qsim.random_query_algorithm(3, 2, rng)
        x = BitString(tuple(int(b) for b in rng.integers(0, 2, size=3)))
        size = int(rng.integers(1, 4))
        block = tuple(sorted(int(j) + 1 for j in rng.choice(3, size=size, replace=False)))
        yield alg, x, block


def _check_hybrid(seed: int) -> tuple[dict, bool]:
    count = 0
    min_slack = float("inf")
    worst_step = -float("inf")
    for alg, x, block in _hybrid_instances(seed):
        rep = qsim.hybrid_sum(alg, x, block)
        count += 1
        min_slack = min(min_slack, rep.sum_x + rep.sum_y - (1 - rep.overlap))
        for t in range(len(rep.step_overlaps) - 1):
            drop = rep.step_overlaps[t] - rep.step_overlaps[t + 1]
            worst_step = max(worst_step, drop - (rep.p_x[t] + rep.p_y[t]))
    ok = min_slack >= -_HYBRID_SLACK and worst_step <= _HYBRID_SLACK
    return {"instances": count, "min_slack": min_slack, "max_step_excess": worst_step}, ok


def _tv(p: dict, q: dict) -> float:
    keys = set(p) | set(q)
    return 0.5 * sum(abs(p.get(k, 0.0) - q.get(k, 0.0)) for k in keys)


def _wrapped_tv(conv: protocols.ConvertedAlgorithm, w: StrongInput, want: dict) -> float:
    """TV from ``want`` of the wrapped algorithm simulated on the strong oracle of w."""
    got = qsim.run(conv.wrapped, qsim.oracle_strong(w)).distribution
    assert got is not None
    return _tv(got, want)


def _check_conversion(seed: int) -> tuple[dict, bool]:
    # run_converted runs the source on the bit string the gadget reads off, so
    # each input also simulates the wrapped algorithm itself on its strong oracle.
    xor2 = make_named("XOR2", 2)
    source = qsim.deutsch_parity()
    conv = protocols.convert_strong(source)
    worst_decide = 0.0
    worst_tv = 0.0
    for x in xor2.d0:
        for y in xor2.d1:
            for marker in ("*", "+"):
                w = make_strong(xor2, x, y, marker)
                d = conv.decide(w)
                worst_decide = max(worst_decide, abs(d.get(marker, 0.0) - 1.0))
                want = qsim.run(source, qsim.oracle_bit(x if marker == "*" else y)).distribution
                worst_tv = max(worst_tv, _wrapped_tv(conv, w, want))

    or4 = make_named("OR", 4)
    source = qsim.grover_or(4, 1)
    cg = protocols.convert_strong(source)
    for x in or4.d0:
        for y in or4.d1:
            for marker in ("*", "+"):
                w = make_strong(or4, x, y, marker)
                got = protocols.run_converted(cg, w)
                base = x if marker == "*" else y
                want = qsim.run(source, qsim.oracle_bit(base)).distribution
                assert want is not None
                worst_tv = max(worst_tv, _tv(got, want), _wrapped_tv(cg, w, want))
    ok = cg.wrapped.query_count == 2 * source.query_count and worst_decide <= _DECISION_TOL
    return {"max_decision_error": worst_decide, "max_tv": worst_tv}, ok and worst_tv <= _TV_TOL


def _grover_masses(z: SabString, iterations: int) -> list[float]:
    """Mark-search success mass after k = 0..iterations iterations, from one run.

    A run of ``iterations`` iterations yields the state before each query and
    each inverse query, then its final state, so every other yield is the
    state after k iterations: the final state of a k-iteration run, as
    :func:`qsim.grover_find_mark` computes it.  Each mass is summed as it sums it.
    """
    n, marks = len(z), z.mark_positions
    states = qsim.evolve(qsim._grover_marks(n, iterations), qsim.oracle_weak(z))
    masses = []
    for state in itertools.islice(states, None, None, 2):
        probs = tuple(qsim.index_marginal(state, n).tolist())
        masses.append(float(sum(probs[j - 1] for j in marks)))
    return masses


def _check_grover_closed_form(seed: int) -> tuple[dict, bool]:
    ok = True
    worst = 0.0
    cases = 0
    for n in range(1, _GROVER_N + 1):
        for m in range(1, n + 1):
            z = SabString(tuple([2] * m + [0] * (n - m)))
            # One shared run gives every k; grover_find_mark must agree with it at the last k.
            masses = _grover_masses(z, _GROVER_K)
            ok &= qsim.grover_find_mark(z, _GROVER_K).success_mass == masses[-1]
            theta = math.asin(math.sqrt(m / n))
            cases += len(masses)
            for k, mass in enumerate(masses):
                worst = max(worst, abs(mass - math.sin((2 * k + 1) * theta) ** 2))
    single = qsim.grover_find_mark(SabString.from_text("00*0"), 1)
    ok &= abs(single.position_probs[2] - 1.0) <= _GROVER_TOL
    computed = {"cases": cases, "max_error": worst, "n4_single_mark_k1": single.success_mass}
    return computed, ok and worst <= _GROVER_TOL and abs(single.success_mass - 1.0) <= _GROVER_TOL


def _check_index_finder(seed: int) -> tuple[dict, bool]:
    xor2 = make_named("XOR2", 2)
    or4 = make_named("OR", 4)
    worst_identity = 0.0
    worst_aa0 = 0.0
    instances = [
        (qsim.deutsch_parity(), make_strong(xor2, "00", "01", "*")),
        (qsim.grover_or(4, 1), make_strong(or4, "0000", "0010", "*")),
    ]
    for alg, w in instances:
        rep = protocols.sample_interrupt(alg, w, seed=seed)
        hb = qsim.hybrid_sum(alg, w.x, sorted(w.z.mark_positions))
        identity = (hb.sum_x + hb.sum_y) / (2.0 * alg.query_count)
        worst_identity = max(worst_identity, abs(rep.exact_success - identity))
        amp0 = protocols.find_index_amplified(alg, w, rounds=0, seed=seed)
        worst_aa0 = max(worst_aa0, abs(amp0.exact_success - rep.exact_success))

    # 1-query preparation with exactly 1/4 of the index mass on the block.
    layout = qsim.RegisterLayout(n=2, symbol="bit", workspace=1)
    rot = np.array([[math.sqrt(3) / 2, -0.5], [0.5, math.sqrt(3) / 2]], dtype=np.complex128)
    base_alg = qsim.QueryAlgorithm(
        layout=layout,
        steps=((qsim.Gate.block(rot, (0,)),), qsim.QUERY, ()),
        measure=qsim.Measurement(registers=("index",)),
    )
    w_base = make_strong(xor2, "00", "01", "*")
    base = protocols.sample_interrupt(base_alg, w_base, seed=seed)
    amp1 = protocols.find_index_amplified(base_alg, w_base, rounds=1, seed=seed)
    computed = {
        "max_identity_error": worst_identity,
        "max_aa0_error": worst_aa0,
        "base_p": base.exact_success,
        "amplified_once": amp1.exact_success,
    }
    ok = max(worst_identity, worst_aa0) <= _IDENTITY_TOL and abs(base.exact_success - 0.25) <= _BASE_P_TOL
    return computed, ok and abs(amp1.exact_success - 1.0) <= _AMPLIFIED_TOL


_CHECKS: dict[str, tuple[str, str, object]] = {
    "01-fbs-indexing": (
        "fbs(indexing_n) = n + 1 for n in {2, 3}",
        f"values 3 and 4 within {_bound(_FBS_TOL)}",
        _check_fbs_indexing,
    ),
    "02-measures-catalog": (
        "bs <= fbs <= n at every domain point; LP value certified by its dual; float LP agrees with the rational vertex oracle for n <= 3",
        f"duality gap <= {_bound(measures.DUALITY_TOL)}; float-vs-exact <= {_bound(_FLOAT_VS_EXACT)}",
        _check_measures_catalog,
    ),
    "03-fbs-certificate": (
        "star certificate norm squares to fbs(f, x) with unit per-position norms",
        f"norm^2 error <= {_bound(_NORM_TOL)}; column norms <= 1 + {_bound(_COLUMN_SLACK)}",
        _check_fbs_certificates,
    ),
    "04-sabotage-certificate": (
        "sabotage certificate norm equals fbs(f); per-position norms at most 1 + sqrt(fbs); value at least fbs / (1 + sqrt(fbs))",
        f"norm error <= {_bound(_NORM_TOL)}; column slack <= 0; value margin >= -{_bound(_MARGIN_SLACK)}",
        _check_sabotage_certificates,
    ),
    "05-indexing-relation": (
        "indexing relation: m_X = m_Y = C(n, 2); address load products (n-1)^2; data load products C(n, 2)",
        "exact integers, recounted exhaustively, n in {2, 3, 4}, weak and strong",
        _check_indexing_relation,
    ),
    "06-hybrid-argument": (
        "sum_t(p_t + p_t^B) >= 1 - |<psi_x|psi_{x_B}>| and each overlap drop is at most p_{x,t} + p_{y,t}",
        f"slack >= -{_bound(_HYBRID_SLACK)} on {_HYBRID_RANDOM + 2} instances",
        _check_hybrid,
    ),
    "07-strong-conversion": (
        "wrapped run equals the source run on x for star inputs and on y for dagger inputs; wrapped queries = 2x source",
        f"decision exact to {_bound(_DECISION_TOL)} on all 8 strong inputs; TV <= {_bound(_TV_TOL)} on all pairs",
        _check_conversion,
    ),
    "08-grover-closed-form": (
        "mark-search success mass equals sin^2((2k+1) asin sqrt(m/n))",
        f"error <= {_bound(_GROVER_TOL)} for n <= {_GROVER_N}, m <= n, k <= {_GROVER_K}; single mark n=4, k=1 hits 1",
        _check_grover_closed_form,
    ),
    "09-index-finder": (
        "per-trial success = (sum p_t + sum p_t^B) / (2T); zero-round amplification reproduces it; one round lifts 1/4 to 1",
        f"identity and zero-round error <= {_bound(_IDENTITY_TOL)}; amplified mass 1 within {_bound(_AMPLIFIED_TOL)}",
        _check_index_finder,
    ),
}

DETERMINISM_CHECK = "10-determinism"


def _selected_checks(only: str | None) -> list[str]:
    if only == "":
        raise VerifyError(
            f"the check filter is empty; with no filter every check runs, {DETERMINISM_CHECK} included"
        )
    names = [name for name in sorted(_CHECKS) if only is None or only in name]
    if not names:
        raise VerifyError(
            f"no check name contains {only!r}; the checks are {', '.join(sorted(_CHECKS))}"
            f" ({DETERMINISM_CHECK} runs only without a filter)"
        )
    return names


def _run_check(name: str, seed: int) -> CheckResult:
    claim, expected, fn = _CHECKS[name]
    start = time.perf_counter()
    computed, passed = fn(seed)
    elapsed = time.perf_counter() - start
    return CheckResult(
        name=name,
        claim=claim,
        computed=computed,
        expected=expected,
        passed=bool(passed),
        seconds=elapsed,
    )


def _run_base_checks(seed: int, only: str | None = None) -> list[CheckResult]:
    names = _selected_checks(only)
    _cert_global_optima.cache_clear()
    return [_run_check(name, seed) for name in names]


def canonical_report(results: list[CheckResult], seed: int) -> str:
    """Deterministic JSON report: no timings, sorted keys, name-fixed order."""
    payload = {
        "seed": seed,
        "passed": all(r.passed for r in results),
        "checks": [r.to_json_dict() for r in sorted(results, key=lambda r: r.name)],
    }
    return json.dumps(payload, sort_keys=True, indent=2)


# The determinism re-run: a fresh interpreter imports sablab from the
# directory this process imported it from, runs the base checks and writes
# their canonical report to stdout.  -E drops PYTHON* variables, PYTHONHASHSEED
# among them, so the two passes share no cache, no module state and no
# str hash seed; -B keeps this process's choice not to write bytecode.
_IMPORT_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_RERUN_SOURCE = """\
import sys
sys.path.insert(0, sys.argv[1])
from sablab import verify
seed = int(sys.argv[2])
sys.stdout.write(verify.canonical_report(verify._run_base_checks(seed), seed))
"""


def run_checks(seed: int = 0, only: str | None = None) -> list[CheckResult]:
    """Run the checks whose name contains ``only``, or all of them.

    Without a filter the byte-determinism check is appended.  It starts a
    second interpreter (``sys.executable``) before the base checks; that
    process re-runs the whole base suite while this one runs it, and the two
    canonical reports must match byte for byte.  Its ``seconds`` is the time
    from launching the re-run to receiving its report, so it overlaps the
    base checks.  The re-run is always reaped, also when a base check raises;
    one that exits non-zero raises :class:`VerifyError` with its exit code
    and last error line.  A filtered run starts no second process.
    A negative seed, or a filter that is empty or matches no check, raises
    :class:`VerifyError` before any check runs.
    """
    if seed < 0:
        raise VerifyError(f"seed must be >= 0, got {seed}")
    if only is not None:
        return _run_base_checks(seed, only)
    start = time.perf_counter()
    flags = ["-E", "-B"] if sys.dont_write_bytecode else ["-E"]
    argv = [sys.executable, *flags, "-c", _RERUN_SOURCE, _IMPORT_DIR, str(seed)]
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as rerun:
        try:
            results = _run_base_checks(seed)
            second, errors = rerun.communicate()
        except BaseException:
            rerun.kill()
            raise
    elapsed = time.perf_counter() - start
    if rerun.returncode != 0:
        lines = errors.decode(errors="replace").strip().splitlines() or ["no error output"]
        raise VerifyError(f"the determinism re-run exited with code {rerun.returncode}: {lines[-1]}")
    first = canonical_report(results, seed)
    identical = first.encode() == second
    results.append(
        CheckResult(
            name=DETERMINISM_CHECK,
            claim="re-running the suite with the same seed reproduces the report byte for byte",
            computed={"bytes": len(first), "identical": identical},
            expected="byte-identical canonical reports",
            passed=identical,
            seconds=elapsed,
        )
    )
    return results
