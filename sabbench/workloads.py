"""The four workloads: inputs drawn from a seed, one fixed round of calls, checks.

A workload object is built once per setup; ``round`` then makes the same
calls every time it runs.  Every call into sablab goes through
:meth:`Round.op`, which times it, counts it as attempted, and counts it as
failed when it raises or when its check (see :mod:`oracles`) reports a
wrong answer.  Checks run outside the timed region.

Calls look functions up on the sablab modules at call time, so a tracer
installed between rounds sees them.
"""

from __future__ import annotations

import math
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

import oracles
from sablab import adversary, boolfn, cli, measures, protocols, qsim, sabotage

OUT_DIR = Path(__file__).resolve().parent / "_out"


class Round:
    """Counters and per-phase program time of one round."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.phase_s: dict[str, float] = defaultdict(float)
        self.work: dict[str, float] = defaultdict(float)

    @property
    def seconds(self) -> float:
        return sum(self.phase_s.values())

    def op(self, phase: str, fn, *args, check=None, expect: type | None = None, **kwargs):
        """Call ``fn``; ``check(result)`` returns None or the reason the result is wrong.

        With ``expect`` the call must raise that exception type, and the check
        receives the exception instead of a result.
        """
        self.attempted += 1
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:  # a raising call is a failed operation, not a crash
            self.phase_s[phase] += time.perf_counter() - start
            if expect is not None and isinstance(exc, expect):
                self._judge(phase, check, exc)
                return exc
            self._judge(phase, f"{getattr(fn, '__name__', fn)} raised {exc!r}")
            return None
        self.phase_s[phase] += time.perf_counter() - start
        if expect is not None:
            self._judge(phase, f"{getattr(fn, '__name__', fn)} returned instead of raising {expect.__name__}")
            return None
        self._judge(phase, check, result)
        return result

    def _judge(self, phase: str, check, value=None) -> None:
        """Count a failure when ``check`` is a reason, or a callable that returns one or raises."""
        reason = check
        if callable(check):
            try:
                reason = check(value)
            except Exception as exc:  # a malformed result fails its operation
                reason = f"check raised {exc!r}"
        if reason:
            self.failed += 1
            print(f"FAILED [{phase}] {reason}", file=sys.stderr)


def first(*reasons):
    return next((r for r in reasons if r), None)


def _rate(work: float, seconds: float) -> float:
    return work / seconds if seconds > 0 else 0.0


def _bit_tuples(n: int):
    return [tuple((k >> (n - 1 - i)) & 1 for i in range(n)) for k in range(1 << n)]


# ---------------------------------------------------------------------------
# certify


def _table(name: str, n: int) -> dict:
    """Truth tables written from the definitions, apart from boolfn."""
    if name == "IND":  # n address bits, MSB first, then 2^n data bits, 1-based
        return {b: b[n + int("".join(map(str, b[:n])), 2)] for b in _bit_tuples(n + (1 << n))}
    rules = {
        "MAJ": lambda b: int(2 * sum(b) > n),
        "OR": lambda b: int(any(b)),
        "PARITY": lambda b: sum(b) % 2,
    }
    return {b: rules[name](b) for b in _bit_tuples(n)}


def _hard_index_point(rng, n: int) -> tuple[int, ...]:
    """Input of IND_n with n + 1 disjoint sensitive blocks: fbs = bs = n + 1."""
    size = 1 << n
    addr = int(rng.integers(size))
    data = [int(b) for b in rng.integers(0, 2, size=size)]
    for i in range(n):
        data[addr ^ (1 << i)] = 1 - data[addr]
    return tuple((addr >> (n - 1 - i)) & 1 for i in range(n)) + tuple(data)


class _Spec:
    """One function of the certify workload and what is asked of it."""

    def __init__(self, name, f, table, points, *, exact=False, bs=True, fbs_global=False,
                 sab=False, closed_max=None, hard=()):
        self.name, self.f, self.table = name, f, table
        self.points = [boolfn.BitString(p) for p in points]
        self.exact, self.bs, self.fbs_global, self.sab = exact, bs, fbs_global, sab
        self.closed_max = closed_max  # known global maximum of fbs
        self.hard = {boolfn.BitString(p) for p in hard}  # points where fbs = closed_max
        self.pairs = sum(1 for v in table.values() if v == 0) * sum(1 for v in table.values() if v == 1)


class Certify:
    """fbs/bs with certificates, exact fbs, adversary witnesses, relation bounds, sabotage sets."""

    name = "certify"

    def __init__(self, seed: int, smoke: bool = False) -> None:
        rng = np.random.default_rng([seed, 11])
        few = 2 if smoke else None

        def pick(table, k):
            keys = list(table)
            k = min(few or k, len(keys))
            return [keys[i] for i in sorted(rng.choice(len(keys), size=k, replace=False))]

        def random_table(n, size):
            """``size`` seed-drawn inputs of length n, half of them mapped to 1."""
            every = _bit_tuples(n)
            keys = [every[i] for i in sorted(rng.choice(len(every), size=size, replace=False))]
            vals = rng.permutation([i % 2 for i in range(size)])
            return {b: int(v) for b, v in zip(keys, vals)}

        def by_weight(n):
            """One seed-drawn point of every Hamming weight: LP and packing costs depend on it."""
            points = []
            for w in range(n + 1):
                ones = set(int(j) for j in rng.choice(n, size=w, replace=False))
                points.append(tuple(int(j in ones) for j in range(n)))
            return points

        specs = []
        ind_n = 2 if smoke else 3
        t = _table("IND", ind_n)
        hard = [_hard_index_point(rng, ind_n) for _ in range(2)]
        specs.append(_Spec(f"IND_{ind_n}", boolfn.make_indexing(ind_n), t, pick(t, 10) + hard,
                           closed_max=ind_n + 1, hard=hard))
        for name, n, k, extra in (("MAJ", 9, None, {"fbs_global": True, "closed_max": 5}),
                                  ("MAJ", 11, None, {"bs": False}),
                                  ("OR", 10, 3, {}),
                                  ("PARITY", 9, 4, {})):
            if smoke:
                n = min(n, 5)
                extra = {"fbs_global": True, "closed_max": 3} if "fbs_global" in extra else {}
            t = _table(name, n)
            points = by_weight(n) if k is None else pick(t, k) + ([(0,) * n] if name == "OR" else [])
            specs.append(_Spec(f"{name}_{n}", boolfn.make_named(name, n), t, points, **extra))
        randoms = [(8, 256, 6, {"fbs_global": True, "sab": True}),
                   (9, 128, 8, {"sab": True})]
        randoms += [(7, 128, 3, {"exact": True})] * (2 if smoke else 6)  # many small LPs: a steady mean
        for i, (n, size, k, extra) in enumerate(randoms):
            if smoke:
                n, size = min(n, 5), min(size, 16)
            t = random_table(n, size)
            name = f"R{n}{'T' if size == 1 << n else 'P'}-{i}"
            f = boolfn.PartialFunction(name, n, t, total=size == 1 << n)
            specs.append(_Spec(name, f, t, pick(t, k), **extra))
        self.specs = specs
        self.setup_errors = [f"{s.name}: truth table differs from its definition" for s in specs
                             if {tuple(k.bits): v for k, v in s.f.entries.items()} != s.table]
        self.relation_ns = (2, 3) if smoke else (2, 3, 4)
        self._sab_expected: dict[str, int] = {}

    def round(self, r: Round, index: int) -> None:
        # Start every round with an empty sabotage cache, so the memory held
        # by cached sets does not grow with the number of rounds run.
        enum = sabotage.enumerate_sabotaged
        clear = getattr(enum, "cache_clear", None) or getattr(getattr(enum, "__wrapped__", None), "cache_clear", None)
        if clear is not None:
            clear()
        for spec in self.specs:
            self._function(r, spec, index)
        for n in self.relation_ns:
            for strong in (False, True):
                r.op("cert", _relation_bound, n, strong, check=lambda rb, n=n: oracles.relation_closed_form(n, rb))
                r.work["certs"] += 1

    def _function(self, r: Round, spec: _Spec, index: int) -> None:
        f, table, n = spec.f, spec.table, spec.f.n
        best = None
        for x in spec.points:
            closed = oracles.fbs_closed_form(spec.name, n, x)

            def check_float(sol, x=x, closed=closed):
                return first(
                    oracles.fbs_optimality(table, n, x, sol.weights, sol.dual, sol.value, exact=False),
                    None if sol.value <= n + 1e-9 else f"fbs {sol.value} above n = {n}",
                    None if closed is None or abs(sol.value - float(closed)) <= 1e-9
                    else f"fbs {sol.value}, closed form {closed}",
                    None if spec.closed_max is None or sol.value <= spec.closed_max + 1e-9
                    else f"fbs {sol.value} above the maximum {spec.closed_max}",
                    None if x not in spec.hard or abs(sol.value - spec.closed_max) <= 1e-9
                    else f"fbs {sol.value} at a point built to reach {spec.closed_max}",
                )

            sol = r.op("fbs", measures.fbs, f, x, check=check_float)
            if sol is None:
                continue
            r.op("fbs", sol.check_certificate, f)
            r.work["fbs_points"] += 1
            if spec.bs:
                r.op("bs", measures.block_sensitivity, f, x,
                     check=lambda bs, sol=sol, x=x: first(
                         None if 0 <= bs <= sol.value + 1e-9 else f"bs {bs} above fbs {sol.value}",
                         None if x not in spec.hard or bs == spec.closed_max
                         else f"bs {bs} at a point with {spec.closed_max} disjoint blocks"))
                r.work["bs_points"] += 1
            if spec.exact:
                r.op("exact", measures.fbs, f, x, exact=True,
                     check=lambda ex, sol=sol, x=x: first(
                         oracles.fbs_optimality(table, n, x, ex.weights, ex.dual, ex.value, exact=True),
                         None if abs(float(ex.value) - sol.value) <= 1e-9
                         else f"exact {ex.value} vs float {sol.value}"))
                r.work["exact_points"] += 1
            if best is None or sol.value > best.value:
                best = sol
        if spec.fbs_global:
            def check_global(result):
                value, _ = result
                return first(
                    None if best is None or value >= best.value - 1e-9 else f"global {value} below a sampled point",
                    None if value <= n + 1e-9 else f"global {value} above n",
                    None if spec.closed_max is None or abs(value - spec.closed_max) <= 1e-9
                    else f"global {value}, closed form {spec.closed_max}")

            result = r.op("global", measures.fbs_global, f, check=check_global)
            if result is not None:
                at = r.op("global", measures.fbs, f, result[1])
                if at is not None:
                    r.op("global", at.check_certificate, f)
        if best is not None and best.value > 0:
            value = float(best.value)
            r.op("cert", adversary.build_fbs_adversary, f, best, check=lambda c: first(
                oracles.spectral_check(c, _differs),
                None if abs(c.norm_gamma ** 2 - value) <= 1e-7 else f"norm^2 {c.norm_gamma ** 2} vs fbs {value}",
                None if max(c.column_norms) <= 1 + 1e-9 else f"column norm {max(c.column_norms)} above 1"))
            r.op("cert", adversary.build_sabotage_adversary, f, best, check=lambda c: first(
                oracles.spectral_check(c, _differs),
                None if abs(c.norm_gamma - value) <= 1e-7 else f"norm {c.norm_gamma} vs fbs {value}",
                None if max(c.column_norms) <= 1 + math.sqrt(value) + 1e-9
                else f"column norm {max(c.column_norms)} above 1 + sqrt(fbs)"))
            r.work["certs"] += 2
        if spec.sab:
            # A fresh name makes the function new to the process, so no cache answers.
            fresh = boolfn.PartialFunction(f"{spec.name}#{index}", n, f.entries, total=f.total)
            if spec.name not in self._sab_expected:
                self._sab_expected[spec.name] = oracles.sabotaged_count(table, n)
            want = self._sab_expected[spec.name]
            r.op("sab", sabotage.enumerate_sabotaged, fresh, check=lambda sets: None
                 if len(sets[0]) == len(sets[1]) == want
                 else f"{len(sets[0])} star / {len(sets[1])} dagger strings, recount {want}")
            r.work["sab_pairs"] += spec.pairs

    @staticmethod
    def details(rounds: list[Round]) -> list[tuple[str, float, str]]:
        phase, work = _sum_rounds(rounds)
        return [
            ("fbs_points_per_s", _rate(work["fbs_points"], phase["fbs"]), "points/s"),
            ("exact_points_per_s", _rate(work["exact_points"], phase["exact"]), "points/s"),
            ("bs_points_per_s", _rate(work["bs_points"], phase["bs"]), "points/s"),
            ("certs_per_s", _rate(work["certs"], phase["cert"]), "certificates/s"),
            ("sab_pairs_per_s", _rate(work["sab_pairs"], phase["sab"]), "pairs/s"),
            ("fbs_global_s", phase["global"] / len(rounds), "s/round"),
        ]


def _relation_bound(n: int, strong: bool):
    return adversary.relation_bound(adversary.build_indexing_relation(n, strong=strong))


def _differs(u, v, j: int) -> bool:
    return u[j - 1] != v[j - 1]


def _sum_rounds(rounds: list[Round]):
    phase: dict[str, float] = defaultdict(float)
    work: dict[str, float] = defaultdict(float)
    for r in rounds:
        for k, v in r.phase_s.items():
            phase[k] += v
        for k, v in r.work.items():
            work[k] += v
    return phase, work


# ---------------------------------------------------------------------------
# simulate-wide


def _haar(rng, dim: int) -> np.ndarray:
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


class _Wide:
    """Haar-random bit-oracle algorithm, with the plain gate list kept for the dense oracle."""

    def __init__(self, rng, n: int, work_qubits: int, queries: int) -> None:
        layout = qsim.RegisterLayout(n=n, symbol="bit", workspace=1 << work_qubits)
        last = len(layout.dims) - 1
        mid = 2 + work_qubits // 2

        def layer():
            return [
                ((0, 1), _haar(rng, 2 * n)),        # index and target: leading axes
                ((mid, mid + 1), _haar(rng, 4)),    # two interior workspace qubits
                ((1, mid - 1), _haar(rng, 4)),      # target with a distant workspace qubit
                ((last,), _haar(rng, 2)),           # trailing axis
            ]

        self.plain = [layer()]
        for _ in range(queries):
            self.plain += ["QUERY", layer()]
        steps = tuple(qsim.QUERY if s == "QUERY" else tuple(qsim.Gate.block(m, w) for w, m in s)
                      for s in self.plain)
        self.alg = qsim.QueryAlgorithm(layout=layout, steps=steps,
                                       measure=qsim.Measurement(registers=("index",)))
        self.x = tuple(int(b) for b in rng.integers(0, 2, size=n))


def _updates(alg) -> int:
    """State dimension times (gate applications + queries) for one run."""
    ops = sum(1 if s in (qsim.QUERY, qsim.QUERY_INV) else len(s) for s in alg.steps)
    return alg.layout.total_dim * ops


def _run_bit(alg, x):
    return qsim.run(alg, qsim.oracle_bit(boolfn.BitString(x)))


class SimulateWide:
    """Few steps on 2^16..2^20-amplitude states: kernels and state copies."""

    name = "simulate-wide"

    def __init__(self, seed: int, smoke: bool = False) -> None:
        rng = np.random.default_rng([seed, 12])
        shrink = 6 if smoke else 0
        n = 8
        self.runs = [_Wide(rng, n, 16 - shrink, 2) for _ in range(2)]   # 2^20 amplitudes
        self.hybrid = _Wide(rng, n, 14 - shrink, 3)                    # 2^18
        self.block = tuple(sorted(int(j) + 1 for j in rng.choice(n, size=int(rng.integers(1, 4)), replace=False)))
        self.source = _Wide(rng, n, 12 - shrink, 2)                    # 2^16, wrapped to 2^20
        y = list(self.source.x)
        for j in rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False):
            y[j] ^= 1
        self.y = tuple(y)
        self.strong = {
            m: sabotage.StrongInput.from_pair(boolfn.BitString(self.source.x), boolfn.BitString(self.y), m)
            for m in ("*", "+")
        }
        self.small = _Wide(rng, n, 6 - shrink // 3, 2)               # 2^10, dense oracle
        self._dense = None
        self._first: dict[int, dict] = {}

    def round(self, r: Round, index: int) -> None:
        for i, w in enumerate(self.runs):
            r.op("run", _run_bit, w.alg, w.x, check=lambda t, i=i: self._stable(i, t))
            r.work["updates"] += _updates(w.alg)
        h = self.hybrid
        r.op("hybrid", qsim.hybrid_sum, h.alg, boolfn.BitString(h.x), self.block, check=oracles.hybrid_inequality)
        r.work["updates"] += 2 * _updates(h.alg)

        src = self.source.alg
        conv = r.op("convert", protocols.convert_strong, src, check=lambda c: None
                    if c.wrapped.query_count == 2 * src.query_count else "wrapped query count is not 2x")
        if conv is not None:
            for marker, base in (("*", self.source.x), ("+", self.y)):
                want = r.op("convert", _run_bit, src, base)
                r.work["updates"] += _updates(src)
                if want is None:
                    continue
                r.op("convert", protocols.run_converted, conv, self.strong[marker], check=lambda got, want=want: None
                     if oracles.total_variation(got, want.distribution) <= 1e-10
                     else f"converted run differs from the source run (TV {oracles.total_variation(got, want.distribution)})")
                r.work["updates"] += _updates(conv.wrapped)

        s = self.small
        if self._dense is None:
            self._dense = oracles.dense_run(s.alg.layout.dims, s.plain, s.x)
        r.op("dense", _run_bit, s.alg, s.x, check=lambda t: None
             if np.abs(t.final_state - self._dense).max() <= 1e-10 else "state differs from the dense simulation")
        r.work["updates"] += _updates(s.alg)

    def _stable(self, i: int, trace) -> str | None:
        """Unit norm, and the same distribution as in the first round."""
        if abs(float(np.linalg.norm(trace.final_state)) - 1.0) > 1e-9:
            return "final state is not normalised"
        dist = trace.distribution
        if self._first.setdefault(i, dist) != dist:
            return "distribution changed between rounds"
        return None

    @staticmethod
    def details(rounds: list[Round]) -> list[tuple[str, float, str]]:
        phase, work = _sum_rounds(rounds)
        return [("amp_updates_per_s", _rate(work["updates"], sum(phase.values())), "amplitudes/s")]


# ---------------------------------------------------------------------------
# search-small


def _sab(symbols) -> sabotage.SabString:
    return sabotage.SabString(tuple(int(s) for s in symbols))


def _oversized_algorithm(workspace: int, queries: int):
    layout = qsim.RegisterLayout(n=16, symbol="bit", workspace=workspace)
    steps = [(qsim.Gate.block(qsim.uniform_prep_block(16), (0,)),)]
    for _ in range(queries):
        steps += [qsim.QUERY, ()]
    return qsim.QueryAlgorithm(layout=layout, steps=tuple(steps))


class SearchSmall:
    """Thousands of small simulations where per-call overhead dominates."""

    name = "search-small"

    def __init__(self, seed: int, smoke: bool = False) -> None:
        rng = np.random.default_rng([seed, 13])
        star, dagger = sabotage.STAR, sabotage.DAGGER

        def marked(n, m):
            symbols = [int(b) for b in rng.integers(0, 2, size=n)]
            marker = star if rng.random() < 0.5 else dagger
            for j in rng.choice(n, size=m, replace=False):
                symbols[j] = marker
            return symbols

        # The sizes (n, k) run over fixed grids, so the cost of a round does
        # not depend on the seed; marks, pairs and sampling seeds are drawn.
        reps = 1 if smoke else 10
        self.grover = []
        for _ in range(reps):
            for n in range(1, 17):
                for k in range(6):
                    m = int(rng.integers(1, n + 1))
                    self.grover.append((_sab(marked(n, m)), m, k))
        self.baseline = []
        for _ in range(reps):
            for n in range(2, 17):
                m = int(rng.integers(1, max(2, n // 3)))
                self.baseline.append((_sab(marked(n, m)), int(rng.integers(1 << 32))))
        self.finders = []
        for _ in range(1 if smoke else 3):
            for n in (range(2, 13, 5) if smoke else range(2, 13)):
                for k in range(1, 4):
                    y = [0] * n
                    for j in rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False):
                        y[j] = 1
                    w = sabotage.StrongInput.from_pair(boolfn.BitString((0,) * n), boolfn.BitString(tuple(y)),
                                                      "*" if rng.random() < 0.5 else "+")
                    self.finders.append((qsim.grover_or(n, k), w, int(rng.integers(1 << 32))))
        self.deutsch = qsim.deutsch_parity()
        self.or4 = qsim.grover_or(4, 1)
        xor2 = [(b, (b[0] + b[1]) % 2) for b in _bit_tuples(2)]
        self.xor2_pairs = [(x, y) for x, fx in xor2 for y, fy in xor2 if fx == 0 and fy == 1]
        self.or4_pairs = [((0,) * 4, y) for y in _bit_tuples(4) if any(y)]
        self.oversized = _oversized_algorithm(64, 16) if smoke else _oversized_algorithm(1024, 40)
        self.oversized_w = sabotage.StrongInput.from_pair(
            boolfn.BitString((0,) * 16), boolfn.BitString((0,) * 15 + (1,)), "*")

    def round(self, r: Round, index: int) -> None:
        for z, m, k in self.grover:
            n = len(z)
            r.op("calls", qsim.grover_find_mark, z, k, check=lambda g, n=n, m=m, k=k: first(
                None if abs(g.success_mass - oracles.grover_mass(m, n, k)) <= 1e-10
                else f"mass {g.success_mass}, sine law {oracles.grover_mass(m, n, k)} (n={n}, m={m}, k={k})",
                None if g.queries_used == 2 * k else f"{g.queries_used} queries for {k} iterations"))
        for z, seed in self.baseline:
            r.op("calls", protocols.grover_baseline, z, seed=seed, check=lambda rep, z=z: first(
                oracles.position_check(rep, z.mark_positions),
                None if rep.queries_used == oracles.baseline_queries(len(z), rep.trials)
                else f"{rep.queries_used} queries over {rep.trials} phases"))
        for alg, w, seed in self.finders:
            self._finder(r, alg, w, seed)
        self._conversions(r)
        r.op("oversize", protocols.find_index_amplified, self.oversized, self.oversized_w, 1,
             expect=protocols.ProtocolError,
             check=lambda exc: None if "find_index_repeat" in str(exc) else f"refusal does not name find_index_repeat: {exc}")

    def _finder(self, r: Round, alg, w, seed: int) -> None:
        marks = w.z.mark_positions
        t_count = alg.query_count
        base = r.op("calls", protocols.sample_interrupt, alg, w, seed=seed, check=lambda rep: first(
            oracles.position_check(rep, marks),
            None if 0 < rep.exact_success <= 1 + 1e-12 else f"success {rep.exact_success}",
            None if rep.queries_used % 2 == 1 and rep.queries_used <= 2 * t_count - 1
            else f"{rep.queries_used} queries for an interrupt of {t_count}"))
        budget = 6
        r.op("calls", protocols.find_index_repeat, alg, w, budget, seed=seed, check=lambda rep: first(
            oracles.position_check(rep, marks),
            None if rep.trials <= budget else f"{rep.trials} trials over a budget of {budget}",
            None if base is None or abs(rep.exact_success - (1 - (1 - base.exact_success) ** budget)) <= 1e-12
            else "budgeted success differs from 1 - (1 - p)^budget"))
        p0 = None
        for rounds in range(4):
            def check(rep, rounds=rounds):
                return first(
                    oracles.position_check(rep, marks),
                    None if rep.queries_used == (2 * rounds + 1) * (2 * t_count + 1)
                    else f"{rep.queries_used} queries, want (2r+1)(2T+1)",
                    None if rounds > 0 or base is None or abs(rep.exact_success - base.exact_success) <= 1e-10
                    else "zero-round mass differs from the per-trial success",
                    None if rounds == 0 or p0 is None or abs(rep.exact_success - oracles.amplified_mass(p0, rounds)) <= 1e-9
                    else f"mass {rep.exact_success}, law {oracles.amplified_mass(p0, rounds)}")

            rep = r.op("calls", protocols.find_index_amplified, alg, w, rounds, seed=seed, check=check)
            if rounds == 0 and rep is not None:
                p0 = rep.exact_success

    def _conversions(self, r: Round) -> None:
        conv = r.op("calls", protocols.convert_strong, self.deutsch)
        if conv is not None:
            for x, y in self.xor2_pairs:
                for marker in ("*", "+"):
                    w = sabotage.StrongInput.from_pair(boolfn.BitString(x), boolfn.BitString(y), marker)
                    r.op("calls", conv.decide, w, check=lambda d, marker=marker: None
                         if abs(d.get(marker, 0.0) - 1.0) <= 1e-12 else f"decision {d} on a {marker} input")
        conv = r.op("calls", protocols.convert_strong, self.or4)
        if conv is None:
            return
        for x, y in self.or4_pairs:
            for marker, base in (("*", x), ("+", y)):
                w = sabotage.StrongInput.from_pair(boolfn.BitString(x), boolfn.BitString(y), marker)
                want = r.op("calls", _run_bit, self.or4, base)
                if want is not None:
                    r.op("calls", protocols.run_converted, conv, w, check=lambda got, want=want: None
                         if oracles.total_variation(got, want.distribution) <= 1e-10
                         else "converted run differs from the source run")

    @staticmethod
    def details(rounds: list[Round]) -> list[tuple[str, float, str]]:
        phase, _ = _sum_rounds(rounds)
        calls = sum(r.attempted for r in rounds) - len(rounds)  # all but the oversized request
        return [
            ("search_calls_per_s", _rate(calls, phase["calls"]), "calls/s"),
            ("reject_oversize_s", phase["oversize"] / len(rounds), "s"),
        ]


# ---------------------------------------------------------------------------
# verify-suite


class VerifySuite:
    """The headline command, ``sablab verify-all``, run in-process."""

    name = "verify-suite"

    def __init__(self, seed: int, smoke: bool = False) -> None:
        self.seed = seed
        OUT_DIR.mkdir(exist_ok=True)
        self.path = OUT_DIR / f"verify-report-{seed}.json"
        self.argv = ["verify-all", "--seed", str(seed), "--out", str(self.path)]
        if smoke:
            self.argv += ["--only", "05"]
        self._first: str | None = None

    def round(self, r: Round, index: int) -> None:
        def check(code):
            if code != 0:
                return f"verify-all exited with {code}"
            text = self.path.read_text(encoding="utf-8")
            if self._first is None:
                self._first = text
            return first(
                oracles.verify_report(text, self.seed),
                None if text == self._first else "report bytes differ from the first run with this seed",
            )

        r.op("verify", _cli_main, self.argv, check=check)

    def close(self) -> None:
        self.path.unlink(missing_ok=True)

    @staticmethod
    def details(rounds: list[Round]) -> list[tuple[str, float, str]]:
        phase, _ = _sum_rounds(rounds)
        return [("verify_suite_s", phase["verify"] / len(rounds), "s")]


def _cli_main(argv):
    return cli.main(list(argv))


WORKLOADS = {w.name: w for w in (Certify, SimulateWide, SearchSmall, VerifySuite)}
