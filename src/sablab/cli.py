"""Command-line front end.

Subcommands: fbs, bs, adv, sab-enum, protocol {convert-strong | hybrid |
grover-find | index-find}, verify-all.  Reports are JSON on stdout (or
--out); trace tables can be CSV.  Exit codes: 0 pass, 1 check failure,
2 usage error.
"""

from __future__ import annotations

import argparse
import json
import re
import sys

from . import adversary, measures, protocols, qsim, verify
from .boolfn import BitString, BoolFnError, load_function, make_indexing, make_named, require_general_size
from .sabotage import SabString, SabotageError, StrongInput, enumerate_sabotaged

_USAGE_ERROR = 2


class CliError(Exception):
    """Unresolvable function, algorithm, or argument combination."""


def _parse_seed(parser: argparse.ArgumentParser, text: str) -> int:
    try:
        seed = int(text)
    except ValueError:
        seed = -1
    if seed < 0:
        parser.error(f"--seed must be a non-negative integer, got {text!r}")
    return seed


_SHARED_FLAGS = {
    "fn": {"help": "named catalog function (AND, OR, PARITY, MAJ, XOR2, IND)"},
    "file": {"help": "path to a function file (JSON)"},
    "n": {"type": int, "help": "arity for --fn"},
    "x": {"help": "base point as a bit string"},
    "alg": {"help": "catalog algorithm: deutsch, grover-or-N-K"},
    "alg-file": {"help": "algorithm file (JSON)"},
    "pair": {"required": True, "help": "x,y bit strings"},
    "marker": {"default": "*", "choices": ("*", "+")},
    "seed": {"default": "0", "help": "non-negative sampling seed (default: 0)"},
    "format": {"choices": ("json", "csv"), "default": "json"},
    "out": {"help": "write the report to this path instead of stdout"},
}
_FUNCTION_FLAGS = ("fn", "file", "n")
_ALG_FLAGS = ("alg", "alg-file")
_PAIR_FLAGS = ("pair", "marker")


def _add_common(parser: argparse.ArgumentParser, *names: str) -> None:
    """Add the shared flags ``names``: a subcommand accepts only the flags it reads."""
    for name in names:
        parser.add_argument(f"--{name}", **_SHARED_FLAGS[name])


def _resolve_function(args):
    if args.file:
        with open(args.file, "r", encoding="utf-8") as handle:
            return load_function(handle.read())
    if not args.fn:
        raise CliError("need --fn NAME or --file PATH")
    name = args.fn.upper()
    if args.n is None:
        raise CliError("--fn needs --n")
    if name == "IND":
        return make_indexing(args.n)
    return make_named(name, args.n)


def _resolve_algorithm(spec: str | None, path: str | None) -> qsim.QueryAlgorithm:
    if path:
        with open(path, "r", encoding="utf-8") as handle:
            return qsim.algorithm_from_json(handle.read())
    if spec is None:
        raise CliError("need --alg NAME or --alg-file PATH")
    name = spec.lower()
    if name == "deutsch":
        return qsim.deutsch_parity()
    if name.startswith("grover-or"):
        match = re.fullmatch(r"grover-or-(\d+)-(\d+)", name)
        if match is None:
            raise CliError("grover-or algorithms are named grover-or-N-K")
        return qsim.grover_or(int(match[1]), int(match[2]))
    raise CliError(f"unknown algorithm {spec!r}; use deutsch or grover-or-N-K")


def _emit(args, text: str) -> None:
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


def _emit_json(args, payload) -> None:
    _emit(args, json.dumps(payload, sort_keys=True, indent=2))


def _cmd_fbs(args) -> int:
    f = _resolve_function(args)
    sol = measures.fbs(f, args.x) if args.x is not None else measures._fbs_global_solution(f)
    sol.check_certificate(f)
    _emit_json(
        args,
        {
            "function": f.name,
            "value": float(sol.value),
            "x": str(sol.x),
            "weights": [{"y": str(y), "w": float(w)} for y, w in sorted(sol.weights.items())],
            "dual": [float(u) for u in sol.dual],
        },
    )
    return 0


def _cmd_bs(args) -> int:
    f = _resolve_function(args)
    if args.x is None:
        require_general_size(f, "bs", measures.MeasureError)
    points = f.domain() if args.x is None else [BitString.coerce(args.x)]
    value, x = max(((measures.block_sensitivity(f, p), p) for p in points), key=lambda t: (t[0], -t[1].code))
    _emit_json(args, {"function": f.name, "value": int(value), "x": str(x)})
    return 0


def _cmd_adv(args) -> int:
    if args.construction == "indexing-relation":
        unread = [f"--{name}" for name in ("fn", "file", "x") if getattr(args, name) is not None]
        if args.format == "csv":
            unread.append("--format csv")
        if unread:
            raise CliError(f"indexing-relation takes --n and --model, not {', '.join(unread)}")
        if args.n is None:
            raise CliError("indexing-relation needs --n")
        model = args.model or "weak"
        rel = adversary.build_indexing_relation(args.n, strong=model == "strong")
        bound = adversary.relation_bound(rel)
        payload = bound.to_json_dict()
        payload["model"] = model
        products = sorted(set(payload["per_position"].values()))
        payload["aggregates"] = {"max": max(products), "min": min(products)}
        _emit_json(args, payload)
        return 0
    if args.model is not None:
        raise CliError("--model applies only to --construction indexing-relation")
    f = _resolve_function(args)
    sol = measures.fbs(f, args.x) if args.x is not None else measures._fbs_global_solution(f)
    if args.construction == "fbs":
        cert = adversary.build_fbs_adversary(f, sol)
    else:
        cert = adversary.build_sabotage_adversary(f, sol)
    if args.format == "csv":
        lines = [",".join(repr(float(v)) for v in row) for row in cert.gamma]
        _emit(args, "\n".join(lines) + "\n")
        return 0
    payload = cert.to_json_dict()
    payload["function"] = f.name
    payload["x"] = str(sol.x)
    _emit_json(args, payload)
    return 0


def _cmd_sab_enum(args) -> int:
    f = _resolve_function(args)
    stars, daggers = enumerate_sabotaged(f)
    _emit_json(
        args,
        {
            "function": f.name,
            "count": len(stars),
            "stars": sorted(str(z) for z in stars),
            "daggers": sorted(str(z) for z in daggers),
        },
    )
    return 0


def _strong_from_args(args) -> StrongInput:
    try:
        x_text, y_text = args.pair.split(",")
    except ValueError:
        raise CliError("--pair expects x,y") from None
    return StrongInput(BitString.from_text(x_text), BitString.from_text(y_text), args.marker)


def _cmd_protocol_convert(args) -> int:
    alg = _resolve_algorithm(args.alg, args.alg_file)
    w = _strong_from_args(args)
    conv = protocols.convert_strong(alg)
    raw = protocols.run_converted(conv, w)
    decided = protocols.decision(raw)
    _emit_json(
        args,
        {
            "protocol": "convert-strong",
            "input": w.to_json_dict(),
            "queries_source": alg.query_count,
            "queries_wrapped": conv.wrapped.query_count,
            "output": {str(k): float(v) for k, v in sorted(raw.items(), key=lambda kv: str(kv[0]))},
            "decision": {str(k): float(v) for k, v in sorted(decided.items(), key=lambda kv: str(kv[0]))},
        },
    )
    return 0


def _cmd_protocol_hybrid(args) -> int:
    alg = _resolve_algorithm(args.alg, args.alg_file)
    if args.x is None or not args.block:
        raise CliError("hybrid needs --x and --block")
    try:
        block = tuple(int(j) for j in args.block.split(","))
    except ValueError:
        raise CliError(f"--block is not a list of positions: {args.block!r}") from None
    rep = qsim.hybrid_sum(alg, args.x, block)
    if args.format == "csv":
        lines = ["t,p_x_t,p_y_t"]
        for t, (px, py) in enumerate(zip(rep.p_x, rep.p_y), start=1):
            lines.append(f"{t},{px!r},{py!r}")
        _emit(args, "\n".join(lines) + "\n")
        return 0
    _emit_json(
        args,
        {
            "protocol": "hybrid",
            "x": args.x,
            "block": list(rep.block),
            "p_x": list(rep.p_x),
            "p_y": list(rep.p_y),
            "sum_x": rep.sum_x,
            "sum_y": rep.sum_y,
            "overlap": rep.overlap,
            "lower_bound": 1.0 - rep.overlap,
        },
    )
    return 0


def _cmd_protocol_grover_find(args) -> int:
    if not args.z:
        raise CliError("grover-find needs --z")
    report = protocols.grover_baseline(SabString.from_text(args.z), seed=args.seed)
    _emit_json(args, report.to_json_dict())
    return 0


def _cmd_protocol_index_find(args) -> int:
    alg = _resolve_algorithm(args.alg, args.alg_file)
    w = _strong_from_args(args)
    if args.mode == "repeat":
        if args.rounds is not None:
            raise CliError("--rounds applies only to --mode amplified")
        budget = 16 if args.budget is None else args.budget
        report = protocols.find_index_repeat(alg, w, budget=budget, seed=args.seed)
    else:
        if args.budget is not None:
            raise CliError("--budget applies only to --mode repeat")
        rounds = 0 if args.rounds is None else args.rounds
        report = protocols.find_index_amplified(alg, w, rounds=rounds, seed=args.seed)
    _emit_json(args, report.to_json_dict())
    return 0


def _cmd_verify_all(args) -> int:
    results = verify.run_checks(seed=args.seed, only=args.only)
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"{status}  {r.name}  ({r.seconds:.2f}s)", file=sys.stderr)
    _emit(args, verify.canonical_report(results, args.seed))
    return 0 if all(r.passed for r in results) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="sablab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def leaf(subparsers, name: str, handler, *common: str, **kwargs) -> argparse.ArgumentParser:
        p = subparsers.add_parser(name, **kwargs)
        _add_common(p, *common)
        p.set_defaults(handler=handler)
        return p

    leaf(sub, "fbs", _cmd_fbs, *_FUNCTION_FLAGS, "x", "out",
         help="fractional block sensitivity with certificate")
    leaf(sub, "bs", _cmd_bs, *_FUNCTION_FLAGS, "x", "out", help="block sensitivity")

    p_adv = leaf(sub, "adv", _cmd_adv, *_FUNCTION_FLAGS, "x", "format", "out",
                 help="adversary certificates and relation bounds")
    p_adv.add_argument(
        "--construction",
        choices=("fbs", "sabotage", "indexing-relation"),
        required=True,
    )
    p_adv.add_argument(
        "--model", choices=("weak", "strong"), help="indexing-relation only (default: weak)"
    )

    leaf(sub, "sab-enum", _cmd_sab_enum, *_FUNCTION_FLAGS, "out", help="enumerate sabotaged inputs")

    p_proto = sub.add_parser("protocol", help="run a quantum procedure")
    proto_sub = p_proto.add_subparsers(dest="protocol", required=True)

    leaf(proto_sub, "convert-strong", _cmd_protocol_convert, *_ALG_FLAGS, *_PAIR_FLAGS, "out")

    p_hyb = leaf(proto_sub, "hybrid", _cmd_protocol_hybrid, *_ALG_FLAGS, "x", "format", "out")
    p_hyb.add_argument("--block", help="comma-separated 1-based positions")

    p_gf = leaf(proto_sub, "grover-find", _cmd_protocol_grover_find, "seed", "out")
    p_gf.add_argument("--z", help="sabotaged string over 0, 1, *, +")

    p_if = leaf(proto_sub, "index-find", _cmd_protocol_index_find,
                *_ALG_FLAGS, *_PAIR_FLAGS, "seed", "out")
    p_if.add_argument("--mode", choices=("repeat", "amplified"), default="repeat")
    p_if.add_argument("--budget", type=int, help="repeat mode only (default: 16)")
    p_if.add_argument("--rounds", type=int, help="amplified mode only (default: 0)")

    p_ver = leaf(sub, "verify-all", _cmd_verify_all, "seed", "out",
                 help="run the full verification suite; check 10 re-runs it in a second process")
    p_ver.add_argument("--only", help="run only checks whose name contains this string")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if hasattr(args, "seed"):  # only the seeded subcommands have it
        args.seed = _parse_seed(parser, args.seed)
    try:
        return args.handler(args)
    except (CliError, BoolFnError, SabotageError, measures.MeasureError,
            adversary.AdversaryError, qsim.SimulationError, protocols.ProtocolError,
            verify.VerifyError, OSError, UnicodeDecodeError) as exc:
        print(f"sablab: {exc}", file=sys.stderr)
        return _USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
