"""Batch command-line front end.

Every public engine operation but the library-only helpers the README names
is reachable from a subcommand, all structured input and output is JSON (CSV
for the wide Satake table), and a run is reproducible byte for byte:
identical configuration and seed produce identical artifacts.  Exit status is
0 exactly when all checks in scope pass; malformed input exits nonzero with a
diagnostic naming the offending record.

Every subcommand takes ``--out`` and, of the shared options, only those its
handler reads (any other flag exits 2 naming it): --config --kmax --epsilon
--backend for lift; --config --tolerance for check-maass and hecke; --config
--seed --kmax --epsilon for synth; --config --tolerance --epsilon for satake;
all but --backend for stability; none for decompose, cp-enum, invert and
adjoint.  In hecke, --kind, --prime (default 2 for T2, else 3) and --index
belong to apply mode and --primes to the eigen and lambda modes.

The environment variable MQL_THREADS caps internal parallelism.  The current
engine is sequential (the cap is honored trivially); the variable is still
validated so configurations stay portable.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys

from . import hecke as hecke_mod
from . import lift as lift_mod
from . import spectral as spectral_mod
from .formal import UnassignedSymbolError, formal_to_json_obj
from .lift import (
    CoefficientTable,
    SourceForm,
    build_lift_table,
    check_maass,
    random_maass_table,
    source_coefficient,
    table_from_json_dict,
    table_to_json_dict,
)
from .hecke import (
    HeckeOperator,
    adjoint_matrix_identities,
    apply as hecke_apply,
    extract_lambda,
    stability_sweep,
    verify_eigen_relations,
)
from .quaternion import _smallest_odd_prime_factor, decompose, parse_quaternion
from .spectral import (
    ramanujan_violation_check,
    satake_csv_rows,
    satake_from_lambda,
    sigma_descriptor,
    synth_eigenform,
    verify_cn_relations,
)

__all__ = ["main"]


class CliError(Exception):
    """Input problem; the message names the offending record."""


def _dump_json(obj, path):
    try:
        text = json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n"
    except ValueError:
        # Strict JSON has no NaN or Infinity; the report's pass carries the failure.
        text = json.dumps(_null_non_finite(obj), sort_keys=True, indent=2) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _null_non_finite(obj):
    """obj with every non-finite float, at any depth, replaced by None."""
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {k: _null_non_finite(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_null_non_finite(v) for v in obj]
    return obj


def _load_json(path, what):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise CliError(f"{what} file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise CliError(f"malformed JSON in {what} file {path}: {exc}") from None


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_number(v) -> bool:
    """A JSON number (not a bool) whose float value is finite."""
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        return False
    try:
        return math.isfinite(v)
    except OverflowError:  # an int beyond the float range
        return False


#: What each config key the handlers read must hold: a description and a test.
_CONFIG_TYPES = {
    "k_max": ("an integer", _is_int),
    "n_max": ("an integer", _is_int),
    "seed": ("an integer", _is_int),
    "prime": ("an integer", _is_int),
    "epsilon": ("an integer", _is_int),
    "tolerance": ("a finite number", _is_number),
    "r": ("a finite number", _is_number),
    "kinds": (
        "a nonempty list of operator names",
        lambda v: isinstance(v, list) and v and all(isinstance(k, str) for k in v),
    ),
    "random_lambdas": ("a JSON object", lambda v: isinstance(v, dict)),
}


def _load_config(args) -> dict:
    cfg = _load_json(args.config, "config") if args.config else {}
    if not isinstance(cfg, dict):
        raise CliError(f"config file {args.config} must hold a JSON object")
    for flag in ("backend", "tolerance", "seed", "kmax", "epsilon"):
        v = getattr(args, flag, None)
        if v is not None:
            cfg["k_max" if flag == "kmax" else flag] = v
    for key, (what, ok) in _CONFIG_TYPES.items():
        if key in cfg and not ok(cfg[key]):
            raise CliError(f"config {key!r} = {cfg[key]!r} is not {what}")
    tol = cfg.get("tolerance")
    if tol is not None and not 0 < tol < math.inf:
        raise CliError("tolerance must be positive and finite")
    if cfg.get("k_max") is not None and cfg["k_max"] < 2:
        raise CliError("k_max must be at least 2")
    if cfg.get("n_max") is not None and cfg["n_max"] < 1:
        raise CliError(f"config 'n_max' = {cfg['n_max']} must be at least 1")
    eps = cfg.get("epsilon")
    if eps is not None and eps not in (1, -1):
        raise CliError("epsilon must be 1 or -1")
    return cfg


def _load_table(path) -> CoefficientTable:
    obj = _load_json(path, "table")
    try:
        return table_from_json_dict(obj)
    except (KeyError, TypeError, ValueError) as exc:
        raise CliError(f"bad table file {path}: {exc}") from None


def _parse_primes(items, what, *, allow_two=False) -> list:
    """Each item as an int that is an odd prime (or 2, when allowed); the
    first item that is not raises a CliError naming it."""
    primes = []
    for item in items:
        try:
            p = int(item)
        except (TypeError, ValueError):
            p = 0
        if not (allow_two and p == 2) and _smallest_odd_prime_factor(p) != p:
            kind = "a prime" if allow_two else "an odd prime"
            raise CliError(f"{what} {item!r} is not {kind}")
        primes.append(p)
    return primes


def _config_lambdas(cfg) -> dict:
    """The config's 'lambdas' map, checked to have odd-prime keys and finite number values."""
    raw = cfg.get("lambdas", {})
    if not isinstance(raw, dict):
        raise CliError("config 'lambdas' must be a JSON object")
    lams = {}
    for key, value in raw.items():
        (p,) = _parse_primes([key], "lambdas key")
        if not _is_number(value):
            raise CliError(f"lambdas[{key!r}] = {value!r} is not a finite number")
        lams[p] = float(value)
    return lams


def _lambdas_from_config(cfg, n_max) -> dict:
    lams = _config_lambdas(cfg)
    rand = cfg.get("random_lambdas")
    if rand:
        import random as _random

        seed = rand.get("seed", cfg.get("seed", 0))
        bounds = rand.get("range", [-2.0, 2.0])
        if not _is_int(seed):
            raise CliError(f"config random_lambdas 'seed' = {seed!r} is not an integer")
        if not (isinstance(bounds, list) and len(bounds) == 2 and all(map(_is_number, bounds))):
            raise CliError(f"config random_lambdas 'range' = {bounds!r} is not two finite numbers")
        rng = _random.Random(seed)
        lo, hi = bounds
        p = 3
        while p <= n_max:
            if _smallest_odd_prime_factor(p) == p:
                lams.setdefault(p, rng.uniform(lo, hi))
            p += 2
    return lams


def _cmd_decompose(args) -> int:
    lines = []
    if args.infile:
        try:
            with open(args.infile, encoding="utf-8") as fh:
                raw = [ln.strip() for ln in fh]
        except FileNotFoundError:
            raise CliError(f"input file not found: {args.infile}") from None
        lines = [(f"{args.infile}:{i + 1}", ln) for i, ln in enumerate(raw) if ln and not ln.startswith("#")]
    lines += [(f"argument {i + 1}", el) for i, el in enumerate(args.elements)]
    if not lines:
        raise CliError("no elements given (pass them as arguments or via --in)")
    out_lines = []
    for where, text in lines:
        try:
            q = parse_quaternion(text)
            idx, _ = decompose(q)
        except ValueError as exc:
            raise CliError(f"{where}: {exc}") from None
        out_lines.append(json.dumps({"K": idx.K, "u": idx.u, "n": idx.n}, sort_keys=True))
    payload = "\n".join(out_lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)
    return 0


def _cmd_cp_enum(args) -> int:
    from .quaternion import divisibility_counts, unit_class_reps

    try:
        reps = unit_class_reps(args.p)
    except ValueError as exc:
        raise CliError(str(exc)) from None
    payload = {"prime": args.p, "classes": [str(r) for r in reps]}
    if args.divisibility:
        try:
            beta = parse_quaternion(args.divisibility)
            counts = divisibility_counts(beta, args.p)
        except ValueError as exc:
            raise CliError(f"--divisibility {args.divisibility!r}: {exc}") from None
        payload["divisibility"] = {
            "beta": str(beta),
            "left": counts.left,
            "right": counts.right,
        }
    _dump_json(payload, args.out)
    return 0


def _read_source(path) -> SourceForm:
    obj = _load_json(path, "source form")
    try:
        if not _is_int(obj["epsilon"]):
            raise ValueError(f"'epsilon' = {obj['epsilon']!r} is not an integer")
        values = {}
        for k, v in obj["values"].items():
            if not _is_number(v):
                raise ValueError(f"values[{k!r}] = {v!r} is not a finite number")
            values[int(k)] = float(v)
        return SourceForm(obj["epsilon"], values)
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise CliError(f"bad source form file {path}: {exc}") from None


def _cmd_lift(args) -> int:
    cfg = _load_config(args)
    k_max = int(cfg.get("k_max", 256))
    backend = cfg.get("backend", "formal")
    if backend == "formal":
        source = SourceForm(int(cfg.get("epsilon", 1)))
    elif backend == "numeric":
        if not args.source:
            raise CliError("numeric lift needs --source FILE (see the synth command)")
        source = _read_source(args.source)
    else:
        raise CliError(f"unknown backend {backend!r}")
    try:
        table = build_lift_table(source, k_max)
    except UnassignedSymbolError as exc:
        raise CliError(
            f"source form {args.source} is too short for k_max={k_max}: {exc.args[0]}"
        ) from None
    _dump_json(table_to_json_dict(table), args.out)
    return 0


def _cmd_invert(args) -> int:
    table = _load_table(args.table)
    if args.nmax is not None and args.nmax < 1:
        raise CliError(f"--nmax {args.nmax} must be at least 1")
    n_max = args.nmax or table.k_max // 2
    if 2 * n_max > table.k_max:
        raise CliError(f"--nmax {n_max} exceeds the table bound {table.k_max}")
    values = {
        str(N): formal_to_json_obj(source_coefficient(table, N))
        for N in range(1, n_max + 1)
    }
    _dump_json({"epsilon": table.epsilon, "values": values}, args.out)
    return 0


def _cmd_check_maass(args) -> int:
    cfg = _load_config(args)
    table = _load_table(args.table)
    report = check_maass(table, float(cfg.get("tolerance", 1e-8)))
    _dump_json(report.to_json_dict(), args.out)
    return 0 if report.passed else 1


def _parse_index(text):
    try:
        k, u, n = (int(v) for v in text.split(","))
        return (k, u, n)
    except ValueError:
        raise CliError(f"bad index {text!r}: expected K,u,n") from None


def _cmd_hecke(args) -> int:
    for flag in ("--primes",) if args.mode == "apply" else ("--kind", "--prime", "--index"):
        if getattr(args, flag[2:]) is not None:
            raise CliError(f"{flag} does not apply in {args.mode} mode")
    cfg = _load_config(args)
    tol = float(cfg.get("tolerance", 1e-8))
    table = _load_table(args.table)
    if table.backend == "formal":
        raise CliError(
            f"{args.table} is a formal table; hecke needs a numeric one "
            "(lift with --backend numeric)"
        )
    if args.mode == "apply":
        if not args.kind or not args.index:
            raise CliError("apply mode needs --kind and at least one --index")
        prime = (2 if args.kind == "T2" else 3) if args.prime is None else args.prime
        try:
            op = HeckeOperator(args.kind, prime)
        except ValueError as exc:
            raise CliError(f"--prime {prime}: {exc}") from None
        rows = []
        for text in args.index:
            idx = _parse_index(text)
            try:
                value = hecke_apply(op, table, idx)
            except (ValueError, lift_mod.TableBoundsError) as exc:
                raise CliError(f"--index {text}: {exc}") from None
            rows.append({"index": list(idx), "value": value})
        _dump_json({"kind": args.kind, "prime": prime, "images": rows}, args.out)
        return 0
    primes = _parse_primes(
        (args.primes or "3").split(","), "--primes entry", allow_two=args.mode == "eigen"
    )
    if args.mode == "lambda":
        rows = []
        for p in primes:
            try:
                rows.append({"prime": p, "lambda": extract_lambda(table, p)})
            except (hecke_mod.NoUsableIndexError, hecke_mod.InconsistentRatiosError) as exc:
                raise CliError(f"prime {p}: {exc}") from None
        _dump_json({"lambdas": rows}, args.out)
        return 0
    try:
        reports = verify_eigen_relations(table, primes, tolerance=tol)
    except hecke_mod.NoUsableIndexError as exc:
        raise CliError(str(exc)) from None
    _dump_json({"reports": [r.to_json_dict() for r in reports]}, args.out)
    return 0 if all(r.passed for r in reports) else 1


def _cmd_synth(args) -> int:
    cfg = _load_config(args)
    n_max = int(cfg.get("n_max", cfg.get("k_max", 256) // 2))
    epsilon = int(cfg.get("epsilon", 1))
    lams = _lambdas_from_config(cfg, n_max)
    try:
        form = synth_eigenform(epsilon, lams, n_max)
    except spectral_mod.MissingLambdaError as exc:
        raise CliError(str(exc)) from None
    payload = {
        "epsilon": epsilon,
        "n_max": n_max,
        "lambdas": {str(p): lams[p] for p in sorted(lams)},
        "values": {str(n): v for n, v in sorted(form.coefficients.items())},
    }
    _dump_json(payload, args.out)
    return 0


def _cmd_satake(args) -> int:
    cfg = _load_config(args)
    tol = float(cfg.get("tolerance", 1e-8))
    lams = _config_lambdas(cfg)
    if not lams:
        raise CliError("config needs a nonempty 'lambdas' map")
    pairs = []
    for p in sorted(lams):
        params = satake_from_lambda(p, lams[p])
        pairs.append((ramanujan_violation_check(params), params))
    if args.out_csv:
        with open(args.out_csv, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerows(satake_csv_rows(pairs))
    payload = {"note": spectral_mod.MODULUS_READING_NOTE, "reports": [rep for rep, _ in pairs]}
    descriptors = [
        sigma_descriptor(p, lambda_p=lams[p]).to_json_dict() for p in sorted(lams)
    ]
    if cfg.get("epsilon") in (1, -1):
        descriptors.append(sigma_descriptor(2, epsilon=cfg["epsilon"]).to_json_dict())
    if cfg.get("r") is not None:
        descriptors.append(sigma_descriptor("inf", r=float(cfg["r"])).to_json_dict())
    payload["descriptors"] = descriptors
    ok = all(abs(rep["alpha_sum"]) <= 1e-10 for rep, _ in pairs)
    if args.table:
        table = _load_table(args.table)
        cn = verify_cn_relations(table, lams, tolerance=tol)
        payload["cn_relations"] = cn
        ok = ok and cn["pass"]
    _dump_json(payload, args.out)
    return 0 if ok else 1


def _cmd_stability(args) -> int:
    cfg = _load_config(args)
    tol = float(cfg.get("tolerance", 1e-8))
    k_max = int(cfg.get("k_max", 512))
    epsilon = int(cfg.get("epsilon", 1))
    seed = int(cfg.get("seed", 0))
    prime = int(cfg.get("prime", 3))
    kinds = cfg.get("kinds", ["T2", "H2", "H3", "H4"])
    try:
        ops = [HeckeOperator(kind, 2 if kind == "T2" else prime) for kind in kinds]
    except ValueError as exc:
        raise CliError(f"config prime/kinds: {exc}") from None
    table = random_maass_table(epsilon, seed, k_max)
    try:
        reports = [r.to_json_dict() for r in stability_sweep(ops, table, tol)]
    except ValueError as exc:
        raise CliError(f"k_max {k_max}: {exc}") from None
    _dump_json({"seed": seed, "epsilon": epsilon, "k_max": k_max, "reports": reports}, args.out)
    return 0 if all(r["pass"] for r in reports) else 1


def _cmd_adjoint(args) -> int:
    primes = tuple(_parse_primes((args.primes or "3,5").split(","), "--primes entry"))
    report = adjoint_matrix_identities(primes)
    _dump_json(report.to_json_dict(), args.out)
    return 0 if report.passed else 1


#: The shared options; each subcommand takes ``--out`` and those its handler reads.
_COMMON = {
    "--config": dict(help="JSON run configuration"),
    "--tolerance": dict(type=float, help="relative tolerance override"),
    "--seed": dict(type=int, help="random seed override"),
    "--kmax": dict(type=int, help="table bound override"),
    "--epsilon": dict(type=int, choices=(1, -1), help="even-place sign"),
    "--backend": dict(choices=("formal", "numeric"), help="coefficient backend"),
}


def _add_common(parser, *options):
    parser.add_argument("--out", help="output path (default: stdout)")
    for option in options:
        parser.add_argument(option, **_COMMON[option])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mql",
        description="Quaternionic Maass lift engine: lifts, recurrences, "
        "Hecke operators and Satake parameters over the Hurwitz order.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decompose", help="canonical indices of lattice elements")
    p.add_argument("elements", nargs="*", help='elements like "2ij" or "1/2+1/2i+1/2j+1/2k"')
    p.add_argument("--in", dest="infile", help="file with one element per line")
    _add_common(p)
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("cp-enum", help="norm-p unit class representatives")
    p.add_argument("p", type=int)
    p.add_argument("--divisibility", help="primitive element for divisibility counts")
    _add_common(p)
    p.set_defaults(func=_cmd_cp_enum)

    p = sub.add_parser("lift", help="lift a source form to a coefficient table")
    p.add_argument("--source", help="numeric source form file (from synth)")
    _add_common(p, "--config", "--kmax", "--epsilon", "--backend")
    p.set_defaults(func=_cmd_lift)

    p = sub.add_parser("invert", help="extract source coefficients from a table")
    p.add_argument("--table", required=True)
    p.add_argument("--nmax", type=int)
    _add_common(p)
    p.set_defaults(func=_cmd_invert)

    p = sub.add_parser("check-maass", help="verify both Maass-space recurrences")
    p.add_argument("--table", required=True)
    _add_common(p, "--config", "--tolerance")
    p.set_defaults(func=_cmd_check_maass)

    p = sub.add_parser("hecke", help="apply operators / verify eigenvalue relations")
    p.add_argument("--table", required=True)
    p.add_argument("--mode", choices=("eigen", "apply", "lambda"), default="eigen")
    p.add_argument("--primes", help="odd primes a,b,... (eigen/lambda modes; eigen takes 2)")
    p.add_argument("--kind", choices=hecke_mod.KINDS, help="operator (apply mode)")
    p.add_argument("--prime", type=int, help="apply mode; default 2 for T2, else 3")
    p.add_argument("--index", action="append", help="index K,u,n (apply mode)")
    _add_common(p, "--config", "--tolerance")
    p.set_defaults(func=_cmd_hecke)

    p = sub.add_parser("synth", help="generate a synthetic eigenform")
    _add_common(p, "--config", "--seed", "--kmax", "--epsilon")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("satake", help="Satake parameters and temperedness report")
    p.add_argument("--out-csv", help="CSV output path for the parameter table")
    p.add_argument("--table", help="optional table for source-coefficient checks")
    _add_common(p, "--config", "--tolerance", "--epsilon")
    p.set_defaults(func=_cmd_satake)

    p = sub.add_parser("stability", help="Hecke images of a random Maass-space table")
    _add_common(p, "--config", "--tolerance", "--seed", "--kmax", "--epsilon")
    p.set_defaults(func=_cmd_stability)

    p = sub.add_parser("adjoint", help="exact adjoint identities of the generators")
    p.add_argument("--primes", help="comma-separated odd primes (default 3,5)")
    _add_common(p)
    p.set_defaults(func=_cmd_adjoint)

    return parser


def _check_thread_cap() -> None:
    raw = os.environ.get("MQL_THREADS")
    if raw is None:
        return
    try:
        cap = int(raw)
    except ValueError:
        raise CliError(f"MQL_THREADS must be an integer, got {raw!r}") from None
    if cap < 1:
        raise CliError(f"MQL_THREADS must be >= 1, got {cap}")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_thread_cap()
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
