"""Batch command-line front end.

Every public engine operation but the library-only helpers the README names
is reachable from a subcommand, all structured input and output is JSON (CSV
for the wide Satake table), and a run is reproducible byte for byte:
identical configuration and seed produce identical artifacts.  One writer,
_json_text, renders every indented JSON artifact; decompose's compact JSON
lines are the one exception.  Exit status is 0 exactly when all checks in
scope pass; malformed input exits nonzero with a diagnostic naming the
offending record.

Every subcommand takes ``--out`` (default stdout, as is an empty path; a path
that cannot be opened for writing exits 2 naming it; ``satake --out-csv``
follows the same rules) and, of the shared options, only those the README's
table lists for it; any other flag exits 2 naming it, as does --tolerance in
hecke's apply and lambda modes and in satake without --table.  An input file
(--config, --table, --source, --in) that is missing, a directory, unreadable
or not UTF-8 exits 2, naming it.  In hecke, --kind, --prime (default 2 for
T2, else 3) and --index belong to apply mode and --primes to the eigen and
lambda modes.  A table with a missing row exits 2 naming it.  A prime named
against a table bound k_max (hecke --prime and --primes, stability's config
prime, satake's lambdas keys with --table) exits 2 on 2p > k_max before any
trial division.  satake writes no file until its input checks pass and both
output paths are open; an --out-csv naming the same file as --out exits 2.

The environment variable MQL_THREADS caps internal parallelism.  The current
engine is sequential (the cap is honored trivially); the variable is still
validated so configurations stay portable.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import math
import os
import random
import sys
from json.encoder import encode_basestring_ascii

from . import hecke as hecke_mod
from . import lift as lift_mod
from . import spectral as spectral_mod
from .formal import UnassignedSymbolError, formal_to_json_obj
from .lift import (
    CoefficientTable,
    SourceForm,
    _is_int,
    _is_number,
    build_lift_table,
    check_maass,
    random_maass_table,
    source_coefficient,
    table_from_json_dict,
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


def _read_text(path, what):
    """The text of an input file; one that cannot be read as UTF-8 raises a CliError naming it."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except FileNotFoundError:
        raise CliError(f"{what} file not found: {path}") from None
    except (OSError, UnicodeDecodeError) as exc:
        reason = getattr(exc, "strerror", None) or exc
        raise CliError(f"cannot read {what} file {path}: {reason}") from None


def _write_text(*artifacts):
    """Write each (text, path) pair to its path, then each with no path (None
    or empty) to stdout.  Every path is opened, and none truncated, before any
    is written, so a path that cannot be opened, or that names the same file
    as another, raises a CliError naming it and leaves every file as it was;
    on any error a file this call created is removed."""
    created, files, path = [], [], None
    try:
        with contextlib.ExitStack() as stack:
            for text, path in (pair for pair in artifacts if pair[1]):
                new = not os.path.exists(path)
                fh = stack.enter_context(open(path, "a", encoding="utf-8"))
                if new:
                    created.append(path)
                if any(os.path.sameopenfile(fh.fileno(), f.fileno()) for f, _ in files):
                    raise OSError("the same file as another output")
                files.append((fh, text))
            for fh, text in files:
                path = fh.name
                if os.path.isfile(path):  # replace a regular file's bytes
                    fh.truncate(0)
                fh.write(text)
                fh.flush()
    except OSError as exc:
        for name in created:
            os.remove(name)
        raise CliError(f"cannot write {path}: {exc.strerror or exc}") from None
    sys.stdout.write("".join(text for text, path in artifacts if not path))


def _json_text(x, indent=""):
    """The text json.dumps(x, sort_keys=True, indent=2) writes for x nested at
    indent, with every non-finite float, at any depth, written as null: strict
    JSON has no NaN or Infinity, and a report's pass carries the failure.  Dict
    keys must be str.  Every indented JSON artifact is rendered here."""
    if isinstance(x, float):
        return float.__repr__(x) if math.isfinite(x) else "null"
    if isinstance(x, str):
        return encode_basestring_ascii(x)
    if isinstance(x, int) and not isinstance(x, bool):
        return int.__repr__(x)
    # a str member (each symbol of a formal value) is written in place
    inner = indent + "  "
    if isinstance(x, dict) and x:
        body = ",".join([
            f"\n{inner}{encode_basestring_ascii(k)}: "
            f"{encode_basestring_ascii(v) if type(v) is str else _json_text(v, inner)}"
            for k, v in sorted(x.items())
        ])
        return f"{{{body}\n{indent}}}"
    if isinstance(x, (list, tuple)) and x:
        body = ",".join([
            f"\n{inner}{encode_basestring_ascii(v) if type(v) is str else _json_text(v, inner)}"
            for v in x
        ])
        return f"[{body}\n{indent}]"
    return json.dumps(x)  # true, false, null, {} or []


def _dump_json(obj, path):
    _write_text((_json_text(obj) + "\n", path))


def _table_json_text(table: CoefficientTable) -> str:
    """The table file: table_to_json_dict(table) as _json_text writes it, plus
    a newline, from one row template per index with no row dict built, which
    renders several times faster than the dict at k_max 8192."""
    entries = table.entries
    rows = ",".join(
        f'\n    {{\n      "K": {K},\n      "n": {n},\n      "u": {u},\n'
        f'      "value": {_json_text(formal_to_json_obj(entries[K, u, n]), "      ")}\n    }}'
        for K, u, n in table.indices()
    )
    rows = f"[{rows}\n  ]" if rows else "[]"
    return (
        f'{{\n  "backend": "{table.backend}",\n  "entries": {rows},\n'
        f'  "epsilon": {table.epsilon},\n  "k_max": {table.k_max}\n}}\n'
    )


def _load_json(path, what, parse=lambda obj: obj):
    """parse of an input file's JSON value; a CliError names the file if any step fails."""
    try:
        obj = json.loads(_read_text(path, what))
    except (ValueError, RecursionError) as exc:  # also an int past the digit limit, or too deep
        raise CliError(f"malformed JSON in {what} file {path}: {exc}") from None
    try:
        return parse(obj)
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise CliError(f"bad {what} file {path}: {exc}") from None


#: What each config key the handlers read must hold: a description and a test.
_CONFIG_TYPES = {
    # past sys.maxsize a table's index ranges are longer than a list can count
    "k_max": (
        f"an integer of at least 2 and at most {sys.maxsize}",
        lambda v: _is_int(v) and 2 <= v <= sys.maxsize,
    ),
    "n_max": ("an integer of at least 1", lambda v: _is_int(v) and v >= 1),
    "seed": ("an integer", _is_int),
    "prime": ("an integer", _is_int),
    "epsilon": ("1 or -1", lambda v: _is_int(v) and v in (1, -1)),
    "tolerance": ("a positive finite number", lambda v: _is_number(v) and v > 0),
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
    origin = dict.fromkeys(cfg, f"config file {args.config}")
    for flag in ("backend", "tolerance", "seed", "kmax", "epsilon"):
        v = getattr(args, flag, None)
        if v is not None:
            key = "k_max" if flag == "kmax" else flag
            cfg[key], origin[key] = v, f"--{flag}"
    for key, (what, ok) in _CONFIG_TYPES.items():
        if key in cfg and not ok(cfg[key]):
            raise CliError(f"{key!r} = {cfg[key]!r} from {origin[key]} is not {what}")
    return cfg


def _load_table(path) -> CoefficientTable:
    return _load_json(path, "table", table_from_json_dict)


def _parse_primes(items, what, *, allow_two=False, k_max=None) -> list:
    """Each item as an int that is an odd prime (or 2, when allowed), each
    prime once; the first item that is not raises a CliError naming it, as does
    2p > k_max, given a table bound k_max, before the trial division."""
    primes = []
    for item in items:
        try:
            p = int(item)
        except (TypeError, ValueError):
            p = 0
        if k_max is not None and 2 * p > k_max:
            raise CliError(
                f"{what} {item!r}: 2p exceeds the table bound k_max={k_max}, so no index applies"
            )
        if not (allow_two and p == 2) and _smallest_odd_prime_factor(p) != p:
            kind = "a prime" if allow_two else "an odd prime"
            raise CliError(f"{what} {item!r} is not {kind}")
        if p in primes:
            raise CliError(f"{what} {item!r} repeats prime {p}")
        primes.append(p)
    return primes


def _config_lambdas(cfg, k_max=None) -> dict:
    """The config's 'lambdas' map, checked to have odd-prime keys and finite number values."""
    raw = cfg.get("lambdas", {})
    if not isinstance(raw, dict):
        raise CliError("config 'lambdas' must be a JSON object")
    lams = {}
    for (key, value), p in zip(raw.items(), _parse_primes(raw, "lambdas key", k_max=k_max)):
        if not _is_number(value):
            raise CliError(f"lambdas[{key!r}] = {value!r} is not a finite number")
        lams[p] = float(value)
    return lams


def _lambdas_from_config(cfg, n_max) -> dict:
    lams = _config_lambdas(cfg)
    rand = cfg.get("random_lambdas")
    if rand:
        seed = rand.get("seed", cfg.get("seed", 0))
        bounds = rand.get("range", [-2.0, 2.0])
        if not _is_int(seed):
            raise CliError(f"config random_lambdas 'seed' = {seed!r} is not an integer")
        if not (isinstance(bounds, list) and len(bounds) == 2 and all(map(_is_number, bounds))):
            raise CliError(f"config random_lambdas 'range' = {bounds!r} is not two finite numbers")
        rng = random.Random(seed)
        lo, hi = bounds
        for p in range(3, n_max + 1, 2):
            if _smallest_odd_prime_factor(p) == p:
                lams.setdefault(p, rng.uniform(lo, hi))
    return lams


def _cmd_decompose(args) -> int:
    raw = _read_text(args.infile, "input").split("\n") if args.infile else []
    lines = [(f"{args.infile}:{i + 1}", ln.strip()) for i, ln in enumerate(raw)]
    lines = [(where, ln) for where, ln in lines if ln and not ln.startswith("#")]
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
        try:
            out_lines.append(json.dumps({"K": idx.K, "u": idx.u, "n": idx.n}, sort_keys=True))
        except ValueError:  # past the interpreter's int-to-str digit limit
            raise CliError(f"{where}: the index K of {text!r} has too many digits") from None
    _write_text(("\n".join(out_lines) + "\n", args.out))
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
        payload["divisibility"] = {"beta": str(beta), "left": counts.left, "right": counts.right}
    _dump_json(payload, args.out)
    return 0


def _source_form(obj) -> SourceForm:
    if not _is_int(obj["epsilon"]):
        raise ValueError(f"'epsilon' = {obj['epsilon']!r} is not an integer")
    values = {}
    for k, v in obj["values"].items():
        try:
            m = int(k)
        except ValueError:
            m = 0
        if m < 1:
            raise ValueError(f"values key {k!r} is not a positive integer")
        if m in values:
            raise ValueError(f"values key {k!r} repeats index {m}")
        if not _is_number(v):
            raise ValueError(f"values[{k!r}] = {v!r} is not a finite number")
        values[m] = float(v)
    return SourceForm(obj["epsilon"], values)


def _cmd_lift(args) -> int:
    cfg = _load_config(args)
    k_max = int(cfg.get("k_max", 256))
    backend = cfg.get("backend", "formal")
    if backend == "formal":
        if args.source:
            raise CliError("--source does not apply to a formal lift (use --backend numeric)")
        source = SourceForm(int(cfg.get("epsilon", 1)))
    elif backend == "numeric":
        if not args.source:
            raise CliError("numeric lift needs --source FILE (see the synth command)")
        source = _load_json(args.source, "source form", _source_form)
        eps = cfg.get("epsilon", source.epsilon)
        if eps != source.epsilon:
            raise CliError(
                f"epsilon {eps} from --epsilon or the config disagrees with "
                f"epsilon {source.epsilon} of source form {args.source}"
            )
    else:
        raise CliError(f"unknown backend {backend!r}")
    try:
        table = build_lift_table(source, k_max)
    except UnassignedSymbolError as exc:
        raise CliError(
            f"source form {args.source} is too short for k_max={k_max}: {exc.args[0]}"
        ) from None
    if backend == "numeric" and not all(map(math.isfinite, table.entries.values())):
        idx = next(i for i in table.indices() if not math.isfinite(table.entries[i]))
        raise CliError(f"source form {args.source} lifts to a non-finite value at row {tuple(idx)}")
    _write_text((_table_json_text(table), args.out))
    return 0


def _cmd_invert(args) -> int:
    table = _load_table(args.table)
    if args.nmax is not None and args.nmax < 1:
        raise CliError(f"--nmax {args.nmax} must be at least 1")
    n_max = args.nmax or table.k_max // 2
    if 2 * n_max > table.k_max:
        raise CliError(f"--nmax {n_max} exceeds the table bound {table.k_max}")
    values = {
        str(N): formal_to_json_obj(source_coefficient(table, N)) for N in range(1, n_max + 1)
    }
    _dump_json({"epsilon": table.epsilon, "values": values}, args.out)
    return 0


def _cmd_check_maass(args) -> int:
    cfg = _load_config(args)
    table = _load_table(args.table)
    try:
        report = check_maass(table, float(cfg.get("tolerance", 1e-8)))
    except ValueError as exc:
        raise CliError(f"{args.table}: {exc}") from None
    _dump_json(report.to_json_dict(), args.out)
    return 0 if report.passed else 1


def _parse_index(text):
    try:
        k, u, n = (int(v) for v in text.split(","))
        return (k, u, n)
    except ValueError:
        raise CliError(f"bad index {text!r}: expected K,u,n") from None


def _cmd_hecke(args) -> int:
    ignored = ["--primes"] if args.mode == "apply" else ["--kind", "--prime", "--index"]
    if args.mode != "eigen":
        ignored.append("--tolerance")  # only the eigen relations are checked to a tolerance
    for flag in ignored:
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
        _parse_primes([prime], "--prime", allow_two=args.kind == "T2", k_max=table.k_max)
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
        (args.primes or "3").split(","), "--primes entry", allow_two=args.mode == "eigen",
        k_max=table.k_max,
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
        raise CliError(exc.args[0]) from None
    bad = next((N for N, v in form.coefficients.items() if not math.isfinite(v)), None)
    if bad is not None:
        raise CliError(f"the lambdas give a non-finite coefficient at N={bad}")
    payload = {
        "epsilon": epsilon,
        "n_max": n_max,
        "lambdas": {str(p): lam for p, lam in lams.items()},
        "values": {str(n): formal_to_json_obj(v) for n, v in form.coefficients.items()},
    }
    _dump_json(payload, args.out)
    return 0


def _cmd_satake(args) -> int:
    if args.tolerance is not None and not args.table:
        raise CliError("--tolerance does not apply to satake without --table")
    cfg = _load_config(args)
    tol = float(cfg.get("tolerance", 1e-8))
    table = _load_table(args.table) if args.table else None
    lams = _config_lambdas(cfg, k_max=None if table is None else table.k_max)
    if not lams:
        raise CliError("config needs a nonempty 'lambdas' map")
    payload, ok = {"note": spectral_mod.MODULUS_READING_NOTE}, True
    if table is not None:
        try:
            payload["cn_relations"] = verify_cn_relations(table, lams, tolerance=tol)
        except ValueError as exc:
            raise CliError(f"{args.table}: {exc}") from None
        ok = payload["cn_relations"]["pass"]
    pairs = []
    for p in sorted(lams):
        params = satake_from_lambda(p, lams[p])
        pairs.append((ramanujan_violation_check(params), params))
    payload["reports"] = [rep for rep, _ in pairs]
    descriptors = [sigma_descriptor(p, lambda_p=lams[p]).to_json_dict() for p in sorted(lams)]
    if cfg.get("epsilon") in (1, -1):
        descriptors.append(sigma_descriptor(2, epsilon=cfg["epsilon"]).to_json_dict())
    if cfg.get("r") is not None:
        descriptors.append(sigma_descriptor("inf", r=float(cfg["r"])).to_json_dict())
    payload["descriptors"] = descriptors
    ok = all(abs(rep["alpha_sum"]) <= 1e-10 for rep, _ in pairs) and ok
    artifacts = [(_json_text(payload) + "\n", args.out)]
    if args.out_csv:
        rows = io.StringIO()
        csv.writer(rows, lineterminator="\n").writerows(satake_csv_rows(pairs))
        artifacts.insert(0, (rows.getvalue(), args.out_csv))
    _write_text(*artifacts)
    return 0 if ok else 1


def _cmd_stability(args) -> int:
    cfg = _load_config(args)
    tol = float(cfg.get("tolerance", 1e-8))
    k_max = int(cfg.get("k_max", 512))
    epsilon = int(cfg.get("epsilon", 1))
    seed = int(cfg.get("seed", 0))
    prime = int(cfg.get("prime", 3))
    kinds = cfg.get("kinds", ["T2", "H2", "H3", "H4"])
    if any(kind != "T2" for kind in kinds):
        _parse_primes([prime], "config prime", k_max=k_max)
    try:
        ops = [HeckeOperator(kind, 2 if kind == "T2" else prime) for kind in kinds]
    except ValueError as exc:
        raise CliError(f"config prime/kinds: {exc}") from None
    for i, kind in enumerate(kinds):
        if kind in kinds[:i]:
            raise CliError(f"config 'kinds' repeats {kind!r}")
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
