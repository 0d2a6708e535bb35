"""Command-line surface: subcommand behavior, exit-status contract, input
diagnostics, operation coverage, and byte-level determinism."""

import ast
import hashlib
import json
import math
import shlex
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import mql.cli
from mql.cli import _json_text, build_parser, main
from mql.formal import formal_to_json_obj
from mql.lift import (
    SourceForm,
    build_lift_table,
    source_coefficient,
    table_from_json_dict,
    table_to_json_dict,
    valid_indices,
)
from mql.spectral import satake_from_lambda, synth_eigenform


def run_cli(args):
    """main's return code; an argparse rejection (SystemExit) gives its exit code."""
    try:
        return main(list(args))
    except SystemExit as exc:
        return exc.code


@pytest.fixture()
def synth_config(tmp_path):
    cfg = tmp_path / "synth.json"
    cfg.write_text(
        json.dumps(
            {
                "epsilon": 1,
                "n_max": 128,
                "lambdas": {"3": 1.5},
                "random_lambdas": {"seed": 5},
            }
        )
    )
    return cfg


@pytest.fixture()
def numeric_table(tmp_path, synth_config):
    source = tmp_path / "source.json"
    table = tmp_path / "table.json"
    assert run_cli(["synth", "--config", str(synth_config), "--out", str(source)]) == 0
    assert (
        run_cli(
            ["lift", "--backend", "numeric", "--source", str(source), "--kmax", "256",
             "--out", str(table)]
        )
        == 0
    )
    return table


def test_decompose_example(capsys):
    assert run_cli(["decompose", "2ij"]) == 0
    assert json.loads(capsys.readouterr().out) == {"K": 4, "u": 1, "n": 1}


def test_empty_out_writes_stdout(capsys):
    for argv in (["decompose", "2ij"], ["adjoint", "--primes", "3"], ["lift", "--kmax", "16"]):
        assert run_cli(argv) == 0
        expected = capsys.readouterr().out
        assert run_cli(argv + ["--out", ""]) == 0
        assert capsys.readouterr().out == expected, argv


def test_decompose_file_input(tmp_path, capsys):
    f = tmp_path / "elems.txt"
    f.write_text("# comment\n1-ij\n3-3ij\n")
    assert run_cli(["decompose", "--in", str(f)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert json.loads(lines[0]) == {"K": 2, "u": 0, "n": 1}
    assert json.loads(lines[1]) == {"K": 18, "u": 0, "n": 3}


def test_decompose_malformed_names_record(tmp_path, capsys):
    f = tmp_path / "elems.txt"
    f.write_text("1-ij\nnot a quaternion\n")
    assert run_cli(["decompose", "--in", str(f)]) == 2
    err = capsys.readouterr().err
    assert f"{f}:2" in err


def test_decompose_rejects_non_lattice(capsys):
    assert run_cli(["decompose", "1"]) == 2
    assert "argument 1" in capsys.readouterr().err


def test_cp_enum_rows(capsys):
    assert run_cli(["cp-enum", "3"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["classes"]) == 4
    assert run_cli(["cp-enum", "4"]) == 2


def test_formal_lift_invert_check(tmp_path, capsys):
    table = tmp_path / "formal.json"
    assert run_cli(["lift", "--backend", "formal", "--kmax", "64", "--out", str(table)]) == 0
    assert run_cli(["check-maass", "--table", str(table)]) == 0
    capsys.readouterr()
    assert run_cli(["invert", "--table", str(table), "--nmax", "8"]) == 0
    out = json.loads(capsys.readouterr().out)
    # formal inversion returns the bare source symbols
    assert out["values"]["5"] == {"5": "1"}
    assert out["values"]["8"] == {"8": "1"}


def test_check_maass_fails_on_perturbed_table(tmp_path, numeric_table):
    obj = json.loads(numeric_table.read_text())
    obj["entries"][3]["value"] += 1.0
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(obj))
    assert run_cli(["check-maass", "--table", str(bad)]) == 1


@pytest.mark.parametrize(
    "backend, value",
    [
        ("formal", 1.5),  # a formal value must be a JSON object
        ("numeric", float("nan")),
        # a numeric value must be a finite JSON number, not a bool or a string
        ("numeric", True),
        ("numeric", "1.5"),
        pytest.param("numeric", 10**400, id="numeric-int-beyond-float"),
    ],
)
def test_bad_table_row_exits_2_naming_row(tmp_path, capsys, backend, value):
    table = tmp_path / "table.json"
    assert run_cli(["lift", "--backend", "formal", "--kmax", "16", "--out", str(table)]) == 0
    obj = json.loads(table.read_text())
    obj["backend"] = backend
    for row in obj["entries"]:
        if backend == "numeric":
            row["value"] = 1.0
        if (row["K"], row["u"], row["n"]) == (8, 2, 1):
            row["value"] = value
    table.write_text(json.dumps(obj))
    for command in ("check-maass", "invert"):
        capsys.readouterr()
        assert run_cli([command, "--table", str(table)]) == 2
        assert "(8, 2, 1)" in capsys.readouterr().err


@pytest.mark.parametrize(
    "field, value, named",
    [
        ("k_max", float("inf"), "'k_max' = inf"),
        ("k_max", True, "'k_max' = True"),
        ("epsilon", 1.5, "'epsilon' = 1.5"),
        ("K", float("inf"), "entries[3]"),
        ("u", 1.0, "entries[3]"),
        ("n", True, "entries[3]"),
    ],
)
def test_table_integer_fields_exit_2_naming_field(tmp_path, capsys, field, value, named):
    table = tmp_path / "table.json"
    assert run_cli(["lift", "--backend", "formal", "--kmax", "16", "--out", str(table)]) == 0
    obj = json.loads(table.read_text())
    (obj["entries"][3] if field in ("K", "u", "n") else obj)[field] = value
    table.write_text(json.dumps(obj))
    for command in ("check-maass", "invert"):
        capsys.readouterr()
        assert run_cli([command, "--table", str(table)]) == 2
        assert named in capsys.readouterr().err


BIG_ELEMENT = "2" + "0" * 3000 + ",0,0,0"  # K has over 6,000 digits
BIG_TERM = "1" * 4400 + "i"
HUGE_PRIME = 10**18 + 3


@pytest.mark.parametrize(
    "argv, named",
    [
        (["hecke", "--table", "{table}", "--mode", "apply", "--kind", "H2", "--prime", "4",
          "--index", "18,0,1"], "--prime 4"),
        (["hecke", "--table", "{table}", "--primes", "4"], "'4'"),
        (["hecke", "--table", "{table}", "--mode", "lambda", "--primes", "3,x"], "'x'"),
        (["adjoint", "--primes", "x"], "'x'"),
        (["adjoint", "--primes", "3,4"], "'4'"),
        (["satake", "--config", "{lambda4}"], "'4'"),
        (["stability", "--kmax", "64", "--config", "{prime4}"],
         "config prime 4 is not an odd prime"),
        (["stability", "--kmax", "64", "--config", "{kind_x1}"], "'X1'"),
        (["invert", "--table", "{table}", "--nmax", "-3"], "--nmax -3"),
        (["invert", "--table", "{table}", "--nmax", "0"], "--nmax 0"),
        (["check-maass", "--table", "{truncated}"], "missing row {first_cut}"),
        (["check-maass", "--table", "{table}", "--epsilon", "-1"], "--epsilon"),
        (["invert", "--table", "{table}", "--kmax", "4"], "--kmax"),
        (["decompose", "--seed", "3", "2ij"], "--seed"),
        (["adjoint", "--tolerance", "1"], "--tolerance"),
        (["stability", "--kmax", "64", "--backend", "numeric"], "--backend"),
        (["hecke", "--table", "{table}", "--mode", "apply", "--kind", "H2", "--index",
          "2,0,1", "--primes", "5"], "--primes"),
        (["hecke", "--table", "{table}", "--primes", "3", "--kind", "H2"], "--kind"),
        # a zero denominator, on the int path and on the Fraction(str) fallback
        (["check-maass", "--table", "{zero_den}"], "(8, 2, 1)"),
        (["check-maass", "--table", "{zero_den_spaced}"], "(8, 2, 1)"),
        # config values of the wrong type
        (["lift", "--config", "{kmax_str}"], "'k_max'"),
        (["stability", "--kmax", "64", "--config", "{tolerance_str}"], "'tolerance'"),
        (["stability", "--kmax", "64", "--config", "{seed_str}"], "'seed'"),
        (["stability", "--kmax", "64", "--config", "{kinds_str}"], "'kinds'"),
        # a stability check that would cover no index, an n_max below 1
        (["stability", "--kmax", "8"], "H2 image bound 2"),
        (["synth", "--config", "{nmax_neg}"], "'n_max'"),
        (["synth", "--config", "{nmax_zero}"], "'n_max'"),
        # an exponent form, which Fraction(str) would expand in full
        (["check-maass", "--table", "{exponent}"], "(8, 2, 1)"),
        # numbers that are not finite JSON numbers
        (["synth", "--config", "{range_nan}"], "'range'"),
        (["satake", "--config", "{r_nan}"], "'r'"),
        (["satake", "--config", "{lambda_true}"], "lambdas['3']"),
        (["satake", "--config", "{lambda_nan_str}"], "lambdas['3']"),
        (["lift", "--backend", "numeric", "--source", "{source_nan_str}"], "values['2']"),
        (["lift", "--backend", "numeric", "--source", "{source_true}"], "values['2']"),
        (["lift", "--backend", "numeric", "--source", "{source_eps}"], "'epsilon' = 1.5"),
        # a stability run with no operator to check
        (["stability", "--kmax", "64", "--config", "{kinds_empty}"], "'kinds'"),
        # a lift epsilon that disagrees with the source form, a source the formal lift ignores
        (["lift", "--backend", "numeric", "--source", "{source_ok}", "--epsilon", "-1"],
         "epsilon -1 from --epsilon or the config disagrees with epsilon 1"),
        (["lift", "--backend", "formal", "--source", "{source_ok}"], "--source"),
        # a repeated prime, operator kind or lambdas key; primes compare as ints
        (["hecke", "--table", "{table}", "--primes", "3,3"], "'3' repeats prime 3"),
        (["hecke", "--table", "{table}", "--mode", "lambda", "--primes", "3,5,03"],
         "'03' repeats prime 3"),
        (["adjoint", "--primes", "3,3"], "'3' repeats prime 3"),
        (["stability", "--kmax", "64", "--config", "{kinds_twice}"], "'kinds' repeats 'H2'"),
        (["satake", "--config", "{lambda_twice}"], "'03' repeats prime 3"),
        (["synth", "--config", "{lambda_twice}"], "'03' repeats prime 3"),
        # a lift that overflows, which no table reader would accept back
        (["lift", "--backend", "numeric", "--source", "{source_huge}", "--kmax", "32"],
         "source_huge.json lifts to a non-finite value at row (4, 1, 1)"),
        # source keys: positive integers, each once as an int
        (["lift", "--backend", "numeric", "--source", "{source_key_twice}"],
         "values key '03' repeats index 3"),
        (["lift", "--backend", "numeric", "--source", "{source_key_zero}"], "values key '0'"),
        (["lift", "--backend", "numeric", "--source", "{source_key_neg}"], "values key '-2'"),
        # an --out path that cannot be opened, on the report and the table writer
        (["adjoint", "--out", "{missing}/adjoint.json"], "cannot write {missing}/adjoint.json"),
        (["lift", "--kmax", "16", "--out", "{missing}/lift.json"], "cannot write {missing}/lift.json"),
        (["satake", "--config", "{lambda_ok}", "--out-csv", "{missing}/satake.csv"],
         "cannot write {missing}/satake.csv"),
        # an input file that is missing, not JSON, a directory or not UTF-8
        (["check-maass", "--table", "{missing}/table.json"],
         "table file not found: {missing}/table.json"),
        (["lift", "--config", "{malformed}"], "malformed JSON in config file {malformed}"),
        (["check-maass", "--table", "{dir}"], "cannot read table file {dir}"),
        (["check-maass", "--table", "{non_utf8}"], "cannot read table file {non_utf8}"),
        (["lift", "--config", "{dir}"], "cannot read config file {dir}"),
        (["lift", "--backend", "numeric", "--source", "{dir}"], "cannot read source form file {dir}"),
        (["decompose", "--in", "{dir}"], "cannot read input file {dir}"),
        (["decompose", "--in", "{non_utf8}"], "cannot read input file {non_utf8}"),
        # --tolerance where the run checks nothing to a tolerance
        (["hecke", "--table", "{table}", "--mode", "apply", "--kind", "H2", "--index", "2,0,1",
          "--tolerance", "5"], "--tolerance does not apply in apply mode"),
        (["hecke", "--table", "{table}", "--mode", "lambda", "--primes", "3", "--tolerance", "5"],
         "--tolerance does not apply in lambda mode"),
        (["satake", "--config", "{lambda_ok}", "--tolerance", "5"],
         "--tolerance does not apply to satake without --table"),
        # config values out of range or of the wrong shape
        (["lift", "--config", "{config_list}"], "config file {config_list} must hold a JSON object"),
        (["check-maass", "--table", "{table}", "--tolerance", "0"],
         "'tolerance' = 0.0 from --tolerance is not a positive finite number"),
        (["lift", "--kmax", "1"], "'k_max' = 1 from --kmax is not an integer of at least 2"),
        (["lift", "--config", "{epsilon_two}"],
         "'epsilon' = 2 from config file {epsilon_two} is not 1 or -1"),
        (["satake", "--config", "{lambdas_list}"], "config 'lambdas' must be a JSON object"),
        (["synth", "--config", "{random_seed_float}"], "random_lambdas 'seed' = 1.5"),
        (["lift", "--config", "{backend_xyz}"], "unknown backend 'xyz'"),
        (["synth", "--config", "{lambdas_short}"], "error: missing lambda for prime 3\n"),
        (["satake", "--config", "{lambdas_empty}"], "nonempty 'lambdas'"),
        # elements, sources and indices the engine rejects
        (["decompose"], "no elements given"),
        (["cp-enum", "3", "--divisibility", "2+2i"], "--divisibility '2+2i': beta must be primitive"),
        (["cp-enum", "3", "--divisibility", "x"], "--divisibility 'x'"),
        (["lift", "--backend", "numeric", "--source", "{source_key_abc}"],
         "values key 'abc' is not a positive integer"),
        (["lift", "--backend", "numeric"], "numeric lift needs --source"),
        (["invert", "--table", "{table}", "--nmax", "129"], "--nmax 129 exceeds the table bound 256"),
        (["hecke", "--table", "{table}", "--mode", "apply", "--kind", "H2", "--index", "2-0-1"],
         "bad index '2-0-1'"),
        (["hecke", "--table", "{table}", "--mode", "apply", "--kind", "H2"],
         "apply mode needs --kind and at least one --index"),
        (["hecke", "--table", "{table}", "--mode", "apply", "--kind", "H2", "--index", "254,0,1"],
         "--index 254,0,1: index (762,0,1) exceeds table bound"),
        pytest.param(
            ["hecke", "--table", "{table}", "--mode", "lambda", "--primes", "131"],
            "--primes entry '131': 2p exceeds the table bound k_max=256, so no index applies",
            id="hecke-lambda-prime-above-bound",
        ),
        pytest.param(
            ["hecke", "--table", "{table}", "--primes", "131"],
            "--primes entry '131': 2p exceeds the table bound k_max=256, so no index applies",
            id="hecke-eigen-prime-above-bound",
        ),
        # a zero denominator in a quaternion term
        (["decompose", "1/0i"], "argument 1: term '1/0i' in '1/0i' has a zero denominator"),
        (["cp-enum", "5", "--divisibility", "1/0+i"],
         "--divisibility '1/0+i': term '1/0' in '1/0+i' has a zero denominator"),
        # an exponent form, which Fraction(str) would expand in full
        (["decompose", "2e200000,0,0,0"], "component '2e200000' in '2e200000,0,0,0' is an exponent form"),
        # a synth that overflows, which no source reader would accept back
        (["synth", "--config", "{lambda_huge}"], "non-finite coefficient at N=9"),
        # an index, or a term, past the int-to-str digit limit
        pytest.param(
            ["decompose", BIG_ELEMENT],
            f"argument 1: the index K of {BIG_ELEMENT!r} has too many digits",
            id="decompose-index-digits",
        ),
        pytest.param(
            ["decompose", BIG_TERM],
            f"argument 1: term {BIG_TERM!r} in {BIG_TERM!r} has too many digits",
            id="decompose-term-digits",
        ),
        # a satake or check-maass run that would check nothing; satake writes no CSV
        pytest.param(
            ["satake", "--config", "{lambda_ok}", "--table", "{formal16}",
             "--out-csv", "{dir}/satake.csv"],
            "{formal16}: lambdas at [3] need a numeric table, not a formal one",
            id="satake-formal-table",
        ),
        pytest.param(
            ["satake", "--config", "{lambda_37}", "--table", "{numeric64}",
             "--out-csv", "{dir}/satake.csv"],
            "lambdas key '37': 2p exceeds the table bound k_max=64, so no index applies",
            id="satake-prime-above-bound",
        ),
        pytest.param(
            ["satake", "--config", "{lambda_ok}", "--table", "{numeric3}",
             "--out-csv", "{dir}/satake.csv"],
            "lambdas key '3': 2p exceeds the table bound k_max=3, so no index applies",
            id="satake-bound-below-4",
        ),
        pytest.param(
            ["check-maass", "--table", "{formal3}"],
            "{formal3}: table bound 3 is below 4",
            id="check-maass-bound-below-4",
        ),
        # zero has no canonical index, so it is not primitive
        (["cp-enum", "3", "--divisibility", "0"], "--divisibility '0': beta must be primitive"),
        # a prime no index fits under exits before its primality test, which would
        # take about a minute of trial division at 10^18
        pytest.param(
            ["hecke", "--table", "{table}", "--mode", "apply", "--kind", "H2", "--prime",
             str(HUGE_PRIME), "--index", "2,0,1"],
            f"--prime {HUGE_PRIME}: 2p exceeds the table bound k_max=256",
            id="hecke-apply-huge-prime",
        ),
        pytest.param(
            ["hecke", "--table", "{table}", "--mode", "apply", "--kind", "H3", "--prime", "131",
             "--index", "2,0,1"],
            "--prime 131: 2p exceeds the table bound k_max=256",
            id="hecke-apply-prime-above-bound",
        ),
        pytest.param(
            ["stability", "--kmax", "64", "--config", "{prime_huge}"],
            f"config prime {HUGE_PRIME}: 2p exceeds the table bound k_max=64",
            id="stability-huge-prime",
        ),
        # a prime within the bound that still has too few usable indices
        pytest.param(
            ["hecke", "--table", "{table}", "--mode", "lambda", "--primes", "127"],
            "prime 127: no usable index",
            id="hecke-lambda-no-usable-index",
        ),
        pytest.param(
            ["hecke", "--table", "{table}", "--primes", "127"],
            "usable indices at prime 127",
            id="hecke-eigen-no-usable-index",
        ),
        # T2 acts at 2 alone
        pytest.param(
            ["hecke", "--table", "{table}", "--mode", "apply", "--kind", "T2", "--prime", "3",
             "--index", "2,0,1"],
            "--prime 3: T2 requires prime 2",
            id="hecke-apply-t2-odd-prime",
        ),
        # satake reads --table before it writes --out-csv
        pytest.param(
            ["satake", "--config", "{lambda_ok}", "--table", "{missing}/table.json",
             "--out-csv", "{dir}/satake.csv"],
            "table file not found: {missing}/table.json",
            id="satake-missing-table",
        ),
        # an input file holding an integer past Python's 4,300-digit limit
        pytest.param(
            ["lift", "--config", "{digits}"], "malformed JSON in config file {digits}",
            id="config-int-past-digit-limit",
        ),
        pytest.param(
            ["check-maass", "--table", "{digits}"], "malformed JSON in table file {digits}",
            id="table-int-past-digit-limit",
        ),
        pytest.param(
            ["lift", "--backend", "numeric", "--source", "{digits}"],
            "malformed JSON in source form file {digits}",
            id="source-int-past-digit-limit",
        ),
        pytest.param(
            ["lift", "--config", "{deep}"], "malformed JSON in config file {deep}",
            id="config-nested-past-recursion-limit",
        ),
        # the row check names a row swapped for, or added as, an invalid index
        pytest.param(
            ["check-maass", "--table", "{swapped64}"],
            "missing row (64, 5, 1) of a table with k_max=64",
            id="table-row-swapped-for-invalid-index",
        ),
        pytest.param(
            ["check-maass", "--table", "{extra64}"],
            "row (4, 0, 1) is not a valid index <= k_max=64",
            id="table-extra-invalid-index",
        ),
        # a bound whose index ranges no list can count
        pytest.param(
            ["lift", "--backend", "formal", "--kmax", str(10**30)],
            f"'k_max' = {10**30} from --kmax is not an integer of at least 2 and at most",
            id="lift-kmax-past-maxsize",
        ),
    ],
)
def test_bad_input_exits_2_naming_value(tmp_path, capsys, numeric_table, argv, named):
    configs = {
        "lambda4": {"lambdas": {"3": 1.5, "4": 0.5}},
        "prime4": {"prime": 4},
        "prime_huge": {"prime": HUGE_PRIME},
        "kind_x1": {"kinds": ["H2", "X1"]},
        "kmax_str": {"k_max": "512"},
        "tolerance_str": {"tolerance": "x"},
        "seed_str": {"seed": "abc"},
        "kinds_str": {"kinds": "H2"},
        "kinds_empty": {"kinds": []},
        "nmax_neg": {"n_max": -5},
        "nmax_zero": {"n_max": 0},
        "range_nan": {"n_max": 16, "random_lambdas": {"range": [float("nan"), 1.0]}},
        "r_nan": {"lambdas": {"3": 1.5}, "r": float("nan")},
        "lambda_true": {"lambdas": {"3": True}},
        "lambda_nan_str": {"lambdas": {"3": "nan"}},
        "source_nan_str": {"epsilon": 1, "values": {"1": 1.0, "2": "nan"}},
        "source_true": {"epsilon": 1, "values": {"1": 1.0, "2": True}},
        "source_eps": {"epsilon": 1.5, "values": {"1": 1.0, "2": -0.5}},
        "source_ok": {"epsilon": 1, "values": {"1": 1.0, "2": -0.5}},
        "kinds_twice": {"kinds": ["H2", "H3", "H2"]},
        "lambda_twice": {"n_max": 8, "lambdas": {"3": 1.5, "03": 0.5}},
        "source_huge": {"epsilon": -1, "values": {str(m): 1e308 for m in range(1, 17)}},
        "source_key_twice": {"epsilon": 1, "values": {"1": 1.0, "3": 0.5, "03": 0.25}},
        "source_key_zero": {"epsilon": 1, "values": {"0": 1.0, "1": 1.0}},
        "source_key_neg": {"epsilon": 1, "values": {"1": 1.0, "-2": -0.5}},
        "source_key_abc": {"epsilon": 1, "values": {"1": 1.0, "abc": -0.5}},
        "lambda_ok": {"lambdas": {"3": 1.5}},
        "config_list": [1, 2],
        "epsilon_two": {"epsilon": 2},
        "lambdas_list": {"lambdas": [1.5]},
        "random_seed_float": {"n_max": 16, "random_lambdas": {"seed": 1.5}},
        "backend_xyz": {"backend": "xyz"},
        "lambdas_short": {"n_max": 16},
        "lambda_huge": {"lambdas": {"3": 1e308, "5": 1, "7": 1, "11": 1, "13": 1}, "n_max": 16},
        "lambdas_empty": {"lambdas": {}},
        "lambda_37": {"lambdas": {"3": 1.0, "37": 1000.0}},
        "formal16": table_to_json_dict(build_lift_table(SourceForm(1), 16)),
        "formal3": table_to_json_dict(build_lift_table(SourceForm(1), 3)),
        "numeric64": table_to_json_dict(
            build_lift_table(SourceForm(1, {m: 0.5 for m in range(1, 33)}), 64)
        ),
        "numeric3": table_to_json_dict(build_lift_table(SourceForm(1, {1: 0.5}), 3)),
        "malformed": b'{"k_max": ',
        "digits": b'{"k_max": ' + b"9" * 5000 + b"}",
        "deep": b"[" * 100_000,
        "non_utf8": b'{"k_max": "\xff"}',
    }
    rows, four = configs["numeric64"]["entries"], {"K": 4, "u": 0, "n": 1, "value": 0.5}
    configs["swapped64"] = dict(
        configs["numeric64"], entries=[r for r in rows if r["K"] != 64] + [four]
    )
    configs["extra64"] = dict(configs["numeric64"], entries=rows + [four])
    obj = json.loads(numeric_table.read_text())
    cut = obj["entries"][-40]
    obj["entries"] = obj["entries"][:-40]
    configs["truncated"] = obj
    for name, text in (
        ("zero_den", "1/0"), ("zero_den_spaced", " 1/0"), ("exponent", "1e3000000")
    ):
        formal = table_to_json_dict(build_lift_table(SourceForm(1), 16))
        for row in formal["entries"]:
            if (row["K"], row["u"], row["n"]) == (8, 2, 1):
                row["value"] = {"1": text}
        configs[name] = formal
    files = {"table": numeric_table, "missing": tmp_path / "missing", "dir": tmp_path}
    for name, content in configs.items():
        files[name] = tmp_path / f"{name}.json"
        if isinstance(content, bytes):
            files[name].write_bytes(content)
        else:
            files[name].write_text(json.dumps(content))
    capsys.readouterr()
    argv = [a.format(**files) for a in argv]
    assert run_cli(argv) == 2
    first_cut = str((cut["K"], cut["u"], cut["n"]))
    assert named.format(first_cut=first_cut, **files) in capsys.readouterr().err
    if "--out-csv" in argv:
        assert not Path(argv[argv.index("--out-csv") + 1]).exists()


def test_hecke_modes(numeric_table, capsys):
    assert run_cli(["hecke", "--table", str(numeric_table), "--primes", "3"]) == 0
    payload = json.loads(capsys.readouterr().out)
    row = payload["reports"][0]
    assert row["pass"] and row["prime"] == 3
    assert row["mu"]["H2"] == pytest.approx(18.0, rel=1e-8)

    assert run_cli(
        ["hecke", "--table", str(numeric_table), "--mode", "lambda", "--primes", "3"]
    ) == 0
    lam = json.loads(capsys.readouterr().out)["lambdas"][0]["lambda"]
    assert lam == pytest.approx(1.5, abs=1e-9)

    assert run_cli(
        ["hecke", "--table", str(numeric_table), "--mode", "apply", "--kind", "H2",
         "--prime", "3", "--index", "2,0,1"]
    ) == 0
    img = json.loads(capsys.readouterr().out)["images"][0]["value"]
    assert img == pytest.approx(18.0 * 2 ** 0.5, rel=1e-8)  # mu2 * A(2,0,1), A = sqrt(2)

    assert run_cli(
        ["hecke", "--table", str(numeric_table), "--mode", "apply", "--kind", "H2",
         "--prime", "3", "--index", "4,0,1"]
    ) == 2

    capsys.readouterr()
    assert run_cli(
        ["hecke", "--table", str(numeric_table), "--mode", "apply", "--kind", "T2",
         "--index", "2,0,1"]
    ) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["prime"] == 2  # the resolved default for T2
    assert payload["images"][0]["value"] == pytest.approx(-6.0, rel=1e-8)  # -3 sqrt2 * A


def test_satake_and_stability_and_adjoint(tmp_path, capsys):
    cfg = tmp_path / "sat.json"
    cfg.write_text(json.dumps({"lambdas": {"3": 1.5, "5": -2.0}, "epsilon": 1, "r": 2.0}))
    out_csv = tmp_path / "sat.csv"
    assert run_cli(["satake", "--config", str(cfg), "--out-csv", str(out_csv)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert all(rep["violated"] for rep in payload["reports"])
    assert any(d["shape"] == "twisted-steinberg" for d in payload["descriptors"])
    header = out_csv.read_text().splitlines()[0]
    assert header.startswith("p,lambda,re_chi1")

    assert run_cli(["stability", "--kmax", "256", "--seed", "3"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert {r["kind"] for r in payload["reports"]} == {"T2", "H2", "H3", "H4"}

    assert run_cli(["adjoint"]) == 0
    assert json.loads(capsys.readouterr().out)["pass"]


@pytest.mark.parametrize("existed", [False, True], ids=["new", "existing"])
@pytest.mark.parametrize("blocked", ["--out", "--out-csv"])
def test_satake_writes_no_output_unless_both_open(tmp_path, capsys, blocked, existed):
    """satake renders both outputs and opens both paths before it writes
    either, so a path that cannot be opened leaves the other as it was."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"lambdas": {"3": 1.5}}))
    paths = {"--out": tmp_path / "r.json", "--out-csv": tmp_path / "x.csv"}
    other = paths["--out-csv" if blocked == "--out" else "--out"]
    old = "old bytes, longer than the output\n" * 100
    if existed:
        other.write_text(old)

    def run(blocked_path):
        argv = ["satake", "--config", str(cfg)]
        for flag, path in paths.items():
            argv += [flag, str(blocked_path if flag == blocked else path)]
        return run_cli(argv)

    blocked_path = tmp_path / "missing" / paths[blocked].name
    assert run(blocked_path) == 2
    assert f"cannot write {blocked_path}" in capsys.readouterr().err
    if existed:
        assert other.read_text() == old
    else:
        assert not other.exists()
    # once both open, each file holds exactly the output, whatever it held before
    assert run(paths[blocked]) == 0
    fresh = tmp_path / "fresh"
    fresh.mkdir()
    argv = ["satake", "--config", str(cfg), "--out", str(fresh / "r.json"),
            "--out-csv", str(fresh / "x.csv")]
    assert run_cli(argv) == 0
    for path in paths.values():
        assert path.read_text() == (fresh / path.name).read_text()


@pytest.mark.parametrize("existed", [False, True], ids=["new", "existing"])
@pytest.mark.parametrize("spelling", ["same", "dotted"])
def test_satake_rejects_one_file_for_both_outputs(tmp_path, capsys, existed, spelling):
    """--out and --out-csv naming one file, however spelled, exit 2 and leave
    it as it was, rather than writing the JSON and the CSV into it."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"lambdas": {"3": 1.5}}))
    path = tmp_path / "r.json"
    if existed:
        path.write_text("old bytes\n")
    other = path if spelling == "same" else tmp_path / "." / "r.json"
    argv = ["satake", "--config", str(cfg), "--out-csv", str(path), "--out", str(other)]
    assert run_cli(argv) == 2
    assert f"cannot write {other}: the same file as another output" in capsys.readouterr().err
    if existed:
        assert path.read_text() == "old bytes\n"
    else:
        assert not path.exists()


@pytest.mark.parametrize("lam", [1e10, -1e10, 1e200])
def test_satake_large_lambda(tmp_path, capsys, lam):
    """Far outside [-2, 2] the small root is the reciprocal of the large one,
    not a difference that cancels to 0 (whose log would raise)."""
    cfg = tmp_path / "sat.json"
    cfg.write_text(json.dumps({"lambdas": {"3": lam}}))
    assert run_cli(["satake", "--config", str(cfg)]) == 0
    rep = json.loads(capsys.readouterr().out)["reports"][0]
    assert all(isinstance(e, float) for e in rep["exponents"])  # null if not finite
    assert rep["violated"] is True
    assert abs(rep["alpha_sum"]) <= 1e-10
    residuals = satake_from_lambda(3, lam).invariant_residuals()
    assert all(v <= 1e-12 * 3 for v in residuals.values()), residuals  # as for |lambda| <= 10


@pytest.mark.parametrize("lam", [1e308, -1e308])
def test_satake_exponents_finite_at_float_limit(tmp_path, capsys, lam):
    """At p = 13 the large character sqrt(p) r overflows to inf although its
    exponent 1/2 + log|r| / log p is finite."""
    cfg = tmp_path / "sat.json"
    cfg.write_text(json.dumps({"lambdas": {"13": lam}}))
    assert run_cli(["satake", "--config", str(cfg)]) == 0
    rep = json.loads(capsys.readouterr().out)["reports"][0]
    assert all(isinstance(e, float) for e in rep["exponents"])  # null if not finite
    assert isinstance(rep["max_abs_exponent"], float)
    assert abs(rep["alpha_sum"]) <= 1e-10


def test_non_finite_report_values_are_null(tmp_path):
    # finite entries whose raw coefficients overflow: the fitted ratios are
    # not finite, so the report fails and must still be strict JSON
    rows = [
        {"K": i.K, "u": i.u, "n": i.n, "value": 1e307 / i.K ** 0.5}
        for i in valid_indices(256)
    ]
    table = tmp_path / "huge.json"
    table.write_text(json.dumps(
        {"epsilon": 1, "k_max": 256, "backend": "numeric", "entries": rows}
    ))

    def reject(token):
        raise ValueError(f"non-JSON token {token}")

    out = tmp_path / "report.json"
    assert run_cli(["hecke", "--table", str(table), "--primes", "3", "--out", str(out)]) == 1
    report = json.loads(out.read_text(), parse_constant=reject)["reports"][0]
    assert report["pass"] is False
    assert report["max_rel_err"] is None


def _dumps(obj):
    """An artifact as _dump_json writes it when every number is finite."""
    return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n"


def _invert_obj(path):
    """invert's output for the table file at path, as a dict of JSON objects."""
    table = table_from_json_dict(json.loads(path.read_text()))
    values = {
        str(N): formal_to_json_obj(source_coefficient(table, N))
        for N in range(1, table.k_max // 2 + 1)
    }
    return {"epsilon": table.epsilon, "values": values}


def test_value_map_writers_match_json_dumps(tmp_path, capsys):
    """invert and synth write their maps byte for byte as json.dumps writes them,
    keys in string order, and the same bytes to stdout as to --out."""
    odd_primes = [p for p in range(3, 41, 2) if all(p % d for d in range(3, p, 2))]
    lams = {p: (-1) ** p * p / 7.0 for p in odd_primes}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n_max": 40, "lambdas": {str(p): v for p, v in lams.items()}}))
    d = tmp_path
    runs = {
        "source.json": ["synth", "--config", str(cfg)],
        "numeric.json": ["lift", "--backend", "numeric", "--source", str(d / "source.json"),
                         "--kmax", "64"],
        "formal.json": ["lift", "--backend", "formal", "--kmax", "256", "--epsilon", "-1"],
        "inv_numeric.json": ["invert", "--table", str(d / "numeric.json")],
        "inv_formal.json": ["invert", "--table", str(d / "formal.json")],
    }
    for name, argv in runs.items():
        assert run_cli(argv + ["--out", str(d / name)]) == 0
        capsys.readouterr()
        assert run_cli(argv) == 0
        assert capsys.readouterr().out == (d / name).read_text(), name
    form = synth_eigenform(1, lams, 40)
    old_synth = {
        "epsilon": 1,
        "n_max": 40,
        "lambdas": {str(p): lams[p] for p in sorted(lams)},
        "values": {str(n): v for n, v in sorted(form.coefficients.items())},
    }
    assert (d / "source.json").read_text() == _dumps(old_synth)
    for table, inverted in (("numeric.json", "inv_numeric.json"), ("formal.json", "inv_formal.json")):
        assert (d / inverted).read_text() == _dumps(_invert_obj(d / table))
    # 2-digit keys sort as strings in every map
    assert list(json.loads((d / "inv_formal.json").read_text())["values"])[:3] == ["1", "10", "100"]
    assert list(json.loads((d / "source.json").read_text())["lambdas"])[:2] == ["11", "13"]


def test_non_finite_invert_value_is_null(tmp_path):
    # a finite table whose source coefficient a(2N) + a(N) overflows
    rows = [{"K": i.K, "u": i.u, "n": i.n, "value": 1e308} for i in valid_indices(64)]
    table = tmp_path / "huge.json"
    table.write_text(json.dumps({"epsilon": 1, "k_max": 64, "backend": "numeric", "entries": rows}))
    out = tmp_path / "inverted.json"
    assert run_cli(["invert", "--table", str(table), "--out", str(out)]) == 0
    old = _invert_obj(table)
    nulled = {k: v if v < float("inf") else None for k, v in old["values"].items()}
    assert None in nulled.values()
    assert out.read_text() == _dumps(dict(old, values=nulled))


def _json_values(floats):
    """JSON values: nested dicts (str keys, non-ASCII included) and lists,
    empty ones too, over null, bools, big ints, strings and the given floats."""
    scalars = (
        st.none() | st.booleans() | st.integers(-(2**300), 2**300) | st.text()
        | floats | st.sampled_from([-0.0, 5e-324, -2.5e-310])
    )
    return st.recursive(
        scalars,
        lambda kids: st.lists(kids, max_size=4) | st.dictionaries(st.text(), kids, max_size=4),
        max_leaves=24,
    )


def _nulled(x):
    """x with every non-finite float, at any depth, replaced by None."""
    if isinstance(x, float) and not math.isfinite(x):
        return None
    if isinstance(x, dict):
        return {k: _nulled(v) for k, v in x.items()}
    if isinstance(x, list):
        return [_nulled(v) for v in x]
    return x


@given(_json_values(st.floats(allow_nan=False, allow_infinity=False)))
def test_json_text_matches_json_dumps(obj):
    assert _json_text(obj) == json.dumps(obj, sort_keys=True, indent=2)


@given(_json_values(st.floats() | st.sampled_from([math.nan, math.inf, -math.inf])))
def test_json_text_writes_non_finite_floats_as_null(obj):
    assert _json_text(obj) == json.dumps(_nulled(obj), sort_keys=True, indent=2)


def test_only_cli_imports_json():
    """The artifact text format lives behind cli: no other module under
    src/mql imports json."""
    importers = set()
    for path in Path(mql.cli.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            if any(name == "json" or name.startswith("json.") for name in names):
                importers.add(path.name)
    assert importers == {"cli.py"}


def test_cli_opens_files_only_in_its_reader_and_writer():
    """Every file the CLI touches goes through _read_text or _write_text, so
    one rule (exit 2, naming the file) covers every path it is given."""
    tree = ast.parse(Path(mql.cli.__file__).read_text())
    owners = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Call):
                f = child.func
                if (isinstance(f, ast.Name) and f.id == "open") or (
                    isinstance(f, ast.Attribute) and f.attr == "open"
                ):
                    owners.append(owner)
            visit(child, owner)

    visit(tree, None)
    assert sorted(owners) == ["_read_text", "_write_text"]


def test_hecke_rejects_formal_table(tmp_path, capsys):
    table = tmp_path / "formal.json"
    assert run_cli(["lift", "--backend", "formal", "--kmax", "64", "--out", str(table)]) == 0
    assert run_cli(["hecke", "--table", str(table), "--primes", "3"]) == 2
    assert "formal table" in capsys.readouterr().err


def test_apply_exits_2_at_a_huge_prime_without_enumerating(numeric_table, capsys, monkeypatch):
    # 2 * 9999991 passes the table bound, so no index K >= 2 has an image in the
    # table, and the run exits before it tests the prime by trial division (about
    # a minute near 10^18) or enumerates the norm-9999991 classes
    import mql.hecke

    def refuse(what):
        def fail(p):
            raise AssertionError(f"{what} {p}")
        return fail

    monkeypatch.setattr(mql.hecke, "_class_tuples", refuse("enumerated the classes of norm"))
    monkeypatch.setattr(mql.hecke, "_smallest_odd_prime_factor", refuse("trial division of"))
    capsys.readouterr()
    argv = ["hecke", "--table", str(numeric_table), "--mode", "apply", "--kind", "H2",
            "--index", "2,0,1", "--prime", "9999991"]
    assert run_cli(argv) == 2
    err = capsys.readouterr().err
    assert "--prime 9999991: 2p exceeds the table bound k_max=256, so no index applies" in err


@pytest.mark.parametrize(
    "argv, named",
    [
        (["hecke", "--table", "{table}", "--mode", "eigen", "--primes", str(HUGE_PRIME)],
         f"--primes entry '{HUGE_PRIME}': 2p exceeds the table bound k_max=256"),
        (["hecke", "--table", "{table}", "--mode", "lambda", "--primes", str(HUGE_PRIME)],
         f"--primes entry '{HUGE_PRIME}': 2p exceeds the table bound k_max=256"),
        (["satake", "--config", "{config}", "--table", "{table}"],
         f"lambdas key '{HUGE_PRIME}': 2p exceeds the table bound k_max=256"),
    ],
    ids=["eigen", "lambda", "satake"],
)
def test_primes_exit_2_at_a_huge_prime_without_trial_division(
    tmp_path, numeric_table, capsys, monkeypatch, argv, named
):
    # as in apply mode, a prime with 2p past the table bound exits before the
    # trial division that would test it (about a minute near 10^18)
    import mql.hecke

    def refuse(p):
        raise AssertionError(f"trial division of {p}")

    monkeypatch.setattr(mql.cli, "_smallest_odd_prime_factor", refuse)
    monkeypatch.setattr(mql.hecke, "_smallest_odd_prime_factor", refuse)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"lambdas": {str(HUGE_PRIME): 1.0}}))
    capsys.readouterr()
    assert run_cli([a.format(table=numeric_table, config=config) for a in argv]) == 2
    assert named + ", so no index applies" in capsys.readouterr().err


def test_cli_trial_divides_only_in_the_prime_gate():
    """Every prime the CLI tests by trial division is either parsed by
    _parse_primes, which applies the table bound first, or generated by
    _lambdas_from_config, so no entry point trial-divides a user's prime
    outside the gate."""
    tree = ast.parse(Path(mql.cli.__file__).read_text())
    owners = set()

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if getattr(child, "id", getattr(child, "attr", None)) == "_smallest_odd_prime_factor":
                owners.add(owner)
            visit(child, owner)

    visit(tree, None)
    assert owners == {"_parse_primes", "_lambdas_from_config"}


def test_lift_rejects_short_source(tmp_path, synth_config, capsys):
    source = tmp_path / "source.json"
    assert run_cli(["synth", "--config", str(synth_config), "--out", str(source)]) == 0
    assert run_cli(
        ["lift", "--backend", "numeric", "--source", str(source), "--kmax", "4096"]
    ) == 2
    assert "too short" in capsys.readouterr().err


def test_thread_cap_validation(capsys, monkeypatch):
    monkeypatch.setenv("MQL_THREADS", "zero")
    assert run_cli(["adjoint"]) == 2
    monkeypatch.setenv("MQL_THREADS", "0")
    assert run_cli(["adjoint"]) == 2
    monkeypatch.setenv("MQL_THREADS", "4")
    capsys.readouterr()
    assert run_cli(["adjoint"]) == 0


def test_readme_command_lines_parse():
    """Every `mql ...` line of the README's command-line block parses."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("## Command line", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [ln for ln in block.splitlines() if ln.startswith("mql ")]
    assert len(lines) >= 10
    for line in lines:
        build_parser().parse_args(shlex.split(line, comments=True)[1:])


def test_readme_library_sketch_runs(capsys):
    """The README's python block runs as written."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, "README.md", "exec"), {})
    assert capsys.readouterr().out == "True\n"


#: Public operations no subcommand calls: helpers the library offers its own callers.
#: build_lift_table and random_maass_table fill their entries one index block at a
#: time, with no per-index lift_coefficient or evaluate; lift writes its table file
#: from row templates, not from table_to_json_dict's rows; stability runs
#: stability_sweep, of which the two hecke names are one-operator calls;
#: cp-enum's unit classes read the tuple enumeration _norm_tuples, which
#: elements_of_norm and units wrap.
LIBRARY_ONLY = {
    "quaternion.elements_of_norm",
    "quaternion.exact_divide",
    "quaternion.units",
    "formal.evaluate",
    "lift.lift_coefficient",
    "lift.table_to_json_dict",
    "hecke.hecke_image_table",
    "hecke.stability_check",
}

#: Every subcommand and mode once; {d} is a scratch directory holding {d}/cfg.json.
REACHABILITY_RUNS = [
    "decompose 2ij --out {d}/decompose.jsonl",
    "cp-enum 5 --divisibility 1-ij --out {d}/cp5.json",
    "synth --config {d}/cfg.json --out {d}/source.json",
    "lift --config {d}/cfg.json --backend numeric --source {d}/source.json --out {d}/table.json",
    "lift --config {d}/cfg.json --backend formal --out {d}/formal.json",
    "invert --table {d}/table.json --nmax 32 --out {d}/cvalues.json",
    "invert --table {d}/formal.json --out {d}/formal_cvalues.json",
    "check-maass --table {d}/table.json --out {d}/maass.json",
    "check-maass --table {d}/formal.json --out {d}/formal_maass.json",
    "hecke --table {d}/table.json --primes 2,3 --out {d}/eigen.json",
    "hecke --table {d}/table.json --mode lambda --primes 3 --out {d}/lambda.json",
    "hecke --table {d}/table.json --mode apply --kind H2 --index 18,0,1 --out {d}/apply.json",
    "satake --config {d}/cfg.json --table {d}/table.json --out-csv {d}/satake.csv "
    "--out {d}/satake.json",
    "stability --config {d}/cfg.json --out {d}/stability.json",
    "adjoint --out {d}/adjoint.json",
]


def _recording(fn, name, called):
    def wrapper(*args, **kwargs):
        called.add(name)
        return fn(*args, **kwargs)

    return wrapper


def test_every_public_operation_reachable(tmp_path, monkeypatch):
    """Trace every subcommand: each public engine function but LIBRARY_ONLY is called."""
    import sys

    import mql.formal, mql.hecke, mql.lift, mql.quaternion, mql.spectral
    from cli_driver import SUITE_CONFIG

    q = mql.quaternion
    for cached in (q.elements_of_norm, q.unit_class_reps, q.three_squares):
        cached.cache_clear()  # a cache hit hides the calls behind it
    namespaces = [m for name, m in sys.modules.items() if name.split(".")[0] == "mql"]
    operations, called = set(), set()
    for mod in (mql.quaternion, mql.formal, mql.lift, mql.hecke, mql.spectral):
        for attr in mod.__all__:
            fn = getattr(mod, attr)
            if isinstance(fn, type) or not callable(fn):
                continue  # data types, reports and constants are not operations
            name = f"{mod.__name__[4:]}.{attr}"
            operations.add(name)
            wrapper = _recording(fn, name, called)
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is fn:
                        monkeypatch.setattr(ns, key, wrapper)
    (tmp_path / "cfg.json").write_text(json.dumps(SUITE_CONFIG))
    for line in REACHABILITY_RUNS:
        assert main(shlex.split(line.format(d=shlex.quote(str(tmp_path))))) == 0, line
    assert operations - called == LIBRARY_ONLY


# sha256 of each artifact of the command-line suite: a refactor must leave
# every byte as it was.  satake.json and satake.csv go through math.log and
# cmath, whose last bits depend on the platform's libm, so only run-to-run
# determinism covers them.
PINNED_DIGESTS = {
    "adjoint.json": "2acc5f833cee9aaa0e9f52a0d91b434bd20320121197266d049d323ac317a90a",
    "cp5.json": "1decdfef00830b320367ca10ae075f546250ca3e507b683c2238196f5765f46d",
    "cvalues.json": "80ca14fb6baaa2e8a2f6477d97b78cbbf9d3df03263512b397d8d3a6904b1bcf",
    "decompose.jsonl": "50af76d47362e1a5c38093fe40d381c331f4493edd9f111b2e72ea4da3aa3211",
    "eigen.json": "191df615735d97dd5ed561b549f7558f06a4d335669b11bf8836ebdefc0fd363",
    "formal.json": "747deef2b4fad3c3e02615f40d2366797bbd66c95b4b3c7563b8ac23356320ed",
    "formal_cvalues.json": "7365eb6b2339d017fe112f6d295053704ee6653b8570740d5b20929c53385fed",
    "formal_maass.json": "bd40fbe55d4fc05021f4c57101a0ee42c02cf2065cf23a40836da45c6621cf5e",
    "maass.json": "1a2d6df7933b79827f014f626e02a0f016f8859ef258e52c86abf9cead566ec4",
    "source.json": "91cb48443f389dd723d552a478e3e824fa05421fec8d285b94c0010b865915da",
    "stability.json": "61991da174ec91d9092578f47757921b01f9312a3309c114f468be0157127d67",
    "table.json": "fec1285b9d032b35299c649d10f161f444f3860bd46873a4ad27b40e0abc8154",
}


def test_cli_suite_matches_pinned_digests(cli_suite_runs):
    for seed, artifacts in cli_suite_runs.items():
        assert set(artifacts) == set(PINNED_DIGESTS) | {"satake.json", "satake.csv"}, seed
        for name, digest in PINNED_DIGESTS.items():
            got = hashlib.sha256(artifacts[name]).hexdigest()
            assert got == digest, f"artifact {name} changed under PYTHONHASHSEED={seed}"
