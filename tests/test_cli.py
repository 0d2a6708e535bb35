"""Command-line surface: subcommand behavior, exit-status contract, input
diagnostics, operation coverage, and byte-level determinism."""

import hashlib
import json
import shlex
from pathlib import Path

import pytest

from mql.cli import build_parser, main
from mql.lift import SourceForm, build_lift_table, table_to_json_dict, valid_indices


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
        (["stability", "--kmax", "64", "--config", "{prime4}"], "got 4"),
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
    ],
)
def test_bad_input_exits_2_naming_value(tmp_path, capsys, numeric_table, argv, named):
    configs = {
        "lambda4": {"lambdas": {"3": 1.5, "4": 0.5}},
        "prime4": {"prime": 4},
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
    }
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
    files = {"table": numeric_table}
    for name, content in configs.items():
        files[name] = tmp_path / f"{name}.json"
        files[name].write_text(json.dumps(content))
    capsys.readouterr()
    assert run_cli([a.format(**files) for a in argv]) == 2
    first_cut = str((cut["K"], cut["u"], cut["n"]))
    assert named.format(first_cut=first_cut) in capsys.readouterr().err


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


def test_hecke_rejects_formal_table(tmp_path, capsys):
    table = tmp_path / "formal.json"
    assert run_cli(["lift", "--backend", "formal", "--kmax", "64", "--out", str(table)]) == 0
    assert run_cli(["hecke", "--table", str(table), "--primes", "3"]) == 2
    assert "formal table" in capsys.readouterr().err


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


#: Public operations no subcommand calls: helpers the library offers its own callers.
#: build_lift_table forms its entries through the unchecked body of lift_coefficient;
#: stability runs stability_sweep, of which the two hecke names are one-operator calls.
LIBRARY_ONLY = {
    "quaternion.exact_divide",
    "lift.lift_coefficient",
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
    "stability.json": "f833d435d611468fb6d4dbd71005a42eb5a10bbe42a1c900e98a1107a53dfb4b",
    "table.json": "fec1285b9d032b35299c649d10f161f444f3860bd46873a4ad27b40e0abc8154",
}


def test_cli_suite_matches_pinned_digests(tmp_path):
    from cli_driver import run_full_suite

    artifacts = run_full_suite(str(tmp_path), "0")
    assert set(artifacts) == set(PINNED_DIGESTS) | {"satake.json", "satake.csv"}
    for name, digest in PINNED_DIGESTS.items():
        got = hashlib.sha256(artifacts[name]).hexdigest()
        assert got == digest, f"artifact {name} changed"
