"""Command-line interface: exit codes, output shapes, manifest headers."""
import contextlib
import csv
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from hermlie.catalog import list_entries
from hermlie.cli import main


#: a number in more parentheses than the parser nests
DEEP = "(" * 5000 + "1" + ")" * 5000


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def dumped_catalog(tmp_path, capsys):
    path = tmp_path / "catalog.json"
    code, out, _ = run(capsys, "verify-catalog", "--dump", str(path))
    assert code == 0
    return path


class TestVerifyCatalog:
    def test_stock_catalog(self, capsys):
        code, out, _ = run(capsys, "verify-catalog")
        assert code == 0
        assert "\n93 rows, 0 failures\n" in out

    def test_dump_json(self, tmp_path, capsys):
        path = tmp_path / "catalog.json"
        code, out, _ = run(capsys, "--json", "verify-catalog", "--dump", str(path))
        assert code == 0
        payload = json.loads(out)
        assert payload["wrote"] == len(json.loads(path.read_text())["examples"]) == 55
        assert payload["file"] == str(path)

    def test_dump_and_reverify(self, dumped_catalog, capsys):
        code, out, _ = run(capsys, "verify-catalog", str(dumped_catalog))
        assert code == 0
        assert "0 failures" in out

    def test_each_row_is_parsed_once(self, dumped_catalog, capsys, monkeypatch):
        from hermlie import catalog

        calls = []
        parse = catalog.parse_structure_equations
        monkeypatch.setattr(catalog, "parse_structure_equations",
                            lambda *a, **k: calls.append(a) or parse(*a, **k))
        code, _, _ = run(capsys, "verify-catalog", str(dumped_catalog))
        assert code == 0
        assert len(calls) == 55

    def test_mutated_example_fails(self, dumped_catalog, tmp_path, capsys):
        data = json.loads(dumped_catalog.read_text())
        victim = next(r for r in data["examples"] if r["algebra"] == "s6.25")
        victim["omega"] = "f15+f23-f46"
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        code, out, _ = run(capsys, "verify-catalog", str(bad))
        assert code == 1
        assert "FAIL" in out and "s6.25" in out

    def test_schema_error_exit_code(self, tmp_path, capsys):
        empty = tmp_path / "empty.json"
        empty.write_text("{}")
        code, _, err = run(capsys, "verify-catalog", str(empty))
        assert code == 2

    def test_unwritable_dump_exit_code(self, tmp_path, capsys):
        code, out, err = run(capsys, "verify-catalog", "--dump",
                             str(tmp_path / "missing" / "out.json"))
        assert code == 2
        assert err.startswith("error: cannot write catalog file") and out == ""

    @pytest.mark.parametrize("field,value", [
        ("omega", "f1"),
        ("j_matrix", [["0", "-1"], ["1", "0"]]),
        ("equations", "(f23, 0, 0, 0, 0)"),
        ("params", {"p": "1/0"}),
        ("conditions", ["frobnicated"]),
        ("equations", "(f34, 0, 0, 0, f12, 0)"),  # N = 0 but not a Lie algebra
        # powers too large to compute: refused before any is evaluated
        ("equations", "(2^8000000000f35, 0, 0, 0, 0, 0)"),
        ("omega", "(((2^64)^64)^64)^64f12"),
        # parentheses nested too deep to parse recursively
        ("equations", "(" + DEEP + "f35, 0, 0, 0, 0, 0)"),
        ("omega", DEEP + "f12+f34+f56"),
    ])
    def test_malformed_row_exit_code(self, dumped_catalog, tmp_path, capsys,
                                     field, value):
        data = json.loads(dumped_catalog.read_text())
        data["examples"][0][field] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        code, out, err = run(capsys, "verify-catalog", str(bad))
        assert code == 2
        assert err.startswith("error: bad example row 0") and "Traceback" not in err
        assert len(err.splitlines()) == 1

    def test_row_that_is_not_an_object(self, tmp_path, capsys):
        path = tmp_path / "rows.json"
        path.write_text(json.dumps({"examples": [1]}))
        code, out, err = run(capsys, "verify-catalog", str(path))
        assert code == 2
        assert err.startswith("error: bad example row 0") and "Traceback" not in err

    def test_json_output(self, dumped_catalog, capsys):
        code, out, _ = run(capsys, "--json", "verify-catalog",
                           str(dumped_catalog))
        assert code == 0
        payload = json.loads(out)
        assert payload["ok"] is True
        assert payload["manifest"]["command"] == "verify-catalog"


class TestCheck:
    def test_metric_report(self, tmp_path, capsys):
        spec = {"algebra": "s5.16+R",
                "j_images": {"1": "f2", "3": "f4", "5": "f6"},
                "omega": "f12+f34+f56"}
        path = tmp_path / "in.json"
        path.write_text(json.dumps(spec))
        code, out, _ = run(capsys, "--json", "check", str(path))
        assert code == 0
        payload = json.loads(out)
        assert payload["J_integrable"] in (True, False)

    def test_bad_file(self, tmp_path, capsys):
        path = tmp_path / "junk.json"
        path.write_text("not json")
        code, _, err = run(capsys, "check", str(path))
        assert code == 2

    @pytest.mark.parametrize("command", ["check", "verify-catalog"])
    def test_deeply_nested_file(self, tmp_path, capsys, command):
        # nested deeper than the JSON decoder can recurse
        path = tmp_path / "deep.json"
        path.write_text("[" * 100000 + "]" * 100000)
        code, out, err = run(capsys, command, str(path))
        assert code == 2 and out == ""
        assert err.startswith("error: cannot read ") and len(err.splitlines()) == 1

    def test_missing_keys(self, tmp_path, capsys):
        path = tmp_path / "in.json"
        path.write_text(json.dumps({"omega": "f12"}))
        code, _, err = run(capsys, "check", str(path))
        assert code == 2
        assert "bad input schema" in err


    @pytest.mark.parametrize("spec", [
        {"algebra": "s3.3^0+R3", "j_images": {"1": "f2", "3": "f4", "5": "f6"},
         "omega": "f1"},
        {"algebra": "s3.3^0+R3", "j_images": {"1": "f2", "3": "f4", "5": "f6"},
         "omega": "f123"},
        {"algebra": "s3.3^0+R3", "j_images": {"1": "f2", "3": "f4", "5": "f6"},
         "omega": "f12+"},
        {"algebra": "s3.3^0+R3", "j_matrix": [["0", "-1"], ["1", "0"]]},
        {"algebra": "s3.3^0+R3", "params": {"p": "1/0"},
         "j_images": {"1": "f2", "3": "f4", "5": "f6"}},
        {"algebra": "s3.3^0+R3"},
        {"algebra": "s3.3^0+R3", "j_images": {"9": "f2", "3": "f4", "5": "f6"}},
        {"algebra": "s5.16+R", "params": [1],
         "j_images": {"1": "f2", "3": "f4", "5": "f6"}},
        {"algebra": "s5.16+R", "j_images": ["f2"]},
        ["s5.16+R"],
        {"algebra": "nope", "equations": "(0, 0, 0, 0, 0, 0)",
         "j_images": {"1": "f2", "3": "f4", "5": "f6"}},
        {"algebra": "s3.3^0+R3", "equations": "(f34, 0, 0, 0, f12, 0)",
         "j_images": {"1": "f2", "3": "f4", "5": "f6"}, "omega": "f12+f34+f56"},
    ])
    def test_malformed_input(self, tmp_path, capsys, spec):
        path = tmp_path / "in.json"
        path.write_text(json.dumps(spec))
        code, out, err = run(capsys, "check", str(path))
        assert code == 2
        assert err.startswith("error: ") and "Traceback" not in err
        assert out == ""


class TestSearch:
    def test_complex_search_json(self, capsys):
        code, out, _ = run(capsys, "--seed", "0", "--json", "search",
                           "s6.145^0", "--restarts", "5")
        assert code == 0
        payload = json.loads(out)
        assert payload["status"] == "found"
        assert payload["exact_J"] is not None

    def test_metric_search(self, capsys):
        code, out, _ = run(capsys, "--json", "search", "s5.16+R",
                           "--condition", "balanced", "--restarts", "3")
        assert code == 0
        payload = json.loads(out)
        assert payload["status"] == "found"

    def test_float_only_json(self, capsys):
        code, out, _ = run(capsys, "--seed", "0", "--json", "search", "s6.25")
        assert code == 0
        payload = json.loads(out)
        assert payload["status"] == "float-only"
        assert payload["exact_J"] is None

    def test_unknown_condition(self, capsys):
        code, _, err = run(capsys, "search", "s6.25",
                           "--condition", "frobnicated")
        assert code == 2

    def test_unknown_algebra(self, capsys):
        code, _, err = run(capsys, "search", "nope")
        assert code == 2

    @pytest.mark.parametrize("argv", [
        ("search", "s6.25", "--restarts", "0"),
        ("search", "s6.25", "--tol", "0"),
        ("search", "s6.25", "--tol", "nan"),
        ("search", "s6.25", "--tol", "inf"),
        ("search", "s6.25", "--max-iters", "-3"),
        ("report-table", "--restarts", "0"),
        ("report-table", "--max-iters", "-1"),
        ("--seed", "-1", "search", "s6.25"),
        ("--seed", "-1", "report-table"),
    ])
    def test_bad_search_options(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert err.startswith("error: ") and "Traceback" not in err
        assert out == ""

    def test_negative_seed_from_the_environment(self, capsys, monkeypatch):
        monkeypatch.setenv("HERMLIE_SEED", "-3")
        code, out, err = run(capsys, "search", "s6.25")
        assert code == 2
        assert err.startswith("error: ") and "Traceback" not in err
        assert out == ""

    def test_malformed_seed_from_the_environment(self, capsys, monkeypatch):
        # not silently seed 0: an input error, like a negative seed
        monkeypatch.setenv("HERMLIE_SEED", "abc")
        code, out, err = run(capsys, "search", "s6.25")
        assert code == 2
        assert err == "error: HERMLIE_SEED must be an integer, not 'abc'\n"
        assert out == ""


class TestObstruction:
    def test_tampered_step_fails_without_traceback(self, capsys, tampered_lcskt_row):
        code, out, err = run(capsys, "obstruction", "s6.162^1", "lcskt")
        assert code == 1
        assert "FAILED" in out and "replayed exactly" not in out
        assert f"step {tampered_lcskt_row!r}" in out
        assert "Traceback" not in out + err
        code, out, _ = run(capsys, "--json", "obstruction", "s6.162^1", "lcskt")
        assert code == 1
        payload = json.loads(out)
        assert payload["ok"] is False
        assert [r["ok"] for r in payload["rows"]] == [False]

    def test_replay(self, capsys):
        code, out, _ = run(capsys, "obstruction", "s6.145^0",
                           "first_gauduchon")
        assert code == 0
        assert "replayed exactly" in out

    def test_no_rows(self, capsys):
        code, out, _ = run(capsys, "obstruction", "s6.25", "balanced")
        assert code == 1

    def test_no_rows_json(self, capsys):
        code, out, _ = run(capsys, "--json", "obstruction", "s6.25", "balanced")
        assert code == 1
        payload = json.loads(out)
        assert payload["rows"] == [] and payload["ok"] is False
        assert payload["manifest"]["command"] == "obstruction"

    @pytest.mark.parametrize("algebra,expected", [
        # both claim SKT: their lcskt rows only force mu = 0
        ("s4.7+R2", 1),
        ("s6.52^0,q", 1),
        ("s6.162^1", 0),
    ])
    def test_skt_lists_only_rows_that_rule_it_out(self, capsys, algebra, expected):
        code, out, _ = run(capsys, "obstruction", algebra, "skt")
        assert code == expected
        assert ("replayed exactly" in out) == (expected == 0)

    @pytest.mark.parametrize("argv", [
        ("obstruction", "nope", "kahler"),
        ("obstruction", "s6.145^0", "frobnicated"),
    ])
    def test_unknown_input(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert err.startswith("error: ") and "Traceback" not in err
        assert out == ""


class TestLatticeProbe:
    def test_builtin(self, capsys):
        code, out, _ = run(capsys, "--json", "lattice-probe", "s6.147^0")
        assert code == 0
        payload = json.loads(out)
        assert payload["status"] == "integral"

    def test_custom_not_integral(self, capsys):
        code, out, _ = run(capsys, "--json", "lattice-probe", "s6.154^0",
                           "--X", "f6", "--t", "1")
        assert code == 0
        payload = json.loads(out)
        assert payload["status"] != "integral"

    def test_no_builtin_and_no_args(self, capsys):
        code, _, err = run(capsys, "lattice-probe", "s6.25")
        assert code == 2

    @pytest.mark.parametrize("x,t", [
        ("f6+1", "1"),
        ("f7", "1"),
        ("2**f1", "1"),
        ("f6", "x"),
        ("f6", "1/0"),
        ("f6", "2**2"),
        ("2^8000000000f6", "1"),
        ("f6", "(((2^64)^64)^64)^64"),
        ("f6", DEEP),
        (DEEP + "f6", "1"),
        ("f6", "10^400"),
        ("10^400f6", "1"),
        ("f6", "10^300"),
        ("", "1"),
        ("f6", None),
        (None, "1"),
    ])
    def test_bad_input(self, capsys, x, t):
        argv = ["lattice-probe", "s6.154^0"]
        argv += ["--X", x] if x is not None else []
        argv += ["--t", t] if t is not None else []
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert err.startswith("error: ") and "Traceback" not in err
        assert len(err.splitlines()) == 1
        assert out == ""

    @pytest.mark.parametrize("argv", [
        ("s6.154^0", "--tol", "nan"),
        ("s6.154^0", "--tol", "-1"),
        ("s6.154^0", "--tol", "0"),
        ("s6.154^0", "--tol", "inf"),
        ("nope",),
    ])
    def test_bad_options(self, capsys, argv):
        code, out, err = run(capsys, "lattice-probe", *argv, "--X", "f6", "--t", "2pi")
        assert code == 2
        assert err.startswith("error: ") and "Traceback" not in err
        assert out == ""

    def test_input_is_not_evaluated(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        code, _, err = run(capsys, "lattice-probe", "s6.154^0", "--X",
                           "__import__('pathlib').Path('MARK').touch()", "--t", "1")
        assert code == 2
        assert err.startswith("error: ")
        assert list(tmp_path.iterdir()) == []

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.text("0123456789fpi+-*/() ", max_size=20),
           st.text("0123456789fpi+-*/() ", max_size=20))
    def test_any_text_exits_0_or_2(self, x, t):
        assert main(["--json", "lattice-probe", "s6.154^0", f"--X={x}", f"--t={t}"]) in (0, 2)


# random JSON, and a valid row with one field replaced by a near-miss or by
# random JSON
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6)
_ONE_FORMS = st.sampled_from(["f2", "-f1", "f4", "-f3", "f6", "-f5", "f12", "2p f3", ""])
_FIELDS = {
    "algebra": st.sampled_from(["s3.3^0+R3", "s6.25", "nope"]) | _JSON,
    "equations": st.sampled_from(["(f16, 0, 0, 0, 0, 0)", "(0, 0)"]) | _JSON,
    "params": st.dictionaries(st.sampled_from("pqx"),
                              st.sampled_from(["1", "1/0", "-2"]) | _JSON) | _JSON,
    "j_images": st.dictionaries(st.sampled_from(["1", "3", "5", "9", "x"]),
                                _ONE_FORMS | _JSON) | _JSON,
    "j_matrix": _JSON,
    "omega": st.sampled_from(["f13+f24+f56", "f12", "f1"]) | _JSON,
    "mu": _ONE_FORMS | _JSON,
    "conditions": st.lists(st.sampled_from(["kahler", "skt", "nope"])) | _JSON,
}
_VALID = {"algebra": "s5.16+R", "j_images": {"1": "f2", "3": "f4", "5": "f6"},
          "omega": "f12+f34+f56", "conditions": ["balanced"]}
_ROWS = _JSON | st.sampled_from(sorted(_FIELDS)).flatmap(
    lambda key: _FIELDS[key].map(lambda value: {**_VALID, key: value}))


class TestFuzzedInput:
    """Any JSON as ``check`` input or as a ``verify-catalog FILE`` row exits
    0, 1 or 2 without a traceback."""

    @staticmethod
    def _run_on_file(payload, *argv):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "in.json"
            path.write_text(json.dumps(payload))
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main([*argv, str(path)])
        assert code in (0, 1, 2)
        assert "Traceback" not in err.getvalue()

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(_ROWS)
    def test_check(self, row):
        self._run_on_file(row, "check")

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(_ROWS)
    def test_verify_catalog_row(self, row):
        self._run_on_file({"examples": [row]}, "verify-catalog")


# search and obstruction arguments: a valid command line, some options left
# out, with at most one value replaced by a near miss or by random text;
# restarts and iterations stay small so that each example is cheap
_NAMES = [e.name for e in list_entries(include_controls=True)]
_CONDITIONS = ["complex", "kahler", "skt", "balanced", "lck", "lcskt", "lcb",
               "first_gauduchon", "strongly_gauduchon", "tamed"]
_NUMBERS = st.sampled_from(["x", "", "1.5", "nan", "inf", "-inf", "1e-300"])
_GOOD = {
    "algebra": st.sampled_from(_NAMES),
    "--condition": st.sampled_from(_CONDITIONS),
    "--seed": st.integers(0, 2 ** 40).map(str),
    "--restarts": st.integers(1, 3).map(str),
    "--max-iters": st.integers(0, 5).map(str),
    "--tol": st.sampled_from(["1e-10", "1e-4", "0.5", "1e300"]),
}
_BAD = {
    "algebra": st.sampled_from(["nope", "", "-x", "S6.25"]) | st.text(max_size=6),
    "--condition": st.sampled_from(["nope", "Kahler", ""]) | st.text(max_size=6),
    "--seed": _NUMBERS | st.text(max_size=4) | st.integers(-2 ** 40, -1).map(str),
    "--restarts": st.integers(-2, 0).map(str) | _NUMBERS,
    "--max-iters": st.integers(-2, -1).map(str) | _NUMBERS,
    "--tol": st.floats().map(str) | _NUMBERS,
}


def _fuzzed(keys, optional=()):
    """Values for ``keys``: all valid in about half the examples, else one
    replaced by a bad value; the ``optional`` ones may be left out."""
    return st.tuples(
        st.fixed_dictionaries({k: _GOOD[k] for k in keys}),
        st.sampled_from([None] * len(keys) + list(keys)).flatmap(
            lambda k: st.just({}) if k is None else _BAD[k].map(lambda v: {k: v})),
        st.sets(st.sampled_from(optional)) if optional else st.just(set()),
        st.booleans(),
    ).map(lambda t: ({**t[0], **t[1]}, t[2], t[3]))


def _search_argv(fuzzed):
    values, dropped, as_json = fuzzed
    options = [x for k in ("--condition", "--restarts", "--max-iters", "--tol")
               if k not in dropped for x in (k, values[k])]
    seed = [] if "--seed" in dropped else ["--seed", values["--seed"]]
    return [*seed, *(["--json"] if as_json else []), "search", values["algebra"], *options]


def _obstruction_argv(fuzzed):
    values, _, as_json = fuzzed
    return [*(["--json"] if as_json else []), "obstruction", values["algebra"],
            values["--condition"]]


class TestFuzzedArguments:
    """Any ``search`` or ``obstruction`` arguments exit 0, 1 or 2 without a
    traceback; argparse reports its own errors by raising ``SystemExit``."""

    @staticmethod
    def _exit_code(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
        assert code in (0, 1, 2), argv
        assert "Traceback" not in err.getvalue(), argv
        return code, out.getvalue()

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(_fuzzed(["algebra", "--condition", "--seed", "--restarts", "--max-iters",
                     "--tol"], optional=["--condition", "--seed", "--tol"]).map(_search_argv))
    def test_search(self, argv):
        self._exit_code(argv)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(_fuzzed(["algebra", "--condition"]).map(_obstruction_argv))
    def test_obstruction(self, argv):
        code, out = self._exit_code(argv)
        if "--json" in argv and code in (0, 1):
            assert isinstance(json.loads(out)["ok"], bool), argv


# one invocation of each command, with its exit code; {name} fields are
# filled from the contract_inputs fixture
_CONTRACT = {
    "verify-catalog --dump": (["verify-catalog", "--dump", "{dump}"], 0),
    "verify-catalog FILE": (["verify-catalog", "{two_rows}"], 0),
    "check": (["check", "{check}"], 0),
    "search": (["search", "s6.145^0", "--restarts", "1"], 0),
    "obstruction": (["obstruction", "s6.145^0", "first_gauduchon"], 0),
    "obstruction no rows": (["obstruction", "s6.25", "balanced"], 1),
    "lattice-probe": (["lattice-probe", "s6.147^0"], 0),
    "report-table": (["report-table", "--restarts", "1", "--max-iters", "5"], 0),
}


@pytest.fixture()
def contract_inputs(dumped_catalog, tmp_path):
    two_rows = tmp_path / "two.json"
    examples = json.loads(dumped_catalog.read_text())["examples"]
    two_rows.write_text(json.dumps({"examples": examples[:2]}))
    check = tmp_path / "check.json"
    check.write_text(json.dumps({"algebra": "s5.16+R",
                                 "j_images": {"1": "f2", "3": "f4", "5": "f6"},
                                 "omega": "f12+f34+f56"}))
    return {"dump": str(tmp_path / "out.json"), "two_rows": str(two_rows),
            "check": str(check)}


class TestOutputContract:
    """Every command reports through its manifest: under ``--json`` one JSON
    object whose manifest names the command, otherwise a header line first
    and the wall-time footer last.  ``report-table --csv`` alone is bare."""

    @pytest.mark.parametrize("as_json", [True, False], ids=["json", "text"])
    @pytest.mark.parametrize("argv,expected", _CONTRACT.values(), ids=_CONTRACT.keys())
    def test_every_command(self, capsys, contract_inputs, argv, expected, as_json):
        argv = [a.format(**contract_inputs) for a in argv]
        code, out, _ = run(capsys, *(["--json"] if as_json else []), *argv)
        assert code == expected
        if as_json:
            assert json.loads(out)["manifest"]["command"] == argv[0]
        else:
            assert out.startswith(f"# hermlie {argv[0]} | ")
            assert out.splitlines()[-1].startswith("# wall_time_s=")

    def test_csv_is_bare(self, capsys):
        code, out, _ = run(capsys, "report-table", "--csv",
                           "--restarts", "1", "--max-iters", "5")
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("algebra,") and len(lines) == 35
        assert not any(line.startswith("#") for line in lines)


class TestReportTable:
    def test_csv_grid(self, capsys):
        code, out, _ = run(capsys, "report-table", "--csv",
                           "--restarts", "2", "--max-iters", "25")
        assert code == 0
        rows = list(csv.reader(l for l in out.splitlines() if l and not l.startswith("#")))
        header = rows[0]
        assert header[0] == "algebra" and len(header) == 9
        assert "skt" in header and "strongly_gauduchon" in header
        # 34 catalog rows follow the header, each with the algebra name first
        assert [r[0] for r in rows[1:]] == [e.name for e in list_entries()]
        assert all(len(r) == 9 for r in rows[1:])

    def test_manifest_header_present(self, capsys):
        code, out, _ = run(capsys, "--seed", "3", "obstruction",
                           "s6.162^1", "skt")
        assert code == 0
        assert out.startswith("# hermlie obstruction")
        assert "seed=3" in out
