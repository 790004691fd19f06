import io
import json
import math
import time
import warnings
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsegre.cli import main

SQ2 = 1.0 / math.sqrt(2.0)


def write_state(path, dims, amps):
    path.write_text(json.dumps({"dims": dims, "amps": amps}))
    return str(path)


@pytest.fixture
def bell_file(tmp_path):
    return write_state(tmp_path / "bell.json", [2, 2], [[1, 0], [0, 0], [0, 0], [1, 0]])


@pytest.fixture
def ghz_file(tmp_path):
    amps = [[1, 0]] + [[0, 0]] * 6 + [[1, 0]]
    return write_state(tmp_path / "ghz.json", [2, 2, 2], amps)


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_concurrence_bell(capsys, bell_file):
    code, out, _ = run(capsys, ["concurrence", "--state", bell_file])
    assert code == 0
    assert out == '{"value":1.0}\n'


def test_segre_ideal_two_qubits(capsys):
    code, out, err = run(capsys, ["segre-ideal", "--dims", "2,2"])
    assert code == 0
    assert out == "a[00]*a[11] - a[01]*a[10]\n"
    assert err == "1 generators\n"  # count goes to stderr, lines stay clean


def test_pluecker_relations_klein(capsys):
    code, out, _ = run(capsys, ["pluecker-relations", "--k", "2", "--n", "4"])
    assert code == 0
    assert out == "P[1,2]*P[3,4] - P[1,3]*P[2,4] + P[1,4]*P[2,3]\n"


def test_gen_concurrence_report(capsys, ghz_file):
    code, out, _ = run(capsys, ["gen-concurrence", "--state", ghz_file])
    assert code == 0
    obj = json.loads(out)
    assert obj["value"] == pytest.approx(1.0, abs=1e-12)
    assert [e["left"] for e in obj["per_bipartition"]] == [[1], [1, 2], [1, 3]]
    assert all(e["term"] == pytest.approx(0.25) for e in obj["per_bipartition"])


def test_pluecker_measure_pivot(capsys, ghz_file):
    code, out, _ = run(capsys, ["pluecker-measure", "--state", ghz_file, "--pivot", "2"])
    assert code == 0
    assert json.loads(out)["value"] == pytest.approx(1.0, abs=1e-12)


def test_check_separable_full_and_partition(capsys, bell_file, tmp_path):
    code, out, _ = run(capsys, ["check-separable", "--state", bell_file])
    assert code == 0
    assert json.loads(out)["separable"] is False

    prod = write_state(tmp_path / "p.json", [2, 2], [[0.6, 0], [0.8, 0], [0, 0], [0, 0]])
    code, out, _ = run(capsys, ["check-separable", "--state", prod])
    assert code == 0
    assert json.loads(out)["separable"] is True

    code, out, _ = run(capsys, ["check-separable", "--state", bell_file, "--partition", "1"])
    assert code == 0
    obj = json.loads(out)
    assert obj["separable"] is False and obj["left"] == [1]


def test_segre_map_and_factor_round_trip(capsys, tmp_path):
    factors = {"factors": [[["2", "0"], ["1", "0"]], [["1", "0"], ["0", "3"]]]}
    fpath = tmp_path / "factors.json"
    fpath.write_text(json.dumps(factors))
    code, out, _ = run(capsys, ["segre-map", "--factors", str(fpath), "--exact"])
    assert code == 0
    state = json.loads(out)
    assert state["dims"] == [2, 2]
    assert state["amps"] == [["2", "0"], ["0", "6"], ["1", "0"], ["0", "3"]]

    spath = tmp_path / "state.json"
    spath.write_text(out)
    code, out, _ = run(capsys, ["factor", "--state", str(spath), "--exact"])
    assert code == 0
    got = json.loads(out)["factors"]
    assert len(got) == 2
    # factors come back pivot-scaled; proportional to (2:1) and (1:3i)
    from fractions import Fraction

    f0 = [(Fraction(re), Fraction(im)) for re, im in got[0]]
    assert f0[0][0] * Fraction(1, 2) == f0[1][0]


def test_factor_rejects_entangled(capsys, bell_file):
    code, out, err = run(capsys, ["factor", "--state", bell_file])
    assert code == 1
    assert out == ""
    assert "error" in err


def test_exit_code_2_on_malformed(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"dims":[2,2],"amps":[[1,0],[0,0],[0,0]]}')
    code, _, err = run(capsys, ["concurrence", "--state", str(bad)])
    assert code == 2
    assert "amps" in err

    notjson = tmp_path / "nj.json"
    notjson.write_text("{nope")
    code, _, err = run(capsys, ["concurrence", "--state", str(notjson)])
    assert code == 2
    assert "invalid JSON" in err

    code, _, err = run(capsys, ["concurrence", "--state", str(tmp_path / "missing.json")])
    assert code == 2

    code, _, err = run(capsys, ["segre-ideal", "--dims", "2,x"])
    assert code == 2
    assert "--dims" in err

    # exponent strings would make Fraction build a multi-megabit denominator
    huge = write_state(tmp_path / "exp.json", [2, 2], [["1e-1000000", 0], [0, 0], [0, 0], [1, 0]])
    code, _, err = run(capsys, ["concurrence", "--state", huge])
    assert code == 2
    assert "amps[0][0]" in err
    fpath = tmp_path / "exp_factors.json"
    fpath.write_text(json.dumps({"factors": [[[1, 0], [0, "1E-1000000"]], [[1, 0], [1, 0]]]}))
    code, _, err = run(capsys, ["segre-map", "--factors", str(fpath)])
    assert code == 2
    assert "factors[0][1][1]" in err


def test_exit_code_2_on_wrong_shape(capsys, ghz_file):
    code, _, err = run(capsys, ["concurrence", "--state", ghz_file])
    assert code == 2
    assert "dims" in err


def test_exact_flag_rejects_floats(capsys, tmp_path):
    s = write_state(tmp_path / "f.json", [2, 2], [[0.5, 0], [0, 0], [0, 0], [0.5, 0]])
    code, _, err = run(capsys, ["concurrence", "--state", s, "--exact"])
    assert code == 2
    assert "exact" in err


def test_caps_reported(capsys):
    for command, count in [
        (["segre-ideal", "--dims", ",".join(["2"] * 10)], 7_296_256),
        (["segre-ideal", "--dims", ",".join(["4"] * 6)], 56_042_496),
        (["segre-ideal", "--dims", ",".join(["2"] * 12)], 267_904_000),
        (["segre-ideal", "--dims", ",".join(["2"] * 13)], 8192),
        (["pluecker-relations", "--k", "4", "--n", "20"], 88_372_800),
        (["pluecker-relations", "--k", "2", "--n", "100"], 48_510_000),
        (["pluecker-relations", "--k", "6", "--n", "14"], 48_096_048),
        (["pluecker-relations", "--k", "3", "--n", "50"], 1_128_470_000),
    ]:
        start = time.perf_counter()
        code, out, err = run(capsys, command)
        assert time.perf_counter() - start < 1.0
        assert code == 2 and out == ""
        assert str(count) in err and "cap" in err


def assert_one_error_line(err):
    assert err.startswith("error: ") and err.count("\n") == 1 and len(err) <= 300


def test_unknown_flag_exits_2(capsys, bell_file):
    code, out, err = run(capsys, ["concurrence", "--state", bell_file, "--bogus"])
    assert (code, out) == (2, "")
    assert_one_error_line(err)
    assert "--bogus" in err


def test_byte_identical_output(capsys, ghz_file):
    outputs = set()
    for _ in range(3):
        code, out, _ = run(capsys, ["gen-concurrence", "--state", ghz_file])
        assert code == 0
        outputs.add(out)
    assert len(outputs) == 1
    outputs = set()
    for _ in range(2):
        _, out, _ = run(capsys, ["segre-ideal", "--dims", "2,2,2"])
        outputs.add(out)
    assert len(outputs) == 1


@pytest.mark.parametrize("tol", ["-1", "nan", "inf"])
def test_check_separable_rejects_bad_tol(capsys, bell_file, tol):
    for extra in ([], ["--partition", "1"]):
        code, out, err = run(capsys, ["check-separable", "--state", bell_file, "--tol", tol, *extra])
        assert code == 2
        assert out == ""
        assert "tol" in err


def test_factor_rejects_bad_tol(capsys, tmp_path):
    product = write_state(tmp_path / "p.json", [2, 2], [[1, 0], [0, 0], [0, 0], [0, 0]])
    for tol in ("nan", "-1"):
        for extra in ([], ["--exact"]):
            code, out, err = run(capsys, ["factor", "--state", product, "--tol", tol, *extra])
            assert code == 2
            assert out == ""
            assert "tol" in err


@pytest.mark.parametrize("scale", [1e200, 1e-200, 1e-310, 5e-324])
def test_gen_concurrence_extreme_scale(capsys, tmp_path, scale):
    s = write_state(tmp_path / "s.json", [2, 2], [[scale, 0], [0, 0], [0, 0], [scale, 0]])
    code, out, _ = run(capsys, ["gen-concurrence", "--state", s])
    assert code == 0
    assert json.loads(out)["value"] == pytest.approx(1.0, abs=1e-12)
    code, out, _ = run(capsys, ["factor", "--state", s])
    assert code == 1
    assert out == ""


def test_factor_exact_amplitude_beyond_float_range(capsys, tmp_path):
    s = write_state(tmp_path / "s.json", [2], [[str(10**400), 0], [1, 0]])
    code, out, err = run(capsys, ["factor", "--state", s])
    assert code == 0
    assert "Traceback" not in err
    assert json.loads(out) == {"factors": [[[1.0, 0.0], [0.0, 0.0]]]}


def test_factors_file_errors_name_the_field(capsys, tmp_path):
    fpath = tmp_path / "factors.json"
    fpath.write_text(json.dumps({"factors": [[[1, 0], [0, 0]], [[1, 0], ["x", 0]]]}))
    code, _, err = run(capsys, ["segre-map", "--factors", str(fpath)])
    assert code == 2
    assert "factors[1][1][0]" in err
    fpath.write_text(json.dumps({"factors": [[[1, 0], [0.5, 0]], [[1, 0], [0, 0]]]}))
    code, _, err = run(capsys, ["segre-map", "--factors", str(fpath), "--exact"])
    assert code == 2
    assert "factors[0][1][0]" in err
    # a zero factor is refused by the local vector's constructor, and the message names the factor
    fpath.write_text(json.dumps({"factors": [[[1, 0], [0, 1]], [[0, 0], [0.0, 0]]]}))
    code, out, err = run(capsys, ["segre-map", "--factors", str(fpath)])
    assert_clean_exit_2(code, out, err)
    assert err == "error: factors[1]: all amplitudes are zero\n"


STATE_COMMANDS = [["check-separable"], ["concurrence"], ["gen-concurrence"], ["pluecker-measure"], ["factor"]]


@pytest.mark.parametrize("command", STATE_COMMANDS)
def test_state_commands_cap_amplitudes(capsys, tmp_path, command):
    big = write_state(tmp_path / "big.json", [2] * 13, [[1, 0]] + [[0, 0]] * (2**13 - 1))
    code, out, err = run(capsys, [*command, "--state", big])
    assert code == 2
    assert out == ""
    assert "prod(dims) = 8192 exceeds cap 4096" in err
    assert "Traceback" not in err


def test_state_commands_accept_amplitudes_at_cap(capsys, tmp_path):
    # a basis state of 12 qubits has 2^12 = MAX_AMPS amplitudes
    s = write_state(tmp_path / "s.json", [2] * 12, [[1, 0]] + [[0, 0]] * (2**12 - 1))
    for command in (["pluecker-measure"], ["factor", "--exact"], ["check-separable", "--partition", "1"]):
        code, out, err = run(capsys, [*command, "--state", s])
        assert code == 0, err
        assert out
    # the cap is a constant: no flag raises it
    code, out, err = run(capsys, ["pluecker-measure", "--state", s, "--max-amps", "8192"])
    assert (code, out) == (2, "")
    assert_one_error_line(err)


def write_factors(path, count):
    path.write_text(json.dumps({"factors": [[[1, 0], [0, 0]]] * count}))
    return str(path)


N_4001_DIGITS = str(10**4000)


# each count is far too large to print (str() refuses ints of over 4300 digits);
# the running product, or for relations the N > 2048 bound, stops at the cap first
@pytest.mark.parametrize("command", [
    lambda tmp: ["concurrence", "--state", write_state(tmp / "s.json", [2] * 15000, [[1, 0]])],
    lambda tmp: ["concurrence", "--state", write_state(tmp / "s.json", [2] * 300_000, [[1, 0]])],
    lambda tmp: ["segre-map", "--factors", write_factors(tmp / "f.json", 15000)],
    lambda tmp: ["segre-ideal", "--dims", ",".join(["2"] * 15000)],
    lambda tmp: ["segre-ideal", "--dims", f"{N_4001_DIGITS},{N_4001_DIGITS}"],
    lambda tmp: ["pluecker-relations", "--k", "2", "--n", N_4001_DIGITS],
    lambda tmp: ["pluecker-relations", "--k", "2000", "--n", N_4001_DIGITS],
], ids=["state-2^15000", "state-2^300000", "factors-15000", "dims-2^15000", "dims-4001-digits", "G(2,4001-digit N)",
        "G(2000,4001-digit N)"])
def test_oversized_counts_exit_2_at_once(capsys, tmp_path, command):
    argv = command(tmp_path)
    start = time.perf_counter()
    code, out, err = run(capsys, argv)
    assert time.perf_counter() - start < 1.0
    assert_clean_exit_2(code, out, err)
    assert "cap" in err


def test_json_int_too_long_to_parse_exits_2(capsys, tmp_path):
    path = tmp_path / "s.json"
    path.write_text('{"dims": [' + "1" * 5000 + ', 2], "amps": []}')
    code, out, err = run(capsys, ["concurrence", "--state", str(path)])
    assert_clean_exit_2(code, out, err)
    assert "digit limit" in err


def test_undecodable_or_deeply_nested_json_exits_2(capsys, tmp_path):
    path = tmp_path / "s.json"
    for data, message in ((b"\xff\xfe", "not UTF-8 text"), (b"[" * 100_000, "nested too deeply"),
                          (b'{"a":' * 100_000, "nested too deeply")):
        path.write_bytes(data)
        for command in (["concurrence", "--state"], ["segre-map", "--factors"]):
            code, out, err = run(capsys, [*command, str(path)])
            assert_clean_exit_2(code, out, err)
            assert message in err and len(err) < 200


def test_empty_relation_family_has_no_cap(capsys):
    for k in ("1", "19999"):
        code, out, err = run(capsys, ["pluecker-relations", "--k", k, "--n", "20000"])
        assert (code, out, err) == (0, "", "")


def test_segre_map_caps_amplitudes(capsys, tmp_path):
    fpath = tmp_path / "factors.json"
    fpath.write_text(json.dumps({"factors": [[[1, 0], [0, 0]]] * 13}))
    code, out, err = run(capsys, ["segre-map", "--factors", str(fpath)])
    assert_clean_exit_2(code, out, err)
    assert "8192 exceeds cap 4096" in err
    # the cap is checked before any amplitude is parsed
    fpath.write_text(json.dumps({"factors": [[[1, 0], [0, 0]]] * 2 + [[["x", 0]] * 3000] * 2}))
    code, out, err = run(capsys, ["segre-map", "--factors", str(fpath)])
    assert_clean_exit_2(code, out, err)
    assert "exceeds cap" in err
    fpath.write_text(json.dumps({"factors": [[[1, 0], [0, 0]]] * 12}))
    code, out, err = run(capsys, ["segre-map", "--factors", str(fpath)])
    assert code == 0, err
    assert json.loads(out)["dims"] == [2] * 12


def assert_clean_exit_2(code, out, err):
    assert code == 2
    assert out == ""
    assert "Traceback" not in err and "Warning" not in err


def test_segre_map_overflowing_product_exits_2(capsys, tmp_path):
    fpath = tmp_path / "factors.json"
    fpath.write_text(json.dumps({"factors": [[[1e308, 0], [1e308, 0]], [[1e308, 0], [1e308, 0]]]}))
    code, out, err = run(capsys, ["segre-map", "--factors", str(fpath)])
    assert_clean_exit_2(code, out, err)
    assert "not finite" in err


def test_segre_map_mixed_factor_beyond_float_range_exits_2(capsys, tmp_path):
    fpath = tmp_path / "factors.json"
    fpath.write_text(json.dumps({"factors": [[[str(10**400), 0], [1, 0]], [[0.5, 0], [1, 0]]]}))
    code, out, err = run(capsys, ["segre-map", "--factors", str(fpath)])
    assert_clean_exit_2(code, out, err)
    assert "factors[0][0]" in err


def test_state_mixing_float_and_huge_exact_component_exits_2(capsys, tmp_path):
    s = write_state(tmp_path / "s.json", [2, 2], [[0.5, 0], [str(10**400), 0], [0, 0], [1, 0]])
    code, out, err = run(capsys, ["concurrence", "--state", s])
    assert_clean_exit_2(code, out, err)
    assert "amps[1]" in err
    # one pair mixing a huge exact component with a float
    s = write_state(tmp_path / "s.json", [2, 2], [[1, 0], [0, 0], [str(10**400), 0.5], [1, 0]])
    for command in STATE_COMMANDS:
        code, out, err = run(capsys, [*command, "--state", s])
        assert_clean_exit_2(code, out, err)
        assert "amps[2]" in err


def test_check_separable_and_factor_agree_near_threshold(capsys, tmp_path):
    # a00 = 1 and a11 = 5e-10: the split term 2.5e-19 exceeds tol^2 = 1e-20,
    # though a max-abs residual rule at 10 tol would accept the state as |00>
    for eps in (5e-10, "1/2000000000"):
        s = write_state(tmp_path / "s.json", [2, 2], [[1, 0], [0, 0], [0, 0], [eps, 0]])
        code, out, _ = run(capsys, ["check-separable", "--state", s])
        assert code == 0
        assert json.loads(out)["separable"] is False
        code, out, err = run(capsys, ["factor", "--state", s])
        assert code == 1
        assert out == ""
        assert "not fully separable" in err


# ------------------------------------------------------------------ CLI fuzz

HUGE = 10**400
components = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 1.0, 0.5, -1e308, 1.7976931348623157e308, 1e-310, 5e-324, -5e-324]),
    st.integers(-9, 9),
    st.sampled_from([HUGE, -HUGE, str(HUGE), f"1/{HUGE}", f"-{HUGE}/7"]),
    st.builds("{}/{}".format, st.integers(-(10**30), 10**30), st.integers(1, 10**30)),
)
pairs = st.lists(components, min_size=2, max_size=2)
states = (
    st.lists(st.integers(2, 4), min_size=1, max_size=4)
    .filter(lambda dims: math.prod(dims) <= 16)
    .flatmap(lambda dims: st.fixed_dictionaries(
        {"dims": st.just(dims), "amps": st.lists(pairs, min_size=math.prod(dims), max_size=math.prod(dims))}
    ))
)
factor_files = st.fixed_dictionaries(
    {"factors": st.lists(st.lists(pairs, min_size=2, max_size=4), min_size=2, max_size=3)}
)
FUZZ_ARGV = [
    ["check-separable"], ["check-separable", "--partition", "1"], ["check-separable", "--tol", "0"],
    ["concurrence"], ["gen-concurrence"], ["gen-concurrence", "--exact"], ["pluecker-measure"],
    ["factor"], ["factor", "--tol", "0"], ["factor", "--exact"],
]


def reject_constant(name):
    raise ValueError(f"stdout holds {name}")


@settings(max_examples=150, deadline=None)
@given(
    st.one_of(
        st.tuples(states, st.sampled_from(FUZZ_ARGV), st.just("--state")),
        st.tuples(factor_files, st.sampled_from([["segre-map"], ["segre-map", "--exact"]]), st.just("--factors")),
    )
)
def test_cli_fuzz_exits_cleanly(tmp_path_factory, case):
    doc, argv, option = case
    path = tmp_path_factory.getbasetemp() / "fuzz.json"
    path.write_text(json.dumps(doc))
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), redirect_stdout(out), redirect_stderr(err):
        warnings.simplefilter("error")
        code = main([*argv, option, str(path)])
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    lines = out.getvalue().splitlines()
    if code:
        assert lines == []
    else:
        assert len(lines) == 1
        json.loads(lines[0], parse_constant=reject_constant)


# ------------------------------------------------------------------ argv fuzz

def no_flag(text):
    return not text.startswith("-")  # a drawn value never spells -h or --help


def mostly(good, bad):
    """``good`` about seven times in eight, else ``bad``, so many argvs reach the command."""
    return st.integers(0, 7).flatmap(lambda i: bad if i == 7 else good)


ints = mostly(st.integers(1, 6).map(str), st.one_of(
    st.integers(-3, 0).map(str),
    st.sampled_from([str(2**64), N_4001_DIGITS, "1" * 4301, "2.5", "x" * 3000]),
    st.text(max_size=6).filter(no_flag),
))
int_lists = mostly(st.lists(st.integers(1, 4).map(str), min_size=1, max_size=3).map(",".join), st.one_of(
    st.sampled_from(["", ",", "2,,2", "-2,2", ",".join(["2"] * 15000), "1" * 4301 + ",2", "x" * 3000]),
    st.text(max_size=8).filter(no_flag),
))
tols = mostly(st.sampled_from(["1e-10", "0", "0.5"]), st.one_of(
    st.sampled_from(["nan", "inf", "-inf", "1e400", "-1", "5e-324", "1" * 4301]),
    st.floats().map(repr),
    st.text(max_size=6).filter(no_flag),
))
paths = mostly(st.just("file"), st.sampled_from(["missing", "dir", "long", "newline", "nul"]))
FLAGS = {  # the flags of each subcommand, each with what it may be given
    "check-separable": {"--state": paths, "--exact": None, "--partition": int_lists, "--tol": tols},
    "concurrence": {"--state": paths, "--exact": None},
    "gen-concurrence": {"--state": paths, "--exact": None},
    "pluecker-measure": {"--state": paths, "--exact": None, "--pivot": ints},
    "segre-ideal": {"--dims": int_lists},
    "pluecker-relations": {"--k": ints, "--n": ints},
    "segre-map": {"--factors": paths, "--exact": None},
    "factor": {"--state": paths, "--exact": None, "--tol": tols},
}
commands = mostly(st.sampled_from(sorted(FLAGS)), st.sampled_from(["", "bogus", "-x"]))
strays = mostly(st.just([]), st.lists(st.sampled_from(
    ["--bogus", "--max-amps", "8192", "-x", "--", "extra", "--state", "--k", "--exact=1"]), min_size=1, max_size=2))
hostile_files = st.one_of(
    st.sampled_from([b"\xff\xfe", b"[" * 100_000, b'{"a":' * 100_000, b"",
                     b'{"dims": [' + b"1" * 5000 + b', 2], "amps": []}', b'{"dims": [2, 2], "amps": 5}']),
    st.binary(max_size=16),
)
plain_pairs = st.lists(st.integers(-2, 2) | st.floats(-1, 1), min_size=2, max_size=2)
plain_states = st.sampled_from([[2, 2], [2, 2, 2], [3, 2]]).flatmap(lambda dims: st.fixed_dictionaries(
    {"dims": st.just(dims), "amps": st.lists(plain_pairs, min_size=math.prod(dims), max_size=math.prod(dims))}))
plain_factors = st.fixed_dictionaries({"factors": st.lists(st.lists(plain_pairs, min_size=2, max_size=3),
                                                           min_size=2, max_size=3)})
state_bytes, factor_bytes = (st.one_of(plain, docs).map(json.dumps).map(str.encode)
                             for plain, docs in ((plain_states, states), (plain_factors, factor_files)))
FILES = {"--state": mostly(state_bytes, hostile_files | factor_bytes),
         "--factors": mostly(factor_bytes, hostile_files | state_bytes)}


@st.composite
def argvs(draw):
    """A subcommand, then each of its flags given once, left out or repeated, with
    stray tokens; and the contents of the file it names."""
    command = draw(commands)
    tokens = []
    for flag, value in FLAGS.get(command, {}).items():
        count = draw(mostly(st.just(0), st.just(1)) if value is None else mostly(st.just(1), st.sampled_from([0, 2])))
        tokens += [[flag] if value is None else [flag, draw(value)] for _ in range(count)]
    tokens += [[t] for t in draw(strays)]
    file_flag = next((flag for flag in FLAGS.get(command, {}) if flag in FILES), "--state")
    return [command, *(t for pair in draw(st.permutations(tokens)) for t in pair)], draw(FILES[file_flag])


# cases the argv fuzz found: a usage error raised SystemExit out of main after a
# usage line, and a long or multi-line path was printed whole
def test_usage_error_prints_one_bounded_error_line(capsys):
    code, out, err = run(capsys, ["pluecker-relations", "--k", "x" * 3000, "--n", "4"])
    assert (code, out) == (2, "")
    assert_one_error_line(err)
    assert "argument --k: invalid int value" in err


def test_long_path_prints_one_bounded_error_line(capsys, tmp_path):
    code, out, err = run(capsys, ["concurrence", "--state", str(tmp_path / ("x" * 5000))])
    assert (code, out) == (2, "")
    assert_one_error_line(err)


def test_path_with_a_line_break_prints_one_error_line(capsys, tmp_path):
    code, out, err = run(capsys, ["segre-map", "--factors", str(tmp_path / "a\nb.json")])
    assert (code, out) == (2, "")
    assert_one_error_line(err)
    assert "No such file" in err


def test_path_with_a_nul_character_is_unreadable(capsys):
    # open refuses it with a ValueError, which the digit-limit branch of the JSON parse once took
    code, out, err = run(capsys, ["concurrence", "--state", "a\0b.json"])
    assert (code, out) == (2, "")
    assert err == "error: 'a\\x00b.json': unreadable path (embedded null byte)\n"


def test_control_characters_in_a_path_stay_out_of_stderr(capsys, tmp_path):
    # a terminal escape in the argument once reached stderr raw in every message but the NUL one
    name = "a\x1b[31mb\x07\t.json"
    assert run(capsys, ["concurrence", "--state", name])[2] == \
        "error: 'a\\x1b[31mb\\x07\\t.json': No such file or directory\n"
    path = tmp_path / name
    for data in (b"\xff\xfe", b"[1,", b"[" * 100_000, b"[" + b"1" * 5000 + b"]"):
        path.write_bytes(data)
        for command in (["concurrence", "--state"], ["segre-map", "--factors"]):
            code, out, err = run(capsys, [*command, str(path)])
            assert (code, out) == (2, "")
            assert_one_error_line(err)
            assert not any(ch < " " for ch in err[:-1]), err


def test_long_path_keeps_its_file_name_in_the_error_line(capsys, tmp_path):
    # a long path was once cut to its first 32 characters, which lost the file name
    nested = tmp_path / "some/long/directory/name/for/fixtures"
    for path, name in ((nested / "bell_state.json", "bell_state.json"),
                       (nested / ("d" * 300) / "bell\x1b[31m_state.json", "bell\\x1b[31m_state.json"),
                       (tmp_path / ("d" * 5000 + "\x07") / "bell_state.json", "bell_state.json")):
        code, out, err = run(capsys, ["concurrence", "--state", str(path)])
        assert (code, out) == (2, "")
        assert_one_error_line(err)
        assert len(err) <= len("error: \n") + 280 and not err.endswith(" ...\n")
        assert f"{name}'" in err, err
        assert not any(ch < " " for ch in err[:-1]), err


@settings(max_examples=250, deadline=None)
@given(argvs())
def test_cli_argv_fuzz_returns_a_code_and_one_short_error_line(tmp_path_factory, case):
    argv, content = case
    base = tmp_path_factory.getbasetemp()
    (base / "argv-fuzz.json").write_bytes(content)
    where = {"file": base / "argv-fuzz.json", "missing": base / "missing.json", "dir": base,
             "long": base / ("x" * 5000), "newline": base / "a\nb.json", "nul": base / "a\0b.json"}
    argv = [str(where[a]) if a in where else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), redirect_stdout(out), redirect_stderr(err):
        warnings.simplefilter("error")
        code = main(argv)
    assert code in (0, 1, 2)
    lines = err.getvalue().splitlines()
    assert len(lines) <= 1 and all(len(line) <= 300 for line in lines)
