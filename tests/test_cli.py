import json
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

import graphlink
from graphlink.cli import build_parser, main

from helpers import G7_TEXT


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_bracket_inline_single_plus(capsys):
    code, out, _ = run_cli(capsys, "bracket", "-i", "1;+;")
    assert code == 0
    assert out == "-a^-3\n"


def test_jones_of_non_graph_knot_is_domain_error(capsys):
    code, out, err = run_cli(capsys, "jones", "-i", "2;++;1-2")
    assert code == 1
    assert "graph-knot" in err


def test_parse_error_exit_code(capsys):
    code, _, err = run_cli(capsys, "bracket", "-i", "not a graph")
    assert code == 2
    assert "parse error" in err


def test_resource_error_exit_code(capsys):
    big = "30;" + "+" * 30 + ";"
    code, _, err = run_cli(capsys, "bracket", "-i", big, "--max-n", "24")
    assert code == 3
    assert "resource" in err


def test_props_g7_json(capsys, tmp_path):
    path = tmp_path / "g7.glg"
    path.write_text(G7_TEXT + "\n")
    code, out, _ = run_cli(capsys, "props", str(path), "--json")
    assert code == 0
    obj = json.loads(out)
    assert obj["span"] == 28
    assert obj["minimal_certified"] is True
    assert obj["graph_knot"] is False


def test_props_text_output(capsys):
    code, out, _ = run_cli(capsys, "props", "-i", "0;;")
    assert code == 0
    assert "minimal_certified = True" in out


def test_writhe(capsys):
    code, out, _ = run_cli(capsys, "writhe", "-i", "1;-;")
    assert code == 0
    assert out == "1\n"


def test_json_graph_input_autodetected(capsys):
    inline = json.dumps({"n": 1, "labels": [1], "edges": []})
    code, out, _ = run_cli(capsys, "bracket", "-i", inline)
    assert code == 0
    assert out == "-a^-3\n"


def test_json_output_is_byte_stable(capsys):
    args = ("bracket", "-i", G7_TEXT, "--json")
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2
    terms = json.loads(out1)
    assert terms[0] == {"exp": 15, "coef": 1}


def test_threads_env_does_not_change_output(capsys, monkeypatch):
    # the state sum sizes its own pool; the old GLK_THREADS variable, valid or
    # not, is not read
    for argv in (["bracket", "-i", G7_TEXT], ["realize", "-i", "2;++;1-2"]):
        monkeypatch.delenv("GLK_THREADS", raising=False)
        base = run_cli(capsys, *argv)
        assert base[0] == 0
        for value in ("4", "0", "two"):
            monkeypatch.setenv("GLK_THREADS", value)
            assert run_cli(capsys, *argv) == base


def test_moves_apply_inline_script(capsys):
    code, out, _ = run_cli(
        capsys, "moves", "apply", "-i", "0;;", "--moves", "R1_add -;R5_expand 1"
    )
    assert code == 0
    assert out == "3;+++;1-2,1-3\n"


def test_moves_apply_script_file(capsys, tmp_path):
    script = tmp_path / "walk.moves"
    script.write_text("R1_add +\nR1_add -\n")
    code, out, _ = run_cli(capsys, "moves", "apply", "-i", "0;;", "--moves", str(script))
    assert code == 0
    assert out == "2;+-;\n"


def test_moves_apply_inapplicable_is_domain_error(capsys):
    code, _, err = run_cli(
        capsys, "moves", "apply", "-i", "2;++;1-2", "--moves", "R1_remove 1"
    )
    assert code == 1
    assert "isolated" in err


def test_moves_sites_lists_applicable(capsys):
    code, out, _ = run_cli(capsys, "moves", "sites", "-i", "1;+;")
    assert code == 0
    lines = out.strip().splitlines()
    assert "R1_remove 1" in lines
    assert "R1_add +" in lines


def test_orbit_json(capsys):
    code, out, _ = run_cli(
        capsys, "orbit", "-i", "1;+;", "--json", "--max-vertices", "2", "--max-depth", "3"
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["min_vertices"] == 0
    assert obj["witness_path"] == "R1_remove 1"


def test_chord_graph_and_bracket(capsys):
    code, out, _ = run_cli(capsys, "chord", "graph", "-i", "1 2 1 2;++")
    assert code == 0
    assert out == "2;++;1-2\n"
    code, out, _ = run_cli(capsys, "chord", "bracket", "-i", "1 2 1 2;++")
    assert code == 0
    assert out == "-a^2 - a^-2\n"


def test_chord_circles(capsys):
    code, out, _ = run_cli(
        capsys, "chord", "circles", "-i", "1 1 2 2;++", "--state", "1,2"
    )
    assert code == 0
    assert out == "3\n"
    code, _, err = run_cli(
        capsys, "chord", "circles", "-i", "1 1;+", "--state", "5"
    )
    assert code == 1


def test_realize_found_and_none(capsys):
    code, out, _ = run_cli(capsys, "realize", "-i", "2;++;1-2", "--json")
    assert code == 0
    obj = json.loads(out)
    assert obj["found"] is True
    assert obj["diagram"] == "1 2 1 2;++"
    code, out, _ = run_cli(capsys, "realize", "-i", "2;++;1-2")
    assert out == "1 2 1 2;++\n"


def test_realize_budget(capsys):
    code, out, _ = run_cli(capsys, "realize", "-i", G7_TEXT, "--budget", "50", "--json")
    assert code == 0
    obj = json.loads(out)
    assert obj == {"found": False, "diagram": None, "exhausted": False, "checked": 50}


def test_selftest_small(capsys):
    code, out, _ = run_cli(capsys, "selftest", "--trials", "3", "--seed", "1")
    assert code == 0
    assert out.count("PASS") == 4


def test_selftest_zero_trials_warns(capsys):
    code, out, err = run_cli(capsys, "selftest", "--trials", "0")
    assert code == 0
    assert "vacuous" in err


def test_selftest_catches_a_corrupted_move(capsys, monkeypatch):
    import graphlink.moves as moves_mod

    real_apply = moves_mod.apply

    def broken_apply(g, site):
        h = real_apply(g, site)
        if site.kind == moves_mod.MoveKind.R4 and h.n:
            # simulate a mis-toggled block by flipping one label
            labels = list(h.labels)
            labels[0] = -labels[0]
            return moves_mod.LabeledGraph(h.n, tuple(labels), h.adj)
        return h

    monkeypatch.setattr("graphlink.selftest.moves.apply", broken_apply)
    code, out, _ = run_cli(capsys, "selftest", "--trials", "6", "--seed", "2")
    assert code == 1
    assert "FAIL" in out


def test_input_source_required(capsys):
    code, _, err = run_cli(capsys, "bracket")
    assert code == 2
    code, _, err = run_cli(capsys, "bracket", "-i", "0;;", "nope.glg")
    assert code == 2


def test_missing_file(capsys):
    code, _, err = run_cli(capsys, "bracket", "definitely-missing.glg")
    assert code == 2


def _child_env() -> dict:
    # the child must import the same graphlink, installed or not
    src = str(Path(graphlink.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


def test_entry_point_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "graphlink.cli", "bracket", "-i", "1;-;"],
        capture_output=True,
        text=True,
        env=_child_env(),
    )
    assert proc.returncode == 0
    assert proc.stdout == "-a^3\n"


# `glk moves sites` output frozen before the move preconditions were merged
# into one function: kind order, then vertex order within each kind.
MOVES_SITES_GOLDEN = {
    G7_TEXT: [
        "R1_add +", "R1_add -", "R2_add", "R2_add 2,4", "R2_add 2,6", "R2_add 4,6",
        "R2_add 2,4,6", "R2_add 1,3,7", "R2_add 1,5,7", "R2_add 3,5,7", "R4 1 2",
        "R4 1 6", "R4 2 3", "R4 2 7", "R4 3 4", "R4 4 5", "R4 4 7", "R4 5 6", "R4 6 7",
        "R5_expand 1", "R5_expand 3", "R5_expand 5", "R5_expand 7",
    ],
    "5;-+-++;2-5,3-5,4-5": [
        "R1_add +", "R1_add -", "R1_remove 1", "R2_add", "R2_add 2,3,4", "R2_add 5",
        "R2_remove 2 3", "R2_remove 3 4", "R3_inv 1 2 4", "R4 2 5", "R4 3 5", "R4 4 5",
        "R5_expand 1", "R5_expand 3", "R5_contract 5 2 4",
    ],
    "5;---++;1-2,1-3,2-5,3-5": [
        "R1_add +", "R1_add -", "R1_remove 4", "R2_add", "R2_add 2,3", "R2_add 1,5",
        "R2_remove 1 5", "R3_fwd 1 2 3", "R3_inv 1 4 5", "R4 1 2", "R4 1 3", "R4 2 5",
        "R4 3 5", "R5_expand 1", "R5_expand 2", "R5_expand 3",
    ],
    "6;--+-+-;1-2,1-3,1-5,2-6,3-6,4-6": [
        "R1_add +", "R1_add -", "R2_add", "R2_add 1", "R2_add 2,3,4", "R2_add 2,3,5",
        "R2_add 6", "R2_add 1,6", "R2_remove 2 3", "R3_fwd 2 1 6", "R3_inv 4 3 5",
        "R4 1 2", "R4 1 3", "R4 1 5", "R4 2 6", "R4 3 6", "R4 4 6", "R5_expand 1",
        "R5_expand 2", "R5_expand 4", "R5_expand 6",
    ],
}


@pytest.mark.parametrize("text", sorted(MOVES_SITES_GOLDEN))
def test_moves_sites_golden(capsys, text):
    want = MOVES_SITES_GOLDEN[text]
    code, out, _ = run_cli(capsys, "moves", "sites", "-i", text)
    assert code == 0
    assert out == "".join(line + "\n" for line in want)
    code, out, _ = run_cli(capsys, "moves", "sites", "-i", text, "--json")
    assert code == 0
    assert out == json.dumps(want) + "\n"


def assert_one_line_error(code, err, exit_code=2):
    assert code == exit_code
    assert err.count("\n") == 1 and err.startswith("glk: ")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "obj",
    [
        {"n": 1, "labels": 5, "edges": []},
        {"n": 1, "labels": [1], "edges": 5},
        {"n": 2, "labels": [True, 1], "edges": []},
        {"n": True, "labels": [1], "edges": []},
        {"n": 2, "labels": [1, 1], "edges": [[True, 2]]},
    ],
)
def test_json_graph_type_errors_exit_2(capsys, obj):
    code, out, err = run_cli(
        capsys, "moves", "apply", "--json", "-i", json.dumps(obj), "--moves", "R1_add +"
    )
    assert_one_line_error(code, err)
    assert out == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["realize", "-i", G7_TEXT, "--budget", "0"],
        ["orbit", "-i", "1;+;", "--max-depth", "-1"],
        ["orbit", "-i", "1;+;", "--max-vertices", "-1"],
        ["orbit", "-i", "1;+;", "--max-states", "0"],
        ["bracket", "-i", "1;+;", "--max-n", "-1"],
        ["props", "-i", "1;+;", "--max-n", "-1"],
        ["selftest", "--trials", "-3"],
    ],
)
def test_out_of_range_numeric_options_exit_2(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert_one_line_error(code, err)
    assert argv[-2] in err and out == ""


@pytest.mark.parametrize("command", ["bracket", "props"])
def test_state_sum_above_hard_limit_refused_before_allocating(capsys, command):
    big = "29;" + "+" * 29 + ";"
    tracemalloc.start()
    try:
        code, out, err = run_cli(capsys, command, "-i", big, "--max-n", "40")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert_one_line_error(code, err, exit_code=3)
    assert "STATE_SUM_LIMIT=28" in err and out == ""
    assert peak < 1 << 20  # the corank vector alone would be 512 MiB


def test_chord_bracket_above_hard_limit_refused_at_once(capsys):
    diagram = " ".join(f"{c} {c}" for c in range(1, 30)) + ";" + "+" * 29
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "chord", "bracket", "-i", diagram, "--max-n", "40")
    assert time.perf_counter() - start < 1.0  # the surgery loop would run 2^29 states
    assert_one_line_error(code, err, exit_code=3)
    assert "STATE_SUM_LIMIT=28" in err and out == ""


@pytest.mark.parametrize("command", ["bracket", "props", "moves sites", "orbit"])
def test_huge_edgeless_graph_refused_at_once(capsys, command):
    text = "30000;" + "+-" * 15000 + ";"  # 30 KB
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *command.split(), "-i", text)
    # a graph check over all n(n-1)/2 vertex pairs would take ~20 s here, and
    # the move sites of such a graph run to hundreds of millions of lines
    assert time.perf_counter() - start < 1.0
    assert_one_line_error(code, err, exit_code=3)
    assert out == ""


@pytest.mark.parametrize("argv", [["moves", "sites"], ["orbit", "--max-depth", "0"]])
def test_moves_sites_and_orbit_stop_at_dim_limit(capsys, argv):
    code, out, _ = run_cli(capsys, *argv, "-i", "64;" + "+-" * 32 + ";")
    assert code == 0 and out
    code, out, err = run_cli(capsys, *argv, "-i", "65;" + "+-" * 32 + "+;")
    assert_one_line_error(code, err, exit_code=3)
    assert "matrix dimension 65 exceeds DIM_LIMIT=64" in err and out == ""


def test_huge_edgeless_graph_props_refused_by_dim_limit_at_once(capsys):
    text = "300000;" + "+" * 300000 + ";"  # 300 KB
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "props", "-i", text)
    # building the A- and B-state masks as a sum of 1 << v took ~2 s here
    assert time.perf_counter() - start < 0.8
    assert_one_line_error(code, err, exit_code=3)
    assert "matrix dimension 300000 exceeds DIM_LIMIT=64" in err and out == ""


def test_directory_input_exit_2(capsys, tmp_path):
    code, out, err = run_cli(capsys, "bracket", str(tmp_path))
    assert_one_line_error(code, err)
    assert "Is a directory" in err and out == ""


def test_non_utf8_input_and_script_exit_2(capsys, tmp_path):
    graph_file = tmp_path / "bad.glg"
    graph_file.write_bytes(b"\xff\xfe1;+;")
    code, out, err = run_cli(capsys, "bracket", str(graph_file))
    assert_one_line_error(code, err)
    assert "not UTF-8" in err and out == ""
    script_file = tmp_path / "bad.moves"
    script_file.write_bytes(b"R1_add +\n\xff")
    code, out, err = run_cli(capsys, "moves", "apply", "-i", "1;+;", "--moves", str(script_file))
    assert_one_line_error(code, err)
    assert "not UTF-8" in err and out == ""


def test_json_integer_over_digit_limit_exit_2(capsys):
    text = '{"n": ' + "9" * 5000 + ', "labels": [], "edges": []}'
    code, out, err = run_cli(capsys, "bracket", "-i", text)
    assert_one_line_error(code, err)
    assert "too many digits" in err and out == ""


def test_deeply_nested_json_exit_2(capsys):
    text = '{"n": 1, "labels": ' + "[" * 100_000 + "]" * 100_000 + ', "edges": []}'
    code, out, err = run_cli(capsys, "bracket", "-i", text)
    assert_one_line_error(code, err)
    assert "nested too deeply" in err and out == ""


def test_inline_move_script_longer_than_a_file_name(capsys):
    # the script is first looked up as a path; a long one must not be an error
    code, out, _ = run_cli(capsys, "moves", "apply", "-i", "1;+;", "--moves", "R1_add +;" * 40)
    assert code == 0
    assert out == "41;" + "+" * 41 + ";\n"


@pytest.mark.parametrize("command", ["props", "writhe", "jones"])
def test_matrix_dimension_refused_by_vertex_count(capsys, command):
    # the A-state holds 68 vertices; the refusal names the graph's n = 70
    text = "70;" + "-" * 68 + "++;1-2,69-70"
    code, out, err = run_cli(capsys, command, "-i", text)
    assert_one_line_error(code, err, exit_code=3)
    assert "matrix dimension 70 exceeds DIM_LIMIT=64" in err and out == ""


@pytest.mark.parametrize(
    "argv, message",
    [
        (["bracket", "-i", "-1;+;"], "argument -i/--inline: expected one argument"),
        (["bracket", "--bogus"], "unrecognized arguments: --bogus"),
        (["nosuch"], "invalid choice: 'nosuch'"),
        ([], "the following arguments are required: command"),
        (["writhe", "-i", "1;+;", "--max-n", "5"], "unrecognized arguments: --max-n"),
    ],
    ids=[
        "value-looks-like-option",
        "unknown-option",
        "unknown-subcommand",
        "empty-argv",
        "writhe-has-no-max-n",
    ],
)
def test_argparse_usage_errors_are_one_line(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert_one_line_error(code, err)
    assert err.startswith("glk: parse error: ") and message in err and out == ""


@pytest.mark.parametrize("argv", [["-h"], ["bracket", "--help"], ["moves", "-h"]])
def test_help_prints_usage_and_exits_0(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    out, err = capsys.readouterr()
    assert out.startswith("usage: glk") and err == ""


def test_cached_parser_keeps_no_state_between_calls(capsys):
    calls = [
        ["bracket", "-i", G7_TEXT, "--json"],
        ["bracket", "-i", G7_TEXT],
        ["bracket", "-i", G7_TEXT, "--max-n", "5"],
        ["bracket", "-i", G7_TEXT],
        ["orbit", "-i", "2;+-;1-2", "--max-depth", "2", "--json"],
        ["orbit", "-i", "2;+-;1-2", "--max-depth", "2"],
        ["moves", "sites", "-i", "1;+;", "--json"],
        ["moves", "sites", "-i", "1;+;"],
    ]
    fresh = []
    for argv in calls:
        build_parser.cache_clear()
        fresh.append(run_cli(capsys, *argv))
    assert build_parser() is build_parser()
    # each call twice, alternating options, through the one shared parser
    assert [run_cli(capsys, *argv) for argv in calls + calls] == fresh + fresh
    assert fresh[0][1] != fresh[1][1] and fresh[2][0] == 3 and fresh[3][0] == 0


def test_numpy_is_imported_only_for_a_large_component():
    k9 = "9;+++++++++;" + ",".join(f"{i}-{j}" for i in range(1, 10) for j in range(i + 1, 10))
    code = (
        "import sys\n"
        "from graphlink import cli\n"
        "cli.main(['bracket', '-i', '1;+;'])\n"
        f"cli.main(['props', '-i', {G7_TEXT!r}, '--json'])\n"
        "print('numpy' in sys.modules)\n"
        f"cli.main(['bracket', '-i', {k9!r}])\n"  # one 9-vertex component
        "print('numpy' in sys.modules)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=_child_env(),
    )
    assert proc.returncode == 0 and proc.stderr == ""
    bracket, props, small, k9_bracket, large = proc.stdout.splitlines()
    assert bracket == "-a^-3" and json.loads(props)["span"] == 28
    assert (small, large) == ("False", "True") and "a^" in k9_bracket
