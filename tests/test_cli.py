import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import graphlink
from graphlink.cli import main

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
    _, base, _ = run_cli(capsys, "bracket", "-i", G7_TEXT)
    monkeypatch.setenv("GLK_THREADS", "4")
    _, threaded, _ = run_cli(capsys, "bracket", "-i", G7_TEXT)
    assert base == threaded


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


def test_entry_point_subprocess():
    # the child must import the same graphlink, installed or not
    src = str(Path(graphlink.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "graphlink.cli", "bracket", "-i", "1;-;"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
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


@pytest.mark.parametrize("value", ["0", "-2", "two", ""])
def test_bad_glk_threads_exit_2(capsys, monkeypatch, value):
    monkeypatch.setenv("GLK_THREADS", value)
    code, out, err = run_cli(capsys, "bracket", "-i", "1;+;")
    assert_one_line_error(code, err)
    assert "GLK_THREADS" in err and out == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["realize", "-i", G7_TEXT, "--budget", "0"],
        ["orbit", "-i", "1;+;", "--max-depth", "-1"],
        ["orbit", "-i", "1;+;", "--max-vertices", "-1"],
        ["orbit", "-i", "1;+;", "--max-states", "0"],
        ["bracket", "-i", "1;+;", "--max-n", "-1"],
        ["props", "-i", "1;+;", "--max-n", "-1"],
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
