"""Fuzzed input through ``glk``: whatever the text or bytes, the command
line answers with a documented exit code (0/1/2/3), raises nothing, and
reports a failure as one line on stderr.

Runs are derandomized and bounded so the module takes a few seconds; the
size options keep every state sum, orbit and scan small, and the argv
vocabulary holds only small inputs.
"""

import contextlib
import io
import json

from hypothesis import example, given, settings
from hypothesis import strategies as st

from graphlink import MoveKind, parse, to_json
from graphlink.cli import main

FUZZ = settings(max_examples=150, derandomize=True, deadline=None, database=None)

GRAPH_COMMANDS = [
    ["bracket", "--max-n", "10"],
    ["jones", "--max-n", "10"],
    ["writhe"],
    ["props", "--max-n", "10"],
    ["moves", "sites"],
    ["orbit", "--max-depth", "1", "--max-states", "20", "--max-vertices", "8"],
    ["realize", "--max-n", "5"],
]
DIAGRAM_COMMANDS = [
    ["chord", "graph"],
    ["chord", "bracket", "--max-n", "10"],
    ["chord", "circles", "--state=1,2"],
    ["chord", "circles", "--state=x"],
]

# Subcommands, actions, options (some unknown) and small values; no -h,
# which prints help and exits 0 through SystemExit by design.
ARGV_TOKENS = [
    "bracket", "jones", "writhe", "props", "moves", "orbit", "chord", "realize", "selftest",
    "apply", "sites", "graph", "circles", "nosuch",
    "-i", "--inline", "--json", "--max-n", "--max-depth", "--max-vertices", "--max-states",
    "--budget", "--moves", "--state", "--seed", "--trials", "--bogus", "-x", "--",
    "1;+;", "3;+-+;1-2,2-3", "-1;+;", "1 1;+", "R1_add +", "0", "1", "-1", "3", "x", "",
]

BIG_INT_JSON = '{"n": ' + "9" * 5000 + ', "labels": [], "edges": []}'
DEEP_JSON = '{"n": 1, "labels": ' + "[" * 100_000 + "]" * 100_000 + ', "edges": []}'


def check(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2, 3)
    if code:
        assert err.getvalue().count("\n") == 1, err.getvalue()


def _edit(text, pos, insert, cut):
    p = pos % (len(text) + 1)
    return text[:p] + insert + text[p + cut :]


def mutated(base, alphabet):
    """Valid text from ``base``, sometimes with one splice from ``alphabet``."""
    splice = st.builds(
        _edit, base, st.integers(0, 64), st.text(alphabet, max_size=3), st.integers(0, 3)
    )
    return st.one_of(base, splice, st.text(alphabet, max_size=40))


@st.composite
def compact_graphs(draw):
    n = draw(st.integers(0, 7))
    labels = draw(st.text("+-", min_size=n, max_size=n))
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return f"{n};{labels};" + ",".join(f"{i}-{j}" for i, j in edges)


json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 10) | st.text(max_size=3),
    lambda kids: st.lists(kids, max_size=4) | st.dictionaries(st.text(max_size=3), kids, max_size=3),
    max_leaves=10,
)
json_graphs = st.one_of(
    compact_graphs().map(lambda text: to_json(parse(text))),
    st.fixed_dictionaries(
        {
            "n": st.integers(0, 6) | json_values,
            "labels": st.lists(st.sampled_from([1, -1]), max_size=6) | json_values,
            "edges": st.lists(st.lists(st.integers(0, 7), min_size=2, max_size=2), max_size=6)
            | json_values,
        }
    ).map(json.dumps),
    json_values.map(json.dumps),
)
graph_texts = mutated(compact_graphs(), "0123456789;+-, \n") | mutated(json_graphs, '{}[]":,-0123456789 ntrue')


@st.composite
def diagram_texts(draw):
    n = draw(st.integers(0, 5))
    word = draw(st.permutations([c for c in range(1, n + 1) for _ in (0, 1)]))
    signs = draw(st.text("+-", min_size=n, max_size=n))
    return " ".join(map(str, word)) + ";" + signs


script_lines = st.builds(
    lambda kind, args: " ".join([kind, *args]),
    st.sampled_from([k.value for k in MoveKind] + ["bogus", "#"]),
    st.lists(st.sampled_from(["+", "-", "0", "1", "2", "3", "-1", "1,2", "x", "9" * 5000]), max_size=4),
)
scripts = st.lists(script_lines, max_size=4).map("\n".join)


@FUZZ
@given(command=st.sampled_from(GRAPH_COMMANDS), text=graph_texts)
@example(command=["bracket"], text=BIG_INT_JSON)
@example(command=["props"], text=DEEP_JSON)
def test_graph_text(command, text):
    check(command + ["--inline=" + text])


@FUZZ
@given(command=st.sampled_from(DIAGRAM_COMMANDS), text=mutated(diagram_texts(), "0123456789 ;+-"))
def test_diagram_text(command, text):
    check(command + ["--inline=" + text])


@FUZZ
@given(graph=compact_graphs(), script=scripts)
@example(graph="1;+;", script="R1_add +;" * 40)
def test_move_script(graph, script):
    check(["moves", "apply", "--inline=" + graph, "--moves=" + script])


@FUZZ
@given(
    command=st.sampled_from([["bracket", "--max-n", "10"], ["moves", "apply"]]),
    contents=st.none() | st.binary(max_size=40) | graph_texts.map(str.encode),
)
@example(command=["bracket"], contents=None)
@example(command=["bracket"], contents=b"\xff\xfe3;+++;")
@example(command=["moves", "apply"], contents=b"R1_add +\n\xff")
def test_input_and_script_files(tmp_path_factory, command, contents):
    # contents None: the path names a directory
    path = tmp_path_factory.mktemp("fuzz")
    if contents is not None:
        path = path / "input"
        path.write_bytes(contents)
    if command[0] == "moves":
        check(command + ["--inline=1;+;", "--moves=" + str(path)])
    else:
        check(command + [str(path)])


@FUZZ
@given(argv=st.lists(st.sampled_from(ARGV_TOKENS), max_size=8))
@example(argv=[])
@example(argv=["nosuch"])
@example(argv=["bracket", "--bogus"])
@example(argv=["bracket", "-i", "-1;+;"])
@example(argv=["moves", "frob", "-i", "1;+;"])
def test_argv(argv):
    check(argv)
