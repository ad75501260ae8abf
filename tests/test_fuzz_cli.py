"""Fuzz of `eicat.cli.main` on mutated category JSON, mutated matrix
exports and mutated poset, group and action files for `gen`: every call
ends with exit code 0, 1 or 2, raises nothing, and returns within a time
bound.  All calls go through the one parser `main`
builds on its first call.  Some category mutations keep the category valid
(`_drop_objects`), so that a stated share of the examples reaches the
commands behind `validate`."""

import contextlib
import copy
import io
import json
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from inputs import matrix_raw

from eicat import cli
from eicat.category import category_to_json
from eicat.cli import main
from eicat.families import chain_poset, diamond_poset, poset_category, transporter_category
from eicat.groups import GroupAction, cyclic_group

SECONDS_PER_CALL = 2.0
FUZZ = settings(max_examples=50, derandomize=True, database=None, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])

KEYS = ["objects", "morphisms", "composition", "id", "src", "dst", "identity",
        "basis", "unit", "table", "mstar_dims", "elements", "relation", "group", "set", "act"]
LEAVES = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 5), st.sampled_from([10 ** 30, -10 ** 30]),
    st.floats(allow_nan=False, allow_infinity=False, width=16),
    st.sampled_from(["", "x", "y", "z", "f", "ix", "iy", "1/2", "1/3", "1/0", "2/1/1", "a/b"]))
VALUES = st.recursive(LEAVES, lambda kids: st.lists(kids, max_size=3)
                      | st.dictionaries(st.sampled_from(KEYS), kids, max_size=3),
                      max_leaves=6)


def _nodes(obj, path=()):
    """(path, node) for every node of obj, the root first."""
    yield path, obj
    if isinstance(obj, list):
        for i, x in enumerate(obj):
            yield from _nodes(x, (*path, i))
    elif isinstance(obj, dict):
        for k, x in obj.items():
            yield from _nodes(x, (*path, k))


def _mutate(data, obj):
    """obj with one to three nodes replaced, shrunk or grown; a new value is
    a leaf of the original obj as often as one drawn from VALUES."""
    leaves = sorted({json.dumps(x) for _, x in _nodes(obj) if not isinstance(x, (list, dict))})
    values = st.sampled_from(leaves).map(json.loads) | VALUES
    obj = copy.deepcopy(obj)
    for _ in range(data.draw(st.integers(1, 3))):
        path = data.draw(st.sampled_from([p for p, _ in _nodes(obj)]))
        parent, node = None, obj
        for key in path:
            parent, node = node, node[key]
        op = data.draw(st.sampled_from(["replace", "shrink", "grow"]))
        if op == "shrink" and isinstance(node, (list, dict)) and node:
            del node[data.draw(st.sampled_from(range(len(node)) if isinstance(node, list)
                                               else list(node)))]
        elif op == "grow" and isinstance(node, list):
            item = data.draw(st.sampled_from(node) | values) if node else data.draw(values)
            node.insert(data.draw(st.integers(0, len(node))), copy.deepcopy(item))
        elif op == "grow" and isinstance(node, dict):
            node[data.draw(st.sampled_from(KEYS))] = data.draw(values)
        elif parent is None:
            obj = data.draw(values)
        else:
            parent[path[-1]] = data.draw(values)
    return obj


def _run(path, obj, argv):
    path.write_text(json.dumps(obj))
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    elapsed = time.perf_counter() - t0
    assert code in (0, 1, 2), (argv, obj, code)
    assert elapsed < SECONDS_PER_CALL, (argv, obj, elapsed)
    assert "Traceback" not in err.getvalue()


@pytest.fixture(scope="module")
def fuzz_file(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "input.json"


def _drop_objects(data, obj):
    """The category JSON obj without some of its objects, not all, and every
    morphism and composition entry that touches them, the rest in a drawn
    order: a full subcategory, so valid and EI when obj is."""
    gone = data.draw(st.lists(st.sampled_from(obj["objects"]), min_size=1,
                              max_size=len(obj["objects"]) - 1, unique=True))
    morphisms = [m for m in obj["morphisms"] if not {m["src"], m["dst"]} & set(gone)]
    names = {m["id"] for m in morphisms}
    return {"objects": data.draw(st.permutations([x for x in obj["objects"] if x not in gone])),
            "morphisms": data.draw(st.permutations(morphisms)),
            "composition": data.draw(st.permutations(
                [entry for entry in obj["composition"] if set(entry) <= names]))}


CATEGORY = category_to_json(poset_category(chain_poset(3)))
# Z/3 acting trivially on the chain x1 < x2 < x3: hom-sets of three
# morphisms, so mutations of the composition table reach the associativity
# check, which those of a poset's never do
Z3, CHAIN = cyclic_group(3), chain_poset(3)
GROUP_CATEGORY = category_to_json(transporter_category(Z3, CHAIN, GroupAction(
    Z3, CHAIN.elements, {(g, x): x for g in Z3.elements for x in CHAIN.elements})))
CATEGORY_COMMANDS = [["validate"], ["classify", "--explain"], ["freeness"],
                     ["projectivity", "--char", "2"], ["matrix", "--char", "3"],
                     ["oracle", "--cap", "2", "--char", "2"]]


def _fuzz_category_commands(fuzz_file, monkeypatch, category, mutate):
    """For each of FUZZ's examples, run one category command on
    `mutate(data)`, or, in about half of them, every command but `validate`
    on category with some objects dropped (`_drop_objects`).  Return, per
    example, the commands that went on past `cli.validate`, counted by
    wrapping it."""
    passed, validate = [], cli.validate

    def counted(raw):
        c = validate(raw)
        passed.append(c)
        return c

    monkeypatch.setattr(cli, "validate", counted)
    reached = []

    @FUZZ
    @given(st.data())
    def run(data):
        if data.draw(st.sampled_from(["drop", "mutate"])) == "drop":
            obj, commands = _drop_objects(data, category), CATEGORY_COMMANDS[1:]
        else:
            obj, commands = mutate(data), [data.draw(st.sampled_from(CATEGORY_COMMANDS))]
        reached.append(set())
        for command in commands:
            before = len(passed)
            _run(fuzz_file, obj, [command[0], str(fuzz_file), *command[1:]])
            if len(passed) > before:
                reached[-1].add(command[0])

    run()
    return reached


def _assert_reached(reached):
    """At least a fifth of the examples got past `validate`, and between
    them each of classify, freeness, matrix and oracle did."""
    assert len(reached) == FUZZ.max_examples
    assert 5 * sum(1 for commands in reached if commands) >= len(reached), reached
    assert set().union(*reached) >= {"classify", "freeness", "matrix", "oracle"}, reached


def test_mutated_category_json(fuzz_file, monkeypatch):
    _assert_reached(_fuzz_category_commands(fuzz_file, monkeypatch, CATEGORY,
                                            lambda data: _mutate(data, CATEGORY)))


def test_mutated_group_category_json(fuzz_file, monkeypatch):
    """Half the mutated examples mutate the composition table alone."""
    def mutate(data):
        if data.draw(st.booleans()):
            return GROUP_CATEGORY | {"composition": _mutate(data, GROUP_CATEGORY["composition"])}
        return _mutate(data, GROUP_CATEGORY)

    _assert_reached(_fuzz_category_commands(fuzz_file, monkeypatch, GROUP_CATEGORY, mutate))


@FUZZ
@given(st.data())
def test_mutated_matrix_export(fuzz_file, data):
    obj = _mutate(data, matrix_raw() | {"mstar_dims": {}})
    char = data.draw(st.sampled_from(["0", "2", "3"]))
    _run(fuzz_file, obj, ["oracle", str(fuzz_file), "--cap", "2", "--char", char])


Z2 = cyclic_group(2)
GEN_FILES = {  # the swap of the middle of the diamond, as `gen transporter` reads it
    "group": Z2.to_json(),
    "poset": diamond_poset().to_json(),
    "action": GroupAction(Z2, ["w", "y1", "y2", "x"], {
        (g, x): {"y1": "y2", "y2": "y1"}.get(x, x) if g == "g" else x
        for g in Z2.elements for x in ["w", "y1", "y2", "x"]}).to_json(),
}


@FUZZ
@given(st.data())
def test_mutated_gen_inputs(fuzz_file, data):
    kind = data.draw(st.sampled_from(list(GEN_FILES)))
    obj = _mutate(data, GEN_FILES[kind])
    if kind != "action" and data.draw(st.booleans()):
        _run(fuzz_file, obj, ["gen", kind, str(fuzz_file)])
        return
    paths = []  # `gen transporter group.json poset.json action.json`, one of them mutated
    for name, unchanged in GEN_FILES.items():
        path = fuzz_file.with_name(f"{name}.json")
        path.write_text(json.dumps(unchanged))
        paths.append(fuzz_file if name == kind else path)
    _run(fuzz_file, obj, ["gen", "transporter", *map(str, paths)])
