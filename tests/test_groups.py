import pytest
from modules import ModuleRep

import eicat.groups as groups
from eicat.algebra import group_algebra
from eicat.category import presentation_of
from eicat.groups import (
    GroupAction,
    GroupError,
    GroupTable,
    cyclic_group,
    is_projective_over,
    morphism_stabilizers,
    symmetric_group_3,
)
from eicat.homology import ext_dims, top_module
from eicat.linalg import Field, Matrix


def test_cyclic_group_axioms():
    for n in (1, 2, 3, 6):
        g = cyclic_group(n)
        assert g.order == n
        assert g.mul(g.identity, g.elements[-1]) == g.elements[-1]
        for e in g.elements:
            assert g.mul(e, g.inverse(e)) == g.identity


def test_s3_is_nonabelian_of_order_6():
    g = symmetric_group_3()
    assert g.order == 6
    assert any(g.mul(a, b) != g.mul(b, a) for a in g.elements for b in g.elements)


def test_group_validation_catches_broken_tables():
    table = {("e", "e"): "e", ("e", "g"): "g", ("g", "e"): "g", ("g", "g"): "g"}
    with pytest.raises(GroupError):
        GroupTable(["e", "g"], table, "e").validate()  # g has no inverse


def _reference_group_errors(g):
    """The GroupError message of the walk over every triple, or None: the
    reference for Light's test in `GroupTable.validate`, on a table with
    every product present."""
    elems, table, e = g.elements, g.table, g.identity
    errs = [f"identity law fails at {x!r}" for x in elems
            if table[(e, x)] != x or table[(x, e)] != x]
    for x in elems:
        for y in elems:
            for z in elems:
                if table[(table[(x, y)], z)] != table[(x, table[(y, z)])]:
                    errs.append(f"associativity fails at ({x!r},{y!r},{z!r})")
                    break
    errs += [f"no two-sided inverse for {x!r}" for x in elems
             if not any(table[(x, y)] == e == table[(y, x)] for y in elems)]
    return "; ".join(errs) or None


@pytest.mark.parametrize("name", ["z6", "s3", "z12"])
def test_light_test_reports_what_the_triple_walk_reports_on_group_tables(name):
    """Every table with one product of Z_6, S3 or Z_12 changed to another
    element gets the message of the walk over every triple."""
    g = {"z6": lambda: cyclic_group(6), "s3": symmetric_group_3,
         "z12": lambda: cyclic_group(12)}[name]()
    rejected = 0
    for pair in g.table:
        for other in g.elements:
            if other == g.table[pair]:
                continue
            bad = GroupTable(list(g.elements), {**g.table, pair: other}, g.identity)
            try:
                bad.validate()
                message = None
            except GroupError as exc:
                message = str(exc)
            assert message == _reference_group_errors(bad), (pair, other)
            rejected += message is not None
    assert rejected == len(g.table) * (g.order - 1)


def test_light_generators_close_on_the_right_only():
    """In the table with a*a = b, b*a = b and a*b = c, the right-normed
    closure of {a} is {e, a, b}, so c joins S; a closure that also took the
    products s*v would hold c = a*b and stop at S = [a].  Both closures are
    sound (the lemma needs no associativity); this pins the documented one.
    The table is not associative: (a*a)*a = b, a*(a*a) = c."""
    elems = ["e", "a", "b", "c"]
    rows = {x: {y: y if x == "e" else x if y == "e" else "e" for y in elems} for x in elems}
    rows["a"]["a"], rows["b"]["a"], rows["a"]["b"] = "b", "b", "c"
    ends = dict.fromkeys(elems, (None, None))
    others = {None: elems[1:]}
    assert groups.light_generators(rows, ends, elems[1:], ["e"]) == ["a", "c"]
    assert not groups.light_associative(rows, ends, elems[1:], ["e"], others, others)


def test_group_json_roundtrip_rejects_unknown_keys():
    g = cyclic_group(3)
    obj = g.to_json()
    g2 = GroupTable.from_json(obj)
    assert g2.elements == g.elements and g2.table == g.table
    obj["extra"] = 1
    with pytest.raises(GroupError):
        GroupTable.from_json(obj)


def _coset_action(n, d):
    """Z/n acting on cosets of its subgroup of order d."""
    g = cyclic_group(n)
    size = n // d
    pts = [f"c{i}" for i in range(size)]
    act = {(e, pts[i]): pts[(i + j) % size]
           for j, e in enumerate(g.elements) for i in range(size)}
    return GroupAction(g, pts, act).validate()


def _stabilizer_orders_invertible(a: GroupAction, f: Field):
    """Whether the order of the stabilizer of every point of X is invertible
    in k: the criterion for kX to be projective over kG."""
    return all(f.invertible(sum(a.apply(g, x) == x for g in a.group.elements))
               for x in a.set)


def _permutation_module(a, f):
    alg = group_algebra(a.group, f)
    idx = {x: i for i, x in enumerate(a.set)}
    action = []
    for e in a.group.elements:
        m = Matrix.zeros(f, len(a.set), len(a.set))
        for x in a.set:
            m.data[idx[a.apply(e, x)]][idx[x]] = f.one
        action.append(m)
    return alg, ModuleRep(alg, len(a.set), action).validate()


def test_permutation_criterion_matches_ext_vanishing():
    """Invertible stabilizer orders iff Ext^1(kX, top) = 0 over kG."""
    for n, d in [(2, 1), (2, 2), (3, 3), (4, 2), (6, 2), (6, 3)]:
        a = _coset_action(n, d)
        for ch in (0, 2, 3):
            f = Field(ch)
            flag = _stabilizer_orders_invertible(a, f)
            alg, m = _permutation_module(a, f)
            ext1 = ext_dims(alg, m, top_module(alg), 1)[1]
            assert flag == (ext1 == 0), (n, d, ch, flag, ext1)


def test_morphism_stabilizers_on_stabilized_alpha():
    from eicat.families import stabilized_alpha_category
    p = presentation_of(stabilized_alpha_category())
    assert morphism_stabilizers(p, "alpha") == (1, 2)
    with pytest.raises(GroupError):
        morphism_stabilizers(p, p.category.identity_of(p.ordering[0]))


def test_is_projective_over_depends_only_on_characteristic():
    from eicat.families import stabilized_alpha_category
    p = presentation_of(stabilized_alpha_category())
    ok0, w0 = is_projective_over(p, Field(0))
    ok2, w2 = is_projective_over(p, Field(2))
    ok3, _ = is_projective_over(p, Field(3))
    assert ok0 and ok3 and not ok2
    assert w2 == ["alpha"]


def test_poset_morphisms_have_trivial_stabilizers():
    from eicat.families import diamond_poset, poset_category
    p = presentation_of(poset_category(diamond_poset()))
    for name, m in p.category.morphisms.items():
        if m.src != m.dst:
            assert morphism_stabilizers(p, name) == (1, 1)
