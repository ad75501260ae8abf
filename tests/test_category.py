import random
from collections import Counter
from functools import cached_property
from math import gcd

import pytest
from inputs import HOSTILE_CATEGORIES, boolean_poset, s3_transporter

import eicat.category as category
import eicat.groups as groups
from eicat.category import (
    FiniteCategory,
    NotEI,
    ValidationError,
    category_to_json,
    full_subcategory,
    is_ei,
    presentation_of,
    skeletalize,
    validate,
)
from eicat.families import chain_poset, corpus, diamond_poset, group_category, poset_category
from eicat.groups import GroupTable, cyclic_group


def chain_raw():
    return {
        "objects": ["x", "y", "z"],
        "morphisms": [
            {"id": "ix", "src": "x", "dst": "x", "identity": True},
            {"id": "iy", "src": "y", "dst": "y", "identity": True},
            {"id": "iz", "src": "z", "dst": "z", "identity": True},
            {"id": "f", "src": "x", "dst": "y"},
            {"id": "g", "src": "y", "dst": "z"},
            {"id": "h", "src": "x", "dst": "z"},
        ],
        "composition": [["g", "f", "h"]],
    }


def test_validate_accepts_chain_and_infers_identities():
    c = validate(chain_raw())
    assert len(c) == 6
    assert c.compose("g", "f") == "h"
    assert c.compose("iy", "f") == "f" and c.compose("f", "ix") == "f"


def test_validate_rejects_unknown_keys():
    raw = chain_raw()
    raw["extra"] = []
    with pytest.raises(ValidationError):
        validate(raw)


def test_each_conflicting_entry_is_reported_against_the_one_before():
    """Entries h, h2, h for g∘f are two conflicts: each entry is compared
    with the last one for its pair."""
    raw = chain_raw()
    raw["morphisms"].append({"id": "h2", "src": "x", "dst": "z"})
    raw["composition"] = [["g", "f", "h"], ["g", "f", "h2"], ["g", "f", "h"]]
    with pytest.raises(ValidationError) as exc:
        validate(raw)
    assert exc.value.violations == ["IncompleteComposition: conflicting entries for ('g', 'f')"] * 2


@pytest.mark.parametrize("case", HOSTILE_CATEGORIES)
def test_validate_rejects_malformed_json(case):
    raw, fragment = HOSTILE_CATEGORIES[case]
    with pytest.raises(ValidationError) as exc:
        validate(raw)
    assert any(fragment in v for v in exc.value.violations), exc.value.violations


def test_validate_reports_every_malformed_record():
    raw = chain_raw()
    raw["objects"].append(["not", "a", "name"])
    raw["morphisms"][3:5] = [7, {"id": "g", "dst": "z"}]
    with pytest.raises(ValidationError) as exc:
        validate(raw)
    assert exc.value.violations == [
        "object names must be strings or numbers",
        "morphism record 3 is not an object",
        "morphism record 4 lacks keys ['src']",
    ]


def test_validate_reports_missing_identity():
    raw = chain_raw()
    raw["morphisms"][0]["identity"] = False
    with pytest.raises(ValidationError) as exc:
        validate(raw)
    assert any("MissingIdentity" in v for v in exc.value.violations)


def test_validate_reports_incomplete_composition():
    raw = chain_raw()
    raw["morphisms"][3:] = [{"id": "f1", "src": "x", "dst": "y"},
                            {"id": "f2", "src": "x", "dst": "y"},
                            {"id": "g1", "src": "y", "dst": "z"},
                            {"id": "g2", "src": "y", "dst": "z"},
                            {"id": "h", "src": "x", "dst": "z"}]
    raw["composition"] = [["g2", "f1", "h"]]
    with pytest.raises(ValidationError) as exc:
        validate(raw)
    assert exc.value.violations == [
        "IncompleteComposition: ('g1', 'f1')",
        "IncompleteComposition: ('g1', 'f2')",
        "IncompleteComposition: ('g2', 'f2')",
    ]


def test_validate_reports_non_associativity():
    raw = {
        "objects": ["x"],
        "morphisms": [
            {"id": "e", "src": "x", "dst": "x", "identity": True},
            {"id": "a", "src": "x", "dst": "x"},
            {"id": "b", "src": "x", "dst": "x"},
        ],
        # a*a = b, a*b = e, b*a = a, b*b = a: (a a) a = b a = a but a (a a) = a b = e
        "composition": [["a", "a", "b"], ["a", "b", "e"], ["b", "a", "a"], ["b", "b", "a"]],
    }
    with pytest.raises(ValidationError) as exc:
        validate(raw)
    assert exc.value.violations == [f"NonAssociative: {t}" for t in (
        ("a", "a", "a"), ("a", "b", "a"), ("b", "a", "a"), ("b", "a", "b"), ("b", "b", "a"),
        ("b", "b", "b"))]


def test_validate_refuses_a_non_boolean_identity_flag():
    raw = chain_raw()
    raw["morphisms"][3]["identity"] = "false"
    raw["morphisms"][4]["identity"] = 2.5
    raw["morphisms"][5]["identity"] = None
    with pytest.raises(ValidationError) as exc:
        validate(raw)
    assert exc.value.violations == [
        "BadIdentityFlag: morphism 'f' has identity 'false', not true or false",
        "BadIdentityFlag: morphism 'g' has identity 2.5, not true or false",
        "BadIdentityFlag: morphism 'h' has identity None, not true or false",
    ]


def _triple_walk(c):
    """The NonAssociative violations of c's composition table, walked triple
    by triple: the reference for the row comparison in `validate`.  c may
    be non-associative; its table must be complete, with the right
    endpoints and the identity laws."""
    into = {}
    for m in c.morphisms.values():
        if not m.identity:
            into.setdefault(m.dst, []).append(m.name)
    errs = []
    for f in c.morphisms.values():
        if f.identity:
            continue
        for g in into.get(f.src, ()):
            for h in into.get(c.morphisms[g].src, ()):
                if c.comp[(c.comp[(f.name, g)], h)] != c.comp[(f.name, c.comp[(g, h)])]:
                    errs.append(f"NonAssociative: ({f.name!r}, {g!r}, {h!r})")
    return errs


def _violations(c):
    try:
        validate(category_to_json(c))
    except ValidationError as exc:
        return exc.violations
    return []


def _corruptions(c):
    """(f, g, other) for every composite f∘g of non-identities and every
    other morphism with the same src and dst."""
    return [(f, g, other) for (f, g), fg in c.comp.items()
            if not (c.morphisms[f].identity or c.morphisms[g].identity)
            for other in c.hom(c.morphisms[g].src, c.morphisms[f].dst) if other != fg]


def _check_corruptions(c, corruptions):
    """Assert that `validate` reports what the triple walk reports on the
    copy of c with f∘g = other, for each (f, g, other); returns how many of
    the copies are rejected."""
    rejected = 0
    for f, g, other in corruptions:
        bad = FiniteCategory(c.objects, c.morphisms.values(), {**c.comp, (f, g): other})
        expected = _triple_walk(bad)
        assert _violations(bad) == expected, (f, g, other)
        rejected += bool(expected)
    return rejected


def _corpus_categories():
    return [c for seed in (0, 1) for _, c in corpus(seed)]


def test_row_check_accepts_what_the_triple_walk_accepts():
    for c in _corpus_categories() + [s3_transporter(1), s3_transporter(2)]:
        assert _triple_walk(c) == [] and _violations(c) == []


def test_row_check_reports_what_the_triple_walk_reports_on_the_corpus():
    """Every corruption of every category of corpus seeds 0/1: group_s3,
    the bisets, and transporters whose targets have hom-sets of two
    morphisms at most."""
    cats = _corpus_categories()
    assert sum(_check_corruptions(c, _corruptions(c)) for c in cats) > 0


def test_row_check_reports_what_the_triple_walk_reports_on_s3_on_singletons():
    c = s3_transporter(1)
    assert _check_corruptions(c, _corruptions(c)) > 0


def test_row_check_matches_the_triple_walk_on_sampled_corruptions():
    c = s3_transporter(2)
    assert _check_corruptions(c, random.Random(20).sample(_corruptions(c), 150)) > 0


def _light_sizes(monkeypatch):
    """|S| of every Light's test run from now on, in call order."""
    sizes = []
    light_generators = groups.light_generators

    def counted(*args):
        gens = light_generators(*args)
        sizes.append(len(gens))
        return gens

    monkeypatch.setattr(groups, "light_generators", counted)
    return sizes


def _relabelled_cyclic(n, rng):
    """The group category of Z_n under names drawn from rng, its morphisms
    listed as the powers of a unit u drawn from rng: the first non-identity,
    u itself, generates, so Light's test checks that one middle alone."""
    u = rng.choice([k for k in range(2, n) if gcd(k, n) == 1])
    names = [f"m{k}" for k in rng.sample(range(10 ** 6), n)]
    power = [names[u * k % n] for k in range(n)]
    return validate({
        "objects": ["x"],
        "morphisms": [{"id": m, "src": "x", "dst": "x", **({"identity": True} if not k else {})}
                      for k, m in enumerate(power)],
        "composition": [[power[i], power[j], power[(i + j) % n]]
                        for i in range(1, n) for j in range(1, n)]})


def test_light_test_reports_what_the_triple_walk_reports_on_z12(monkeypatch):
    """The relabelled group category of Z_12 passes Light's test with |S| = 1,
    and a corruption of any composite is reported as the triple walk
    reports it."""
    sizes = _light_sizes(monkeypatch)
    c = _relabelled_cyclic(12, random.Random(12))
    assert sizes == [1]
    assert _check_corruptions(c, _corruptions(c)) > 0


def test_light_test_needs_no_fallback_on_associative_tables(monkeypatch):
    """Neither `category._row_check` nor `groups._triple_walk` runs on S3 on
    B_3, B_4 or the group category of Z_200, or on the groups they are built
    from.  S holds 30 of the 162 morphisms of S3 on B_3 and one of Z_200;
    B_4 has no hom-set of two morphisms, so it runs no test at all."""
    walks = []
    monkeypatch.setattr(category, "_row_check", lambda *args: walks.append(args) or [])
    monkeypatch.setattr(groups, "_triple_walk", lambda *args: walks.append(args) or [])
    cats = [(s3_transporter(3), [30]), (poset_category(boolean_poset(4)), []),
            (group_category(cyclic_group(200)), [1])]
    sizes = _light_sizes(monkeypatch)
    for c, expected in cats:
        sizes.clear()
        assert validate(category_to_json(c)).comp == c.comp
        assert sizes == expected, sizes
    assert walks == []


def non_ei_raw():
    return {
        "objects": ["x"],
        "morphisms": [
            {"id": "e", "src": "x", "dst": "x", "identity": True},
            {"id": "t", "src": "x", "dst": "x"},
        ],
        "composition": [["t", "t", "t"]],  # t idempotent, not invertible
    }


def test_is_ei_flags_non_invertible_endomorphism():
    c = validate(non_ei_raw())
    ok, witness = is_ei(c)
    assert not ok and witness == "t"
    with pytest.raises(NotEI):
        presentation_of(c)


def two_object_isomorphic_raw():
    return {
        "objects": ["a", "b"],
        "morphisms": [
            {"id": "ia", "src": "a", "dst": "a", "identity": True},
            {"id": "ib", "src": "b", "dst": "b", "identity": True},
            {"id": "u", "src": "a", "dst": "b"},
            {"id": "v", "src": "b", "dst": "a"},
        ],
        "composition": [["v", "u", "ia"], ["u", "v", "ib"]],
    }


def test_skeletalize_collapses_isomorphic_objects():
    c = validate(two_object_isomorphic_raw())
    sk, rep = skeletalize(c)
    assert len(sk.objects) == 1 and sk.objects[0] == "a"  # earliest in input order
    assert rep == {"a": "a", "b": "a"}


def test_presentation_runs_the_ei_check_once_and_keeps_a_skeletal_category(monkeypatch):
    calls = []

    def counted(c):
        calls.append(c)
        return is_ei(c)

    builds = Counter()

    def build_inverses(c, _fn=FiniteCategory.inverses.func):
        builds[id(c)] += 1
        return _fn(c)

    counted_inverses = cached_property(build_inverses)
    counted_inverses.__set_name__(FiniteCategory, "inverses")
    monkeypatch.setattr(FiniteCategory, "inverses", counted_inverses)
    group_validations = []
    monkeypatch.setattr(GroupTable, "validate",
                        lambda g: group_validations.append(g) or g)
    monkeypatch.setattr(category, "is_ei", counted)
    c = poset_category(diamond_poset())
    assert skeletalize(c)[0] is c
    calls.clear()
    p = presentation_of(c)
    assert p.category is c and len(calls) == 1
    assert p.ordering == presentation_of(c).ordering
    t = s3_transporter(2)  # not skeletal: its skeleton is a second category
    group_validations.clear()
    q = presentation_of(t)
    assert q.category is not t and not group_validations
    assert builds == {id(c): 1, id(t): 1, id(q.category): 1}


def test_admissible_order_on_chain():
    c = poset_category(chain_poset(3, ["x", "y", "z"]))
    p = presentation_of(c)
    assert p.ordering == ["z", "y", "x"]  # morphisms flow to lower index
    assert p.hom_set(0, 2) == ["x_to_z"]
    assert p.hom_set(2, 0) == []


def test_admissible_order_on_diamond():
    p = presentation_of(poset_category(diamond_poset()))
    assert p.ordering[0] == "w" and p.ordering[-1] == "x"
    assert p.ordering[1:3] == ["y1", "y2"]  # tie broken by input order


def test_hom_empty_from_lower_to_higher_index():
    p = presentation_of(poset_category(diamond_poset()))
    for i in range(p.n):
        for j in range(i):
            assert p.hom_set(i, j) == []


def test_aut_groups_built_from_endomorphisms():
    from eicat.families import swap_transporter_category
    p = presentation_of(swap_transporter_category())
    orders = sorted(p.aut_group(i).order for i in range(p.n))
    assert orders == [1, 2]


def test_full_subcategory_and_json_roundtrip():
    c = poset_category(diamond_poset())
    sub = full_subcategory(c, ["x", "y1", "w"])
    assert len(sub.objects) == 3
    again = validate(category_to_json(sub))
    assert set(again.morphisms) == set(sub.morphisms)
    assert again.comp == sub.comp


def _shuffled(c, rng):
    """An isomorphic copy of c with new names and its objects, morphisms and
    composition entries in a random order drawn from rng."""
    raw = category_to_json(c)
    objects, morphisms, comp = raw["objects"], raw["morphisms"], raw["composition"]
    on = {x: f"o{k}" for x, k in zip(objects, rng.sample(range(10 ** 6), len(objects)))}
    mn = {m["id"]: f"m{k}" for m, k in zip(morphisms, rng.sample(range(10 ** 6), len(morphisms)))}
    for seq in (objects, morphisms, comp):
        rng.shuffle(seq)
    return validate({"objects": [on[x] for x in objects],
                     "morphisms": [{**m, "id": mn[m["id"]], "src": on[m["src"]],
                                    "dst": on[m["dst"]]} for m in morphisms],
                     "composition": [[mn[f], mn[g], mn[h]] for f, g, h in comp]})


def _reference_is_isomorphism(c, f):
    m = c.morphisms[f]
    return any(c.comp[(f, g)] == c.identity_of(m.dst) and c.comp[(g, f)] == c.identity_of(m.src)
               for g in c.hom(m.dst, m.src))


def _reference_presentation(c):
    """(EI flag and witness, skeleton map, ordering, Aut groups) by the
    definitions the table of inverses replaced: an isomorphism test per
    morphism, a scan of every pair of objects for the skeleton, a rescan of
    the objects left at each step of the order, and `GroupTable.validate`
    for each Aut(x)."""
    witness = next((f for x in c.objects for f in c.hom(x, x)
                    if not _reference_is_isomorphism(c, f)), None)
    if witness is not None:
        return (False, witness), None, None, None

    def isomorphic(x, y):
        return x == y or any(_reference_is_isomorphism(c, f) for f in c.hom(x, y))

    rep = {x: next(y for y in c.objects if isomorphic(y, x)) for x in c.objects}
    sk = full_subcategory(c, rep.values())
    remaining, ordering = list(sk.objects), []
    while remaining:
        x = next(x for x in remaining if not any(sk.hom(x, y) for y in remaining if y != x))
        ordering.append(x)
        remaining.remove(x)
    aut = {}
    for x in sk.objects:
        elems = sk.hom(x, x)
        table = {(g, h): sk.comp[(g, h)] for g in elems for h in elems}
        aut[x] = GroupTable(list(elems), table, sk.identity_of(x)).validate()
    return (True, None), rep, ordering, aut


def _differential_inputs():
    rng = random.Random(27)
    named = [c for seed in range(4) for _, c in corpus(seed)]
    named += [s3_transporter(2), s3_transporter(3), poset_category(boolean_poset(4)),
              validate(non_ei_raw())]
    return [c for c0 in named for c in (c0, _shuffled(c0, rng))]


def test_inverses_table_matches_the_pair_scans_and_the_group_check():
    collapsed = Counter()
    for c in _differential_inputs():
        ei, rep, ordering, aut = _reference_presentation(c)
        assert is_ei(c) == ei
        if not ei[0]:
            continue
        assert skeletalize(c)[1] == rep
        p = presentation_of(c)
        collapsed[p.category is not c] += 1
        assert p.ordering == ordering
        assert p.aut.keys() == aut.keys()
        for x, g in p.aut.items():
            ref = aut[x]
            assert (g.elements, g.table, g.identity) == (ref.elements, ref.table, ref.identity)
            assert [g.inverse(e) for e in g.elements] == [ref.inverse(e) for e in ref.elements]
    assert collapsed[True] and collapsed[False], collapsed
