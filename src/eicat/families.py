"""Example families of finite EI categories: poset categories, transporter
categories, one-object group categories, biset-presented categories, and a
deterministic bounded random corpus."""

from __future__ import annotations

import random
from dataclasses import dataclass

from .category import FiniteCategory, ValidationError, validate
from .groups import GroupAction, GroupTable, cyclic_group, symmetric_group_3
from .groups import json_names


class FamilyError(Exception):
    pass


class NotOrderPreserving(FamilyError):
    pass


class AssociativityFailure(FamilyError):
    pass


@dataclass
class Poset:
    """A finite poset; the relation is stored reflexively and transitively
    closed, antisymmetry checked after closure."""

    elements: list
    leq: set  # pairs (x, y) with x <= y

    @classmethod
    def from_pairs(cls, elements, pairs):
        elements = list(elements)
        eset = set(elements)
        for x, y in pairs:
            if x not in eset or y not in eset:
                raise FamilyError(f"relation pair ({x!r}, {y!r}) outside the elements")
        leq = {(x, x) for x in elements} | {tuple(p) for p in pairs}
        changed = True
        while changed:
            changed = False
            for (a, b) in list(leq):
                for (c, d) in list(leq):
                    if b == c and (a, d) not in leq:
                        leq.add((a, d))
                        changed = True
        for x in elements:
            for y in elements:
                if x != y and (x, y) in leq and (y, x) in leq:
                    raise FamilyError(f"antisymmetry fails at ({x!r}, {y!r})")
        return cls(elements, leq)

    def le(self, x, y):
        return (x, y) in self.leq

    def interval(self, x, y):
        return [z for z in self.elements if self.le(x, z) and self.le(z, y)]

    @classmethod
    def from_json(cls, obj):
        if not isinstance(obj, dict) or set(obj) != {"elements", "relation"}:
            raise FamilyError('a poset is a JSON object with the keys "elements" and "relation"')
        return cls.from_pairs(json_names(obj["elements"], "elements", FamilyError),
                              json_names(obj["relation"], "relation", FamilyError, 2))

    def to_json(self):
        return {"elements": list(self.elements),
                "relation": sorted([x, y] for (x, y) in self.leq if x != y)}


def poset_category(p: Poset) -> FiniteCategory:
    """Hom(x, y) a singleton iff x <= y; composition forced."""
    morphisms = []
    for x, y in sorted(p.leq, key=lambda t: (p.elements.index(t[0]), p.elements.index(t[1]))):
        if x == y:
            morphisms.append({"id": f"id_{x}", "src": x, "dst": x, "identity": True})
        else:
            morphisms.append({"id": f"{x}_to_{y}", "src": x, "dst": y})
    name = {(x, y): (f"id_{x}" if x == y else f"{x}_to_{y}") for (x, y) in p.leq}
    comp = []
    for (x, y) in p.leq:
        for (y2, z) in p.leq:
            if y == y2 and x != y and y != z:
                comp.append([name[(y, z)], name[(x, y)], name[(x, z)]])
    return validate({"objects": list(p.elements), "morphisms": morphisms,
                     "composition": comp})


def poset_is_free(p: Poset) -> bool:
    """Every closed interval [x, y] is a chain."""
    for x in p.elements:
        for y in p.elements:
            if not p.le(x, y):
                continue
            iv = p.interval(x, y)
            for a in iv:
                for b in iv:
                    if not (p.le(a, b) or p.le(b, a)):
                        return False
    return True


def transporter_category(g: GroupTable, p: Poset, action: GroupAction) -> FiniteCategory:
    """Objects the poset elements, morphisms x -> y the group elements with
    g.x <= y, composition by multiplication."""
    action.validate()
    if action.group.table != g.table:
        raise FamilyError("the action is by another group")
    if list(action.set) != list(p.elements):
        raise FamilyError("action set differs from poset elements")
    for e in g.elements:
        for x, y in p.leq:
            if not p.le(action.apply(e, x), action.apply(e, y)):
                raise NotOrderPreserving(f"{e!r} does not preserve <=")
    morphisms = []
    comp = []
    name = {}
    for x in p.elements:
        for y in p.elements:
            for e in g.elements:
                if p.le(action.apply(e, x), y):
                    ident = e == g.identity and x == y
                    nm = f"id_{x}" if ident else f"{e};{x}->{y}"
                    name[(e, x, y)] = nm
                    morphisms.append({"id": nm, "src": x, "dst": y,
                                      **({"identity": True} if ident else {})})
    for (e1, x1, y1), n1 in name.items():
        for (e2, x2, y2), n2 in name.items():
            if x1 == y2:  # n1 after n2
                n3 = name[(g.mul(e1, e2), x2, y1)]
                comp.append([n1, n2, n3])
    return validate({"objects": list(p.elements), "morphisms": morphisms,
                     "composition": comp})


def group_category(g: GroupTable) -> FiniteCategory:
    morphisms = [{"id": e, "src": "x", "dst": "x",
                  **({"identity": True} if e == g.identity else {})}
                 for e in g.elements]
    comp = [[a, b, g.mul(a, b)] for a in g.elements for b in g.elements
            if a != g.identity and b != g.identity]
    return validate({"objects": ["x"], "morphisms": morphisms, "composition": comp})


def biset_category(objects, auts, homs) -> FiniteCategory:
    """A category from explicit Hom data.

    objects: ordered names; auts: object -> GroupTable; homs: (i, j) with
    i < j -> (set names, left action table, right action table) for
    morphisms objects[j] -> objects[i], no two of which compose.
    Associativity is verified on the assembled category."""
    morphisms = []
    comp = []
    for idx, obj in enumerate(objects):
        g = auts[obj]
        for e in g.elements:
            nm = f"{obj}.{e}"
            morphisms.append({"id": nm, "src": obj, "dst": obj,
                              **({"identity": True} if e == g.identity else {})})
        for a in g.elements:
            for b in g.elements:
                if a != g.identity and b != g.identity:
                    comp.append([f"{obj}.{a}", f"{obj}.{b}", f"{obj}.{g.mul(a, b)}"])
    for (i, j), (names, left, right) in homs.items():
        dst, src = objects[i], objects[j]
        for nm in names:
            morphisms.append({"id": nm, "src": src, "dst": dst})
        for g in auts[dst].elements:
            if g == auts[dst].identity:
                continue
            for nm in names:
                comp.append([f"{dst}.{g}", nm, left[(g, nm)]])
        for h in auts[src].elements:
            if h == auts[src].identity:
                continue
            for nm in names:
                comp.append([nm, f"{src}.{h}", right[(nm, h)]])
    try:
        return validate({"objects": list(objects), "morphisms": morphisms,
                         "composition": comp})
    except ValidationError as e:
        if any("NonAssociative" in v for v in e.violations):
            raise AssociativityFailure(str(e)) from e
        raise


# named instances


def chain_poset(n=3, names=None):
    names = names or [f"x{i}" for i in range(1, n + 1)]
    return Poset.from_pairs(names, [(names[i], names[i + 1]) for i in range(n - 1)])


def diamond_poset():
    return Poset.from_pairs(["x", "y1", "y2", "w"],
                            [("x", "y1"), ("x", "y2"), ("y1", "w"), ("y2", "w")])


def regular_orbit_category() -> FiniteCategory:
    """Two objects; Aut(x_2) = Z/2 acting regularly on Hom(x_2, x_1) = {a, ag}."""
    z2 = cyclic_group(2)
    triv = cyclic_group(1)
    homs = {(0, 1): (["a", "ag"],
                     {},  # trivial left group contributes no rows
                     {("a", "g"): "ag", ("ag", "g"): "a",
                      ("a", "e"): "a", ("ag", "e"): "ag"})}
    return biset_category(["x1", "x2"], {"x1": triv, "x2": z2}, homs)


def stabilized_alpha_category() -> FiniteCategory:
    """Two objects; Aut(x_2) = Z/2 fixing the single morphism alpha."""
    z2 = cyclic_group(2)
    triv = cyclic_group(1)
    homs = {(0, 1): (["alpha"], {}, {("alpha", "g"): "alpha", ("alpha", "e"): "alpha"})}
    return biset_category(["x1", "x2"], {"x1": triv, "x2": z2}, homs)


def swap_transporter_category() -> FiniteCategory:
    """Z/2 swapping two incomparable points under a fixed top element."""
    p = Poset.from_pairs(["a", "b", "t"], [("a", "t"), ("b", "t")])
    z2 = cyclic_group(2)
    act = {("e", "a"): "a", ("e", "b"): "b", ("e", "t"): "t",
           ("g", "a"): "b", ("g", "b"): "a", ("g", "t"): "t"}
    return transporter_category(z2, p, GroupAction(z2, ["a", "b", "t"], act))


def diamond_transporter_category() -> FiniteCategory:
    """Z/2 swapping the two middle elements of the diamond; not free."""
    p = diamond_poset()
    z2 = cyclic_group(2)
    act = {("e", x): x for x in p.elements}
    act.update({("g", "x"): "x", ("g", "y1"): "y2", ("g", "y2"): "y1", ("g", "w"): "w"})
    return transporter_category(z2, p, GroupAction(z2, list(p.elements), act))


# corpus generation: a random instance has at most MAX_OBJECTS objects and
# algebra dimension at most MAX_ALGEBRA_DIM

MAX_OBJECTS = 4
MAX_ALGEBRA_DIM = 64


def _random_poset(rng):
    n = rng.randint(2, MAX_OBJECTS)
    names = [f"p{i}" for i in range(n)]
    density = rng.choice([0.3, 0.45, 0.65])
    pairs = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < density:
                pairs.append((names[i], names[j]))
    try:
        return Poset.from_pairs(names, pairs)
    except FamilyError:
        return None


def _random_order_two_action(rng, p):
    """A random involution of the poset elements; None if none preserves <=."""
    elems = list(p.elements)
    rng.shuffle(elems)
    perm = {x: x for x in p.elements}
    for i in range(0, len(elems) - 1, 2):
        if rng.random() < 0.7:
            perm[elems[i]], perm[elems[i + 1]] = elems[i + 1], elems[i]
    for x, y in p.leq:
        if not p.le(perm[x], perm[y]):
            return None
    z2 = cyclic_group(2)
    act = {("e", x): x for x in p.elements}
    act.update({("g", x): perm[x] for x in p.elements})
    return z2, GroupAction(z2, list(p.elements), act)


def _coset_biset_category(rng):
    """Two objects with Aut(x_2) cyclic acting on right cosets of a subgroup;
    the left group acts trivially."""
    n2 = rng.choice([2, 3, 4, 6])
    d = rng.choice([k for k in range(1, n2 + 1) if n2 % k == 0])
    z = cyclic_group(n2)
    triv = cyclic_group(1)
    size = n2 // d
    names = [f"c{i}" for i in range(size)]
    # right multiplication on cosets of the subgroup of index `size`
    right = {}
    for i, nm in enumerate(names):
        for j, e in enumerate(z.elements):
            right[(nm, e)] = names[(i + j) % size]
    homs = {(0, 1): (names, {}, right)}
    return biset_category(["x1", "x2"], {"x1": triv, "x2": z}, homs)


def _left_orbit_category(rng):
    """Two objects with Aut(x_1) acting on Hom(x_2, x_1) by left translation
    on cosets; trivial Aut(x_2)."""
    n1 = rng.choice([2, 3, 4, 6])
    d = rng.choice([k for k in range(1, n1 + 1) if n1 % k == 0])
    g1 = cyclic_group(n1)
    triv = cyclic_group(1)
    size = n1 // d
    names = [f"b{i}" for i in range(size)]
    left = {}
    for j, e in enumerate(g1.elements):
        for i, nm in enumerate(names):
            left[(e, nm)] = names[(i + j) % size]
    right = {(nm, "e"): nm for nm in names}
    homs = {(0, 1): (names, left, right)}
    return biset_category(["x1", "x2"], {"x1": g1, "x2": triv}, homs)


def corpus(seed=0):
    """Deterministic stream of (name, FiniteCategory) pairs: the named
    instances first, then bounded random posets, transporter categories, and
    two-object biset categories."""
    rng = random.Random(seed)
    out = []

    out.append(("chain_a3", poset_category(chain_poset(3, ["x", "y", "z"]))))
    out.append(("diamond", poset_category(diamond_poset())))
    out.append(("antichain_2", poset_category(Poset.from_pairs(["a", "b"], []))))
    out.append(("group_z2", group_category(cyclic_group(2))))
    out.append(("group_z3", group_category(cyclic_group(3))))
    out.append(("group_s3", group_category(symmetric_group_3())))
    out.append(("regular_orbit", regular_orbit_category()))
    out.append(("stabilized_alpha", stabilized_alpha_category()))
    out.append(("swap_transporter", swap_transporter_category()))
    out.append(("diamond_transporter", diamond_transporter_category()))
    out.append(("chain_a4", poset_category(chain_poset(4))))

    made = 0
    while made < 10:
        p = _random_poset(rng)
        if p is None:
            continue
        c = poset_category(p)
        if len(c) <= MAX_ALGEBRA_DIM:
            out.append((f"poset_{made}", c))
            made += 1

    made = 0
    while made < 6:
        p = _random_poset(rng)
        if p is None:
            continue
        pick = _random_order_two_action(rng, p)
        if pick is None:
            continue
        g, act = pick
        c = transporter_category(g, p, act)
        if len(c) <= MAX_ALGEBRA_DIM:
            out.append((f"transporter_{made}", c))
            made += 1

    made = 0
    while made < 8:
        c = _coset_biset_category(rng) if made % 2 == 0 else _left_orbit_category(rng)
        if len(c) <= MAX_ALGEBRA_DIM:
            out.append((f"biset_{made}", c))
            made += 1

    return out
