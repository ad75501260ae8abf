"""Finite categories from composition tables: validation, the EI check,
skeletalization, and the admissible object ordering."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

from .groups import BiSet, GroupTable


class CategoryError(Exception):
    pass


class ValidationError(CategoryError):
    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


class NotEI(CategoryError):
    pass


class NotSkeletal(CategoryError):
    pass


@dataclass(frozen=True)
class Morphism:
    name: str
    src: str
    dst: str
    identity: bool = False


class FiniteCategory:
    """A finite category: objects, morphisms, and a composition table.

    Built through `validate`; assumed immutable afterwards."""

    def __init__(self, objects, morphisms, comp):
        self.objects = list(objects)
        self.morphisms = {m.name: m for m in morphisms}
        self.comp = dict(comp)  # (f, g) -> f∘g, with src(f) = dst(g)
        self._hom = {}
        for m in self.morphisms.values():
            self._hom.setdefault((m.src, m.dst), []).append(m.name)
        self._identity = {m.src: m.name for m in self.morphisms.values() if m.identity}

    def hom(self, x, y):
        """Names of morphisms x -> y, in input order."""
        return self._hom.get((x, y), [])

    def identity_of(self, x):
        return self._identity[x]

    def compose(self, f, g):
        """f∘g for src(f) = dst(g)."""
        return self.comp[(f, g)]

    def is_isomorphism(self, f):
        m = self.morphisms[f]
        for g in self.hom(m.dst, m.src):
            if self.comp[(f, g)] == self.identity_of(m.dst) and \
                    self.comp[(g, f)] == self.identity_of(m.src):
                return True
        return False

    def __len__(self):
        return len(self.morphisms)


def _is_name(x):
    """Whether x can name an object or a morphism: it must be hashable."""
    try:
        hash(x)
    except TypeError:
        return False
    return True


def validate(raw) -> FiniteCategory:
    """Validate a raw description {objects, morphisms, composition}.

    Compositions with identities may be omitted; they are inferred.  Reports
    every violation found via ValidationError, malformed JSON shapes
    included."""
    if not isinstance(raw, dict):
        raise ValidationError([f"a category must be a JSON object, not {type(raw).__name__}"])
    errs = []
    unknown = set(raw) - {"objects", "morphisms", "composition"}
    if unknown:
        raise ValidationError([f"unknown top-level keys: {sorted(unknown)}"])
    sections = {}
    for key in ("objects", "morphisms", "composition"):
        sections[key] = raw.get(key, [])
        if not isinstance(sections[key], (list, tuple)):
            errs.append(f"{key!r} must be a list, not {type(sections[key]).__name__}")
            sections[key] = []
    objects = [x for x in sections["objects"] if _is_name(x)]
    if len(objects) != len(sections["objects"]):
        errs.append("object names must be strings or numbers")
    if len(set(objects)) != len(objects):
        errs.append("duplicate object names")

    morphisms = []
    names = set()
    for k, rec in enumerate(sections["morphisms"]):
        if not isinstance(rec, dict):
            errs.append(f"morphism record {k} is not an object")
            continue
        bad_keys = set(rec) - {"id", "src", "dst", "identity"}
        if bad_keys:
            errs.append(f"unknown morphism keys: {sorted(bad_keys)}")
        if "id" not in rec or "src" not in rec or "dst" not in rec:
            missing = [key for key in ("id", "src", "dst") if key not in rec]
            errs.append(f"morphism record {k} lacks keys {missing}")
            continue
        name = rec["id"]
        try:
            duplicate = name in names
        except TypeError:  # an unhashable id
            errs.append(f"morphism record {k} has an id that is not a string or number")
            continue
        if duplicate:
            errs.append(f"duplicate morphism id {name!r}")
        names.add(name)
        if rec["src"] not in objects or rec["dst"] not in objects:
            errs.append(f"BadEndpoints: morphism {name!r} has unknown src/dst")
            continue
        morphisms.append(Morphism(name, rec["src"], rec["dst"], bool(rec.get("identity", False))))
    if errs:
        raise ValidationError(errs)

    by_name = {m.name: m for m in morphisms}
    identities = {}
    for m in morphisms:
        if m.identity:
            if m.src != m.dst:
                errs.append(f"BadEndpoints: identity {m.name!r} with src != dst")
            elif m.src in identities:
                errs.append(f"MissingIdentity: two identities flagged for {m.src!r}")
            else:
                identities[m.src] = m.name
    for x in objects:
        if x not in identities:
            errs.append(f"MissingIdentity: object {x!r}")
    if errs:
        raise ValidationError(errs)

    comp = {}
    for k, entry in enumerate(sections["composition"]):
        if not isinstance(entry, (list, tuple)) or len(entry) != 3:
            errs.append(f"IncompleteComposition: entry {k} is not a triple [f, g, f∘g]")
            continue
        f, g, h = entry
        try:
            known = f in by_name and g in by_name and h in by_name
        except TypeError:  # an unhashable name
            known = False
        if not known:
            errs.append(f"IncompleteComposition: unknown morphism in ({f!r}, {g!r}, {h!r})")
            continue
        if by_name[f].src != by_name[g].dst:
            errs.append(f"BadEndpoints: composition {f!r}∘{g!r} with src({f!r}) != dst({g!r})")
            continue
        if by_name[h].src != by_name[g].src or by_name[h].dst != by_name[f].dst:
            errs.append(f"BadEndpoints: {f!r}∘{g!r} = {h!r} has wrong endpoints")
            continue
        if (f, g) in comp and comp[(f, g)] != h:
            errs.append(f"IncompleteComposition: conflicting entries for ({f!r}, {g!r})")
        comp[(f, g)] = h

    # infer (and cross-check) compositions with identities
    for m in morphisms:
        for pair, expected in (((m.name, identities[m.src]), m.name),
                               ((identities[m.dst], m.name), m.name)):
            if pair in comp:
                if comp[pair] != expected:
                    errs.append(f"NonAssociative: identity law fails at {pair}")
            else:
                comp[pair] = expected

    into = {}  # object -> the morphisms into it, in by_name order
    for m in by_name.values():
        into.setdefault(m.dst, []).append(m)
    for f in by_name.values():
        for g in into.get(f.src, ()):
            if (f.name, g.name) not in comp:
                errs.append(f"IncompleteComposition: ({f.name!r}, {g.name!r})")
    if errs:
        raise ValidationError(errs)

    # a triple with an identity in it is associative by the identity laws above
    proper = {x: [m for m in ms if not m.identity] for x, ms in into.items()}
    for f in by_name.values():
        if f.identity:
            continue
        for g in proper.get(f.src, ()):
            fg = comp[(f.name, g.name)]
            for h in proper.get(g.src, ()):
                gh = comp[(g.name, h.name)]
                if comp[(fg, h.name)] != comp[(f.name, gh)]:
                    errs.append(f"NonAssociative: ({f.name!r}, {g.name!r}, {h.name!r})")
    if errs:
        raise ValidationError(errs)

    return FiniteCategory(objects, morphisms, comp)


def is_ei(c: FiniteCategory):
    """Every endomorphism is an isomorphism.  Returns (flag, counterexample)."""
    for x in c.objects:
        for f in c.hom(x, x):
            if not c.is_isomorphism(f):
                return False, f
    return True, None


def _isomorphic(c, x, y):
    if x == y:
        return True
    for f in c.hom(x, y):
        for g in c.hom(y, x):
            if c.comp[(f, g)] == c.identity_of(y) and c.comp[(g, f)] == c.identity_of(x):
                return True
    return False


def skeletalize(c: FiniteCategory):
    """Full subcategory on one representative per isomorphism class.

    The representative is the earliest object in input order.  Returns
    (skeletal category, object -> representative map); the category is c
    itself when no two of its objects are isomorphic."""
    ok, witness = is_ei(c)
    if not ok:
        raise NotEI(f"endomorphism {witness!r} is not an isomorphism")
    rep = {}
    for x in c.objects:
        for y in c.objects:
            if _isomorphic(c, y, x):
                rep[x] = y
                break
    if all(rep[x] == x for x in c.objects):
        return c, rep
    return full_subcategory(c, rep.values()), rep


class Factorizations(NamedTuple):
    """How the morphisms of a category factor through non-isomorphisms.

    `non_isos` lists the non-isomorphisms in morphism order.
    `unfactorizable` holds those that are not the composite of two
    non-isomorphisms.  `first_steps[alpha]` lists, in composition-table
    order, the pairs (a1, a2) with alpha = a2∘a1 and a1 unfactorizable."""

    non_isos: tuple
    unfactorizable: frozenset
    first_steps: dict


def factorizations(c: FiniteCategory) -> Factorizations:
    """`Factorizations` of c from one pass over its composition table, with
    one isomorphism test per morphism (`freeness.is_unfactorizable` is the
    reference definition of an unfactorizable morphism)."""
    iso = {m: c.is_isomorphism(m) for m in c.morphisms}
    composites = set()
    steps = {}  # h -> (g, f) with h = f∘g, g a non-isomorphism
    for (f, g), h in c.comp.items():
        if iso[g]:
            continue
        steps.setdefault(h, []).append((g, f))
        if not iso[f]:
            composites.add(h)
    unf = frozenset(m for m in c.morphisms if not iso[m] and m not in composites)
    first = {h: tuple(s for s in pairs if s[0] in unf) for h, pairs in steps.items()}
    return Factorizations(tuple(m for m in c.morphisms if not iso[m]), unf, first)


@dataclass
class SkeletalEIPresentation:
    """A skeletal EI category with the admissible ordering x_1..x_n:
    Hom(x_i, x_j) is empty whenever i < j.

    Assumed immutable once built, like its category; `factorizations` is
    computed on first use and kept for the presentation's lifetime."""

    category: FiniteCategory
    ordering: list  # object names, x_1 first
    aut: dict = field(default_factory=dict)  # object -> GroupTable

    @property
    def n(self):
        return len(self.ordering)

    def hom_set(self, i, j):
        """Hom(x_j, x_i) for 0-based i <= j (morphisms x_j -> x_i)."""
        return self.category.hom(self.ordering[j], self.ordering[i])

    @cached_property
    def factorizations(self) -> Factorizations:
        return factorizations(self.category)

    def unfactorizable_homs(self, i, j):
        """The unfactorizable morphisms x_j -> x_i, in hom-set order (a new
        list)."""
        unf = self.factorizations.unfactorizable
        return [m for m in self.hom_set(i, j) if m in unf]

    def aut_group(self, i) -> GroupTable:
        return self.aut[self.ordering[i]]

    def biset(self, i, j) -> BiSet:
        """Hom(x_j, x_i) with the left Aut(x_i)- and right Aut(x_j)-actions."""
        c = self.category
        xi, xj = self.ordering[i], self.ordering[j]
        s = self.hom_set(i, j)
        left = {(g, m): c.compose(g, m) for g in c.hom(xi, xi) for m in s}
        right = {(m, h): c.compose(m, h) for m in s for h in c.hom(xj, xj)}
        return BiSet(self.aut_group(i), self.aut_group(j), list(s), left, right)


def admissible_order(c: FiniteCategory) -> SkeletalEIPresentation:
    """Order the objects so morphisms flow from higher index to lower.

    Topological sort of "x <= y iff Hom(x, y) nonempty", ties broken by input
    order; requires a skeletal EI category."""
    ok, witness = is_ei(c)
    if not ok:
        raise NotEI(f"endomorphism {witness!r} is not an isomorphism")
    for x in c.objects:
        for y in c.objects:
            if x != y and _isomorphic(c, x, y):
                raise NotSkeletal(f"{x!r} and {y!r} are isomorphic")
    return _ordered(c)


def _ordered(c: FiniteCategory) -> SkeletalEIPresentation:
    """`admissible_order` of c, known to be skeletal and EI."""
    remaining = list(c.objects)
    ordering = []
    while remaining:
        for x in remaining:
            if not any(c.hom(x, y) for y in remaining if y != x):
                ordering.append(x)
                remaining.remove(x)
                break
        else:
            raise NotEI("cycle among distinct objects")

    aut = {}
    for x in c.objects:
        elems = c.hom(x, x)
        table = {(g, h): c.comp[(g, h)] for g in elems for h in elems}
        aut[x] = GroupTable(list(elems), table, c.identity_of(x)).validate()
    return SkeletalEIPresentation(c, ordering, aut)


def presentation_of(c: FiniteCategory) -> SkeletalEIPresentation:
    """Skeletalize if needed, then take the admissible ordering; the EI
    check runs once, in `skeletalize`."""
    sk, _ = skeletalize(c)
    return _ordered(sk)


def full_subcategory(c: FiniteCategory, objects) -> FiniteCategory:
    keep_set = set(objects)
    keep = [x for x in c.objects if x in keep_set]
    morphisms = [m for m in c.morphisms.values() if m.src in keep_set and m.dst in keep_set]
    names = {m.name for m in morphisms}
    comp = {pair: h for pair, h in c.comp.items() if pair[0] in names and pair[1] in names}
    return FiniteCategory(keep, morphisms, comp)


def category_to_json(c: FiniteCategory):
    return {
        "objects": list(c.objects),
        "morphisms": [
            {"id": m.name, "src": m.src, "dst": m.dst, **({"identity": True} if m.identity else {})}
            for m in c.morphisms.values()
        ],
        "composition": [[f, g, h] for (f, g), h in sorted(c.comp.items())
                        if not (c.morphisms[f].identity or c.morphisms[g].identity)],
    }
