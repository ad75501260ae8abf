"""Finite categories from composition tables: validation, the EI check,
skeletalization, and the admissible object ordering."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from heapq import heappop, heappush
from itertools import chain
from typing import NamedTuple

from .groups import GroupTable, light_associative


class CategoryError(Exception):
    pass


class ValidationError(CategoryError):
    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


class NotEI(CategoryError):
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

    @cached_property
    def inverses(self):
        """{f: f⁻¹} over the isomorphisms f, from one scan of Hom(dst f, src f)
        per morphism (an inverse is unique); computed on first use and kept."""
        ids = self._identity
        return {f: g for f, m in self.morphisms.items() for g in self.hom(m.dst, m.src)
                if (self.comp[(f, g)], self.comp[(g, f)]) == (ids[m.dst], ids[m.src])}

    def is_isomorphism(self, f):
        return f in self.inverses

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
    included.

    Associativity is checked by Light's test (`groups.light_associative`).
    Let M be the set of middles s with (f∘s)∘h = f∘(s∘h) for every
    composable f and h.  If a and b are in M, so is a∘b:
        (f∘(a∘b))∘h = ((f∘a)∘b)∘h = (f∘a)∘(b∘h) = f∘(a∘(b∘h)) = f∘((a∘b)∘h).
    The identities are in M by the identity laws, and `light_generators`
    picks S, endomorphisms first, then the other non-identities in input
    order, until the closure V <- V ∪ {v∘s} of the identities covers every
    morphism; V lies in M once S does, with no associativity assumed.  So
    only the s in S are checked, against the non-identity f and h: an
    identity f or h passes by the identity laws, and so does an f into an
    object none of whose hom-sets holds two morphisms, as both composites
    lie in Hom(src h, dst f).  No triple is checked when no hom-set holds
    two.  Only when the test fails does `_row_check` run, so the
    NonAssociative messages, and their order, are those of the walk over
    every triple (f, g, h) of non-identities."""
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
    if not sections["objects"]:
        errs.append("a category needs at least one object")

    object_set = set(objects)
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
        try:
            known = rec["src"] in object_set and rec["dst"] in object_set
        except TypeError:  # an unhashable src or dst
            known = False
        if not known:
            errs.append(f"BadEndpoints: morphism {name!r} has unknown src/dst")
            continue
        flag = rec.get("identity", False)
        if not isinstance(flag, bool):
            errs.append(f"BadIdentityFlag: morphism {name!r} has identity {flag!r}, "
                        "not true or false")
            continue
        morphisms.append(Morphism(name, rec["src"], rec["dst"], flag))
    if errs:
        raise ValidationError(errs)

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
    ends = {m.name: (m.src, m.dst) for m in morphisms}
    after = {m.name: {} for m in morphisms}  # f -> {g: f∘g}, comp by rows
    for k, entry in enumerate(sections["composition"]):
        if not isinstance(entry, (list, tuple)) or len(entry) != 3:
            errs.append(f"IncompleteComposition: entry {k} is not a triple [f, g, f∘g]")
            continue
        f, g, h = entry
        try:
            (f_src, f_dst), (g_src, g_dst), (h_src, h_dst) = ends[f], ends[g], ends[h]
        except (KeyError, TypeError):  # an unknown or unhashable name
            errs.append(f"IncompleteComposition: unknown morphism in ({f!r}, {g!r}, {h!r})")
            continue
        if f_src != g_dst:
            errs.append(f"BadEndpoints: composition {f!r}∘{g!r} with src({f!r}) != dst({g!r})")
            continue
        if h_src != g_src or h_dst != f_dst:
            errs.append(f"BadEndpoints: {f!r}∘{g!r} = {h!r} has wrong endpoints")
            continue
        row = after[f]
        if row.setdefault(g, h) != h:
            errs.append(f"IncompleteComposition: conflicting entries for ({f!r}, {g!r})")
            row[g] = h
        comp[(f, g)] = h

    # infer (and cross-check) compositions with identities
    for m in morphisms:
        for pair, expected in (((m.name, identities[m.src]), m.name),
                               ((identities[m.dst], m.name), m.name)):
            if pair in comp:
                if comp[pair] != expected:
                    errs.append(f"NonAssociative: identity law fails at {pair}")
            else:
                comp[pair] = after[pair[0]][pair[1]] = expected

    into = {}  # object -> the morphisms into it, in input order
    for m in morphisms:
        into.setdefault(m.dst, []).append(m)
    for f in morphisms:  # after[f] holds only morphisms into src f
        if len(after[f.name]) != len(into[f.src]):
            errs.extend(f"IncompleteComposition: ({f.name!r}, {g.name!r})"
                        for g in into[f.src] if g.name not in after[f.name])
    if errs:
        raise ValidationError(errs)

    proper = {x: [m.name for m in ms if not m.identity] for x, ms in into.items()}
    multi = {y for y, ms in into.items() if len(ms) > len({m.src for m in ms})}
    if multi:
        lefts = {}
        for m in morphisms:
            if not m.identity and m.dst in multi:
                lefts.setdefault(m.src, []).append(m.name)
        candidates = [m.name for m in morphisms if m.src == m.dst and not m.identity]
        candidates += [m.name for m in morphisms if m.src != m.dst]
        if not light_associative(after, ends, candidates, identities.values(), lefts, proper):
            errs = _row_check(morphisms, after, ends, proper, multi)
            if errs:
                raise ValidationError(errs)

    return FiniteCategory(objects, morphisms, comp)


def _row_check(morphisms, after, ends, proper, multi):
    """The NonAssociative messages of a complete table with the identity
    laws, in the order of the walk over every triple (f, g, h) of
    non-identities with dst f in `multi` (both composites lie in
    Hom(src h, dst f), so no other f can fail).  For each such f the list
    of (f∘g)∘h over the composable pairs (g, h) is compared with that of
    f∘(g∘h) in one step, and walked triple by triple only when they differ.
    rows[m] lists the m∘h over the proper h into src m (m an identity too:
    f∘g is one when g = f⁻¹), block[x] joins the rows of the proper g into
    x, in walk order, and left = after[f] gives f∘k for every k into src f
    (identities included: g∘h can be one)."""
    errs = []
    checked = [f for f in morphisms if not f.identity and f.dst in multi]
    sources = {f.src for f in checked}
    rows = {m.name: list(map(after[m.name].__getitem__, proper[m.src]))
            for m in morphisms if m.dst in multi or m.dst in sources}
    block = {x: list(chain.from_iterable(map(rows.__getitem__, proper[x]))) for x in sources}
    for f in checked:
        left = after[f.name]
        gs = proper[f.src]
        fg_h = list(chain.from_iterable(map(rows.__getitem__, map(left.__getitem__, gs))))
        f_gh = list(map(left.__getitem__, block[f.src]))
        if fg_h != f_gh:
            triples = ((g, h) for g in gs for h in proper[ends[g][0]])
            errs.extend(f"NonAssociative: ({f.name!r}, {g!r}, {h!r})"
                        for (g, h), a, b in zip(triples, fg_h, f_gh) if a != b)
    return errs


def is_ei(c: FiniteCategory):
    """Every endomorphism is an isomorphism.  Returns (flag, counterexample)."""
    for x in c.objects:
        for f in c.hom(x, x):
            if f not in c.inverses:
                return False, f
    return True, None


def skeletalize(c: FiniteCategory):
    """Full subcategory on one representative per isomorphism class.

    The representative is the earliest object in input order.  Returns
    (skeletal category, object -> representative map); the category is c
    itself when no two of its objects are isomorphic.  Isomorphic objects are
    joined by an isomorphism, so one pass over `inverses` finds them all."""
    ok, witness = is_ei(c)
    if not ok:
        raise NotEI(f"endomorphism {witness!r} is not an isomorphism")
    place = {x: i for i, x in enumerate(c.objects)}
    rep = {x: x for x in c.objects}
    for f in c.inverses:
        m = c.morphisms[f]
        if place[m.src] < place[rep[m.dst]]:
            rep[m.dst] = m.src
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
    """`Factorizations` of c from one pass over its composition table and its
    `inverses` (`freeness.is_unfactorizable` is the reference definition of
    an unfactorizable morphism)."""
    iso = c.inverses
    composites = set()
    steps = {}  # h -> (g, f) with h = f∘g, g a non-isomorphism
    for (f, g), h in c.comp.items():
        if g in iso:
            continue
        steps.setdefault(h, []).append((g, f))
        if f not in iso:
            composites.add(h)
    unf = frozenset(m for m in c.morphisms if m not in iso and m not in composites)
    first = {h: tuple(s for s in pairs if s[0] in unf) for h, pairs in steps.items()}
    return Factorizations(tuple(m for m in c.morphisms if m not in iso), unf, first)


@dataclass
class SkeletalEIPresentation:
    """A skeletal EI category with the admissible ordering x_1..x_n:
    Hom(x_i, x_j) is empty whenever i < j.

    Assumed immutable once built, like its category; `below` and
    `factorizations` are computed on first use and kept for the
    presentation's lifetime."""

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
    def below(self):
        """below[j]: the i < j with Hom(x_j, x_i) nonempty, ascending, read
        off the category's hom index (0-based)."""
        place = {x: k for k, x in enumerate(self.ordering)}
        out = [[] for _ in self.ordering]
        for x, y in self.category._hom:
            if x != y:
                out[place[x]].append(place[y])
        for row in out:
            row.sort()
        return out

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


def _ordered(c: FiniteCategory) -> SkeletalEIPresentation:
    """The presentation of c, known to be skeletal and EI: morphisms flow
    from higher index to lower.  Kahn's sort of "x <= y iff Hom(x, y) is
    nonempty" places next the earliest object in input order with no
    morphism into an unplaced one.  Each Aut(x) is read off the table with
    its `inverses`, not validated again: `validate` proved associativity and
    the identity laws, endomorphisms compose to endomorphisms, and EI makes
    each one invertible."""
    place = {x: i for i, x in enumerate(c.objects)}
    sources = {x: [] for x in c.objects}  # y -> the x != y with Hom(x, y) nonempty
    targets = dict.fromkeys(c.objects, 0)  # x -> how many such y are not yet placed
    for x, y in c._hom:
        if x != y:
            sources[y].append(x)
            targets[x] += 1
    ready = [place[x] for x in c.objects if not targets[x]]  # sorted, so a heap
    ordering = []
    while ready:
        y = c.objects[heappop(ready)]
        ordering.append(y)
        for x in sources[y]:
            targets[x] -= 1
            if not targets[x]:
                heappush(ready, place[x])

    aut = {}
    for x in c.objects:
        elems = c.hom(x, x)
        table = {(g, h): c.comp[(g, h)] for g in elems for h in elems}
        aut[x] = GroupTable(list(elems), table, c.identity_of(x),
                            {g: c.inverses[g] for g in elems})
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
