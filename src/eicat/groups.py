"""Finite groups as Cayley tables, group actions, the stabilizer orders of
the morphisms of an EI category and the projectivity criterion on them, and
Light's associativity test, which category validation shares."""

from __future__ import annotations

from dataclasses import dataclass, field

from .linalg import Field


class GroupError(Exception):
    pass


def light_generators(rows, ends, candidates, known):
    """S for Light's test (`light_associative`), chosen greedily: each
    candidate, in order, not yet in the closure V joins S, where V starts
    from the `known` morphisms and grows right-normed, V <- V ∪ {v∘s : v in
    V, s in S}.  rows[f] = {g: f∘g} over every g into src f, ends[f] =
    (src f, dst f); every candidate ends up in V."""
    covered = set()
    out_of = {}  # object -> the members of V out of it
    gens, gens_into = [], {}  # S, and object -> the members of S into it

    def close(todo):
        while todo:
            v = todo.pop()
            if v not in covered:
                covered.add(v)
                out_of.setdefault(ends[v][0], []).append(v)
                todo += map(rows[v].__getitem__, gens_into.get(ends[v][0], ()))

    close(list(known))
    for s in candidates:
        if s not in covered:
            gens.append(s)
            gens_into.setdefault(ends[s][1], []).append(s)
            close([rows[v][s] for v in out_of.get(ends[s][1], ())] + [s])
    return gens


def light_associative(rows, ends, candidates, known, lefts, rights):
    """Whether a composition table is associative, by Light's test
    (Clifford and Preston, The Algebraic Theory of Semigroups I, 1961, §1.2;
    the lemma and its proof are in `category.validate`): (f∘s)∘h = f∘(s∘h)
    is checked for the s in S = `light_generators`, the f in lefts[dst s]
    and the h in rights[src s], which is sound when the f and h left out
    associate anyway and `known` holds only middles that pass (the
    identities, once the identity laws hold).  It costs the sum over s in S
    of |lefts[dst s]|·|rights[src s]| checks; a group is the table of a
    category with one object."""
    for s in light_generators(rows, ends, candidates, known):
        x, y = ends[s]
        hs = rights.get(x, ())
        sh = list(map(rows[s].__getitem__, hs))
        for f in lefts.get(y, ()):
            row = rows[f]
            if list(map(rows[row[s]].__getitem__, hs)) != list(map(row.__getitem__, sh)):
                return False
    return True


@dataclass
class GroupTable:
    """A finite group given by its full multiplication table."""

    elements: list
    table: dict  # (g, h) -> g*h
    identity: str
    _inverse: dict = field(default_factory=dict, repr=False)

    def validate(self):
        """Check closure, the identity law, associativity and inverses,
        raising GroupError with every failure found.  Associativity is
        Light's test (`light_associative`, over S = `light_generators` of the
        non-identities) once the identity law holds; when that law or the
        test fails, `_triple_walk` gives the messages."""
        errs = []
        elems = self.elements
        eset = set(elems)
        if len(eset) != len(elems):
            errs.append("duplicate elements")
        if self.identity not in eset:
            errs.append(f"identity {self.identity!r} not an element")
        for g in elems:
            for h in elems:
                if (g, h) not in self.table:
                    errs.append(f"missing product ({g!r}, {h!r})")
                elif self.table[(g, h)] not in eset:
                    errs.append(f"product {g!r}*{h!r} not an element")
        if errs:
            raise GroupError("; ".join(errs))
        for g in elems:
            if self.table[(self.identity, g)] != g or self.table[(g, self.identity)] != g:
                errs.append(f"identity law fails at {g!r}")
        rows = {g: {h: self.table[(g, h)] for h in elems} for g in elems}
        others = [g for g in elems if g != self.identity]
        if errs or not light_associative(rows, dict.fromkeys(elems, (None, None)), others,
                                         [self.identity], {None: others}, {None: others}):
            errs += _triple_walk(self.table, elems)
        for g in elems:
            invs = [h for h in elems
                    if self.table[(g, h)] == self.identity and self.table[(h, g)] == self.identity]
            if not invs:
                errs.append(f"no two-sided inverse for {g!r}")
            else:
                self._inverse[g] = invs[0]
        if errs:
            raise GroupError("; ".join(errs))
        return self

    @property
    def order(self):
        return len(self.elements)

    def mul(self, g, h):
        return self.table[(g, h)]

    def inverse(self, g):
        """g^-1, from the inverses `validate` records."""
        return self._inverse[g]

    @classmethod
    def from_json(cls, obj):
        _check_keys(obj, {"elements", "identity", "table"}, "group")
        json_names([obj["identity"]], "the group identity", GroupError)
        table = {(g, h): gh for g, h, gh in json_names(obj["table"], "table", GroupError, 3)}
        return cls(json_names(obj["elements"], "elements", GroupError), table,
                   obj["identity"]).validate()

    def to_json(self):
        return {
            "elements": list(self.elements),
            "identity": self.identity,
            "table": [[g, h, gh] for (g, h), gh in sorted(self.table.items())],
        }


def _triple_walk(table, elems):
    """The associativity failures of a group table: per pair (g, h), the
    first t in element order with (g*h)*t != g*(h*t)."""
    errs = []
    for g in elems:
        for h in elems:
            for t in elems:
                if table[(table[(g, h)], t)] != table[(g, table[(h, t)])]:
                    errs.append(f"associativity fails at ({g!r},{h!r},{t!r})")
                    break
    return errs


def json_names(x, what, error, width=0):
    """x, if it is a list of names (width 0) or of width-lists of names;
    else `error` is raised."""
    if not (isinstance(x, list) and all(
            isinstance(y, list) and len(y) == (width or len(y)) and
            all(isinstance(z, str) for z in y) for y in (x if width else [x]))):
        raise error(f"{what} must be a list of {f'{width}-lists of ' if width else ''}names")
    return x


def _check_keys(obj, allowed, what):
    if not isinstance(obj, dict):
        raise GroupError(f"a {what} must be a JSON object, not {type(obj).__name__}")
    unknown = set(obj) - allowed
    if unknown:
        raise GroupError(f"unknown keys in {what}: {sorted(unknown)}")
    missing = allowed - set(obj)
    if missing:
        raise GroupError(f"missing keys in {what}: {sorted(missing)}")


@dataclass
class GroupAction:
    """A left action of a finite group on a finite set."""

    group: GroupTable
    set: list
    act: dict  # (g, x) -> g.x

    def validate(self):
        errs = []
        sset = set(self.set)
        for g in self.group.elements:
            for x in self.set:
                if (g, x) not in self.act:
                    errs.append(f"missing action entry ({g!r}, {x!r})")
                elif self.act[(g, x)] not in sset:
                    errs.append(f"action value of ({g!r}, {x!r}) outside the set")
        if errs:
            raise GroupError("; ".join(errs))
        for x in self.set:
            if self.act[(self.group.identity, x)] != x:
                errs.append(f"identity moves {x!r}")
        for g in self.group.elements:
            for h in self.group.elements:
                gh = self.group.mul(g, h)
                for x in self.set:
                    if self.act[(gh, x)] != self.act[(g, self.act[(h, x)])]:
                        errs.append(f"action axiom fails at ({g!r},{h!r},{x!r})")
        if errs:
            raise GroupError("; ".join(errs))
        return self

    def apply(self, g, x):
        return self.act[(g, x)]

    @classmethod
    def from_json(cls, obj):
        _check_keys(obj, {"group", "set", "act"}, "action")
        group = GroupTable.from_json(obj["group"])
        act = {(g, x): gx for g, x, gx in json_names(obj["act"], "act", GroupError, 3)}
        return cls(group, json_names(obj["set"], "set", GroupError), act).validate()

    def to_json(self):
        return {
            "group": self.group.to_json(),
            "set": list(self.set),
            "act": [[g, x, gx] for (g, x), gx in sorted(self.act.items())],
        }


def morphism_stabilizers(p, alpha):
    """Orders of the left and right stabilizers of a non-endomorphism alpha."""
    c = p.category
    m = c.morphisms[alpha]
    if m.src == m.dst:
        raise GroupError(f"{alpha!r} is an endomorphism")
    left = sum(1 for g in c.hom(m.dst, m.dst) if c.compose(g, alpha) == alpha)
    right = sum(1 for h in c.hom(m.src, m.src) if c.compose(alpha, h) == alpha)
    return left, right


def is_projective_over(p, f: Field):
    """Whether every non-endomorphism has both stabilizer orders invertible in f.

    Returns (flag, witnesses); one witness morphism per violating Aut-orbit."""
    witnesses = []
    c = p.category
    seen_orbits = set()
    for name, m in c.morphisms.items():
        if m.src == m.dst:
            continue
        if name in seen_orbits:
            continue
        orbit = frozenset(c.compose(g, c.compose(name, h))
                          for g in c.hom(m.dst, m.dst) for h in c.hom(m.src, m.src))
        seen_orbits.update(orbit)
        la, ra = morphism_stabilizers(p, name)
        if not (f.invertible(la) and f.invertible(ra)):
            witnesses.append(name)
    return not witnesses, witnesses


def cyclic_group(n: int) -> GroupTable:
    elems = ["e"] + [f"g{i}" if i > 1 else "g" for i in range(1, n)]
    table = {}
    for i in range(n):
        for j in range(n):
            table[(elems[i], elems[j])] = elems[(i + j) % n]
    return GroupTable(elems, table, "e").validate()


def symmetric_group_3() -> GroupTable:
    perms = {
        "e": (0, 1, 2), "r": (1, 2, 0), "r2": (2, 0, 1),
        "s": (1, 0, 2), "sr": (0, 2, 1), "sr2": (2, 1, 0),
    }
    elems = list(perms)
    by_perm = {v: k for k, v in perms.items()}
    table = {}
    for a in elems:
        for b in elems:
            pa, pb = perms[a], perms[b]
            table[(a, b)] = by_perm[tuple(pa[pb[i]] for i in range(3))]
    return GroupTable(elems, table, "e").validate()
