"""Unfactorizable morphisms and freeness of a skeletal EI category, both by
the factorization-conjugacy criterion and by a direct unique-factorization
brute-force check."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .category import SkeletalEIPresentation


class IsIsomorphism(Exception):
    pass


def is_unfactorizable(c, alpha) -> bool:
    """Whether alpha is a non-isomorphism that is not the composite of two
    non-isomorphisms (Li 2011).

    The reference definition: it scans the whole composition table, so it
    is for tests and single queries.  Everything else reads the one-pass
    `SkeletalEIPresentation.factorizations`."""
    if c.is_isomorphism(alpha):
        return False
    for (f, g), h in c.comp.items():
        if h == alpha and not c.is_isomorphism(f) and not c.is_isomorphism(g):
            return False
    return True


def unfactorizables(p: SkeletalEIPresentation):
    """The table (i, j) -> Hom^0(x_j, x_i) of unfactorizable morphisms for
    0-based i < j, each a nonempty list in hom-set order, in (i, j) order;
    a pair with no unfactorizable morphism is left out.

    Read from the nonempty hom-sets (`SkeletalEIPresentation.below`) and the
    presentation's factorizations, which are computed once; every call
    returns new lists, so callers may change them freely."""
    pairs = sorted((i, j) for j, below in enumerate(p.below) for i in below)
    return {(i, j): units for i, j in pairs if (units := p.unfactorizable_homs(i, j))}


def _chains(p: SkeletalEIPresentation, alpha):
    """Every chain u_1, ..., u_m of unfactorizables with
    alpha = u_m ∘ ... ∘ u_1, shortest first and, within a length, in scan
    order.  Chains grow out of src(alpha), each carrying its composite; by
    EI every step strictly descends, so the walk ends within n steps."""
    c = p.category
    unf = p.factorizations.unfactorizable
    leaving = {}  # object -> the unfactorizables out of it, in scan order
    for m in c.morphisms.values():
        if m.name in unf:
            leaving.setdefault(m.src, []).append(m.name)
    level = [([u], u) for u in leaving.get(c.morphisms[alpha].src, ())]
    while level:
        grown = []
        for chain, composite in level:
            if composite == alpha:
                yield chain
            else:
                grown += [(chain + [u], c.compose(u, composite))
                          for u in leaving.get(c.morphisms[composite].dst, ())]
        level = grown


def decompose(p: SkeletalEIPresentation, alpha):
    """A shortest chain u_1, ..., u_m of unfactorizables with
    alpha = u_m ∘ ... ∘ u_1; first found in deterministic scan order."""
    if p.category.is_isomorphism(alpha):
        raise IsIsomorphism(alpha)
    for chain in _chains(p, alpha):
        return chain
    raise AssertionError(f"no decomposition found for {alpha!r}")


def is_free_from(p: SkeletalEIPresentation, x):
    """Whether any two first-step factorizations of a non-isomorphism out of x
    agree up to an automorphism of the intermediate object.

    Returns (flag, counterexample); the counterexample is
    (alpha, (a1, a2), (b1, b2))."""
    c = p.category
    fz = p.factorizations
    for alpha in fz.non_isos:
        if c.morphisms[alpha].src != x:
            continue
        facts = fz.first_steps.get(alpha, ())
        for (a1, a2), (b1, b2) in product(facts, repeat=2):
            z1 = c.morphisms[a1].dst
            if c.morphisms[b1].dst != z1:
                return False, (alpha, (a1, a2), (b1, b2))
            aut = p.aut[z1]
            ok = any(c.compose(h, a1) == b1 and c.compose(a2, aut.inverse(h)) == b2
                     for h in aut.elements)
            if not ok:
                return False, (alpha, (a1, a2), (b1, b2))
    return True, None


@dataclass
class FreenessReport:
    free: bool
    free_from: dict  # object -> bool
    counterexample: tuple | None


def is_free(p: SkeletalEIPresentation) -> FreenessReport:
    """Free iff free from every object."""
    free_from = {}
    counterexample = None
    for x in p.ordering:
        ok, witness = is_free_from(p, x)
        free_from[x] = ok
        if not ok and counterexample is None:
            counterexample = witness
    return FreenessReport(all(free_from.values()), free_from, counterexample)


def _conjugating_sequence_exists(c, p, d1, d2):
    """Whether automorphisms h_i turn the chain d1 into d2."""
    n = len(d1)
    if n != len(d2):
        return False
    for a, b in zip(d1, d2):
        ma, mb = c.morphisms[a], c.morphisms[b]
        if (ma.src, ma.dst) != (mb.src, mb.dst):
            return False
    if n == 1:
        return d1[0] == d2[0]
    # enumerate h_1, ..., h_{n-1} level by level
    partial = [()]
    for i in range(n - 1):
        obj = c.morphisms[d1[i]].dst
        aut = p.aut[obj]
        grown = []
        for hs in partial:
            prev_inv = aut_prev = None
            if i > 0:
                aut_prev = p.aut[c.morphisms[d1[i - 1]].dst]
                prev_inv = aut_prev.inverse(hs[-1])
            for h in aut.elements:
                cand = c.compose(h, d1[i]) if i == 0 else \
                    c.compose(c.compose(h, d1[i]), prev_inv)
                if cand == d2[i]:
                    grown.append(hs + (h,))
        partial = grown
        if not partial:
            return False
    last_obj = c.morphisms[d1[n - 2]].dst
    aut = p.aut[last_obj]
    return any(c.compose(d1[n - 1], aut.inverse(hs[-1])) == d2[n - 1] for hs in partial)


def ufp_direct(p: SkeletalEIPresentation) -> bool:
    """Brute-force unique factorization property: every pair of maximal
    decompositions of every non-isomorphism is conjugate."""
    c = p.category
    for alpha in p.factorizations.non_isos:
        decs = list(_chains(p, alpha))
        for d1 in decs:
            for d2 in decs:
                if not _conjugating_sequence_exists(c, p, d1, d2):
                    return False
    return True
