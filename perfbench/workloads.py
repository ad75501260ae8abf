"""Inputs of each workload, generated from the seed, and what each verdict
must say.

The structures are fixed per workload so that a run costs the same whatever
the seed; the seed draws the random posets of `classify_large` and, for
every instance, an isomorphic relabelling (fresh object and morphism names,
shuffled object, morphism and composition order) and the order of the items.
The program only ever sees the JSON files written here.

eicat is imported inside the functions, so that each set-up uses the modules
loaded by that set-up.
"""

from __future__ import annotations

import itertools
import json
import os
import random
from dataclasses import dataclass, field

FINITE = "finite"  # expected value: any integer (a finite dimension)

CLI_ARGS = {
    "classify": ["--explain"],
    "oracle": ["--cap", "8"],
}


@dataclass
class Item:
    """One (instance, char) pair and the CLI commands run on it, in order."""

    instance: str
    char: int
    commands: tuple
    path: str
    expect: list = field(default_factory=list)  # (command, key, expected value)

    @property
    def key(self):
        return f"{self.instance}@{self.char}"

    def argv(self, command):
        return [command, self.path, "--char", str(self.char)] + CLI_ARGS[command]


@dataclass
class Instance:
    name: str
    category: object  # eicat FiniteCategory
    kind: str  # "chain", "poset", "transporter" or "other"
    free: bool | None = None  # families.poset_is_free for posets


# -- families the corpus lacks -----------------------------------------------


def _subsets(n, max_size):
    pts = range(1, n + 1)
    return [s for k in range(max_size + 1) for s in itertools.combinations(pts, k)]


def _subset_name(s):
    return "s" + "".join(map(str, s)) if s else "s0"


def boolean_poset(n, max_size=None):
    """Subsets of {1..n} of size <= max_size, ordered by inclusion."""
    from eicat.families import Poset
    subs = _subsets(n, n if max_size is None else max_size)
    pairs = [(_subset_name(a), _subset_name(b)) for a in subs for b in subs
             if a != b and set(a) <= set(b)]
    return Poset.from_pairs([_subset_name(s) for s in subs], pairs)


def s3_transporter(max_size):
    """S3 permuting {1,2,3}, acting on its subsets of size <= max_size."""
    from eicat.families import transporter_category
    from eicat.groups import GroupAction, symmetric_group_3
    g = symmetric_group_3()
    perm = {"e": (1, 2, 3), "r": (2, 3, 1), "r2": (3, 1, 2),
            "s": (2, 1, 3), "sr": (1, 3, 2), "sr2": (3, 2, 1)}
    subs = _subsets(3, max_size)
    act = {(e, _subset_name(s)): _subset_name(tuple(sorted(perm[e][i - 1] for i in s)))
           for e in g.elements for s in subs}
    p = boolean_poset(3, max_size)
    return transporter_category(g, p, GroupAction(g, list(p.elements), act))


def random_poset(rng, n):
    """A poset on n elements from random cover edges, redrawn until it has
    between 3n/2 and 2n strict relations, so its cost varies little."""
    from eicat.families import Poset
    names = [f"q{i}" for i in range(n)]
    while True:
        pairs = [(names[i], names[j]) for i in range(n) for j in range(i + 1, n)
                 if rng.random() < 2.0 / n]
        p = Poset.from_pairs(names, pairs)
        if 3 * n // 2 <= len(p.leq) - n <= 2 * n:
            return p


def _poset_instance(name, poset, kind="poset"):
    from eicat.families import poset_category, poset_is_free
    return Instance(name, poset_category(poset), kind, poset_is_free(poset))


def _poset_of(c):
    """The poset a poset category comes from."""
    from eicat.families import Poset
    return Poset.from_pairs(c.objects, [(m.src, m.dst) for m in c.morphisms.values()
                                        if m.src != m.dst])


def _corpus_instance(name, c):
    from eicat.families import poset_is_free
    if name.startswith("chain_"):
        kind = "chain"
    elif name in ("diamond", "antichain_2") or name.startswith("poset_"):
        kind = "poset"
    elif "transporter" in name:
        kind = "transporter"
    else:
        return Instance(name, c, "other")
    free = poset_is_free(_poset_of(c)) if kind != "transporter" else None
    return Instance(name, c, kind, free)


# -- workloads ---------------------------------------------------------------

# Each workload returns (commands, [(instance, chars)]) from the workload's
# rng; `tiny` swaps in small instances for the smoke tests, which then run
# through the same code path.


def _corpus(rng, tiny):
    from eicat.families import corpus
    chars = (0, 2) if tiny else (0, 2, 3, 5)
    items = corpus(0)[:4] if tiny else corpus(0)
    return ("classify", "oracle"), [(_corpus_instance(n, c), chars) for n, c in items]


def _chain(n):
    from eicat.families import chain_poset
    return _poset_instance(f"chain_{n}", chain_poset(n), "chain")


def _s3(max_size):
    return Instance(f"s3_subsets_le{max_size}", s3_transporter(max_size), "transporter")


def _oracle_q(rng, tiny):
    k, m = (3, 1) if tiny else (7, 2)
    return ("oracle",), [(_chain(k), (0,)), (_s3(m), (0,))]


def _oracle_p(rng, tiny):
    k, m = (3, 1) if tiny else (8, 2)
    return ("oracle",), [(_chain(k), (2,)), (_s3(m), (2, 3))]


def _classify_large(rng, tiny):
    chain_n, bool_n, s3_size = (5, 2, 1) if tiny else (20, 5, 3)
    sizes = (6,) if tiny else (16, 18, 20, 20, 22, 24)
    out = [(_chain(chain_n), (0,)),
           (_poset_instance(f"boolean_{bool_n}", boolean_poset(bool_n)), (0,))]
    out += [(_poset_instance(f"random_poset_{i}", random_poset(rng, n)), (0,))
            for i, n in enumerate(sizes)]
    out.append((_s3(s3_size), (0, 2, 3)))
    return ("classify",), out


WORKLOADS = {
    "corpus": _corpus,
    "oracle_q": _oracle_q,
    "oracle_p": _oracle_p,
    "classify_large": _classify_large,
}

CORPUS_GOLDENS = {  # (instance, char or None for all): expected oracle values
    ("chain_a3", None): {"left": 1, "right": 1},
    ("diamond", None): {"left": 2, "right": 2},
    ("group_z2", 2): {"left": 0, "right": 0, "gldim": ">8"},
}


def expectations(inst, char, commands):
    """(command, key, value) triples every verdict on this item must meet."""
    out = []
    if "oracle" in commands:
        out.append(("oracle", "agrees", True))
        if inst.kind == "chain":
            out += [("oracle", k, 1) for k in ("left", "right", "gldim")]
        if inst.kind == "transporter":
            out += [("oracle", "left", FINITE), ("oracle", "right", FINITE)]
        for (name, ch), values in CORPUS_GOLDENS.items():
            if name == inst.name and ch in (None, char):
                out += [("oracle", k, v) for k, v in values.items()]
    if "classify" in commands:
        if inst.kind == "chain":
            out += [("classify", k, True) for k in ("free", "gorenstein", "hereditary")]
        if inst.free is not None:
            out.append(("classify", "free", inst.free))
        if inst.kind == "transporter":
            out.append(("classify", "gorenstein", True))
    return out


def relabel(cj, rng):
    """An isomorphic copy of a category JSON object: new names, shuffled
    objects, morphisms and composition entries."""
    objects, morphisms, comp = list(cj["objects"]), list(cj["morphisms"]), list(cj["composition"])
    on = dict(zip(objects, (f"o{k}" for k in rng.sample(range(10 ** 6), len(objects)))))
    mn = dict(zip((m["id"] for m in morphisms),
                  (f"m{k}" for k in rng.sample(range(10 ** 6), len(morphisms)))))
    for seq in (objects, morphisms, comp):
        rng.shuffle(seq)
    return {"objects": [on[o] for o in objects],
            "morphisms": [{**m, "id": mn[m["id"]], "src": on[m["src"]], "dst": on[m["dst"]]}
                          for m in morphisms],
            "composition": [[mn[a], mn[b], mn[c]] for a, b, c in comp]}


def build(workload, seed, workdir, tiny=False):
    """Generate the workload's inputs from the seed into workdir and return
    its items in run order."""
    from eicat.category import category_to_json
    rng = random.Random(f"{workload}:{seed}")
    commands, plan = WORKLOADS[workload](rng, tiny)
    os.makedirs(workdir, exist_ok=True)
    items = []
    for inst, chars in plan:
        path = os.path.join(workdir, f"{inst.name}.json")
        with open(path, "w") as fh:
            json.dump(relabel(category_to_json(inst.category), rng), fh)
        items += [Item(inst.name, ch, commands, path, expectations(inst, ch, commands))
                  for ch in chars]
    rng.shuffle(items)
    return items
