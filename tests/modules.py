"""Modules over a finite-dimensional algebra by action matrices, and the
paper's modules over the triangular matrix algebra of a skeletal EI category
built as such: the reference the tests compare the package against.
Collects no tests itself; import it as `from modules import ...`.

A `ModuleRep` holds one dense action matrix per basis element of its
algebra; `ModuleRep.matrix_of(v)` is the action of an algebra element, one
`combination` of the basis actions, and `ModuleRep.int_products` applies it
to int rows, so `eicat.homology` resolves a `ModuleRep` as it does the
algebra and its top.  `submodule`, `quotient_module` and `dual_module` make
new modules from old, from coefficient vectors: `field_vectors` converts
the int rows the package hands out.

The builders read the skeletal presentation x_1..x_n directly: the vertex
R_i = k Aut(x_i) on the diagonal, the bimodule M_ij = k Hom(x_j, x_i) above
it, and multiplication from composition.  Object indices are 0-based in the
presentation and t is 1-based, as in the paper.  `build_m_star` gives the
natural module M_t^* over Gamma_t, the category algebra of the full
subcategory on x_1..x_t; `build_i_t` and `build_j_t` the induced and
coinduced modules over the whole algebra; `dual_vertex_module` D(R_t).  The
package itself decides projectivity of M_t^* by orbit counts
(`eicat.triangular.phi_domain_dim`, `mstar_dim`), which
`is_mstar_projective` compares under the hypothesis that the category is
projective over k."""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import product
from math import lcm

from eicat.algebra import (
    AlgebraError,
    FiniteDimAlgebra,
    algebra_from_category,
    group_algebra,
    opposite,
)
from eicat.category import SkeletalEIPresentation, full_subcategory
from eicat.groups import is_projective_over
from eicat.linalg import Field, Matrix, QuotientSpace, Subspace, _nonzero, unit_rows
from eicat.triangular import TriangularError, _check_t, mstar_dim, phi_domain_dim


def field_vectors(a: FiniteDimAlgebra, rows):
    """The int rows `rows` of elements of a, such as `radical(a)` and
    `primitive_idempotents(a)`, as coefficient vectors over a's field."""
    return [a.field.from_ints(row, a.dim) for row in rows]


def transpose(m: Matrix) -> Matrix:
    """m transposed: its rows are the columns of the result."""
    return Matrix.from_columns(m.field, m.data, rows=m.cols)


def combination(f: Field, terms, rows, cols):
    """The rows x cols matrix sum c * m over the (c, m) of `terms`: per
    nonzero c, the columns of m's sparse view and an int factor, all over one
    lcm of the views' scales; per column, one int accumulator and one
    conversion to canonical scalars."""
    terms = [(c, m) for c, m in terms if c]
    if any(m.cols != cols for _, m in terms):
        raise ValueError("length mismatch")
    p = f.characteristic
    cs, cden = f.to_ints([c for c, _ in terms])
    views = [m._sparse_view() for _, m in terms]
    scale = lcm(*(s for _, s in views))
    views = [(view, cs[t] * (scale // s)) for t, (view, s) in enumerate(views)]
    columns = []
    for j in range(cols):
        acc = {}
        for view, factor in views:
            for i, a in view[j]:
                acc[i] = acc.get(i, 0) + a * factor
        columns.append(f.from_ints((_nonzero(p, acc), cden * scale), rows))
    return Matrix.from_columns(f, columns, rows=rows)


@dataclass
class ModuleRep:
    """A left module over a FiniteDimAlgebra: one action matrix per basis
    element of the algebra, acting on column vectors."""

    algebra: FiniteDimAlgebra
    dim: int
    action: list  # list of Matrix, one per algebra basis element

    def validate(self):  # ModuleRep
        a, f, n = self.algebra, self.algebra.field, self.dim
        if len(self.action) != a.dim or any((m.rows, m.cols) != (n, n) for m in self.action):
            raise AlgebraError(f"a module of dimension {n} needs {a.dim} {n} x {n} matrices")
        if self.matrix_of(a.unit) != Matrix.identity(f, n):
            raise AlgebraError("unit does not act as identity")
        for i, j in product(range(a.dim), repeat=2):
            if self.action[i] * self.action[j] != combination(
                    f, ((c, self.action[k]) for k, c in a.mult[i][j]), n, n):
                raise AlgebraError(f"action incompatible with product ({i}, {j})")
        return self

    def matrix_of(self, avec) -> Matrix:
        """The action matrix of the algebra element with coefficient vector
        avec: column t is avec . e_t."""
        if len(avec) != self.algebra.dim:
            raise ValueError(f"coefficient vector of length {len(avec)} "
                             f"for an algebra of dimension {self.algebra.dim}")
        return combination(self.algebra.field, zip(avec, self.action), self.dim, self.dim)

    def int_products(self, us, vs):
        """[u.v for u in us for v in vs] on int rows, u in the algebra and v
        in the module: one `matrix_of(u)` per u, applied to each v through
        `Matrix.int_mul_vec`."""
        f = self.algebra.field
        mats = [self.matrix_of(f.from_ints(u, self.algebra.dim)) for u in us]
        return [mat.int_mul_vec(v) for mat in mats for v in vs]


def regular_module(a: FiniteDimAlgebra) -> ModuleRep:
    """A as a ModuleRep: the action matrix of e_i has column j = e_i.e_j."""
    d = a.dim
    return ModuleRep(a, d, [Matrix.from_entries(a.field, d, d, ((k, j, c) for j in range(d)
                                                                for k, c in a.mult[i][j]))
                            for i in range(d)])


def submodule(m: ModuleRep, vectors):
    """Restriction of m to the invariant subspace spanned by `vectors`.

    Returns (rep, inclusion matrix)."""
    f = m.algebra.field
    sub = Subspace(f, m.dim, map(f.to_ints, vectors))
    incl = Matrix.from_int_columns(f, sub.int_basis, m.dim)
    action = []
    for mat in m.action:
        new_cols = [sub.int_coords(mat.int_mul_vec(v)) for v in sub.int_basis]
        if None in new_cols:
            raise AlgebraError("subspace is not invariant")
        action.append(Matrix.from_int_columns(f, new_cols, sub.dim))
    return ModuleRep(m.algebra, sub.dim, action), incl


def quotient_module(m: ModuleRep, vectors):
    """Quotient of m by the invariant subspace spanned by `vectors`.

    Returns (rep, projection matrix)."""
    f = m.algebra.field
    quo = QuotientSpace(f, m.dim, map(f.to_ints, vectors))
    units = unit_rows(m.dim)
    proj = Matrix.from_int_columns(f, [quo.int_project(e) for e in units], quo.dim)
    action = [Matrix.from_int_columns(f, [quo.int_project(mat.int_mul_vec(units[i]))
                                          for i in quo.reps], quo.dim) for mat in m.action]
    return ModuleRep(m.algebra, quo.dim, action), proj


def dual_module(m: ModuleRep) -> ModuleRep:
    """The dual space as a left module over the opposite algebra."""
    return ModuleRep(opposite(m.algebra), m.dim, [transpose(mat) for mat in m.action])


class HypothesisViolated(TriangularError):
    pass


def _map_matrix(f: Field, basis, image) -> Matrix:
    """The 0/1 matrix of the map sending basis[t] to image(basis[t]), a
    member of `basis`, or to 0 where the image is None."""
    index = {m: r for r, m in enumerate(basis)}
    entries = ((index[m], t, f.one) for t, m in enumerate(map(image, basis)) if m is not None)
    return Matrix.from_entries(f, len(basis), len(basis), entries)


def _on_pairs(f: Field, pairs, move) -> Matrix:
    """The 0/1 matrix of (m, b) -> (move(m), b) on `pairs`, 0 where move(m)
    is None."""
    return _map_matrix(f, pairs, lambda p: None if (m := move(p[0])) is None else (m, p[1]))


def _compose(p: SkeletalEIPresentation, f, g):
    """f o g, or None when the source of f is not the target of g."""
    return p.category.comp.get((f, g))


def _vertex_module(p: SkeletalEIPresentation, t0: int, a: ModuleRep) -> ModuleRep:
    """a, checked to be a module over R_t0 = k Aut(x_t0), whose basis is the
    group's elements in order."""
    if a.algebra != group_algebra(p.aut_group(t0), a.algebra.field):
        raise AlgebraError(f"the vertex module is not over k Aut(x_{t0 + 1})")
    return a.validate()


def tensor_quotient(f: Field, right_mats, left_mats) -> QuotientSpace:
    """M (x)_R N as a quotient of M (x)_k N; pure tensor (a, b) sits at
    ambient index a*dim(N) + b."""
    dm = right_mats[0].rows if right_mats else 0
    dn = left_mats[0].rows if left_mats else 0
    relations = []
    for rm, lm in zip(right_mats, left_mats):
        for a in range(dm):
            mr = rm.column(a)
            for b in range(dn):
                rn = lm.column(b)
                vec = [f.zero] * (dm * dn)
                for x, cx in enumerate(mr):
                    if cx != 0:
                        vec[x * dn + b] = f.add(vec[x * dn + b], cx)
                for y, cy in enumerate(rn):
                    if cy != 0:
                        vec[a * dn + y] = f.sub(vec[a * dn + y], cy)
                relations.append(vec)
    return QuotientSpace(f, dm * dn, map(f.to_ints, relations))


def build_m_star(p: SkeletalEIPresentation, f: Field, t: int) -> ModuleRep:
    """The natural left Gamma_t-module k[morphisms x_{t+1} -> x_i, i = 1..t],
    a morphism g acting by m -> g m (t is 1-based, 1 <= t <= n-1)."""
    _check_t(t, p.n - 1)
    alg = algebra_from_category(full_subcategory(p.category, p.ordering[:t]), f)
    basis = [m for i in range(t) for m in p.hom_set(i, t)]
    return ModuleRep(alg, len(basis), [_map_matrix(f, basis, partial(_compose, p, g))
                                       for g in alg.basis]).validate()


def build_i_t(p: SkeletalEIPresentation, t: int, a: ModuleRep) -> ModuleRep:
    """The induced module i_t(A) = Gamma e_t (x)_{R_t} A over the whole
    algebra (t is 1-based), over the field of A.

    It is the quotient of k[pairs (m, b)], m a morphism out of x_t and b a
    basis vector of A, the pair at ambient index m*dim(A) + b, by
    (m h, b) = (m, h b) for h in Aut(x_t), the submodule `tensor_quotient`
    spans, where a morphism g acts by (m, b) -> (g m, b)."""
    _check_t(t, p.n)
    t0 = t - 1
    a = _vertex_module(p, t0, a)
    f = a.algebra.field
    out = [m for j in range(t) for m in p.hom_set(j, t0)]
    right = [_map_matrix(f, out, lambda m: _compose(p, m, h)) for h in p.aut_group(t0).elements]
    pairs = list(product(out, range(a.dim)))
    alg = algebra_from_category(p.category, f)
    ambient = ModuleRep(alg, len(pairs), [_on_pairs(f, pairs, partial(_compose, p, g))
                                          for g in alg.basis])
    return quotient_module(ambient, tensor_quotient(f, right, a.action).sub.basis)[0].validate()


def _hom_basis(p: SkeletalEIPresentation, t0: int, a: ModuleRep, pairs) -> list:
    """A basis of the R_t0-linear maps F from k[morphisms into x_t0] to A
    among the vectors on `pairs` (m, b), the value of F at m in coordinate
    b: the F with F(g m) = g F(m) for g in Aut(x_t0)."""
    f, n = a.algebra.field, len(pairs)
    index = {q: x for x, q in enumerate(pairs)}
    entries = []
    for k, (g, ag) in enumerate(zip(p.aut_group(t0).elements, a.action)):
        for x, (m, b) in enumerate(pairs):
            entries.append((k * n + x, index[(p.category.compose(g, m), b)], f.one))
            entries += [(k * n + x, index[(m, c)], f.neg(v)) for c, v in enumerate(ag.data[b]) if v]
    return Matrix.from_entries(f, len(a.action) * n, n, entries).kernel_basis()


def build_j_t(p: SkeletalEIPresentation, t: int, a: ModuleRep) -> ModuleRep:
    """The coinduced module j_t(A) = Hom_{R_t}(e_t Gamma, A) over the whole
    algebra (t is 1-based), over the field of A.

    It is the submodule of the R_t-linear maps (`_hom_basis`) in the maps
    F: k[morphisms into x_t] -> A on the pairs (m, b), where a morphism g
    acts by F -> F(- o g), the transpose of (m, b) -> (m g, b)."""
    _check_t(t, p.n)
    t0 = t - 1
    a = _vertex_module(p, t0, a)
    f = a.algebra.field
    into = [m for l in range(t0, p.n) for m in p.hom_set(t0, l)]
    pairs = list(product(into, range(a.dim)))
    alg = algebra_from_category(p.category, f)
    ambient = ModuleRep(alg, len(pairs), [
        transpose(_on_pairs(f, pairs, lambda m: _compose(p, m, g))) for g in alg.basis])
    return submodule(ambient, _hom_basis(p, t0, a, pairs))[0].validate()


def dual_vertex_module(p: SkeletalEIPresentation, f: Field, t: int) -> ModuleRep:
    """D(R_t), the dual of the right regular module, as a left R_t-module:
    g sends the dual basis vector e_h* to e_{h g^-1}*, since
    (g.phi)(x) = phi(x g)."""
    group = p.aut_group(t - 1)
    return ModuleRep(group_algebra(group, f), group.order, [
        _map_matrix(f, group.elements, lambda h: group.mul(h, group.inverse(g)))
        for g in group.elements])


def is_mstar_projective(p: SkeletalEIPresentation, f: Field, t: int) -> bool:
    """Whether M_t^* is projective over Gamma_t, by the dimension count of
    its projective cover; requires the category to be projective over k."""
    ok, witnesses = is_projective_over(p, f)
    if not ok:
        raise HypothesisViolated(f"category not projective over k; witnesses {witnesses}")
    return phi_domain_dim(p, t) == mstar_dim(p, t)
