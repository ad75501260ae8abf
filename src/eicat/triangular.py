"""The upper triangular matrix algebra of a skeletal EI category, column
modules, the induction/coinduction constructions, and the projectivity test
for the natural column modules M_t^* by dimension count.

Every M_ij = k Hom(x_j, x_i) and every span of unfactorizable morphisms is a
permutation module, and kX (x)_{kG} kY = k[X x_G Y] for a right G-set X and
a left G-set Y in every characteristic; so the dimension of the projective
cover of M_t^* is an orbit count, the same in every characteristic."""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product

from .algebra import ModuleRep, algebra_from_category, group_algebra
from .category import SkeletalEIPresentation, full_subcategory
from .groups import is_projective_over
from .linalg import Field, Matrix, QuotientSpace, Subspace, unit_vector


class TriangularError(Exception):
    pass


class IndexOutOfRange(TriangularError):
    pass


class HypothesisViolated(TriangularError):
    pass


class IncompatibleMaps(TriangularError):
    pass


@dataclass
class TriangularPresentation:
    """Group-algebra vertices R_i = k Aut(x_i) on the diagonal, bimodules
    M_ij = k Hom(x_j, x_i) above it, multiplication from composition.

    Object indices are 0-based throughout; morphisms run x_j -> x_i for
    i <= j."""

    field: Field
    pres: SkeletalEIPresentation
    _vertex: dict = field(default_factory=dict, repr=False)
    _alg: dict = field(default_factory=dict, repr=False)

    @property
    def n(self):
        return self.pres.n

    def vertex_group(self, i):
        return self.pres.aut_group(i)

    def vertex_algebra(self, i):
        if i not in self._vertex:
            self._vertex[i] = group_algebra(self.vertex_group(i), self.field)
        return self._vertex[i]

    def hom_basis(self, i, j):
        """Basis of M_ij = k Hom(x_j, x_i); for i == j the Aut group."""
        return self.pres.hom_set(i, j)

    def compose(self, f, g):
        return self.pres.category.compose(f, g)

    @property
    def total_dim(self):
        return len(self.pres.category.morphisms)

    def algebra(self, upto=None):
        """The category algebra of the full subcategory on x_1..x_upto."""
        upto = self.n if upto is None else upto
        if upto not in self._alg:
            sub = full_subcategory(self.pres.category, self.pres.ordering[:upto])
            self._alg[upto] = algebra_from_category(sub, self.field)
        return self._alg[upto]

    def left_perm(self, i, j, g) -> Matrix:
        """Post-composition with g in Aut(x_i) as a permutation of M_ij."""
        return _map_matrix(self.field, self.hom_basis(i, j), lambda m: self.compose(g, m))

    def right_mats(self, i, j):
        """Right action of the R_j basis on M_ij: pre-composition with each
        element of Aut(x_j), as a permutation matrix."""
        return [_map_matrix(self.field, self.hom_basis(i, j), lambda m: self.compose(m, h))
                for h in self.vertex_group(j).elements]

    def check_psi_associativity(self):
        """(m_il m_lj) m_jt = m_il (m_lj m_jt) on all basis triples."""
        for i in range(self.n):
            for l in range(i, self.n):
                for j in range(l, self.n):
                    for t in range(j, self.n):
                        for a in self.hom_basis(i, l):
                            for b in self.hom_basis(l, j):
                                for c in self.hom_basis(j, t):
                                    if self.compose(self.compose(a, b), c) != \
                                            self.compose(a, self.compose(b, c)):
                                        raise TriangularError(
                                            f"psi associativity fails at ({a!r},{b!r},{c!r})")
        return True


def _map_matrix(f: Field, basis, image, target=None) -> Matrix:
    """The 0/1 matrix of the map sending basis[t] to image(basis[t]), a
    member of `target` (by default `basis` itself)."""
    target = basis if target is None else target
    index = {m: r for r, m in enumerate(target)}
    one = f.one
    return Matrix.from_entries(f, len(target), len(basis),
                               ((index[image(m)], t, one) for t, m in enumerate(basis)))


def _on_quotients(src: QuotientSpace, dst: QuotientSpace, amb: Matrix) -> Matrix:
    """The map src -> dst that the ambient map `amb` induces."""
    return Matrix.from_columns(dst.field, [dst.project(amb.column(r)) for r in src.reps],
                               rows=dst.dim)


def _on_subspaces(src: Subspace, dst: Subspace, amb: Matrix) -> Matrix:
    """The restriction src -> dst of the ambient map `amb`."""
    cols = []
    for b in src.basis:
        co = dst.coords(amb.mul_vec(b))
        if co is None:
            raise IncompatibleMaps("a structure map leaves the Hom space")
        cols.append(co)
    return Matrix.from_columns(dst.field, cols, rows=dst.dim)


def _check_t(t, top):
    if not 1 <= t <= top:
        raise IndexOutOfRange(f"t must be in 1..{top}, got {t}")


def build_triangular(p: SkeletalEIPresentation, f: Field) -> TriangularPresentation:
    return TriangularPresentation(f, p)


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
    return QuotientSpace(f, dm * dn, relations)


@dataclass
class ColumnModule:
    """A module over Gamma_upto presented by per-slot components with
    Aut-actions and bilinear structure maps phi[(i, l)][m]: X_l -> X_i."""

    tp: TriangularPresentation
    upto: int
    dims: list
    comp_action: list  # slot i -> {group element: Matrix}
    phi: dict  # (i, l), i < l -> {morphism name: Matrix}

    @property
    def total_dim(self):
        return sum(self.dims)

    def validate(self):
        f = self.tp.field
        for i in range(self.upto):
            g = self.tp.vertex_group(i)
            act = self.comp_action[i]
            if act[g.identity] != Matrix.identity(f, self.dims[i]):
                raise IncompatibleMaps(f"identity action at slot {i}")
            for a in g.elements:
                for b in g.elements:
                    if act[a] * act[b] != act[g.mul(a, b)]:
                        raise IncompatibleMaps(f"action not a homomorphism at slot {i}")
        for (i, l), table in self.phi.items():
            gi = self.tp.vertex_group(i)
            gl = self.tp.vertex_group(l)
            for m in self.tp.hom_basis(i, l):
                for g in gi.elements:
                    if self.comp_action[i][g] * table[m] != table[self.tp.compose(g, m)]:
                        raise IncompatibleMaps(f"left linearity fails at ({i},{l})")
                for h in gl.elements:
                    if table[self.tp.compose(m, h)] != table[m] * self.comp_action[l][h]:
                        raise IncompatibleMaps(f"balance fails at ({i},{l})")
        for i in range(self.upto):
            for l in range(i + 1, self.upto):
                for s in range(l + 1, self.upto):
                    for m in self.tp.hom_basis(i, l):
                        for m2 in self.tp.hom_basis(l, s):
                            lhs = self.phi[(i, l)][m] * self.phi[(l, s)][m2]
                            rhs = self.phi[(i, s)][self.tp.compose(m, m2)]
                            if lhs != rhs:
                                raise IncompatibleMaps(f"compatibility fails at ({i},{l},{s})")
        return self


def column_to_rep(tp: TriangularPresentation, cm: ColumnModule) -> ModuleRep:
    """Assemble the action of the full algebra of Gamma_upto from a column
    presentation."""
    cm.validate()
    f = tp.field
    alg = tp.algebra(cm.upto)
    offsets = [0]
    for d in cm.dims:
        offsets.append(offsets[-1] + d)
    total = offsets[-1]
    obj_index = {x: i for i, x in enumerate(tp.pres.ordering[:cm.upto])}
    action = []
    for name in alg.basis:
        m = tp.pres.category.morphisms[name]
        i, j = obj_index[m.dst], obj_index[m.src]
        block = cm.comp_action[i][name] if i == j else cm.phi[(i, j)][name]
        action.append(Matrix.from_entries(f, total, total, (
            (offsets[i] + r, offsets[j] + c, x)
            for r, row in enumerate(block.data) for c, x in enumerate(row) if x)))
    return ModuleRep(alg, total, action)


def _zero_action(tp, i):
    f = tp.field
    return {g: Matrix.zeros(f, 0, 0) for g in tp.vertex_group(i).elements}


def _vertex_action(tp, t0, a: ModuleRep):
    """Slot t0 of i_t and j_t: Aut(x_t0) acting on A."""
    return dict(zip(tp.vertex_group(t0).elements, a.action))


def build_m_star(tp: TriangularPresentation, t: int) -> ColumnModule:
    """The natural left Gamma_t-module with components k Hom(x_{t+1}, x_i),
    i = 1..t (t is 1-based, 1 <= t <= n-1)."""
    _check_t(t, tp.n - 1)
    f = tp.field
    col = t  # 0-based index of x_{t+1}
    dims = []
    comp_action = []
    for i in range(t):
        basis = tp.hom_basis(i, col)
        dims.append(len(basis))
        comp_action.append({g: tp.left_perm(i, col, g)
                            for g in tp.vertex_group(i).elements})
    phi = {}
    for i in range(t):
        for l in range(i + 1, t):
            src_basis = tp.hom_basis(l, col)
            dst_basis = tp.hom_basis(i, col)
            phi[(i, l)] = {mu: _map_matrix(f, src_basis, lambda m: tp.compose(mu, m), dst_basis)
                           for mu in tp.hom_basis(i, l)}
    return ColumnModule(tp, t, dims, comp_action, phi)


def mstar_dim(tp: TriangularPresentation, t: int) -> int:
    return sum(len(tp.hom_basis(i, t)) for i in range(t))


def build_i_t(tp: TriangularPresentation, t: int, a: ModuleRep, upto=None) -> ColumnModule:
    """The induced column module with components M_jt (x)_{R_t} A above slot
    t, A at slot t, zero below (t is 1-based).

    Slot j < t is a quotient of k Hom(x_t, x_j) (x) A, the pair (m, b) at
    ambient index m*dim(A) + b; slot t is read as id_{x_t} (x) A with no
    relations.  A morphism g: x_l -> x_j then acts from slot l to slot j by
    (m, b) -> (g m, b) on the pairs, passed to the quotients."""
    upto = tp.n if upto is None else upto
    _check_t(t, upto)
    f, t0 = tp.field, t - 1
    spaces = [tensor_quotient(f, tp.right_mats(j, t0), a.action) for j in range(t0)]
    spaces.append(QuotientSpace(f, a.dim))
    pairs = [list(product(tp.hom_basis(j, t0), range(a.dim))) for j in range(t0)]
    pairs.append([(tp.vertex_group(t0).identity, b) for b in range(a.dim)])

    def along(g, j, l):
        amb = _map_matrix(f, pairs[l], lambda p: (tp.compose(g, p[0]), p[1]), pairs[j])
        return _on_quotients(spaces[l], spaces[j], amb)

    dims = [q.dim for q in spaces] + [0] * (upto - t)
    comp_action = [{g: along(g, j, j) for g in tp.vertex_group(j).elements} for j in range(t0)]
    comp_action.append(_vertex_action(tp, t0, a))
    comp_action += [_zero_action(tp, j) for j in range(t, upto)]
    phi = {(j, l): {mu: along(mu, j, l) if l <= t0 else Matrix.zeros(f, dims[j], dims[l])
                    for mu in tp.hom_basis(j, l)}
           for j in range(upto) for l in range(j + 1, upto)}
    return ColumnModule(tp, upto, dims, comp_action, phi)


def _hom_space(tp: TriangularPresentation, t0: int, a: ModuleRep, pairs) -> Subspace:
    """Hom_{R_t0}(M_{t0 l}, A) among the vectors on `pairs` (b, m), the value
    of F at m in coordinate b: the F with F(g m) = g F(m) for g in Aut(x_t0)."""
    f, n = tp.field, len(pairs)
    index = {p: x for x, p in enumerate(pairs)}
    entries = []
    for k, (g, ag) in enumerate(zip(tp.vertex_group(t0).elements, a.action)):
        for x, (b, m) in enumerate(pairs):
            entries.append((k * n + x, index[(b, tp.compose(g, m))], f.one))
            entries += [(k * n + x, index[(c, m)], f.neg(v)) for c, v in enumerate(ag.data[b]) if v]
    return Subspace(f, n, Matrix.from_entries(f, len(a.action) * n, n, entries).kernel_basis())


def build_j_t(tp: TriangularPresentation, t: int, a: ModuleRep, upto=None) -> ColumnModule:
    """The coinduced column module with components Hom_{R_t}(M_tl, A) below
    slot t, A at slot t, zero above (t is 1-based).

    Slot l > t is a subspace of the maps F: k Hom(x_l, x_t) -> A, the value
    of F at m in coordinate b at ambient index b*|Hom(x_l, x_t)| + m; slot t
    is read as Hom(id_{x_t}, A) = A.  A morphism g: x_l -> x_j then acts from
    slot l to slot j by F -> F(- o g), the pullback along (b, m) -> (b, m g),
    restricted to the Hom spaces."""
    upto = tp.n if upto is None else upto
    _check_t(t, upto)
    f, t0, da = tp.field, t - 1, a.dim
    pairs = {t0: [(b, tp.vertex_group(t0).identity) for b in range(da)]}
    spaces = {t0: Subspace(f, da, [unit_vector(f, da, b) for b in range(da)])}
    for l in range(t, upto):
        pairs[l] = list(product(range(da), tp.hom_basis(t0, l)))
        spaces[l] = _hom_space(tp, t0, a, pairs[l])

    def along(g, j, l):
        amb = _map_matrix(f, pairs[j], lambda p: (p[0], tp.compose(p[1], g)), pairs[l])
        return _on_subspaces(spaces[l], spaces[j], amb.transpose())

    dims = [0] * t0 + [spaces[l].dim for l in range(t0, upto)]
    comp_action = [_zero_action(tp, j) for j in range(t0)]
    comp_action.append(_vertex_action(tp, t0, a))
    comp_action += [{h: along(h, l, l) for h in tp.vertex_group(l).elements}
                    for l in range(t, upto)]
    phi = {(j, l): {mu: along(mu, j, l) if j >= t0 else Matrix.zeros(f, dims[j], dims[l])
                    for mu in tp.hom_basis(j, l)}
           for j in range(upto) for l in range(j + 1, upto)}
    return ColumnModule(tp, upto, dims, comp_action, phi)


def dual_vertex_module(tp: TriangularPresentation, t: int) -> ModuleRep:
    """D(R_t), the dual of the right regular module, as a left R_t-module."""
    f = tp.field
    g = tp.vertex_group(t - 1)
    action = [_map_matrix(f, g.elements, lambda x: g.mul(x, e)).transpose()
              for e in g.elements]
    return ModuleRep(tp.vertex_algebra(t - 1), g.order, action)


def phi_domain_dim(tp: TriangularPresentation, t: int) -> int:
    """dim of the projective cover source of M_t^*: the sum over j <= l < t
    (0-based) of dim M_jl (x)_{R_l} k U_l, U_l the unfactorizable morphisms
    x_t -> x_l.  Each term counts the orbits of Hom(x_l, x_j) x_{Aut(x_l)} U_l
    by Burnside's lemma, (1/|G|) sum_h |{m : m h = m}| |{u : h u = u}|; for
    j = l the group acts freely and the term is |U_l|."""
    _check_t(t, tp.n - 1)
    total = 0
    for l in range(t):
        units = tp.pres.unfactorizable_homs(l, t)
        if not units:
            continue
        group = tp.vertex_group(l)
        fixed = [(h, sum(tp.compose(h, u) == u for u in units)) for h in group.elements]
        total += sum(k * sum(tp.compose(m, h) == m for m in tp.hom_basis(j, l))
                     for j in range(l + 1) for h, k in fixed if k) // group.order
    return total


def is_mstar_projective(tp: TriangularPresentation, t: int) -> bool:
    """Whether M_t^* is projective over Gamma_t, by the dimension count of
    its projective cover; requires the category to be projective over k."""
    ok, witnesses = is_projective_over(tp.pres, tp.field)
    if not ok:
        raise HypothesisViolated(f"category not projective over k; witnesses {witnesses}")
    return phi_domain_dim(tp, t) == mstar_dim(tp, t)
