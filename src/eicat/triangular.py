"""The upper triangular matrix algebra of a skeletal EI category, column
modules, the induction/coinduction constructions, and the projectivity test
for the natural column modules M_t^* by dimension count."""

from __future__ import annotations

from dataclasses import dataclass, field

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

    def right_perm(self, i, j, h) -> Matrix:
        """Pre-composition with h in Aut(x_j) as a permutation of M_ij."""
        return _map_matrix(self.field, self.hom_basis(i, j), lambda m: self.compose(m, h))

    def right_mats(self, i, j):
        """Right action of the R_j basis on M_ij, one matrix per group element."""
        g = self.vertex_group(j)
        return [self.right_perm(i, j, e) for e in g.elements]

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


def tensor_dim(f: Field, right_mats, left_mats) -> int:
    """dim of M (x)_R N, by exact rank of the balancing relations."""
    if not right_mats or not left_mats:
        return 0
    if right_mats[0].rows == 0 or left_mats[0].rows == 0:
        return 0
    return tensor_quotient(f, right_mats, left_mats).dim


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


def build_m_star(tp: TriangularPresentation, t: int) -> ColumnModule:
    """The natural left Gamma_t-module with components k Hom(x_{t+1}, x_i),
    i = 1..t (t is 1-based, 1 <= t <= n-1)."""
    if not 1 <= t <= tp.n - 1:
        raise IndexOutOfRange(f"t must be in 1..{tp.n - 1}, got {t}")
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
    t, A at slot t, zero below (t is 1-based)."""
    upto = tp.n if upto is None else upto
    if not 1 <= t <= upto:
        raise IndexOutOfRange(f"t must be in 1..{upto}, got {t}")
    f = tp.field
    t0 = t - 1
    quotients = {}
    dims = [0] * upto
    for j in range(t0):
        q = tensor_quotient(f, tp.right_mats(j, t0), a.action)
        quotients[j] = q
        dims[j] = q.dim
    dims[t0] = a.dim
    comp_action = []
    for j in range(upto):
        if j < t0:
            q = quotients[j]
            basis_jt = tp.hom_basis(j, t0)
            index_jt = {m: x for x, m in enumerate(basis_jt)}
            da = a.dim
            act = {}
            for g in tp.vertex_group(j).elements:
                cols = []
                for co in range(q.dim):
                    amb = q.lift(unit_vector(f, q.dim, co))
                    mapped = [f.zero] * len(amb)
                    for x, c in enumerate(amb):
                        if c != 0:
                            mi, bi = divmod(x, da)
                            mapped[index_jt[tp.compose(g, basis_jt[mi])] * da + bi] = c
                    cols.append(q.project(mapped))
                act[g] = Matrix.from_columns(f, cols, rows=q.dim)
            comp_action.append(act)
        elif j == t0:
            group = tp.vertex_group(j)
            comp_action.append({g: Matrix(f, a.action[x].data)
                                for x, g in enumerate(group.elements)})
        else:
            comp_action.append(_zero_action(tp, j))
    phi = {}
    da = a.dim
    for j in range(upto):
        for l in range(j + 1, upto):
            table = {}
            for mu in tp.hom_basis(j, l):
                if l < t0:
                    ql, qj = quotients[l], quotients[j]
                    basis_lt = tp.hom_basis(l, t0)
                    basis_jt = tp.hom_basis(j, t0)
                    index_jt = {m: x for x, m in enumerate(basis_jt)}
                    cols = []
                    for co in range(ql.dim):
                        amb = ql.lift(unit_vector(f, ql.dim, co))
                        mapped = [f.zero] * (len(basis_jt) * da)
                        for x, c in enumerate(amb):
                            if c != 0:
                                mi, bi = divmod(x, da)
                                mapped[index_jt[tp.compose(mu, basis_lt[mi])] * da + bi] = c
                        cols.append(qj.project(mapped))
                    table[mu] = Matrix.from_columns(f, cols, rows=qj.dim)
                elif l == t0:
                    qj = quotients[j]
                    basis_jt = tp.hom_basis(j, t0)
                    index_jt = {m: x for x, m in enumerate(basis_jt)}
                    cols = []
                    for b in range(da):
                        amb = [f.zero] * (len(basis_jt) * da)
                        amb[index_jt[mu] * da + b] = f.one
                        cols.append(qj.project(amb))
                    table[mu] = Matrix.from_columns(f, cols, rows=qj.dim)
                else:
                    table[mu] = Matrix.zeros(f, dims[j], dims[l])
            phi[(j, l)] = table
    return ColumnModule(tp, upto, dims, comp_action, phi)


def build_j_t(tp: TriangularPresentation, t: int, a: ModuleRep, upto=None) -> ColumnModule:
    """The coinduced column module with components Hom_{R_t}(M_tl, A) below
    slot t, A at slot t, zero above (t is 1-based)."""
    upto = tp.n if upto is None else upto
    if not 1 <= t <= upto:
        raise IndexOutOfRange(f"t must be in 1..{upto}, got {t}")
    f = tp.field
    t0 = t - 1
    da = a.dim
    group_t = tp.vertex_group(t0)

    hom_spaces = {}  # slot l > t0 -> (Subspace of vec(F), dm_l)
    for l in range(t0 + 1, upto):
        basis_tl = tp.hom_basis(t0, l)
        dm = len(basis_tl)
        # unknown F is da x dm, vec index r*dm + c; constraints F P_g = L_g F
        rows = []
        for x, g in enumerate(group_t.elements):
            pg = tp.left_perm(t0, l, g)
            lg = a.action[x]
            for r in range(da):
                for c in range(dm):
                    row = [f.zero] * (da * dm)
                    for cc in range(dm):
                        if pg.data[cc][c] != 0:
                            row[r * dm + cc] = f.add(row[r * dm + cc], pg.data[cc][c])
                    for rr in range(da):
                        if lg.data[r][rr] != 0:
                            row[rr * dm + c] = f.sub(row[rr * dm + c], lg.data[r][rr])
                    rows.append(row)
        kernel = Matrix(f, rows).kernel_basis() if rows and da * dm else \
            [unit_vector(f, da * dm, j) for j in range(da * dm)]
        hom_spaces[l] = (Subspace(f, da * dm, kernel), dm)

    dims = [0] * upto
    dims[t0] = da
    for l in range(t0 + 1, upto):
        dims[l] = hom_spaces[l][0].dim

    def as_matrix(vec, dm):
        return Matrix(f, [[vec[r * dm + c] for c in range(dm)] for r in range(da)])

    comp_action = []
    for j in range(upto):
        if j < t0:
            comp_action.append(_zero_action(tp, j))
        elif j == t0:
            group = tp.vertex_group(j)
            comp_action.append({g: Matrix(f, a.action[x].data)
                                for x, g in enumerate(group.elements)})
        else:
            sub, dm = hom_spaces[j]
            act = {}
            for h in tp.vertex_group(j).elements:
                ph = tp.right_perm(t0, j, h)
                cols = []
                for b in range(sub.dim):
                    fb = as_matrix(sub.basis[b], dm)
                    mapped = fb * ph
                    co = sub.coords([x for row in mapped.data for x in row])
                    if co is None:
                        raise IncompatibleMaps("Hom space not invariant")
                    cols.append(co)
                act[h] = Matrix.from_columns(f, cols, rows=sub.dim)
            comp_action.append(act)

    phi = {}
    for j in range(upto):
        for l in range(j + 1, upto):
            table = {}
            for mu in tp.hom_basis(j, l):
                if j < t0 or l <= t0:
                    table[mu] = Matrix.zeros(f, dims[j], dims[l])
                elif j == t0:
                    # evaluation at mu in M_tl
                    sub, dm = hom_spaces[l]
                    basis_tl = tp.hom_basis(t0, l)
                    mu_idx = basis_tl.index(mu)
                    cols = []
                    for b in range(sub.dim):
                        fb = as_matrix(sub.basis[b], dm)
                        cols.append(fb.column(mu_idx))
                    table[mu] = Matrix.from_columns(f, cols, rows=da)
                else:
                    # f -> (m_tj -> f(m_tj o mu))
                    sub_l, dm_l = hom_spaces[l]
                    sub_j = hom_spaces[j][0]
                    qmu = _map_matrix(f, tp.hom_basis(t0, j), lambda m: tp.compose(m, mu),
                                      tp.hom_basis(t0, l))
                    cols = []
                    for b in range(sub_l.dim):
                        fb = as_matrix(sub_l.basis[b], dm_l)
                        mapped = fb * qmu
                        co = sub_j.coords([x for row in mapped.data for x in row])
                        if co is None:
                            raise IncompatibleMaps("evaluation leaves the Hom space")
                        cols.append(co)
                    table[mu] = Matrix.from_columns(f, cols, rows=sub_j.dim)
            phi[(j, l)] = table
    return ColumnModule(tp, upto, dims, comp_action, phi)


def dual_vertex_module(tp: TriangularPresentation, t: int) -> ModuleRep:
    """D(R_t), the dual of the right regular module, as a left R_t-module."""
    f = tp.field
    g = tp.vertex_group(t - 1)
    action = [_map_matrix(f, g.elements, lambda x: g.mul(x, e)).transpose()
              for e in g.elements]
    return ModuleRep(tp.vertex_algebra(t - 1), g.order, action)


def unfactorizable_left_module(tp: TriangularPresentation, l: int, j: int):
    """The span of unfactorizables in Hom(x_{j+1}, x_{l+1}) as a left
    R_l-module (0-based slots l < j).  Returns (basis names, action mats)."""
    unf = tp.pres.unfactorizable_homs(l, j)
    return unf, [_map_matrix(tp.field, unf, lambda m: tp.compose(g, m))
                 for g in tp.vertex_group(l).elements]


def phi_domain_dim(tp: TriangularPresentation, t: int) -> int:
    """dim of the projective cover source: sum over l <= t of
    dim i_l(span of unfactorizables Hom^0(x_{t+1}, x_l))."""
    if not 1 <= t <= tp.n - 1:
        raise IndexOutOfRange(f"t must be in 1..{tp.n - 1}, got {t}")
    f = tp.field
    col = t  # 0-based index of x_{t+1}
    total = 0
    for l0 in range(t):
        unf, left_mats = unfactorizable_left_module(tp, l0, col)
        if not unf:
            continue
        total += len(unf)
        for j0 in range(l0):
            total += tensor_dim(f, tp.right_mats(j0, l0), left_mats)
    return total


def is_mstar_projective(tp: TriangularPresentation, t: int) -> bool:
    """Whether M_t^* is projective over Gamma_t, by the dimension count of
    its projective cover; requires the category to be projective over k."""
    ok, witnesses = is_projective_over(tp.pres, tp.field)
    if not ok:
        raise HypothesisViolated(f"category not projective over k; witnesses {witnesses}")
    return phi_domain_dim(tp, t) == mstar_dim(tp, t)
