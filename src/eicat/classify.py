"""Headline classifications of a finite EI category algebra: Gorenstein,
1-Gorenstein, 0-Gorenstein (quasi-Frobenius), hereditary, and the
self-injective dimension bound."""

from __future__ import annotations

from dataclasses import dataclass, field

from .category import FiniteCategory, SkeletalEIPresentation, presentation_of
from .freeness import decompose, is_free, unfactorizables
from .groups import is_projective_over, morphism_stabilizers
from .linalg import Field
from .triangular import (
    HypothesisViolated,
    build_triangular,
    mstar_dim,
    phi_domain_dim,
)


@dataclass
class ClassificationReport:
    characteristic: int
    is_ei: bool
    is_skeletal: bool
    ordering: list
    projective_over_k: bool
    projectivity_witnesses: list
    free: bool
    freeness_counterexample: object
    gorenstein: bool
    one_gorenstein: bool
    zero_gorenstein: bool
    hereditary: bool
    gorenstein_dim_bound: object  # int or "n/a"
    # the presentation the flags were read from, for `explain`; not reported
    presentation: SkeletalEIPresentation = field(default=None, repr=False, compare=False)

    def to_json(self):
        return {
            "characteristic": self.characteristic,
            "is_ei": self.is_ei,
            "is_skeletal": self.is_skeletal,
            "ordering": list(self.ordering),
            "projective_over_k": self.projective_over_k,
            "projectivity_witnesses": list(self.projectivity_witnesses),
            "free": self.free,
            "freeness_counterexample": _cx_json(self.freeness_counterexample),
            "gorenstein": self.gorenstein,
            "one_gorenstein": self.one_gorenstein,
            "zero_gorenstein": self.zero_gorenstein,
            "hereditary": self.hereditary,
            "gorenstein_dim_bound": self.gorenstein_dim_bound,
        }


def _cx_json(cx):
    if cx is None:
        return None
    alpha, (a1, a2), (b1, b2) = cx
    return {"morphism": alpha, "factorizations": [[a1, a2], [b1, b2]]}


def classify(c: FiniteCategory, f: Field) -> ClassificationReport:
    """Decide all flags for the category algebra over a field of the given
    characteristic.

    gorenstein iff the category is projective over k (all morphism stabilizer
    orders invertible); one_gorenstein iff additionally free; hereditary iff
    free with all |Aut(x_i)| invertible; zero_gorenstein iff there are no
    non-endomorphisms (a product of group algebras, quasi-Frobenius).

    Sources of the flags:
    - one_gorenstein: both sides are the theorem of arXiv:1412.8278, "the
      category algebra is 1-Gorenstein iff the category is free and
      projective".
    - gorenstein: the "true" side is the same paper's result that a
      projective EI category has a Gorenstein algebra; the "false" side rests
      only on the agreement with the oracle that the tests check.
    - hereditary: no source is cited here; both sides rest only on the
      agreement with the oracle's global dimension that the tests check.
    - zero_gorenstein: the "true" side holds because a product of group
      algebras is self-injective; the "false" side rests only on the
      agreement with the oracle's self-injective dimensions that the tests
      check.

    Raises NotEI when c is not EI."""
    p = presentation_of(c)
    skeletal = p.n == len(c.objects)

    projective, witnesses = is_projective_over(p, f)
    freeness = is_free(p)

    gorenstein = projective
    one_g = gorenstein and freeness.free
    zero_g = all(m.src == m.dst for m in p.category.morphisms.values())
    hereditary = freeness.free and all(
        f.invertible(p.aut_group(i).order) for i in range(p.n))

    if projective and freeness.free:
        # group-algebra vertices are self-injective, so every d_i = 0
        bound = gorenstein_bound([0] * p.n, True)
    else:
        bound = "n/a"

    report = ClassificationReport(
        characteristic=f.characteristic,
        is_ei=True,
        is_skeletal=skeletal,
        ordering=list(p.ordering),
        projective_over_k=projective,
        projectivity_witnesses=witnesses,
        free=freeness.free,
        freeness_counterexample=freeness.counterexample,
        gorenstein=gorenstein,
        one_gorenstein=one_g,
        zero_gorenstein=zero_g,
        hereditary=hereditary,
        gorenstein_dim_bound=bound,
        presentation=p,
    )
    assert not report.one_gorenstein or report.gorenstein
    assert not report.hereditary or report.one_gorenstein
    assert not report.zero_gorenstein or report.one_gorenstein
    return report


def gorenstein_bound(d, mstar_projective: bool) -> int:
    """Upper bound for the self-injective dimension of the triangular algebra
    from the per-vertex self-injective dimensions d_1..d_n.

    Valid only when every M_t^* is projective.  Two vertices: max(d_1, d_2)
    if they differ, else d_1 + 1; more vertices iterate the same rule along
    leading principal subalgebras, never exceeding max(d) + 1."""
    if not mstar_projective:
        raise HypothesisViolated("bound requires every M_t^* projective")
    d = list(d)
    if not d:
        raise ValueError("need at least one vertex")
    cur = d[0]
    for di in d[1:]:
        cur = di + 1 if cur == di else max(cur, di)
    assert cur <= max(d) + 1
    return cur


def explain(c: FiniteCategory, f: Field, *, report: ClassificationReport | None = None):
    """Witness detail for a classification: stabilizer orders of projectivity
    witnesses, a decomposition of the freeness counterexample morphism, the
    unfactorizable morphisms per hom-set, and the per-t dimension ledger for
    the M_t^* projectivity test.

    `report` is `classify(c, f)` when the caller already has it; its
    presentation is then reused, so nothing is classified twice."""
    if report is None:
        report = classify(c, f)
    p = report.presentation
    out = {"stabilizer_orders": {}, "counterexample_decomposition": None,
           "mstar_ledger": {}, "unfactorizables": {}}
    for w in report.projectivity_witnesses:
        left, right = morphism_stabilizers(p, w)
        out["stabilizer_orders"][w] = {"left": left, "right": right}
    if report.freeness_counterexample is not None:
        alpha = report.freeness_counterexample[0]
        out["counterexample_decomposition"] = {
            "morphism": alpha, "chain": decompose(p, alpha)}
    for (i, j), homs in unfactorizables(p).items():
        if homs:
            out["unfactorizables"][f"{i + 1},{j + 1}"] = list(homs)
    if report.projective_over_k:
        tp = build_triangular(p, f)
        for t in range(1, p.n):
            dom = phi_domain_dim(tp, t)
            target = mstar_dim(tp, t)
            out["mstar_ledger"][str(t)] = {
                "cover_dim": dom, "dim": target, "projective": dom == target}
    return out
