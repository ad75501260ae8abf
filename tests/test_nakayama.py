"""The oracle against the closed-form dimensions of Nakayama algebras
(`tests/nakayama.py`): a family outside the corpus, with infinite global
dimension, sides that are not Gorenstein, and finite dimensions up to
2n - 2 on n vertices."""

import json

import pytest
from conftest import CAP
from nakayama import dimensions, kupisch_series, nakayama_algebra

from eicat.algebra import algebra_from_category
from eicat.cli import _run_oracle, main
from eicat.families import chain_poset, poset_category
from eicat.homology import DimensionVerdict
from eicat.linalg import Field


def _expected(c, cap):
    """(id_l, id_r, gldim) of the series c as the oracle reads them at the
    cap: the exact value, or ">cap" for one above it or infinite."""
    return tuple(DimensionVerdict.of(cap + 1 if x is None else x, cap).value
                 for x in dimensions(c))


def _oracle(a, cap):
    verdict, gldim = _run_oracle(a, cap)
    return verdict.left.value, verdict.right.value, gldim.value


def test_the_series_cover_every_kind_of_answer():
    """The tier-1 sweep: 146 valid series with n <= 4 and c_i <= 5, 22 of
    them linear; Gorenstein sides of finite and infinite global dimension,
    and sides that are not Gorenstein, all occur."""
    series = kupisch_series(4, 5)
    assert len(series) == 146 and sum(c[-1] == 1 for c in series) == 22
    kinds = {(ids is None, gldim is None) for ids, _, gldim in map(dimensions, series)}
    assert kinds == {(False, False), (False, True), (True, True)}
    assert all(len(set(dimensions(c)[:2])) == 1 for c in series)


@pytest.mark.parametrize("char", [0, 2])
def test_the_oracle_reads_the_closed_form_dimensions(char):
    """On every valid series with n <= 4 and c_i <= 5, the oracle's
    (id_l, id_r, gldim) at cap 8 equals the uniserial arithmetic's."""
    f = Field(char)
    wrong = [(c, got, want) for c in kupisch_series(4, 5)
             if (got := _oracle(nakayama_algebra(c, f), CAP)) != (want := _expected(c, CAP))]
    assert wrong == []


@pytest.mark.parametrize("char", [0, 2])
def test_the_linear_series_without_relations_is_the_chain(char):
    """c_i = n - i is the path algebra of the linear quiver, the algebra of
    the chain poset on n elements: the same dimension and the same
    verdicts, hereditary from n = 2 on."""
    f = Field(char)
    for n in range(1, 7):
        c = tuple(range(n, 0, -1))
        a, chain = nakayama_algebra(c, f), algebra_from_category(poset_category(chain_poset(n)), f)
        assert a.dim == chain.dim == n * (n + 1) // 2
        assert _oracle(a, CAP) == _oracle(chain, CAP) == _expected(c, CAP) \
            == ((0, 0, 0) if n == 1 else (1, 1, 1))


@pytest.mark.parametrize("c, want", [
    ((3, 3, 4), {"left": 2, "right": 2, "gldim": ">8"}),
    ((3, 4), {"left": ">8", "right": ">8", "gldim": ">8"}),
    ((3, 4, 4), {"left": 4, "right": 4, "gldim": 4}),
], ids=["gorenstein_infinite_gldim", "not_gorenstein", "finite_gldim"])
def test_a_matrix_export_through_the_cli_oracle(c, want, tmp_path, capsys):
    """A series written as a matrix export gets its known answer from the
    CLI `oracle` in char 3."""
    assert _expected(c, CAP) == (want["left"], want["right"], want["gldim"])
    path = tmp_path / "nakayama.json"
    path.write_text(json.dumps(nakayama_algebra(c, Field(3)).to_json()))
    assert main(["oracle", str(path), "--char", "3", "--cap", str(CAP)]) == 0
    assert json.loads(capsys.readouterr().out) == {**want, "cap": CAP}


@pytest.mark.slow
def test_the_oracle_reads_the_closed_form_dimensions_on_larger_series():
    """Every valid series with n <= 5 and c_i <= 7 in char 0 at cap 8, and
    the 12 series at n = 6 with c_i <= 7 that have a finite dimension of 9
    or 10, at caps 8 (where they read ">8") and 12."""
    f = Field(0)
    series = kupisch_series(5, 7)
    assert len(series) == 782
    wrong = [(c, got, want) for c in series
             if (got := _oracle(nakayama_algebra(c, f), CAP)) != (want := _expected(c, CAP))]
    deep = [c for c in kupisch_series(6, 7) if len(c) == 6 and {9, 10} & set(dimensions(c))]
    assert len(deep) == 12
    for cap in (CAP, 12):
        wrong += [(c, cap, got, want) for c in deep
                  if (got := _oracle(nakayama_algebra(c, f), cap)) != (want := _expected(c, cap))]
    assert wrong == []
