"""Each exact operation has one implementation; these pin what it computes.

* The leg operations: ``partial_trace_a``, the leg swap
  ``permute_legs(m, (1, 0))`` and the three triple-tensor embeddings that
  ``check_cybe`` builds from ``kron`` and ``permute_legs`` must give entries
  that are ``==``, ``str``- and ``den_factors``-equal to the reference
  constructions of ``tests/exact_oracle.py`` (the block-sum loop,
  ``P @ m @ P``, the former index swap and the former ``embed_pair``).
  Inputs: the rational r at lam -+ mu, criterion 10's sign-flipped r
  mutants, and random 4x4 matrices whose entries have factored
  denominators, some of them zero.  The residual labels read through
  ``legs`` must equal the former division-and-remainder labels.
* The sum of products: ``dot(ring, pairs)`` must be ``==`` and ``str``-equal
  to the left-to-right ``+`` of the products, for operands with mixed factor
  sets (the atoms lam and mu, a Laurent field), zero operands, and lists
  whose partial sums vanish midway; ``@`` and ``contract``, which sum with
  ``dot``, must match the oracle's ``+`` loop and its embedded-product
  partial trace on random 2x2 and 4x4 matrices.
* ``dot`` finishes its accumulator once (``kernel.finish``) over k products
  with one factor set.  Negation and difference keep the canonical form:
  ``-x`` and ``x - y`` equal, in the same three ways, a fresh canonical
  build of the negated numerator and ``x + (-y)``.
* The Fraction power: ``f ** p`` must equal, in the same three ways, the
  repeated squaring of Fraction products in ``tests/exact_oracle.py``.
* The former pass-through layers: ``rational_r_builder``, which builds P
  once, against the former ``rational_r`` (P rebuilt and each unit entry
  divided per call); ``kron(l_a, l_b)``, which ``check_rll`` commutes with
  r, against the former ``embed_a(l_a) @ embed_b(l_b)``, for the bcn and dn
  site Lax matrices and their sign-flip mutants; and ``double_row.expand``
  against the former ``TransferExpansion.from_scalar`` on b and t of bcn
  N=1..4 and dn N=2..4 and on a value with a lam-free nontrivial
  denominator.  All in the same three ways.
* The former second owners of four decisions: a negative power of a random
  Laurent monomial against the former Laurent loop (same terms and
  ``str``); ``reflect("mu")`` of every entry of M(j, mu) and flow(j, mu) at
  bcn N=1..4 and dn N=2..4, and ``reflect`` of random factored Fractions,
  against the former sign fix; ``tensor_bracket`` of the site Lax matrix
  and k± of bcn N=2 and dn N=2, and of their sign-flip mutants, against
  the former leg loop; ``substitute`` of H at configured parameters, of H
  and every flow matrix under the bcn canonical map at N=1..3, and of
  random factored Fractions under random mappings, against the former
  power cache and ``+`` loop.  All in the same three ways.
  ``toda_structure`` must give the former ``standard`` table, in the same
  order, at bcn N=1..4 and dn N=2..4; at N=10 only the order differs.
* The coercion rule of ``RingElement`` and ``as_fraction``: for each kind of
  operand the result type, or the exception, is pinned, and an exact result
  must equal the one built from ``ring.const`` of the operand's value.
"""

import functools
import operator
from fractions import Fraction as QQ
from math import gcd

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import exact_oracle as oracle
from exact_oracle import assert_same, assert_same_fraction
from bilax import spectral_matrix, structure_checks
from bilax.backend import kernel as K
from bilax.double_row import expand
from bilax.phase_ring import Fraction, Kind, RingElement, StructureError, as_fraction, dot
from bilax.spectral_matrix import (
    SpectralMatrix,
    contract,
    kron,
    lam,
    mu,
    nu,
    partial_trace_a,
    permute_legs,
    rational_r_builder,
    tensor_bracket,
    zeros,
)
from bilax.structure_checks import (
    _tensor_index,
    check_cybe,
    check_rll,
    flip_entry,
    flip_lax_entry,
)
from bilax.toda_models import (
    build_bcn,
    build_dn,
    canonical_map_bcn,
    hamiltonian,
    model_flow_matrix,
    model_from_config,
    toda_ring,
    toda_structure,
)
from mutations import nonzero_positions
from rational_terms import element, rational

RING = build_bcn(1).ring
LAM, MU, NU = lam(RING), mu(RING), nu(RING)
RB = rational_r_builder(RING)

bounded = settings(max_examples=60, deadline=None, derandomize=True, database=None)
#: for the matrix products, whose random operands are large
few = settings(max_examples=20, deadline=None, derandomize=True, database=None)


def cybe_embeddings(r_builder):
    """(r_ab, r_ac, r_bc) as ``check_cybe`` builds them, read off the
    arguments of its three commutators."""
    seen = []

    def spy(a, b):
        seen.append((a, b))
        return zeros(RING, 8)

    original = structure_checks.commutator
    structure_checks.commutator = spy
    try:
        assert check_cybe(r_builder, RING).holds
    finally:
        structure_checks.commutator = original
    (r_ac, r_bc), (r_ab, r_ac2), (r_ab2, r_bc2) = seen
    assert r_ab is r_ab2 and r_ac is r_ac2 and r_bc is r_bc2
    return r_ab, r_ac, r_bc


def assert_leg_operations_match(m, r_builder=None):
    """The leg operations on m; with ``r_builder``, m is
    ``r_builder(lam - mu)`` and the CYBE embeddings are checked too."""
    assert_same(partial_trace_a(m), oracle.partial_trace_a(m))
    swapped = permute_legs(m, (1, 0))
    assert_same(swapped, oracle.swap_legs(m))
    assert_same(swapped, oracle.index_swap_legs(m))
    builder = r_builder or (lambda arg: m)
    args = {(0, 1): LAM - MU, (0, 2): LAM - NU, (1, 2): MU - NU}
    for got, (pair, arg) in zip(cybe_embeddings(builder), args.items()):
        assert_same(got, oracle.embed_pair(builder(arg), pair))


# ---------------------------------------------------------------------------
# leg operations against the reference constructions


def test_leg_operations_on_the_rational_r():
    assert_leg_operations_match(RB(LAM - MU), RB)
    assert_leg_operations_match(RB(LAM + MU))


def test_leg_operations_on_criterion_10_r_mutants():
    positions = nonzero_positions(RB(LAM))
    assert len(positions) == 4
    for i, j in positions:
        mutant = flip_entry(RB, i, j)
        assert_leg_operations_match(mutant(LAM - MU), mutant)
        assert_leg_operations_match(mutant(LAM + MU))


def test_tensor_index_matches_the_former_labels():
    for dim in (2, 4, 8):
        for i in range(dim):
            for j in range(dim):
                assert _tensor_index(dim, i, j) == oracle.tensor_index(dim, i, j)


def test_permute_legs_rejects_an_order_that_is_not_one_of_the_legs():
    m = RB(LAM - MU)
    for order in ((0,), (0, 1, 2), (0, 0), (1, 2)):
        with pytest.raises(StructureError):
            permute_legs(m, order)


GENS = ("u1", "X1", "th1", "a1", "lam", "mu")
DEN_FACTORS = (
    LAM - MU,
    LAM + MU,
    LAM,
    2 * LAM + 1,
    RING.gen("th1"),  # a parameter atom, cancelled against the numerator
    RING.gen("u1"),  # Laurent: folds into the numerator
    RING.gen("X1") + LAM,
)


@st.composite
def monomials(draw):
    powers = {}
    for name in draw(st.lists(st.sampled_from(GENS), max_size=3, unique=True)):
        e = draw(st.integers(-2, 2))
        powers[name] = e if RING.kind_of(name) is Kind.COORD_EXP else abs(e)
    coeff = QQ(draw(st.integers(-4, 4).filter(bool)), draw(st.sampled_from((1, 1, 2, 3))))
    return RING.monomial(powers, coeff)


@st.composite
def entries(draw, factors=DEN_FACTORS):
    num = sum(draw(st.lists(monomials(), max_size=3)), RING.zero)
    den = RING.one
    for f in draw(st.lists(st.sampled_from(factors), max_size=3)):
        den = den * f
    return Fraction(num, den)


def square(n, es=entries()):
    return st.lists(es, min_size=n * n, max_size=n * n).map(
        lambda es: SpectralMatrix(RING, [es[n * i:n * i + n] for i in range(n)])
    )


matrices4 = square(4)


@bounded
@given(matrices4)
def test_leg_operations_on_random_factored_matrices(m):
    assert_leg_operations_match(m)


@bounded
@given(entries(), st.integers(-2, 3))
def test_fraction_power_matches_repeated_products(f, p):
    if p < 0 and f.is_zero:
        with pytest.raises(StructureError):
            f ** p
        return
    assert_same_fraction(f ** p, oracle.fraction_power(f, p))


# ---------------------------------------------------------------------------
# the sum of products against the left-to-right sum


#: with mu, both spectral atoms
DOT_FACTORS = DEN_FACTORS + (MU,)
dot_pairs = st.lists(st.tuples(entries(DOT_FACTORS), entries(DOT_FACTORS)), max_size=4)


@st.composite
def pair_lists(draw):
    """Pairs whose products are summed; in half the lists the head pairs
    are followed by their negations, so that the partial sum vanishes there
    (p, -p, q) before the tail is added."""
    head, tail = draw(dot_pairs), draw(dot_pairs)
    if draw(st.booleans()):
        head += [(-x, y) for x, y in head]
    pairs = head + tail
    return pairs or [(Fraction(RING.zero), Fraction(LAM))]


@bounded
@given(pair_lists())
def test_dot_matches_left_to_right_sum(pairs):
    want = functools.reduce(operator.add, [x * y for x, y in pairs])
    got = dot(RING, pairs)
    assert got == want
    assert str(got) == str(want)
    assert got.den_factors == want.den_factors


def test_dot_restarts_its_factors_where_the_partial_sum_vanishes():
    p = Fraction(RING.gen("X1"), LAM - MU)
    q = Fraction(RING.gen("u1"), LAM + MU)
    one = Fraction(RING.one)
    got = dot(RING, [(p, one), (-p, one), (q, one)])
    assert str(got) == str(q) == "(u1)/((lam + mu))"


def test_dot_finishes_its_accumulator_once(monkeypatch):
    calls = []
    finish = K.finish
    monkeypatch.setattr(K, "finish", lambda out, pk: calls.append(1) or finish(out, pk))
    x = RING.gen("X1") + RING.gen("u1")
    for den in (RING.one, LAM - MU):
        y = Fraction(RING.gen("a1") - 2 * LAM, den)
        pairs = [(Fraction(x ** k), y) for k in range(1, 6)]
        calls.clear()
        got = dot(RING, pairs)
        assert len(calls) == 1
        assert_same_fraction(got, functools.reduce(operator.add, [a * b for a, b in pairs]))


def old_neg(x):
    """-x as a fresh canonical build."""
    return Fraction._make(x.ring, element(x.ring, K.neg(rational(x.num))), x._factor_dict())


@bounded
@given(entries(DOT_FACTORS), entries(DOT_FACTORS), st.booleans())
def test_negation_and_difference_keep_the_canonical_form(x, y, same_factors):
    if same_factors:
        y = Fraction._make(RING, y.num, x._factor_dict())
    assert_same_fraction(-x, old_neg(x))
    assert_same_fraction(x - y, x + old_neg(y))
    assert_same_fraction(x - y, x + (-y))
    assert_same_fraction(1 - x, Fraction(RING.one) + old_neg(x))


@few
@given(st.sampled_from((2, 4)).flatmap(lambda n: st.tuples(square(n), square(n))))
def test_matmul_matches_the_left_to_right_loop(ab):
    a, b = ab
    assert_same(a @ b, oracle.matmul(a, b))


@few
@given(matrices4, square(2))
def test_contract_matches_the_embedded_product(r, c):
    assert_same(contract(r, c), oracle.contract(r, c))


@few
@given(matrices4, square(2), matrices4, square(2))
def test_contract_of_two_insertions_is_their_sum(r1, c1, r2, c2):
    assert contract(r1, c1, r2, c2) == oracle.contract(r1, c1) + oracle.contract(r2, c2)


def test_leg_operations_by_hand():
    # entry ((i,k),(j,l)) of m holds 8i + 4k + 2j + l
    m = SpectralMatrix(RING, [[RING.const(4 * r + c) for c in range(4)] for r in range(4)])
    assert [[str(e) for e in row] for row in partial_trace_a(m).rows] == [
        ["10", "12"], ["18", "20"]
    ]
    # the swap reads entry ((k,i),(l,j)): rows and columns 1 and 2 exchange
    assert [[str(e) for e in row] for row in permute_legs(m, (1, 0)).rows] == [
        ["0", "2", "1", "3"],
        ["8", "10", "9", "11"],
        ["4", "6", "5", "7"],
        ["12", "14", "13", "15"],
    ]


# ---------------------------------------------------------------------------
# the former pass-through layers


def test_rational_r_builder_matches_the_former_rational_r():
    rb = rational_r_builder(RING)
    for arg in (LAM - MU, LAM + MU, LAM - NU, MU - NU, 3 * MU, LAM + 1, RING.gen("X1")):
        assert_same(rb(arg), oracle.rational_r(RING, arg))


def test_rational_r_builder_builds_p_once(monkeypatch):
    calls = []
    build = spectral_matrix.permutation
    monkeypatch.setattr(
        spectral_matrix, "permutation", lambda ring: calls.append(ring) or build(ring)
    )
    rb = rational_r_builder(RING)
    for arg in (LAM - MU, LAM + MU, MU - NU):
        rb(arg)
    assert len(calls) == 1


@pytest.mark.parametrize("name", ["bcn2", "dn2"])
def test_rll_product_matches_the_former_embedded_product(request, monkeypatch, name):
    model = request.getfixturevalue(name)
    ring = model.ring
    l_, m_ = lam(ring), mu(ring)
    laxes = [model.lax] + [
        flip_lax_entry(model.lax, i, j) for i, j in nonzero_positions(model.lax(1, l_))
    ]
    assert len(laxes) == 4
    seen = []
    monkeypatch.setattr(
        structure_checks, "commutator", lambda r, lalb: seen.append(lalb) or zeros(ring, 4)
    )
    for lax in laxes:
        check_rll(lax, rational_r_builder(ring), model.ps)
        la, lb = lax(1, l_), lax(1, m_)
        assert_same(seen.pop(), oracle.embed_a(la) @ oracle.embed_b(lb))


@pytest.mark.parametrize(
    "name,n", [("bcn", n) for n in range(1, 5)] + [("dn", n) for n in range(2, 5)], ids=str
)
def test_expand_matches_the_former_transfer_expansion(name, n):
    d = (build_bcn(n) if name == "bcn" else build_dn(n)).derivation
    for value in (d.b, d.t):
        got, want = expand(value), oracle.from_scalar(value)
        assert list(got) == list(want)
        for p in want:
            assert_same_fraction(got[p], want[p])


def test_expand_keeps_a_lam_free_denominator():
    u1, x1 = RING.gen("u1"), RING.gen("X1")
    value = Fraction(LAM ** 3 * x1 - LAM * 2 + u1 * x1, x1 * (x1 + u1 * 3))
    assert value.den_factors
    got, want = expand(value), oracle.from_scalar(value)
    assert list(got) == list(want) == [0, 1, 3]
    for p in want:
        assert_same_fraction(got[p], want[p])


# ---------------------------------------------------------------------------
# one owner per decision: the former second owners as oracles

#: three Laurent slots, u1..u3
LAURENT_RING = toda_ring(3)


@st.composite
def laurent_monomials(draw):
    powers = {"u%d" % j: draw(st.integers(-3, 3)) for j in (1, 2, 3)}
    coeff = QQ(draw(st.integers(-5, 5).filter(bool)), draw(st.sampled_from((1, 2, 3, 4))))
    return LAURENT_RING.monomial(powers, coeff)


@bounded
@given(laurent_monomials(), st.integers(-4, -1))
def test_negative_power_matches_the_former_laurent_loop(m, p):
    got, want = m ** p, oracle.negative_power(m, p)
    assert (got.terms, got.den) == (want.terms, want.den)
    assert str(got) == str(want)


def test_negative_power_keeps_its_errors():
    u1, x1 = LAURENT_RING.gen("u1"), LAURENT_RING.gen("X1")
    for el, message in ((u1 * x1, "non-Laurent"), (u1 + 1, "non-monomial"),
                        (LAURENT_RING.zero, "non-monomial")):
        for power in (el.__pow__, functools.partial(oracle.negative_power, el)):
            with pytest.raises(StructureError, match=message):
                power(-1)


@pytest.mark.parametrize(
    "name,n", [("bcn", n) for n in range(1, 5)] + [("dn", n) for n in range(2, 5)], ids=str
)
def test_reflect_matches_the_former_sign_fix(name, n):
    model = build_bcn(n) if name == "bcn" else build_dn(n)
    d = model.derivation
    for j in range(1, n + 2):
        for m in (d.M(j, 1), d.flow(j, 1)):
            for e in (e for row in m.rows for e in row):
                assert_same_fraction(e.reflect("mu"), oracle.reflect(e, "mu"))


@bounded
@given(entries(DOT_FACTORS), st.sampled_from(("mu", "lam", "th1", "u1")))
def test_reflect_of_random_factored_fractions_matches(f, name):
    assert_same_fraction(f.reflect(name), oracle.reflect(f, name))


@pytest.mark.parametrize("name", ["bcn2", "dn2"])
def test_tensor_bracket_matches_the_former_leg_loop(request, name):
    model = request.getfixturevalue(name)
    ring, ps = model.ring, model.ps
    l_, m_ = lam(ring), mu(ring)
    site = functools.partial(model.lax, 1)
    builders = [model.km, model.kp, site]
    mutants = builders + [
        flip_entry(b, i, j) for b in builders for i, j in nonzero_positions(b(l_))
    ]
    seen = 0
    for a in mutants:
        for b in (a, model.km, model.kp, site, functools.partial(model.lax, 2)):
            got = tensor_bracket(ps, a(l_), b(m_))
            assert_same(got, oracle.tensor_bracket(ps, a(l_), b(m_)))
            seen += not got.is_zero
    assert seen  # some of the brackets are nonzero
    with pytest.raises(StructureError, match="2x2"):
        tensor_bracket(ps, kron(site(l_), site(m_)), site(m_))


def former_substitute(value, mapping):
    if isinstance(value, RingElement):
        return oracle.substitute(value, mapping)
    return oracle.fraction_substitute(value, mapping)


def assert_same_substitution(value, mapping):
    assert_same_fraction(value.substitute(mapping), former_substitute(value, mapping))


@pytest.mark.parametrize("name,n,params", [
    ("bcn", 1, {"th1": 0.3, "a1": -2, "bN": 1.5}),
    ("bcn", 3, {"th1": 0.25, "aN": 3}),
    ("dn", 2, {"c0": 3}),
    ("dn", 3, {"c0": 0.5, "c1": -2}),
], ids=str)
def test_substitute_matches_the_former_sum_on_h_at_the_parameters(name, n, params):
    model = model_from_config({"model": name, "N": n, "params": params})
    exact = {p: QQ(str(v)) for p, v in model.params.items()}
    assert_same_substitution(hamiltonian(model), exact)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_substitute_matches_the_former_sum_on_the_canonical_map(n):
    model = build_bcn(n)
    cm = canonical_map_bcn(model)
    assert_same_substitution(hamiltonian(model), cm)
    for j in range(1, n + 2):
        for e in (e for row in model_flow_matrix(model, j).rows for e in row):
            assert_same_substitution(e, cm)


@st.composite
def substitutions(draw):
    """A mapping of up to three of X1, th1, lam and u1; u1's value is a
    monomial, so its negative powers exist."""
    values = {"X1": entries(), "th1": st.integers(-3, 3), "lam": monomials(),
              "u1": monomials().filter(lambda m: not m.is_zero)}
    names = draw(st.lists(st.sampled_from(sorted(values)), max_size=3, unique=True))
    return {name: draw(values[name]) for name in names}


@bounded
@given(entries(), substitutions())
def test_substitute_matches_the_former_sum_on_random_fractions(f, mapping):
    for value in (f.num, f):
        try:
            want = former_substitute(value, mapping)
        except StructureError:  # a denominator that the mapping sends to 0
            with pytest.raises(StructureError):
                value.substitute(mapping)
            continue
        assert_same_fraction(value.substitute(mapping), want)


def test_substitute_of_zero_is_the_canonical_zero():
    assert_same_fraction(RING.zero.substitute({"X1": LAM}), Fraction(RING.zero))


@pytest.mark.parametrize(
    "name,n", [("bcn", n) for n in range(1, 5)] + [("dn", n) for n in range(2, 5)], ids=str
)
def test_toda_structure_matches_the_former_standard(name, n):
    ring = toda_ring(n, dynamical=name == "dn")
    got, want = toda_structure(ring)._table, oracle.standard(ring)._table
    assert list(got) == list(want)
    for key in want:
        assert got[key] == want[key] and str(got[key]) == str(want[key])


def test_toda_structure_orders_the_sites_as_the_ring_does():
    # the former table sorted the sites as strings, so "10" came before "2";
    # only the order differs, and each bracket is an exact sum over it
    ring = toda_ring(10)
    got, want = toda_structure(ring)._table, oracle.standard(ring)._table
    assert list(got) != list(want)
    assert got == want
    x1, u2, x10 = ring.gen("X1"), ring.gen("u2"), ring.gen("X10")
    f = x1 * u2 + x10 * ring.gen("u10") ** -1
    g = ring.gen("u1") * ring.gen("X2") + ring.gen("u10")
    assert toda_structure(ring).bracket(f, g).terms == oracle.standard(ring).bracket(f, g).terms


# ---------------------------------------------------------------------------
# the coercion table


class Foreign:
    def __repr__(self):
        return "Foreign()"


OPERANDS = (
    ("int", 2),
    ("bool", True),
    ("fractions.Fraction", QQ(1, 2)),
    ("numpy.int64", np.int64(2)),
    ("float", 2.0),
    ("numpy.float64", np.float64(2.0)),
    ("foreign", Foreign()),
    ("other ring", build_bcn(2).ring.gen("X1")),
)
#: the exact value of each operand that coerces
EXACT = {"int": 2, "bool": 1, "fractions.Fraction": QQ(1, 2), "numpy.int64": 2}

OPS = {
    "el*x": lambda el, x: el * x,
    "x*el": lambda el, x: x * el,
    "el+x": lambda el, x: el + x,
    "as_fraction": lambda el, x: as_fraction(el.ring, x),
}
R, F, S, T = RingElement, Fraction, StructureError, TypeError
#: result type or exception, in OPERANDS order
TABLE = {
    "el*x": (R, R, R, R, S, S, T, S),
    "x*el": (R, R, R, R, S, S, T, S),
    "el+x": (R, R, R, R, S, S, T, S),
    "as_fraction": (F, F, F, F, S, S, type(None), S),
}
#: el == x, in OPERANDS order
EQUALS = {
    "X1 + 2": (False,) * 8,
    "2": (True, False, False, True, False, False, False, False),
}
ELEMENTS = {"X1 + 2": RING.gen("X1") + 2, "2": RING.const(2)}


def canonical(value):
    """Int terms over a positive int den coprime to their gcd, read as
    canonical rationals."""
    el = value.num if isinstance(value, Fraction) else value
    return (all(type(c) is int for c in el.terms.values())
            and type(el.den) is int and gcd(el.den, *el.terms.values()) == 1
            and all(type(c) is int or (type(c) is QQ and c.denominator != 1)
                    for _, c in el.monomials()))


@pytest.mark.parametrize("el_name", sorted(ELEMENTS))
@pytest.mark.parametrize("op", sorted(OPS))
def test_coercion_table(op, el_name):
    el = ELEMENTS[el_name]
    for (name, x), want in zip(OPERANDS, TABLE[op]):
        if isinstance(want, type) and issubclass(want, Exception):
            with pytest.raises(want):
                OPS[op](el, x)
            continue
        got = OPS[op](el, x)
        assert type(got) is want, (op, name)
        if got is None:
            continue
        ref = OPS[op](el, RING.const(EXACT[name]))
        assert str(got) == str(ref), (op, name)
        assert canonical(got), (op, name)


@pytest.mark.parametrize("el_name", sorted(ELEMENTS))
def test_equality_table(el_name):
    el = ELEMENTS[el_name]
    for (name, x), want in zip(OPERANDS, EQUALS[el_name]):
        got = el == x
        assert type(got) is bool and got is want, name
        assert (el != x) is (not want), name
