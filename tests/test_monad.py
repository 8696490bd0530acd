from itertools import product

import pytest

from ctsmin import OrderError, Poset, validate_poset
from reference.order import leq, relation
from reference.lattice import HeytingFrame, TooLarge
from reference.maps import MonotoneMap
from reference.monad import (
    ReaderMap,
    StarMap,
    TxSpace,
    kleisli_compose,
    reader_kleisli_compose,
    reader_to_star,
    star_leq,
    t_map,
    t_mult,
    t_unit,
    tau,
    tau_inv,
    tx_space,
    validate_kleisli,
)

X_SHAPES = {
    "x1": validate_poset(["x0"], []),
    "x2d": validate_poset(["x0", "x1"], []),
    "x2c": validate_poset(["x0", "x1"], [("x0", "x1")]),
    "x3d": validate_poset(["x0", "x1", "x2"], []),
    "x3c": validate_poset(["x0", "x1", "x2"], [("x0", "x1"), ("x1", "x2")]),
    "x3v": validate_poset(["x0", "x1", "x2"], [("x0", "x1"), ("x0", "x2")]),
    "x3w": validate_poset(["x0", "x1", "x2"], [("x0", "x2"), ("x1", "x2")]),
    "x3m": validate_poset(["x0", "x1", "x2"], [("x0", "x1")]),
}

P_SHAPES = {
    "p1": validate_poset(["c0"], []),
    "p2d": validate_poset(["c0", "c1"], []),
    "p2c": validate_poset(["c0", "c1"], [("c0", "c1")]),
}

COMBOS = [
    (xn, pn, X_SHAPES[xn], P_SHAPES[pn])
    for xn in sorted(X_SHAPES)
    for pn in sorted(P_SHAPES)
]


def monotone_readers(conditions: Poset, cod: Poset):
    """Independent enumeration of all monotone maps conditions -> cod."""
    out = []
    for values in product(cod.elements, repeat=len(conditions.elements)):
        table = dict(zip(conditions.elements, values))
        if all(leq(cod, table[p], table[q]) for p, q in relation(conditions)):
            out.append(table)
    return out


def check_tau_bijection(dom, conditions, frame, space):
    """tau is a bijection from T(X) onto the monotone readers."""
    readers = monotone_readers(conditions, dom)
    assert len(space.maps) == len(readers)
    assert len({tau(b).entries for _, b in space.maps}) == len(space.maps)
    for _, b in space.maps:
        assert tau_inv(tau(b), frame) == b
    for table in readers:
        r = ReaderMap.of(conditions, dom, table)
        assert tau(tau_inv(r, frame)) == r


def check_residuation(dom, conditions, frame, space):
    """tau(b)(phi) is below x iff phi is in b(x), read from both sides."""
    for _, b in space.maps:
        r = tau(b)
        for phi in conditions.elements:
            for x in dom.elements:
                assert leq(dom, r.value(phi), x) == (phi in b.value(x).members)
    for table in monotone_readers(conditions, dom):
        r = ReaderMap.of(conditions, dom, table)
        b = tau_inv(r, frame)
        for phi in conditions.elements:
            for x in dom.elements:
                assert (phi in b.value(x).members) == leq(dom, r.value(phi), x)


def check_unit_laws(dom, conditions, frame, space):
    """eta lands in T(X), and mu after eta_T or after T(eta) is the
    identity."""
    unit = t_unit(dom, frame)
    unit_tx = t_unit(space.poset, frame)
    for x in dom.elements:
        assert unit[x] in dict(space.maps).values()
    embed = MonotoneMap.of(
        dom, space.poset, {x: space.name_of(unit[x]) for x in dom.elements}
    )
    for name, b in space.maps:
        assert t_mult(unit_tx[name], space) == b
        assert t_mult(t_map(embed, b), space) == b


def test_star_map_rejects_non_monotone():
    dom = X_SHAPES["x2c"]
    f = HeytingFrame(P_SHAPES["p1"])
    with pytest.raises(OrderError):
        StarMap.of(dom, f, {"x0": ["c0"], "x1": []})


def test_star_map_rejects_missing_least_witness():
    dom = X_SHAPES["x2d"]
    f = HeytingFrame(P_SHAPES["p1"])
    # both states witness c0 and neither is least
    with pytest.raises(OrderError):
        StarMap.of(dom, f, {"x0": ["c0"], "x1": ["c0"]})
    # no state witnesses c0 at all
    with pytest.raises(OrderError):
        StarMap.of(dom, f, {"x0": [], "x1": []})


def test_invariant_breaks_raise_typed_errors():
    dom = X_SHAPES["x2d"]
    f = HeytingFrame(P_SHAPES["p1"])
    # direct construction skips the min-condition check of StarMap.of
    unchecked = StarMap(dom, f, (("x0", f.bottom), ("x1", f.bottom)))
    with pytest.raises(OrderError):
        tau(unchecked)
    empty = TxSpace(validate_poset((), frozenset()), ())
    with pytest.raises(OrderError):
        t_mult(StarMap(empty.poset, f, ()), empty)


def test_tx_space_size_guard():
    big = validate_poset([f"x{i}" for i in range(7)], [])
    with pytest.raises(TooLarge):
        tx_space(big, HeytingFrame(P_SHAPES["p2d"]))


def test_tx_two_point_discrete_carrier_has_two_elements():
    space = tx_space(X_SHAPES["x2d"], HeytingFrame(P_SHAPES["p2c"]))
    assert len(space.maps) == 2


# one test per shape for each law that criterion 7 checks on all shapes
# at once, through the same check function


@pytest.mark.parametrize("xn,pn,dom,conditions", COMBOS)
def test_tau_is_a_bijection_onto_monotone_readers(xn, pn, dom, conditions):
    frame = HeytingFrame(conditions)
    check_tau_bijection(dom, conditions, frame, tx_space(dom, frame))


@pytest.mark.parametrize("xn,pn,dom,conditions", COMBOS)
def test_residuation_laws(xn, pn, dom, conditions):
    frame = HeytingFrame(conditions)
    check_residuation(dom, conditions, frame, tx_space(dom, frame))


@pytest.mark.parametrize("xn,pn,dom,conditions", COMBOS)
def test_monad_unit_laws(xn, pn, dom, conditions):
    frame = HeytingFrame(conditions)
    check_unit_laws(dom, conditions, frame, tx_space(dom, frame))


@pytest.mark.parametrize("xn,pn,dom,conditions", COMBOS)
def test_t_order_reverses_reader_order(xn, pn, dom, conditions):
    frame = HeytingFrame(conditions)
    space = tx_space(dom, frame)
    for _, b in space.maps:
        for _, c in space.maps:
            pointwise = all(
                leq(dom, tau(b).value(phi), tau(c).value(phi))
                for phi in conditions.elements
            )
            assert star_leq(b, c) == pointwise


def _strided(items, cap):
    step = max(1, len(items) // cap)
    return items[::step]


def all_kleisli_arrows(dom, cod, frame, cap=12):
    # a Kleisli map must be monotone from dom into the reversed T order,
    # which on the reader side is per-condition monotonicity in the state
    arrows = []
    for tables in product(
        monotone_readers(frame.base, cod), repeat=len(dom.elements)
    ):
        flat = {
            (x, phi): tables[i][phi]
            for i, x in enumerate(dom.elements)
            for phi in frame.base.elements
        }
        if all(
            leq(cod, flat[(p, phi)], flat[(q, phi)])
            for p, q in relation(dom)
            for phi in frame.base.elements
        ):
            arrows.append(flat)
    return _strided(arrows, cap)


@pytest.mark.parametrize("xn,pn,dom,conditions", COMBOS)
def test_kleisli_unit_laws(xn, pn, dom, conditions):
    frame = HeytingFrame(conditions)
    unit = t_unit(dom, frame)
    for f_flat in all_kleisli_arrows(dom, dom, frame):
        f = reader_to_star(f_flat, dom, dom, frame)
        assert kleisli_compose(unit, f, dom, dom, dom, frame) == f
        assert kleisli_compose(f, unit, dom, dom, dom, frame) == f


@pytest.mark.parametrize("xn,pn,dom,conditions", COMBOS)
def test_kleisli_agreement_and_associativity(xn, pn, dom, conditions):
    frame = HeytingFrame(conditions)
    fs = all_kleisli_arrows(dom, dom, frame)
    # every reader-side arrow is a Kleisli arrow on the T side; criterion
    # 7 compares the two presentations' compositions on every pair
    for f_flat in fs:
        validate_kleisli(dom, reader_to_star(f_flat, dom, dom, frame))
    # associativity through the reader equivalence, on strided triples
    triples = _strided([(f, g, h) for f in fs for g in fs for h in fs], 40)
    for f_flat, g_flat, h_flat in triples:
        left = reader_kleisli_compose(
            reader_kleisli_compose(f_flat, g_flat, dom, conditions),
            h_flat,
            dom,
            conditions,
        )
        right = reader_kleisli_compose(
            f_flat,
            reader_kleisli_compose(g_flat, h_flat, dom, conditions),
            dom,
            conditions,
        )
        assert left == right
        f = reader_to_star(f_flat, dom, dom, frame)
        g = reader_to_star(g_flat, dom, dom, frame)
        h = reader_to_star(h_flat, dom, dom, frame)
        assoc_left = kleisli_compose(
            kleisli_compose(f, g, dom, dom, dom, frame), h, dom, dom, dom, frame
        )
        assoc_right = kleisli_compose(
            f, kleisli_compose(g, h, dom, dom, dom, frame), dom, dom, dom, frame
        )
        assert assoc_left == assoc_right


def test_validate_kleisli_rejects_non_monotone():
    dom = X_SHAPES["x2c"]
    frame = HeytingFrame(P_SHAPES["p1"])
    top = StarMap.of(dom, frame, {"x0": ["c0"], "x1": ["c0"]})
    low = StarMap.of(dom, frame, {"x0": [], "x1": ["c0"]})
    # x0 <= x1 but the T order requires the x0 image above the x1 image
    with pytest.raises(OrderError):
        validate_kleisli(dom, {"x0": low, "x1": top})
    validate_kleisli(dom, {"x0": top, "x1": low})


def test_t_map_respects_identity_and_composition():
    dom = X_SHAPES["x2c"]
    frame = HeytingFrame(P_SHAPES["p2c"])
    space = tx_space(dom, frame)
    ident = MonotoneMap.of(dom, dom, {x: x for x in dom.elements})
    swapless = MonotoneMap.of(dom, dom, {"x0": "x0", "x1": "x0"})
    for _, b in space.maps:
        assert t_map(ident, b) == b
        once = t_map(swapless, t_map(swapless, b))
        assert once == t_map(swapless, b)
