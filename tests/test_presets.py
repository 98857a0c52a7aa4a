"""Preset constructors: declared orders, hypothesis checks, instance files."""

from __future__ import annotations

import json
from fractions import Fraction

import pytest

import galtour.galois as gal
import galtour.permgroup as pg
from galtour import presets
from galtour.presets import CycloRadicalSpec, PresetError, RadicalSpec


# ---------------------------------------------------------------------------
# exact rational hypothesis checks


def test_pth_power_detection():
    assert presets.is_rational_pth_power(Fraction(4), 2)
    assert presets.is_rational_pth_power(Fraction(8, 27), 3)
    assert presets.is_rational_pth_power(Fraction(-8), 3)
    assert not presets.is_rational_pth_power(Fraction(-4), 2)
    assert not presets.is_rational_pth_power(Fraction(2), 2)
    assert not presets.is_rational_pth_power(Fraction(12), 2)


def test_minus_four_fourth_powers():
    assert presets.in_minus_four_fourth_powers(Fraction(-4))
    assert presets.in_minus_four_fourth_powers(Fraction(-64))  # -4 * 2^4
    assert not presets.in_minus_four_fourth_powers(Fraction(4))
    assert not presets.in_minus_four_fourth_powers(Fraction(-8))


def test_radical_spec_validation():
    RadicalSpec(Fraction(2), 6)
    with pytest.raises(PresetError, match="2-th power"):
        RadicalSpec(Fraction(4), 2)
    with pytest.raises(PresetError, match="3-th power"):
        RadicalSpec(Fraction(27), 3)
    with pytest.raises(PresetError, match="-4"):
        RadicalSpec(Fraction(-4), 4)
    with pytest.raises(PresetError):
        RadicalSpec(Fraction(2), 1)
    with pytest.raises(PresetError):
        RadicalSpec(Fraction(0), 3)


def test_cyclo_spec_validation():
    CycloRadicalSpec(2, 3, 3)
    with pytest.raises(PresetError, match="odd"):
        CycloRadicalSpec(1, 4, 3)
    with pytest.raises(PresetError, match="not prime"):
        CycloRadicalSpec(1, 3, 4)
    with pytest.raises(PresetError, match="l divides n"):
        CycloRadicalSpec(3, 5, 3)
    with pytest.raises(PresetError, match="gcd"):
        CycloRadicalSpec(3, 9, 2)


@pytest.mark.parametrize("spec, build, text", [
    (lambda: RadicalSpec(Fraction(2), 12), presets.radical_context,
     "RadicalSpec(a=Fraction(2, 1), n=12)"),
    (lambda: CycloRadicalSpec(2, 3, 3), presets.cyclo_radical_context,
     "CycloRadicalSpec(n=2, d=3, l=3)"),
])
def test_specs_are_immutable_cache_keys(spec, build, text):
    a, b = spec(), spec()
    assert a is not b and a == b and hash(a) == hash(b)
    assert build(a) is build(b)  # the lru_cache key is the spec's value
    assert repr(a) == text
    for name in ("n", "extra"):
        with pytest.raises(AttributeError):
            setattr(a, name, 3)
    assert a._replace(n=a.n) == a
    with pytest.raises(PresetError):
        a._replace(n=0)  # the hypotheses are checked on every construction


# ---------------------------------------------------------------------------
# declared orders and named fields


@pytest.mark.parametrize("selector,order,lname,ldeg", [
    ("radical:a=2,n=6", 12, "Q(6rt2)", 6),
    ("radical:a=2,n=4", 8, "Q(4rt2)", 4),
    ("radical:a=2,n=9", 54, "Q(9rt2)", 9),
    ("selmer-serre:n=3", 6, "Q(theta)", 3),
    ("selmer-serre:n=4", 24, "Q(theta)", 4),
    ("selmer-serre:n=5", 120, "Q(theta)", 5),
    ("cyclo-radical:n=1,d=3,l=2", 6, None, 3),
    ("cyclo-radical:n=2,d=3,l=3", 12, None, 6),
    ("cyclo-radical:n=1,d=9,l=2", 54, None, 9),
])
def test_preset_orders_and_degrees(selector, order, lname, ldeg):
    ctx = presets.load_instance(selector)
    assert ctx.group.order == order
    L = ctx.distinguished
    assert gal.degree(ctx, L, ctx.base) == ldeg
    if lname:
        assert L.name == lname


def test_radical_field_names(r26):
    for name in ("Q", "Q(sqrt2)", "Q(3rt2)", "Q(6rt2)", "Q(zeta3)", "N"):
        r26.field_by_name(name)
    # Q(zeta6) = Q(zeta3) as a field: resolvable as an alias
    assert r26.field_by_name("Q(zeta6)") == r26.field_by_name("Q(zeta3)")
    assert gal.degree(r26, r26.field_by_name("Q(zeta3)"), r26.base) == 2


def test_intermediate_field_lemma_at_group_level():
    # between Q and Q(a^(1/n)), every field is a registered radical Q(a^(1/d))
    for selector, n in [("radical:a=2,n=6", 6), ("radical:a=2,n=4", 4),
                        ("radical:a=2,n=9", 9)]:
        ctx = presets.load_instance(selector)
        radical_names = {ctx.display_name(ctx.field_by_name(
            presets._radical_name(Fraction(2), m)))
            for m in presets.divisors(n) if m > 1} | {"Q"}
        interval = ctx.interval_fields(ctx.base, ctx.distinguished)
        assert {f.name for f in interval} == radical_names, selector
        assert len(interval) == len(presets.divisors(n))


def test_cyclotomic_parallelogram_in_cyclo_context(cy233):
    # conductor 12 = 3 * 4: the cyclotomic parallelogram of coprime splits
    q = gal.Quadrilateral(cy233.base,
                          cy233.field_by_name("Q(zeta3)"),
                          cy233.field_by_name("Q(zeta12)"),
                          cy233.field_by_name("Q(zeta4)"))
    assert gal.is_parallelogram(cy233, q)


def test_cyclo_H_subgroup_exists(cy233):
    # F_n has degree n over Q and the E-side radical stays degree d over E
    F2 = cy233.field_by_name("F2")
    assert gal.degree(cy233, F2, cy233.base) == 2
    E4 = cy233.field_by_name("Q(zeta4)")
    assert F2 == E4  # here phi(4)/2 = 1 forces F_2 = Q(zeta4)
    L = cy233.distinguished
    assert gal.degree(cy233, L, F2) == 3


def test_selmer_serre_stabilizer(ss5):
    theta = ss5.field_by_name("Q(theta)")
    assert ss5.group.order == 120
    assert theta.subgroup.order == 24
    assert len(ss5.interval_fields(ss5.base, theta)) == 2  # maximal subgroup
    with pytest.raises(PresetError):
        presets.selmer_serre_context(6)
    with pytest.raises(PresetError):
        presets.selmer_serre_context(2)


def test_even_n_hypothesis_note(r26, r29):
    assert r26.notes.get("hypothesis") == "classical"
    assert "hypothesis" not in r29.notes


# ---------------------------------------------------------------------------
# instance files


KLEIN_INSTANCE = {
    "degree": 4,
    "generators": ["(1 2)", "(3 4)"],
    "fields": {"Q(sqrt2)": ["(3 4)"], "Q(sqrt3)": ["(1 2)"],
               "L": ["(1 2)(3 4)"]},
    "distinguished": "L",
}


def test_from_dict_klein():
    ctx = presets.from_dict(KLEIN_INSTANCE)
    assert ctx.group.order == 4
    assert ctx.distinguished.name == "L"
    assert gal.degree(ctx, ctx.field_by_name("Q(sqrt2)"), ctx.base) == 2


def test_from_file_round_trip(tmp_path, klein):
    path = tmp_path / "klein.json"
    path.write_text(gal.to_instance_json(klein))
    ctx = presets.from_file(str(path))
    assert ctx.group.order == klein.group.order
    for name in klein.names.values():
        assert ctx.field_by_name(name).subgroup.key == \
            klein.field_by_name(name).subgroup.key


def test_from_file_field_outside_group(tmp_path):
    bad = dict(KLEIN_INSTANCE, fields={"F": ["(1 3)"]}, distinguished=None)
    bad.pop("distinguished")
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    with pytest.raises(PresetError, match="outside the group"):
        presets.from_file(str(path))


def test_from_file_duplicate_name(tmp_path):
    text = ('{"degree": 4, "generators": ["(1 2)"], '
            '"fields": {"F": ["(1 2)"], "F": ["(1 2)"]}}')
    path = tmp_path / "dup.json"
    path.write_text(text)
    with pytest.raises(PresetError, match="duplicate field name"):
        presets.from_file(str(path))


def test_from_file_parse_error_has_line(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"degree": 4,\n  "generators": [}\n')
    with pytest.raises(PresetError, match="line 2"):
        presets.from_file(str(path))


def test_from_file_missing_distinguished(tmp_path):
    bad = dict(KLEIN_INSTANCE, distinguished="missing")
    path = tmp_path / "bad2.json"
    path.write_text(json.dumps(bad))
    with pytest.raises(PresetError, match="not defined"):
        presets.from_file(str(path))


def test_load_instance_selectors(tmp_path):
    assert presets.load_instance("radical:a=2,n=6").group.order == 12
    with pytest.raises(PresetError, match="missing parameter"):
        presets.load_instance("radical:a=2")
    with pytest.raises(PresetError, match="key=value"):
        presets.load_instance("radical:2;6")
    path = tmp_path / "k.json"
    path.write_text(json.dumps(KLEIN_INSTANCE))
    assert presets.load_instance(f"file:{path}").group.order == 4
    assert presets.load_instance(str(path)).group.order == 4


def test_fractional_radicand():
    ctx = presets.load_instance("radical:a=1/2,n=3")
    assert ctx.group.order == 6
    assert ctx.distinguished.name == "Q(3rt1/2)"


def test_odd_radical_is_galsimple_non_galois():
    # positive radicand, odd n, no d-th power for d | n: galsimple non-Galois
    import galtour.dissociation as dis
    for selector in ("radical:a=2,n=3", "radical:a=2,n=5", "radical:a=3,n=3"):
        ctx = presets.load_instance(selector)
        L, K = ctx.distinguished, ctx.base
        assert dis.is_galsimple(ctx, L, K), selector
        assert not gal.is_galois(ctx, L, K), selector


def test_eside_radical_tourability_degree(cy233):
    # M(E_{n^2}(rho)/Q) = E_{n^2} with degrees (phi(n^2), d)
    import galtour.dissociation as dis
    E_rho = cy233.field_by_name("Q(zeta4,3rt3)")
    rep = dis.intourability_field(cy233, E_rho, cy233.base)
    assert rep.M == cy233.field_by_name("Q(zeta4)")
    assert rep.degrees == (2, 3)


def test_cyclo_radical_build_enumerates_the_lattice_once(monkeypatch):
    # the preset picks F_n from the lattice; the context must reuse it
    fills = []
    all_subgroups = pg.all_subgroups

    def counting_all_subgroups(G, *args, **kwargs):
        lattice = G._subgroups
        out = all_subgroups(G, *args, **kwargs)
        fills.append(G._subgroups is not lattice)  # this call (re)filled it
        return out

    monkeypatch.setattr(pg, "all_subgroups", counting_all_subgroups)
    presets.cyclo_radical_context.cache_clear()
    ctx = presets.load_instance("cyclo-radical:n=1,d=9,l=2")
    assert fills.count(True) == 1 < len(fills)
    fills.clear()
    pg.all_subgroups(pg.generate(ctx.group.degree, ctx.group.generators))
    assert fills == [True]
