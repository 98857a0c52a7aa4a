"""Preset constructors: declared orders, hypothesis checks, instance files."""

from __future__ import annotations

import fractions
import json
import math
import re
from fractions import Fraction

import pytest

import galtour.galois as gal
import galtour.permgroup as pg
from galtour import cli, presets
from galtour.presets import PresetError
from test_cli import _python


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
    assert presets.in_minus_four_fourth_powers(Fraction(-1, 4))  # -4 * (1/2)^4
    assert presets.in_minus_four_fourth_powers(-64)
    assert not presets.in_minus_four_fourth_powers(-3)


@pytest.mark.parametrize("a", [2, -3, -4, -64])
def test_int_and_fraction_radicands_give_one_context(a):
    # -a / 4 was true division: an int radicand at 4 | n raised AttributeError
    def outcome(radicand):
        try:
            ctx = presets.radical_context.__wrapped__(radicand, 4)  # uncached
        except PresetError as exc:
            return str(exc)
        return gal.to_instance_dict(ctx), ctx.notes, gal.to_dot(ctx)
    assert outcome(a) == outcome(Fraction(a))
    if a in (2, -3):
        assert presets.radical_context(a, 4) is presets.radical_context(Fraction(a), 4)


def test_unit_generators_agree_with_greedy_generators_of_the_unit_table():
    for e in range(2, 401):
        units = [u for u in range(1, e) if math.gcd(u, e) == 1]
        label = {u: i for i, u in enumerate(units)}
        group = pg.AbstractGroup([[label[u * v % e] for v in units] for u in units],
                                 _checked=True)
        greedy = [units[i] for i in group.greedy_generators(range(len(units)))]
        assert presets._unit_generators(e) == greedy, e


def test_pth_power_by_integer_root_agrees_with_factorization():
    for u in range(61):
        for v in range(1, 61):
            for p in (2, 3, 5):
                for a in (Fraction(u, v), Fraction(-u, v)):
                    exps = [*pg.factorize(a.numerator).values(),
                            *pg.factorize(a.denominator).values()]
                    sign_ok = a >= 0 or p % 2 == 1
                    expected = a == 0 or sign_ok and all(e % p == 0 for e in exps)
                    assert presets.is_rational_pth_power(a, p) == expected, (a, p)


def test_radicand_with_a_large_prime_answers_quickly():
    # trial division of a 19-digit prime would run for minutes
    for a in ("1000000000000000003", "2/1000000000000000003"):
        proc = _python("-m", "galtour.cli", "analyze", f"radical:a={a},n=2",
                       timeout=20)
        assert proc.returncode == 0, proc.stderr
        assert "|G|=2  fields=2" in proc.stdout


def _banned(*args, **kwargs):
    raise AssertionError("the preset went past its bound check")


@pytest.mark.parametrize("selector, order", [
    ("radical:a=2,n=2003", 2003 * 2002),
    ("radical:a=2,n=32", 512),
    ("cyclo-radical:n=1,d=401,l=2", 401 * 400),
])
def test_oversized_preset_is_refused_before_it_is_built(monkeypatch, selector,
                                                        order):
    # the declared order d*phi(e) is checked before any closure is built
    monkeypatch.setattr(pg, "generate", _banned)
    message = f"|G| = {order} exceeds enumeration bound 384"
    with pytest.raises(pg.BoundExceeded, match=re.escape(message)):
        presets.load_instance(selector)


@pytest.mark.parametrize("selector, message", [
    ("radical:a=2,n=147457", "|G| >= n = 147457"),
    ("cyclo-radical:n=1,d=147457,l=2", "|G| >= d*n = 147457"),
    ("cyclo-radical:n=2,d=100003,l=3", "|G| >= d*n = 200006"),
], ids=["radical", "cyclo-radical-d", "cyclo-radical-dn"])
def test_preset_past_the_bound_squared_is_refused_before_factorizing(
        monkeypatch, selector, message):
    # |G| >= n (radical) and |G| >= d*n (cyclo-radical) bound the order
    # from below without trial division
    monkeypatch.setattr(pg, "factorize", _banned)
    monkeypatch.setattr(pg, "generate", _banned)
    with pytest.raises(pg.BoundExceeded,
                       match=re.escape(f"{message} exceeds enumeration bound 384")):
        presets.load_instance(selector)


@pytest.mark.parametrize("selector, code, text", [
    ("cyclo-radical:n=1,d=1000000000000000003,l=2", 2,
     "|G| >= d*n = 1000000000000000003 exceeds enumeration bound 384"),
    ("cyclo-radical:n=1000000000000000003,d=3,l=2", 2,
     "|G| >= d*n = 3000000000000000009 exceeds enumeration bound 384"),
    ("cyclo-radical:n=1,d=3,l=1000000000000000003", 0, "|G|=6  fields="),
    ("cyclo-radical:n=1,d=3,l=318665857834031151167461", 2,
     "l = 318665857834031151167461 is not prime"),
    ("cyclo-radical:n=1,d=3,l=3317044064679887385961981", 2,
     "l = 3317044064679887385961981 is a probable prime too large to certify"),
], ids=["huge-d", "huge-n", "huge-prime-l", "pseudoprime-l", "uncertified-l"])
def test_cyclo_radical_with_huge_parameters_answers_quickly(selector, code, text):
    # factorizing e = lcm(n^2, d), or trial-dividing l, would run for hours
    proc = _python("-m", "galtour.cli", "analyze", selector, timeout=20)
    assert proc.returncode == code, proc.stderr
    assert text in (proc.stdout if code == 0 else proc.stderr)


def test_library_refuses_a_huge_radical_n_quickly():
    proc = _python("-c", "from fractions import Fraction\n"
                   "from galtour import permgroup as pg, presets\n"
                   "try:\n"
                   "    presets.radical_context(Fraction(2), 100000000000000000039)\n"
                   "except pg.BoundExceeded as exc:\n"
                   "    print(exc)\n", timeout=20)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == ("|G| >= n = 100000000000000000039 "
                           "exceeds enumeration bound 384\n")


def test_miller_rabin_agrees_with_trial_division():
    for m in range(-3, 20000):
        assert presets.is_probable_prime(m) == (m > 1 and pg.factorize(m) == {m: 1}), m
    # strong pseudoprimes to every base up to 2, 7, 23, 37 and 41
    for m in (2047, 3215031751, 3825123056546413051, 318665857834031151167461):
        assert not presets.is_probable_prime(m), m
    assert presets.is_probable_prime(presets.MILLER_RABIN_EXACT_BELOW)  # composite
    for m in (1000000000000000003, 2 ** 61 - 1, 2 ** 89 - 1):
        assert presets.is_probable_prime(m), m


def test_radicand_with_zero_denominator_is_a_preset_error(capsys):
    with pytest.raises(PresetError, match="zero denominator"):
        presets.load_instance("radical:a=1/0,n=6")
    assert cli.main(["analyze", "radical:a=1/0,n=6"]) == 2
    assert "zero denominator" in capsys.readouterr().err


@pytest.mark.parametrize("selector", [
    "radical:a=2,n=x", "radical:a=x,n=6", "selmer-serre:n=",
    "cyclo-radical:n=1,d=x,l=2"])
def test_unparsable_selector_value_is_a_preset_error(capsys, selector):
    with pytest.raises(PresetError, match=re.escape(f"selector {selector!r}: ")):
        presets.load_instance(selector)
    assert cli.main(["analyze", selector]) == 2
    assert f"error: selector {selector!r}: " in capsys.readouterr().err


@pytest.mark.parametrize("content", [
    b'{"degree": "x", "generators": []}', b'\xff{"degree": 4, "generators": []}',
], ids=["degree", "not-utf-8"])
def test_unparsable_instance_file_is_a_preset_error(tmp_path, capsys, content):
    path = tmp_path / "bad.json"
    path.write_bytes(content)
    with pytest.raises(PresetError, match="bad.json: "):
        presets.from_file(str(path))
    assert cli.main(["analyze", f"file:{path}"]) == 2
    assert "bad.json: " in capsys.readouterr().err


@pytest.mark.parametrize("error", [KeyError(5), ZeroDivisionError("x"), ValueError("x")],
                         ids=lambda exc: type(exc).__name__)
@pytest.mark.parametrize("where", ["radical", "file", "verb"])
def test_library_error_is_not_a_user_error(tmp_path, monkeypatch, error, where):
    # only parsing a selector or a file is the user's error; the same
    # exception from inside a constructor or a verb is a bug: a traceback
    import galtour.dissociation as dis

    def broken(*args, **kwargs):
        raise error
    if where == "verb":
        monkeypatch.setattr(dis, "intourability_field", broken)
        selector = "radical:a=2,n=6"
    else:
        monkeypatch.setattr(gal, "_lattice_index", broken)
        presets.radical_context.cache_clear()
        path = tmp_path / "k.json"
        path.write_text(json.dumps(KLEIN_INSTANCE))
        selector = "radical:a=2,n=7" if where == "radical" else f"file:{path}"
    with pytest.raises(type(error)):
        cli.main(["analyze", selector])


def test_huge_radicand_is_refused_before_the_power_tests(monkeypatch):
    # the square-root test on a = 10^1000000 ran for more than a minute
    monkeypatch.setattr(presets, "is_rational_pth_power", _banned)
    with pytest.raises(PresetError, match="radicand a has more than 14000 bits"):
        presets.load_instance("radical:a=1e1000000,n=6")
    with pytest.raises(PresetError, match="radicand a has more than 14000 bits"):
        presets.radical_context(Fraction(1, 2 ** 14000), 3)


@pytest.mark.parametrize("a", [
    "1e100000000", "1E-100000000", "0e100000000", "25e14100", "1e" + "9" * 5000],
    ids=["1e100000000", "1E-100000000", "0e100000000", "25e14100", "1e9x5000"])
def test_radicand_exponent_is_refused_before_fraction(monkeypatch, a):
    # Fraction("1e100000000") builds 10**100000000 before any size check:
    # more than a minute
    def fraction(text, *rest):
        if text == a:
            raise AssertionError(f"Fraction({text[:20]!r}) expands the exponent")
        return Fraction(text, *rest)
    monkeypatch.setattr(fractions, "Fraction", fraction)
    with pytest.raises(PresetError, match="radicand a has more than 14000 bits"):
        presets.load_instance(f"radical:a={a},n=6")


@pytest.mark.parametrize("text", ["2", " 2 ", "+2", "-8", "0", "1_000", "2.0", "1e3",
                                  "25e-1", "1/2", "-1/3"])
def test_radicand_is_an_int_for_integer_text_and_equals_its_fraction(text):
    a = presets._radicand(text)
    assert (a, str(a)) == (Fraction(text), str(Fraction(text)))
    assert type(a) is (int if re.fullmatch(r"\s*[+-]?\d+\s*", text) else Fraction)


def test_radicand_exponent_within_the_bound_is_parsed():
    assert presets._radicand("2e4000") == 2 * 10 ** 4000
    assert presets._radicand("25e-1") == Fraction(5, 2)
    assert presets._radicand(" 1.5E3 ") == 1500
    # the mantissa's digits cancel part of a large negative exponent
    assert presets._radicand("1" + "0" * 4000 + "e-4003") == Fraction(1, 1000)
    with pytest.raises(PresetError, match="radicand a has more than 14000 bits"):
        presets.load_instance("radical:a=1e14000,n=6")


def test_deeply_nested_instance_file_is_a_preset_error(tmp_path, capsys):
    # json.loads raised RecursionError, which ended in a traceback
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000 + "]" * 100000)
    with pytest.raises(PresetError, match="deep.json: parse error"):
        presets.from_file(str(path))
    assert cli.main(["analyze", f"file:{path}"]) == 2
    assert "deep.json: parse error" in capsys.readouterr().err


def test_radical_spec_validation():
    radical = presets.radical_context
    assert radical(Fraction(2), 6).group.order == 12
    with pytest.raises(PresetError, match="2-th power"):
        radical(Fraction(4), 2)
    with pytest.raises(PresetError, match="3-th power"):
        radical(Fraction(27), 3)
    with pytest.raises(PresetError, match="-4"):
        radical(Fraction(-4), 4)
    with pytest.raises(PresetError, match=re.escape("requires n >= 2")):
        radical(Fraction(2), 1)
    with pytest.raises(PresetError, match=re.escape("requires a != 0")):
        radical(Fraction(0), 3)


def test_cyclo_spec_validation():
    cyclo = presets.cyclo_radical_context
    assert cyclo(2, 3, 3).group.order == 12
    with pytest.raises(PresetError, match=re.escape("requires n >= 1")):
        cyclo(0, 3, 2)
    with pytest.raises(PresetError, match="odd"):
        cyclo(1, 4, 3)
    with pytest.raises(PresetError, match="not prime"):
        cyclo(1, 3, 4)
    with pytest.raises(PresetError, match="l divides n"):
        cyclo(3, 5, 3)
    with pytest.raises(PresetError, match="gcd"):
        cyclo(3, 9, 2)


@pytest.mark.parametrize("selector, build, args", [
    ("radical:a=2,n=12", presets.radical_context, lambda: (Fraction(4, 2), 12)),
    ("cyclo-radical:n=2,d=3,l=3", presets.cyclo_radical_context, lambda: (2, 3, 3)),
    ("selmer-serre:n=5", presets.selmer_serre_context, lambda: (5,)),
], ids=["radical", "cyclo-radical", "selmer-serre"])
def test_equal_arguments_share_one_cached_context(selector, build, args):
    bound = pg.SUBGROUP_ENUM_BOUND
    ctx = build(*args(), enumeration_bound=bound)
    assert build(*args(), enumeration_bound=bound) is ctx
    assert build(*args()) is ctx  # the default bound shares the entry
    assert presets.load_instance(selector) is ctx  # the CLI shares the entry
    with pytest.raises(TypeError):
        build(*args(), bound)  # the bound is keyword-only


def test_preset_cache_keeps_at_most_its_size():
    radical = presets.radical_context
    radicands = [a for a in range(2, 40) if round(a ** (1 / 3)) ** 3 != a]
    radicands = radicands[:presets.PRESET_CACHE_SIZE + 1]
    radical.cache_clear()
    for a in radicands:
        radical(Fraction(a), 3)
    assert radical.cache_info().currsize == presets.PRESET_CACHE_SIZE
    last = radical(Fraction(radicands[-1]), 3)
    assert radical(Fraction(radicands[-1]), 3) is last
    assert presets.load_instance(f"radical:a={radicands[-1]},n=3") is last
    assert radical.cache_info().currsize == presets.PRESET_CACHE_SIZE


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


@pytest.mark.parametrize("change, message", [
    ({"fields": ["x"]}, "fields must be an object"),
    ({"fields": {"A": 5}}, "field 'A' must be a list of cycle strings"),
    ({"fields": {"A": "(1 2)"}}, "field 'A' must be a list of cycle strings"),
    ({"distinguished": ["A"]}, "distinguished must be a field name"),
    ({"generators": [5]}, "generators must be a list of cycle strings"),
    ({"generators": "(1 2 3)"}, "generators must be a list of cycle strings"),
    ({"degree": 2.7}, "degree must be a JSON integer >= 0, not 2.7"),
    ({"degree": True}, "degree must be a JSON integer >= 0, not True"),
    ({"degree": -3}, "degree must be a JSON integer >= 0, not -3"),
    ({"degree": "3"}, "degree must be a JSON integer >= 0, not '3'"),
    ({"degree": float("inf")}, "degree must be a JSON integer >= 0, not inf"),
])
def test_malformed_instance_file_is_a_preset_error(tmp_path, capsys, change, message):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(dict(KLEIN_INSTANCE, **change)))
    with pytest.raises(PresetError, match=re.escape(message)):
        presets.from_file(str(path))
    assert cli.main(["analyze", f"file:{path}"]) == 2
    assert message in capsys.readouterr().err


def test_instance_degree_past_the_bound_is_refused_before_building(monkeypatch):
    # a degree of 10^8 with no generators ran out of memory building the
    # identity permutation
    monkeypatch.setattr(pg, "generate", _banned)
    monkeypatch.setattr(pg.Permutation, "__init__", _banned)
    degree = presets.INSTANCE_DEGREE_BOUND + 1
    with pytest.raises(pg.BoundExceeded,
                       match=f"degree {degree} exceeds instance degree bound"):
        presets.from_dict({"degree": degree, "generators": []})


def test_instance_group_is_closed_under_the_enumeration_bound():
    # the closure of a 1000-cycle stops at 384 elements, not at 10 000
    cycle = "(" + " ".join(str(i) for i in range(1, 1001)) + ")"
    data = {"degree": 1000, "generators": [cycle]}
    with pytest.raises(pg.BoundExceeded, match="closure exceeds bound 384 "):
        presets.from_dict(data)
    with pytest.raises(pg.BoundExceeded, match="closure exceeds bound 999 "):
        presets.from_dict(data, enumeration_bound=999)


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
