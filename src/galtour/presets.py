"""Constructors turning the worked arithmetic examples into contexts.

The closure groups are realized as permutation groups of formal symbols
(roots of unity and radicals) rather than by number-field arithmetic:
radical contexts act on {zeta^k a^(1/n)} u {zeta^k} by pairs
(shift t in Z/n, unit s in (Z/n)*); cyclo-radical contexts act the same
way with conductor e = lcm(n^2, d).  Correctness relative to the actual
number fields rests on the classical irreducibility criterion for
X^n - a together with cyclotomic disjointness; every group-internal
consistency that can be verified (declared orders, degrees, subgroup
identities) is verified, and construction aborts on any mismatch.

For the record, not shipped: a known galtourable stress example of
degree 480 over Q whose Galois composition towers have marche degrees
2, 2, 2, 2, 2, 5, 3.  Its construction needs analytic machinery outside
this package's scope, and its closure group exceeds the desk-scale
enumeration bound; only this combinatorial fingerprint is documented.
"""

from __future__ import annotations

import json
import math
from collections import namedtuple
from fractions import Fraction
from functools import lru_cache

from . import galois as gal
from . import permgroup as pg
from .galois import GaloisContext
from .permgroup import Permutation


class PresetError(Exception):
    """Invalid preset specification or instance file."""


def _register(names: dict, aliases: dict, sub: pg.Subgroup, name: str) -> None:
    """First name for a subgroup is its display name; later ones are aliases."""
    if sub in names:
        aliases[name] = sub
    else:
        names[sub] = name


# ---------------------------------------------------------------------------
# exact integer/rational helpers


def euler_phi(n: int) -> int:
    out = 1
    for p, e in pg.factorize(n).items():
        out *= (p - 1) * p ** (e - 1)
    return out


def divisors(n: int) -> list:
    return [d for d in range(1, n + 1) if n % d == 0]


def is_rational_pth_power(a: Fraction, p: int) -> bool:
    """a in Q^p, decided by exact factorization of numerator and denominator."""
    if a == 0:
        return True
    if a < 0 and p % 2 == 0:
        return False
    exps = list(pg.factorize(a.numerator).values()) + \
        list(pg.factorize(a.denominator).values())
    return all(e % p == 0 for e in exps)


def in_minus_four_fourth_powers(a: Fraction) -> bool:
    """a in -4 Q^4, i.e. -a/4 is a fourth power of a rational."""
    return a < 0 and is_rational_pth_power(-a / 4, 4)


def _unit_generators(n: int) -> list:
    """Greedy generating set of (Z/n)*, ascending."""
    units = [u for u in range(1, n) if math.gcd(u, n) == 1]
    label = {u: i for i, u in enumerate(units)}
    group = pg.AbstractGroup([[label[u * v % n] for v in units] for u in units])
    return [units[i] for i in group.greedy_generators(range(len(units)))]


def _pair_group(d: int, e: int) -> tuple:
    """The group of pairs (t in Z/d, s in (Z/e)*) and its decoder.

    A pair acts by k -> k*s + t on d radical symbols and by k -> k*s on e
    roots of unity; ``decode`` maps an element index back to (t, s).  The
    declared order d*phi(e) is checked against the constructed closure.
    """
    def pair_perm(t: int, s: int) -> Permutation:
        images = [(k * s + t) % d for k in range(d)]
        images += [d + (k * s) % e for k in range(e)]
        return Permutation(images)

    declared = d * euler_phi(e)
    gens = [pair_perm(1, 1)] + [pair_perm(0, u) for u in _unit_generators(e)]
    G = pg.generate(d + e, gens)
    if G.order != declared:
        raise PresetError(
            f"constructed order {G.order} != declared degree product {declared}")

    def decode(i: int) -> tuple:
        p = G.elements[i]
        return p.images[0] % d, (p.images[d + 1] - d) % e

    return G, decode


# ---------------------------------------------------------------------------
# radical contexts: Q(zeta_n, a^(1/n)) / Q


class RadicalSpec(namedtuple("RadicalSpec", "a n")):
    """a^(1/n) with the hypotheses that make X^n - a irreducible over Q.

    A named tuple (a, n): it compares and hashes as that tuple does.
    """
    __slots__ = ()

    def __new__(cls, a: Fraction, n: int):
        if n < 2:
            raise PresetError("radical spec requires n >= 2")
        if a == 0:
            raise PresetError("radical spec requires a != 0")
        for p in pg.factorize(n):
            if is_rational_pth_power(a, p):
                raise PresetError(
                    f"hypothesis violated: a = {a} is a rational {p}-th power")
        if n % 4 == 0 and in_minus_four_fourth_powers(a):
            raise PresetError(
                f"hypothesis violated: a = {a} lies in -4*Q^4 while 4 | n")
        return super().__new__(cls, a, n)

    @classmethod
    def _make(cls, iterable):
        # through __new__, so _make and _replace run the checks too
        return cls(*iterable)


def _radical_name(a: Fraction, m: int) -> str:
    return f"Q(sqrt{a})" if m == 2 else f"Q({m}rt{a})"


@lru_cache(maxsize=None)
def radical_context(spec: RadicalSpec,
                    enumeration_bound: int = pg.SUBGROUP_ENUM_BOUND) -> GaloisContext:
    """Closure context for Q(zeta_n, a^(1/n)) / Q.

    Elements are pairs (t, s) acting by a^(1/n) -> zeta^t a^(1/n),
    zeta -> zeta^s, on 2n formal symbols: the pair group with d = e = n.
    Named fields: Q (base), Q(a^(1/m)) and Q(zeta_m) for m | n, and the
    closure N.
    """
    a, n = spec.a, spec.n
    G, decode = _pair_group(n, n)
    names = {G.full_subgroup(): "Q", G.trivial_subgroup(): "N"}
    aliases: dict = {}
    distinguished = None
    for m in divisors(n):
        if m > 1:
            sub = G.subgroup(i for i in range(G.order) if decode(i)[0] % m == 0)
            if G.order // sub.order != m:
                raise PresetError(f"radical field for m={m} has wrong degree")
            _register(names, aliases, sub, _radical_name(a, m))
            if m == n:
                distinguished = sub
        if m > 2:
            sub = G.subgroup(i for i in range(G.order) if decode(i)[1] % m == 1)
            if G.order // sub.order != euler_phi(m):
                raise PresetError(f"cyclotomic field for m={m} has wrong degree")
            _register(names, aliases, sub, f"Q(zeta{m})")
    notes = {"preset": f"radical:a={a},n={n}", "declared_order": G.order}
    if n % 2 == 0:
        notes["hypothesis"] = "classical"  # degree rests on cyclotomic disjointness
    return GaloisContext(G, distinguished=distinguished, names=names,
                         aliases=aliases, notes=notes,
                         enumeration_bound=enumeration_bound)


# ---------------------------------------------------------------------------
# cyclo-radical contexts: Q(zeta_e, l^(1/d)) / Q with e = lcm(n^2, d)


class CycloRadicalSpec(namedtuple("CycloRadicalSpec", "n d l")):
    """(n, d) as a tourability degree: F_n(rho)/Q with rho^d = l prime.

    A named tuple (n, d, l): it compares and hashes as that tuple does.
    """
    __slots__ = ()

    def __new__(cls, n: int, d: int, l: int):
        if n < 1:
            raise PresetError("cyclo-radical spec requires n >= 1")
        if d < 3 or d % 2 == 0:
            raise PresetError("cyclo-radical spec requires d odd and >= 3")
        if pg.factorize(l) != {l: 1}:
            raise PresetError(f"l = {l} is not prime")
        if n % l == 0:
            raise PresetError("hypothesis violated: l divides n")
        if math.gcd(d, n) != 1:
            raise PresetError("hypothesis violated: gcd(d, n) != 1")
        return super().__new__(cls, n, d, l)

    @classmethod
    def _make(cls, iterable):
        # through __new__, so _make and _replace run the checks too
        return cls(*iterable)


@lru_cache(maxsize=None)
def cyclo_radical_context(spec: CycloRadicalSpec,
                          enumeration_bound: int = pg.SUBGROUP_ENUM_BOUND
                          ) -> GaloisContext:
    """Closure context realizing (n, d) as a tourability degree.

    The group acts on d radical symbols and e = lcm(n^2, d) roots of
    unity by pairs (t in Z/d, s in (Z/e)*).  F_n is the fixed field of a
    subgroup H of Gal(Q(zeta_{n^2})/Q) of order phi(n^2)/n, chosen least
    in canonical subgroup order; the distinguished field is L = F_n(rho).
    """
    n, d, l = spec.n, spec.d, spec.l
    n2 = n * n
    e = (n2 * d) // math.gcd(n2, d)
    G, decode = _pair_group(d, e)
    names = {G.full_subgroup(): "Q", G.trivial_subgroup(): "N"}
    aliases: dict = {}
    # cyclotomic fields for every divisor m | e
    cyclo_sub = {}
    for m in divisors(e):
        sub = G.subgroup(i for i in range(G.order) if decode(i)[1] % m == 1 % m)
        cyclo_sub[m] = sub
        if m > 2:
            if G.order // sub.order != euler_phi(m):
                raise PresetError(f"cyclotomic field for m={m} has wrong degree")
            _register(names, aliases, sub, f"Q(zeta{m})")
    # E-side radicals E_{n^2}(rho^delta) for proper divisors delta of d
    E = cyclo_sub[n2]
    for delta in divisors(d):
        if delta == d:
            continue
        sub = G.subgroup(i for i in range(G.order)
                         if decode(i)[1] % n2 == 1 % n2
                         and decode(i)[0] % (d // delta) == 0)
        if n2 > 2:
            _register(names, aliases, sub, f"Q(zeta{n2},{d // delta}rt{l})")
        else:
            _register(names, aliases, sub, _radical_name(Fraction(l), d // delta))
    # F_n: preimage of the least valid H of order phi(n^2)/n
    q = euler_phi(n2) // n
    target = E.order * q
    candidates = [sg for sg in pg.all_subgroups(G, bound=enumeration_bound)
                  if E <= sg and sg.order == target]
    if not candidates:
        raise PresetError("no subgroup H of the required order exists")
    X = min(candidates, key=pg.Subgroup.sort_key)
    if X != G.full_subgroup():
        _register(names, aliases, X, f"F{n}")
    rho_stab = G.subgroup(i for i in range(G.order) if decode(i)[0] == 0)
    SL = pg.intersection(X, rho_stab)
    if SL != G.trivial_subgroup():
        _register(names, aliases, SL, "L")
    notes = {"preset": f"cyclo-radical:n={n},d={d},l={l}",
             "declared_order": G.order, "conductor": e}
    return GaloisContext(G, distinguished=SL, names=names, aliases=aliases,
                         notes=notes, enumeration_bound=enumeration_bound)


# ---------------------------------------------------------------------------
# Selmer-Serre contexts: splitting field of X^n - X - 1


@lru_cache(maxsize=None)
def selmer_serre_context(n: int,
                         enumeration_bound: int = pg.SUBGROUP_ENUM_BOUND
                         ) -> GaloisContext:
    """S_n acting on the roots of X^n - X - 1; L = Q(theta) is a point stabilizer."""
    if not 3 <= n <= 5:
        raise PresetError("selmer-serre preset requires 3 <= n <= 5")
    cycle = Permutation.from_cycles(f"({' '.join(str(i) for i in range(1, n + 1))})", n)
    swap = Permutation.from_cycles("(1 2)", n)
    G = pg.generate(n, [cycle, swap])
    if G.order != math.factorial(n):
        raise PresetError(f"constructed order {G.order} != {n}!")
    stab = G.subgroup(i for i in range(G.order)
                      if G.elements[i].images[n - 1] == n - 1)
    names = {G.full_subgroup(): "Q", G.trivial_subgroup(): "splitting",
             stab: "Q(theta)"}
    notes = {"preset": f"selmer-serre:n={n}", "polynomial": f"X^{n}-X-1"}
    return GaloisContext(G, distinguished=stab, names=names, notes=notes,
                         enumeration_bound=enumeration_bound)


# ---------------------------------------------------------------------------
# instance files


def from_dict(data: dict, enumeration_bound: int = pg.SUBGROUP_ENUM_BOUND,
              source: str = "<instance>") -> GaloisContext:
    try:
        degree = int(data["degree"])
        gen_texts = list(data["generators"])
        field_map = data.get("fields", {})
        distinguished_name = data.get("distinguished")
    except (KeyError, TypeError) as exc:
        raise PresetError(f"{source}: missing or malformed key: {exc}") from exc
    gens = [Permutation.from_cycles(txt, degree) for txt in gen_texts]
    G = pg.generate(degree, gens or [Permutation.identity(degree)])
    names: dict = {}
    aliases: dict = {}
    field_subs = {}
    for name, gen_list in field_map.items():
        idxs = []
        for txt in gen_list:
            p = Permutation.from_cycles(txt, degree)
            if p not in G:
                raise PresetError(
                    f"{source}: field {name!r} is not a subgroup: "
                    f"generator {txt} lies outside the group")
            idxs.append(G.index_of(p))
        sub = G.generated_subgroup(idxs)
        field_subs[name] = sub
        _register(names, aliases, sub, name)
    distinguished = None
    if distinguished_name is not None:
        if distinguished_name not in field_subs:
            raise PresetError(
                f"{source}: distinguished field {distinguished_name!r} not defined")
        distinguished = field_subs[distinguished_name]
    return GaloisContext(G, distinguished=distinguished, names=names,
                         aliases=aliases, notes={"preset": source},
                         enumeration_bound=enumeration_bound)


def from_file(path: str,
              enumeration_bound: int = pg.SUBGROUP_ENUM_BOUND) -> GaloisContext:
    """Load a context from a JSON instance file."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()

    def no_dup_pairs(pairs):
        seen = set()
        for k, _ in pairs:
            if k in seen:
                raise PresetError(f"{path}: duplicate field name {k!r}")
            seen.add(k)
        return dict(pairs)

    try:
        data = json.loads(text, object_pairs_hook=no_dup_pairs)
    except json.JSONDecodeError as exc:
        raise PresetError(f"{path}: parse error at line {exc.lineno}: {exc.msg}") from exc
    return from_dict(data, enumeration_bound=enumeration_bound, source=path)


# ---------------------------------------------------------------------------
# CLI selectors


def _parse_params(text: str) -> dict:
    out = {}
    for part in text.split(","):
        if "=" not in part:
            raise PresetError(f"bad parameter {part!r} (expected key=value)")
        k, v = part.split("=", 1)
        out[k.strip()] = v.strip()
    return out


def load_instance(selector: str,
                  enumeration_bound: int | None = None) -> GaloisContext:
    """Resolve a CLI instance selector to a context.

    Forms: ``radical:a=2,n=6``, ``cyclo-radical:n=2,d=3,l=3``,
    ``selmer-serre:n=5``, ``file:<path>``, or a bare path to a JSON
    instance file.
    """
    bound = enumeration_bound if enumeration_bound is not None \
        else pg.SUBGROUP_ENUM_BOUND
    kind, _, rest = selector.partition(":")
    try:
        if kind == "radical":
            p = _parse_params(rest)
            spec = RadicalSpec(Fraction(p["a"]), int(p["n"]))
            return radical_context(spec, enumeration_bound=bound)
        if kind == "cyclo-radical":
            p = _parse_params(rest)
            spec = CycloRadicalSpec(int(p["n"]), int(p["d"]), int(p["l"]))
            return cyclo_radical_context(spec, enumeration_bound=bound)
        if kind == "selmer-serre":
            p = _parse_params(rest)
            return selmer_serre_context(int(p["n"]), enumeration_bound=bound)
        if kind == "file":
            return from_file(rest, enumeration_bound=bound)
    except KeyError as exc:
        raise PresetError(f"selector {selector!r}: missing parameter {exc}") from exc
    return from_file(selector, enumeration_bound=bound)
