"""Constructors turning the worked arithmetic examples into contexts.

The closure groups are realized as permutation groups of formal symbols
(roots of unity and radicals) rather than by number-field arithmetic:
radical contexts act on {zeta^k a^(1/n)} u {zeta^k} by pairs
(shift t in Z/n, unit s in (Z/n)*); cyclo-radical contexts act the same
way with conductor e = lcm(n^2, d).  Correctness relative to the actual
number fields rests on the classical irreducibility criterion for
X^n - a together with cyclotomic disjointness.  Each constructor checks
its preset's hypotheses and bounds before it builds anything; every
group-internal consistency that can be verified (declared orders,
degrees, subgroup identities) is verified, and construction aborts on
any mismatch.

For the record, not shipped: a known galtourable stress example of
degree 480 over Q whose Galois composition towers have marche degrees
2, 2, 2, 2, 2, 5, 3.  Its construction needs analytic machinery outside
this package's scope, and its closure group exceeds the desk-scale
enumeration bound; only this combinatorial fingerprint is documented.
"""

from __future__ import annotations

import math
import re
from functools import lru_cache, wraps

from . import permgroup as pg
from .galois import GaloisContext
from .permgroup import Permutation


class PresetError(Exception):
    """Invalid preset specification or instance file."""


PRESET_CACHE_SIZE = 16  # contexts each preset constructor keeps, least recent dropped

# the largest instance-file degree: a group within the closure bound acts
# faithfully (regularly) on that many points
INSTANCE_DEGREE_BOUND = pg.CLOSURE_BOUND

# the most bits in a radicand's numerator or denominator: str() prints at
# most 4300 digits, and the p-th power tests are quadratic in the size
RADICAND_BITS = 14_000


def _cached(build):
    """``build`` memoized in one ``lru_cache`` of PRESET_CACHE_SIZE entries
    whose key always holds the keyword-only ``enumeration_bound``: a call
    that leaves the bound out shares the entry of a call that passes its
    default."""
    cached = lru_cache(maxsize=PRESET_CACHE_SIZE)(build)
    default = build.__kwdefaults__["enumeration_bound"]

    @wraps(build)
    def lookup(*args, **kwargs):
        kwargs.setdefault("enumeration_bound", default)
        return cached(*args, **kwargs)
    lookup.cache_clear = cached.cache_clear
    lookup.cache_info = cached.cache_info
    return lookup


# ---------------------------------------------------------------------------
# exact integer/rational helpers


def euler_phi(n: int) -> int:
    out = 1
    for p, e in pg.factorize(n).items():
        out *= (p - 1) * p ** (e - 1)
    return out


# the first 13 primes; as Miller-Rabin bases they decide every m below this
MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MILLER_RABIN_EXACT_BELOW = 3317044064679887385961981


def is_probable_prime(m: int) -> bool:
    """Miller-Rabin over MILLER_RABIN_BASES: exact below
    MILLER_RABIN_EXACT_BELOW; above it only a False is a proof."""
    if m < 2 or any(m % b == 0 for b in MILLER_RABIN_BASES):
        return m in MILLER_RABIN_BASES
    s = ((m - 1) & (1 - m)).bit_length() - 1  # m - 1 = 2^s * odd
    for b in MILLER_RABIN_BASES:
        x = pow(b, (m - 1) >> s, m)
        if x == 1 or x == m - 1:
            continue
        for _ in range(s - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    return True


def divisors(n: int) -> list:
    return [d for d in range(1, n + 1) if n % d == 0]


def integer_root(x: int, p: int) -> int:
    """floor(x^(1/p)) for x >= 0, by integer Newton iteration from above."""
    if x < 2:
        return x
    r = 1 << -(-x.bit_length() // p)  # 2^ceil(bits/p) > x^(1/p)
    while (s := ((p - 1) * r + x // r ** (p - 1)) // p) < r:
        r = s
    return r


def is_rational_pth_power(a, p: int) -> bool:
    """a in Q^p, for an int or a Fraction a: |numerator| and denominator
    (coprime) are exact p-th powers."""
    if a == 0:
        return True
    if a < 0 and p % 2 == 0:
        return False
    return all(integer_root(x, p) ** p == x
               for x in (abs(a.numerator), a.denominator))


def in_minus_four_fourth_powers(a) -> bool:
    """a in -4 Q^4, i.e. -a/4 = -4a/2^4 is a fourth power of a rational:
    so is -4a, which stays an int for an int a."""
    return a < 0 and is_rational_pth_power(-4 * a, 4)


def _unit_generators(n: int) -> list:
    """Greedy generating set of (Z/n)*: each unit, ascending, that the
    ones chosen before it do not span.  The group is abelian, so adding u
    to a spanned subgroup S gives the cosets S*u^k up to the first u^k in
    S, multiplied mod n with no table."""
    chosen, spanned = [], {1}
    for u in range(2, n):
        if u in spanned or math.gcd(u, n) != 1:
            continue
        chosen.append(u)
        grown, power = set(spanned), u
        while power not in spanned:
            grown.update(s * power % n for s in spanned)
            power = power * u % n
        spanned = grown
    return chosen


def _pair_group(d: int, e: int, enumeration_bound: int) -> tuple:
    """The group of pairs (t in Z/d, s in (Z/e)*) and its decoder.

    A pair acts by k -> k*s + t on d radical symbols and by k -> k*s on e
    roots of unity; ``decode`` maps an element index back to (t, s).  The
    declared order d*phi(e) is checked against the enumeration bound
    before anything is built, and against the constructed closure after.
    """
    def pair_perm(t: int, s: int) -> Permutation:
        images = [(k * s + t) % d for k in range(d)]
        images += [d + (k * s) % e for k in range(e)]
        return Permutation(images)

    declared = d * euler_phi(e)
    pg.check_enumeration_bound(declared, enumeration_bound)
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


def _radical_name(a, m: int) -> str:
    return f"Q(sqrt{a})" if m == 2 else f"Q({m}rt{a})"


@_cached
def radical_context(a, n: int, *,
                    enumeration_bound: int = pg.SUBGROUP_ENUM_BOUND) -> GaloisContext:
    """Closure context for Q(zeta_n, a^(1/n)) / Q, for an int or a Fraction
    a; equal radicands give the same context and cache entry.

    Refused unless X^n - a is irreducible over Q: n >= 2, a != 0, a not a
    p-th power for p | n, and a outside -4*Q^4 when 4 | n.  Elements are
    pairs (t, s) acting by a^(1/n) -> zeta^t a^(1/n), zeta -> zeta^s, on
    2n formal symbols: the pair group with d = e = n.  Named fields: Q
    (base), Q(a^(1/m)) and Q(zeta_m) for m | n, and the closure N.
    """
    if n > enumeration_bound ** 2:
        # |G| = n*phi(n) >= n: refused before n is trial-divided
        raise pg.BoundExceeded(
            f"|G| >= n = {n} exceeds enumeration bound {enumeration_bound}")
    if n < 2:
        raise PresetError("radical spec requires n >= 2")
    if a == 0:
        raise PresetError("radical spec requires a != 0")
    if max(abs(a.numerator), a.denominator).bit_length() > RADICAND_BITS:
        raise PresetError(f"radicand a has more than {RADICAND_BITS} bits")
    for p in pg.factorize(n):
        if is_rational_pth_power(a, p):
            raise PresetError(
                f"hypothesis violated: a = {a} is a rational {p}-th power")
    if n % 4 == 0 and in_minus_four_fourth_powers(a):
        raise PresetError(
            f"hypothesis violated: a = {a} lies in -4*Q^4 while 4 | n")
    G, decode = _pair_group(n, n, enumeration_bound)
    names = {"Q": G.full_subgroup(), "N": G.trivial_subgroup()}
    for m in divisors(n):
        if m > 1:
            sub = G.subgroup(i for i in range(G.order) if decode(i)[0] % m == 0)
            if G.order // sub.order != m:
                raise PresetError(f"radical field for m={m} has wrong degree")
            names[_radical_name(a, m)] = sub
        if m > 2:
            sub = G.subgroup(i for i in range(G.order) if decode(i)[1] % m == 1)
            if G.order // sub.order != euler_phi(m):
                raise PresetError(f"cyclotomic field for m={m} has wrong degree")
            names[f"Q(zeta{m})"] = sub
    notes = {"preset": f"radical:a={a},n={n}", "declared_order": G.order}
    if n % 2 == 0:
        notes["hypothesis"] = "classical"  # degree rests on cyclotomic disjointness
    return GaloisContext(G, distinguished=names[_radical_name(a, n)], names=names,
                         notes=notes, enumeration_bound=enumeration_bound)


# ---------------------------------------------------------------------------
# cyclo-radical contexts: Q(zeta_e, l^(1/d)) / Q with e = lcm(n^2, d)


@_cached
def cyclo_radical_context(n: int, d: int, l: int, *,
                          enumeration_bound: int = pg.SUBGROUP_ENUM_BOUND
                          ) -> GaloisContext:
    """Closure context realizing (n, d) as a tourability degree.

    Refused unless n >= 1, d is odd and >= 3, l is prime, l does not
    divide n and gcd(d, n) = 1.  The group acts on d radical symbols and
    e = lcm(n^2, d) roots of unity by pairs (t in Z/d, s in (Z/e)*).  F_n
    is the fixed field of a subgroup H of Gal(Q(zeta_{n^2})/Q) of order
    phi(n^2)/n, chosen least in canonical subgroup order; the
    distinguished field is L = F_n(rho).
    """
    if n < 1:
        raise PresetError("cyclo-radical spec requires n >= 1")
    if d < 3 or d % 2 == 0:
        raise PresetError("cyclo-radical spec requires d odd and >= 3")
    if not is_probable_prime(l):
        raise PresetError(f"l = {l} is not prime")
    if l >= MILLER_RABIN_EXACT_BELOW:
        raise PresetError(f"l = {l} is a probable prime too large to certify")
    if n % l == 0:
        raise PresetError("hypothesis violated: l divides n")
    if math.gcd(d, n) != 1:
        raise PresetError("hypothesis violated: gcd(d, n) != 1")
    if d * n > enumeration_bound ** 2:
        # |G| = d*phi(e) >= d*phi(n^2) >= d*n: refused before e is trial-divided
        raise pg.BoundExceeded(
            f"|G| >= d*n = {d * n} exceeds enumeration bound {enumeration_bound}")
    n2 = n * n
    e = (n2 * d) // math.gcd(n2, d)
    G, decode = _pair_group(d, e, enumeration_bound)
    names = {"Q": G.full_subgroup(), "N": G.trivial_subgroup()}
    # cyclotomic fields for every divisor m | e
    cyclo_sub = {}
    for m in divisors(e):
        sub = G.subgroup(i for i in range(G.order) if decode(i)[1] % m == 1 % m)
        cyclo_sub[m] = sub
        if m > 2:
            if G.order // sub.order != euler_phi(m):
                raise PresetError(f"cyclotomic field for m={m} has wrong degree")
            names[f"Q(zeta{m})"] = sub
    # E-side radicals E_{n^2}(rho^delta) for proper divisors delta of d
    E = cyclo_sub[n2]
    for delta in divisors(d):
        if delta == d:
            continue
        sub = G.subgroup(i for i in range(G.order)
                         if decode(i)[1] % n2 == 1 % n2
                         and decode(i)[0] % (d // delta) == 0)
        if n2 > 2:
            names[f"Q(zeta{n2},{d // delta}rt{l})"] = sub
        else:
            names[_radical_name(l, d // delta)] = sub
    # F_n: preimage of the least valid H of order phi(n^2)/n
    q = euler_phi(n2) // n
    target = E.order * q
    X = next((sg for sg in pg.all_subgroups(G, bound=enumeration_bound)
              if E <= sg and sg.order == target), None)  # canonical order
    if X is None:
        raise PresetError("no subgroup H of the required order exists")
    if X != G.full_subgroup():
        names[f"F{n}"] = X
    SL = G.subgroup(i for i in X.key if decode(i)[0] == 0)
    names["L"] = SL  # the display name, unless SL already has one
    notes = {"preset": f"cyclo-radical:n={n},d={d},l={l}",
             "declared_order": G.order, "conductor": e}
    return GaloisContext(G, distinguished=SL, names=names, notes=notes,
                         enumeration_bound=enumeration_bound)


# ---------------------------------------------------------------------------
# Selmer-Serre contexts: splitting field of X^n - X - 1


@_cached
def selmer_serre_context(n: int, *,
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
    names = {"Q": G.full_subgroup(), "splitting": G.trivial_subgroup(),
             "Q(theta)": stab}
    notes = {"preset": f"selmer-serre:n={n}", "polynomial": f"X^{n}-X-1"}
    return GaloisContext(G, distinguished=stab, names=names, notes=notes,
                         enumeration_bound=enumeration_bound)


# ---------------------------------------------------------------------------
# instance files


def _cycle_texts(value, source: str, what: str) -> list:
    """value itself, when it is a list of cycle-notation strings."""
    if not isinstance(value, list) or not all(isinstance(t, str) for t in value):
        raise PresetError(f"{source}: {what} must be a list of cycle strings")
    return value


def from_dict(data: dict, enumeration_bound: int = pg.SUBGROUP_ENUM_BOUND,
              source: str = "<instance>") -> GaloisContext:
    try:
        degree = data["degree"]
        gen_texts = data["generators"]
        field_map = data.get("fields", {})
        distinguished = data.get("distinguished")
    except (KeyError, TypeError) as exc:
        raise PresetError(f"{source}: missing or malformed key: {exc}") from exc
    if type(degree) is not int or degree < 0:  # a bool is an int, but no degree
        raise PresetError(f"{source}: degree must be a JSON integer >= 0, not {degree!r}")
    if degree > INSTANCE_DEGREE_BOUND:
        raise pg.BoundExceeded(
            f"{source}: degree {degree} exceeds instance degree bound "
            f"{INSTANCE_DEGREE_BOUND}")
    if not isinstance(field_map, dict):
        raise PresetError(f"{source}: fields must be an object of name: generators")
    if distinguished is not None and not isinstance(distinguished, str):
        raise PresetError(f"{source}: distinguished must be a field name")
    gens = [Permutation.from_cycles(txt, degree)
            for txt in _cycle_texts(gen_texts, source, "generators")]
    G = pg.generate(degree, gens or [Permutation.identity(degree)],
                    bound=min(enumeration_bound, pg.CLOSURE_BOUND))
    names: dict = {}
    for name, gen_list in field_map.items():
        idxs = []
        for txt in _cycle_texts(gen_list, source, f"field {name!r}"):
            p = Permutation.from_cycles(txt, degree)
            if p not in G:
                raise PresetError(
                    f"{source}: field {name!r} is not a subgroup: "
                    f"generator {txt} lies outside the group")
            idxs.append(G.index_of(p))
        names[name] = G.generated_subgroup(idxs)
    if distinguished is not None and distinguished not in names:
        raise PresetError(
            f"{source}: distinguished field {distinguished!r} not defined")
    return GaloisContext(G, distinguished=names.get(distinguished), names=names,
                         notes={"preset": source},
                         enumeration_bound=enumeration_bound)


def from_file(path: str,
              enumeration_bound: int = pg.SUBGROUP_ENUM_BOUND) -> GaloisContext:
    """Load a context from a JSON instance file."""
    def no_dup_pairs(pairs):
        seen = set()
        for k, _ in pairs:
            if k in seen:
                raise PresetError(f"{path}: duplicate field name {k!r}")
            seen.add(k)
        return dict(pairs)

    import json  # on use: a preset never loads it
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.loads(fh.read(), object_pairs_hook=no_dup_pairs)
        except (ValueError, RecursionError) as exc:
            # not UTF-8, not JSON, past the int digit limit, or nested too deep
            raise PresetError(f"{path}: parse error: {exc}") from exc
    return from_dict(data, enumeration_bound=enumeration_bound, source=path)


# ---------------------------------------------------------------------------
# CLI selectors


def _parse_params(text: str, keys: str) -> dict:
    """A selector's key=value pairs; each key is one of ``keys``, given once."""
    out = {}
    for part in text.split(","):
        if "=" not in part:
            raise PresetError(f"bad parameter {part!r} (expected key=value)")
        k, v = part.split("=", 1)
        k = k.strip()
        if k not in keys.split(","):
            raise PresetError(f"unknown parameter {k!r} (expected {keys})")
        if k in out:
            raise PresetError(f"repeated parameter {k!r}")
        out[k] = v.strip()
    return out


def _radicand(text: str):
    """``int(text)`` for an integer text.  Any other text is
    ``Fraction(text)``, refused first if the decimal exponent alone gives
    a numerator or denominator of more than RADICAND_BITS bits, since
    Fraction builds 10**exponent before any size check.  An exponent e
    does so once e > RADICAND_BITS + len(text): 10**m has more than m
    bits, and the mantissa's digits cancel fewer than len(text) of its
    powers of ten (a zero mantissa is refused too)."""
    if re.fullmatch(r"\s*[+-]?\d+\s*", text):
        return int(text)  # no fractions (and decimal) import for an integer
    m = re.search(r"[eE][-+]?(\d[\d_]*)\s*\Z", text)
    if m:
        exponent = m.group(1).replace("_", "").lstrip("0") or "0"
        if len(exponent) > 20 or int(exponent) > RADICAND_BITS + len(text):
            raise PresetError(f"radicand a has more than {RADICAND_BITS} bits")
    from fractions import Fraction
    return Fraction(text)


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
    build = {"radical": radical_context, "cyclo-radical": cyclo_radical_context,
             "selmer-serre": selmer_serre_context}.get(kind)
    if build is None:
        return from_file(rest if kind == "file" else selector, enumeration_bound=bound)
    try:  # the parsing only: an error inside a constructor is not the selector's
        if kind == "radical":
            p = _parse_params(rest, "a,n")
            n = int(p["n"])  # before a, so a bad n is reported first
            args = (_radicand(p["a"]), n)
        elif kind == "cyclo-radical":
            p = _parse_params(rest, "n,d,l")
            args = (int(p["n"]), int(p["d"]), int(p["l"]))
        else:
            args = (int(_parse_params(rest, "n")["n"]),)
    except KeyError as exc:
        raise PresetError(f"selector {selector!r}: missing parameter {exc}") from exc
    except ZeroDivisionError as exc:
        raise PresetError(f"selector {selector!r}: zero denominator") from exc
    except ValueError as exc:
        raise PresetError(f"selector {selector!r}: {exc}") from exc
    return build(*args, enumeration_bound=bound)
