"""CLI surface: verbs, output stability, exit-code taxonomy."""

from __future__ import annotations

import hashlib
import io
import json
import os
import pathlib
import subprocess
import sys
import time

import pytest

import galtour
import galtour.dissociation as dis
import galtour.galois as gal
import galtour.permgroup as pg
import galtour.towers as tw
from galtour import cli, presets
from conftest import build_parser

REFERENCE = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "reference"


def _python(*args, timeout=None, stdout=subprocess.PIPE, stderr=subprocess.PIPE):
    """Run a fresh interpreter that imports this source tree of galtour."""
    src = os.path.dirname(os.path.dirname(galtour.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], stdout=stdout,
                          stderr=stderr, text=True,
                          env=dict(os.environ, PYTHONPATH=path), timeout=timeout)


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_analyze_radical_6(capsys):
    code, out, _ = run(capsys, "analyze", "radical:a=2,n=6", "--field", "Q(6rt2)")
    assert code == 0
    assert "galtourable: no" in out
    assert "M: Q(sqrt2)" in out
    assert "tour-degree: (2,3)" in out


def test_analyze_selmer_serre(capsys):
    code, out, _ = run(capsys, "analyze", "selmer-serre:n=5",
                       "--field", "Q(theta)")
    assert code == 0
    assert "simple: yes" in out
    assert "galois: no" in out


def test_analyze_radical_4(capsys):
    code, out, _ = run(capsys, "analyze", "radical:a=2,n=4",
                       "--field", "Q(4rt2)")
    assert code == 0
    assert "galtourable: yes" in out


def test_analyze_all_fields_json(capsys):
    code, out, _ = run(capsys, "analyze", "radical:a=2,n=4", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["order"] == 8
    assert len(data["fields"]) == 10  # all subgroups of the dihedral group


def test_analyze_is_byte_stable(capsys):
    _, out1, _ = run(capsys, "analyze", "radical:a=2,n=6")
    _, out2, _ = run(capsys, "analyze", "radical:a=2,n=6")
    assert out1 == out2


def test_m_field(capsys):
    code, out, _ = run(capsys, "m-field", "radical:a=2,n=6")
    assert code == 0
    assert "M: Q(sqrt2)" in out
    assert "tour-degree: (2,3)" in out
    code, out, _ = run(capsys, "m-field", "radical:a=2,n=6", "--json")
    data = json.loads(out)
    assert data == {"M": "Q(sqrt2)", "deg_gal": 2, "deg_int": 3,
                    "sub_kind": "galsimple_non_galois",
                    "witness_tower": ["Q", "Q(sqrt2)"]}


def test_tower_check(capsys):
    code, out, _ = run(capsys, "tower-check", "radical:a=2,n=4",
                       "--tower", '["K","Q(sqrt2)","Q(4rt2)"]')
    assert code == 0
    assert "strict: yes" in out
    assert "galois tower: yes" in out
    assert "composition tower: yes" in out


def test_refine_sigma_2_3(capsys):
    ctx = presets.load_instance("radical:a=2,n=4")
    X = gal.compositum(ctx, ctx.field_by_name("Q(zeta4)"),
                       ctx.field_by_name("Q(sqrt2)"))
    t2 = json.dumps(["K", "Q(zeta4)", X.name, "N"])
    code, out, _ = run(capsys, "refine", "radical:a=2,n=4",
                       "--tower", '["K","Q(sqrt2)","N"]', "--tower", t2)
    assert code == 0
    assert "sigma: 1 3 5 2 4 6" in out


def test_refine_identity_sigma(capsys):
    # heights m = n = 1: the marche permutation is the identity
    code, out, _ = run(capsys, "refine", "radical:a=2,n=4",
                       "--tower", '["K","N"]', "--tower", '["K","N"]')
    assert code == 0
    assert "sigma: 1" in out


def test_refine_rejects_non_galois_tower(capsys):
    code, _, err = run(capsys, "refine", "radical:a=2,n=6",
                       "--tower", '["K","Q(3rt2)","Q(6rt2)"]',
                       "--tower", '["K","Q(3rt2)","Q(6rt2)"]')
    assert code == 2
    assert "non-Galois marche" in err
    assert "Q(3rt2)" in err


def test_plain_refine_asks_is_galois_of_input_and_printed_marches(capsys, monkeypatch):
    # the input check names a non-Galois marche and Tower.pretty marks each
    # printed marche; the refined towers' own verdicts are read, not asked
    ops = [op for op in json.loads((REFERENCE / "cli_towers.json").read_text())["ops"]
           if op["verb"] == "refine" and "--strict" not in op["argv"]]
    assert len(ops) == 39

    def names(towers):
        return [(lo.name, hi.name) for t in towers for lo, hi in t.marches()]
    expected = []
    for op in ops:
        args = cli.parse_args(op["argv"])
        ctx = presets.load_instance(args.instance)
        t1, t2 = (cli._parse_tower(ctx, t) for t in args.tower)
        expected.append(names((t1, t2) + dis.schreier_refine(t1, t2)[:2]))
    calls = []
    is_galois = gal.is_galois
    monkeypatch.setattr(gal, "is_galois",
                        lambda ctx, E, F: calls.append((F.name, E.name)) or is_galois(ctx, E, F))
    for op, want in zip(ops, expected):
        code = cli.main(op["argv"])
        out = capsys.readouterr().out.encode("utf-8")
        assert (code, hashlib.sha256(out).hexdigest()) == \
            (op["exit"], op["stdout_sha256"]), op["argv"]
        assert calls == want, op["argv"]
        calls.clear()


def test_deeply_nested_tower_json_exits_2(capsys):
    # json.loads raised RecursionError, which ended in a traceback
    deep = "[" * 5000 + "]" * 5000
    code, _, err = run(capsys, "check-equiv", "radical:a=2,n=6",
                       "--tower", deep, "--tower", '["Q","N"]')
    assert code == 2
    assert err.startswith("error: bad tower JSON")


def test_long_bad_tower_error_is_one_short_line(capsys):
    # the error quoted the whole --tower text: 100 000 characters here
    deep = "[" * 50_000 + "]" * 50_000
    code, _, err = run(capsys, "check-equiv", "radical:a=2,n=6",
                       "--tower", deep, "--tower", '["Q","N"]')
    assert code == 2
    assert err.startswith("error: bad tower JSON '[[[[")
    assert "(100000 characters)" in err
    assert err.count("\n") == 1 and len(err.encode()) <= 300
    code, _, err = run(capsys, "check-equiv", "radical:a=2,n=6",
                       "--tower", '["K",', "--tower", '["Q","N"]')
    assert code == 2  # a short text is still quoted whole
    assert err.startswith("""error: bad tower JSON '["K",': """)


def test_refine_strict(capsys):
    code, out, _ = run(capsys, "refine", "radical:a=2,n=4", "--strict",
                       "--tower", '["K","Q(sqrt2)","N"]',
                       "--tower", '["K","Q(zeta4)","N"]')
    assert code == 0
    assert "sigma:" in out


def test_compose(capsys):
    code, out, _ = run(capsys, "compose", "radical:a=2,n=6")
    assert code == 0
    assert "Q" in out and "Q(sqrt2)" in out and "Q(6rt2)" in out
    code, out, _ = run(capsys, "compose", "radical:a=2,n=6", "--json")
    assert json.loads(out)["tower"] == ["Q", "Q(sqrt2)", "Q(6rt2)"]


def test_compose_s5_steps_through_a5_which_is_not_a_cover(capsys):
    # a composition step is maximal among the normal subgroups, not a
    # lattice cover: in S5 the step A5 > 1 passes many subgroups
    code, out, _ = run(capsys, "compose", "selmer-serre:n=5", "--field", "splitting")
    assert (code, out) == (0, "Q ⊴[2] H60.2aa7c6 ⊴[60] splitting\n")
    ctx = presets.load_instance("selmer-serre:n=5")
    a5 = ctx.field_by_name("H60.2aa7c6")
    assert ctx.top_closure not in ctx.covers(a5)


def test_elevate(capsys):
    code, out, _ = run(capsys, "elevate", "radical:a=2,n=6",
                       "--tower", '["K","Q(3rt2)","Q(6rt2)"]', "--json")
    assert code == 0
    data = json.loads(out)
    assert data["m_tower"] == ["Q", "Q", "Q(sqrt2)"]
    assert data["induced"] == ["Q", "Q", "Q(sqrt2)", "Q(6rt2)"]


def test_check_equiv(capsys):
    code, out, _ = run(capsys, "check-equiv", "radical:a=2,n=6",
                       "--tower", '["K","Q(sqrt2)","Q(6rt2)"]',
                       "--tower", '["K","Q(sqrt2)","Q(6rt2)"]')
    assert code == 0
    assert "equivalent: yes" in out


def test_check_equiv_has_no_height_limit(capsys):
    tower = json.dumps(["K"] * 13 + ["Q(sqrt2)", "Q(6rt2)"])
    code, out, err = run(capsys, "check-equiv", "radical:a=2,n=6",
                         "--tower", tower, "--tower", tower)
    assert code == 0, err
    assert out == ("equivalent: yes\nsigma: "
                   + " ".join(str(i) for i in range(1, 14)) + "\n")


def test_lattice_dot(capsys, tmp_path):
    code, out, _ = run(capsys, "lattice", "radical:a=2,n=4")
    assert code == 0
    assert out.startswith("digraph field_lattice {")
    target = tmp_path / "lat.dot"
    code, out, _ = run(capsys, "lattice", "radical:a=2,n=4",
                       "--dot", str(target))
    assert code == 0
    assert target.read_text().startswith("digraph field_lattice {")


def test_oracle_verb(capsys):
    code, out, _ = run(capsys, "oracle", "radical:a=2,n=6")
    assert code == 0
    assert "all_agree: yes" in out
    code, out, _ = run(capsys, "oracle", "radical:a=2,n=6", "--json")
    assert code == 0
    assert json.loads(out)["all_agree"] is True


def test_oracle_disagreement_exits_3_in_text_and_json(capsys, monkeypatch):
    monkeypatch.setattr(tw, "is_trivial_refinement", lambda e, f: False)
    code, out, _ = run(capsys, "oracle", "radical:a=2,n=6")
    assert code == 3
    bad = [line for line in out.splitlines() if "DISAGREE" in line]
    assert len(bad) == 1 and bad[0].startswith("radical:a=2,n=6 refinement_predicates: DISAGREE  [")
    assert out.endswith("all_agree: no\n")
    code, out, _ = run(capsys, "oracle", "radical:a=2,n=6", "--json")
    assert code == 3 and json.loads(out)["all_agree"] is False


def test_instance_file(capsys, tmp_path):
    path = tmp_path / "klein.json"
    path.write_text(json.dumps({
        "degree": 4, "generators": ["(1 2)", "(3 4)"],
        "fields": {"E": ["(3 4)"], "F": ["(1 2)"]}, "distinguished": "E"}))
    code, out, _ = run(capsys, "analyze", f"file:{path}", "--field", "E")
    assert code == 0
    assert "galtourable: yes" in out


def test_reserved_field_names(capsys, tmp_path):
    # K, L, N and closure name the base, the distinguished field and the
    # closure; an instance may bind them to those fields only
    path = tmp_path / "k.json"
    path.write_text(json.dumps({
        "degree": 4, "generators": ["(1 2)", "(3 4)"],
        "fields": {"K": ["(1 2)"], "E": ["(3 4)"]}}))
    code, out, err = run(capsys, "tower-check", f"file:{path}",
                         "--tower", '["K","N"]')
    assert (code, out) == (2, "") and "duplicate field name 'K'" in err
    path.write_text(json.dumps({
        "degree": 4, "generators": ["(1 2)", "(3 4)"],
        "fields": {"E": ["(3 4)"], "L": ["(3 4)"], "N": ["()"]},
        "distinguished": "E"}))
    ctx = presets.load_instance(f"file:{path}")
    assert ctx.field_by_name("L") == ctx.field_by_name("E") == ctx.distinguished
    assert ctx.field_by_name("N") == ctx.field_by_name("closure") == ctx.top_closure
    assert ctx.field_by_name("K") == ctx.base
    for sel in ("radical:a=2,n=6", "cyclo-radical:n=2,d=3,l=3"):
        ctx = presets.load_instance(sel)
        assert ctx.field_by_name("N") == ctx.top_closure, sel
        assert ctx.field_by_name("L") == ctx.distinguished, sel


def test_given_name_of_digest_form_exits_2(capsys, tmp_path):
    # a second unnamed field of radical:a=2,n=6 given the digest name of
    # another would show twice as H2.a31321, and --field would reach one
    ctx = presets.load_instance("radical:a=2,n=6")
    taken = ctx.field_by_name("H2.a31321")
    other = next(F for F in ctx.all_fields() if F.subgroup.order == 2
                 and F not in ctx.names and F is not taken)
    data = gal.to_instance_dict(ctx)
    data["fields"]["H2.a31321"] = [ctx.group.elements[i].cycles()
                                   for i in other.subgroup.gens()]
    path = tmp_path / "digest.json"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, "analyze", f"file:{path}", "--field", "H2.a31321")
    assert (code, out) == (2, "")
    assert err == "error: field name 'H2.a31321' has the form of a digest name\n"


def test_exit_code_2_on_bad_input(capsys):
    code, _, err = run(capsys, "analyze", "radical:a=4,n=2")
    assert code == 2 and "hypothesis violated" in err
    code, _, err = run(capsys, "analyze", "no-such-file.json")
    assert code == 2
    code, _, err = run(capsys, "m-field", "radical:a=2,n=6", "--field", "nope")
    assert code == 2 and "unknown field name" in err
    code, _, err = run(capsys, "tower-check", "radical:a=2,n=6",
                       "--tower", '["L","K"]')
    assert code == 2  # non-monotone
    code, _, err = run(capsys, "refine", "radical:a=2,n=6",
                       "--tower", '["K","L"]')
    assert code == 2 and "expected --tower" in err


@pytest.mark.parametrize("selector, reason", [
    ("radical:a=2,n=6,d=3", "unknown parameter 'd'"),
    ("selmer-serre:n=4,a=2", "unknown parameter 'a'"),
    ("radical:a=2,a=3,n=6", "repeated parameter 'a'"),
    ("cyclo-radical:n=1,d=3,l=2,l=5", "repeated parameter 'l'"),
])
def test_selector_rejects_unknown_and_repeated_parameters(capsys, selector, reason):
    code, out, err = run(capsys, "analyze", selector)
    assert code == 2 and out == "" and reason in err


@pytest.mark.parametrize("where", ["selector", "radicand", "tower", "cycle", "file"])
def test_integers_past_the_digit_limit_are_input_errors(tmp_path, capsys, where):
    # int() refuses more than 4300 digits with a ValueError, which is not
    # itself a user error
    big = "1" * 5000
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"degree": 4, "generators": [f"(1 {big})"]})
                    if where == "cycle" else f'{{"degree": {big}, "generators": []}}')
    argv = {"selector": ["analyze", f"radical:a=2,n={big}"],
            "radicand": ["analyze", "radical:a=1e5000,n=6"],
            "tower": ["tower-check", "radical:a=2,n=6", "--tower", f"[{big}]"],
            "cycle": ["analyze", f"file:{path}"],
            "file": ["analyze", f"file:{path}"]}[where]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, ""), err


PARSED = {"verb": None, "instance": None, "json": False, "bound": None,
          "field": None, "tower": None, "strict": False, "dot": None}

EDGE_ARGV = [
    ["refine", "radical:a=2,n=4", '--tower=["K","N"]', "--tower", '["K","N"]'],
    ["analyze", "--json", "--field", "Q(sqrt2)", "radical:a=2,n=6"],
    ["m-field", "--bound=100", "radical:a=2,n=6", "--json"],
    ["analyze", "radical:a=2,n=6", "--bound", "5", "--bound=7",
     "--field", "Q", "--field=N", "--json", "--json"],
    ["refine", "--tow", '["K","N"]', "radical:a=2,n=4", "--str", "--tow=[]", "--str"],
    ["check-equiv", "radical:a=2,n=6", "--t", "[]", "--to", "[]", "--tower", "[]"],
    ["lattice", "radical:a=2,n=4", "--do", "out.dot", "--js", "--b", "9"],
    ["compose", "--fi=", "--", "-radical"],
    ["analyze", "radical:a=2,n=6", "--bound", " 1_000 "],
    ["oracle", "selmer-serre:n=3"],
]


def _parsed(args) -> dict:
    return {name: getattr(args, name, default) for name, default in PARSED.items()}


def _reference_argv() -> list:
    return [op["argv"] for name in ("cli_lattice", "cli_towers")
            for op in json.loads((REFERENCE / f"{name}.json").read_text())["ops"]]


def test_parser_matches_the_argparse_reference():
    reference = build_parser()
    argvs = _reference_argv() + EDGE_ARGV
    assert len(argvs) == 394 + len(EDGE_ARGV)
    for argv in argvs:
        assert _parsed(cli.parse_args(argv)) == _parsed(reference.parse_args(argv)), argv


@pytest.mark.parametrize("argv", [
    [],
    ["frobnicate", "radical:a=2,n=6"],
    ["--json", "analyze", "radical:a=2,n=6"],
    ["analyze", "--json"],
    ["analyze", "radical:a=2,n=6", "radical:a=2,n=4"],
    ["analyze", "radical:a=2,n=6", "-x"],
    ["lattice", "radical:a=2,n=4", "--field", "Q"],
    ["refine", "radical:a=2,n=4", "--tower", '["K","N"]', "--field", "Q"],
    ["analyze", "radical:a=2,n=6", "--field"],
    ["tower-check", "radical:a=2,n=6", "--tower", "--json"],
    ["analyze", "radical:a=2,n=6", "--bound", "six"],
    ["tower-check", "radical:a=2,n=6"],
    ["analyze", "radical:a=2,n=6", "--json=yes"],
], ids=["no-verb", "unknown-verb", "option-before-verb", "no-instance",
        "extra-positional", "short-option", "foreign-option", "foreign-option-2",
        "no-value", "option-as-value", "non-int-bound", "no-tower", "flag-value"])
def test_bad_argv_exits_2_with_both_parsers(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    out, err = capsys.readouterr()
    assert (exc.value.code, out) == (2, "")
    usage, error = err.splitlines()
    assert usage.startswith("usage: galtour") and error.startswith("galtour: error: ")
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(argv)
    assert exc.value.code == 2


@pytest.mark.parametrize("verb", [None, *cli.VERBS])
def test_help_lists_every_verb_and_each_option_of_a_verb(capsys, verb):
    for flag in ("-h", "--help", "--he"):
        with pytest.raises(SystemExit) as exc:
            cli.main([flag] if verb is None else [verb, "radical:a=2,n=6", flag])
        out, err = capsys.readouterr()
        assert (exc.value.code, err) == (0, "")
        heads = [line.split()[0] for line in out.splitlines() if line.startswith("  ")]
        if verb is None:
            assert heads == list(cli.VERBS)
        else:
            assert out.startswith(f"usage: galtour {verb} [-h] ")
            assert heads == ["instance", "-h,", *(f"--{o}" for o in cli.VERBS[verb][2])]


def test_cold_call_loads_json_only_for_a_tower():
    # argparse, fractions (with decimal) and json cost about 5 ms of a cold call
    probe = ("import sys; from galtour import cli; cli.main(sys.argv[1:]); "
             "sys.stderr.write(' '.join(m for m in "
             "('argparse', 'fractions', 'decimal', 'json') if m in sys.modules))")
    for argv, loaded in ((["lattice", "radical:a=2,n=4"], ""),
                         (["tower-check", "radical:a=2,n=4", "--tower", '["Q","N"]'],
                          "json")):
        proc = _python("-S", "-c", probe, *argv)
        assert (proc.returncode, proc.stderr) == (0, loaded), argv


def test_unknown_flag_rejected(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["analyze", "radical:a=2,n=6", "--frobnicate"])
    assert exc.value.code == 2


def test_bound_override(capsys):
    code, _, err = run(capsys, "analyze", "selmer-serre:n=5", "--bound", "100")
    assert code == 2
    assert "exceeds enumeration bound" in err


def test_huge_radical_n_is_refused_before_it_is_factorized(capsys):
    # trial division of this 21-digit n would run for minutes; |G| >= n
    # already exceeds the bound
    start = time.perf_counter()
    code, out, err = run(capsys, "analyze", "radical:a=2,n=100000000000000000039")
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == ""
    assert "|G| >= n = 100000000000000000039 exceeds enumeration bound 384" in err


def test_theorem_violation_exits_3_without_traceback(capsys, monkeypatch):
    # a failed check inside towers must reach the CLI as the one
    # TheoremViolation class the CLI catches, not as a traceback
    assert dis.TheoremViolation is tw.TheoremViolation is gal.TheoremViolation
    # strict_associated then finds a new field in its own trivial refinement
    monkeypatch.setattr(tw, "_new_field_positions", lambda e, f: [1])
    code, out, err = run(capsys, "refine", "radical:a=2,n=4", "--strict",
                         "--tower", '["K","Q(sqrt2)","N"]',
                         "--tower", '["K","Q(zeta4)","N"]')
    assert code == 3 and out == ""
    assert "theorem violation" in err and "Traceback" not in err


def test_non_monotone_descent_exits_3(capsys, monkeypatch):
    # a non-monotone descent ended as the Tower's user error, exit 2
    ctx = presets.load_instance("radical:a=2,n=12")
    chain = [ctx.base, ctx.field_by_name("Q(sqrt2)"), ctx.field_by_name("Q(zeta3)")]
    monkeypatch.setattr(gal.GaloisContext, "subnormal_closure",
                        lambda self, E, F: (chain[-1], chain))
    ctx._report_cache.clear()  # a memoized M(L/K) would hide the forged walk
    code, out, err = run(capsys, "m-field", "radical:a=2,n=12")
    assert code == 3 and out == ""
    assert err == ("theorem violation (internal bug): "
                   "subnormal descent is not a strict Galois tower\n")


def test_non_galois_jordanholder_step_exits_3(capsys, monkeypatch):
    # a non-Galois refinement ended as is_composition_tower_galois's user error, exit 2
    ctx = presets.load_instance("radical:a=2,n=6")
    K, X = ctx.base, ctx.field_by_name("Q(3rt2)")
    galois_steps = gal.GaloisContext.galois_steps
    monkeypatch.setattr(gal.GaloisContext, "galois_steps",
                        lambda self, F, E: [X] if F == K else galois_steps(self, F, E))
    code, out, err = run(capsys, "compose", "radical:a=2,n=6", "--field", "N")
    assert code == 3 and out == ""
    assert err == ("theorem violation (internal bug): "
                   "Jordan-Holder refinement is not a Galois tower\n")


@pytest.mark.parametrize("argv", [
    ["m-field"], ["compose"], ["elevate", "--tower", '["K","Q(3rt2)","Q(6rt2)"]'],
])
def test_subnormal_closure_outside_l_exits_3(capsys, monkeypatch, argv):
    # a closure not below L ended as galois_steps' user error, exit 2
    ctx = presets.load_instance("radical:a=2,n=6")
    chain = [ctx.base, ctx.field_by_name("Q(zeta3)")]
    monkeypatch.setattr(gal.GaloisContext, "subnormal_closure",
                        lambda self, E, F: (chain[-1], chain))
    ctx._report_cache.clear()  # a memoized M(L/K) would hide the forged walk
    ctx._composition_cache.clear()  # and so would a memoized composition tower
    code, out, err = run(capsys, argv[0], "radical:a=2,n=6", *argv[1:])
    assert code == 3 and out == ""
    assert err.startswith("theorem violation (internal bug): M = Q(zeta3) is not contained in L")
    assert "Traceback" not in err


def test_non_monotone_schreier_refinement_exits_3(capsys, monkeypatch):
    # a non-monotone refinement ended as the Tower's user error, exit 2
    schreier_fields = dis._schreier_fields

    def forged(t1, t2):
        return (t1.ctx.top_closure,) + schreier_fields(t1, t2)[1:]
    monkeypatch.setattr(dis, "_schreier_fields", forged)
    code, out, err = run(capsys, "refine", "radical:a=2,n=6",
                         "--tower", '["Q","Q(zeta3)","N"]', "--tower", '["Q","Q(sqrt2)","N"]')
    assert code == 3 and out == ""
    assert err == ("theorem violation (internal bug): "
                   "refinement formulas built a non-monotone chain\n")


@pytest.mark.parametrize("forgery", ["drop", "shift"])
def test_schreier_refinement_off_its_indices_exits_3(capsys, monkeypatch, forgery):
    # the refinement of t1 by t2 holds t1's fields at the indices i*n: one
    # that drops an interior field of t1, or holds t1 at other indices
    # (which a greedy refinement search accepted), is refused
    schreier_tower = dis._schreier_tower

    def forged(t1, t2):
        fields = list(schreier_tower(t1, t2).fields)
        if forgery == "drop":  # T1[1], at index n, becomes the field below it
            fields[t2.height] = fields[t2.height - 1]
        else:  # t1's fields, then its top repeated
            fields = list(t1.fields) + [t1.top] * (len(fields) - len(t1.fields))
        return tw.make_tower(t1.ctx, fields)
    monkeypatch.setattr(dis, "_schreier_tower", forged)
    code, out, err = run(capsys, "refine", "radical:a=2,n=6",
                         "--tower", '["Q","Q(zeta3)","N"]', "--tower", '["Q","Q(sqrt2)","N"]')
    assert code == 3 and out == ""
    assert err == ("theorem violation (internal bug): "
                   "refinement formulas did not refine the inputs\n")


@pytest.mark.parametrize("argv", [
    ["refine", "--tower", '["Q","Q(zeta3)","N"]', "--tower", '["Q","Q(sqrt2)","N"]'],
    ["check-equiv", "--tower", '["Q","Q(zeta12)","N"]', "--tower", '["Q","Q(zeta12)","N"]'],
])
def test_forged_marche_isomorphism_exits_3(capsys, monkeypatch, argv):
    # the context's isomorphism, refused by EquivalenceWitness, ended as a
    # user error, exit 2; the context now refuses it when it would store it
    are_isomorphic = pg.are_isomorphic

    def forged(*args, **kwargs):  # swap the images of two labels
        phi = are_isomorphic(*args, **kwargs)
        return phi if phi is None or len(phi) < 2 else (phi[1], phi[0]) + phi[2:]
    monkeypatch.setattr(pg, "are_isomorphic", forged)
    ctx = presets.load_instance("radical:a=2,n=12")
    ctx._iso_cache.clear()  # the shared context may hold true isomorphisms already
    code, out, err = run(capsys, argv[0], "radical:a=2,n=12", *argv[1:])
    assert code == 3 and out == ""
    assert err == "theorem violation (internal bug): marche isomorphism does not verify\n"
    # and it keeps no forged one: every stored isomorphism verifies
    for (lo1, hi1, lo2, hi2), phi in ctx._iso_cache.items():
        q1, q2 = ctx.quotient_group(hi1, lo1), ctx.quotient_group(hi2, lo2)
        assert phi is None or q1.is_isomorphism(q2, phi)


def test_jordanholder_step_outside_its_marche_exits_3(capsys, monkeypatch):
    # a step above the marche's top ended as galois_steps' user error, exit 2
    ctx = presets.load_instance("radical:a=2,n=6")
    ctx._composition_cache.clear()  # a memoized composition tower would hide the forgery
    galois_steps = gal.GaloisContext.galois_steps
    monkeypatch.setattr(gal.GaloisContext, "galois_steps", lambda self, F, E: (
        [self.top_closure] if F == self.base else []) + galois_steps(self, F, E))
    code, out, err = run(capsys, "compose", "radical:a=2,n=6")
    assert code == 3 and out == ""
    assert err == ("theorem violation (internal bug): "
                   "Jordan-Holder found no Galois step inside a marche\n")


@pytest.mark.parametrize("forgery,message", [
    ("m_field", "elevation fields are not non-decreasing"),
    ("galtourable", "elevation marche is not galtourable"),
])
def test_forged_elevation_exits_3(capsys, monkeypatch, forgery, message):
    if forgery == "m_field":  # M(Q(3rt2)/K) read as Q(zeta3), not below M(Q(6rt2)/K)
        ctx = presets.load_instance("radical:a=2,n=6")
        X, Z = ctx.field_by_name("Q(3rt2)"), ctx.field_by_name("Q(zeta3)")
        field = dis.intourability_field
        monkeypatch.setattr(dis, "intourability_field", lambda c, L, K: (
            field(c, L, K)._replace(M=Z) if L == X else field(c, L, K)))
    else:
        monkeypatch.setattr(dis, "is_galtourable", lambda ctx, E, F: False)
    code, out, err = run(capsys, "elevate", "radical:a=2,n=6",
                         "--tower", '["K","Q(3rt2)","Q(6rt2)"]')
    assert code == 3 and out == ""
    assert err == f"theorem violation (internal bug): {message}\n"


def test_forged_reach_row_exits_3(capsys, monkeypatch):
    # a reach row that lost the bit of Q(sqrt2) reads Q(sqrt2)/Q as not
    # galtourable, and the M-tower Q <= Q <= Q(sqrt2) is refused
    ctx = presets.load_instance("radical:a=2,n=6")
    S = ctx.field_by_name("Q(sqrt2)")
    reach_row = gal.GaloisContext._reach_row
    monkeypatch.setattr(gal.GaloisContext, "_reach_row",
                        lambda self, F: reach_row(self, F) & ~(1 << S.pos))
    ctx._reach_rows.clear()  # a memoized row would hide the forgery
    argv = ("elevate", "radical:a=2,n=6", "--tower", '["K","Q(3rt2)","Q(6rt2)"]')
    try:
        code, out, err = run(capsys, *argv)
    finally:
        ctx._reach_rows.clear()  # the shared context keeps no forged row
    assert code == 3 and out == ""
    assert err == "theorem violation (internal bug): elevation marche is not galtourable\n"
    monkeypatch.undo()
    assert run(capsys, *argv)[0] == 0


def test_refine_large_marche_not_capped(capsys):
    # |G| = 220: the marche groups are quotients of a context that already
    # passed the enumeration bound, so no isomorphism cap applies
    code, out, err = run(capsys, "refine", "radical:a=2,n=22",
                         "--tower", '["Q","N"]', "--tower", '["Q","N"]')
    assert code == 0, err
    assert "sigma: 1" in out
    assert "marche 1 ~ marche 1: order 220 (nonabelian)" in out


def test_check_equiv_rejects_tower_not_induced_from_m(capsys):
    # M(L/K) = Q(sqrt2) here; Q < Q(6rt2) does not end in the marche M < L
    code, out, err = run(capsys, "check-equiv", "radical:a=2,n=6",
                         "--tower", '["K","L"]', "--tower", '["K","Q(sqrt2)","L"]')
    assert code == 2 and out == ""
    assert "error: not a tower induced from Q(sqrt2)" in err
    ctx = presets.load_instance("radical:a=2,n=6")
    K, L = ctx.base, ctx.distinguished
    bare = tw.make_tower(ctx, [K, L])
    assert not dis.is_elevation_tower(ctx, bare)
    assert not dis.is_composition_tower(ctx, bare)
    induced = tw.make_tower(ctx, [K, ctx.field_by_name("Q(sqrt2)"), L])
    assert dis.is_elevation_tower(ctx, induced)
    assert dis.is_composition_tower(ctx, induced)


def test_check_equiv_rejects_non_galois_tower_of_galtourable_extension(capsys):
    # M(L/K) = L here, so the tower is its own prefix, and Q < Q(4rt2) is
    # not Galois: the same error as a tower not ending in M < L
    code, out, err = run(capsys, "check-equiv", "radical:a=2,n=4",
                         "--tower", '["Q","L"]', "--tower", '["Q","L"]')
    assert code == 2 and out == ""
    assert err == "error: not a tower induced from Q(4rt2): Tower[Q <= Q(4rt2)]\n"


@pytest.mark.parametrize("argv", [
    ["analyze", "radical:a=2,n=6"],
    ["refine", "radical:a=2,n=4", "--strict",
     "--tower", '["K","Q(sqrt2)","N"]', "--tower", '["K","Q(zeta4)","N"]'],
    ["oracle", "selmer-serre:n=3"],
])
def test_optimized_mode_prints_the_same(argv):
    # python -O strips assert statements; no verdict may depend on them
    plain, optimized = (_python(*flags, "-m", "galtour.cli", *argv)
                        for flags in ([], ["-O"]))
    assert plain.returncode == 0, plain.stderr
    assert (optimized.returncode, optimized.stdout) == (0, plain.stdout)


@pytest.mark.parametrize("argv", [
    ["analyze", "radical:a=2,n=6"],   # fits the buffer: the final flush fails
    ["lattice", "radical:a=2,n=12"],  # a write inside the verb fails
    ["refine", "--help"],             # help is written before any instance
])
def test_closed_stdout_exits_141_with_nothing_on_stderr(argv, tmp_path, monkeypatch):
    # the reader is gone before the first write, so every write fails;
    # stdout is buffered, as by default, whatever this environment says
    monkeypatch.delenv("PYTHONUNBUFFERED", raising=False)
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = _python("-m", "galtour.cli", *argv, stdout=write_end)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (141, "")
    # an OSError while reading input is still an input error
    proc = _python("-m", "galtour.cli", "analyze", f"file:{tmp_path / 'missing.json'}")
    assert proc.returncode == 2 and proc.stderr.startswith("error: ")


FORGED_VIOLATION = ("galtour.towers._new_field_positions", "lambda e, f: [1]")
FORGED_KEY_ERROR = ("galtour.presets.load_instance", "lambda *a, **k: {}['forged']")


@pytest.mark.parametrize("argv, forge, code", [
    (["-h"], None, 0),
    (["analyze", "radical:a=2,n=6", "--frobnicate"], None, 2),
    (["analyze", "radical:a=2,n=6,d=3"], None, 2),
    (["refine", "radical:a=2,n=4", "--strict", "--tower", '["K","Q(sqrt2)","N"]',
      "--tower", '["K","Q(zeta4)","N"]'], FORGED_VIOLATION, 3),
    (["m-field", "radical:a=2,n=6"], FORGED_KEY_ERROR, 1),
], ids=["help", "bad-argv", "bad-selector", "theorem-violation", "key-error"])
def test_fresh_process_exits_as_in_process_main_returns(capsys, monkeypatch, argv,
                                                        forge, code):
    # cli.run ends the process with os._exit, past the interpreter's
    # teardown; its code, stdout and stderr are still those of cli.main
    if forge is None:
        proc = _python("-m", "galtour.cli", *argv)
    else:
        target, source = forge
        proc = _python("-c", f"import galtour.presets, galtour.towers; {target} = {source}; "
                             "from galtour import cli; cli.run()", *argv)
        monkeypatch.setattr(target, eval(source))
    traceback = None
    try:
        got = cli.main(argv)
    except SystemExit as exc:  # help, or a bad command line
        got = exc.code
    except KeyError as exc:  # a library bug: Python prints the traceback
        got, traceback = 1, f"\nKeyError: {exc}\n"
    out, err = capsys.readouterr()
    assert (proc.returncode, proc.stdout, got) == (got, out, code)
    if traceback is None:
        assert proc.stderr == err
    else:
        assert err == "" and proc.stderr.endswith(traceback)
        assert proc.stderr.startswith("Traceback (most recent call last):\n")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("argv", [["analyze", "radical:a=2,n=6"], ["-h"]],
                         ids=["analyze", "help"])
def test_stdout_on_a_full_device_exits_2_with_one_error_line(capsys, monkeypatch, argv):
    # a buffered stdout, the default, keeps the bytes that it failed to
    # write, and used to fail once more at exit (exit 120); -u has no buffer
    monkeypatch.delenv("PYTHONUNBUFFERED", raising=False)
    with open("/dev/full", "w") as full:
        procs = [_python(*flags, "-m", "galtour.cli", *argv, stdout=full)
                 for flags in ([], ["-u"])]
    with io.FileIO("/dev/full", "w") as raw:
        monkeypatch.setattr(sys, "stdout", io.TextIOWrapper(raw, write_through=True))
        code = cli.main(argv)
    err = capsys.readouterr().err
    assert (code, err) == (2, "error: [Errno 28] No space left on device\n")
    assert [(proc.returncode, proc.stderr) for proc in procs] == [(code, err)] * 2


def test_fresh_process_runs_atexit_handlers_before_the_final_flush(monkeypatch):
    # coverage and profilers save their data from atexit handlers, and
    # what a handler prints to a buffered stdout must not be lost
    monkeypatch.delenv("PYTHONUNBUFFERED", raising=False)
    wrapper = ("import atexit, sys; "
               "atexit.register(print, 'stdout at exit'); "
               "atexit.register(print, 'stderr at exit', file=sys.stderr); "
               "from galtour import cli; cli.run()")
    argv = ["m-field", "radical:a=2,n=6"]
    proc = _python("-c", wrapper, *argv, stderr=subprocess.STDOUT)
    plain = _python("-m", "galtour.cli", *argv)
    assert (plain.returncode, plain.stderr) == (0, "")
    assert (proc.returncode, proc.stdout) == (
        0, plain.stdout + "stderr at exit\nstdout at exit\n")


def _first_reference_op_per_verb():
    ops = {}
    for workload in ("cli_lattice", "cli_towers"):
        for op in json.loads((REFERENCE / f"{workload}.json").read_text())["ops"]:
            ops.setdefault(op["verb"], op)
    return list(ops.values())


@pytest.mark.parametrize("op", _first_reference_op_per_verb(), ids=lambda op: op["verb"])
def test_fresh_process_matches_benchmark_reference(op):
    # as the benchmark runs each op: a process of its own, ended by cli.run
    proc = _python("-m", "galtour.cli", *op["argv"])
    digest = hashlib.sha256(proc.stdout.encode("utf-8")).hexdigest()
    assert (proc.returncode, digest) == (op["exit"], op["stdout_sha256"]), proc.stderr


def test_cli_import_loads_only_what_every_verb_runs():
    # -S keeps modules that site-packages .pth files load out of the check
    heavy = ["dataclasses", "inspect", "typing", "hashlib", "random",
             "galtour.oracle"]
    proc = _python("-S", "-c", "import sys, galtour.cli; "
                   "print(*[m for m in sys.argv[1:] if m in sys.modules])", *heavy)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []


@pytest.mark.parametrize("code", [
    "import galtour; print(galtour.oracle.run_agreement_suite.__module__)",
    "from galtour import *; print(oracle.run_agreement_suite.__module__)",
])
def test_oracle_loads_on_first_access(code):
    proc = _python("-S", "-c", code)
    assert (proc.returncode, proc.stdout) == (0, "galtour.oracle\n"), proc.stderr
    with pytest.raises(AttributeError, match="no attribute 'nope'"):
        getattr(galtour, "nope")
