"""CLI surface: verbs, output stability, exit-code taxonomy."""

from __future__ import annotations

import hashlib
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
import galtour.towers as tw
from galtour import cli, presets

REFERENCE = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "reference"


def _python(*args, timeout=None, stdout=subprocess.PIPE):
    """Run a fresh interpreter that imports this source tree of galtour."""
    src = os.path.dirname(os.path.dirname(galtour.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], stdout=stdout,
                          stderr=subprocess.PIPE, text=True,
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


def test_plain_refine_reads_no_marche_groups(capsys, monkeypatch):
    # schreier_refine has checked r1 Galois; the verb reads its quotients
    ops = [op for op in json.loads((REFERENCE / "cli_towers.json").read_text())["ops"]
           if op["verb"] == "refine" and "--strict" not in op["argv"]]
    assert len(ops) == 39
    calls = []
    marche_groups = tw.marche_groups
    monkeypatch.setattr(tw, "marche_groups", lambda t: calls.append(t) or marche_groups(t))
    for op in ops:
        code = cli.main(op["argv"])
        out = capsys.readouterr().out.encode("utf-8")
        assert (code, hashlib.sha256(out).hexdigest()) == \
            (op["exit"], op["stdout_sha256"]), op["argv"]
    assert calls == []


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
    assert dis.TheoremViolation is tw.TheoremViolation
    monkeypatch.setattr(tw, "is_trivial_refinement", lambda e, f: False)
    code, out, err = run(capsys, "refine", "radical:a=2,n=4", "--strict",
                         "--tower", '["K","Q(sqrt2)","N"]',
                         "--tower", '["K","Q(zeta4)","N"]')
    assert code == 3 and out == ""
    assert "theorem violation" in err and "Traceback" not in err


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
])
def test_closed_stdout_exits_141_with_nothing_on_stderr(argv, tmp_path):
    # the reader is gone before the first write, so every write fails
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
