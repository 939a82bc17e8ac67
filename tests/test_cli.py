"""End-to-end CLI: outputs, exit codes, determinism."""

import hashlib
import json
import os
import subprocess
import sys

import pytest

from bicat_euler.catdsl import parse
from bicat_euler.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_chi_bz2(capsys, fixture_dir):
    code, out, _ = run(capsys, "chi", str(fixture_dir / "bz2.catj"))
    assert code == 0 and out.strip() == "1/2"


def test_chi_pt(capsys, fixture_dir):
    code, out, _ = run(capsys, "chi", str(fixture_dir / "pt.catj"))
    assert code == 0 and out.strip() == "1"


def test_chi_psg_as_catgraph(capsys, fixture_dir):
    code, out, _ = run(capsys, "chi", str(fixture_dir / "psg.catj"), "--kind", "catgraph")
    assert code == 0 and out.strip() == "2"


def test_chi_vectors_and_decimal(capsys, fixture_dir):
    code, out, _ = run(
        capsys, "chi", str(fixture_dir / "arrow.catj"), "--weighting", "--coweighting", "--decimal"
    )
    assert code == 0
    assert out.splitlines()[0].startswith("1  (approx 1")
    assert '"0": "0"' in out and '"1": "1"' in out  # weighting (0, 1)


def test_chi_reports_missing_side_and_exits_1(capsys, fixture_dir):
    code, out, _ = run(capsys, "chi", str(fixture_dir / "nochi-catgraph.catj"))
    assert code == 1
    assert out.strip() == "no Euler characteristic (missing: weighting)"


def test_chi_wrong_kind_is_input_error(capsys, fixture_dir):
    code, _, err = run(capsys, "chi", str(fixture_dir / "ez2-to-bz2.catj"))
    assert code == 2 and "no Euler characteristic" in err


def test_chi_parse_failure_exits_2(capsys, negative_dir):
    code, _, err = run(capsys, "chi", str(negative_dir / "e001-undeclared-object.catj"))
    assert code == 2 and "E001" in err


def test_unknown_2cell_is_input_error(capsys, negative_dir):
    code, _, err = run(capsys, "chi", str(negative_dir / "unknown-2cell.catj"))
    assert code == 2 and "MissingCompositionData" in err and "'zz'" in err


# An undeclared label in each optional coherence table: (negative fixture, tables replaced, code).
# The two cases that replace no table run the negative fixtures as they are.
UNDECLARED_IN_COHERENCE = {
    "comp_iso key": ("unknown-comp-iso-key.catj", {}, "IncoherentData"),
    "comp_iso component": ("unknown-comp-iso-key.catj", {"comp_iso": {"id*|id*": {"x": "zz"}}}, "IncoherentData"),
    "unit_iso component": (
        "unknown-comp-iso-key.catj",
        {"comp_iso": {"id*|id*": {"x": "idx"}}, "unit_iso": {"*": {"x": "zz"}}},
        "IncoherentData",
    ),
    "phi key object": ("unknown-phi-object.catj", {}, "MissingCompositionData"),
    "phi row 1-cell": ("unknown-phi-object.catj", {"phi": {"*|*|*": [["zz", "I", "iI"]]}}, "MissingCompositionData"),
}


@pytest.mark.parametrize("case", sorted(UNDECLARED_IN_COHERENCE))
def test_undeclared_label_in_coherence_data_is_one_diagnostic(capsys, negative_dir, tmp_path, case):
    name, tables, expected = UNDECLARED_IN_COHERENCE[case]
    path = negative_dir / name
    if tables:
        doc = json.loads(path.read_text(encoding="utf-8"))
        doc.update(tables)
        path = tmp_path / name
        path.write_text(json.dumps(doc), encoding="utf-8")
    assert [d.code for d in parse(path.read_text(encoding="utf-8")).diagnostics] == [expected]
    code, _, err = run(capsys, "chi", str(path))
    assert code == 2 and expected in err and "Traceback" not in err


def test_bad_exponent_is_input_error(capsys, negative_dir):
    code, _, err = run(capsys, "chi", str(negative_dir / "e005-bad-exponent.catj"))
    assert code == 2 and "7:12 E005 malformed number" in err and "Traceback" not in err


def test_non_utf8_file_is_input_error(capsys, tmp_path):
    path = tmp_path / "latin1.catj"
    path.write_bytes('{"kind": "category", "objects": ["\u00e9"]}'.encode("latin-1"))
    code, _, err = run(capsys, "chi", str(path))
    assert code == 2 and err.startswith(f"{path}: ") and "utf-8" in err and "Traceback" not in err


def test_digest_is_of_the_file_bytes_whatever_the_line_ending(capsys, fixture_dir, tmp_path):
    lf = fixture_dir / "bz2.catj"
    report = json.loads(run(capsys, "chi", str(lf), "--json", "--weighting", "--coweighting")[1])
    for name, newline in (("crlf.catj", b"\r\n"), ("cr.catj", b"\r")):
        path = tmp_path / name
        path.write_bytes(lf.read_bytes().replace(b"\n", newline))
        code, out, _ = run(capsys, "chi", str(path), "--json", "--weighting", "--coweighting")
        copy = json.loads(out)
        assert code == 0 and copy["inputs"][0]["sha256"] == hashlib.sha256(path.read_bytes()).hexdigest()
        assert copy["inputs"][0]["sha256"] != report["inputs"][0]["sha256"]
        assert copy["results"] == report["results"]


def test_check_fib_groupoids(capsys, fixture_dir):
    code, out, _ = run(capsys, "check", str(fixture_dir / "ez2-to-bz2.catj"), "fib-groupoids")
    assert code == 0 and out.strip() == "pass"


def test_check_acyclic_span(capsys, fixture_dir):
    code, out, _ = run(capsys, "check", str(fixture_dir / "span.catj"), "acyclic")
    assert code == 0 and out.strip() == "pass"


def test_check_pseudogroupoid_fails_with_witness(capsys, fixture_dir):
    code, out, _ = run(capsys, "check", str(fixture_dir / "acyclic2.catj"), "pseudogroupoid")
    assert code == 1 and "non_invertible_2cell" in out and "a2" in out


@pytest.mark.parametrize("name,predicate,witness", [
    ("bz2", "acyclic", '{"non_identity_endomorphism": ["g"]}'),
    ("ez2", "acyclic", '{"circuit": ["m01", "m10"]}'),
    ("ez2-bicat", "acyclic", '{"opposed_1cells": ["0", "1", "m01", "m10"]}'),
    ("psg-collapse", "biequivalence", '{"non_equivalence_hom": ["p", "p"]}'),
])
def test_failed_check_names_a_witness(capsys, fixture_dir, name, predicate, witness):
    code, out, _ = run(capsys, "check", str(fixture_dir / f"{name}.catj"), predicate)
    assert code == 1 and out.strip() == f"fail {witness}"


def test_check_biequivalence_fixture(capsys, fixture_dir):
    code, out, _ = run(capsys, "check", str(fixture_dir / "psg-collapse.catj"), "fib-pseudogroupoids")
    assert code == 0 and out.strip() == "pass"


def test_check_reports_nested_witnesses(capsys, tmp_path, monkeypatch):
    # Each witness of this collapse nests tuples: the failing 1-cell and the reason it fails.
    from bicat_euler import fixtures as fx
    from bicat_euler.catdsl import serialize

    (tmp_path / "collapse.catj").write_text(serialize(fx.collapse_to_point(fx.ARROW_BICAT)), encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    witnesses = {
        "co_non_cartesian_1cell": [["1", "0", "a"], ["no_lift", "0", "id0", "I", "idI"]],
        "non_cartesian_1cell": [["0", "1", "a"], ["no_lift", "1", "id1", "I", "idI"]],
    }
    code, out, _ = run(capsys, "check", "collapse.catj", "fib-pseudogroupoids")
    assert code == 1 and out == (
        'fail {"co_non_cartesian_1cell": [["1", "0", "a"], ["no_lift", "0", "id0", "I", "idI"]], '
        '"non_cartesian_1cell": [["0", "1", "a"], ["no_lift", "1", "id1", "I", "idI"]]}\n'
    )
    code, out, _ = run(capsys, "check", "collapse.catj", "fib-pseudogroupoids", "--json")
    report = {
        "command": "check fib-pseudogroupoids",
        "inputs": [
            {"path": "collapse.catj", "sha256": "bc8d90c36b437ae9fc66d46e8d2cbd0e2ab2be3e6f154d992c201ee0630bd22a"}
        ],
        "results": {"pass": False, "witnesses": witnesses},
        "status": 1,
    }
    assert code == 1 and out == json.dumps(report, indent=2, sort_keys=True) + "\n"


def test_verify_product_cat(capsys, fixture_dir):
    code, out, _ = run(capsys, "verify", "product-cat", str(fixture_dir / "ez2-to-bz2.catj"))
    assert code == 0 and out.strip() == "1 = 1/2 · 2"


def test_verify_gr(capsys, fixture_dir):
    code, out, _ = run(capsys, "verify", "gr", str(fixture_dir / "arrow-base-laxcat.catj"))
    assert code == 0 and out.strip() == "2 = 1·2 + 0·1"


def test_verify_product_bicat(capsys, fixture_dir):
    code, out, _ = run(capsys, "verify", "product-bicat", str(fixture_dir / "gr-psg-over-arrow.catj"))
    assert code == 0 and out.strip() == "2 = 1 · 2"


def test_verify_gr_bicat_trihom(capsys, fixture_dir):
    code, out, _ = run(capsys, "verify", "gr-bicat", str(fixture_dir / "trihom-const-psg-arrow.catj"))
    assert code == 0 and out.strip() == "2 = 1·2 + 0·2"


def test_verify_gr_bicat_laxfunctor(capsys, fixture_dir):
    code, out, _ = run(capsys, "verify", "gr-bicat", str(fixture_dir / "psg-collapse.catj"))
    assert code == 0 and out.strip() == "2 = 1·2"


def test_verify_gr_bicat_without_a_pullback_is_input_error(capsys, tmp_path):
    # Their cleavages have no pullback 1-cell: the input is unsuitable, not an internal bug.
    from bicat_euler import fixtures as fx
    from bicat_euler.bicat import product_projection
    from bicat_euler.catdsl import serialize

    cases = {
        "no pullback 1-cell for (id0,t) along id0": product_projection(fx.ARROW_BICAT, fx.ACYCLIC2),
        "no pullback 1-cell for t along I": fx.collapse_to_point(fx.ACYCLIC2),
    }
    for message, p in cases.items():
        path = tmp_path / "p.catj"
        path.write_text(serialize(p), encoding="utf-8")
        for extra in ([], ["--json"]):
            assert run(capsys, "verify", "gr-bicat", str(path), *extra) == (2, "", f"input error: {message}\n")


def test_verify_biequivalence_rejects_collapse(capsys, fixture_dir):
    code, _, err = run(capsys, "verify", "biequivalence", str(fixture_dir / "psg-collapse.catj"))
    assert code == 2 and "not a biequivalence" in err


def test_verify_wrong_shape_is_input_error(capsys, fixture_dir):
    code, _, err = run(capsys, "verify", "gr", str(fixture_dir / "bz2.catj"))
    assert code == 2


def test_gen_smallest_acyclic_is_pt(capsys, fixture_dir):
    code, out, _ = run(capsys, "gen", "acyclic-cat", "--seed", "0", "--size", "1")
    assert code == 0
    assert out == (fixture_dir / "pt.catj").read_text(encoding="utf-8")


def test_gen_to_file_then_check(tmp_path, capsys):
    target = tmp_path / "gen.catj"
    code, out, _ = run(capsys, "gen", "fib-groupoids-functor", "--seed", "7", "--size", "3",
                       "--out", str(target))
    assert code == 0 and target.exists()
    code2, out2, _ = run(capsys, "check", str(target), "fib-groupoids")
    assert code2 == 0 and out2.strip() == "pass"


def test_gen_pseudogroupoid_passes_check(tmp_path, capsys):
    target = tmp_path / "psg.catj"
    code, _, _ = run(capsys, "gen", "pseudogroupoid", "--seed", "1", "--size", "2", "--out", str(target))
    assert code == 0
    code2, out2, _ = run(capsys, "check", str(target), "pseudogroupoid")
    assert code2 == 0 and out2.strip() == "pass"


def test_json_output_is_deterministic(capsys, fixture_dir):
    _, out1, _ = run(capsys, "chi", str(fixture_dir / "bz2.catj"), "--json")
    _, out2, _ = run(capsys, "chi", str(fixture_dir / "bz2.catj"), "--json")
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["results"]["chi"] == "1/2"
    assert payload["status"] == 0
    assert payload["inputs"][0]["sha256"]


def test_json_gen_deterministic(capsys):
    _, out1, _ = run(capsys, "gen", "trihom-psgrpd", "--seed", "3", "--size", "2", "--json")
    _, out2, _ = run(capsys, "gen", "trihom-psgrpd", "--seed", "3", "--size", "2", "--json")
    assert out1 == out2


def test_missing_file_is_input_error(capsys):
    code, _, err = run(capsys, "chi", "does-not-exist.catj")
    assert code == 2


def _python(fixture_dir, *args, **kwargs):
    """A fresh interpreter with PYTHONPATH=src, run from the root of the checkout."""
    env = dict(os.environ, PYTHONPATH="src")
    return subprocess.run([sys.executable, *args], cwd=fixture_dir.parent, env=env, capture_output=True, **kwargs)


def _loaded_after(fixture_dir, code):
    """The names in sys.modules after running code in a fresh interpreter."""
    proc = _python(fixture_dir, "-c", code + "\nimport sys; print(' '.join(sys.modules))", text=True, check=True)
    return set(proc.stdout.split())


LAZY_MODULES = {f"bicat_euler.{m}" for m in ("bicat", "fib1", "bifib", "generators", "fixtures")}
# Stdlib modules no command needs: the value classes are built without `dataclasses` (which
# imports `inspect`), and `traceback` is imported only on exit 3.
UNNEEDED_STDLIB = {"dataclasses", "inspect", "traceback"}


def _unneeded_stdlib_after(fixture_dir, code):
    """The unneeded stdlib modules that code loads beyond what a bare interpreter has (a site hook may load some)."""
    return (_loaded_after(fixture_dir, code) - _loaded_after(fixture_dir, "pass")) & UNNEEDED_STDLIB


def test_cli_import_loads_no_thread_pool(fixture_dir):
    # The bifibration sweep is serial: on a GIL build a thread pool gave it no speedup.
    assert "concurrent.futures" not in _loaded_after(fixture_dir, "import bicat_euler.cli")


def test_cli_import_loads_no_kind_module(fixture_dir):
    assert not _loaded_after(fixture_dir, "import bicat_euler.cli") & LAZY_MODULES
    assert not _unneeded_stdlib_after(fixture_dir, "import bicat_euler.cli")


def test_package_imports_no_pathlib_or_typing(fixture_dir, tmp_path):
    # Run without `site`, which may load both through a .pth file: the package itself needs neither.
    gen = f"['gen', 'trihom-psgrpd', '--out', {str(tmp_path / 'trihom.catj')!r}]"
    for code in ["import bicat_euler.cli",
                 "from bicat_euler.cli import main; main(['verify', 'product-bicat', 'fixtures/gr-psg-over-arrow.catj'])",
                 f"from bicat_euler.cli import main; main({gen})"]:
        proc = _python(fixture_dir, "-S", "-c", code + "\nimport sys; print(' '.join(sys.modules))", text=True)
        assert proc.returncode == 0, proc.stderr
        assert not {"pathlib", "typing"} & set(proc.stdout.split()), code


def test_each_command_loads_only_the_modules_it_runs(fixture_dir, tmp_path):
    chi = _loaded_after(fixture_dir, "from bicat_euler.cli import main; main(['chi', 'fixtures/bz2.catj'])")
    assert not chi & {"bicat_euler.bicat", "bicat_euler.fib1"}
    check = "from bicat_euler.cli import main; main(['check', 'fixtures/ez2-to-bz2.catj', 'fib-groupoids'])"
    loaded = _loaded_after(fixture_dir, check)
    assert "bicat_euler.fib1" in loaded and not loaded & {"bicat_euler.bicat", "bicat_euler.bifib"}
    acyclic = "from bicat_euler.cli import main; main(['check', 'fixtures/bpt.catj', 'acyclic'])"
    loaded = _loaded_after(fixture_dir, acyclic)
    assert "bicat_euler.bicat" in loaded and not loaded & {"bicat_euler.fixtures", "bicat_euler.fib1"}
    commands = [
        ["chi", "fixtures/bz2.catj"],
        ["check", "fixtures/ez2-to-bz2.catj", "fib-groupoids"],
        ["verify", "product-bicat", "fixtures/gr-psg-over-arrow.catj"],
        ["gen", "trihom-psgrpd", "--out", str(tmp_path / "trihom.catj")],
    ]
    for argv in commands:
        code = f"from bicat_euler.cli import main; assert main({argv!r}) == 0"
        assert not _unneeded_stdlib_after(fixture_dir, code), argv


def test_generators_import_validates_nothing(fixture_dir):
    # The fixture catalog builds each named value on first access, not when `gen` imports it.
    code = """import sys
calls = []
sys.setprofile(lambda frame, event, arg: event == "call" and frame.f_code.co_name.startswith("validate_")
               and calls.append(frame.f_code.co_name))
import bicat_euler.generators
sys.setprofile(None)
from bicat_euler import fixtures
print(len(calls), "bicat_euler.fixtures" in sys.modules, fixtures.PSG_COLLAPSE.source is fixtures.PSG)
"""
    proc = _python(fixture_dir, "-c", code, text=True, check=True)
    assert proc.stdout.split() == ["0", "True", "True"]


def test_package_attributes_import_submodules(fixture_dir):
    code = "import bicat_euler; print(bicat_euler.bifib.__name__); print(hasattr(bicat_euler, 'nosuch'))"
    proc = _python(fixture_dir, "-c", code, text=True, check=True)
    assert proc.stdout.split() == ["bicat_euler.bifib", "False"]


def test_process_exit_codes(fixture_dir):
    cases = [
        (["chi", "fixtures/bz2.catj"], 0, b"1/2\n"),
        (["check", "fixtures/acyclic2.catj", "pseudogroupoid"], 1, None),
        (["chi", "fixtures/negative/e005-syntax.catj"], 2, b""),
    ]
    for argv, code, out in cases:
        proc = _python(fixture_dir, "-m", "bicat_euler.cli", *argv)
        assert proc.returncode == code, (argv, proc.stderr)
        assert out is None or proc.stdout == out


def test_process_output_through_a_pipe_is_complete(fixture_dir, tmp_path):
    from bicat_euler.catdsl import serialize
    from bicat_euler.generators import gen_trihom

    argv = ["-m", "bicat_euler.cli", "gen", "trihom-psgrpd", "--size", "3"]
    piped = _python(fixture_dir, *argv)
    target = tmp_path / "trihom.catj"
    written = _python(fixture_dir, *argv, "--out", str(target))
    assert piped.returncode == 0 and written.returncode == 0
    assert piped.stdout == target.read_bytes()
    assert target.read_text(encoding="utf-8") == serialize(gen_trihom(0, 3))


def test_unexpected_exception_exits_3_with_traceback(capsys, fixture_dir, monkeypatch):
    from bicat_euler import fib1

    def broken(p):
        raise fib1.NonUniqueLift("two lifts")

    monkeypatch.setattr(fib1, "classify_fibration", broken)
    code, out, err = run(capsys, "check", str(fixture_dir / "ez2-to-bz2.catj"), "fibered")
    assert code == 3 and out == ""
    assert err.startswith("Traceback") and "NonUniqueLift: two lifts" in err
