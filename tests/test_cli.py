"""End-to-end CLI: outputs, exit codes, determinism."""

import json
import os
import subprocess
import sys

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


def test_bad_exponent_is_input_error(capsys, negative_dir):
    code, _, err = run(capsys, "chi", str(negative_dir / "e005-bad-exponent.catj"))
    assert code == 2 and "7:12 E005 malformed number" in err and "Traceback" not in err


def test_non_utf8_file_is_input_error(capsys, tmp_path):
    path = tmp_path / "latin1.catj"
    path.write_bytes('{"kind": "category", "objects": ["\u00e9"]}'.encode("latin-1"))
    code, _, err = run(capsys, "chi", str(path))
    assert code == 2 and err.startswith(f"{path}: ") and "utf-8" in err and "Traceback" not in err


def test_check_fib_groupoids(capsys, fixture_dir):
    code, out, _ = run(capsys, "check", str(fixture_dir / "ez2-to-bz2.catj"), "fib-groupoids")
    assert code == 0 and out.strip() == "pass"


def test_check_acyclic_span(capsys, fixture_dir):
    code, out, _ = run(capsys, "check", str(fixture_dir / "span.catj"), "acyclic")
    assert code == 0 and out.strip() == "pass"


def test_check_pseudogroupoid_fails_with_witness(capsys, fixture_dir):
    code, out, _ = run(capsys, "check", str(fixture_dir / "acyclic2.catj"), "pseudogroupoid")
    assert code == 1 and "non_invertible_2cell" in out and "a2" in out


def test_check_biequivalence_fixture(capsys, fixture_dir):
    code, out, _ = run(capsys, "check", str(fixture_dir / "psg-collapse.catj"), "fib-pseudogroupoids")
    assert code == 0 and out.strip() == "pass"


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


def test_cli_import_loads_no_thread_pool(fixture_dir):
    # The bifibration sweep is serial: on a GIL build a thread pool gave it no speedup.
    code = "import bicat_euler.cli, sys; print('concurrent.futures' in sys.modules)"
    env = dict(os.environ, PYTHONPATH="src")
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=fixture_dir.parent, env=env, capture_output=True, text=True, check=True
    )
    assert proc.stdout.strip() == "False"
