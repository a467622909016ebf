"""Command-line front end: exit codes, determinism, catalog overrides."""

import hashlib
import json
import os
import subprocess
import sys
import time

import pytest

from jetcalc.cli import EX_BUDGET, EX_INTEGRITY, EX_OK, EX_USAGE, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def exit_code(capsys, *argv):
    """main's return value, or the code it exits with, and its stderr."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    return code, capsys.readouterr().err


def test_usage_errors(capsys):
    code, _, _ = run_cli(capsys, "derive", "--n", "0", "--kappa", "3")
    assert code == EX_USAGE
    code, _, _ = run_cli(capsys, "verify", "--catalog", "NOPE")
    assert code == EX_USAGE
    code, _, _ = run_cli(capsys, "chi", "--target", "schur")
    assert code == EX_USAGE


@pytest.mark.parametrize("argv", [
    ("chi",),
    ("chi", "--target", "E45"),
    ("derive", "--n", "x", "--kappa", "3"),
    ("derive", "--n", "2", "--kappa", "3", "--budget-steps", "0"),
    ("derive", "--n", "2", "--kappa", "3", "--budget-steps", "-5"),
    ("derive", "--n", "2", "--kappa", "3", "--budget-steps", "x"),
    ("derive", "--n", "2", "--kappa", "3", "--budget-seconds", "-1"),
    ("derive", "--n", "2", "--kappa", "3", "--budget-seconds", "0"),
    ("derive", "--n", "2", "--kappa", "3", "--budget-seconds", "nan"),
    ("chi", "--target", "E44", "--jobs", "-3"),
    ("chi", "--target", "E44", "--jobs", "0"),
    ("chi", "--target", "schur", "--ell", "5,x"),
    ("chi", "--target", "schur", "--ell", "5,,3"),
    ("chi", "--target", "schur", "--ell", "3,5"),
    ("nosuchcommand",),
    ("verify", "--catalog", "E2k2", "--no-such-flag"),
], ids=" ".join)
def test_bad_command_lines_exit_with_the_usage_code(capsys, argv):
    """Never argparse's 2, which is the budget code, and never a traceback:
    one line on stderr."""
    code, err = exit_code(capsys, *argv)
    assert code == EX_USAGE
    assert err.count("\n") == 1 and "Traceback" not in err


def test_help_and_version_exit_zero(capsys):
    assert exit_code(capsys, "--help")[0] == EX_OK
    assert exit_code(capsys, "chi", "--help")[0] == EX_OK
    assert exit_code(capsys, "--version")[0] == EX_OK


def test_derive_small_and_deterministic(capsys):
    code, out1, _ = run_cli(capsys, "derive", "--n", "2", "--kappa", "3")
    assert code == EX_OK
    doc = json.loads(out1)
    assert doc["terminated"] and len(doc["generators"]) == 5
    assert len(doc["syzygies"]) == 1
    code, out2, _ = run_cli(capsys, "derive", "--n", "2", "--kappa", "3")
    assert out1 == out2  # byte-identical report for identical config


def test_derive_report_independent_of_hash_seed():
    """Two interpreters with different string hashing print the same bytes,
    so no report depends on set or dict order over hashed keys."""
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    outs = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-m", "jetcalc.cli", "derive", "--n", "2",
                               "--kappa", "3"], env=env, capture_output=True, timeout=120)
        assert proc.returncode == EX_OK, proc.stderr
        outs.append(proc.stdout)
    assert outs[0] == outs[1] and json.loads(outs[0])["terminated"]


@pytest.mark.parametrize("argv, code, digest", [
    (("--n", "2", "--kappa", "3"), EX_OK,
     "6560edaa6722665fe387987d01c140ecc311a0cfef676a88328f0dd00766dc7d"),
    (("--n", "2", "--kappa", "3", "--order", "lex"), EX_OK,
     "6d1151db4ee751691fb7798a8daa3a44e414779ca81d1c237e649cea43a29e3a"),
    (("--n", "2", "--kappa", "4"), EX_OK,
     "dd39a8e6917c3fd309a0f64fee60a88d33b3ef6854210bb49290f0b43e97a265"),
    (("--n", "2", "--kappa", "4", "--budget-steps", "3000"), EX_BUDGET,
     "7181feb477dce8581ab17f2b02aec7f35a427da33c072fd8cf760274d809d671"),
    (("--n", "3", "--kappa", "3", "--mode", "bi"), EX_OK,
     "dddeaf3e8db9e65bd9c3773a723326202e24d6ed43f6584492154490eb74e07e"),
    (("--n", "2", "--kappa", "5", "--mode", "bi", "--budget-steps", "50000"), EX_BUDGET,
     "dae50e84455e20937df2b19230dedceef54d2484f33363c3f263ac6d9b5e3500"),
], ids=["e23", "e23-lex", "e24", "e24-budget-3000", "ue33-bi", "ue25-bi-budget-50000"])
def test_derive_report_digest_pinned(capsys, argv, code, digest):
    """The derive reports (E23, E23 lex, E24, E24 cut by the step budget,
    UE33 bi-invariant, UE25 bi-invariant cut by the step budget after the
    second loop's membership), byte for byte."""
    got, out, _ = run_cli(capsys, "derive", *argv)
    assert got == code
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("argv, digest", [
    (("--target", "E43", "--with-h2"),
     "276d028ddc035c6552149dda07dd5e7a01d3dd803665dfd296d68b63c0d80f85"),
    (("--target", "rousseau-E33"),
     "116639d4bef358d6a6aee1192cfb9c6c2cd4c9511e7b51ae6a08ec5e22eae2ae"),
    (("--target", "schur", "--ell", "5,3,1"),
     "50186dbb0813ff1b1304b538c33fe563386e6594cbb672c928f20e2ef6638aa5"),
    (("--target", "schur", "--ell", "5,3,1", "--tangent"),
     "4b79cf1b97d4caebae17aac994fa6e4255953dbe143332a9cf50d9d0b3039f3e"),
    (("--target", "schur", "--ell", "6,4,2,1"),
     "04d6f5b8af1b04b1268637ff0d0c33ac0f15d394a44e89b8bfb79c5814e36e68"),
], ids=["e43-h2", "rousseau-e33", "schur-531", "schur-531-tangent", "schur-6421"])
def test_chi_report_digest_pinned(capsys, argv, digest):
    """The chi reports of E43 with the h^2 majorant, of Rousseau's E33 and of
    three Schur bundles, approximate roots included, byte for byte."""
    got, out, _ = run_cli(capsys, "chi", *argv)
    assert got == EX_OK
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("catalog, digest", [
    ("E2k2", "1bdafe991e75749899cdf25f97d73f99b46a9c6a11c26471d786c0216229961f"),
    ("E2k3", "467a8cb524a49cc5ca22e25054b842eb556524a92e3282f31a55ddfa82c6fc06"),
    ("E2k4", "b24e963c25d9f5541e4e1cef77c7089a122567e0d318e08367f88d1a11e3c336"),
    ("E2k5", "4a94060589ff37f33d04b0ce55f6b762c3c5a2b1a40b3121b7398cef029252ce"),
    ("UE2k5", "dc299ebbfc1b08489dfb6fb90d1951e4ff305aeddeb7b7b53dec5450dc5eeb30"),
    ("E3k3", "e99e28d2bf7c597d308ffc05f9d2b91db9bb1afd516dc1f15ad6cdf02a289873"),
    ("UE3k3", "99b9362c9c0b351c7a79ec291e9f3149cfc94ba1db81a09da6c5772754ade0fc"),
    ("UE3k4", "f86afe113077cd09ff5efeb65ce5e9eb0b38db6ab561440b3fb337a3570ed40c"),
    ("UE4k4", "0c5965de90a488a3f9130b8b5ff459bb293bc7eaa66ffd08d688fc084f148b7d"),
])
def test_verify_report_digest_pinned(capsys, catalog, digest):
    """The verify report of every bundled catalog (pass counts, largest
    intermediate term counts and integrity issues), byte for byte."""
    got, out, _ = run_cli(capsys, "verify", "--catalog", catalog)
    assert got == EX_OK
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_derive_bi_mode(capsys):
    code, out, _ = run_cli(capsys, "derive", "--n", "3", "--kappa", "3",
                           "--mode", "bi")
    assert code == EX_OK
    doc = json.loads(out)
    assert doc["terminated"] and len(doc["generators"]) == 4
    assert doc["syzygies"] == []


def test_derive_budget_exhaustion(capsys):
    code, out, _ = run_cli(capsys, "derive", "--n", "2", "--kappa", "4",
                           "--budget-steps", "60")
    assert code == EX_BUDGET
    doc = json.loads(out)
    assert doc["terminated"] is False


def test_derive_budget_seconds(capsys):
    start = time.monotonic()
    code, out, _ = run_cli(capsys, "derive", "--n", "2", "--kappa", "4",
                           "--budget-seconds", "0.001")
    assert code == EX_BUDGET
    assert time.monotonic() - start < 5
    assert json.loads(out)["terminated"] is False


def test_derive_budget_gate_stops_the_ambitious_run(capsys):
    """(3, 4, bi) runs far past 2 s; the deadline must stop it within a
    second of the budget, whichever loop it is in."""
    start = time.monotonic()
    code, out, _ = run_cli(capsys, "derive", "--n", "3", "--kappa", "4", "--mode", "bi",
                           "--budget-seconds", "2")
    elapsed = time.monotonic() - start
    assert code == EX_BUDGET
    assert "time budget exhausted" in json.loads(out)["transcript"][-1]
    assert elapsed < 2 + 1, f"{elapsed:.2f}s for a 2 s budget"


def test_verify_pass(capsys):
    code, out, _ = run_cli(capsys, "verify", "--catalog", "E2k4")
    assert code == EX_OK
    doc = json.loads(out)
    assert doc["syzygy_sets"]["fundamental"]["passed"] == 9
    assert doc["integrity_issues"] == []


def test_verify_corrupted_fixture(tmp_path, capsys, monkeypatch):
    from jetcalc.catalog import catalog_to_json, load_catalog

    doc = catalog_to_json(load_catalog("E2k3"))
    # corrupt one syzygy remainder but keep the checksum consistent
    doc["syzygies"]["fundamental"][0]["R"] = "2 * t:L5b"
    del doc["checksum"]
    from jetcalc.catalog import catalog_checksum

    doc["checksum"] = catalog_checksum(doc)
    path = tmp_path / "E2k3.json"
    path.write_text(json.dumps(doc))
    monkeypatch.setenv("JETCALC_CATALOG_DIR", str(tmp_path))
    code, out, _ = run_cli(capsys, "verify", "--catalog", "E2k3")
    assert code == EX_INTEGRITY
    report = json.loads(out)
    assert report["syzygy_sets"]["fundamental"]["failing"] == ["E2k3.1"]


def _tag_nope(doc):
    doc["syzygies"]["fundamental"][0]["S"] += " + t:Nope"


def _no_f1_entry(doc):
    doc["entries"][0]["name"] = "g1"  # no syzygy names f1, but nu needs it


def _negative_nu(doc):
    doc["syzygies"]["fundamental"][0]["nu"] = -1


def _zero_denominator(doc):
    doc["entries"][2]["polynomial"][0][2] = "0"


def _zero_numerator(doc):
    doc["entries"][2]["polynomial"][0][1] = "0"


def _zero_exponent(doc):
    doc["entries"][0]["polynomial"][0][0] = {"f[1]'": 0}


def _negative_exponent(doc):
    doc["entries"][0]["polynomial"][0][0] = {"f[1]'": -1}


@pytest.mark.parametrize("corrupt", [_tag_nope, _no_f1_entry, _negative_nu, _zero_denominator,
                                     _zero_numerator, _zero_exponent, _negative_exponent],
                         ids=lambda f: f.__name__[1:])
def test_verify_malformed_checksummed_catalog(tmp_path, capsys, monkeypatch, corrupt):
    """A checksummed override that cannot be a catalog is a usage error: one
    stderr line, never a traceback, and not an integrity failure."""
    from jetcalc.catalog import catalog_checksum, catalog_to_json, load_catalog

    doc = catalog_to_json(load_catalog("E2k3"))
    corrupt(doc)
    del doc["checksum"]
    doc["checksum"] = catalog_checksum(doc)
    (tmp_path / "E2k3.json").write_text(json.dumps(doc))
    monkeypatch.setenv("JETCALC_CATALOG_DIR", str(tmp_path))
    code, err = exit_code(capsys, "verify", "--catalog", "E2k3")
    assert code == EX_USAGE
    assert err.count("\n") == 1 and "cannot load catalog" in err


def test_chi_rousseau(capsys):
    code, out, _ = run_cli(capsys, "chi", "--target", "rousseau-E33")
    assert code == EX_OK
    doc = json.loads(out)
    assert doc["chi_m9_coefficient"]["numerator_coefficients"] == \
        ["0", "-358873", "185559", "-20739", "389"]
    assert doc["positivity_threshold"] == 43


def test_chi_schur_single(capsys):
    code, out, _ = run_cli(capsys, "chi", "--target", "schur", "--ell", "5,3,1")
    assert code == EX_OK
    doc = json.loads(out)
    assert doc["ell"] == [5, 3, 1] and doc["dual"] is True
    code, out2, _ = run_cli(capsys, "chi", "--target", "schur", "--ell", "1,3,5")
    assert code == EX_USAGE


def test_text_format_and_output_file(tmp_path, capsys):
    out_path = tmp_path / "report.txt"
    code, out, _ = run_cli(capsys, "chi", "--target", "rousseau-E33",
                           "--format", "text", "--out", str(out_path))
    assert code == EX_OK and out == ""
    text = out_path.read_text()
    assert "positivity_threshold: 43" in text


def test_chi_e44_ignores_jobs(capsys):
    code, out1, _ = run_cli(capsys, "chi", "--target", "E44", "--jobs", "1")
    assert code == EX_OK
    code, out3, _ = run_cli(capsys, "chi", "--target", "E44", "--jobs", "3")
    assert code == EX_OK
    assert out1 == out3
    assert json.loads(out1)["positivity_threshold"] == 96
    # the whole report, approximate roots included, byte for byte
    assert hashlib.sha256(out1.encode()).hexdigest() == \
        "1d4fb7265f412719e5ee73ee626a5ec50d336192e1352cb5701e8912042b3421"
