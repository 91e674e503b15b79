import pytest

from jouanolou.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_normalize(capsys):
    code, out, _ = run(capsys, "normalize", "x*w")
    assert code == 0 and out.strip() == "y*z"


def test_normalize_accepts_w_and_fields(capsys):
    code, out, _ = run(capsys, "--field", "Fp=7", "normalize", "w^2 + 6")
    assert code == 0


def test_parse_error_exit_code(capsys):
    code, _, err = run(capsys, "normalize", "2*x +")
    assert code == 2 and "parse error" in err


def test_unknown_flag_rejected(capsys):
    code = main(["normalize", "--bogus", "x"])
    assert code == 2


def test_ideal_certificate(capsys):
    code, out, _ = run(
        capsys, "ideal", "--target", "1", "--gens", "2*x - 1, 2*y", "--with-relation"
    )
    assert code == 0
    assert "[2*x - 1]" in out and "x^2 - x + y*z" in out


def test_ideal_negative(capsys):
    code, out, _ = run(capsys, "ideal", "--target", "1", "--gens", "y, z", "--with-relation")
    assert code == 1 and "NOT-IN-IDEAL" in out


def test_resultant(capsys):
    code, out, _ = run(capsys, "resultant", "--pair", "z; x | 1; 0", "--degree", "1")
    assert code == 0 and out.strip() == "x"


def test_sum(capsys):
    code, out, _ = run(capsys, "sum", "row [2*x - 1; 2*y]", "row [2*x - 1; -2*y]")
    assert code == 0 and out.strip() == "row [1; 0]"


def test_act(capsys):
    code, out, _ = run(
        capsys, "act", "sl2 [2*x - 1; -2*z | 2*y; 2*x - 1]", "map 1 [1; 0 | 0; 1]"
    )
    assert code == 0
    assert out.strip() == "map 1 [2*x - 1; -2*z | 2*y; 2*x - 1]"


def test_oplus(capsys):
    code, out, _ = run(capsys, "oplus", "row [2*x - 1; 2*y]", "map 1 [1; 0 | 0; 1]")
    assert code == 0 and out.startswith("map 1 ")


def test_realize(capsys):
    code, out, _ = run(capsys, "realize", "map 1 [2*x - 1; -2*z | 2*y; 2*x - 1]")
    assert code == 0 and out.startswith("degree 3")


def test_k1mw(capsys):
    code, out, _ = run(capsys, "--field", "Fp=5", "k1mw", "--word", "[4]")
    assert code == 0 and "canonical residue 2 (mod 4)" in out


def test_decompose_verify_roundtrip(tmp_path, capsys):
    wfile = tmp_path / "w.txt"
    code, out, _ = run(
        capsys, "decompose", "map 1 [1; 1 | 0; 1]", "--witness-out", str(wfile)
    )
    assert code == 0
    recomposed = next(line for line in out.splitlines() if line.startswith("recomposed: "))
    start = recomposed[len("recomposed: ") :]
    code, out, _ = run(
        capsys,
        "verify-homotopy",
        str(wfile),
        "--from",
        start,
        "--to",
        "map 1 [1; 1 | 0; 1]",
    )
    assert code == 0 and out.strip() == "Valid"


def test_verify_homotopy_rejects_wrong_endpoint(tmp_path, capsys):
    wfile = tmp_path / "w.txt"
    run(capsys, "decompose", "map 1 [1; 1 | 0; 1]", "--witness-out", str(wfile))
    code, out, _ = run(
        capsys,
        "verify-homotopy",
        str(wfile),
        "--from",
        "map 1 [1; 0 | 0; 1]",
        "--to",
        "map 1 [1; 0 | 0; 1]",
    )
    assert code == 1 and "EndpointMismatch" in out


@pytest.mark.parametrize("body", ["segments\n", "segments abc\n", "segments 1\nsegment degree\n"])
def test_verify_homotopy_malformed_counts_are_parse_errors(tmp_path, capsys, body):
    wfile = tmp_path / "w.txt"
    wfile.write_text(f"jouanolou/v1 field=Q\n{body}")
    identity = "map 1 [1; 0 | 0; 1]"
    code, _, err = run(capsys, "verify-homotopy", str(wfile), "--from", identity, "--to", identity)
    assert code == 2 and err.startswith("parse error:")


def test_realize_refuses_zero_samples(capsys):
    code, out, err = run(capsys, "realize", "map 1 [1; 0 | 0; 1]", "--samples", "0")
    assert code == 2 and out == "" and "samples" in err


def test_selftest_filter(capsys):
    code, out, _ = run(capsys, "selftest", "--filter", "09")
    assert code == 0 and "PASS 09-k1-structure" in out


def test_selftest_realize_filter(capsys):
    code, out, _ = run(capsys, "selftest", "--filter", "realize")
    assert code == 0
    assert "07-realize-degrees" in out and "08-realize-additivity" in out
    assert "01-matrix-identity" not in out


def test_selftest_reports_failing_criterion_by_name():
    from jouanolou.selftest import run_criterion

    failures, _ = run_criterion("fake", lambda: ["broken invariant"], None)
    assert failures == ["broken invariant"]
    lines = []
    from jouanolou import selftest as st

    original = st.CRITERIA
    st.CRITERIA = [("99-injected", lambda: ["boom"], None)]
    try:
        ok = st.run_selftest(out=lines.append)
    finally:
        st.CRITERIA = original
    assert not ok and any("FAIL 99-injected" in ln for ln in lines)


def test_field_beyond_primality_bound_refused(capsys):
    # psi_12 passes Miller-Rabin to the bases 2..37 but is composite
    bad, _, _ = run(capsys, "--field", "Fp=4", "normalize", "x")
    code, _, err = run(capsys, "--field", "Fp=318665857834031151167461", "normalize", "x")
    assert code == bad != 0 and "NotPrimeField" in err


def test_budget_exhaustion_is_undecided(monkeypatch, capsys):
    monkeypatch.setenv("JOU_STEP_BUDGET", "1")
    code, out, err = run(
        capsys, "ideal", "--target", "1", "--gens", "2*x - 1, 2*y", "--with-relation"
    )
    assert code == 3 and out.strip() == "Undecided" and "BudgetExceeded" in err
