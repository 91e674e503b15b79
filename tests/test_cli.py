import hashlib

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


@pytest.mark.parametrize("field", ["Fp=abc", "Fp="])
def test_malformed_field_is_a_parse_error(capsys, field):
    code, _, err = run(capsys, "--field", field, "normalize", "x")
    assert code == 2 and "parse error" in err and "Q or Fp=<prime>" in err


def test_text_after_a_map_literal_is_a_parse_error(capsys):
    code, out, err = run(capsys, "oplus", "map 1 [1; 0 | 0; 1] zzz", "map 1 [1; 0 | 0; 1]")
    assert code == 2 and out == ""
    assert "parse error" in err and "end of input" in err


def test_malformed_numbers_are_parse_errors(capsys):
    code, _, err = run(capsys, "oplus", "map x [1; 0 | 0; 1]", "map 1 [1; 0 | 0; 1]")
    assert code == 2 and "parse error" in err and "expected an integer" in err
    for word in ("[abc]", "[1_000]"):
        code, _, err = run(capsys, "--field", "Fp=5", "k1mw", "--word", word)
        assert code == 2 and "parse error" in err and "<int> or <int>/<int>" in err


def test_a_degree_zero_map_literal_is_a_parse_error(capsys):
    code, out, err = run(capsys, "oplus", "map 0 [1; 0 | 0; 1]", "map 1 [1; 0 | 0; 1]")
    assert code == 2 and out == ""
    assert err.startswith("parse error:") and "row [A; B]" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("resultant", "--pair", "1; 0 | 0; 1", "--degree", "\u0661"),
        ("realize", "map 1 [1; 0 | 0; 1]", "--samples", "4_096"),
    ],
)
def test_integer_options_take_ascii_digits_only(capsys, argv):
    code, out, _ = run(capsys, *argv)
    assert code == 2 and out == ""


def test_denominator_divisible_by_p_exits_like_zero_denominator(capsys):
    code, _, err = run(capsys, "--field", "Fp=7", "normalize", "1/7*x")
    zero_code, _, zero_err = run(capsys, "--field", "Fp=7", "normalize", "1/0*x")
    assert code == zero_code == 1
    assert err.startswith("DivisionByZero") and zero_err.startswith("DivisionByZero")


def test_unknown_flag_rejected(capsys):
    code = main(["normalize", "--bogus", "x"])
    assert code == 2


def test_ideal_certificate(capsys):
    code, out, _ = run(
        capsys, "ideal", "--target", "1", "--gens", "2*x - 1, 2*y", "--with-relation"
    )
    assert code == 0
    assert "[2*x - 1]" in out and "x^2 - x + y*z" in out


@pytest.mark.parametrize(
    "field, sha1",
    [
        ("Q", "6b7a18890746fa62273278bf8f642174247c9dda"),
        ("Fp=7", "dfc298edeb4a39f2de97b2547fcf3fbb7c7a10ef"),
    ],
)
def test_ideal_certificate_text_is_pinned(capsys, field, sha1):
    """The printed cofactors of a three-generator problem whose completion
    runs S-pair reductions and a multi-level expansion, byte for byte."""
    code, out, _ = run(
        capsys, "--field", field, "ideal", "--target", "1",
        "--gens", "x*y + 2*z - 1, y^2 - z, x - 3*z^2", "--with-relation",
    )
    assert code == 0
    assert hashlib.sha1(out.encode()).hexdigest() == sha1


@pytest.mark.parametrize(
    "field, sha1",
    [
        ("Q", "d8839028285cc1a169108308d277272057c3f3e4"),
        ("Fp=7", "fc05d5f63bdc73877d1527947296b54ef16f1821"),
    ],
)
def test_oplus_text_is_pinned(capsys, field, sha1):
    """The printed sum of a degree-2 and a degree-(-1) map, byte for byte."""
    code, out, _ = run(
        capsys, "--field", field, "oplus", "map 2 [1; 0 | 0; 1]", "map -1 [1; 0 | 0; 1]"
    )
    assert code == 0
    assert hashlib.sha1(out.encode()).hexdigest() == sha1


def test_ideal_negative(capsys):
    code, out, _ = run(capsys, "ideal", "--target", "1", "--gens", "y, z", "--with-relation")
    assert code == 1 and "NOT-IN-IDEAL" in out


def test_resultant(capsys):
    code, out, _ = run(capsys, "resultant", "--pair", "z; x | 1; 0", "--degree", "1")
    assert code == 0 and out.strip() == "x"


@pytest.mark.parametrize("field, want", [("Q", "-29"), ("Fp=7", "6")])
def test_resultant_of_a_pair_with_a_vanishing_top(capsys, field, want):
    # an 8x8 Sylvester matrix of constants whose elimination needs a row swap
    pair = "1; 2; 0; 3; 1 | 2; 0; 1; 1; 0"
    code, out, _ = run(capsys, "--field", field, "resultant", "--pair", pair, "--degree", "4")
    assert code == 0 and out.strip() == want


@pytest.mark.parametrize(
    "field, want",
    [("Q", "y^2*z - 2*x*z - y*z + z^2 + x"), ("Fp=7", "y^2*z + 5*x*z + 6*y*z + z^2 + x")],
)
def test_resultant_of_a_symbolic_pair(capsys, field, want):
    # a 4x4 Sylvester matrix with entries in x, y, z: Bareiss
    pair = "x; y; 1 | z; 0; 1"
    code, out, _ = run(capsys, "--field", field, "resultant", "--pair", pair, "--degree", "2")
    assert code == 0 and out.strip() == want


@pytest.mark.parametrize(
    "field, want",
    [
        ("Q", "x*y^4*z + y^5*z - 3*y^3*z^2 + 4*x*y^2*z - 3*x*y*z^2 + y^2*z - 2*y*z^2 + z^3 - y*z + x"),
        ("Fp=7", "x*y^4*z + y^5*z + 4*y^3*z^2 + 4*x*y^2*z + 4*x*y*z^2 + y^2*z + 5*y*z^2 + z^3 + 6*y*z + x"),
    ],
)
def test_resultant_of_a_six_row_symbolic_pair(capsys, field, want):
    # the same outputs the subset pass gave before the division-free routes
    pair = "x; y; 0; 1 | z; 0; 1; y"
    code, out, _ = run(capsys, "--field", field, "resultant", "--pair", pair, "--degree", "3")
    assert code == 0 and out.strip() == want


@pytest.mark.parametrize(
    "field, degree, pair, want",
    [
        ("Q", "4", "x; y; 0; 1; z | z; 0; 1; y; x*y", "772f2fc761cc1d1b0b83b0756b33b3423e895b65"),
        ("Fp=7", "4", "x; y; 0; 1; z | z; 0; 1; y; x*y", "8a7e2681a62771cc02cd5313a9c7d74fb4cfdcc5"),
        ("Q", "6", "x; y; 0; 1; z; w; 2 | z; 0; 1; y; x; 3; w", "6bef16a473a151123fa0ef29f828caf201e6b940"),
        ("Fp=7", "6", "x; y; 0; 1; z; w; 2 | z; 0; 1; y; x; 3; w", "f3306c6d555d713bd4e20d3f047611e9aa2bd7d1"),
    ],
)
def test_resultant_of_eight_and_twelve_row_symbolic_pairs(capsys, field, degree, pair, want):
    # sha1 of the printed resultants Berkowitz gave, as the CI step pins them
    code, out, _ = run(capsys, "--field", field, "resultant", "--pair", pair, "--degree", degree)
    assert code == 0 and hashlib.sha1(out.encode()).hexdigest() == want


def test_sum(capsys):
    code, out, _ = run(capsys, "sum", "row [2*x - 1; 2*y]", "row [2*x - 1; -2*y]")
    assert code == 0 and out.strip() == "row [1; 0]"
    # words between the keyword and the bracket are a parse error
    code, out, err = run(capsys, "sum", "row junk words [1; 0]", "row [1; 0]")
    assert code == 2 and out == "" and "row [A; B]" in err


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
    # the residual's digits too: the same line the CI checks on the installed script
    assert code == 0 and out == "degree 3 (residual 1.33e-15)\n"


def test_k1mw(capsys):
    code, out, _ = run(capsys, "--field", "Fp=5", "k1mw", "--word", "[4]")
    assert code == 0 and "canonical residue 2 (mod 4)" in out
    # blanks between symbols are allowed
    code, out, _ = run(capsys, "--field", "Fp=7", "k1mw", "--word", "[2] [3]")
    assert code == 0
    assert out == "canonical residue 3 (mod 6)\nrow [3*y*z + 2*x + 6; x*y + 2*y]\n"


@pytest.mark.parametrize("word", ["[2]junk[3]", "x[2]", "[2]]"])
def test_k1mw_refuses_text_outside_the_symbols(capsys, word):
    code, out, err = run(capsys, "--field", "Fp=7", "k1mw", "--word", word)
    assert code == 2 and out == ""
    assert 'word must look like "[u1][u2]..."' in err


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


def test_a_degree_past_the_engine_field_is_undecided(capsys):
    code, out, err = run(capsys, "ideal", "--target", "1", "--gens", "x^4294967296")
    assert code == 3 and out.strip() == "Undecided" and "DegreeOverflow" in err


@pytest.mark.parametrize("value", ["abc", "-1", "2.5", "1_0", "\u0661"])
def test_malformed_step_budget_is_a_usage_error(monkeypatch, capsys, value):
    monkeypatch.setenv("JOU_STEP_BUDGET", value)
    code, out, err = run(capsys, "ideal", "--gens", "x, y", "--target", "x*y+x")
    assert code == 2 and out == ""
    assert "JOU_STEP_BUDGET" in err and repr(value) in err and "Undecided" not in err
