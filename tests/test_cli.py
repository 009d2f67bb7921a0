"""Command-line interface: subcommands, exit codes, machine output."""

import json
import os
import pathlib
import re
import shlex
import subprocess
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ordgen
from ordgen import cli, counting
from ordgen.cli import main, parse_algebra
from ordgen.counting import gen_count_exact
from ordgen.errors import CapExceeded, OrdgenError
from ordgen.finfield import factorize
from ordgen.solver import DENSITY_BITS

DATA = pathlib.Path(__file__).parent / "data"
README = pathlib.Path(__file__).parent.parent / "README.md"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def machine_roundtrips(blob):
    return json.dumps(json.loads(blob), sort_keys=True, separators=(",", ":")) == blob.strip()


# ---------------------------------------------------------------- count


def test_count_matrix_pairs(capsys):
    code, out, _ = run(capsys, "count", "--k", "2", "--n", "2", "--q", "2")
    assert code == 0
    assert out.strip() == "96"


def test_count_twisted_extension(capsys):
    code, out, _ = run(capsys, "count", "--k", "2", "--n", "1", "--q", "2", "--r", "2")
    assert code == 0
    assert out.strip() == "12"


def test_count_single_generator_of_matrix_block_is_zero(capsys):
    code, out, _ = run(capsys, "count", "--k", "1", "--n", "2", "--q", "7")
    assert code == 0
    assert out.strip() == "0"


def test_count_copies_use_power_formula(capsys):
    code, out, _ = run(capsys, "count", "--k", "2", "--n", "2", "--q", "2", "--m", "2")
    assert code == 0
    assert out.strip() == "8640"


def test_count_large_rank_prints_lower_bound(capsys):
    # n >= 4 once printed a lower bound; it prints the exact count now.
    code, out, _ = run(capsys, "count", "--k", "2", "--n", "4", "--q", "2")
    assert code == 0
    assert out.strip() == "2745630720"


def test_count_exact_mode_refuses_large_rank(capsys):
    # --exact once refused n >= 4 with exit 3; it is accepted and changes nothing.
    code, out, err = run(capsys, "count", "--k", "3", "--n", "4", "--q", "2", "--exact")
    assert code == 0
    assert out.strip() == "265052207185920"
    assert err == ""


@pytest.mark.parametrize(
    "argv,value",
    [
        (("--k", "8192", "--n", "1", "--q", "2"), lambda: 2**8192),
        (("--k", "2", "--n", "64", "--q", "2"), lambda: gen_count_exact(2, 64, 2)),
        (("--k", "1", "--n", "2", "--q", "2", "--r", "1024", "--m", "2"), lambda: 0),
    ],
)
def test_count_at_the_size_limit_prints(capsys, argv, value):
    code, out, err = run(capsys, "count", *argv)
    assert code == 0
    assert err == ""
    assert out.strip() == str(value())


@pytest.mark.parametrize(
    "argv,required",
    [
        (("--k", "8193", "--n", "1", "--q", "2"), "2^8193"),
        (("--k", "2", "--n", "65", "--q", "2"), "2^8450"),
        (("--k", "2", "--n", "2", "--q", "3", "--r", "2", "--m", "324"), "3^5184"),
        (("--k", "2", "--n", "100000", "--q", "2"), "2^20000000000"),
    ],
)
def test_count_beyond_the_size_limit_is_refused(capsys, argv, required):
    start = time.perf_counter()
    code, out, err = run(capsys, "count", *argv)
    assert time.perf_counter() - start < 0.1
    assert code == 4
    assert out == ""
    assert err == f"error: request needs {required} tuples, budget is 2^8192\n"


def test_count_rejects_non_prime_power(capsys):
    assert run(capsys, "count", "--k", "2", "--n", "2", "--q", "6") == (2, "", "error: q=6 is not a prime power\n")


BIG_PRIME = 10**30 + 57


@pytest.mark.parametrize(
    "argv,err",
    [
        (
            ("oracle", "--alg", f"M(2,{BIG_PRIME})", "--k", "1"),
            f"error: {BIG_PRIME} exceeds the cap 1048576\n",
        ),
        (
            ("count", "--k", "1", "--n", "1", "--q", str(BIG_PRIME)),
            f"error: q={BIG_PRIME} is not decided: the prime-power test is proven only for bases "
            "below 3317044064679887385961981\n",
        ),
    ],
    ids=["oracle", "count"],
)
def test_large_prime_q_is_refused_at_once(argv, err):
    """Trial division of q = 10^30 + 57 never finished; both commands now refuse it at once."""
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(ordgen.__file__).parent.parent))
    proc = subprocess.run(
        [sys.executable, "-m", "ordgen.cli", *argv], capture_output=True, text=True, env=env, timeout=20
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", err)


M61 = 2**61 - 1


@pytest.mark.parametrize(
    "argv,code,err",
    [
        (
            ("analyze", "--spec", "{m61_spec}"),
            4,
            f"error: request needs {2**61} sieve entries, budget is 67108864\n",
        ),
        (
            ("quaternion", "--ramified", str(BIG_PRIME), "--mmax", "1"),
            2,
            f"error: {BIG_PRIME} is not decided: the primality test is proven only below 3317044064679887385961981\n",
        ),
        (
            ("quaternion", "--ramified", "1000000000000000000000007", "--mmax", "100"),
            2,
            "error: the cutoff q0 = 1000000000000000000000008 is not certified: its sweep up to about 4*q0 "
            "passes 3317044064679887385961981, the limit of the primality test\n",
        ),
    ],
    ids=["analyze-M61", "quaternion-big", "quaternion-sweep"],
)
def test_large_primes_end_at_once(tmp_path, argv, code, err):
    """Each ends at once with a typed error: no prime is trial-divided, and the verdict's sieve stops at the budget."""
    doc = json.loads((DATA / "quat2.json").read_text())
    doc["factors"][0]["local_indices"] = {str(M61): [2]}
    spec = tmp_path / "m61.json"
    spec.write_text(json.dumps(doc))
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(ordgen.__file__).parent.parent))
    env.pop("ORDGEN_BUDGET", None)
    proc = subprocess.run(
        [sys.executable, "-m", "ordgen.cli", *(arg.format(m61_spec=spec) for arg in argv)],
        capture_output=True, text=True, env=env, timeout=20,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, "", err)


NINES = "9" * 4300  # the most digits Python reads or writes by default


@pytest.mark.parametrize("optimise", [False, True], ids=["plain", "-O"])
@pytest.mark.parametrize(
    "argv,code,err",
    [
        (
            ("oracle", "--alg", f"M({10**1500},2)", "--k", "1", "--samples", "1", "--seed", "1"),
            4,
            f"error: request needs {10**3000}^3 table entries, budget is 67108864\n",
        ),
        (
            ("oracle", "--alg", f"M({10**2200},2)", "--k", "1"),
            4,
            "error: request needs more than 2^8192 tuples, budget is 67108864\n",
        ),
        (
            ("count", "--k", "1", "--n", str(10**2200), "--q", "2"),
            4,
            "error: request needs more than 2^8192 tuples, budget is 2^8192\n",
        ),
        (
            ("density", "--spec", str(DATA / "zi.json"), "--k", "2", "--bound", NINES),
            4,
            "error: request needs more than 2^8192 sieve entries, budget is 67108864\n",
        ),
        (
            ("oracle", "--alg", f"TW(q=2,f={10**3000},m={10**2000})", "--k", "1"),
            2,
            "error: more than 2^8192 exceeds the cap 1048576\n",
        ),
        (
            ("density", "--spec", "{zi_copies}", "--k", "3", "--bound", "30"),
            2,
            "error: bound 30 is below the tail-validity threshold more than 2^8192\n",
        ),
        (
            ("analyze", "--spec", "{z_override}"),
            2,
            "error: override rows at p=2 have total dimension more than 2^8192, expected 1\n",
        ),
    ],
    ids=["table-entries", "tuple-exponent", "count-exponent", "sieve-bound", "prime-power", "tail-floor", "override"],
)
def test_sizes_past_the_digit_limit_are_refused_in_one_line(tmp_path, argv, code, err, optimise):
    """Each refusal holds a size with more digits than Python writes; it is written as a power or a fixed phrase."""
    zi = json.loads((DATA / "zi.json").read_text())
    zi["factors"][0]["copies"] = int(NINES)
    z = json.loads((DATA / "z.json").read_text())
    z["overrides"] = {"2": [[10**3000, 1, 1, 1]]}
    specs = {"zi_copies": tmp_path / "zi_copies.json", "z_override": tmp_path / "z_override.json"}
    specs["zi_copies"].write_text(json.dumps(zi))
    specs["z_override"].write_text(json.dumps(z))
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(ordgen.__file__).parent.parent))
    env.pop("ORDGEN_BUDGET", None)
    flags = ["-O"] if optimise else []
    proc = subprocess.run(
        [sys.executable, *flags, "-m", "ordgen.cli", *(arg.format(**specs) for arg in argv)],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, "", err)
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "argv,out",
    [
        (
            ("quaternion", "--ramified", "100000007", "--mmax", "1"),
            "quaternion order ramified at {100000007}, m = 1..1\n\n    h  copies\n    2  m = 1\n",
        ),
        (
            ("quaternion", "--ramified", "10000019", "--mmax", "1000"),
            "quaternion order ramified at {10000019}, m = 1..1000\n\n    h  copies\n"
            "    2  1 <= m <= 16\n    3  17 <= m <= 448\n    4  449 <= m <= 1000\n",
        ),
    ],
    ids=["1e8", "1e7-mmax1000"],
)
def test_quaternion_at_a_large_ramified_prime_answers(argv, out):
    """The table looks only at the primes below the shape thresholds and the ramified ones, so no sieve reaches p."""
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(ordgen.__file__).parent.parent))
    env.pop("ORDGEN_BUDGET", None)
    proc = subprocess.run(
        [sys.executable, "-m", "ordgen.cli", *argv], capture_output=True, text=True, env=env, timeout=20
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, out, "")


def test_degree_pattern_at_a_large_prime_returns_at_once():
    code = (
        "import time\n"
        "from ordgen.orderspec import degree_pattern\n"
        "start = time.perf_counter()\n"
        f"pattern = degree_pattern((2, 0, 0, 1), {M61})\n"
        "print(pattern.pairs, pattern.certified, time.perf_counter() - start < 1)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(ordgen.__file__).parent.parent))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=20)
    # p = 1 mod 3, and -2 is a cube mod p by Euler's criterion, so x^3 + 2 has three roots
    assert M61 % 3 == 1 and pow(-2 % M61, (M61 - 1) // 3, M61) == 1
    assert proc.stdout == "((1, 1), (1, 1), (1, 1)) True True\n", proc.stderr


def test_prime_power_test_matches_factoring_below_20000():
    for q in range(20000):
        assert cli._is_prime_power(q) == (q >= 2 and len(factorize(q)) == 1), q


@pytest.mark.parametrize(
    "q,want",
    [
        (3215031751, False),  # a strong pseudoprime to the bases 2, 3, 5 and 7
        (318665857834031151167461, False),  # a strong pseudoprime to every base up to 37
        (2**61 - 1, True),
        ((2**61 - 1) ** 2, True),  # above 2^64: trial division would not finish
        (2**81, True),
        (10**24 + 7, True),
        (3**5000, True),  # above the test's limit, with a prime base below it
        (6**3000, False),  # above the limit, with a composite base
    ],
    ids=["psp-2-7", "psp-2-37", "M61", "M61^2", "2^81", "10^24+7", "3^5000", "6^3000"],
)
def test_prime_power_test_at_large_q(q, want):
    assert cli._is_prime_power(q) is want


@pytest.mark.parametrize(
    "q",
    [cli.PRIME_TEST_LIMIT, cli.PRIME_TEST_LIMIT**2, BIG_PRIME, 7**2900 * 2],
    ids=["limit", "limit^2", "big", "2*7^2900"],
)
def test_prime_power_test_refuses_bases_past_its_limit(q):
    """The limit is itself a strong pseudoprime to every base up to 41, so the test cannot decide it."""
    with pytest.raises(CapExceeded, match="is not decided"):
        cli._is_prime_power(q)


def test_count_machine_document(capsys):
    code, out, _ = run(capsys, "count", "--k", "2", "--n", "2", "--q", "2", "--format", "machine")
    assert code == 0
    assert json.loads(out) == {"command": "count", "k": 2, "m": 1, "n": 2, "q": 2, "r": 1, "value": 96}
    assert machine_roundtrips(out)


def test_count_machine_lower_bound_document(capsys):
    # n >= 4 once gave "value": null and "lower": 0; the value is exact now.
    code, out, _ = run(capsys, "count", "--k", "2", "--n", "4", "--q", "2", "--format", "machine")
    assert code == 0
    assert json.loads(out) == {"command": "count", "k": 2, "m": 1, "n": 4, "q": 2, "r": 1, "value": 2745630720}
    assert machine_roundtrips(out)


@pytest.mark.parametrize(
    "argv",
    [
        ("count", "--k", "2", "--n", "4", "--q", "2"),
        ("analyze", "--spec", str(DATA / "m4q.json")),
    ],
    ids=["count", "analyze"],
)
def test_degree_four_output_is_the_same_under_optimisation(argv):
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(ordgen.__file__).parent.parent))
    procs = [
        subprocess.run(
            [sys.executable, *flags, "-m", "ordgen.cli", *argv],
            capture_output=True, text=True, env=env, timeout=60,
        )
        for flags in ([], ["-O"])
    ]
    plain, optimised = procs
    assert plain.returncode == optimised.returncode == 0
    assert plain.stdout == optimised.stdout != ""
    assert plain.stderr == optimised.stderr == ""


# ---------------------------------------------------------------- oracle


def test_oracle_counts_matrix_algebra(capsys):
    code, out, _ = run(capsys, "oracle", "--alg", "M(2,2)", "--k", "2")
    assert code == 0
    assert out.strip() == "96"


def test_oracle_counts_twisted_algebra(capsys):
    code, out, _ = run(capsys, "oracle", "--alg", "TW(q=2,f=1,m=2,s=1,e=1)", "--k", "2")
    assert code == 0
    assert out.strip() == "144"


def test_oracle_twist_defaults(capsys):
    code, out, _ = run(capsys, "oracle", "--alg", "TW(q=2,f=1,m=2)", "--k", "2")
    assert code == 0
    assert out.strip() == "144"


def test_oracle_counts_product_algebra(capsys):
    code, out, _ = run(capsys, "oracle", "--alg", "P(M(1,2),M(1,2))", "--k", "1")
    assert code == 0
    assert out.strip() == "2"


def test_oracle_sampling_text_is_frozen(capsys):
    code, out, _ = run(
        capsys, "oracle", "--alg", "M(2,2)", "--k", "2", "--samples", "500", "--seed", "7"
    )
    assert code == 0
    assert out.strip() == "estimate 202/500 = 0.404000  (95% CI [0.361878, 0.447585], seed 7)"


def test_oracle_sampling_reaches_every_element_above_2_to_the_64(capsys):
    """|M_9(F_2)| = 2^81, so each element reads three stream outputs.  With one
    output each, every index lay below 2^64 and this printed 0/200, with the
    interval [0, 0.0188]."""
    code, out, _ = run(capsys, "oracle", "--alg", "M(9,2)", "--k", "2", "--samples", "200", "--seed", "1")
    low, high = (Fraction(x) for x in re.search(r"CI \[([0-9.]+), ([0-9.]+)\]", out).groups())
    exact = Fraction(gen_count_exact(2, 9, 2), 2**162)  # 0.98447
    assert code == 0 and low <= exact <= high


def test_oracle_sampling_requires_seed(capsys):
    argv = ("oracle", "--alg", "M(2,2)", "--k", "2", "--samples", "500")
    assert run(capsys, *argv) == (2, "", "error: --seed is required with --samples\n")


def test_oracle_sampling_worker_independent(capsys):
    args = ("oracle", "--alg", "M(2,2)", "--k", "2", "--samples", "500", "--seed", "7")
    _, base, _ = run(capsys, *args)
    _, threaded, _ = run(capsys, *args, "--workers", "3")
    assert base == threaded


def test_oracle_machine_documents(capsys):
    code, out, _ = run(capsys, "oracle", "--alg", "M(2,2)", "--k", "2", "--format", "machine")
    assert json.loads(out) == {"alg": "M(2,2)", "command": "oracle", "k": 2, "value": 96}
    assert machine_roundtrips(out)
    code, out, _ = run(
        capsys,
        "oracle", "--alg", "M(2,2)", "--k", "2",
        "--samples", "500", "--seed", "7", "--format", "machine",
    )
    doc = json.loads(out)
    assert (doc["hits"], doc["samples"], doc["seed"]) == (202, 500, 7)
    assert doc["fraction"] == "202/500"
    assert machine_roundtrips(out)


def test_oracle_budget_exceeded_exit_code(capsys):
    code, _, err = run(capsys, "oracle", "--alg", "M(3,3)", "--k", "2")
    assert code == 4
    assert "387420489" in err
    assert "budget" in err


def test_oracle_budget_flag_allows_small_runs(capsys):
    code, _, err = run(capsys, "oracle", "--alg", "M(2,2)", "--k", "2", "--budget", "100")
    assert code == 4
    code, out, _ = run(capsys, "oracle", "--alg", "M(2,2)", "--k", "2", "--budget", "256")
    assert code == 0


def test_oracle_budget_env_override(capsys, monkeypatch):
    monkeypatch.setenv("ORDGEN_BUDGET", "100")
    code, _, err = run(capsys, "oracle", "--alg", "M(2,2)", "--k", "2")
    assert code == 4
    assert "budget is 100" in err


@pytest.mark.parametrize("raw", ["abc", "0", "-5"])
def test_oracle_rejects_malformed_budget_env(capsys, monkeypatch, raw):
    monkeypatch.setenv("ORDGEN_BUDGET", raw)
    code, out, err = run(capsys, "oracle", "--alg", "M(2,2)", "--k", "2")
    assert code == 2
    assert out == ""
    assert err == f"error: ORDGEN_BUDGET must be a positive integer, got {raw!r}\n"


@pytest.fixture
def no_algebra_built(monkeypatch):
    """Make every algebra construction fail, so a test sees whether one runs."""
    monkeypatch.delenv("ORDGEN_BUDGET", raising=False)

    def refuse(*args, **kwargs):
        raise AssertionError("an algebra was built")

    monkeypatch.setattr(ordgen.finalg.FiniteAlgebra, "__init__", refuse)


@pytest.mark.parametrize(
    "expr,k,err",
    [
        ("M(10,2)", "1", "error: request needs 1267650600228229401496703205376 tuples, budget is 67108864\n"),
        ("M(3,3)", "2", "error: request needs 387420489 tuples, budget is 67108864\n"),
        ("P(M(3,2),TW(q=2,f=2,m=1,e=3))", "2", f"error: request needs {2 ** 30} tuples, budget is 67108864\n"),
        ("TW(q=2,f=3,m=2,s=1,e=2)", "1", "error: request needs 16777216 tuples, budget is 100\n"),
        ("M(100000,2)", "3", "error: request needs 2^30000000000 tuples, budget is 67108864\n"),
        ("M(10,2)", "1 --samples 101 --seed 1", "error: request needs 101 tuples, budget is 100\n"),
        # a sampled request builds the dim^3 structure table, which counts against the budget
        ("M(10,2)", "1 --samples 100 --seed 1", "error: request needs 1000000 table entries, budget is 100\n"),
        ("M(100000,2)", "2 --samples 10 --seed 1", f"error: request needs {10**30} table entries, budget is 67108864\n"),
    ],
)
def test_oracle_refuses_over_budget_before_building(capsys, no_algebra_built, expr, k, err):
    # k may carry the sampling options after the tuple length
    argv = ["oracle", "--alg", expr, "--k", *k.split()] + (["--budget", "100"] if "budget is 100" in err else [])
    assert run(capsys, *argv) == (4, "", err)


def test_oracle_sampling_builds_a_table_at_the_budget(capsys):
    """M_2(F_2) has a 4^3-entry table."""
    argv = ["oracle", "--alg", "M(2,2)", "--k", "2", "--samples", "10", "--seed", "1", "--budget"]
    assert run(capsys, *argv, "64")[0] == 0
    assert run(capsys, *argv, "63") == (4, "", "error: request needs 64 table entries, budget is 63\n")


@pytest.mark.parametrize(
    "expr,err",
    [
        ("P(M(10,2),M(2,3))", "error: base fields differ: FiniteField(q=2) vs FiniteField(q=3)\n"),
        ("P(M(10,2),M(0,2))", "error: matrix size n must be at least 1, got n=0\n"),
        ("P(M(10,2),TW(q=2,f=1,m=2,s=2))", "error: twist s=2 must satisfy 1 <= s <= m and gcd(s, m) = 1\n"),
        ("P(M(10,2),M(2,2;r=30))", "error: 2^30 exceeds the cap 1048576\n"),
        ("P(M(10,2),M(2,2)", "error: expected ')' at position 16 in algebra expression\n"),
    ],
)
def test_oracle_expression_errors_come_before_the_budget(capsys, no_algebra_built, expr, err):
    assert run(capsys, "oracle", "--alg", expr, "--k", "1") == (2, "", err)


@pytest.mark.parametrize(
    "expr,fragment",
    [
        ("M(2,2", "expected ')'"),
        ("Q(2,2)", "unknown algebra constructor"),
        ("M(2,2)x", "trailing input"),
        ("M(2,6)", "not a prime power"),
        ("TW(q=2,f=1)", "m"),
        ("TW(q=2,f=1,m=2,z=1)", "z"),
    ],
)
def test_oracle_rejects_malformed_expressions(capsys, expr, fragment):
    code, _, err = run(capsys, "oracle", "--alg", expr, "--k", "1")
    assert code == 2
    assert fragment in err


@pytest.mark.parametrize("optimise", [False, True], ids=["plain", "-O"])
@pytest.mark.parametrize(
    "expr,name",
    [
        ("M(0,2)", "n"),
        ("M(2,2;r=0)", "r"),
        ("TW(q=2,f=0,m=1)", "f"),
        ("TW(q=2,f=1,m=0)", "m"),
        ("TW(q=2,f=1,m=1,e=0)", "e"),
    ],
)
def test_oracle_rejects_constructor_parameters_below_one(expr, name, optimise):
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(ordgen.__file__).parent.parent))
    flags = ["-O"] if optimise else []
    proc = subprocess.run(
        [sys.executable, *flags, "-m", "ordgen.cli", "oracle", "--alg", expr, "--k", "1"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: ")
    assert f"{name} must be at least 1, got {name}=0" in proc.stderr
    assert "Traceback" not in proc.stderr


# ---------------------------------------------------------------- analyze


def test_analyze_gaussian_integers(capsys):
    code, out, _ = run(capsys, "analyze", "--spec", str(DATA / "zi.json"))
    assert code == 0
    assert "smallest h       1" in out
    assert "verdict          ONE_OR_TWO" in out
    assert "critical primes  2, 3" in out


def test_analyze_quaternion_power(capsys):
    code, out, _ = run(capsys, "analyze", "--spec", str(DATA / "quat2x7.json"))
    assert code == 0
    assert "smallest h       3" in out
    assert "verdict          EXACT" in out


def test_analyze_exceptional_prime_needs_override(capsys):
    code, _, err = run(capsys, "analyze", "--spec", str(DATA / "exceptional.json"))
    assert code == 5
    assert "p=2" in err
    assert "override" in err


def test_analyze_override_restores_success(capsys):
    code, out, _ = run(capsys, "analyze", "--spec", str(DATA / "exceptional_override.json"))
    assert code == 0
    assert "smallest h       1" in out


def test_analyze_missing_file(capsys):
    code, _, err = run(capsys, "analyze", "--spec", "/nonexistent.json")
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize(
    "mutate",
    [
        lambda d: d["factors"][0].update(local_indices=[[2, [2]]]),
        lambda d: d.update(free_over_base="no"),
        lambda d: d["factors"][0].update(center_minpoly=[0.5, 1]),
    ],
    ids=["indices-as-list", "flag-as-string", "fractional-coefficient"],
)
def test_analyze_rejects_mistyped_spec_without_traceback(tmp_path, mutate):
    doc = json.loads((DATA / "quat2.json").read_text())
    mutate(doc)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(ordgen.__file__).parent.parent))
    proc = subprocess.run(
        [sys.executable, "-m", "ordgen.cli", "analyze", "--spec", str(path)],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: ")
    assert "Traceback" not in proc.stderr


def test_analyze_huge_copy_count_finishes(tmp_path):
    # k = 2 has a cutoff near 1.15e40 here, but p = 2 alone already needs 333 generators.
    doc = json.loads((DATA / "quat2.json").read_text())
    doc["factors"][0]["copies"] = 10**200
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(ordgen.__file__).parent.parent))
    proc = subprocess.run(
        [sys.executable, "-m", "ordgen.cli", "analyze", "--spec", str(path), "--format", "machine"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    verdict = json.loads(proc.stdout)["verdict"]
    assert (verdict["h"], verdict["kind"], verdict["cutoff"]) == (333, "EXACT", 3)
    assert verdict["critical_primes"] == [2]


def huge_rational_spec(tmp_path):
    """z.json, the one factor Q of degree 1, with 10^200 copies."""
    doc = json.loads((DATA / "z.json").read_text())
    doc["factors"][0]["copies"] = 10**200
    path = tmp_path / "zhuge.json"
    path.write_text(json.dumps(doc))
    return path


def test_analyze_copy_count_past_any_fixed_scan(capsys, tmp_path):
    # The capacity scan once stopped at k = 512 with an AssertionError.
    code, out, err = run(capsys, "analyze", "--spec", str(huge_rational_spec(tmp_path)), "--format", "machine")
    assert (code, err) == (0, "")
    assert json.loads(out)["verdict"]["h"] == 665


def test_analyze_copy_count_at_the_json_digit_limit(capsys, monkeypatch, tmp_path):
    # 10^4299 is the largest power of ten Python's JSON reader accepts by default.
    doc = json.loads((DATA / "z.json").read_text())
    doc["factors"][0]["copies"] = 10**4299
    path = tmp_path / "zlimit.json"
    path.write_text(json.dumps(doc))
    calls = []
    capacity = counting.twisted_capacity

    def counted(*args):
        calls.append(args)
        return capacity(*args)

    monkeypatch.setattr(counting, "twisted_capacity", counted)
    code, out, err = run(capsys, "analyze", "--spec", str(path))
    assert (code, err) == (0, "")
    assert "smallest h       14281\n" in out
    assert 1 <= len(calls) <= 64
    # its machine document holds capacities of more digits than a reader parses
    code, out, err = run(capsys, "analyze", "--spec", str(path), "--format", "machine")
    assert (code, out) == (4, "")
    assert err == "error: request needs more than 4300 digits in one printed integer, budget is 4300\n"


def test_density_refuses_a_bound_too_large_to_sieve(capsys, monkeypatch, tmp_path):
    # The default bound is the tail floor, 2 * 10^200 here.
    monkeypatch.delenv("ORDGEN_BUDGET", raising=False)
    code, out, err = run(capsys, "density", "--spec", str(huge_rational_spec(tmp_path)), "--k", "2")
    assert (code, out) == (4, "")
    assert err == f"error: request needs {2 * 10**200 + 1} sieve entries, budget is {2**26}\n"
    monkeypatch.setenv("ORDGEN_BUDGET", "1000")
    code, out, err = run(capsys, "density", "--spec", str(DATA / "zi.json"), "--k", "2", "--bound", "1000")
    assert (code, out, err) == (4, "", "error: request needs 1001 sieve entries, budget is 1000\n")
    code, _, _ = run(capsys, "density", "--spec", str(DATA / "zi.json"), "--k", "2", "--bound", "999")
    assert code == 0


def test_analyze_machine_document(capsys):
    code, out, _ = run(capsys, "analyze", "--spec", str(DATA / "zi.json"), "--format", "machine")
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"]["h"] == 1
    assert doc["verdict"]["kind"] == "ONE_OR_TWO"
    assert doc["dimension"] == 2
    assert machine_roundtrips(out)


def test_analyze_attaches_density_when_requested(capsys):
    code, out, _ = run(
        capsys,
        "analyze", "--spec", str(DATA / "zi.json"), "--density-k", "2", "--bound", "1000",
    )
    assert code == 0
    assert "truncation bound  1000" in out
    assert "upper             0.608" in out


def test_analyze_refuses_a_bound_without_a_density_k(capsys):
    code, out, err = run(capsys, "analyze", "--spec", str(DATA / "zi.json"), "--bound", "5")
    assert (code, out, err) == (2, "", "error: a density bound needs a density k\n")


# ---------------------------------------------------------------- density


def test_density_interval_text(capsys):
    code, out, _ = run(
        capsys, "density", "--spec", str(DATA / "zi.json"), "--k", "2", "--bound", "1000"
    )
    assert code == 0
    assert "lower             0.604" in out


def test_density_zero_certificate_text(capsys):
    code, out, _ = run(capsys, "density", "--spec", str(DATA / "m2q.json"), "--k", "2")
    assert code == 0
    assert "density           0 (exact)" in out
    assert "reduced degree 2" in out


def test_density_bound_too_small(capsys):
    code, _, err = run(
        capsys, "density", "--spec", str(DATA / "zi.json"), "--k", "2", "--bound", "10"
    )
    assert code == 2
    assert "tail-validity threshold 25" in err


def test_density_machine_document(capsys):
    code, out, _ = run(
        capsys,
        "density", "--spec", str(DATA / "zi.json"), "--k", "2",
        "--bound", "1000", "--format", "machine",
    )
    doc = json.loads(out)
    assert doc["bound"] == 1000
    assert doc["tail_coefficient"] == "5/1"
    assert doc["factors"][0] == [2, "3/4"]
    assert machine_roundtrips(out)
    # the whole document at a small bound: the factors reduced from the counts, and no other key
    code, out, _ = run(
        capsys,
        "density", "--spec", str(DATA / "zi.json"), "--k", "2",
        "--bound", "30", "--format", "machine",
    )
    assert (code, out) == (0, (
        '{"bound":30,"factors":[[2,"3/4"],[3,"8/9"],[5,"24/25"],[7,"48/49"],[11,"120/121"],[13,"168/169"],'
        '[17,"288/289"],[19,"360/361"],[23,"528/529"],[29,"840/841"]],"k":2,'
        '"lower":"3203118385437436052657435864147337344082007715468110172691/'
        '6277101735386680763835789423207666416102355444464034512896",'
        '"minimum_bound":25,"note":"","tail_coefficient":"5/1",'
        '"upper":"3843742062524923263188923036976804812898409258561732207239/'
        '6277101735386680763835789423207666416102355444464034512896","zero_reason":null}\n'
    ))


def assert_dyadic_bounds(doc):
    for key in ("lower", "upper"):
        value = Fraction(doc[key])
        assert value.denominator & (value.denominator - 1) == 0
        assert value.denominator <= 2**DENSITY_BITS


def test_density_machine_document_past_the_old_digit_limit(capsys):
    # exact bounds at this bound had about 4800 digits and made this exit 2
    code, out, err = run(
        capsys,
        "density", "--spec", str(DATA / "zi.json"), "--k", "2",
        "--bound", "7000", "--format", "machine",
    )
    assert (code, err) == (0, "")
    assert machine_roundtrips(out)
    doc = json.loads(out)
    assert_dyadic_bounds(doc)
    assert 0 < Fraction(doc["lower"]) < Fraction(doc["upper"]) < 1
    code, out, err = run(
        capsys,
        "analyze", "--spec", str(DATA / "zi.json"), "--density-k", "2",
        "--bound", "8000", "--format", "machine",
    )
    assert (code, err) == (0, "")
    assert machine_roundtrips(out)
    assert_dyadic_bounds(json.loads(out)["density"])


# ---------------------------------------------------------------- quaternion


def test_quaternion_table_text(capsys):
    code, out, _ = run(capsys, "quaternion", "--ramified", "2", "--mmax", "28")
    assert code == 0
    assert "2  1 <= m <= 6" in out
    assert "3  7 <= m <= 28" in out


def test_quaternion_table_machine(capsys):
    code, out, _ = run(
        capsys, "quaternion", "--ramified", "5,7", "--mmax", "20", "--format", "machine"
    )
    doc = json.loads(out)
    assert doc["ranges"] == [[2, 1, 16], [3, 17, 20]]
    assert machine_roundtrips(out)
    rows = ",".join(f"[{m},{2 if m <= 16 else 3}]" for m in range(1, 21))
    assert out == (
        '{"m_max":20,"ramified":[5,7],"ranges":[[2,1,16],[3,17,20]],"rows":[' + rows + "]}\n"
    )


def test_quaternion_text_builds_no_rows(capsys, monkeypatch):
    def no_rows(table):
        raise AssertionError("rows built for the text format")

    monkeypatch.setattr(ordgen.solver.QuaternionTable, "rows", property(no_rows))
    code, out, _ = run(capsys, "quaternion", "--ramified", "5,7", "--mmax", "1000000")
    assert code == 0
    assert "6  158721 <= m <= 1000000" in out


def test_quaternion_rejects_composite_ramified_prime(capsys):
    code, _, err = run(capsys, "quaternion", "--ramified", "4", "--mmax", "5")
    assert code == 2
    assert "must be primes" in err


# ---------------------------------------------------------------- plumbing


def test_usage_error_exit_code(capsys):
    assert main(["count"]) == 2
    capsys.readouterr()
    assert main(["frobnicate"]) == 2
    capsys.readouterr()
    assert main([]) == 2
    capsys.readouterr()


PARSER_SEQUENCE = [
    ("frobnicate",),
    ("--help",),
    ("count", "--k", "2", "--n", "2", "--q", "3"),
    ("oracle", "--alg", "M(2,2)", "--k", "2", "--format", "machine"),
    ("oracle", "--alg", "M(2,3)", "--k", "2", "--samples", "50", "--seed", "1"),
    ("analyze", "--spec", str(DATA / "quat2.json")),
    ("density", "--spec", str(DATA / "zi.json"), "--k", "2", "--bound", "100"),
    ("quaternion", "--ramified", "2,3", "--mmax", "20"),
    ("count", "--k", "0", "--n", "2", "--q", "2"),
    ("oracle", "--help"),
]


def test_one_parser_serves_a_sequence_of_calls(capsys):
    """main builds its parser at the first call and keeps it: a usage error,
    help and every subcommand print and return what a fresh parser gives."""
    fresh = []
    for argv in PARSER_SEQUENCE:
        cli._parser.cache_clear()
        fresh.append(run(capsys, *argv))
    cli._parser.cache_clear()
    reused = [run(capsys, *argv) for argv in PARSER_SEQUENCE]
    assert cli._parser.cache_info().misses == 1
    assert reused == fresh
    assert [code for code, _, _ in reused] == [2, 0, 0, 0, 0, 0, 0, 0, 2, 0]


def run_patched(patch, optimise, *argv):
    """Run the CLI in a fresh interpreter after executing `patch` on `solver`."""
    code = (
        "import sys\n"
        "from ordgen import solver\n"
        "from ordgen.cli import main\n"
        f"{patch}\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(ordgen.__file__).parent.parent))
    flags = ["-O"] if optimise else []
    return subprocess.run(
        [sys.executable, *flags, "-c", code, *argv],
        capture_output=True, text=True, env=env, timeout=60,
    )


@pytest.mark.parametrize("optimise", [False, True], ids=["plain", "optimised"])
def test_certificate_failure_has_its_own_exit_code(optimise):
    # a capacity that falls short of the copy bound breaks the cutoff certificate
    proc = run_patched(
        "solver.twisted_capacity = lambda k, n, q, r: 0",
        optimise, "analyze", "--spec", str(DATA / "zi.json"),
    )
    assert proc.returncode == 6
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: capacity deficit at sweep prime")
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("optimise", [False, True], ids=["plain", "optimised"])
def test_density_local_count_out_of_range_exits_with_certificate_failure(optimise):
    # a local count above p^(d k) would make a factor above 1
    proc = run_patched(
        "solver.plan_count = lambda plan, p: p ** 4 + 1",
        optimise, "density", "--spec", str(DATA / "zi.json"), "--k", "2", "--bound", "100",
    )
    assert proc.returncode == 6
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: local count 17 at p=2 is outside [0, p^4]")
    assert "Traceback" not in proc.stderr


def test_internal_value_error_is_not_a_usage_error(capsys, monkeypatch):
    def broken(spec, k, bound):
        raise ValueError("internal fault")

    monkeypatch.setattr(cli, "density", broken)
    with pytest.raises(ValueError, match="internal fault"):
        main(["density", "--spec", str(DATA / "zi.json"), "--k", "2"])


@pytest.mark.parametrize(
    "content",
    [b'{"factors": [', b'{"factors": [], "\xff": 1}', b'{"free_over_base": true, "x": 1' + b"0" * 5000 + b"}"],
    ids=["truncated", "not-utf8", "integer-past-digit-limit"],
)
def test_unreadable_spec_is_a_usage_error(capsys, tmp_path, content):
    path = tmp_path / "bad.json"
    path.write_bytes(content)
    code, out, err = run(capsys, "analyze", "--spec", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error: ")


# integers as the expression parser may meet them: plain, superscript, Arabic-Indic, missing, past the digit limit
ALGEBRA_INTS = st.sampled_from(["0", "1", "2", "3", "4", "\u00b2", "\u0663", "", "x", "9" * 4400])
ALGEBRA_LEAVES = st.builds(
    lambda n, q, r: f"M({n},{q}" + ("" if r is None else f";r={r}") + ")",
    ALGEBRA_INTS, ALGEBRA_INTS, st.none() | ALGEBRA_INTS,
) | st.builds(
    lambda items: "TW(" + ",".join(f"{key}={value}" for key, value in items) + ")",
    st.lists(st.tuples(st.sampled_from(["q", "f", "m", "s", "e", "r"]), ALGEBRA_INTS), max_size=5),
)
ALGEBRA_TEXTS = st.recursive(ALGEBRA_LEAVES, lambda inner: st.builds("P({},{})".format, inner, inner), max_leaves=3)


@settings(max_examples=400, deadline=None)
@given(ALGEBRA_TEXTS | st.text(max_size=12))
def test_parse_algebra_raises_only_ordgen_errors(text):
    try:
        parse_algebra(text)
    except OrdgenError:
        pass


def test_console_entry_point_is_exposed():
    from ordgen.cli import entry

    assert callable(entry)


def readme_examples():
    """Each `$ ordgen ...` example of the README as (argv, printed output, exit code).

    A refusal's output ends with its "(exit code N)" note, and a line that
    begins with one space continues the line above, wrapped for display.
    """
    examples = []
    for block in re.findall(r"```text\n(.*?)```", README.read_text(encoding="utf-8"), re.S):
        for example in re.split(r"^\$ ordgen ", block, flags=re.M)[1:]:
            command, _, output = example.partition("\n")
            output = re.sub(r"\n (?=\S)", "", output)
            note = re.search(r"\s+\(exit code (\d+)\)\n$", output)
            if note:
                output = output[: note.start()] + "\n"
            examples.append((shlex.split(command, comments=True), output, int(note[1]) if note else 0))
    return examples


def test_readme_lists_thirteen_examples():
    assert len(readme_examples()) == 13


@pytest.mark.parametrize("argv,output,code", [pytest.param(*ex, id=" ".join(ex[0])) for ex in readme_examples()])
def test_readme_example_prints_what_the_readme_shows(capsys, monkeypatch, argv, output, code):
    monkeypatch.chdir(README.parent)
    got_code, out, err = run(capsys, *argv)
    assert (got_code, err if code else out) == (code, output)
    assert (out if code else err) == ""
