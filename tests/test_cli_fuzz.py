"""Fuzz the CLI argument surface: every outcome is an exit code, never a traceback.

`cli.main` runs in-process on generated argv for all four subcommands.  An
argparse `SystemExit` counts by its code.  Any exit code outside {0, 1, 2},
or any other exception, fails the test: exit 3 is an internal fault, which no
input, valid or not, may trip.
"""

from hypothesis import HealthCheck, example, given, settings, strategies as st

from fanoblowup import MAX_BITS, MAX_DIM

from make_cli_golden import capture

EXIT_CODES = {0, 1, 2}
MALFORMED = ["", "1/0", "nan", "3/2/1", "x"]
FLAGS = st.lists(st.sampled_from(["--json", "--quiet"]), max_size=2, unique=True)

dims = st.one_of(st.integers(2, 10).map(str), st.integers(-2, 10).map(str), st.sampled_from(MALFORMED))
# Numerators and denominators of at most 16 bits.
parts, halves = st.integers(1, 2 ** 16 - 1), st.integers(1, 2 ** 15 - 1)
above_one = st.builds(lambda p, q: f"{q + p}/{q}", halves, halves)
rationals = st.one_of(
    st.builds(lambda p, q: f"{p}/{q}", parts, parts),
    above_one,
    st.builds(lambda p, q: f"{p}/{q}", st.integers(1 - 2 ** 16, 2 ** 16 - 1), parts),
    st.integers(1 - 2 ** 16, 2 ** 16 - 1).map(str),
    st.sampled_from(["2", "3/2", "5/2", "1/2", "0", "1"]),
    st.sampled_from(MALFORMED),
)
m_lists = st.one_of(
    st.lists(st.integers(-2, 64), min_size=1, max_size=4).map(lambda ms: ",".join(map(str, ms))),
    st.sampled_from(MALFORMED + ["1,,2", "1.5", ",", "2;4"]),
)
small = st.integers(-1, 6)
bases = st.one_of(
    st.builds(lambda s, d: f"ps:{s}:{d}", small, small),
    st.sampled_from(MALFORMED + ["ps:2", "ps:x:1", "pp:2:1", "ps:2:1:0"]),
)


def _assert_exits_cleanly(argv: list[str]) -> int:
    _, code = capture(argv)
    assert code in EXIT_CODES, (argv, code)
    return code


# coeff is cheap at any admitted size, so it also probes the input bounds.
bound_dims = st.integers(MAX_DIM - 1, MAX_DIM + 1).map(str)
wide = st.integers(2 ** (MAX_BITS - 1), 2 ** (MAX_BITS + 1))
wide_rationals = st.builds(lambda p, q: f"{p + q}/{q}", wide, wide)


@settings(deadline=None)
@given(flags=FLAGS, n=st.one_of(dims, bound_dims), r=st.one_of(above_one, rationals, wide_rationals))
@example(flags=[], n="-2", r="2")
@example(flags=["--json"], n="10", r="65535/65534")
@example(flags=[], n=str(MAX_DIM + 1), r="2")
@example(flags=["--quiet"], n="3", r="2e0")
@example(flags=[], n="3", r="3_0/2")
@example(flags=[], n="3", r="1e1")
@example(flags=[], n="3", r="three")
def test_coeff(flags, n, r):
    _assert_exits_cleanly(["coeff", "--dim", n, "--index", r, *flags])


@settings(deadline=None)
@given(
    flags=FLAGS,
    n=dims,
    r=st.one_of(above_one, rationals),
    l=st.one_of(st.builds(lambda p, q: f"{p % (2 * q)}/{q}", parts, halves), rationals),
    vol_v=st.none() | rationals,
)
@example(flags=[], n="10", r="65535/65534", l="2", vol_v="65535/3")
@example(flags=["--quiet"], n="3", r="2", l="1/0", vol_v=None)
@example(flags=[], n="3", r="3_0/2", l="2", vol_v=None)
@example(flags=[], n="3", r="2", l="1e1", vol_v=None)
@example(flags=[], n="3", r="2", l="2", vol_v="three")
def test_invariants(flags, n, r, l, vol_v):
    argv = ["invariants", "--dim", n, "--index", r, "--l", l, *flags]
    if vol_v is not None:
        argv += ["--vol-v", vol_v]
    _assert_exits_cleanly(argv)


@settings(deadline=None)
@given(flags=FLAGS, base=bases, ms=m_lists, n=dims, r=rationals)
@example(flags=[], base="ps:2:1", ms="0,1", n="3", r="3")
@example(flags=[], base="ps:-1:0", ms="1", n="0", r="1")
def test_refine(flags, base, ms, n, r):
    _assert_exits_cleanly(["refine", "--dim", n, "--index", r, "--base", base, "--m", ms, *flags])


@settings(deadline=None)
@given(flags=FLAGS, s=st.integers(1, 6), data=st.data())
def test_refine_matching_base(flags, s, data):
    # n = s + 1 and r = (s + 1)/d match the base ps:s:d for d <= s, and every
    # m <= 64 that is a multiple of d is a valid level: the table prints.
    d = data.draw(st.integers(1, s), label="d")
    ms = data.draw(st.lists(st.integers(1, 64 // d).map(lambda k: k * d), min_size=1, max_size=4), label="ms")
    argv = ["refine", "--dim", str(s + 1), "--index", f"{s + 1}/{d}", "--base", f"ps:{s}:{d}",
            "--m", ",".join(map(str, ms)), *flags]
    assert _assert_exits_cleanly(argv) == 0


entries = st.fixed_dictionaries(
    {"n": dims, "r": st.one_of(above_one, rationals), "l": rationals},
    optional={
        "vol_v": rationals,
        "expect_a": rationals,
        "expect_destabilizer": st.sampled_from(["zero-section", "infinity-section", "", "x"]),
        "colour": st.just("blue"),
    },
)
headers = st.one_of(st.just("[entry-{i}]"), st.sampled_from(["[DEFAULT]", "[entry-0]", "entry-{i}", ""]))


@settings(deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(flags=FLAGS, sections=st.lists(st.tuples(headers, entries), max_size=3))
@example(flags=[], sections=[("[entry-{i}]", {"n": "3", "r": "2", "l": "2", "expect_a": "1/2"})])
@example(flags=[], sections=[("[entry-{i}]", {"n": "3", "r": "2", "l": "1", "expect_a": "11/56"})])
@example(flags=["--json"], sections=[("[DEFAULT]", {"n": "3", "r": "2", "l": "2"})])
@example(flags=[], sections=[("[entry-{i}]", {"n": "3", "r": "3_0/2", "l": "1e1", "vol_v": "three"})])
def test_catalog(tmp_path, flags, sections):
    lines = []
    for i, (header, entry) in enumerate(sections):
        lines.append(header.format(i=i))
        lines += [f"{key} = {value}" for key, value in entry.items()]
    path = tmp_path / "fuzz.cfg"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    _assert_exits_cleanly(["catalog", str(path), *flags])
