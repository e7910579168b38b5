"""Fuzzing of the CLI's argv for ``map``, ``poly`` and ``enum``: every run
exits 0 or 2, a failed run prints exactly one ``error:`` line, and no
exception or traceback gets out.  Sizes stay small (``poly --n`` <= 12,
``enum --n`` <= 7, permutations of at most 12 letters) so each run is quick."""
import io
import json
from contextlib import redirect_stderr, redirect_stdout

from hypothesis import given, settings
from hypothesis import strategies as st

from baxlab import cli


def _small(bound):
    """Text that argparse's int() cannot read as an integer beyond the bound."""

    def ok(text):
        try:
            return abs(int(text)) <= bound
        except ValueError:
            return True

    return st.text(max_size=8).filter(ok)


def _int_or_junk(lo, hi):
    return st.one_of(st.integers(lo, hi).map(str), _small(hi))


def _option(flag, values):
    """Either nothing or the flag followed by one value."""
    return st.one_of(st.just([]), _required(flag, values))


def _required(flag, values):
    return values.map(lambda v: [flag, v])


_json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 13) | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=6) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=12,
)

_perm_texts = st.one_of(
    st.integers(1, 12).flatmap(lambda n: st.permutations(range(1, n + 1))).map(json.dumps),
    st.integers(1, 9).flatmap(lambda n: st.permutations("123456789"[:n])).map("".join),
    _json_values.map(json.dumps),
    st.text("0123456789[], ", max_size=12),
    st.text(max_size=12),
)

_map_argv = st.tuples(
    st.just(["map"]),
    _required("--perm", _perm_texts),
    _required("--to", st.sampled_from(["gamma", "gamma-prime", "psi", "laguerre"]) | st.text(max_size=6)),
    _option("--render", st.sampled_from(["json", "ascii"]) | st.text(max_size=6)),
    st.sampled_from([[], ["--unchecked"]]),
)

_poly_argv = st.tuples(st.just(["poly"]), _required("--n", _int_or_junk(-3, 12)))

_enum_argv = st.tuples(
    st.just(["enum"]),
    _required("--n", _int_or_junk(-2, 7)),
    _option("--k", _int_or_junk(-2, 8)),
    _option("--format", st.sampled_from(["json", "csv", "count"]) | st.text(max_size=6)),
)

_argv = st.one_of(_map_argv, _poly_argv, _enum_argv).map(lambda parts: [a for p in parts for a in p])


@settings(max_examples=300, deadline=None)
@given(_argv)
def test_cli_exits_0_or_2_with_one_error_line_and_no_traceback(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects the usage
            code = exc.code
    err = err.getvalue()
    assert code in (0, 2), (argv, code, err)
    assert "Traceback" not in err, argv
    if code == 0:
        assert err == "", argv
    else:
        assert sum("error:" in line for line in err.splitlines()) == 1, (argv, err)
