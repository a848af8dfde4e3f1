"""The column formatters of ``stablecomp._text`` against Python's own
``'%.17g' %`` and ``repr``, byte for byte."""

import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

from stablecomp import Seed, sample_standard
from stablecomp._text import (chunks, _BLOCK, _K_MAX, _K_MIN, _decimal, _exponents, _powers,
                              g17_slots, int_slots, repr_slots)

FORMS = {"g17": (g17_slots, "%.17g".__mod__), "repr": (repr_slots, repr)}


def _check(values, form):
    slots, fmt = FORMS[form]
    x = np.asarray(values, dtype=np.float64)
    got = "".join(chunks([slots(x), b"\n"])).split("\n")
    assert got.pop() == "" and len(got) == len(x)
    bad = [(float(v), g, w) for v, g, w in zip(x, got, map(fmt, x.tolist())) if g != w]
    assert not bad, f"{len(bad)} of {len(x)} differ, first (value, got, want): {bad[:3]}"


def _neighbours(x, ulps):
    out = [x]
    for direction in (np.inf, -np.inf):
        y = x
        for _ in range(ulps):
            y = np.nextafter(y, direction)
            out.append(y)
    return np.concatenate(out)


def _binades():
    """Random mantissas in every binary exponent, subnormals included, and
    each power of two with its neighbours."""
    rng = np.random.default_rng(20)
    e = np.arange(-1074, 1024)
    random = np.ldexp(rng.uniform(1.0, 2.0, (8, len(e))), e).ravel()
    return np.concatenate([random * rng.choice([-1.0, 1.0], random.size),
                           _neighbours(np.ldexp(1.0, e), 1)])


def _powers_of_ten():
    return _neighbours(np.array([float(f"1e{k}") for k in range(-323, 309)]), 3)


def _ties():
    """Dyadic values whose exact decimal has one digit more than 15, 16 or 17
    digits, that digit a 5: m 2^-p with m 5^p of K + 1 digits."""
    rng = np.random.default_rng(21)
    out = [2.0 ** -25, 2.0 ** -26]
    j = rng.integers(10 ** 15, 2 ** 50 - 1, 200).astype(np.float64)
    out += list(j + 0.25) + list(j + 0.75)
    for K in (15, 16, 17):
        for p in range(27):
            lo = -(-10 ** K // 5 ** p)
            hi = min(10 ** (K + 1) // 5 ** p, 2 ** 53)
            for m in rng.integers(lo, hi, 20, endpoint=True).tolist() if lo < hi else ():
                m |= 1
                if p == 0:
                    m = m // 10 * 10 + 5
                if lo <= m <= hi and len(str(m * 5 ** p)) == K + 1:
                    out.append(float(np.ldexp(float(m), -p)))
    out = np.array(out)
    return np.concatenate([out, -out])


def _layouts():
    """The fixed/exponent switches, integral values, short decimals and
    large exponents."""
    rng = np.random.default_rng(22)
    edges = [9.9999999999999991e-05, 1e-4, 1.0000000000000001e-05, 0.00012, 0.5, 1.0,
             10.0, 123.0, 999999999999999.0, 1e15, 1e15 + 1, 9999999999999998.0,
             1e16, 1.5e16, 99999999999999984.0, 1e17, 1.2345678901234568e+17,
             18014398509481992.0, 2.0 ** 60]
    return np.concatenate([
        edges, np.negative(edges),
        rng.integers(0, 2 ** 62, 2000).astype(np.float64),
        np.round(rng.standard_normal(2000), 3),
        np.round(rng.standard_cauchy(2000) * 1e4) / 4,
        10.0 ** rng.uniform(99, 101, 500), 10.0 ** rng.uniform(-101, -99, 500),
        10.0 ** rng.uniform(300, 308, 500), 10.0 ** rng.uniform(-308, -300, 500)])


def _specials():
    tiny = np.finfo(np.float64).tiny
    big = np.finfo(np.float64).max
    return np.array([0.0, -0.0, np.inf, -np.inf, np.nan, big, -big, tiny, -tiny,
                     5e-324, -5e-324, tiny - 5e-324])


def _blocks():
    """More than one block, with specials on the block edges."""
    x = np.random.default_rng(23).standard_cauchy(3 * _BLOCK + 5)
    for i in (0, _BLOCK - 1, _BLOCK, 2 * _BLOCK, len(x) - 1):
        x[i] = (np.nan, 0.0, -np.inf, 5e-324, -0.0)[i % 5]
    return x


CASES = {"binades": _binades, "powers_of_ten": _powers_of_ten, "ties": _ties,
         "layouts": _layouts, "specials": _specials, "blocks": _blocks}


@pytest.mark.parametrize("form", sorted(FORMS))
@pytest.mark.parametrize("case", sorted(CASES))
def test_bytes_match_python(case, form):
    _check(CASES[case](), form)


@pytest.mark.parametrize("form", sorted(FORMS))
def test_any_floats_match_python(form):
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @hypothesis.given(st.lists(st.floats(), min_size=1, max_size=40))
    def check(values):
        _check(values, form)

    check()


def test_cached_tables_are_read_only():
    # the tables are cached, so every writer, on any thread, shares them
    for table in (*_powers(), _exponents()):
        with pytest.raises(ValueError, match="read-only"):
            table[0] = 0


def test_empty_column():
    assert g17_slots([]).shape[1] == 0
    assert "".join(chunks([repr_slots([]), b"\n"])) == ""


@pytest.mark.parametrize("q", [0.7, 1.0, 1.5, 2.0])
def test_python_formats_almost_no_draw(q):
    """The share of standard q-stable draws whose digits the numpy route
    leaves to Python stays below 1e-4."""
    x = sample_standard(q, Seed(41), size=1 << 20)
    for shortest in (False, True):
        left = sum(int(_decimal(x[lo:lo + _BLOCK], shortest)[2].sum())
                   for lo in range(0, len(x), _BLOCK))
        assert left / len(x) < 1e-4


def test_integer_slots():
    v = [0, 7, 10, 4095, 123456789]
    assert "".join(chunks([int_slots(v), b","])) == "".join(f"{i}," for i in v)


def test_power_table_is_within_its_bound():
    """T_hi + T_lo is within 2^-106 T of T = 10^k 2^-t, and T lies in [1, 2]."""
    hi, lo, t = _powers()
    for k in range(_K_MIN, _K_MAX):
        i = k - _K_MIN
        T = Fraction(10) ** k / Fraction(2) ** int(t[i])
        assert 1 <= T <= 2
        assert abs(Fraction(hi[i]) + Fraction(lo[i]) - T) <= T / 2 ** 106


def test_import_builds_no_table():
    code = ("import stablecomp, stablecomp._text as t; "
            "print(t._powers.cache_info().currsize, t._exponents.cache_info().currsize)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True)
    assert out.stdout.split() == ["0", "0"]
