"""``residue._mul_into`` against a plain schoolbook product, on both sides
of the length at which it switches to packing (``residue._PACK_MIN``), and
in slots of every width: the 1, 2, 4 and 8 bytes one ``struct`` call
converts and the wider ones converted byte by byte."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padicdx import residue
from padicdx.residue import _mul_into


def schoolbook(out, a, b):
    """out plus a*b, in a new list as long as both."""
    out = list(out) + [0] * (len(a) + len(b) - 1 - len(out))
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _lists(max_size):
    """Lists of signed entries of up to about 200 bits, a bound per list,
    with zeros among them and sometimes a zero last (leading) entry."""
    return st.integers(0, 200).flatmap(
        lambda bits: st.lists(
            st.one_of(st.just(0), st.integers(-(1 << bits), 1 << bits)),
            min_size=1,
            max_size=max_size,
        )
    )


@settings(max_examples=300, deadline=None)
@given(
    a=_lists(60),
    b=_lists(60),
    out=st.lists(st.integers(-(1 << 80), 1 << 80), max_size=130),
    zero=st.sampled_from(["", "a", "b", "lead"]),
)
def test_mul_into_against_schoolbook(a, b, out, zero):
    if zero == "a":
        a = [0] * len(a)
    elif zero == "b":
        b = [0] * len(b)
    elif zero == "lead":
        a = a + [0]
    want = schoolbook(out, a, b)
    got = _mul_into(out, tuple(a), b)
    assert got is out
    assert got == want


@pytest.mark.parametrize("bits", [1, 7, 8, 63, 64, 200])
@pytest.mark.parametrize("n", [residue._PACK_MIN, 64, 255, 256])
def test_largest_coefficients_fit_their_slots(n, bits):
    """Entries all of the largest size and one sign reach the bound
    min(len)·max|a|·max|b| the slot width is sized for."""
    m = (1 << bits) - 1
    for a, b in (([m] * n, [m] * n), ([-m] * n, [m] * (n + 1)), ([-(m + 1)] * n, [-m] * n)):
        assert _mul_into([], a, b) == schoolbook([], a, b)


@pytest.mark.parametrize("n", [residue._PACK_MIN - 1, residue._PACK_MIN])
def test_first_packed_length_matches_schoolbook(n, monkeypatch):
    """The switch is the measured 13; at it the product is packed, one
    below it is not, and both give the schoolbook list."""
    assert residue._PACK_MIN == 13
    packed = []
    pack = residue._pack
    monkeypatch.setattr(residue, "_pack", lambda *args: packed.append(args) or pack(*args))
    a = [(-3) ** (7 * i) - i for i in range(n)]
    b = [0] + [(-1) ** i * 5 ** (11 * i) for i in range(1, n - 1)] + [-(2**90)]
    prefix = [7, -7, 1 << 100]
    assert _mul_into(list(prefix), a, b) == schoolbook(prefix, a, b)
    assert len(packed) == (2 if n >= residue._PACK_MIN else 0)


def _pack_widths(monkeypatch) -> list:
    """The slot width of every later _pack call, in order."""
    widths = []
    pack = residue._pack
    monkeypatch.setattr(residue, "_pack", lambda a, width: widths.append(width) or pack(a, width))
    return widths


@pytest.mark.parametrize("width", [1, 2, 4, 8, 9])
def test_slots_hold_entries_of_both_signs_at_their_largest(width, monkeypatch):
    """Entries of magnitude 2^m - 1 with the largest m a slot of each width
    allows, one more bit on either side widening it, in sign patterns that
    reach the bound and that cancel."""
    n = residue._PACK_MIN
    m = (1 << ((8 * width - 2 - n.bit_length()) // 2)) - 1
    rng = random.Random(width)
    signs = [[1] * n, [-1] * n, [(-1) ** i for i in range(n)]]
    signs.append([rng.choice((1, -1)) for _ in range(n)])
    widths = _pack_widths(monkeypatch)
    for sa in signs:
        for sb in signs:
            a, b = [s * m for s in sa], [s * m for s in sb] + [-m]
            prefix = [m, -m]
            assert _mul_into(list(prefix), a, b) == schoolbook(prefix, a, b)
    assert set(widths) == {width}


@pytest.mark.parametrize("signs", ["random", "+-", "--"])
def test_long_narrow_lists(signs):
    """2000 entries of at most 3 bits on each side: 4-byte slots, the
    struct path at a length where the product of the two ints dominates."""
    n = 2000
    if signs == "random":
        rng = random.Random(n)
        a, b = ([rng.randint(-7, 7) for _ in range(n)] for _ in "ab")
    else:
        a, b = ([7 if s == "+" else -7] * n for s in signs)
    assert _mul_into([], a, b) == schoolbook([], a, b)


@pytest.mark.parametrize("bound, width", [(3, 4), (5, 8), (7, 8)])
def test_struct_widths_round_up_to_the_next_power_of_two(bound, width, monkeypatch):
    """A bound of 3 bytes is packed in 4-byte slots, not 8-byte ones, and
    one of 5 to 7 bytes in 8-byte slots."""
    n = residue._PACK_MIN
    # bits(max|a|) + bits(max|b|) + bits(n) + 2 fills the bound's last byte
    bits = 8 * bound - 2 - n.bit_length()
    a = [(1 << (bits // 2)) - 1] * n
    b = [-((1 << (bits - bits // 2)) - 1)] * n
    widths = _pack_widths(monkeypatch)
    assert _mul_into([], a, b) == schoolbook([], a, b)
    assert widths == [width, width]
