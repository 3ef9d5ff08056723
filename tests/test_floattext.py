"""floattext spells every float64 as ``repr`` does: Ryu's shortest digits and
Python's layout, compared with ``repr`` byte for byte."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from indexaudit import floattext


def reprs(values) -> list[str]:
    return [repr(value) for value in np.asarray(values, dtype=np.float64).tolist()]


def texts(values) -> list[str]:
    """Each value's text from ``floattext.encode``, a block at a time."""
    pad = bytes([floattext.PAD])
    spelled = []
    for start in range(0, len(values), floattext.BLOCK):
        rows = floattext.encode(values[start:start + floattext.BLOCK])
        spelled += [row.tobytes().translate(None, pad).decode() for row in rows]
    return spelled


def assert_spelled_as_repr(values):
    values = np.asarray(values, dtype=np.float64)
    got, want = texts(values), reprs(values)
    wrong = [(w, g) for w, g in zip(want, got) if w != g]
    assert len(got) == len(want) and not wrong, wrong[:10]


def neighbours(values) -> np.ndarray:
    values = np.asarray(values, dtype=np.float64)
    return np.concatenate([values, np.nextafter(values, -np.inf), np.nextafter(values, np.inf)])


def test_the_edge_set_is_spelled_as_repr():
    tiny = np.finfo(np.float64).smallest_normal
    edges = [0.0, -0.0, 5e-324, -5e-324, np.nextafter(tiny, 0.0), tiny,
             np.finfo(np.float64).max, -np.finfo(np.float64).max, np.inf, -np.inf, np.nan]
    powers_of_two = np.ldexp(1.0, np.arange(-1074, 1024))
    powers_of_ten = [float(f"1e{k}") for k in range(-324, 309)]
    # where the text turns from positional to scientific
    switches = [1e-4, 1e-5, 1e15, 1e16, 1e17, 9.999999999999999e15]
    around_2_53 = np.arange(2**53 - 300, 2**53 + 300, dtype=np.int64).astype(np.float64)
    assert_spelled_as_repr(np.concatenate([edges, neighbours(powers_of_two),
                                           neighbours(powers_of_ten), neighbours(switches),
                                           around_2_53, -around_2_53]))


def test_rounding_ties_and_exact_bounds_are_spelled_as_repr():
    # short decimals, and the doubles next to powers of two from 2**53 up,
    # whose exact values are integers: here the shortest digits round a
    # tie to even, or end on the lower bound of the interval that reads back
    # as the double, which holds it only where the mantissa is even
    short = np.outer(np.arange(1, 200), np.logspace(0, 24, 25)).ravel()
    steps = np.arange(-400, 400)
    near = np.concatenate([np.ldexp(1.0, e) + np.ldexp(steps, e - 52) for e in range(50, 70)])
    quarters = np.ldexp(np.arange(2**52, 2**52 + 4000, dtype=np.float64), -2)
    assert_spelled_as_repr(np.concatenate([short, near, quarters, -near]))


def test_random_doubles_are_spelled_as_repr():
    rng = np.random.default_rng(20_181)
    bits = rng.integers(0, 2**64 - 1, 100_000, dtype=np.uint64, endpoint=True)
    amounts = rng.lognormal(0.0, 4.0, 50_000) * rng.choice([1e-6, 1e-2, 1.0, 1e3], 50_000)
    assert_spelled_as_repr(np.concatenate([bits.view(np.float64), amounts]))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=64))
def test_any_bit_pattern_is_spelled_as_repr(patterns):
    assert_spelled_as_repr(np.array(patterns, dtype=np.uint64).view(np.float64))


def test_encoded_rows_hold_the_text_padded():
    values = np.array([-1.5, 0.0, 2.5e-300, -np.inf, 123456789012345680.0])
    rows = floattext.encode(values)
    assert rows.shape == (len(values), floattext.WIDTH)
    assert [bytes(row).replace(bytes([floattext.PAD]), b"").decode()
            for row in rows] == reprs(values)
    # the sign has a column of its own
    assert rows[0, 0] == ord("-") and rows[1, 0] == floattext.PAD
    assert floattext.encode(np.empty(0)).shape == (0, floattext.WIDTH)
    assert texts(np.array([[1.0, 2.0], [3.0, 4.0]])) == ["1.0", "2.0", "3.0", "4.0"]
