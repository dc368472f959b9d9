"""The block formatter writes every float exactly as ``"%.17g" % x``.

The adversarial set holds the values where a decimal formatter built on
binary arithmetic goes wrong: every power of ten and both its float
neighbours (where floor(log10|x|) is one off), the ``%g`` switch points
between fixed and e-notation, exact rounding ties (which ``%.17g``
rounds half to even), 2^53 and above, subnormals, ±0, ±inf, nan, short
decimals scaled far from 1, and random bit patterns.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import nscontact.cli as cli
from nscontact.csvtext import BlockText


def adversarial() -> np.ndarray:
    rng = np.random.default_rng(20240601)
    values = [rng.integers(0, 2**64, size=60_000, dtype=np.uint64).view(np.float64)]
    specials = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, 2.2250738585072014e-308,
                2.225073858507201e-308, 1.7976931348623157e308, 2.0**53, 2.0**53 + 2,
                2.0**63, 2.0**64, 123456789.0, 0.1, 0.5, 1.5, 2.5]
    for e in range(-323, 309):
        x = float(f"1e{e}")
        specials += [x, np.nextafter(x, 0.0), np.nextafter(x, np.inf)]
    for x in (1e-5, 1e-4, 1e16, 1e17):
        specials += [x, np.nextafter(x, 0.0), np.nextafter(x, np.inf)]
    values.append(np.array(specials))
    # 16 digits and .25 or .75: the 17-digit rounding is an exact tie
    ties = rng.integers(10**15, 2**51, size=2_000) + rng.choice([0.25, 0.75], size=2_000)
    nine = rng.integers(10**8, 10**9, size=3_000)
    values += [np.array([float(f"{m}e{s}25") for m in nine.tolist() for s in "+-"]),
               ties, nine.astype(float), rng.uniform(-1.0, 1.0, 20_000),
               rng.uniform(-1.0, 1.0, 5_000) * 1e-17, np.arange(-200, 200) * 0.125]
    x = np.concatenate(values)
    return np.concatenate([x, -x])


def expected(x) -> list[str]:
    return ["%.17g" % v for v in np.asarray(x, dtype=float).ravel().tolist()]


def test_adversarial_values_match_percent_g():
    x = adversarial()
    written = BlockText()([(x,)])
    assert written.endswith("\n") and written.count("\n") == 1
    got = written[:-1].split(",")
    bad = [(e, g) for e, g in zip(expected(x), got) if e != g]
    assert len(got) == x.size and bad == []


@pytest.mark.parametrize("shape", [(1, 1), (1, 257), (257, 1), (37, 11)])
def test_block_shapes(shape):
    x = adversarial()[: shape[0] * shape[1]].reshape(shape)
    rows = [tuple(row) for row in x] if shape[1] == 1 else [(row,) for row in x]
    want = "".join(",".join(expected(row)) + "\n" for row in x)
    assert BlockText()(rows) == want


def test_mixed_fields_through_the_writer(tmp_path):
    # a row count that is no multiple of the block size leaves a short last block
    rng = np.random.default_rng(7)
    header = ["step", "x", "active", "v_0", "v_1", "v_2", "note", "y"]
    n_rows = 3 * (cli._BLOCK_CELLS // len(header)) + 5
    x = adversarial()
    vectors = x[rng.integers(0, x.size, n_rows * 4)].reshape(n_rows, 4)
    vectors[1] = [np.nan, -0.0, -np.inf, 1e-5]
    rows = [(i + 1, float(v[0]), "0;2" if i % 3 else "", v[1:], "100%", np.float64(v[0]))
            for i, v in enumerate(vectors)]
    cli._write_csv(tmp_path / "mixed.csv", header, iter(rows))
    want = ",".join(header) + "\n" + "".join(
        ",".join([str(step), *expected([x]), text, *expected(v), pct, *expected([y])]) + "\n"
        for step, x, text, v, pct, y in rows)
    assert (tmp_path / "mixed.csv").read_text() == want


def test_no_rows_write_the_header_alone(tmp_path):
    cli._write_csv(tmp_path / "empty.csv", ["h", "error"], iter(()))
    assert (tmp_path / "empty.csv").read_text() == "h,error\n"


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.lists(st.floats(allow_nan=True, allow_infinity=True), min_size=1, max_size=40))
def test_any_float_matches_percent_g(values):
    assert BlockText()([(np.array(values),)]) == ",".join(expected(values)) + "\n"
