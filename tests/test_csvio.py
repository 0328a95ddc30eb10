"""The one CSV writer: its bytes are csv.writer's over fmt strings."""

import csv
import io

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from xvapde import ModelVariant, sweep
from xvapde.csvio import fmt, write_rows

from helpers import desk_grid, desk_problem

SPECIAL = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -2.5e-310, 2.2250738585072014e-308,
           1e300, -1e300, 1.7976931348623157e308, 3.0, -42.0, 2.0 ** 53, 1e16, 0.1]

floats = st.one_of(st.sampled_from(SPECIAL), st.floats(allow_nan=True, allow_infinity=True),
                   st.integers(-10 ** 6, 10 ** 6).map(float))


def reference_bytes(header, blocks) -> str:
    """What csv.writer writes for the same rows, each float through fmt."""
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    if header:
        w.writerow(header)
    for lead, table in blocks:
        w.writerows([*lead, *(fmt(v) for v in row)] for row in np.asarray(table, dtype=float))
    return buf.getvalue()


@st.composite
def blocks(draw):
    width = draw(st.integers(1, 6))
    out = []
    for _ in range(draw(st.integers(0, 3))):
        lead = tuple(draw(st.lists(st.sampled_from(["x", "S", "lambda_C", "a b", "50%", ""]),
                                   max_size=2)))
        rows = draw(st.lists(st.lists(floats, min_size=width, max_size=width), max_size=5))
        out.append((lead, np.array(rows, dtype=float).reshape(len(rows), width)))
    return out


@settings(max_examples=200, deadline=None)
@given(header=st.sampled_from([(), ("S", "price"), ("parameter", "value", "S")]),
       blocks=blocks())
def test_rows_are_csv_writer_bytes_of_fmt_strings(tmp_path_factory, header, blocks):
    path = tmp_path_factory.mktemp("csv") / "rows.csv"
    write_rows(path, header, blocks)
    with open(path, newline="") as f:
        assert f.read() == reference_bytes(header, blocks)


def test_sweep_file_with_a_failed_member_and_an_underscored_name(tmp_path):
    res = sweep(desk_problem(grid=desk_grid(n_space=10, n_time=4)), "lambda_C",
                [-0.5, 0.01, 0.02])         # the first member fails
    assert res.variant is ModelVariant.BKTC and list(res.errors) == [-0.5]
    path = tmp_path / "sweep.csv"
    res.to_csv(path)
    rows = [["lambda_C", fmt(v), fmt(s), fmt(p), fmt(c)]
            for v, price, cva in zip(res.values[1:], res.prices[1:], res.cvas[1:])
            for s, p, c in zip(res.spots, price, cva)]
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(
        [["parameter", "value", "S", "price", "cva"], *rows])
    assert path.read_bytes() == buf.getvalue().encode()
    assert len(rows) == 2 * 11
