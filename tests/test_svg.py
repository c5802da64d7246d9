import re

import numpy as np

from steepen import svg


def test_polyline_points_equal_per_point_float_formula(tmp_path):
    # each point's pixel coordinates as the scalar Python-float formula gives
    # them, non-finite points dropped, printed with two decimals
    rng = np.random.default_rng(3)
    x = np.linspace(-1.5, 4.0, 541)
    series = [(f"s{i}", x, rng.normal(0.0, 10.0 ** i, x.size)) for i in range(-2, 4)]
    series[1][2][[0, 7, 100]] = [np.nan, np.inf, -np.inf]
    series.append(("", [0.25, np.nan, 3.0], [-0.0, 1.0, 2.0]))
    path = tmp_path / "plot.svg"
    svg.line_plot(path, series)

    finite = [(float(a), float(b)) for _, xs, ys in series for a, b in zip(xs, ys)]
    x_lo = min(a for a, _ in finite if np.isfinite(a))
    x_hi = max(a for a, _ in finite if np.isfinite(a))
    ys = [b for _, b in finite if np.isfinite(b)]
    pad = 0.05 * (max(ys) - min(ys))
    y_lo, y_hi = min(ys) - pad, max(ys) + pad
    expected = []
    for _, xs, ys in series:
        pts = [
            f"{70 + (a - x_lo) / (x_hi - x_lo) * 630:.2f},"
            f"{430 - (b - y_lo) / (y_hi - y_lo) * 390:.2f}"
            for a, b in zip(map(float, xs), map(float, ys))
            if np.isfinite(a) and np.isfinite(b)
        ]
        expected.append(" ".join(pts))
    assert re.findall(r'points="([^"]*)"', path.read_text()) == expected
