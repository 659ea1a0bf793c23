"""Independent dense-grid zero counts for the `degenerate` cases.

The method is that of acceptance criterion 8, kept here so the benchmark
does not depend on the test suite: Newton's method on the real 2x2 system
from every point of a grid of pitch R/400 over [-R, R]^2, accept
|q| <= 1e-10, then greedy deduplication at distance 1e-6 in lexicographic
order.  R is the disk radius quadzero reports for the case.

One change: 400 Newton iterations instead of 60.  At a singular zero
Newton converges only linearly, so after 60 iterations the points headed
for it are still strung out over ~1e-5 with |q| already below 1e-10, and
the 1e-6 deduplication counts them as extra zeros: (1, 1, 4, 2, 1) gives 9
at 60 iterations and 6 at both 200 and 400.  The deduplication is
vectorised; it keeps the same roots as the point-by-point greedy pass.

Regenerate reference.json (takes a few minutes; needs numpy):

    PYTHONPATH=src python3 perfbench/oracle.py > perfbench/reference.json
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))
from workloads import case_key, degenerate_pool  # noqa: E402

ITERATIONS = 400


def oracle_count(params: tuple, radius: float, iterations: int = ITERATIONS) -> int:
    b, c, k, n, m = params
    pitch = radius / 400.0
    xs = np.arange(-radius, radius + 0.5 * pitch, pitch)
    grid_x, grid_y = np.meshgrid(xs, xs)
    z = (grid_x + 1j * grid_y).ravel()
    # A point stops once a step no longer moves it (by 1e-15 relative):
    # further iterations would leave it where it is.
    active = np.arange(z.size)
    for _ in range(iterations):
        w = z[active]
        q = b * w**k + np.conj(w) ** n + c * np.conj(w) ** m + w
        fz = b * k * w ** (k - 1) + 1.0
        fzb = np.conj(n * w ** (n - 1) + c * m * w ** (m - 1))
        jac = np.abs(fz) ** 2 - np.abs(fzb) ** 2
        safe = np.abs(jac) > 1e-14
        step = (fzb * np.conj(q) - np.conj(fz) * q) / np.where(safe, jac, 1.0)
        step = np.where(safe, step, 0.0)
        z[active] = w + step
        moving = np.abs(step) > 1e-15 * (1.0 + np.abs(w))
        active = active[moving & np.isfinite(step)]
        if not active.size:
            break
    q = b * z**k + np.conj(z) ** n + c * np.conj(z) ** m + z
    return distinct_count(z[np.isfinite(z) & (np.abs(q) <= 1e-10)])


def distinct_count(points: np.ndarray, radius: float = 1e-6) -> int:
    """Roots kept by the greedy pass of criterion 8 over lexsorted points.

    The first point left is always the next root the greedy pass would
    keep; dropping everything within `radius` of it leaves exactly the
    points the greedy pass has not yet absorbed.
    """
    left = points[np.lexsort((points.imag, points.real))]
    roots = 0
    while left.size:
        roots += 1
        left = left[np.abs(left - left[0]) > radius]
    return roots


def main() -> int:
    from quadzero import HarmonicQuadrinomial, radius_bound

    counts = {}
    for params in degenerate_pool():
        radius = radius_bound(HarmonicQuadrinomial(*params)).radius
        counts[case_key(params)] = oracle_count(params, radius)
        # Half as many iterations must agree, or the count has not settled.
        settled = oracle_count(params, radius, ITERATIONS // 2)
        print(f"{case_key(params)} R={radius:.6g} -> {counts[case_key(params)]}"
              f" ({settled} at {ITERATIONS // 2} iterations)",
              file=sys.stderr, flush=True)
        if settled != counts[case_key(params)]:
            raise SystemExit(f"oracle count not settled for {case_key(params)}")
    doc = {
        "method": "dense-grid Newton, pitch R/400, 400 iterations, "
                  "accept |q| <= 1e-10, dedup 1e-6",
        "command": "PYTHONPATH=src python3 perfbench/oracle.py > perfbench/reference.json",
        "counts": counts,
    }
    print(json.dumps(doc, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
