"""Second-order central differences: the reference the exact jets are held to.

The package takes every derivative from jets; these differences live here,
beside the tests that compare the two, with the step h always given.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from paraquat import Point
from paraquat.fields import eval_batch

# the step the tests difference with, unless one says otherwise
H = 1e-3


def stencil(centres: Sequence[Point], h: float) -> list[Point]:
    """c + h e_1, c - h e_1, c + h e_2, ... of each centre c, one centre
    after the other, each point on its centre's chart."""
    return [c.shifted(m, s * h) for c in centres for m in range(c.chart.dim) for s in (1, -1)]


def central_difference(
    f: Callable[[list[Point]], Sequence[np.ndarray]], p: Point | Sequence[Point], h: float
) -> np.ndarray:
    """``out[m] = (f(p + h e_m) - f(p - h e_m)) / 2h`` along every coordinate,
    stacked; exact for affine f, O(h^2) otherwise.

    ``f`` gets the whole stencil in one call and returns the values there in
    order, as a list of equal-shape arrays or one stacked array.  ``p`` may
    also be a list of centres of one dimension: the result is then stacked
    per centre, ``out[c, m]``.
    """
    centres = [p] if isinstance(p, Point) else list(p)
    n = centres[0].chart.dim
    F = np.asarray(f(stencil(centres, h)))
    F = F.reshape(len(centres), n, 2, *F.shape[1:])
    out = (F[:, :, 0] - F[:, :, 1]) / (2.0 * h)
    return out[0] if isinstance(p, Point) else out


def fd_gradient(field, p: Point | Sequence[Point], h: float) -> np.ndarray:
    """Central differences of a tensor field's components, ``out[m] = d_m``,
    with the stencil evaluated in one ``eval_batch``."""
    return central_difference(lambda qs: eval_batch(field, qs), p, h)
