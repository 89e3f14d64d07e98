"""Full-sort reference for ``crosstok.losses._rank_l1``.

The rank-sorted L1 that ordered every uncommon student id with one stable
``argsort``, kept as the slow reference the top-m selection is
property-tested against. Equal student values rank by the smaller id.
"""

from __future__ import annotations

import numpy as np

from crosstok.losses import _logit_grad


def reference_rank_l1(pt, ps, u_s: np.ndarray, u_t: np.ndarray, grads: bool):
    if grads:
        ranked = u_s[np.argsort(-ps[u_s], kind="stable")]
        s_sorted = ps[ranked]
    else:
        s_sorted = np.sort(ps[u_s])[::-1]
    t_sorted = np.sort(pt[u_t])[::-1]
    diff = np.zeros(max(s_sorted.size, t_sorted.size))
    diff[: s_sorted.size] = s_sorted
    diff[: t_sorted.size] -= t_sorted
    value = float(np.abs(diff).sum())
    if not grads:
        return value, None
    grad_p = np.zeros(ps.size)
    grad_p[ranked] = np.sign(diff[: s_sorted.size])
    return value, _logit_grad(ps, grad_p)
