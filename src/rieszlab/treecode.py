"""Hierarchical treecode acceleration of the kernel summation.

The tree is measure.SpatialTree, the median-split tree with tight per-node
bounding boxes that ball sums walk too.  Far nodes (radius / distance below
the opening angle) contribute a truncated far-field expansion: a single
monopole evaluation at the weighted centroid in the generic case, or a power
series of configurable order for the planar n=1 kernel, which maps to the
complex function 1/(z - zeta).  Each reads only its own node moments,
from the one upward pass of measure._node_sums: plain sums of fw for the
monopole; for the series, each point's expansion shifted to its leaf's
centroid and each child's to its parent's.

Interaction with the eps-truncation: a far node lies wholly beyond eps,
and a node that reaches within eps of the target is opened, so the leaf
sums apply the mode's rule at every point within eps, exactly as the
direct sum does.  In truncated mode, a node wholly within eps is skipped
instead, as its exact contribution is zero.

The traversal is one loop in _traverse, vectorized over (target, node)
pairs and walking the tree level by level from the root.  Each pass
classifies every live pair at once as far, a near leaf, skipped, or to
be opened, and the opened pairs' children, left before right, form the
next level.  The eps tests are those of the nodes' box bounds,
measure._box_dist2, but most pairs are settled from the centroid
distance that the opening test takes anyway: beyond radius + eps of the
centroid a node lies wholly beyond eps, and beyond eps part of it does.
Only the pairs these cuts leave open, near the eps sphere, gather their
boxes, and every decision is the one the box bounds make.  Near leaves
are summed directly from padded leaf tables, built once per apply from
measure._leaf_rows, with the squared-distance rule of
kernels.kernel_sum, measure._sq_norm.  Targets are processed in
fixed-size chunks, which bounds the size of the pair lists; the caller
and, on two or more CPUs, one helper thread take chunks from one shared
queue until it is empty.  Each target's contributions are accumulated in
an order fixed by its own walk alone, and each chunk writes only its own
rows, so results are bit-reproducible and independent of which other
targets share the call and of which thread ran their chunk.

The walk reads only the live columns of the tree and the targets
(measure._live_axes, the rule of kernels.kernel_sum and the norm operator);
the dead columns of the result are exactly 0, and the live ones keep their
bits where a dead axis's value is 0 (elsewhere centroids may round off it).
"""

from __future__ import annotations

import math
import os
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from functools import partial, reduce
from typing import Callable, NamedTuple

import numpy as np

from rieszlab.measure import DiscreteMeasure, SpatialTree, _build_spatial_tree, _count, _live_axes
from rieszlab.measure import _LEAF_BLOCK, _box_dist2, _boxes, _leaf_rows, _node_sums, _sq_norm  # the tree engine
from rieszlab.kernels import TRUNCATED, KernelConfig, _check_density, _coef_from_r2, _inv_power, riesz_apply

_TARGET_CHUNK = 2048  # targets per traversal chunk; the caller and one helper thread each hold one


@dataclass(frozen=True)
class TreecodeParams:
    """Opening angle in (0, 1), leaf capacity, and far-field expansion order."""

    opening_angle: float = 0.3
    leaf_cap: int = 32
    expansion_order: int = 0

    def __post_init__(self):
        if not 0.0 < self.opening_angle < 1.0:
            raise ValueError("opening_angle must lie in (0, 1)")
        for name, least in (("leaf_cap", 1), ("expansion_order", 0)):
            object.__setattr__(self, name, _count(name, getattr(self, name), least))


def build_tree(mu: DiscreteMeasure, params: TreecodeParams) -> SpatialTree:
    """Median-split tree with params.leaf_cap points per leaf."""
    return _build_spatial_tree(mu.points, mu.weights, params.leaf_cap)


# ---------------------------------------------------------------------------
# far fields
# ---------------------------------------------------------------------------


def _planar_z(rel: np.ndarray, live) -> np.ndarray:
    """x1 + i x2 from rel's columns, the live ones of the two axes; a dead one's coordinate is 0."""
    return (rel[:, 0] if live[0] else 0.0) + 1j * (rel[:, -1] if live[1] else 0.0)


def _planar_shift(order: int, moments: np.ndarray, delta: np.ndarray, live=(True, True)) -> np.ndarray:
    """Complex moments sum fw (zeta - c)^m, m <= order, re-centered on c - delta.

    The multipole-to-multipole shift of Greengard & Rokhlin (J. Comput.
    Phys. 73, 1987): M'_m = sum_k C(m, k) M_k delta^(m - k).  Columns
    missing from `moments`, such as all but M_0 = fw for a point, are zero.
    """
    dz = _planar_z(delta, live)
    powers = np.cumprod(np.column_stack([np.ones_like(dz)] + [dz] * order), axis=1)
    out = np.zeros((dz.size, order + 1), dtype=np.complex128)
    for k in range(moments.shape[1]):
        binom = [math.comb(m, k) for m in range(k, order + 1)]
        out[:, k:] += moments[:, k, None] * binom * powers[:, : order + 1 - k]
    return out


def _monopole(s0: np.ndarray, n: int, rel: np.ndarray, dist2: np.ndarray, nodes: np.ndarray) -> np.ndarray:
    """Generic (n, d) far field: the node's total weight at its centroid."""
    return rel.T * (s0[nodes] * _inv_power(dist2, n))


def _planar_series(planes: np.ndarray, live, rel: np.ndarray, dist2: np.ndarray, nodes: np.ndarray) -> list:
    """Planar n=1 far field: the power series of 1/(z - zeta) about the centroid.

    The kernel x / |x|^2 is conj(1 / z) for z = x1 + i x2, so a node
    contributes sum_m M_m / (z - c)^(m+1) with the moments
    M_m = sum fw (zeta - c)^m, read from the node-major planes[m]; it
    returns the live ones of the components (Re, -Im).
    """
    inv = 1.0 / _planar_z(rel, live)
    acc = np.take(planes[-1], nodes)
    for plane in planes[-2::-1]:  # Horner in 1 / (z - c), in place
        acc *= inv
        acc += np.take(plane, nodes)
    acc *= inv
    return [c for c, a in zip((acc.real, -acc.imag), live) if a]


# ---------------------------------------------------------------------------
# traversal
# ---------------------------------------------------------------------------


def _accumulate(out: np.ndarray, rows: np.ndarray, values) -> None:
    """out[a, rows[i]] += values[a][i] for each component a, added in array order."""
    for acc, vals in zip(out, values):
        acc += np.bincount(rows, weights=vals, minlength=acc.size)


class _Walk(NamedTuple):
    """What every target chunk's traversal reads, built once per apply by _walk."""

    tree: SpatialTree  # points, boxes and centroids cut to the live columns
    cfg: KernelConfig
    theta: float
    far: Callable  # far(rel, dist2, nodes): by component, the nodes' far fields at offsets rel from their centroids
    leaf_col: np.ndarray  # (M,) each leaf's column in planes
    planes: list  # the live coordinate planes, then the fw plane, each (width, leaves)
    beyond2: np.ndarray  # (M,) centroid dist2 above which the node lies wholly beyond eps
    reach2: float  # centroid dist2 above which part of any node lies beyond eps


def _walk(mu: DiscreteMeasure, f: np.ndarray, cfg: KernelConfig, tree: SpatialTree, params: TreecodeParams, live) -> _Walk:
    """Far fields, padded leaf tables and centroid cuts for one apply, on
    the live axes (a (d,) mask), to which its targets must be cut too.

    The leaf tables hold each leaf's points, padded to the widest leaf
    with copies of its first point at fw 0, as (width, leaves) planes.

    The centroid cuts decide a (target, node) pair's eps tests from
    |t - c| alone where that gives the answer the box bounds of _box_dist2
    would give.  The box lies in the ball of radius tree.radius about the
    centroid c, so when |t - c| > radius + eps every box point lies beyond
    eps.  The centroid lies in the box, up to the rounding of its sums
    (`outside`), so when |t - c| > eps + outside some box point does.  The
    relative slack of 1e-9 dwarfs the rounding of every squared distance
    involved, and the absolute 1e-150 covers the subnormal range, where
    squares round absolutely.  Regularized mode skips no node, so there
    every pair reaches beyond eps.
    """
    if not live.all():  # the radii keep every axis: bounds all the same
        tree = replace(tree, **{k: getattr(tree, k)[:, live] for k in ("points", "box_lo", "box_hi", "centroid")})
    fw = (f * mu.weights)[tree.perm]
    if mu.ambient_dim == 2 and cfg.n == 1:
        moments = _node_sums(tree, fw[:, None], partial(_planar_shift, params.expansion_order, live=live))
        far = partial(_planar_series, np.ascontiguousarray(moments.T), live)
    elif params.expansion_order > 0:
        raise NotImplementedError(
            "expansion orders above 0 are implemented for the planar n=1 kernel only"
        )
    else:
        far = partial(_monopole, _node_sums(tree, fw), cfg.n)
    is_leaf = tree.left < 0
    leaves = np.flatnonzero(is_leaf)
    idx, valid = (a.T for a in _leaf_rows(tree, leaves, int((tree.end - tree.start)[leaves].max())))
    planes = [np.ascontiguousarray(pc[idx]) for pc in tree.points.T] + [np.where(valid, fw[idx], 0.0)]
    eps = cfg.epsilon
    outside = max(0.0, np.max(tree.box_lo - tree.centroid), np.max(tree.centroid - tree.box_hi))
    reach = (eps + outside * math.sqrt(tree.points.shape[1])) * (1 + 1e-9) + 1e-150
    beyond2 = np.square((tree.radius + eps) * (1 + 1e-9) + 1e-150)
    reach2 = reach * reach if cfg.mode == TRUNCATED else -np.inf
    return _Walk(tree, cfg, params.opening_angle, far, np.cumsum(is_leaf) - 1, planes, beyond2, reach2)


def _near_leaves(walk: _Walk, targets: np.ndarray, leaves: np.ndarray) -> np.ndarray:
    """Direct sums of fw * K(t - y) over each (target, leaf) pair, one row per component.

    A block gathers its leaves' columns of the padded leaf tables, at most
    _LEAF_BLOCK entries; r2 and the eps comparison are computed exactly as
    in kernels.kernel_sum, and the padding adds terms of fw 0.  Each pair's
    terms are added one at a time in leaf order, from +0.0, whatever the
    block layout.
    """
    *coords, fw = walk.planes
    cols = walk.leaf_col[leaves]
    out = np.empty((len(coords), cols.size))
    per_block = max(1, _LEAF_BLOCK // fw.shape[0])
    for p0 in range(0, cols.size, per_block):
        rows = slice(p0, p0 + per_block)
        block = cols[rows]
        diff = [tc[None, rows] - np.take(pc, block, axis=1) for tc, pc in zip(targets.T, coords)]
        cw = _coef_from_r2(_sq_norm(diff), walk.cfg) * np.take(fw, block, axis=1)
        for a, plane in enumerate(diff):
            plane *= cw
            if plane.shape[1] > 1:  # row by row along axis 0
                np.add.reduce(plane, axis=0, out=out[a, rows], initial=0.0)
            else:  # np.add.reduce would sum one column pairwise
                out[a, rows] = reduce(float.__add__, plane[:, 0].tolist(), 0.0)
    return out


def _traverse(walk: _Walk, targets: np.ndarray) -> np.ndarray:
    """Sum fw * K(t - y) over the tree for one chunk of live-column targets, by component.

    A node is far when it lies wholly beyond eps and its radius is below
    theta times the target's distance to its centroid; in truncated mode a
    node wholly within eps is skipped.  Both eps tests are those of the
    box bounds, but the centroid cuts settle most pairs, and only the
    pairs they leave open gather their boxes.
    """
    tree = walk.tree
    eps2 = walk.cfg.epsilon * walk.cfg.epsilon
    is_leaf = tree.left < 0
    out = np.zeros(targets.shape[::-1])
    tgt, node = np.arange(targets.shape[0]), np.zeros(targets.shape[0], dtype=np.int64)
    while tgt.size:  # one level of (target, node) pairs, each target's in its walk's order
        t = np.take(targets, tgt, axis=0)
        rel = t - np.take(tree.centroid, node, axis=0)
        dist2 = np.einsum("pd,pd->p", rel, rel)
        # far nodes lie beyond eps, so their centroid distances are positive
        separated = tree.radius[node] ** 2 < walk.theta * walk.theta * dist2
        beyond, reaches = dist2 > walk.beyond2[node], dist2 > walk.reach2
        # a cut's yes stands, and the box bounds decide the rest: squared
        # distance bounds rounded like the leaf sums' r2, so that inside and
        # beyond eps agree with the direct r2 > eps2 cut
        check = np.flatnonzero((separated & ~beyond) | ~reaches)
        tc = t[check]
        dmin2, dmax2 = _box_dist2(tc, tc, *_boxes(tree, node[check]))
        beyond[check] |= dmin2 > eps2
        reaches[check] |= dmax2 > eps2
        far_mask = beyond & separated
        f = np.flatnonzero(far_mask)
        _accumulate(out, tgt[f], walk.far(rel[f], dist2[f], node[f]))
        # the truncated kernel vanishes on a node wholly within eps: skip it
        near = ~far_mask & reaches
        leaf = np.flatnonzero(near & is_leaf[node])
        opened = np.flatnonzero(near & ~is_leaf[node])
        # room for the leaf blocks: this level's classification is done
        del t, rel, dist2, separated, beyond, reaches, check, tc, dmin2, dmax2, far_mask, f, near
        _accumulate(out, tgt[leaf], _near_leaves(walk, np.take(targets, tgt[leaf], axis=0), node[leaf]))
        tgt = np.repeat(tgt[opened], 2)
        node = np.column_stack([tree.left[node[opened]], tree.right[node[opened]]]).ravel()
    return out


def treecode_apply(
    mu: DiscreteMeasure,
    f,
    cfg: KernelConfig,
    tree: SpatialTree,
    params: TreecodeParams,
    targets,
) -> np.ndarray:
    """Hierarchical evaluation of the transform at the given targets.

    A single-leaf tree delegates to the direct summation, so that case is
    identical to riesz_apply by construction.  The tree must be built on
    mu's points (ValueError otherwise).  The target chunks are drained by
    the caller and at most one helper thread, when the process may use two
    CPUs; the result does not depend on which thread ran a chunk, and an
    error in either thread is raised here once both have stopped.
    """
    f, targets = _check_density(mu, f, targets)
    if tree.points.shape != mu.points.shape or not np.array_equal(tree.points, mu.points[tree.perm]):
        raise ValueError("tree was not built on the measure's points")
    if tree.n_nodes == 1:
        return riesz_apply(mu, f, cfg, targets)
    live = _live_axes(mu.points, targets)
    walk = _walk(mu, f, cfg, tree, params, live)
    out = np.zeros(targets.shape)
    chunks = iter([slice(t0, t0 + _TARGET_CHUNK) for t0 in range(0, targets.shape[0], _TARGET_CHUNK)])

    def drain():  # each chunk writes its own rows of out alone
        try:
            for chunk in chunks:
                out[chunk, live] = _traverse(walk, targets[chunk][:, live]).T
        except BaseException:
            deque(chunks, maxlen=0)  # leave the other thread no chunk to start
            raise

    if len(os.sched_getaffinity(0)) < 2 or targets.shape[0] <= _TARGET_CHUNK:
        drain()
        return out
    with ThreadPoolExecutor(1) as pool:
        helper = pool.submit(drain)
        drain()
        helper.result()
    return out
