#!/usr/bin/env python3
"""Solve the order conditions of braggsim's PP56 splitting pair.

    python3 tools/splitting_roots.py [--stages 8] [--starts 2000] [--seed 0]

A member A(a_1) B(b_1) ... A(a_s) B(b_s) with b = reversed(a) is of order
5 when log of its product, in the free Lie algebra of A and B, equals
A + B up to words of degree 5.  Its coefficients on the Lyndon words of
degree <= 5 (14 of them) are the order conditions; the palindromic
symmetry leaves 8 independent ones.  The log is taken in the algebra of
noncommutative polynomials truncated at degree 5.

Gauss-Newton runs from seeded random starts, all starts at once in
float64.  The distinct real roots are printed by increasing sum |a_i|, and
the first is polished by Newton steps at 50 digits (mpmath numbers in
object arrays) and printed to 30 digits.
"""
from __future__ import annotations

import argparse
import itertools

import mpmath as mp
import numpy as np

DEG = 5
WORDS = [""] + ["".join(w) for n in range(1, DEG + 1) for w in itertools.product("AB", repeat=n)]
IDX = {w: i for i, w in enumerate(WORDS)}
# (i, j, k): word i times word j is word k, for every product of degree <= DEG
PAIRS = np.array([(IDX[u], IDX[v], IDX[u + v]) for u in WORDS for v in WORDS
                  if len(u) + len(v) <= DEG])
SCATTER = np.zeros((len(WORDS), len(PAIRS)))
SCATTER[PAIRS[:, 2], np.arange(len(PAIRS))] = 1.0
LYNDON = [IDX[w] for w in WORDS[1:] if all(w < w[i:] + w[:i] for i in range(1, len(w)))]


def _mul(x, y):
    """Truncated products of the algebra elements in the columns of x and y."""
    return SCATTER @ (x[PAIRS[:, 0]] * y[PAIRS[:, 1]])


def _exp(letter, c):
    v = np.zeros((len(WORDS), c.shape[0]), c.dtype)
    f = np.ones_like(c)
    for k in range(DEG + 1):
        v[IDX[letter * k]] = f
        f = f * c / (k + 1)
    return v


def residuals(a):
    """The 14 Lyndon coefficients of log(member) minus those of A + B, one column
    per column of a, shape (stages, n), float64 or mpmath objects."""
    m = np.zeros((len(WORDS), a.shape[1]), a.dtype)
    m[0] = 1
    for ai, bi in zip(a, a[::-1]):
        m = _mul(_exp("B", bi), _mul(_exp("A", ai), m))
    x = m.copy()
    x[0] = 0
    log, p = 0 * x, x
    for k in range(1, DEG + 1):
        log = log + p * ((-1) ** (k + 1) / k)
        p = _mul(p, x)
    r = log[LYNDON]
    r[:2] -= 1       # the words A and B
    return r


def _jacobian(a, r, eps):
    """Forward differences, shape (n, 14, stages)."""
    cols = []
    for j in range(a.shape[0]):
        d = a.copy()
        d[j] = d[j] + eps
        cols.append((residuals(d) - r) / eps)
    return np.transpose(np.array(cols), (2, 1, 0))


def search(stages, starts, seed):
    """Distinct real roots (rows) found by batched Gauss-Newton, by increasing sum |a|."""
    rng = np.random.default_rng(seed)
    scale = np.where(np.arange(starts) % 2, 0.6, 0.3)
    a = rng.normal(size=(stages, starts)) * scale + 1.0 / stages
    for _ in range(80):
        r = residuals(a)
        jac = _jacobian(a, r, 1e-7)
        jt = np.transpose(jac, (0, 2, 1))
        step = -(np.linalg.pinv(jt @ jac, rcond=1e-13) @ (jt @ r.T[:, :, None]))[:, :, 0].T
        a = a + step * np.minimum(1.0, 0.5 / np.maximum(np.linalg.norm(step, axis=0), 1e-300))
        a[:, ~np.isfinite(a).all(axis=0)] = 0.0
    good = a[:, np.linalg.norm(residuals(a), axis=0) < 1e-11].T
    roots = []
    for root in good[np.argsort(np.abs(good).sum(axis=1))]:
        if not any(np.max(np.abs(root - other)) < 1e-7 for other in roots):
            roots.append(root)
    return roots


def polish(root, digits=50):
    """Least-squares Newton steps on the 14 residuals at the given precision."""
    mp.mp.dps = digits
    a = np.array([[mp.mpf(float(v))] for v in root], dtype=object)
    for _ in range(8):
        r = residuals(a)
        jac = _jacobian(a, r, mp.mpf(10) ** (-digits // 2))[0]
        step, _ = mp.qr_solve(mp.matrix(jac.tolist()), -mp.matrix(r[:, 0].tolist()))
        a = a + np.array(step.tolist(), dtype=object)
    return a[:, 0], max(abs(v) for v in residuals(a)[:, 0])


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--stages", type=int, default=8)
    ap.add_argument("--starts", type=int, default=2000)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    roots = search(args.stages, args.starts, args.seed)
    print(f"{len(roots)} distinct real roots at {args.stages} stages")
    for root in roots:
        print(f"sum|a| {np.abs(root).sum():.4f}  a =",
              np.array2string(root, precision=4, max_line_width=200))
    if roots:
        a, res = polish(roots[0])
        print(f"smallest sum|a|, polished (max residual {mp.nstr(res, 3)}):")
        for v in a:
            print(f"    {mp.nstr(v, 30)},")


if __name__ == "__main__":
    main()
