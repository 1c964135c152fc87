"""Sampling the benchmark manifolds and building quadrature weights.

Each resolution t draws n0 seeded points on the manifold (the last m0 on
its boundary), then assigns every point the measure of its local
tangent-plane Delaunay cell.  The weight sums approximate the exact
surface measures.
"""

import numpy as np

from nlpoisson import build_cloud, get_case, load_cloud_csv, save_cloud_csv

for name, t in (("hemisphere2", 20), ("hemisphere3", 6)):
    case = get_case(name)
    cloud = build_cloud(name, t, seed=1)
    print(f"{name}, t = {t}:")
    print(f"  n0 = {cloud.n0} points, m0 = {cloud.m0} on the boundary, "
          f"delta = {cloud.delta:.4f}")
    print(f"  sum A = {cloud.A.sum():.4f}   exact measure  = {case.volume:.4f}")
    print(f"  sum L = {cloud.L.sum():.4f}   exact boundary = {case.boundary_measure:.4f}"
          + ("  (arc segments)" if cloud.m == 2 else "  (triangle cells)"))
    n = cloud.normals
    print(f"  co-normals: max | |n|-1 | = {np.abs(np.linalg.norm(n, axis=1) - 1).max():.2e}, "
          f"max |n . q| = {np.abs((n * cloud.boundary).sum(1)).max():.2e}")
    print()

# determinism: the same seed reproduces the cloud bit for bit
a = build_cloud("hemisphere2", 10, seed=7)
b = build_cloud("hemisphere2", 10, seed=7)
print("same (case, t, seed) twice -> identical clouds:",
      np.array_equal(a.points, b.points) and np.array_equal(a.A, b.A))

save_cloud_csv(a, "nlpoisson_demo_cloud.csv")
back = load_cloud_csv("nlpoisson_demo_cloud.csv")
print("wrote nlpoisson_demo_cloud.csv; read back, points, A, L and normals "
      "are bit-identical:", all(np.array_equal(getattr(back, k), getattr(a, k))
                                for k in ("points", "A", "L", "normals")))
