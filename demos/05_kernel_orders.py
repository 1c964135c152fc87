"""Boundary-layer order estimates for the kernel machinery.

Two quantities control the boundary coupling's accuracy, and both are
measured here on dense fixtures (an equally spaced rim circle and a fine
local surface quadrature), far from any point-cloud noise:

* the scaled rim sum of the twice-integrated kernel approaches the
  constant C_R with an O(delta^2) deviation;
* the coupling normalization approaches delta * C_R with an O(delta^3)
  deviation.
"""

from nlpoisson import emit_lemma_report, lemma_diagnostics

report = lemma_diagnostics("hemisphere2", [0.4, 0.2, 0.1, 0.05])

print(f"C_R = {report.CR:.12f}\n")
print("delta     rim sum       |sum - C_R|   |omega - delta C_R|")
for row in report.rows:
    print(f"{row.delta:5.2f}  {row.boundary_sum:.8f}   {row.boundary_dev:.3e}"
          f"      {row.omega_dev:.3e}")

print(f"\nfitted deviation orders: rim sum {report.boundary_order:.3f} "
      f"(expect ~2), normalization {report.omega_order:.3f} (expect ~3)")

paths = emit_lemma_report(report, "nlpoisson_demo_lemmas")
print(f"wrote {paths[0]} and {paths[1]}")
