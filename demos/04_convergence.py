"""Convergence study: the boundary coupling buys about one order.

Runs the cap benchmark across resolutions with and without the boundary
terms and fits log-log slopes of the median error against the horizon.
The full model tracks roughly delta^2.5; the reduced one lags near
first order and plateaus an order of magnitude higher.
"""

from nlpoisson import HarnessOptions, convergence_study, emit_report

T_LIST = [5, 10, 15, 20, 30]   # extend to 40+ for the paper-scale picture

full = convergence_study("hemisphere2", T_LIST, seeds=3,
                         options=HarnessOptions(mode="full"))
reduced = convergence_study("hemisphere2", T_LIST, seeds=3,
                            options=HarnessOptions(mode="reduced"))

print("t      delta    e2 (full, median)   e2 (reduced, median)")
for t in T_LIST:
    rf = sorted(r.e2 for r in full.rows if r.t == t)[1]
    rr = sorted(r.e2 for r in reduced.rows if r.t == t)[1]
    delta = next(r.delta for r in full.rows if r.t == t)
    print(f"{t:3d}  {delta:8.4f}   {rf:12.5f}        {rr:12.5f}")

print(f"\nfitted slopes: full {full.slope:.3f}, reduced {reduced.slope:.3f}")
print(f"error ratio at the finest resolution: "
      f"{sorted(r.e2 for r in full.rows if r.t == T_LIST[-1])[1] / sorted(r.e2 for r in reduced.rows if r.t == T_LIST[-1])[1]:.3f}")

paths = emit_report(full, "nlpoisson_demo_converge")
print(f"\nwrote {paths[0]} and {paths[1]}")
