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

reduced_median = {t: median for t, _, median in reduced.medians()}
print("t      delta    e2 (full, median)   e2 (reduced, median)")
for t, delta, median in full.medians():
    print(f"{t:3d}  {delta:8.4f}   {median:12.5f}        "
          f"{reduced_median[t]:12.5f}")

print(f"\nfitted slopes: full {full.slope:.3f}, reduced {reduced.slope:.3f}")
print(f"error ratio at the finest resolution: "
      f"{median / reduced_median[t]:.3f}")

paths = emit_report(full, "nlpoisson_demo_converge")
print(f"\nwrote {paths[0]} and {paths[1]}")
