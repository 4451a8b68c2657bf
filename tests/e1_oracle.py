"""The E1 power series as an independent oracle for the tests.

E1(x) = -gamma - ln x + sum_{k >= 1} (-1)^{k+1} x^k / (k k!), summed as
first written, with the abs/max stop test.  It is bit-identical to the
library's `specfun._e1_power_series`, the branch of `exp_e1` below
x = 1.5.  Cancellation costs absolute accuracy as x grows: keep x below
~16, where the error is ~9e-12; the value turns negative by x = 25.
"""

import math

from kudla_green.specfun import EULER_GAMMA


def e1_series_reference(x):
    total = 0.0
    term = 1.0
    for k in range(1, 121):
        term *= -x / k
        delta = -term / k
        total += delta
        if abs(delta) < 1e-18 * max(1.0, abs(total)):
            break
    return -EULER_GAMMA - math.log(x) + total
