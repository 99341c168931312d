"""Every numerical cut-off of slicekit, one line each saying what the constant decides.

The per-check tolerances of the seeded suites stay beside their checks in `checks.py`, which prints them.
"""

# quaternions and matrices
TOL = 1e-12  # a quaternion of norm at most this is zero: quat_inverse refuses it
UNIT_TOL = 1e-9  # a unit within this of norm 1 is renormalised; a real part above it is rejected
RANK_CUTOFF = 1e-10  # singular values at most this times the largest do not count towards a rank
# paths
JUNCTION_TOL = 1e-9  # segments connect, and a junction lies on the real axis, within this
PARAMETER_TOL = 1e-12  # t * N within this of a whole number puts the path parameter t on a junction
# continuation
BRANCH_TOL = 1e-9  # a segment within this of the origin crosses the branch point of a branched model
REAL_TOL = 1e-9  # a point whose imaginary part (or sin of its argument) is within this is real
START_TOL = 1e-9  # a path starts at the expected x0, and anchor paths share one start, within this
SEGMENT_START_TOL = 1e-7  # a segment starts where the state sits within this times max(1, |z|)
GERM_TOL = 1e-9  # two germ keys name one point when their points and values agree within this
VALUE_TOL = 1e-8  # values continued along two routes agree, so the model extends, within this
# stems
FD_STEP = 1e-5  # step of the central differences: Cauchy-Riemann residual and series routes
DISK_RIM_TOL = 1e-12  # z is in a stem's disk if |z - center| <= radius * (1 + this)
AT_CENTER_TOL = 1e-15  # a disk point within this of the centre takes the end states as they are
SUPPORT_TOL = 1e-12  # two stem systems combine only if their initial points agree within this
HOLOMORPHY_TOL = 1e-6  # holomorphy bound on the worst Cauchy-Riemann residual of closed-form stems
GRID_HOLOMORPHY_TOL = 5e-2  # holomorphy bound when a stem is grid-backed (residual from grid neighbours)
OVERLAP_TOL = 1e-8  # local compatibility: stems of one part agree on their disk overlap within this
AXIAL_TOL = 1e-9  # axial compatibility: a zero-padded stem agrees on the real axis within this
INITIAL_TOL = 1e-9  # initial compatibility: the stems at t = 0 are one real germ within this
# calculus
SYMMETRIZATION_ZERO_TOL = 1e-9  # a symmetrization this small (all coefficients, or at a probe) is zero
ON_AXIS_TOL = 1e-15  # a quaternion whose imaginary part has norm below this lies on the real axis
