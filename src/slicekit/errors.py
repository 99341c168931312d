"""Exception hierarchy shared across the package."""


class SliceKitError(Exception):
    """Base class for all slicekit errors; keyword arguments become attributes carrying its context."""

    def __init__(self, *args, **context):
        super().__init__(*args)
        vars(self).update(context)


class ZeroDivisor(SliceKitError):
    """Inversion of a (near-)zero quaternion."""


class ShapeMismatch(SliceKitError):
    """Incompatible matrix / vector shapes."""


class Singular(SliceKitError):
    """Matrix has no two-sided inverse: `rank` fell short, `margin` s_min/s_max was not above `tolerance`."""

    rank = margin = tolerance = None


class NotIndependent(SliceKitError):
    """Slice-unit matrix is not left slice-linearly independent; an inversion sets `rank`, `margin`, `tolerance`."""

    rank = margin = tolerance = None


class IndexOutOfRange(SliceKitError):
    """Basis or unit-product index outside 1..2**N."""


class NonRealJunction(SliceKitError):
    """Multi-part path whose segments do not meet on the real axis."""


class DisconnectedSegments(SliceKitError):
    """Consecutive path segments with mismatched endpoints."""


class OutOfRange(SliceKitError):
    """Path parameter outside [0, 1]."""


class LengthMismatch(SliceKitError):
    """Unit tuple length does not match the path's part count."""


class BranchPoint(SliceKitError):
    """Attempt to start a branched model at its branch point."""


class BranchPointCrossing(SliceKitError):
    """Continuation passes through a branch point: `clearance` did not exceed `tolerance`.

    `segment` is the part of a continued path that crossed, and `point` the
    disk point whose closing line crossed; each is None where it does not apply.
    """

    clearance = tolerance = segment = point = None


class NotAtRealPoint(SliceKitError):
    """Slice switch requested away from the real axis."""


class KeysDiffer(SliceKitError):
    """Paths claimed to reach one point have distinct germ keys, held in `keys`."""

    keys = None


class IncompatibleSupports(SliceKitError):
    """Stem systems with different path sets, radii or grids."""


class OutOfDomain(SliceKitError):
    """Evaluation point outside a stem function's disk."""


class OutOfBall(SliceKitError):
    """Series evaluation outside its ball of validity."""


class NonFiniteResult(SliceKitError):
    """Finite input gave a non-finite result (overflow to inf or NaN); `index` is its first non-finite coefficient."""

    index = None


class SymmetrizationZero(SliceKitError):
    """Symmetrization vanishes somewhere on the requested domain, at `witness`."""

    witness = None
