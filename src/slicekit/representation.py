"""The representation formula and its invariant coefficient vector.

Evaluating a continued function along the 2**N reference lifts of a path and
hitting the value column with the inverse slice matrix produces a vector that
does not depend on which left slice-linearly independent unit matrix was
used.  The function's value at any other lift is then a plain row-by-column
contraction with the target units' zeta row.

The lifts of one path share its track, so the vectors of several unit
matrices on one path take their value columns from one `final_states` call:
the path is continued once and the lifts carry only their units and data.
The extendability check reads every route's germ key and value off the same
array path, one lift per route.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import KeysDiffer, LengthMismatch, NotIndependent, Singular
from .monodromy import GermKey, SliceFunctionModel, evaluate_lifted, final_states, germ_key, lift_values
from .paths import NPartPath
from .qmat import qmat_inverse
from .quat import Quaternion
from .sliceunits import SliceUnitMatrix, slice_matrix, zeta
from .stemtensor import StemValue
from .tolerances import VALUE_TOL


def representation_vectors(
    model: SliceFunctionModel,
    path: NPartPath,
    matrices: Sequence[SliceUnitMatrix],
    x0: float | None = None,
) -> list[StemValue]:
    """`representation_vector` of every unit matrix, the rows of all of them continued in one call.

    Every matrix is checked and inverted before the path is continued.
    """
    inverses = []
    for j in matrices:
        if j.N != path.parts:
            raise LengthMismatch(f"{path.parts}-part path against an order-{j.N} unit matrix")
        try:
            inverses.append(qmat_inverse(slice_matrix(j)))
        except Singular as exc:
            margins = {"rank": exc.rank, "margin": exc.margin, "tolerance": exc.tolerance}
            raise NotIndependent("unit matrix is left slice-linearly dependent", **margins) from exc
    values = lift_values(model, final_states(model, path, [row for j in matrices for row in j.rows], x0))
    size = 1 << path.parts
    vectors = []
    for k, inverse in enumerate(inverses):
        column = inverse.apply_column(values[None, k * size : (k + 1) * size])[0]
        vectors.append(StemValue(path.parts, tuple(Quaternion(*q) for q in column.tolist())))
    return vectors


def representation_vector(
    model: SliceFunctionModel,
    path: NPartPath,
    j: SliceUnitMatrix,
    x0: float | None = None,
) -> StemValue:
    """Invariant vector M(J)**-1 applied to the column of lifted values."""
    return representation_vectors(model, path, [j], x0)[0]


def evaluate_via_formula(g: StemValue, units: Sequence[Quaternion]) -> Quaternion:
    """zeta(K) contracted against the vector: the value at the K-lift."""
    if len(units) != g.N:
        raise LengthMismatch(f"vector of order {g.N} contracted with {len(units)} units")
    return sum((coeff * entry for coeff, entry in zip(zeta(units), g.entries)), Quaternion())


def invariance_check(
    model: SliceFunctionModel,
    path: NPartPath,
    j1: SliceUnitMatrix,
    j2: SliceUnitMatrix,
    x0: float | None = None,
) -> float:
    """Max entrywise deviation between the vectors from two unit matrices."""
    g1, g2 = representation_vectors(model, path, [j1, j2], x0)
    return (g1 - g2).max_norm()


@dataclass(frozen=True)
class ExtendabilityReport:
    verdict: str  # "extendable" | "obstructed"
    values: tuple[Quaternion, ...]
    keys: tuple[GermKey, ...]
    witness: tuple[Quaternion, Quaternion] | None

    @property
    def extendable(self) -> bool:
        return self.verdict == "extendable"


def extendability_check(
    model: SliceFunctionModel,
    reached: Sequence[tuple[NPartPath, Sequence[Quaternion]]],
    equivalence_model: SliceFunctionModel,
) -> ExtendabilityReport:
    """Do several routes to one point of the equivalence domain agree?

    All (path, units) pairs must name a single point of the domain carved out
    by `equivalence_model` (equal germ keys), otherwise KeysDiffer.  The
    verdict is "extendable" when `model`'s values along all routes agree, and
    "obstructed" with the first conflicting pair as witness otherwise.
    """
    keys = []
    values = []
    for path, units in reached:
        keys.extend(germ_key(equivalence_model, final_states(equivalence_model, path, [units])))
        values.append(evaluate_lifted(model, path, units))
    for other in keys[1:]:
        if not keys[0].isclose(other):
            raise KeysDiffer(f"germ keys disagree: {keys[0]} vs {other}", keys=(keys[0], other))
    for i in range(len(values)):
        for j in range(i + 1, len(values)):
            if (values[i] - values[j]).norm() > VALUE_TOL:
                return ExtendabilityReport("obstructed", tuple(values), tuple(keys), (values[i], values[j]))
    return ExtendabilityReport("extendable", tuple(values), tuple(keys), None)
