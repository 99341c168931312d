"""The four slicekit benchmark workloads.

Each workload turns the run seed into a fixed pool of units whose input files
sit in a temporary directory; the program sees only those files and argv.
The pool repeats a fixed cycle of unit kinds and sizes, the same for every
seed; only the seeded values differ. The timed loop walks the pool in order
and stops at a cycle boundary, so every run executes the same mix.
References are computed outside the timed calls.

A workload provides:

- ``pool``: the unit specs, and ``cycle``, the number of units in one full mix;
- ``trace_units``: how many units of the pool the traced run executes;
- ``bind(sk)``: in-memory inputs built with the given slicekit modules;
- ``prepare(sk)``: references for the pool, computed after set-up;
- ``run_unit(sk, spec)``: one timed unit, returning its raw outputs;
- ``check(spec, out)``: the unit's worst deviation over its pinned tolerance
  (``inf`` for a wrong exit code or a mismatch; above 1 means failed).
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from pathlib import Path

import numpy as np

#: the pinned tolerances the outputs are checked against
VALUE_TOL = 1e-9  # repformula value against monodromy.evaluate_lifted
INVARIANCE_TOL = 1e-8  # repformula invariance_dev
STAR_TOL = 1e-12  # star_vector and starprod against the references

#: star_vector is checked against slicekit's oracle up to this N and against
#: kron_star_reference above it: the oracle's least-squares basis grows as
#: 16**N, and at N = 5 it alone lifts this process's peak RSS from about 42 to
#: 74 MB, which would hide the program's own memory in peak_rss_mb
ORACLE_MAX_N = 4


def call_cli(cli, argv: list[str]) -> tuple[int, str]:
    """``slicekit.cli.main(argv)`` in-process, with stdout captured."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def _loop_path(sk, parts: int):
    """N-part loop: the upper half circle out to -1, back, out again, ..."""
    up = sk.paths.half_turns(1)
    return sk.paths.make_npart_path([up if k % 2 == 0 else up.reversed() for k in range(parts)])


def _unit_vector(rng: np.random.Generator) -> list[float]:
    v = rng.standard_normal(3)
    return [float(c) for c in v / np.linalg.norm(v)]


class Workload:
    """Defaults for workloads whose inputs need no binding and no references."""

    def bind(self, sk) -> None:
        pass

    def prepare(self, sk) -> None:
        pass


class CheckAll(Workload):
    """``slicekit check --suite all`` with a seed derived from the run seed."""

    name = "check_all"
    cycle = 1
    trace_units = 2

    def __init__(self, sk, seed: int, tmp: Path):
        rng = np.random.default_rng(seed)
        self.pool = [int(s) for s in rng.integers(0, 2**31 - 1, size=64)]

    def run_unit(self, sk, s: int):
        return call_cli(sk.cli, ["check", "--suite", "all", "--seed", str(s), "--format", "json"])

    def check(self, s: int, out) -> float:
        code, stdout = out
        report = json.loads(stdout)
        if code != 0 or report["seed"] != s or not all(c["passed"] for c in report["checks"]):
            return math.inf
        # exact checks have tolerance 0 and passed, so their deviation is 0
        return max((c["deviation"] / c["tolerance"] for c in report["checks"] if c["tolerance"] > 0), default=0.0)


class StemRoundtrip(Workload):
    """``slicekit stem`` with export, then reload and validation of the grid.

    One cycle: sqrt and log on beta twice each, and each model once on the
    3-part loop. Extra truncations sit inside fixed parts of the path, so the
    number and order of the stems per system does not depend on the seed.
    """

    name = "stem_roundtrip"
    cycle = 6
    trace_units = 3
    KINDS = (("sqrt", "beta"), ("log", "beta"), ("sqrt", "loop3"), ("sqrt", "beta"), ("log", "beta"), ("log", "loop3"))

    def __init__(self, sk, seed: int, tmp: Path):
        rng = np.random.default_rng(seed)
        files = {"beta": tmp / "beta.json", "loop3": tmp / "loop3.json"}
        files["beta"].write_text(sk.paths.beta_path().to_json())
        files["loop3"].write_text(_loop_path(sk, 3).to_json())
        # each extra truncation lies inside one part, away from its ends
        parts_of = {"beta": ((0.0, 0.5), (0.5, 1.0)), "loop3": ((1 / 3, 2 / 3), (2 / 3, 1.0))}
        self.pool = []
        for idx, (model, path) in enumerate(self.KINDS):
            ts = [lo + (hi - lo) * rng.uniform(0.1, 0.9) for lo, hi in parts_of[path]]
            out = tmp / f"system{idx}.json"
            argv = [
                "stem", "--model", model, "--path", str(files[path]), "--radius", "0.8",
                "--extra-truncations", ",".join(f"{t:.4f}" for t in ts), "--out", str(out),
            ]  # fmt: skip
            self.pool.append((argv, out))

    def run_unit(self, sk, spec):
        argv, out = spec
        code, stdout = call_cli(sk.cli, argv)
        text = Path(out).read_text()
        system = sk.stems.system_from_json(text)
        report = sk.stems.validate_stem_system(system)
        return code, stdout, text, system, report

    def check(self, spec, out) -> float:
        code, stdout, text, system, _grid_report = out
        closed = json.loads(stdout)
        if code != 0 or not closed["passed"]:
            return math.inf
        exported = json.loads(text)["samples"]
        if len(exported) != len(system.entries):
            return math.inf
        for samples, entry in zip(exported, system.entries):
            expected = np.asarray(samples, dtype=np.float64)
            reloaded = np.array(
                [[[q.to_list() for q in col] for col in row] for row in entry.stem.grid_samples], dtype=np.float64
            )
            if expected.shape != reloaded.shape or not np.array_equal(
                expected.view(np.uint64), reloaded.view(np.uint64)
            ):
                return math.inf
        return max(c["worst"] / c["tolerance"] for c in closed["conditions"])


class RepformulaSweep(Workload):
    """``slicekit repformula`` with a general J at N = 2, 3, 4 and both models."""

    name = "repformula_sweep"
    cycle = 6
    trace_units = 24
    KINDS = ((2, "sqrt"), (3, "sqrt"), (4, "sqrt"), (2, "log"), (3, "log"), (4, "log"))

    def __init__(self, sk, seed: int, tmp: Path):
        rng = np.random.default_rng(seed)
        paths = {}
        for n in (2, 3, 4):
            paths[n] = tmp / f"loop{n}.json"
            paths[n].write_text(_loop_path(sk, n).to_json())
        self.pool = []
        for idx in range(8 * self.cycle):
            n, model = self.KINDS[idx % self.cycle]
            j_file = tmp / f"J{idx}.json"
            j_file.write_text(sk.sliceunits.random_slice_unit_matrix(n, rng).to_json())
            units = [_unit_vector(rng) for _ in range(n)]
            argv = [
                "repformula", "--model", model, "--path", str(paths[n]), "--J", str(j_file),
                "--units", ";".join(json.dumps(u) for u in units),
            ]  # fmt: skip
            self.pool.append({"argv": argv, "model": model, "n": n, "units": units, "ref": None})

    def prepare(self, sk) -> None:
        for spec in self.pool:
            model = sk.monodromy.model_by_name(spec["model"])
            path = _loop_path(sk, spec["n"])
            units = tuple(sk.quat.ImaginaryUnit(*u) for u in spec["units"])
            spec["ref"] = sk.monodromy.evaluate_lifted(model, path, units).to_list()

    def run_unit(self, sk, spec):
        return call_cli(sk.cli, spec["argv"])

    def check(self, spec, out) -> float:
        code, stdout = out
        payload = json.loads(stdout)
        if code != 0:
            return math.inf
        value_dev = float(np.linalg.norm(np.subtract(payload["value"], spec["ref"])))
        return max(value_dev / VALUE_TOL, payload["invariance_dev"] / INVARIANCE_TOL)


#: left multiplication p -> q*p as a 4x4 real matrix, written out from the Hamilton table
def _left_mult(q) -> np.ndarray:
    w, x, y, z = q
    return np.array([[w, -x, -y, -z], [x, w, -z, y], [y, z, w, -x], [z, -y, x, w]])


def convolve_reference(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Coefficient convolution c_n = sum_k a_k * b_(n-k) with 4x4 matrices."""
    out = np.zeros((len(a) + len(b) - 1, 4))
    for i, ai in enumerate(a):
        out[i : i + len(b)] += b @ _left_mult(ai).T
    return out


_C_I = np.array([[0.0, -1.0], [1.0, 0.0]])


def _basis_matrix(n: int, m: int) -> np.ndarray:
    """b(m) = prod_{l=N..1} (i_l * i_(l-1))**m_l with slot l acting as C_I."""
    size = 1 << n

    def slot(l: int) -> np.ndarray:
        out = np.eye(1)
        for s in range(1, n + 1):
            out = np.kron(out, _C_I if s == l else np.eye(2))
        return out

    out = np.eye(size)
    bits = m - 1
    for l in range(n, 0, -1):
        if (bits >> (l - 1)) & 1:
            out = out @ slot(l) @ (slot(l - 1) if l >= 2 else np.eye(size))
    return out


def kron_star_reference(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Star product of two (2**N, 4) stem columns in a Kronecker representation.

    Built here from the definition of the basis, independent of slicekit's
    sign law and of its oracle: x = sum_m b(m) q_m acts as sum_m B(m) (x) L(q_m),
    and the coefficients of a product are read off its image of 1.
    """
    n = (len(a) - 1).bit_length()
    basis = [_basis_matrix(n, m) for m in range(1, len(a) + 1)]

    def rep(x: np.ndarray) -> np.ndarray:
        return sum(np.kron(bm, _left_mult(q)) for bm, q in zip(basis, x))

    one = np.zeros(4 * len(a))
    one[0] = 1.0
    image = (rep(a) @ (rep(b) @ one)).reshape(len(a), 4)
    out = np.zeros_like(a)
    for m, bm in enumerate(basis):
        row = int(np.flatnonzero(bm[:, 0])[0])  # b(m) maps the first basis vector to +-e_row
        out[m] = bm[row, 0] * image[row]
    return out


class StarAlgebra(Workload):
    """``stemtensor.star_vector`` at N = 1..6 alternating with ``slicekit starprod``.

    One cycle interleaves star_vector at each N with starprod at each degree of
    a fixed ladder, once per op; the seed draws the coefficients. The pool
    holds two cycles.
    """

    name = "star_algebra"
    cycle = 36
    trace_units = 36
    DEGREES = (8, 16, 24, 32, 48, 64)
    OPS = ("star", "conj", "sym")

    def __init__(self, sk, seed: int, tmp: Path):
        rng = np.random.default_rng(seed)
        self.pool = []
        for idx in range(2 * self.cycle):
            step = idx % self.cycle // 2
            if idx % 2 == 0:
                n = 1 + step % 6
                a, b = rng.uniform(-1, 1, (2, 1 << n, 4))
                self.pool.append({"kind": "star_vector", "n": n, "a": a, "b": b, "ref": None})
            else:
                degree = self.DEGREES[step % 6]
                op = self.OPS[step // 6]
                f, g = rng.uniform(-1, 1, (2, degree + 1, 4))
                f_file, g_file = tmp / f"f{idx}.json", tmp / f"g{idx}.json"
                f_file.write_text(json.dumps({"coeffs": f.tolist()}))
                g_file.write_text(json.dumps({"coeffs": g.tolist()}))
                argv = ["starprod", "--f", str(f_file), "--g", str(g_file), "--op", op]
                self.pool.append({"kind": "starprod", "op": op, "f": f, "g": g, "argv": argv, "ref": None})

    def bind(self, sk) -> None:
        # StemValue checks its entries against the Quaternion class of the modules it runs with
        for spec in self.pool:
            if spec["kind"] == "star_vector":
                spec["args"] = tuple(self._stem_value(sk, x) for x in (spec["a"], spec["b"]))

    def prepare(self, sk) -> None:
        for spec in self.pool:
            if spec["kind"] == "star_vector":
                if spec["n"] <= ORACLE_MAX_N:
                    ref = sk.stemtensor.oracle_star(*spec["args"])
                    spec["ref"] = np.array([q.to_list() for q in ref.entries])
                else:
                    spec["ref"] = kron_star_reference(spec["a"], spec["b"])
            else:
                f, g = spec["f"], spec["g"]
                conj = f * np.array([1.0, -1.0, -1.0, -1.0])
                if spec["op"] == "star":
                    spec["ref"] = convolve_reference(f, g)
                elif spec["op"] == "conj":
                    spec["ref"] = conj
                else:  # sym: f * f^c
                    spec["ref"] = convolve_reference(f, conj)

    @staticmethod
    def _stem_value(sk, x: np.ndarray):
        n = (len(x) - 1).bit_length()
        return sk.stemtensor.StemValue(n, tuple(sk.quat.Quaternion(*q) for q in x))

    def run_unit(self, sk, spec):
        if spec["kind"] == "star_vector":
            return sk.stemtensor.star_vector(*spec["args"])
        return call_cli(sk.cli, spec["argv"])

    def check(self, spec, out) -> float:
        if spec["kind"] == "star_vector":
            got = np.array([q.to_list() for q in out.entries])
        else:
            code, stdout = out
            if code != 0:
                return math.inf
            got = np.array(json.loads(stdout)["coeffs"], dtype=float)
        if got.shape != spec["ref"].shape:
            return math.inf
        return float(np.max(np.linalg.norm(got - spec["ref"], axis=1))) / STAR_TOL


WORKLOADS = {w.name: w for w in (CheckAll, StemRoundtrip, RepformulaSweep, StarAlgebra)}
