"""Core domain types and the lifting algebra.

The squared loss of a sample becomes a linear functional of a lifted
(p+1)x(p+1) matrix variable: f(x, y, theta) = <A, V> with A = z z^T,
z = [x; -y], and V = [theta; 1][theta; 1]^T.  The solver and the oracle
work in theta; only the duals (the certificate and the solver's dual
record) and the invexity witnesses work in this lifted coordinate system.

Lifted matrices are plain (p+1)x(p+1) float arrays.  A feasible V is
symmetric PSD with V[-1, -1] == 1; `projections.project_psd_corner` is the
map that enforces this, and `lift_parameter` gives its rank-one points.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field, fields, is_dataclass
from pathlib import Path

import numpy as np

CLEAN = "clean"
OUTLIER = "outlier"

__all__ = [
    "CLEAN",
    "OUTLIER",
    "Dataset",
    "squared_loss",
    "lift_sample",
    "lift_parameter",
    "sample_losses",
    "lifted_gram",
    "objective",
    "to_jsonable",
    "save_dataset",
    "load_dataset",
]


def _check_int(name: str, value, low: int) -> None:
    """Raise ValueError naming `name` unless value is an integer (not a bool)
    of at least `low`."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < low:
        raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")


def _check_nonneg(name: str, value) -> None:
    """Raise ValueError naming `name` unless value is a finite number (not a
    bool) >= 0."""
    if isinstance(value, bool) or not (isinstance(value, (int, float, np.integer, np.floating))
                                       and math.isfinite(value) and value >= 0):
        raise ValueError(f"{name} must be finite and >= 0, got {value!r}")


def _check_finite(*named) -> None:
    """Raise ValueError naming the first (name, value) pair, in order, with a
    non-finite entry; None values are skipped."""
    for name, arr in named:
        if arr is not None and not np.all(np.isfinite(arr)):
            raise ValueError(f"{name} must be finite")


@dataclass(frozen=True, eq=False)
class Dataset:
    """Design matrix, responses and the per-sample outlier mask.

    X, y and theta_star are finite and `outlier` is a bool array of length
    n, or ValueError names the field.  The arrays are stored as read-only
    views, because fits and the trials of a sweep share them; a caller's
    own arrays stay writable.  `r` and `rho` are computed from the arrays."""

    X: np.ndarray              # (n, p)
    y: np.ndarray              # (n,)
    outlier: np.ndarray        # (n,) bool, True on the outlier rows
    theta_star: np.ndarray | None = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        X = np.asarray(self.X, dtype=float)
        y = np.asarray(self.y, dtype=float)
        outlier = np.asarray(self.outlier)
        if X.ndim != 2 or y.ndim != 1 or X.shape[0] != y.shape[0]:
            raise ValueError("X must be (n, p) and y (n,) with matching n")
        if outlier.dtype != bool or outlier.shape != y.shape:
            raise ValueError(f"outlier must be a bool array of length n={y.size}, "
                             f"got {outlier.dtype} of shape {outlier.shape}")
        ts = self.theta_star
        if ts is not None:
            ts = np.asarray(ts, dtype=float)
            if ts.shape != (X.shape[1],):
                raise ValueError("theta_star must have length p")
        _check_finite(("X", X), ("y", y), ("theta_star", ts))
        for name, arr in (("X", X), ("y", y), ("outlier", outlier), ("theta_star", ts)):
            if arr is not None:
                arr = arr.view()
                arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def p(self) -> int:
        return self.X.shape[1]

    @property
    def r(self) -> int:
        """The number of clean samples."""
        return int(np.count_nonzero(~self.outlier))

    @property
    def rho(self) -> float | None:
        """The loss gap at theta*: the smallest outlier loss minus the
        largest clean loss, +inf with no outliers, None without theta*."""
        if self.theta_star is None:
            return None
        loss = (self.y - self.X @ self.theta_star) ** 2
        return float(loss[self.outlier].min(initial=np.inf)
                     - loss[~self.outlier].max(initial=-np.inf))


def squared_loss(x: np.ndarray, y: float, theta: np.ndarray) -> float:
    """(y - <x, theta>)^2 for a single sample."""
    x = np.asarray(x, dtype=float)
    theta = np.asarray(theta, dtype=float)
    if x.shape != theta.shape:
        raise ValueError(f"dimension mismatch: x {x.shape} vs theta {theta.shape}")
    r = y - x @ theta
    return float(r * r)


def lift_sample(x: np.ndarray, y: float) -> np.ndarray:
    """Build A = [[x x^T, -x y], [-y x^T, y^2]] = z z^T with z = [x; -y]."""
    x = np.asarray(x, dtype=float)
    if not (np.all(np.isfinite(x)) and np.isfinite(y)):
        raise ValueError("non-finite input to lift_sample")
    z = np.concatenate([x, [-float(y)]])
    return np.outer(z, z)


def lift_parameter(theta: np.ndarray) -> np.ndarray:
    """Rank-1 feasible point [theta; 1][theta; 1]^T."""
    theta = np.asarray(theta, dtype=float)
    if not np.all(np.isfinite(theta)):
        raise ValueError("non-finite input to lift_parameter")
    z = np.concatenate([theta, [1.0]])
    return np.outer(z, z)


def sample_losses(X: np.ndarray, y: np.ndarray, V: np.ndarray) -> np.ndarray:
    """<A_i, V> for every row, without materializing the A_i.

    Expands to x_i^T V11 x_i - 2 y_i x_i^T v + y_i^2 V_corner where V11 is
    the leading p x p block and v the first p entries of the last column.
    The quadratic term is one matrix product, ((X V11) * X) summed by row.
    """
    V11 = V[:-1, :-1]
    v = V[:-1, -1]
    quad = ((X @ V11) * X).sum(axis=1)
    return quad - 2.0 * y * (X @ v) + (y * y) * V[-1, -1]


def lifted_gram(X: np.ndarray, y: np.ndarray, b: np.ndarray) -> np.ndarray:
    """sum_i b_i A_i, assembled blockwise and symmetrized exactly: the
    adjoint of `sample_losses`, <lifted_gram(X, y, b), V> = b @ sample_losses(X, y, V)."""
    b = np.asarray(b, dtype=float)
    p = X.shape[1]
    G = np.empty((p + 1, p + 1))
    Xw = X * b[:, None]
    G[:p, :p] = Xw.T @ X
    by = b * y
    G[:p, p] = -(X.T @ by)
    G[p, :p] = G[:p, p]
    G[p, p] = by @ y
    return 0.5 * (G + G.T)


def objective(b: np.ndarray, V: np.ndarray, data: Dataset, lam: float) -> float:
    """sum_i b_i <A_i, V> + lam * ||V||_1 (entrywise, corner included)."""
    b = np.asarray(b, dtype=float)
    return float(b @ sample_losses(data.X, data.y, V) + lam * np.abs(V).sum())


def to_jsonable(obj):
    """A JSON-safe copy of a result for `json.dump(..., allow_nan=False)`.

    A dataclass becomes a dict of its fields and a dict is copied; an
    ndarray, tuple or list becomes a list; a non-finite float becomes None,
    since JSON has no inf or nan.  The rules apply recursively.
    """
    if is_dataclass(obj):
        return {f.name: to_jsonable(getattr(obj, f.name)) for f in fields(obj)}
    if isinstance(obj, dict):
        return {k: to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    if isinstance(obj, (tuple, list)):
        return [to_jsonable(v) for v in obj]
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    return obj


def _write_json(path: str | Path, obj) -> None:
    """Write `to_jsonable(obj)` to path, indented, keys sorted, with a final
    newline: the one JSON writer of the results, sweep metadata and dataset
    sidecars."""
    with open(path, "w") as fh:
        json.dump(to_jsonable(obj), fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


# ---------------------------------------------------------------------------
# Dataset serialization: CSV with header y,x1,...,xp,label plus a JSON sidecar.

_META_KEYS = ("k", "M", "sigma_e", "seed")


def save_dataset(data: Dataset, prefix: str | Path) -> tuple[Path, Path]:
    """Write <prefix>.csv and <prefix>.json; returns both paths."""
    prefix = Path(prefix)
    prefix.parent.mkdir(parents=True, exist_ok=True)
    csv_path = prefix.with_suffix(".csv")
    json_path = prefix.with_suffix(".json")
    p = data.p
    with open(csv_path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["y"] + [f"x{j+1}" for j in range(p)] + ["label"])
        for i in range(data.n):
            w.writerow([repr(float(data.y[i]))]
                       + [repr(float(v)) for v in data.X[i]]
                       + [OUTLIER if data.outlier[i] else CLEAN])
    meta = {k: data.meta.get(k) for k in _META_KEYS}
    meta["p"] = p
    meta["n"] = data.n
    meta["r"] = data.r
    rho = data.rho
    meta["rho"] = "inf" if rho == np.inf else rho
    meta["theta_star"] = (None if data.theta_star is None
                          else [float(v) for v in data.theta_star])
    _write_json(json_path, meta)
    return csv_path, json_path


def load_dataset(prefix: str | Path) -> Dataset:
    """Read back a dataset written by save_dataset.  A CSV row whose field
    count is not the header's, or whose label is not CLEAN or OUTLIER,
    raises ValueError naming its line, and a sidecar n, r or p other than
    the CSV's row, clean-row or column count raises ValueError naming n, r
    or p.  The sidecar's rho is not read: `Dataset.rho` recomputes it."""
    prefix = Path(prefix)
    csv_path = prefix.with_suffix(".csv")
    json_path = prefix.with_suffix(".json")
    with open(json_path) as fh:
        meta = json.load(fh)
    rows_y, rows_x, outlier = [], [], []
    with open(csv_path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        for row in reader:
            if len(row) != len(header):
                raise ValueError(f"{csv_path} line {reader.line_num}: {len(row)} fields, "
                                 f"the header has {len(header)}")
            if row[-1] not in (CLEAN, OUTLIER):
                raise ValueError(f"{csv_path} line {reader.line_num}: label {row[-1]!r}, "
                                 f"expected {CLEAN!r} or {OUTLIER!r}")
            rows_y.append(float(row[0]))
            rows_x.append([float(v) for v in row[1:-1]])
            outlier.append(row[-1] == OUTLIER)
    counts = {"n": (len(rows_y), "rows"), "r": (outlier.count(False), "clean rows"),
              "p": (len(header) - 2, "columns")}
    for key, (count, what) in counts.items():
        if meta.get(key) is not None and meta[key] != count:
            raise ValueError(f"{key}: the sidecar says {meta[key]!r}, the CSV has {count} {what}")
    theta_star = meta.get("theta_star")
    return Dataset(
        X=np.asarray(rows_x, dtype=float),
        y=np.asarray(rows_y, dtype=float),
        outlier=np.asarray(outlier, dtype=bool),
        theta_star=None if theta_star is None else np.asarray(theta_star, dtype=float),
        meta={k: meta.get(k) for k in _META_KEYS},
    )
