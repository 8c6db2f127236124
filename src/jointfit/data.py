"""CSV ingestion and nested cluster indexing.

Data is wide per outcome and long per repeated measurement: each biomarker
measurement sits on its own row, while a survival (time, status) pair
appears once per subject with NA on the remaining rows.
"""

import csv
from dataclasses import dataclass, field

import numpy as np


class DataError(ValueError):
    pass


@dataclass
class LevelIndex:
    """Row <-> cluster maps for one level, cluster ids renumbered 0..K-1."""

    name: str
    row_cluster: np.ndarray          # (n,) int cluster id per row
    cluster_rows: list[np.ndarray]   # cluster id -> row indices

    @property
    def n_clusters(self) -> int:
        return len(self.cluster_rows)


@dataclass
class Dataset:
    columns: dict[str, np.ndarray]      # name -> float values, NaN where missing
    n_rows: int
    level_names: tuple[str, ...] = ()
    level_index: dict[str, LevelIndex] = field(default_factory=dict)

    def column(self, name: str) -> np.ndarray:
        if name not in self.columns:
            raise DataError(f"no column named {name!r}")
        return self.columns[name]

    def with_overrides(self, overrides: dict[str, float]) -> "Dataset":
        """Copy with some columns held at fixed values (prediction `at`)."""
        cols = dict(self.columns)
        for name, value in overrides.items():
            base = self.column(name)
            cols[name] = np.full_like(base, float(value))
        return Dataset(cols, self.n_rows, self.level_names, self.level_index)


@dataclass
class ResponseView:
    kind: str                       # "scalar" | "time-event"
    observed_rows: np.ndarray       # int row indices
    values: np.ndarray              # (n_obs,) scalar or (n_obs, 2) time/event


def load_table(path: str, delimiter: str = ",", na_token: str = "NA") -> Dataset:
    """Load a numeric CSV with a header row into a Dataset.

    Cells equal to the NA token become NaN with the missing flag implied;
    any other non-numeric cell is an error.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh, delimiter=delimiter)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty file, expected a header row")
        header = [h.strip() for h in header]
        if len(set(header)) != len(header):
            raise DataError(f"{path}: duplicate column names in header")
        raw = {name: [] for name in header}
        for lineno, row in enumerate(reader, start=2):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != len(header):
                raise DataError(f"{path}:{lineno}: expected {len(header)} cells, got {len(row)}")
            for name, cell in zip(header, row):
                cell = cell.strip()
                if cell == na_token or cell == "":
                    raw[name].append(np.nan)
                else:
                    try:
                        raw[name].append(float(cell))
                    except ValueError:
                        raise DataError(
                            f"{path}:{lineno}: non-numeric cell {cell!r} in column {name!r}"
                        ) from None
    columns = {name: np.asarray(vals, dtype=float) for name, vals in raw.items()}
    n_rows = len(next(iter(columns.values()))) if columns else 0
    return Dataset(columns, n_rows)


def save_table(d: Dataset, path: str, na_token: str = "NA") -> None:
    names = list(d.columns)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(names)
        for i in range(d.n_rows):
            writer.writerow(
                [na_token if np.isnan(d.columns[n][i]) else repr(float(d.columns[n][i]))
                 for n in names]
            )


def build_levels(d: Dataset, levels: tuple[str, ...]) -> Dataset:
    """Attach cluster indices for the declared levels (highest to lowest).

    Level variables must be integer-coded and non-missing; every lower-level
    cluster must be nested within exactly one higher-level cluster.
    """
    index: dict[str, LevelIndex] = {}
    first = {}  # per level, the first row of each cluster
    for name in levels:
        col = d.column(name)
        if np.any(np.isnan(col)):
            raise DataError(f"level variable {name!r} has missing values")
        if np.any(col != np.round(col)):
            raise DataError(f"level variable {name!r} must be integer-coded")
        codes, inverse = np.unique(col.astype(np.int64), return_inverse=True)
        # each cluster's rows in row order: one stable sort, split by size
        bounds = np.cumsum(np.bincount(inverse, minlength=len(codes)))[:-1]
        order = np.argsort(inverse, kind="stable")
        index[name] = LevelIndex(name, inverse, np.split(order, bounds))
        first[name] = order[np.concatenate(([0], bounds))]
    for hi, lo in zip(levels, levels[1:]):
        # a lower-level cluster is nested when each of its rows has the
        # parent of its first row
        hi_of_row, lo_of_row = index[hi].row_cluster, index[lo].row_cluster
        split = hi_of_row != hi_of_row[first[lo][lo_of_row]]
        if np.any(split):
            k = int(np.min(lo_of_row[split]))
            parents = np.unique(hi_of_row[index[lo].cluster_rows[k]])
            raise DataError(
                f"cluster {k} of level {lo!r} spans {len(parents)} clusters of level {hi!r}"
            )
    return Dataset(d.columns, d.n_rows, tuple(levels), index)


def response_view(d: Dataset, response) -> ResponseView:
    """Observed-row view of a scalar response or a (time, status) pair.

    A time-event row is observed only when both cells are non-missing;
    status must lie in {0, 1} and event times must be positive.
    """
    if isinstance(response, str):
        col = d.column(response)
        obs = np.flatnonzero(~np.isnan(col))
        return ResponseView("scalar", obs, col[obs])
    time_col, status_col = response
    t = d.column(time_col)
    s = d.column(status_col)
    obs = np.flatnonzero(~np.isnan(t) & ~np.isnan(s))
    sv = s[obs]
    if np.any((sv != 0) & (sv != 1)):
        bad = sv[(sv != 0) & (sv != 1)][0]
        raise DataError(f"status column {status_col!r} has value {bad} outside {{0, 1}}")
    if np.any(t[obs] <= 0):
        raise DataError(f"event time column {time_col!r} has non-positive times")
    return ResponseView("time-event", obs, np.column_stack([t[obs], sv]))
