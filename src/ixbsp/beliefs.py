"""Gaussian beliefs over pose/landmark joints, built from factor lists.

A belief is the Gauss-Newton solution of a small nonlinear least-squares
problem: a dense prior anchoring the root variables plus motion and
measurement factors for every step since.  The solver has no randomness, so
the same factor list always gives the same belief.  Re-using an archived
belief against a new planning root is one ``update_with_measurements`` call
whose ``init_hint`` warm-starts the solve from the archived mean.

Beliefs are immutable; every operation returns a new object.  Means carry
wrapped headings, covariances come from the information matrix at the final
linearization point.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from ._gaussian import as_spd, chol_lower, spd_inverse, whitener
from .errors import (
    DaMismatch,
    DegenerateUpdate,
    InvalidBelief,
    InvalidInput,
    NumericalError,
    UnknownLandmark,
    UnknownVariable,
)
from .models import (
    LANDMARK_DIM,
    POSE_DIM,
    ActionId,
    MeasModel,
    MotionModel,
    VariableId,
    landmark_var,
    pose_var,
    wrap_angle,
    wrap_angle_array,
)

LANDMARK_INIT_VAR = 1.0e4

_GN_TOL = 1.0e-11
_GN_MAX_ITER = 60


def _freeze(arr: np.ndarray) -> np.ndarray:
    out = np.ascontiguousarray(arr, dtype=float)
    out.flags.writeable = False
    return out


def canonical_order(vars_: Iterable[VariableId]) -> tuple[VariableId, ...]:
    """Landmarks ascending id, then poses ascending time.

    Appending a future pose keeps the order canonical, so planning never
    reshuffles covariance blocks.
    """
    vs = set(vars_)
    lms = sorted((v for v in vs if v.kind == "landmark"), key=lambda v: v.index)
    poses = sorted((v for v in vs if v.kind == "pose"), key=lambda v: v.index)
    return tuple(lms) + tuple(poses)


@dataclass(frozen=True, slots=True)
class VariableIndex:
    """Ordered variable layout of a joint state vector.

    The offset map and the heading mask are computed once, at construction.
    They stay out of ``==``, ``hash`` and ``repr``, and pickling sends only
    ``vars`` and rebuilds them.
    """

    vars: tuple[VariableId, ...]
    offsets: tuple[int, ...] = field(default=())
    dim: int = 0
    _offset_map: dict[VariableId, int] = field(init=False, repr=False, compare=False)
    _theta: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        offset_map: dict[VariableId, int] = {}
        total = 0
        for v in self.vars:
            if v in offset_map:
                raise InvalidBelief(f"duplicate variable {v}")
            offset_map[v] = total
            total += v.dim
        theta = np.zeros(total, dtype=bool)
        for v, off in offset_map.items():
            if v.kind == "pose":
                theta[off + 2] = True
        theta.flags.writeable = False
        object.__setattr__(self, "offsets", tuple(offset_map.values()))
        object.__setattr__(self, "dim", total)
        object.__setattr__(self, "_offset_map", offset_map)
        object.__setattr__(self, "_theta", theta)

    def __reduce__(self):
        return (VariableIndex, (self.vars,))

    @classmethod
    def of(cls, vars_: Iterable[VariableId]) -> "VariableIndex":
        return cls(canonical_order(vars_))

    def __contains__(self, var: VariableId) -> bool:
        return var in self._offset_map

    def offset(self, var: VariableId) -> int:
        try:
            return self._offset_map[var]
        except KeyError:
            raise UnknownVariable(f"{var} not in index") from None

    def slice_of(self, var: VariableId) -> slice:
        off = self.offset(var)
        return slice(off, off + var.dim)

    def indices_of(self, vars_: Sequence[VariableId]) -> np.ndarray:
        idx: list[int] = []
        for v in vars_:
            off = self.offset(v)
            idx.extend(range(off, off + v.dim))
        return np.asarray(idx, dtype=int)

    def theta_mask(self) -> np.ndarray:
        """Read-only boolean mask of heading coordinates (third slot of each pose)."""
        return self._theta

    def newest_pose(self) -> VariableId:
        poses = [v for v in self.vars if v.kind == "pose"]
        if not poses:
            raise UnknownVariable("index holds no pose variable")
        return poses[-1]

    def landmarks(self) -> tuple[VariableId, ...]:
        return tuple(v for v in self.vars if v.kind == "landmark")


def wrap_state(index: VariableIndex, x: np.ndarray) -> np.ndarray:
    out = np.asarray(x, dtype=float).copy()
    mask = index.theta_mask()
    out[mask] = wrap_angle_array(out[mask])
    return out


def wrapped_diff(index: VariableIndex, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a - b with heading coordinates wrapped to (-pi, pi]."""
    diff = np.asarray(a, dtype=float) - np.asarray(b, dtype=float)
    mask = index.theta_mask()
    diff[mask] = wrap_angle_array(diff[mask])
    return diff


# ---------------------------------------------------------------------------
# measurements and data association


@dataclass(frozen=True, slots=True)
class MeasurementEntry:
    """One range-bearing (or linear) observation of landmark ``lm`` at time ``t``."""

    t: int
    lm: int
    value: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "value", _freeze(np.atleast_1d(self.value)))

    @property
    def key(self) -> tuple[int, int]:
        return (self.t, self.lm)


@dataclass(frozen=True, slots=True)
class MeasurementSet:
    """Sorted, keyed collection of measurement entries (the realized DA)."""

    entries: tuple[MeasurementEntry, ...] = ()

    def __post_init__(self) -> None:
        ordered = tuple(sorted(self.entries, key=lambda e: e.key))
        keys = [e.key for e in ordered]
        if len(set(keys)) != len(keys):
            raise DaMismatch("duplicate (t, lm) key in measurement set")
        object.__setattr__(self, "entries", ordered)

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def keys(self) -> tuple[tuple[int, int], ...]:
        return tuple(e.key for e in self.entries)

    def get(self, key: tuple[int, int]) -> MeasurementEntry | None:
        for e in self.entries:
            if e.key == key:
                return e
        return None

    def merged(self, other: "MeasurementSet") -> "MeasurementSet":
        return MeasurementSet(self.entries + other.entries)


@dataclass(frozen=True, slots=True)
class DaDiff:
    """Difference between two measurement sets keyed by (t, lm)."""

    added: tuple[tuple[int, int], ...]
    removed: tuple[tuple[int, int], ...]
    kept: tuple[tuple[tuple[int, int], np.ndarray, np.ndarray], ...]

    @property
    def n_changed(self) -> int:
        return len(self.added) + len(self.removed)

    def value_gap(self) -> float:
        """L2 norm over kept-entry value differences, bearings wrapped."""
        total = 0.0
        for _key, za, zb in self.kept:
            d = np.asarray(za) - np.asarray(zb)
            if d.size >= 2:
                d = d.copy()
                d[1] = wrap_angle(d[1])
            total += float(d @ d)
        return float(np.sqrt(total))

    def key(self) -> tuple[int, float]:
        """Lexicographic comparison key: structure first, then values."""
        return (self.n_changed, self.value_gap())


def da_diff(a: MeasurementSet, b: MeasurementSet) -> DaDiff:
    """Diff from ``a`` to ``b``: what must be removed/added/kept to turn a into b."""
    a_keys = dict((e.key, e) for e in a.entries)
    b_keys = dict((e.key, e) for e in b.entries)
    removed = tuple(k for k in a_keys if k not in b_keys)
    added = tuple(k for k in b_keys if k not in a_keys)
    kept = tuple(
        (k, a_keys[k].value, b_keys[k].value) for k in a_keys if k in b_keys
    )
    return DaDiff(added=tuple(sorted(added)), removed=tuple(sorted(removed)),
                  kept=tuple(sorted(kept, key=lambda kv: kv[0])))


@dataclass(frozen=True, slots=True)
class StepRecord:
    """One executed or simulated lookahead step: action then measurements."""

    time: int
    action: ActionId
    measurements: MeasurementSet


# ---------------------------------------------------------------------------
# factors

# A factor's place in an index: one slice per involved variable, and their
# stacked coordinates.  ``whitened(x, layout)`` returns the whitened
# residual, its jacobian and those coordinates.
Layout = tuple[tuple[slice, ...], np.ndarray]


def factor_layout(factor: Factor, index: VariableIndex) -> Layout:
    vars_ = factor.involved()
    return tuple(index.slice_of(v) for v in vars_), index.indices_of(vars_)


@dataclass(frozen=True)
class DensePriorFactor:
    """Gaussian prior over a tuple of variables (the belief-tree root anchor)."""

    vars_: tuple[VariableId, ...]
    mean: np.ndarray
    cov: np.ndarray
    step_time: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "mean", _freeze(self.mean))
        object.__setattr__(self, "cov", _freeze(self.cov))
        object.__setattr__(self, "_wt", whitener(self.cov).T)
        sub = VariableIndex(self.vars_)
        object.__setattr__(self, "_theta", sub.theta_mask())

    def involved(self) -> tuple[VariableId, ...]:
        return self.vars_

    def whitened(self, x: np.ndarray, layout: Layout):
        _, idx = layout
        e = x[idx] - self.mean
        e[self._theta] = wrap_angle_array(e[self._theta])
        a = self._wt  # jacobian of e wrt the stacked vars is identity
        return self._wt @ e, a, idx

    def dim(self) -> int:
        return self.mean.size


@dataclass(frozen=True)
class MotionFactor:
    """Odometry factor x_{t+1} = f(x_t, u) + w."""

    t_from: int
    t_to: int
    action: ActionId
    model: MotionModel

    def __post_init__(self) -> None:
        object.__setattr__(self, "_wt", self.model.noise_wt)

    @property
    def step_time(self) -> int:
        return self.t_to

    def involved(self) -> tuple[VariableId, ...]:
        return (pose_var(self.t_from), pose_var(self.t_to))

    def whitened(self, x: np.ndarray, layout: Layout):
        (sl_f, sl_t), idx = layout
        xf, xt = x[sl_f], x[sl_t]
        pred = self.model.step_mean(xf, self.action)
        e = xt - pred
        if self.model.kind == "unicycle":
            e[2] = wrap_angle(e[2])
        f_jac = self.model.step_jacobian(xf, self.action)
        wt = self._wt
        d = e.size
        a = np.zeros((d, 2 * d))
        a[:, :d] = -wt @ f_jac
        a[:, d:] = wt
        return wt @ e, a, idx

    def dim(self) -> int:
        return self.model.state_dim


@dataclass(frozen=True)
class MeasurementFactor:
    """Observation factor z = h(x_t, l_j) + v (or z = H x_t + v for linear)."""

    t: int
    lm: int | None
    z: np.ndarray
    model: MeasModel

    def __post_init__(self) -> None:
        object.__setattr__(self, "z", _freeze(self.z))
        object.__setattr__(self, "_wt", self.model.noise_wt)

    @property
    def step_time(self) -> int:
        return self.t

    def involved(self) -> tuple[VariableId, ...]:
        if self.model.kind == "linear" or self.lm is None:
            return (pose_var(self.t),)
        return (pose_var(self.t), landmark_var(self.lm))

    def whitened(self, x: np.ndarray, layout: Layout):
        slices, idx = layout
        pose = x[slices[0]]
        wt = self._wt
        if self.model.kind == "linear" or self.lm is None:
            e = self.model.predict(pose) - self.z
            return wt @ e, wt @ self.model.h_mat, idx
        lmv = x[slices[1]]
        e = self.model.predict(pose, lmv) - self.z
        e[1] = wrap_angle(e[1])
        h_pose, h_lm = self.model.jacobians(pose, lmv)
        a = np.empty((2, POSE_DIM + LANDMARK_DIM))
        a[:, :POSE_DIM] = wt @ h_pose
        a[:, POSE_DIM:] = wt @ h_lm
        return wt @ e, a, idx

    def dim(self) -> int:
        return self.z.size


Factor = DensePriorFactor | MotionFactor | MeasurementFactor


# ---------------------------------------------------------------------------
# Gauss-Newton solve


def solve_factors(
    factors: Sequence[Factor],
    index: VariableIndex,
    init: np.ndarray,
    *,
    tol: float = _GN_TOL,
    max_iter: int = _GN_MAX_ITER,
) -> tuple[np.ndarray, np.ndarray, int]:
    """Gauss-Newton on the stacked whitened system; returns (mean, cov, iters).

    The solve is deterministic: fixed iteration order, fixed stopping rule.
    Linear systems converge in a single step.  Each factor's layout (its
    slices, index array and the flat positions of its information block) is
    resolved once per solve, not once per iteration; the arithmetic and its
    order are those of resolving it every iteration.
    """
    x = wrap_state(index, np.asarray(init, dtype=float))
    d = index.dim
    plan = []
    for f in factors:
        layout = factor_layout(f, index)
        idx = layout[1]
        plan.append((f, layout, (idx[:, None] * d + idx).ravel()))
    iters = 0
    for _ in range(max_iter):
        lam = np.zeros((d, d))
        lam_flat = lam.reshape(-1)  # a view: writes land in lam
        rhs = np.zeros(d)
        for f, layout, block in plan:
            ew, a, idx = f.whitened(x, layout)
            lam_flat[block] += (a.T @ a).ravel()
            rhs[idx] -= a.T @ ew
        try:
            low = chol_lower(lam, "information matrix")
        except NumericalError as exc:
            raise DegenerateUpdate(str(exc)) from exc
        delta = np.linalg.solve(low.T, np.linalg.solve(low, rhs))
        x = wrap_state(index, x + delta)
        iters += 1
        if float(np.max(np.abs(delta))) < tol:
            break
    # covariance at the final linearization point
    lam = np.zeros((d, d))
    lam_flat = lam.reshape(-1)
    for f, layout, block in plan:
        _, a, _ = f.whitened(x, layout)
        lam_flat[block] += (a.T @ a).ravel()
    try:
        cov = spd_inverse(lam)
    except NumericalError as exc:
        raise DegenerateUpdate("posterior information matrix is singular") from exc
    return x, cov, iters


# ---------------------------------------------------------------------------
# beliefs


@dataclass(frozen=True)
class GaussianState:
    """Minimal Gaussian over an indexed joint: mean + covariance."""

    index: VariableIndex
    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self) -> None:
        mean = np.atleast_1d(np.asarray(self.mean, dtype=float))
        cov = np.asarray(self.cov, dtype=float)
        if mean.size != self.index.dim:
            raise InvalidBelief(
                f"mean dim {mean.size} != index dim {self.index.dim}")
        if cov.shape != (self.index.dim, self.index.dim):
            raise InvalidBelief(f"covariance shape {cov.shape} inconsistent")
        if not np.isfinite(mean).all():
            raise InvalidBelief("mean must be finite")
        try:
            sym = as_spd(cov)
        except InvalidInput as exc:  # non-finite or asymmetric
            raise InvalidBelief(str(exc)) from exc
        except NumericalError as exc:
            raise InvalidBelief("covariance must be positive definite") from exc
        object.__setattr__(self, "mean", _freeze(mean))
        object.__setattr__(self, "cov", _freeze(sym))

    @property
    def dim(self) -> int:
        return self.index.dim

    def marginal(self, vars_: Sequence[VariableId]) -> "GaussianState":
        """Exact Gaussian marginal over a subset of variables (canonical order)."""
        ordered = canonical_order(vars_)
        idx = self.index.indices_of(ordered)
        sub = VariableIndex(ordered)
        return GaussianState(sub, self.mean[idx], self.cov[np.ix_(idx, idx)])


@dataclass(frozen=True)
class PropagatedBelief(GaussianState):
    """Belief after an action, before measurements: b-minus over one extra pose."""

    factors: tuple[Factor, ...] = ()
    history: tuple[StepRecord, ...] = ()
    root_time: int = 0
    time: int = 0
    action: ActionId = ActionId(0)

    def new_pose(self) -> VariableId:
        return pose_var(self.time)


@dataclass(frozen=True)
class GaussianBelief(GaussianState):
    """Posterior belief: solved factor list plus the history that built it."""

    factors: tuple[Factor, ...] = ()
    history: tuple[StepRecord, ...] = ()
    root_time: int = 0
    time: int = 0


def make_prior_belief(
    pose_mean: np.ndarray,
    pose_cov: np.ndarray,
    t: int = 0,
    landmarks: dict[int, tuple[np.ndarray, np.ndarray]] | None = None,
) -> GaussianBelief:
    """Root belief from a pose prior and optionally pre-mapped landmarks."""
    vars_: list[VariableId] = [pose_var(t)]
    means = {pose_var(t): np.asarray(pose_mean, dtype=float)}
    covs = {pose_var(t): np.asarray(pose_cov, dtype=float)}
    if landmarks:
        for j, (m, c) in landmarks.items():
            vars_.append(landmark_var(j))
            means[landmark_var(j)] = np.asarray(m, dtype=float)
            covs[landmark_var(j)] = np.asarray(c, dtype=float)
    index = VariableIndex.of(vars_)
    mean = np.zeros(index.dim)
    cov = np.zeros((index.dim, index.dim))
    for v in index.vars:
        sl = index.slice_of(v)
        mean[sl] = means[v]
        cov[sl, sl] = covs[v]
    prior = DensePriorFactor(index.vars, mean, cov, step_time=t)
    return GaussianBelief(
        index=index, mean=mean, cov=cov, factors=(prior,), history=(),
        root_time=t, time=t,
    )


def planning_root(belief: GaussianBelief) -> GaussianBelief:
    """Marginalize onto (newest pose, landmarks) and re-anchor as a dense prior.

    Future factors only touch the newest pose and landmarks, so every
    planning quantity computed from this root matches the full joint.
    """
    keep = canonical_order(list(belief.index.landmarks()) + [belief.index.newest_pose()])
    marg = belief.marginal(keep)
    prior = DensePriorFactor(marg.index.vars, marg.mean, marg.cov,
                             step_time=belief.time)
    return GaussianBelief(
        index=marg.index, mean=marg.mean, cov=marg.cov, factors=(prior,),
        history=(), root_time=belief.time, time=belief.time,
    )


def propagate(
    belief: GaussianBelief, action: ActionId, model: MotionModel
) -> PropagatedBelief:
    """Append the next pose via the motion model (linearized pushforward).

    The propagated covariance matches N(f(mu), F Sigma F^T + Sigma_w) on the
    new pose block; cross blocks follow the same linearization.
    """
    cur = belief.index.newest_pose()
    new_t = cur.index + 1
    new_var = pose_var(new_t)
    new_vars = belief.index.vars + (new_var,)
    index = VariableIndex(new_vars)

    sl = belief.index.slice_of(cur)
    mu = belief.mean
    f_jac = model.step_jacobian(mu[sl], action)
    new_mean_block = model.step_mean(mu[sl], action)

    d_old = belief.index.dim
    d_new = index.dim
    mean = np.zeros(d_new)
    mean[:d_old] = mu
    mean[d_old:] = new_mean_block

    cov = np.zeros((d_new, d_new))
    cov[:d_old, :d_old] = belief.cov
    cross = belief.cov[:, sl] @ f_jac.T
    cov[:d_old, d_old:] = cross
    cov[d_old:, :d_old] = cross.T
    cov[d_old:, d_old:] = f_jac @ belief.cov[sl, sl] @ f_jac.T + model.noise_cov

    factor = MotionFactor(cur.index, new_t, action, model)
    return PropagatedBelief(
        index=index, mean=mean, cov=cov,
        factors=belief.factors + (factor,),
        history=belief.history, root_time=belief.root_time,
        time=new_t, action=action,
    )


def update_with_measurements(
    prop: PropagatedBelief,
    measurements: MeasurementSet,
    model: MeasModel,
    *,
    init_new_landmarks: bool = False,
    init_hint: GaussianState | None = None,
) -> GaussianBelief:
    """Condition a propagated belief on a measurement set (full GN re-solve).

    An empty set returns the propagated Gaussian unchanged.  Unknown
    landmarks raise unless ``init_new_landmarks`` (inference mode), in which
    case they enter via inverse-measurement initialization under a weak prior.
    ``init_hint`` warm-starts the solve from another solution's values over
    shared variables; it changes iteration count, never the solution.
    """
    step = StepRecord(prop.time, prop.action, measurements)
    if len(measurements) == 0:
        return GaussianBelief(
            index=prop.index, mean=prop.mean, cov=prop.cov,
            factors=prop.factors, history=prop.history + (step,),
            root_time=prop.root_time, time=prop.time,
        )

    new_factors: list[Factor] = []
    index = prop.index
    init = prop.mean.copy()
    if init_hint is not None:
        for v in index.vars:
            if v in init_hint.index:
                init[index.slice_of(v)] = init_hint.mean[init_hint.index.slice_of(v)]
    pose_sl = index.slice_of(prop.new_pose())
    pose_mean = prop.mean[pose_sl]

    new_lms: list[tuple[int, np.ndarray]] = []
    for entry in measurements:
        if entry.t != prop.time:
            raise DaMismatch(
                f"entry time {entry.t} != propagated time {prop.time}")
        if model.kind == "range_bearing" and landmark_var(entry.lm) not in index:
            if not init_new_landmarks:
                raise UnknownLandmark(f"landmark {entry.lm} not in belief")
            new_lms.append((entry.lm, model.invert(pose_mean, entry.value)))

    if new_lms:
        vars_ = canonical_order(index.vars + tuple(landmark_var(j) for j, _ in new_lms))
        new_index = VariableIndex(vars_)
        new_init = np.zeros(new_index.dim)
        for v in index.vars:
            new_init[new_index.slice_of(v)] = init[index.slice_of(v)]
        for j, guess in new_lms:
            new_init[new_index.slice_of(landmark_var(j))] = guess
            new_factors.append(
                DensePriorFactor(
                    (landmark_var(j),), guess,
                    LANDMARK_INIT_VAR * np.eye(2), step_time=prop.time,
                )
            )
        index = new_index
        init = new_init

    for entry in measurements:
        lm = entry.lm if model.kind == "range_bearing" else None
        new_factors.append(MeasurementFactor(entry.t, lm, entry.value, model))

    factors = prop.factors + tuple(new_factors)
    mean, cov, _ = solve_factors(factors, index, init)
    return GaussianBelief(
        index=index, mean=mean, cov=cov, factors=factors,
        history=prop.history + (step,), root_time=prop.root_time,
        time=prop.time,
    )

