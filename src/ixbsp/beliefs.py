"""Gaussian beliefs over pose/landmark joints, built from factor lists.

A belief is the Gauss-Newton solution of a small nonlinear least-squares
problem, and its factor list is that problem.  The solver has no randomness,
so the same factor list always gives the same belief.  Inference keeps the
full smoother: a dense prior anchoring the root variables plus motion and
measurement factors for every step since, so each step's time is its
``MotionFactor.t_to`` and each measurement entry is one
``MeasurementFactor``.  A lookahead step in planning solves only itself: a
dense prior on its propagated Gaussian plus that step's measurement factors.
Only this module reads the list, when ``propagate`` and
``update_with_measurements`` extend and solve it.  A re-used archived future
gets the same update as a fresh one, on the new propagated belief.

Every solve stops by one scale-aware rule: after the first Gauss-Newton step
whose whitened length ``sqrt(delta' Lambda delta)`` is under ``tol``, where
``Lambda`` is the information matrix the step was solved with.  That length
is the step in posterior standard deviations, so one threshold fits a
landmark known to a millimetre and one known to ten metres; an absolute step
size would stop the first too early and the second too late.  Inference
stops at 1e-4 of them; a lookahead step stops at 0.1, well below what moves
a planning decision.  A solve that reaches ``max_iter`` (60) first stops
there, and the belief it makes records its iteration count as ``gn_iters``,
so a capped solve is never silent.

A solve whose gradient is exactly zero is already at its optimum: that
iteration's step is exactly zero, so the rule fires as soon as the
information matrix is factored, with no triangular solve.  A most-likely
lookahead future makes such a solve: its measurements are the model mean at
the propagated mean, so the one-step problem starts at its optimum.

Each Gauss-Newton pass linearizes a step's measurement entries together:
a run of consecutive ``MeasurementFactor``s on one pose is one
``MeasModel.linearize`` call and a few batched products, added into the
normal equations in factor order, so the pass equals the factor-by-factor
one bit for bit (``solve_factors`` says why).  A ``DensePriorFactor``
computes its information matrix once, when it is made.

Beliefs are immutable; every operation returns a new object.  Means carry
wrapped headings.  A solved belief's covariance is the inverse of the
information matrix its last Gauss-Newton step was solved with, as in the
iterated EKF (``solve_factors``): LAPACK's ``dpotri`` on that step's
Cholesky factor, exactly symmetric (``_gaussian.chol_inverse``).  A
propagated one is assembled from its parent's covariance and the motion
Jacobian.  Each belief keeps the Cholesky factor that validating its
covariance computed (``cov_chol``); a planning node's prior and the state
drawn for its future read that factor, so a propagated covariance is
factored once.  ``propagate`` gives every child of one index the same
extended index, so each tree level shares one layout and its cached factor
positions.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import InitVar, dataclass, field
from typing import Iterable, Sequence
from weakref import WeakValueDictionary

import numpy as np

from ._gaussian import (
    chol_inverse,
    chol_lower,
    chol_whitener,
    lower_solve,
    spd_and_chol,
    whitener,
)
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

_GN_TOL = 1.0e-4  # Newton decrement, in posterior standard deviations
_PLAN_TOL = 0.1  # the same, for one lookahead step
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


@dataclass(frozen=True, slots=True, weakref_slot=True)
class VariableIndex:
    """Ordered variable layout of a joint state vector.

    The offset map, the heading mask and the newest pose are computed once,
    at construction.  The extension by one variable (``extended``), the
    layout of each tuple of variables (``layout``) and of each run of
    measurement factors (``measurement_run``) are computed once per
    instance, when first asked for.  Planning gives every node of one tree
    level the same index, so a level resolves each layout once.  An index
    holds its extensions weakly: one lives while a belief uses it, so a
    rollout's chain of inference indices does not outlive its beliefs.
    None of this takes part in ``==``, ``hash`` or ``repr``, and pickling
    sends only ``vars`` and rebuilds it.
    """

    vars: tuple[VariableId, ...]
    dim: int = field(init=False)
    _offset_map: dict[VariableId, int] = field(init=False, repr=False, compare=False)
    _theta: np.ndarray = field(init=False, repr=False, compare=False)
    _newest_pose: VariableId | None = field(init=False, repr=False, compare=False)
    _extended: WeakValueDictionary[VariableId, VariableIndex] = field(
        init=False, repr=False, compare=False)
    _layouts: dict[tuple[VariableId, ...], tuple[Layout, np.ndarray]] = field(
        init=False, repr=False, compare=False)
    _runs: dict[tuple[int, tuple[int, ...]], RunLayout] = field(
        init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        offset_map: dict[VariableId, int] = {}
        total = 0
        for v in self.vars:
            if v in offset_map:
                raise InvalidBelief(f"duplicate variable {v}")
            offset_map[v] = total
            total += v.dim
        theta = np.zeros(total, dtype=bool)
        newest = None
        for v, off in offset_map.items():
            if v.kind == "pose":
                theta[off + 2] = True
                newest = v
        theta.flags.writeable = False
        object.__setattr__(self, "dim", total)
        object.__setattr__(self, "_offset_map", offset_map)
        object.__setattr__(self, "_theta", theta)
        object.__setattr__(self, "_newest_pose", newest)
        object.__setattr__(self, "_extended", WeakValueDictionary())
        object.__setattr__(self, "_layouts", {})
        object.__setattr__(self, "_runs", {})

    def __reduce__(self):
        return (VariableIndex, (self.vars,))

    @classmethod
    def of(cls, vars_: Iterable[VariableId]) -> "VariableIndex":
        return cls(canonical_order(vars_))

    def extended(self, var: VariableId) -> "VariableIndex":
        """This layout with ``var`` appended: one shared index per ``var``."""
        child = self._extended.get(var)
        if child is None:
            child = self._extended[var] = VariableIndex(self.vars + (var,))
        return child

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

    def layout(self, vars_: tuple[VariableId, ...]) -> tuple[Layout, np.ndarray]:
        """The ``Layout`` of a factor over ``vars_`` and the flat positions of
        its block in a ``dim x dim`` information matrix; both arrays are
        read-only, and each tuple is resolved once per index."""
        hit = self._layouts.get(vars_)
        if hit is None:
            idx = self.indices_of(vars_)
            block = (idx[:, None] * self.dim + idx).ravel()
            idx.flags.writeable = False
            block.flags.writeable = False
            hit = ((tuple(self.slice_of(v) for v in vars_), idx), block)
            self._layouts[vars_] = hit
        return hit

    def measurement_run(self, t: int, lms: tuple[int, ...]) -> RunLayout:
        """The ``RunLayout`` of consecutive measurement factors on pose ``t``,
        one per landmark id of ``lms``; its arrays are read-only, and each
        run is resolved once per index."""
        key = (t, lms)
        hit = self._runs.get(key)
        if hit is None:
            pose = pose_var(t)
            per = self.indices_of(
                [v for j in lms for v in (pose, landmark_var(j))]).reshape(len(lms), -1)
            coords = per[:, POSE_DIM:].copy()
            block = (per[:, :, None] * self.dim + per[:, None, :]).ravel()
            idx = per.ravel()
            for arr in (coords, idx, block):
                arr.flags.writeable = False
            hit = self._runs[key] = (self.slice_of(pose), coords, idx, block)
        return hit

    def theta_mask(self) -> np.ndarray:
        """Read-only boolean mask of heading coordinates (third slot of each pose)."""
        return self._theta

    def newest_pose(self) -> VariableId:
        if self._newest_pose is None:
            raise UnknownVariable("index holds no pose variable")
        return self._newest_pose

    def landmarks(self) -> tuple[VariableId, ...]:
        return tuple(v for v in self.vars if v.kind == "landmark")


def wrap_state(index: VariableIndex, x: np.ndarray) -> np.ndarray:
    """Copy of ``x`` with heading coordinates wrapped to (-pi, pi].

    ``x`` is one state laid out by ``index`` or a stack of them (the last
    axis is the state); a difference of states wraps the same way.
    """
    return _wrap_own(index, np.array(x, dtype=float))


def _wrap_own(index: VariableIndex, x: np.ndarray) -> np.ndarray:
    """``wrap_state`` of an array the caller owns, wrapped in place."""
    mask = index.theta_mask()
    x[..., mask] = wrap_angle_array(x[..., mask])
    return x


def overlay(index: VariableIndex, x: np.ndarray,
            src_index: VariableIndex, src: np.ndarray) -> np.ndarray:
    """Copy of ``x`` (laid out by ``index``) with every variable that
    ``src_index`` also holds taken from ``src``."""
    out = np.array(x, dtype=float)
    for v in index.vars:
        if v in src_index:
            out[index.slice_of(v)] = src[src_index.slice_of(v)]
    return out


# ---------------------------------------------------------------------------
# measurements and data association


@dataclass(frozen=True, slots=True)
class MeasurementEntry:
    """One range-bearing observation of landmark ``lm``.

    An entry has no time of its own: it belongs to the one step whose
    propagated belief it conditions, and takes that belief's time.
    """

    lm: int
    value: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "value", _freeze(np.atleast_1d(self.value)))


@dataclass(frozen=True, slots=True)
class MeasurementSet:
    """One step's measurement entries, sorted by landmark id (the realized
    data association); a landmark is observed at most once."""

    entries: tuple[MeasurementEntry, ...] = ()

    def __post_init__(self) -> None:
        ordered = tuple(sorted(self.entries, key=lambda e: e.lm))
        keys = [e.lm for e in ordered]
        if len(set(keys)) != len(keys):
            raise DaMismatch("duplicate landmark in measurement set")
        object.__setattr__(self, "entries", ordered)

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def keys(self) -> tuple[int, ...]:
        return tuple(e.lm for e in self.entries)

    def get(self, lm: int) -> MeasurementEntry | None:
        for e in self.entries:
            if e.lm == lm:
                return e
        return None


# ---------------------------------------------------------------------------
# factors

# A factor's place in an index: one slice per involved variable, and their
# stacked coordinates.  ``whitened(x, layout)`` returns the whitened
# residual, its jacobian and those coordinates.
Layout = tuple[tuple[slice, ...], np.ndarray]

# The place of k consecutive measurement factors on one pose: the pose's
# slice, the (k, 2) coordinates of their landmarks, and the k factors'
# coordinates (pose, then landmark, as in each factor's ``layout``) and
# information-block positions, concatenated in factor order.
RunLayout = tuple[slice, np.ndarray, np.ndarray, np.ndarray]


@functools.cache
def _landmark_init_prior() -> tuple[np.ndarray, np.ndarray]:
    """A new landmark's weak prior covariance and its Cholesky factor,
    read-only and computed once."""
    cov = _freeze(LANDMARK_INIT_VAR * np.eye(LANDMARK_DIM))
    return cov, _freeze(chol_lower(cov))


@dataclass(frozen=True)
class DensePriorFactor:
    """Gaussian prior over a tuple of variables (the belief-tree root anchor).

    Its whitener and information matrix are computed once, at construction;
    every Gauss-Newton pass reads the same information.  A caller that
    already holds ``chol_lower(cov)`` passes it as ``chol``, and one that
    holds the index of ``vars_`` passes it as ``index``, so neither is
    computed again.
    """

    vars_: tuple[VariableId, ...]
    mean: np.ndarray
    cov: np.ndarray
    chol: InitVar[np.ndarray | None] = None
    index: InitVar[VariableIndex | None] = None

    def __post_init__(self, chol: np.ndarray | None,
                      index: VariableIndex | None) -> None:
        object.__setattr__(self, "mean", _freeze(self.mean))
        object.__setattr__(self, "cov", _freeze(self.cov))
        wt = (whitener(self.cov) if chol is None else chol_whitener(chol)).T
        if index is None:
            index = VariableIndex(self.vars_)
        elif index.vars != self.vars_:
            raise InvalidBelief("prior index does not lay out the prior's variables")
        object.__setattr__(self, "_wt", wt)
        object.__setattr__(self, "_info", _freeze((wt.T @ wt).ravel()))
        object.__setattr__(self, "_sub", index)

    def involved(self) -> tuple[VariableId, ...]:
        return self.vars_

    def whitened(self, x: np.ndarray, layout: Layout):
        _, idx = layout
        e = _wrap_own(self._sub, x[idx] - self.mean)
        a = self._wt  # jacobian of e wrt the stacked vars is identity
        return self._wt @ e, a, idx


@dataclass(frozen=True)
class MotionFactor:
    """Odometry factor x_{t+1} = f(x_t, u) + w."""

    t_from: int
    t_to: int
    action: ActionId
    model: MotionModel

    def __post_init__(self) -> None:
        object.__setattr__(self, "_wt", self.model.noise_wt)

    def involved(self) -> tuple[VariableId, ...]:
        return (pose_var(self.t_from), pose_var(self.t_to))

    def whitened(self, x: np.ndarray, layout: Layout):
        (sl_f, sl_t), idx = layout
        xf, xt = x[sl_f], x[sl_t]
        pred = self.model.step_mean(xf, self.action)
        e = xt - pred
        e[2] = wrap_angle(e[2])
        f_jac = self.model.step_jacobian(xf, self.action)
        wt = self._wt
        d = e.size
        a = np.zeros((d, 2 * d))
        a[:, :d] = -wt @ f_jac
        a[:, d:] = wt
        return wt @ e, a, idx


@dataclass(frozen=True)
class MeasurementFactor:
    """Observation factor z = h(x_t, l_j) + v on pose ``t`` and landmark ``lm``.

    It has no ``whitened`` of its own: ``solve_factors`` linearizes each run
    of consecutive measurement factors on one pose in one
    ``MeasModel.linearize`` call.
    """

    t: int
    lm: int
    z: np.ndarray
    model: MeasModel

    def __post_init__(self) -> None:
        object.__setattr__(self, "z", _freeze(self.z))
        object.__setattr__(self, "_wt", self.model.noise_wt)

    def involved(self) -> tuple[VariableId, ...]:
        return (pose_var(self.t), landmark_var(self.lm))


Factor = DensePriorFactor | MotionFactor | MeasurementFactor


# ---------------------------------------------------------------------------
# Gauss-Newton solve


class _OneFactor:
    """A factor that ``solve_factors`` linearizes alone, by its ``whitened``;
    a ``DensePriorFactor`` adds the information it computed once."""

    __slots__ = ("factor", "layout", "block", "info")

    def __init__(self, factor: Factor, index: VariableIndex) -> None:
        self.factor = factor
        self.layout, self.block = index.layout(factor.involved())
        self.info = factor._info if isinstance(factor, DensePriorFactor) else None

    def add(self, x: np.ndarray, lam_flat: np.ndarray, rhs: np.ndarray) -> None:
        ew, a, idx = self.factor.whitened(x, self.layout)
        lam_flat[self.block] += (a.T @ a).ravel() if self.info is None else self.info
        rhs[idx] -= a.T @ ew


# ``linearize``'s Jacobian columns in each factor's (pose, landmark) order.
# BLAS rounds a column of ``a' (W e)`` by its position in ``a``, so the
# order must be the one-factor order for the gradient to keep its bits.
_POSE_THEN_LANDMARK = (2, 3, 4, 0, 1)


class _MeasurementRun:
    """Consecutive ``MeasurementFactor``s on one pose and one model,
    linearized in one ``MeasModel.linearize`` call, bit for bit as one by
    one (see ``solve_factors``)."""

    __slots__ = ("model", "wt", "z", "pose", "lms", "idx", "block")

    def __init__(self, run: Sequence[MeasurementFactor], index: VariableIndex) -> None:
        first = run[0]
        self.model, self.wt = first.model, first._wt
        self.z = np.array([f.z for f in run])
        self.pose, self.lms, self.idx, self.block = index.measurement_run(
            first.t, tuple(f.lm for f in run))

    def _jacobians(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Predicted measurements (k, 2) and whitened Jacobians (k, 2, 5),
        whose columns are the pose's, then the landmark's."""
        h, jac = self.model.linearize(x[self.pose], x[self.lms])
        return h, self.wt @ jac[:, :, _POSE_THEN_LANDMARK]

    def add(self, x: np.ndarray, lam_flat: np.ndarray, rhs: np.ndarray) -> None:
        h, a = self._jacobians(x)
        np.add.at(lam_flat, self.block, (a.transpose(0, 2, 1) @ a).ravel())
        e = h - self.z
        e[:, 1] = [wrap_angle(b) for b in e[:, 1].tolist()]
        np.subtract.at(rhs, self.idx, ((e @ self.wt.T)[:, None, :] @ a).ravel())


def _run_key(f: Factor) -> tuple[int, int] | None:
    """Measurement factors group by pose and model; other factors stand alone."""
    return (f.t, id(f.model)) if isinstance(f, MeasurementFactor) else None


def _linearization_plan(factors: Sequence[Factor], index: VariableIndex):
    """One step per factor, except one per run of measurement factors."""
    plan: list[_OneFactor | _MeasurementRun] = []
    for key, group in itertools.groupby(factors, _run_key):
        if key is None:
            plan.extend(_OneFactor(f, index) for f in group)
        else:
            plan.append(_MeasurementRun(tuple(group), index))
    return plan


def solve_factors(
    factors: Sequence[Factor],
    index: VariableIndex,
    init: np.ndarray,
    *,
    tol: float = _GN_TOL,
    max_iter: int = _GN_MAX_ITER,
) -> tuple[np.ndarray, np.ndarray, int]:
    """Gauss-Newton on the stacked whitened system; returns (mean, cov, iters).

    Each iteration factors the information matrix ``Lambda = L L'`` and
    solves ``L y = g`` then ``L' delta = y`` for the step, where ``g`` is the
    whitened gradient: two triangular solves on ``L`` (LAPACK's ``dtrtrs``,
    through ``_gaussian.lower_solve``), with no second factorization.  A
    ``Lambda`` that is not positive definite, or a singular ``L``, raises
    ``DegenerateUpdate``.  The solve stops after a step with ``|y| < tol``, or
    after ``max_iter`` steps.  ``|y|^2 = delta' Lambda delta = g' Lambda^-1 g``
    is the squared Newton decrement: the step's length in posterior standard
    deviations, and twice GN's predicted decrease of the whitened cost (so
    ``tol`` = 1e-4 means a predicted decrease under 5e-9 in chi-square
    units).  It needs no problem-specific scale and costs nothing, since
    ``y`` is the first triangular solve.  ``iters == max_iter`` means the
    rule did not fire.  A ``max_iter`` below 1 raises ``InvalidInput``.

    The covariance is ``Lambda^-1`` of the last iteration, by ``dpotri`` on
    its factor ``L`` (``_gaussian.chol_inverse``): the iterated EKF's
    posterior covariance, the information at the iterate the last step was
    solved from (Bell & Cathey, IEEE TAC 1993).  No pass linearizes the
    factors at the returned mean, so a solve of ``iters`` iterations
    assembles and factors ``Lambda`` exactly ``iters`` times.

    A gradient that is exactly zero (a most-likely future starts at its own
    optimum) makes ``y = L^-1 0`` exactly zero, so the rule fires right
    after that iteration's factorization, with no triangular solve.  The
    state is then the one ``Lambda`` was built at: ``x`` is always a wrapped
    state, which wrapping returns unchanged, so the zero step would leave it
    bitwise as it is.

    The solve is deterministic: fixed iteration order, fixed stopping rule.
    Linear systems converge in a single step.  Each factor's layout (its
    slices, index array and the flat positions of its information block) is
    the index's cached ``layout``, not rebuilt per solve or per iteration.

    Each run of consecutive ``MeasurementFactor``s on one pose and model is
    linearized as one stack, with its layout cached as the index's
    ``measurement_run``: one ``MeasModel.linearize`` call, then batched
    ``matmul``s for the whitened Jacobians ``a``, their ``a'a`` and the
    gradient terms ``a'(W e)``.  Every number equals the one factor-by-factor
    linearization gives, bit for bit: ``linearize`` takes each range and
    bearing from ``math.hypot`` and ``math.atan2`` per landmark, the
    bearing residual is wrapped per entry by ``wrap_angle``, and each
    batched product is a two-term dot product that BLAS rounds as it rounds
    the single one, given the single one's column order (pose, then
    landmark), since BLAS rounds a column of ``a'(W e)`` by its position.
    ``np.add.at`` and ``np.subtract.at`` then add a run's
    terms unbuffered, in factor order, so the entries the factors share (the
    pose block) are summed in the order of the factor list.  A
    ``DensePriorFactor`` adds the information it computed at construction.
    So the arithmetic and its order are those of linearizing every factor
    on its own each iteration.
    """
    if max_iter < 1:
        raise InvalidInput(f"max_iter must be at least 1, got {max_iter}")
    x = wrap_state(index, np.asarray(init, dtype=float))
    d = index.dim
    plan = _linearization_plan(factors, index)
    iters = 0
    for _ in range(max_iter):
        lam = np.zeros((d, d))
        lam_flat = lam.reshape(-1)  # a view: writes land in lam
        rhs = np.zeros(d)
        for step in plan:
            step.add(x, lam_flat, rhs)
        iters += 1
        try:
            low = chol_lower(lam, "information matrix")
            if not rhs.any() and 0.0 < tol:  # y = L^-1 0 = 0 < tol
                break
            y = lower_solve(low, rhs)
            delta = lower_solve(low, y, trans=True)
        except NumericalError as exc:
            raise DegenerateUpdate(str(exc)) from exc
        x = _wrap_own(index, x + delta)
        if float(np.linalg.norm(y)) < tol:
            break
    return x, chol_inverse(low), iters


# ---------------------------------------------------------------------------
# beliefs


@dataclass(frozen=True)
class GaussianState:
    """Minimal Gaussian over an indexed joint: mean + covariance.

    ``cov_chol`` is the lower Cholesky factor of ``cov`` that validating it
    computed, kept read-only and outside the dataclass fields (so it takes
    no part in ``==`` or ``repr`` and no serializer writes it).  It is
    ``chol_lower(cov)`` bit for bit, so a consumer of the factor (a
    planning node's prior, a sampled state) reads it instead of factoring
    ``cov`` again.
    """

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
            sym, low = spd_and_chol(cov)
        except InvalidInput as exc:  # non-finite or asymmetric
            raise InvalidBelief(str(exc)) from exc
        except NumericalError as exc:
            raise InvalidBelief("covariance must be positive definite") from exc
        object.__setattr__(self, "mean", _freeze(mean))
        object.__setattr__(self, "cov", _freeze(sym))
        object.__setattr__(self, "cov_chol", _freeze(low))

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
    """Belief after an action, before measurements: b-minus over one extra pose.

    ``factors`` ends with the action's ``MotionFactor``.
    """

    factors: tuple[Factor, ...] = ()
    time: int = 0

    def new_pose(self) -> VariableId:
        return pose_var(self.time)


@dataclass(frozen=True)
class GaussianBelief(GaussianState):
    """Posterior belief: the solution of its factor list.

    An inference belief's list is its whole record: one ``MotionFactor``
    per step absorbed since the root prior, whose ``t_to`` is the step's
    time, and one ``MeasurementFactor`` per measurement entry.  A lookahead
    node's list is one step: a ``DensePriorFactor`` on its propagated
    Gaussian and that step's ``MeasurementFactor``s.  The covariance is the
    inverse of the information matrix the solve's last step was solved with
    (``solve_factors``), so it is linearized one iterate before ``mean``
    unless the solve started at its optimum.  ``gn_iters`` is the
    iteration count of the solve that made the belief (0 when none ran).
    """

    factors: tuple[Factor, ...] = ()
    time: int = 0
    gn_iters: int = 0

    @property
    def gn_capped(self) -> bool:
        """Whether the solve stopped at the iteration cap, not by its rule."""
        return self.gn_iters >= _GN_MAX_ITER


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
    prior = DensePriorFactor(index.vars, mean, cov)
    return GaussianBelief(index=index, mean=mean, cov=cov, factors=(prior,),
                          time=t)


def planning_root(belief: GaussianBelief) -> GaussianBelief:
    """Marginalize onto (newest pose, landmarks) and re-anchor as a dense prior.

    Future factors only touch the newest pose and landmarks, so every
    planning quantity computed from this root matches the full joint.
    """
    keep = canonical_order(list(belief.index.landmarks()) + [belief.index.newest_pose()])
    marg = belief.marginal(keep)
    prior = DensePriorFactor(marg.index.vars, marg.mean, marg.cov,
                             chol=marg.cov_chol, index=marg.index)
    return GaussianBelief(index=marg.index, mean=marg.mean, cov=marg.cov,
                          factors=(prior,), time=belief.time)


def propagate(
    belief: GaussianBelief, action: ActionId, model: MotionModel
) -> PropagatedBelief:
    """Append the next pose via the motion model (linearized pushforward).

    The propagated covariance matches N(f(mu), F Sigma F^T + Sigma_w) on the
    new pose block; cross blocks follow the same linearization.
    """
    cur = belief.index.newest_pose()
    new_t = cur.index + 1
    index = belief.index.extended(pose_var(new_t))

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
    return PropagatedBelief(index=index, mean=mean, cov=cov,
                            factors=belief.factors + (factor,), time=new_t)


def update_with_measurements(
    prop: PropagatedBelief,
    measurements: MeasurementSet,
    model: MeasModel,
    *,
    inference: bool = False,
) -> GaussianBelief:
    """Condition a propagated belief on a measurement set.

    Planning (the default) updates one step: the problem is a dense prior on
    ``prop``'s Gaussian plus this step's measurement factors, the standard
    belief-space-planning update linearized at the propagated mean (Indelman,
    Carlone & Dellaert, IJRR 2015), iterated as Gauss-Newton on the one-step
    problem (Bell & Cathey, IEEE TAC 1993).  It stops once a step is under
    0.1 posterior standard deviations, and the belief's factor list is that
    prior and those measurement factors.  As in that iterated EKF, the
    covariance is ``(Sigma^-1 + sum_i H_i' R^-1 H_i)^-1``, with ``Sigma``
    ``prop``'s covariance and each Jacobian ``H_i`` taken at the iterate the
    last step was solved from.  ``prop`` alone fixes the result, so
    a re-used lookahead node gets exactly the update of a fresh one.  An
    unknown landmark raises ``UnknownLandmark``.

    ``inference`` re-solves the whole history instead: ``prop``'s factor list
    plus the new measurement factors, to the full 1e-4 tolerance.  Unknown
    landmarks then enter via inverse-measurement initialization under a weak
    prior.

    An empty set returns the propagated Gaussian and its factor list
    unchanged.  The result records the solve's ``gn_iters``.
    """
    if len(measurements) == 0:
        return GaussianBelief(index=prop.index, mean=prop.mean, cov=prop.cov,
                              factors=prop.factors, time=prop.time)

    index = prop.index
    pose_mean = prop.mean[index.slice_of(prop.new_pose())]
    new_lms: list[tuple[int, np.ndarray]] = []
    for entry in measurements:
        if landmark_var(entry.lm) not in index:
            if not inference:
                raise UnknownLandmark(f"landmark {entry.lm} not in belief")
            new_lms.append((entry.lm, model.invert(pose_mean, entry.value)))
    meas_factors = tuple(MeasurementFactor(prop.time, e.lm, e.value, model)
                         for e in measurements)

    if not inference:
        prior = DensePriorFactor(index.vars, prop.mean, prop.cov,
                                 chol=prop.cov_chol, index=index)
        factors = (prior,) + meas_factors
        mean, cov, iters = solve_factors(factors, index, prop.mean, tol=_PLAN_TOL)
        return GaussianBelief(index=index, mean=mean, cov=cov, factors=factors,
                              time=prop.time, gn_iters=iters)

    init = prop.mean
    lm_priors: list[Factor] = []
    if new_lms:
        vars_ = canonical_order(index.vars + tuple(landmark_var(j) for j, _ in new_lms))
        new_index = VariableIndex(vars_)
        init = overlay(new_index, np.zeros(new_index.dim), index, init)
        lm_cov, lm_chol = _landmark_init_prior()
        for j, guess in new_lms:
            init[new_index.slice_of(landmark_var(j))] = guess
            lm_priors.append(DensePriorFactor(
                (landmark_var(j),), guess, lm_cov, chol=lm_chol))
        index = new_index

    factors = prop.factors + tuple(lm_priors) + meas_factors
    mean, cov, iters = solve_factors(factors, index, init)
    return GaussianBelief(index=index, mean=mean, cov=cov, factors=factors,
                          time=prop.time, gn_iters=iters)
