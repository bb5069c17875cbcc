"""Future-measurement generation for belief-space planning.

Given a propagated belief b-minus, lookahead measurements are generated in
three moves: sample a joint state realization chi ~ b-minus, gate landmarks
through the sensor's field of view at chi (the predicted data association),
then draw measurement values from the observation model at chi.  The
state is drawn with b-minus's ``cov_chol``, the Cholesky factor computed
when its covariance was validated, so a draw factors nothing.  The
most-likely variant replaces every draw with the model mean at the propagated
mean.

Densities of measurement sets under a propagated belief marginalize the state
per entry: z_e ~ N(h(mu), Sigma_v + J Sigma J^T) with J the measurement
Jacobian at the propagated mean.  Entries multiply as if independent; the
shared-pose correlation between entries of one step is deliberately dropped
so that each entry's density can be archived with its sample and compared
entry by entry when a later session keeps only some entries.  Reweighting
ratios always compare densities computed the same way.

A set's k entries are evaluated in one stacked pass: the (k, 2, 5)
Jacobians, the k predictive covariances from one stacked matmul, one batched
Cholesky factorization and a 2x2 forward substitution.  Each entry's log
density equals, bit for bit, the entry-by-entry evaluation
(``MeasModel.predict`` and the scalar range-bearing Jacobian, a Cholesky
factor, ``scipy.linalg.solve_triangular`` and ``y @ y``), so archived
densities and re-use weights do not depend on how a set is evaluated.  The
numpy calls that round differently are avoided: ``np.hypot`` and
``np.arctan2`` differ from ``math.hypot`` and ``math.atan2`` in the last
bit, so range and bearing are computed per entry with ``math``; ``einsum``
and ``(y * y).sum()`` differ from the BLAS dot behind ``y @ y``, which
``np.vecdot`` reproduces.  The substitution ``y1 = (d1 - l10 * y0) / l11``
reproduces ``solve_triangular``'s bits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._gaussian import chol_lower
from .beliefs import (
    MeasurementEntry,
    MeasurementSet,
    PropagatedBelief,
    wrap_state,
)
from .errors import InvalidInput, UnknownLandmark
from .models import MeasModel, landmark_var, wrap_angle

_LOG_2PI = float(np.log(2.0 * np.pi))


@dataclass(frozen=True, slots=True)
class MeasurementSample:
    """One sampled future: a state realization and the measurements it yielded.

    The realized data association is ``z_set.keys()``, the landmark ids the
    sample observes at its step.  Each entry's log density under the
    generating propagated belief is evaluated at creation
    (``entry_log_densities``, keyed by landmark id); a later session that
    keeps the entry reads it as q, so re-use never has to reconstruct the
    generator.
    """

    chi: np.ndarray
    z_set: MeasurementSet
    entry_log_densities: dict[int, float]

    def __post_init__(self) -> None:
        arr = np.ascontiguousarray(self.chi, dtype=float)
        arr.flags.writeable = False
        object.__setattr__(self, "chi", arr)


def node_rng(base_seed: int, path: tuple[int, ...]) -> np.random.Generator:
    """Deterministic per-node random stream.

    The stream depends only on the base seed and the node's path in the tree,
    never on construction order, so serial and parallel builds agree.
    """
    ss = np.random.SeedSequence(entropy=int(base_seed), spawn_key=tuple(int(p) for p in path))
    return np.random.Generator(np.random.PCG64(ss))


def predicted_da(
    prop: PropagatedBelief, model: MeasModel, at_state: np.ndarray
) -> tuple[int, ...]:
    """Ids of the landmarks visible from ``prop``'s new pose at a state
    realization, ascending.

    Only landmarks already inside the belief are considered; planning never
    invents landmarks it has not mapped.
    """
    x = np.asarray(at_state, dtype=float)
    if x.size != prop.index.dim:
        raise InvalidInput("state realization dimension mismatch")
    pose = x[prop.index.slice_of(prop.new_pose())]
    keys = []
    for lm in prop.index.landmarks():
        lpos = x[prop.index.slice_of(lm)]
        if model.visible(pose, lpos):
            keys.append(lm.index)
    return tuple(keys)


def _measure_at(
    prop: PropagatedBelief,
    model: MeasModel,
    chi: np.ndarray,
    da: tuple[int, ...],
    rng: np.random.Generator | None,
) -> MeasurementSet:
    """Draw (or take the mean of) measurement values at a state realization."""
    pose = chi[prop.index.slice_of(prop.new_pose())]
    noise_l = model.noise_chol
    entries = []
    for lm in da:
        z = model.predict(pose, chi[prop.index.slice_of(landmark_var(lm))])
        if rng is not None:
            z = z + noise_l @ rng.standard_normal(z.size)
            z = np.array([z[0], wrap_angle(z[1])])
        entries.append(MeasurementEntry(lm, z))
    return MeasurementSet(tuple(entries))


def sample_state_futures(
    prop: PropagatedBelief,
    model: MeasModel,
    n_z: int,
    rng: np.random.Generator,
) -> list[MeasurementSample]:
    """n_z measurement sets from one drawn state realization."""
    low = prop.cov_chol
    chi = wrap_state(prop.index, prop.mean + low @ rng.standard_normal(prop.dim))
    da = predicted_da(prop, model, chi)
    out = []
    for _ in range(n_z):
        z_set = _measure_at(prop, model, chi, da, rng)
        out.append(MeasurementSample(
            chi, z_set, measurement_likelihood_density(z_set, prop, model)))
    return out


def sample_future_measurements(
    prop: PropagatedBelief,
    model: MeasModel,
    n_x: int,
    n_z: int,
    rng: np.random.Generator,
) -> list[MeasurementSample]:
    """Draw n_x state realizations and n_z measurement sets from each.

    Returns n_x * n_z samples ordered state-major; sample j*n_z + m shares
    chi_j.  Each sample carries its per-entry log densities under ``prop``.
    """
    if n_x < 1 or n_z < 1:
        raise InvalidInput("n_x and n_z must be >= 1")
    samples: list[MeasurementSample] = []
    for _ in range(n_x):
        samples.extend(sample_state_futures(prop, model, n_z, rng))
    return samples


def most_likely_measurement(
    prop: PropagatedBelief, model: MeasModel
) -> MeasurementSample:
    """The single maximum-likelihood future: model means at the propagated mean."""
    chi = prop.mean.copy()
    da = predicted_da(prop, model, chi)
    z_set = _measure_at(prop, model, chi, da, rng=None)
    return MeasurementSample(
        chi, z_set, measurement_likelihood_density(z_set, prop, model))


def measurement_likelihood_density(
    z_set: MeasurementSet, prop: PropagatedBelief, model: MeasModel
) -> dict[int, float]:
    """Log predictive density of each entry of a measurement set under a
    propagated belief, keyed by landmark id.

    The set's density is their product; no caller needs it, because a
    re-use weight compares only the entries a later session keeps.  An empty
    set has density one: with nothing observed the event carries no weight.

    All entries are evaluated in one stacked pass whose results equal the
    entry-by-entry evaluation bit for bit (see the module docstring).  A
    landmark that ``prop`` does not hold raises ``UnknownLandmark``; a
    landmark on the new pose and a non-finite value raise ``InvalidInput``,
    and a predictive covariance raises as ``chol_lower`` does.
    """
    if not len(z_set):
        return {}
    index = prop.index
    lms = z_set.keys()
    at = index.offset(prop.new_pose())
    rows = []  # each entry's (landmark, new pose) coordinates
    for lm in lms:
        lvid = landmark_var(lm)
        if lvid not in index:
            raise UnknownLandmark(f"landmark {lm} not in propagated belief")
        off = index.offset(lvid)
        rows.append((off, off + 1, at, at + 1, at + 2))
    idx = np.array(rows)
    mean, jac = model.linearize(prop.mean[at:at + 3], prop.mean[idx[:, :2]])
    cov = model.noise_cov + (
        jac @ prop.cov[idx[:, :, None], idx[:, None, :]] @ jac.transpose(0, 2, 1))
    low = chol_lower(cov)
    values = np.array([e.value for e in z_set])
    if not np.isfinite(values).all():
        raise InvalidInput("measurement values must be finite")
    y = np.empty(values.shape)
    y[:, 0] = (values[:, 0] - mean[:, 0]) / low[:, 0, 0]
    bearing = [wrap_angle(z - m)
               for z, m in zip(values[:, 1].tolist(), mean[:, 1].tolist())]
    y[:, 1] = (bearing - low[:, 1, 0] * y[:, 0]) / low[:, 1, 1]
    log_diag = np.log(low[:, (0, 1), (0, 1)])
    logdet = 2.0 * (log_diag[:, 0] + log_diag[:, 1])
    return dict(zip(lms, -0.5 * (np.vecdot(y, y) + logdet + 2 * _LOG_2PI)))
