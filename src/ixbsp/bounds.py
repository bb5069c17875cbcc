"""Objective-error bounds for verbatim belief re-use.

When a planning session adopts archived beliefs without updating them, the
objective it reports differs from the one a fresh session would compute.  For
rewards that are Hölder in the belief (via the sqrt-J distance form), that
error is bounded:

* per reward:   |r(b) - r(b')| <= lam * (4 ln 2)^(a/2) * d(b, b')^a,
* per sequence, from sampled trees:  slot-paired reward gaps plus per-path
  distance slack around the reweighted archived objective,
* analytically, for linear-Gaussian problems:  phi - psi <= J_new - J_old
  <= phi + psi, with phi the likelihood-shift correction of the archived
  rewards and psi built from the adopted-root gap eps_wf plus the exact
  expected squared-distance increments E[Delta_j] accumulated step by step
  (d_i^2 = d_{i-1}^2 + Delta_i, Delta_i a Gaussian quadratic form).

The linear-Gaussian scenario here keeps every ingredient exact: posterior
means are affine in the driving noise, covariance schedules are deterministic,
and the saturated quadratic reward carries a provable Hölder constant, so the
bound-containment checks are mathematical guarantees rather than tuning.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .distances import gaussian_quadratic_moments, incremental_delta
from .distances import d_sqrt_j as _d_sqrt_j_state
from .errors import IncompatibleTrees, InvalidInput, UnsupportedModel
from .planner import BeliefTree, objective

_FOUR_LN2 = 4.0 * math.log(2.0)


@dataclass(frozen=True, slots=True)
class HolderSpec:
    """Reward regularity constants: |r(b) - r(b')| <= lam_alpha * ||b - b'||^alpha."""

    lam_alpha: float
    alpha: float = 1.0

    def __post_init__(self) -> None:
        if not (0.0 < self.alpha <= 1.0):
            raise InvalidInput(f"alpha must be in (0, 1], got {self.alpha}")
        if not self.lam_alpha > 0.0:
            raise InvalidInput(f"lam_alpha must be positive, got {self.lam_alpha}")

    @property
    def scale(self) -> float:
        """Distance-form prefactor lam_alpha * (4 ln 2)^(alpha/2)."""
        return self.lam_alpha * _FOUR_LN2 ** (self.alpha / 2.0)


@dataclass(frozen=True, slots=True)
class BoundReport:
    """Two-sided objective-difference bound: lower <= J_new - J_old <= upper."""

    lower: float
    upper: float
    phi: float
    psi: float
    per_step_e_delta: tuple[float, ...]
    method: str
    advisory: bool = False

    def __post_init__(self) -> None:
        if self.method not in ("sampled", "analytic"):
            raise InvalidInput(f"unknown bound method {self.method!r}")
        if self.psi < 0.0:
            raise InvalidInput("psi must be non-negative")
        if self.lower > self.upper:
            raise InvalidInput("bound interval is empty")

    def contains(self, diff: float) -> bool:
        return self.lower <= diff <= self.upper

    def to_json_dict(self) -> dict:
        return {
            "lower": self.lower,
            "upper": self.upper,
            "phi": self.phi,
            "psi": self.psi,
            "per_step_e_delta": list(self.per_step_e_delta),
            "method": self.method,
            "advisory": self.advisory,
        }


# ---------------------------------------------------------------------------
# reward-level bound and Hölder constant handling


def reward_bound(b, b_prime, spec: HolderSpec) -> float:
    """Largest reward gap compatible with the beliefs' sqrt-J distance."""
    return spec.scale * _d_sqrt_j_state(b, b_prime) ** spec.alpha


def fit_lambda(
    distances: np.ndarray,
    reward_gaps: np.ndarray,
    alpha: float = 1.0,
    margin: float = 1.25,
) -> HolderSpec:
    """Empirical Hölder constant from observed (distance, |reward gap|) pairs.

    Returns the smallest constant covering every pair, inflated by ``margin``
    for unsampled territory.  Zero-distance pairs must have zero gap.
    """
    d = np.asarray(distances, dtype=float)
    g = np.abs(np.asarray(reward_gaps, dtype=float))
    if d.shape != g.shape or d.size == 0:
        raise InvalidInput("need matching, non-empty distance and gap arrays")
    if np.any(d < 0.0):
        raise InvalidInput("distances must be non-negative")
    at_zero = d == 0.0
    if np.any(g[at_zero] > 0.0):
        raise InvalidInput("positive reward gap at zero distance: not Hölder")
    pos = ~at_zero
    if not np.any(pos):
        raise InvalidInput("all pairs at zero distance; constant is unconstrained")
    scale = _FOUR_LN2 ** (alpha / 2.0)
    ratios = g[pos] / (scale * d[pos] ** alpha)
    lam = float(ratios.max()) * margin
    return HolderSpec(lam_alpha=max(lam, np.finfo(float).tiny), alpha=alpha)


def verify_lambda(
    distances: np.ndarray, reward_gaps: np.ndarray, spec: HolderSpec
) -> bool:
    """Does every observed pair satisfy the distance-form Hölder bound?"""
    d = np.asarray(distances, dtype=float)
    g = np.abs(np.asarray(reward_gaps, dtype=float))
    if d.shape != g.shape or d.size == 0:
        raise InvalidInput("need matching, non-empty distance and gap arrays")
    return bool(np.all(g <= spec.scale * d ** spec.alpha + 1e-12))


# ---------------------------------------------------------------------------
# sampled bound over two lookahead trees


def objective_bound_sampled(
    tree_now: BeliefTree,
    tree_prev: BeliefTree,
    seq: tuple[int, ...],
    spec: HolderSpec,
    weights: dict[int, np.ndarray] | None = None,
) -> BoundReport:
    """Two-sided bound on J_now(seq) - J_prev(seq) from slot-paired trees.

    Sample paths are paired by slot index, so both trees must expand the
    sequence with identical branching.  ``weights`` optionally maps depth to
    that step's non-negative path weights (summing to one); the default is
    uniform 1/n_i.
    """
    if tree_now.horizon != tree_prev.horizon:
        raise IncompatibleTrees("trees disagree on horizon")
    center = 0.0
    slack = 0.0
    mean_d2: list[float] = []
    for depth in range(1, tree_now.horizon + 1):
        nodes_now = tree_now.paths_for_seq(seq, depth)
        nodes_prev = tree_prev.paths_for_seq(seq, depth)
        if len(nodes_now) != len(nodes_prev) or not nodes_now:
            raise IncompatibleTrees(
                f"path counts disagree at depth {depth}: "
                f"{len(nodes_now)} vs {len(nodes_prev)}")
        n = len(nodes_now)
        uniform = weights is None or depth not in weights
        if uniform:
            w = np.full(n, 1.0 / n)
        else:
            w = np.asarray(weights[depth], dtype=float)
            if w.shape != (n,) or np.any(w < 0.0) or abs(w.sum() - 1.0) > 1e-9:
                raise InvalidInput(
                    f"depth-{depth} weights must be {n} non-negatives summing to 1")
        d2_acc = 0.0
        r_acc = 0.0
        for wj, now, prev in zip(w, nodes_now, nodes_prev):
            dist = _d_sqrt_j_state(now.belief, prev.belief)
            r_acc += wj * prev.reward if not uniform else prev.reward
            slack += wj * spec.scale * dist ** spec.alpha
            d2_acc += wj * dist * dist
        # J_prev is the planner's objective, which on the fresh trees built
        # here is the plain mean; uniform weights accumulate exactly like it,
        # so the identical-tree case cancels to phi == 0.0 bit-exactly
        center += r_acc / n if uniform else r_acc
        mean_d2.append(d2_acc)
    j_prev = objective(tree_prev, seq)
    phi = center - j_prev
    deltas = tuple(
        m - (mean_d2[i - 1] if i > 0 else 0.0) for i, m in enumerate(mean_d2))
    return BoundReport(
        lower=phi - slack, upper=phi + slack, phi=phi, psi=slack,
        per_step_e_delta=deltas, method="sampled",
    )


# ---------------------------------------------------------------------------
# linear-Gaussian scenario with exact affine structure


@dataclass(frozen=True)
class LinearGaussianScenario:
    """Isotropic linear-Gaussian toy with every planning quantity exact.

    Two sessions plan over the same ``n_steps`` lookahead: the archived one
    starts from a prior whose mean is shifted so the sqrt-J gap to the fresh
    prior is exactly the wildfire threshold under test.  Posterior means are
    affine in the driving standard normals, covariance schedules are
    deterministic, and the reward saturates, giving the provable constant
    lam_1 = sqrt(cap / (2 ln 2)) for equal-covariance pairs.
    """

    dim: int = 2
    f_scale: float = 1.0
    noise_w: float = 0.3
    h_scale: float = 1.0
    noise_v: float = 0.5
    prior_std: float = 1.0
    prior_std_archived: float | None = None
    goal: tuple[float, ...] = (3.0, 0.0)
    reward_cap: float = 8000.0
    n_steps: int = 3
    control_scale: float = 1.0
    control_seed: int = 0
    direction_seed: int = 0

    def __post_init__(self) -> None:
        if self.dim < 1 or self.n_steps < 1:
            raise InvalidInput("dim and n_steps must be >= 1")
        if len(self.goal) != self.dim:
            raise InvalidInput("goal dimension mismatch")
        if min(self.noise_w, self.noise_v, self.prior_std) <= 0.0:
            raise InvalidInput("noise and prior scales must be positive")
        if self.reward_cap <= 0.0:
            raise InvalidInput("reward cap must be positive")

    # -- deterministic structure ------------------------------------------

    def holder_spec(self) -> HolderSpec:
        """Provable constant for equal-covariance pairs of this reward.

        |r(b) - r(b')| <= sqrt(2 cap) * d(b, b'), hence
        lam_1 = sqrt(2 cap) / sqrt(4 ln 2) = sqrt(cap / (2 ln 2)).
        """
        return HolderSpec(
            lam_alpha=math.sqrt(self.reward_cap / (2.0 * math.log(2.0))),
            alpha=1.0,
        )

    def reward(self, mean: np.ndarray, var: float) -> float:
        """Saturated quadratic goal cost: -0.5 min(|mu - g|^2 / var, cap)."""
        q = float(np.sum((mean - np.asarray(self.goal)) ** 2)) / var
        return -0.5 * min(q, self.reward_cap)

    def _reward_batch(self, means: np.ndarray, var: float) -> np.ndarray:
        q = np.sum((means - np.asarray(self.goal)) ** 2, axis=-1) / var
        return -0.5 * np.minimum(q, self.reward_cap)

    def controls(self) -> np.ndarray:
        rng = np.random.default_rng(np.random.SeedSequence(
            entropy=self.control_seed, spawn_key=(17,)))
        return self.control_scale * rng.standard_normal((self.n_steps, self.dim))

    def gap_direction(self) -> np.ndarray:
        rng = np.random.default_rng(np.random.SeedSequence(
            entropy=self.direction_seed, spawn_key=(29,)))
        v = rng.standard_normal(self.dim)
        return v / float(np.linalg.norm(v))

    def gap_shift(self, eps_wf: float) -> np.ndarray:
        """Prior mean shift with sqrt-J distance exactly eps_wf.

        Equal isotropic covariances give d^2 = |shift|^2 / (2 sigma0^2).
        """
        return math.sqrt(2.0) * eps_wf * self.prior_std * self.gap_direction()

    def variance_schedule(self, prior_var: float) -> tuple[list[float], list[float]]:
        """Per-step (propagated, posterior) isotropic variances."""
        props: list[float] = []
        posts: list[float] = []
        var = prior_var
        for _ in range(self.n_steps):
            var_prop = self.f_scale**2 * var + self.noise_w**2
            var = 1.0 / (1.0 / var_prop + self.h_scale**2 / self.noise_v**2)
            props.append(var_prop)
            posts.append(var)
        return props, posts

    def information_increments(self, prior_var: float) -> list[float]:
        """a_j with 1/s_j^2 = 1/s_{j-1}^2 + a_j^2 along the posterior schedule.

        The full propagate-and-update cycle must gain precision at every step
        for the incremental-distance form to apply; scenarios violating that
        are rejected rather than silently mishandled.
        """
        _, posts = self.variance_schedule(prior_var)
        out: list[float] = []
        prev = prior_var
        for var in posts:
            gain = 1.0 / var - 1.0 / prev
            if gain <= 0.0:
                raise InvalidInput(
                    "posterior precision must increase every step; "
                    "reduce noise_w or noise_v")
            out.append(math.sqrt(gain))
            prev = var
        return out


@dataclass(frozen=True, slots=True)
class _AffineMap:
    """mean(xi) = const + lin @ xi over the stacked driving normals."""

    const: np.ndarray
    lin: np.ndarray

    def __add__(self, other: "_AffineMap") -> "_AffineMap":
        return _AffineMap(self.const + other.const, self.lin + other.lin)

    def __sub__(self, other: "_AffineMap") -> "_AffineMap":
        return _AffineMap(self.const - other.const, self.lin - other.lin)

    def scaled(self, k: float) -> "_AffineMap":
        return _AffineMap(k * self.const, k * self.lin)

    def evaluate(self, xi: np.ndarray) -> np.ndarray:
        """Batch evaluation: xi of shape (m, n_xi) -> means of shape (m, d)."""
        return self.const + xi @ self.lin.T


@dataclass(frozen=True, slots=True)
class _Drive:
    """Both branches filtered against one branch's self-generated measurements."""

    post_maps: tuple[tuple[_AffineMap, ...], ...]  # [branch][step]
    post_vars: tuple[tuple[float, ...], ...]


def _drive(scn: LinearGaussianScenario, prior_means: list[np.ndarray],
           prior_vars: list[float], driver: int) -> _Drive:
    """Filter every branch on the measurement stream branch ``driver`` emits.

    The driver's step-j measurement is its own predictive mean plus scaled
    fresh noise xi_j, so every posterior mean is affine in the stacked xi.
    """
    d, n = scn.dim, scn.n_steps
    n_xi = n * d
    eye = np.eye(d)
    controls = scn.controls()
    branches = list(range(len(prior_means)))
    maps = [_AffineMap(np.asarray(prior_means[b], dtype=float), np.zeros((d, n_xi)))
            for b in branches]
    vars_now = [float(prior_vars[b]) for b in branches]
    scheds = [scn.variance_schedule(prior_vars[b]) for b in branches]
    out_maps: list[list[_AffineMap]] = [[] for _ in branches]
    out_vars: list[list[float]] = [[] for _ in branches]
    for j in range(n):
        u = controls[j]
        props = [_AffineMap(scn.f_scale * m.const + u, scn.f_scale * m.lin)
                 for m in maps]
        prop_vars = [scheds[b][0][j] for b in branches]
        # driver emits z_j = h * own predictive + sqrt(h^2 s_prop^2 + sv^2) xi_j
        z_std = math.sqrt(scn.h_scale**2 * prop_vars[driver] + scn.noise_v**2)
        z_lin = scn.h_scale * props[driver].lin
        z_lin = z_lin.copy()
        z_lin[:, j * d:(j + 1) * d] += z_std * eye
        z_map = _AffineMap(scn.h_scale * props[driver].const, z_lin)
        new_maps = []
        for b in branches:
            k_gain = prop_vars[b] * scn.h_scale / (
                scn.h_scale**2 * prop_vars[b] + scn.noise_v**2)
            innov = _AffineMap(z_map.const - scn.h_scale * props[b].const,
                               z_map.lin - scn.h_scale * props[b].lin)
            new_maps.append(props[b] + innov.scaled(k_gain))
            vars_now[b] = scheds[b][1][j]
            out_vars[b].append(vars_now[b])
            out_maps[b].append(new_maps[b])
        maps = new_maps
    return _Drive(
        post_maps=tuple(tuple(ms) for ms in out_maps),
        post_vars=tuple(tuple(vs) for vs in out_vars),
    )


def _d2_isotropic(gap: np.ndarray, var1: float, var2: float, dim: int) -> float:
    """Squared sqrt-J distance between equal-dim isotropic Gaussians."""
    inner = (float(gap @ gap) * (1.0 / var1 + 1.0 / var2)
             + dim * (var1 / var2 + var2 / var1) - 2.0 * dim)
    return 0.25 * max(inner, 0.0)


def _expected_deltas(scn: LinearGaussianScenario, drive: _Drive,
                     prior_means: list[np.ndarray],
                     prior_vars: list[float]) -> list[float]:
    """Exact per-step E[Delta_j] under the fresh session's measurements.

    Delta_j is the incremental-distance quadratic in the stacked vector
    [pre-step mean gap; increment difference], both affine in the driving
    normals, so its first moment follows from the Gaussian quadratic moments.
    """
    d = scn.dim
    eye = np.eye(d)
    incs = [scn.information_increments(v) for v in prior_vars]
    gap_prev = _AffineMap(
        np.asarray(prior_means[1], dtype=float)
        - np.asarray(prior_means[0], dtype=float),
        np.zeros((d, scn.n_steps * d)))
    var_prev = [float(prior_vars[0]), float(prior_vars[1])]
    out: list[float] = []
    for j in range(scn.n_steps):
        a1 = incs[0][j] * eye
        a2 = incs[1][j] * eye
        cov1 = var_prev[0] * eye
        cov2 = var_prev[1] * eye
        var_post = [drive.post_vars[0][j], drive.post_vars[1][j]]
        gap_now = drive.post_maps[1][j] - drive.post_maps[0][j]
        s_map = gap_now - gap_prev
        # Delta = 1/4 gap' K gap + 1/2 gap' P s + 1/4 s' P s + y0 with the
        # gap and s stacked into one Gaussian vector.
        k_mat = a1.T @ a1 + a2.T @ a2
        p_mat = (1.0 / var_post[0] + 1.0 / var_post[1]) * eye
        zeros = np.zeros(d)
        y0 = incremental_delta(zeros, cov1, zeros, a1, zeros, cov2, zeros, a2)
        c_stack = 0.25 * np.block([[k_mat, p_mat], [p_mat, p_mat]])
        v_const = np.concatenate([gap_prev.const, s_map.const])
        v_lin = np.vstack([gap_prev.lin, s_map.lin])
        mean, _ = gaussian_quadratic_moments(
            c_stack, np.zeros(2 * d), y0, v_const, v_lin @ v_lin.T)
        out.append(mean)
        gap_prev = gap_now
        var_prev = var_post
    return out


def _psi_from_deltas(spec: HolderSpec, eps_wf: float,
                     deltas: list[float]) -> float:
    acc = len(deltas) * eps_wf ** spec.alpha
    cum = 0.0
    for delta in deltas:
        cum += delta
        acc += max(cum, 0.0) ** (spec.alpha / 2.0)
    return spec.scale * acc


@dataclass(frozen=True, slots=True)
class TrialOutcome:
    """One paired-planning realization against its own analytic bound."""

    diff: float
    report: BoundReport

    @property
    def contained(self) -> bool:
        return self.report.contains(self.diff)


def _holder_envelope(scn: LinearGaussianScenario, spec: HolderSpec,
                     eps_max: float, n_pairs: int, seed: int) -> bool:
    """Spot-check the supplied constant on pairs from the trial envelope."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(41,)))
    _, posts = scn.variance_schedule(scn.prior_std**2)
    vars_pool = [scn.prior_std**2, *posts]
    dists = np.empty(n_pairs)
    gaps = np.empty(n_pairs)
    goal = np.asarray(scn.goal)
    for i in range(n_pairs):
        var = float(rng.choice(vars_pool))
        mu1 = goal + rng.standard_normal(scn.dim) * math.sqrt(var) * 3.0
        step = rng.standard_normal(scn.dim)
        step *= rng.uniform(0.0, eps_max) * math.sqrt(2.0 * var) / max(
            float(np.linalg.norm(step)), 1e-12)
        mu2 = mu1 + step
        dists[i] = math.sqrt(_d2_isotropic(mu2 - mu1, var, var, scn.dim))
        gaps[i] = abs(scn.reward(mu1, var) - scn.reward(mu2, var))
    return verify_lambda(dists, gaps, spec)


def _trial(scn: LinearGaussianScenario, spec: HolderSpec, eps_wf: float,
           rng: np.random.Generator, n_mc: int, advisory: bool) -> TrialOutcome:
    """One paired planning: archived session vs fresh session, shared noise.

    The realized difference uses common random numbers, so it decomposes into
    the Monte-Carlo phi plus a residual bounded pointwise by the per-step
    reward bound; containment is structural, not statistical.
    """
    shift = scn.gap_shift(eps_wf)
    var0 = scn.prior_std**2
    var0_arch = (scn.prior_std_archived or scn.prior_std) ** 2
    mu_fresh = np.zeros(scn.dim)
    mu_arch = shift.copy()
    priors = [mu_arch, mu_fresh]
    prior_vars = [var0_arch, var0]

    drive_old = _drive(scn, priors, prior_vars, driver=0)
    drive_new = _drive(scn, priors, prior_vars, driver=1)
    deltas = _expected_deltas(scn, drive_new, priors, prior_vars)
    psi = _psi_from_deltas(spec, eps_wf, deltas)

    xi = rng.standard_normal((n_mc, scn.n_steps * scn.dim))
    j_prev = 0.0
    j_new = 0.0
    phi = 0.0
    for j in range(scn.n_steps):
        r_old_own = scn._reward_batch(
            drive_old.post_maps[0][j].evaluate(xi), drive_old.post_vars[0][j])
        r_old_cross = scn._reward_batch(
            drive_new.post_maps[0][j].evaluate(xi), drive_new.post_vars[0][j])
        r_new_own = scn._reward_batch(
            drive_new.post_maps[1][j].evaluate(xi), drive_new.post_vars[1][j])
        j_prev += float(r_old_own.mean())
        j_new += float(r_new_own.mean())
        phi += float(r_old_cross.mean()) - float(r_old_own.mean())
    report = BoundReport(
        lower=phi - psi, upper=phi + psi, phi=phi, psi=psi,
        per_step_e_delta=tuple(deltas), method="analytic", advisory=advisory,
    )
    return TrialOutcome(diff=j_new - j_prev, report=report)


def objective_bound_analytic(
    problem: LinearGaussianScenario,
    spec: HolderSpec,
    eps_wf: float,
    *,
    n_mc: int = 4096,
    seed: int = 0,
) -> BoundReport:
    """Explicit phi/psi bound for a linear-Gaussian problem.

    psi is exact (per-step E[Delta_j] via Gaussian quadratic moments); phi is
    Monte-Carlo over the archived rewards under both measurement streams.
    """
    if not isinstance(problem, LinearGaussianScenario):
        raise UnsupportedModel("analytic bound requires a linear-Gaussian scenario")
    if eps_wf < 0.0:
        raise InvalidInput("eps_wf must be non-negative")
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(7,)))
    advisory = not _holder_envelope(problem, spec, max(eps_wf, 1.0), 400,
                                    seed=problem.direction_seed)
    return _trial(problem, spec, eps_wf, rng, n_mc, advisory).report


def run_bound_trials(
    scenario: LinearGaussianScenario,
    spec: HolderSpec,
    eps_wf: float,
    trials: int,
    *,
    n_mc: int = 2048,
    seed: int = 0,
) -> list[TrialOutcome]:
    """Paired plannings on priors forced to distance eps_wf, one per trial.

    Each trial redraws the gap direction, the control sequence, and the
    measurement noise, then checks its realized objective difference against
    its own analytic bound.
    """
    if not isinstance(scenario, LinearGaussianScenario):
        raise UnsupportedModel("bound trials require a linear-Gaussian scenario")
    if trials < 1:
        raise InvalidInput("need at least one trial")
    advisory = not _holder_envelope(scenario, spec, max(eps_wf, 1.0), 400,
                                    seed=scenario.direction_seed)
    out: list[TrialOutcome] = []
    for t in range(trials):
        scn_t = replace(scenario, direction_seed=scenario.direction_seed + 1000 + t,
                        control_seed=scenario.control_seed + 1000 + t)
        rng = np.random.default_rng(np.random.SeedSequence(
            entropy=seed, spawn_key=(11, t)))
        out.append(_trial(scn_t, spec, eps_wf, rng, n_mc, advisory))
    return out


def empirical_bound_check(
    scenario: LinearGaussianScenario,
    spec: HolderSpec,
    eps_wf: float,
    trials: int,
    *,
    n_mc: int = 2048,
    seed: int = 0,
) -> float:
    """Fraction of forced-distance paired plannings inside [phi-psi, phi+psi]."""
    outcomes = run_bound_trials(scenario, spec, eps_wf, trials,
                                n_mc=n_mc, seed=seed)
    return sum(1 for o in outcomes if o.contained) / len(outcomes)


@dataclass(frozen=True, slots=True)
class SweepPoint:
    """Aggregates of one wildfire-threshold setting across bound trials."""

    eps_wf: float
    fraction: float
    diff_variance: float
    mean_phi: float
    mean_psi: float
    diffs: tuple[float, ...] = field(repr=False)

    def to_json_dict(self) -> dict:
        return {
            "eps_wf": self.eps_wf,
            "fraction": self.fraction,
            "diff_variance": self.diff_variance,
            "mean_phi": self.mean_phi,
            "mean_psi": self.mean_psi,
        }


def bound_sweep(
    scenario: LinearGaussianScenario,
    spec: HolderSpec,
    eps_values: tuple[float, ...],
    trials: int,
    *,
    n_mc: int = 2048,
    seed: int = 0,
) -> list[SweepPoint]:
    """Bound trials per threshold, with common random numbers across settings."""
    points: list[SweepPoint] = []
    for eps in eps_values:
        outcomes = run_bound_trials(scenario, spec, eps, trials,
                                    n_mc=n_mc, seed=seed)
        diffs = np.array([o.diff for o in outcomes])
        points.append(SweepPoint(
            eps_wf=eps,
            fraction=sum(1 for o in outcomes if o.contained) / len(outcomes),
            diff_variance=float(diffs.var()),
            mean_phi=float(np.mean([o.report.phi for o in outcomes])),
            mean_psi=float(np.mean([o.report.psi for o in outcomes])),
            diffs=tuple(float(x) for x in diffs),
        ))
    return points
