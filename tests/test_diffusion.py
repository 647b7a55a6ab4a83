"""Lattice Wright-Fisher diffusions: drift, EM scheme, symmetries, ensembles."""

import itertools
import math
from dataclasses import replace
from functools import partial
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from ipsd import diffusion
from ipsd.cli import main
from ipsd.diffusion import (DiffusionParams, _ensemble_chunk, drift_field, em_step,
                            ensemble_observable, sigma_of_p)
from ipsd.exact import _uniformized
from ipsd.lattice import Stencil, Torus
from ipsd.momdual import field_moment, moment_product, pairing
from ipsd.rng import derive_stream
from ipsd.stats import MCEstimate
from ipsd.walkers import per_particle_rates
from test_walkers import _chain_laws, _walker_chain


def _params(d=1, L=4, s=0.0, mu=0.0, dt=1e-3, rate=1.0, noise_n=1.0):
    torus = Torus(d, L)
    return DiffusionParams(torus=torus, stencil=Stencil.nearest_neighbor(d, rate),
                           s=s, mu=mu, noise_n=noise_n, dt=dt)


def test_drift_field_hand_values():
    # nn stencil with total rate 1 on a 4-ring: migration drift at x is
    # (p(x-1) + p(x+1))/2 - p(x); add s p(1-p)(1-mu p) for selection.
    p = _params(s=2.0, mu=0.5)
    field = np.array([0.1, 0.2, 0.3, 0.4])
    out = drift_field(field, p)
    for x in range(4):
        mig = 0.5 * (field[(x - 1) % 4] + field[(x + 1) % 4]) - field[x]
        sel = 2.0 * field[x] * (1 - field[x]) * (1 - 0.5 * field[x])
        assert out[x] == pytest.approx(mig + sel, abs=1e-15)


def test_drift_field_batch_axes():
    p = _params(d=2, L=3)
    rng = np.random.default_rng(51)
    batch = rng.random((5, 3, 3))
    out = drift_field(batch, p)
    assert out.shape == (5, 3, 3)
    for i in range(5):
        assert np.allclose(out[i], drift_field(batch[i], p))


def test_em_step_stays_in_unit_interval():
    p = _params(s=50.0, mu=2.0, dt=0.05)  # exaggerated drift to force clipping
    rng = derive_stream(61, "em-clip")
    field = np.array([0.01, 0.5, 0.99, 0.7])
    for _ in range(200):
        field = em_step(field, p, rng)
        assert np.all((field >= 0.0) & (field <= 1.0))


def test_em_absorbs_at_boundary_without_selection():
    # at s=0 the boundary states 0 and 1 are absorbing for a single site
    p = _params(L=2, rate=0.0)  # no migration (empty stencil is invalid; rate 0)
    # rate 0 stencil: weights zero, displacement kept
    rng = derive_stream(62, "em-abs")
    field = np.array([0.0, 1.0])
    out = em_step(field, p, rng)
    assert np.array_equal(out, [0.0, 1.0])


def test_sigma_transform_roundtrip():
    p_vals = np.linspace(0, 1, 11)
    assert np.allclose(0.5 * (1.0 - sigma_of_p(p_vals)), p_vals)
    assert sigma_of_p(0.5) == 0.0 and sigma_of_p(0.0) == 1.0 and sigma_of_p(1.0) == -1.0


def _mirror_params(params):
    """Parameters under which 1 - p has the law of p (mu != 1)."""
    if params.mu == 1.0:
        raise ValueError("the mirror map is undefined at mu = 1")
    return replace(params, s=(-params.s) * (1.0 - params.mu), mu=params.mu / (params.mu - 1.0))


def test_mirror_params_values():
    # (s=1, mu=2) is self-mirrored; (s=-1, mu=-1/2) maps to (3/2, 1/3)
    p = _params(s=1.0, mu=2.0)
    m = _mirror_params(p)
    assert m.s == pytest.approx(1.0) and m.mu == pytest.approx(2.0)
    q = _params(s=-1.0, mu=-0.5)
    mq = _mirror_params(q)
    assert mq.s == pytest.approx(1.5) and mq.mu == pytest.approx(1.0 / 3.0)
    with pytest.raises(ValueError):
        _mirror_params(_params(mu=1.0))


def test_mirror_params_involution():
    p = _params(s=0.7, mu=-0.3)
    mm = _mirror_params(_mirror_params(p))
    assert mm.s == pytest.approx(0.7, abs=1e-12)
    assert mm.mu == pytest.approx(-0.3, abs=1e-12)


class _ComplementedBits:
    """Stream wrapper whose raw words are the bitwise complements of the base's.

    So every noise sign of :func:`em_step` is the negation of the base's.
    """

    def __init__(self, rng):
        self.bit_generator = SimpleNamespace(
            random_raw=lambda size: ~rng.bit_generator.random_raw(size))


def _flat_fields(fields):
    return fields.reshape(fields.shape[0], -1).copy()


def test_mirror_symmetry_pathwise():
    # 1 - p under (s, mu) evolves exactly like p under the mirrored
    # parameters when the noise signs are negated; checked on the
    # ensemble engine every command runs, three replicates at once.
    params = _params(L=8, s=1.3, mu=-0.4, dt=1e-3)
    p0 = derive_stream(64, "mirror-init").random(8)
    grid = [0.05, 0.1, 0.2]
    path_p = _ensemble_chunk(params, p0, grid, _flat_fields, 3, derive_stream(65, "mirror-noise"))
    path_q = _ensemble_chunk(_mirror_params(params), 1.0 - p0, grid, _flat_fields, 3,
                             _ComplementedBits(derive_stream(65, "mirror-noise")))
    assert path_p.shape == path_q.shape == (3, len(grid), 8)
    assert np.abs((1.0 - path_p) - path_q).max() < 1e-10


def test_ensemble_chunk_grid_exact():
    # a grid time off the dt lattice is reached with one shortened step, so
    # the value recorded at 0.0105 is ten full steps plus one of the remainder
    params = _params(s=0.5, mu=2.0, dt=1e-3)
    p0 = np.full(4, 0.5)
    out = _ensemble_chunk(params, p0, [0.0105, 0.02], _flat_fields, 2, derive_stream(66, "grid"))
    assert out.shape == (2, 2, 4)
    rng = derive_stream(66, "grid")
    field = np.tile(p0, (2, 1))
    t = 0.0
    for _ in range(10):
        field = em_step(field, params, rng)
        t += params.dt
    field = em_step(field, params.with_dt(0.0105 - t), rng)
    assert np.array_equal(out[:, 0], field)


def test_ensemble_observable_batching(monkeypatch):
    # the first full batch is identical whether or not more replicates follow,
    # so results never depend on how the total is scheduled; the chunk size
    # is read from ENSEMBLE_BATCH at call time
    monkeypatch.setattr(diffusion, "ENSEMBLE_BATCH", 32)
    params = _params(L=4, s=0.5, mu=2.0, dt=5e-3)
    p0 = np.full(4, 0.5)
    obs = lambda f: f.reshape(f.shape[0], -1).mean(axis=1)
    small = ensemble_observable(params, p0, [0.05], obs, 50, 9, "batch-test")
    large = ensemble_observable(params, p0, [0.05], obs, 80, 9, "batch-test")
    assert np.array_equal(small[0, :32], large[0, :32])
    # deterministic in the seed
    again = ensemble_observable(params, p0, [0.05], obs, 50, 9, "batch-test")
    assert np.array_equal(small, again)
    # a (b, m) observable gives shape (len(grid), m, reps): column j holds
    # the values of the j-th (b,) observable on the same replicates
    pair = lambda f: np.stack([obs(f), f[:, 0]], axis=1)
    both = ensemble_observable(params, p0, [0.05, 0.1], pair, 50, 9, "batch-test")
    assert both.shape == (2, 2, 50)
    assert np.array_equal(both[:, 0], ensemble_observable(params, p0, [0.05, 0.1], obs, 50, 9,
                                                          "batch-test"))


def test_ensemble_neutral_mean_is_martingale():
    # with s=0 the spatial mean frequency is a martingale: its ensemble
    # average stays at p0 within Monte Carlo error
    params = _params(L=4, s=0.0, dt=2e-3)
    p0 = np.full(4, 0.3)
    obs = lambda f: f.reshape(f.shape[0], -1).mean(axis=1)
    vals = ensemble_observable(params, p0, [0.5], obs, 4000, 10, "mart-test")
    m = vals[0].mean()
    se = vals[0].std(ddof=1) / np.sqrt(4000)
    assert abs(m - 0.3) < 4 * se + 1e-4


def test_params_validation():
    with pytest.raises(ValueError, match="stencil dimension does not match the torus"):
        DiffusionParams(torus=Torus(1, 4), stencil=Stencil.nearest_neighbor(2, 1.0))
    # unchecked, the drift term of a jump by L was f - f: a weight that moves nothing
    wrap = Stencil(((8,), (1,)), (0.5, 0.5))
    with pytest.raises(ValueError, match=r"displacement \(8,\) is a multiple of L = 8"):
        DiffusionParams(torus=Torus(1, 8), stencil=wrap)
    DiffusionParams(torus=Torus(1, 16), stencil=wrap)  # on 16 sites it moves by 8
    with pytest.raises(ValueError):
        _params(dt=0.0)
    with pytest.raises(ValueError):
        _params(noise_n=0.0)


def test_params_refuse_non_finite_values_by_name():
    for name, bad in itertools.product(("dt", "noise_n", "s", "mu"), (np.nan, np.inf, -np.inf)):
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            _params(**{name: bad})


CONFIGS = Path(__file__).resolve().parents[1] / "configs"


@pytest.mark.parametrize("key", ["model.dt", "model.noise_n", "model.s", "model.mu"])
@pytest.mark.parametrize("value", ["nan", "inf"])
def test_diffusion_run_refuses_a_non_finite_model_key_before_any_step(tmp_path, monkeypatch,
                                                                       key, value):
    # unchecked, model.dt=nan and model.noise_n=nan wrote rows of mean_p = nan
    def never(*args, **kwargs):
        raise AssertionError(f"stepped before checking {key}")

    monkeypatch.setattr(diffusion, "em_step", never)
    with pytest.raises(ValueError, match=f"^{key.split('.')[1]} must be finite.*, got {value}$"):
        main(["diffusion-run", "--config", str(CONFIGS / "diffusion-run.ini"), "--reps", "4",
              "--out", str(tmp_path), "--set", f"{key}={value}"])
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("grid", [[np.nan], [np.inf], [-1.0], [1.0, np.nan, 2.0], []])
def test_ensemble_observable_refuses_a_bad_grid_before_any_step(monkeypatch, grid):
    # unchecked, [nan] returned the start field and [inf] never returned
    def never(*args, **kwargs):
        raise AssertionError("stepped before checking the grid")

    monkeypatch.setattr(diffusion, "em_step", never)
    with pytest.raises(ValueError, match="grid"):
        ensemble_observable(_params(), np.full(4, 0.5), grid, _flat_fields, 3, 1, "bad-grid")


# -- the allocating Euler-Maruyama step the buffered kernel replaced, kept as
# its bit-for-bit reference (np.roll neighbours, a fresh array per operation,
# and the noise signs read bit by bit off the raw words in a Python loop)

def _reference_drift_field(field, params):
    axes = tuple(range(field.ndim - params.torus.d, field.ndim))
    out = params.s * field * (1.0 - field) * (1.0 - params.mu * field)
    for disp, w in zip(params.stencil.displacements, params.stencil.weights):
        shift = tuple(-c for c in disp)
        out = out + w * (np.roll(field, shift, axis=axes) - field)
    return out


def _reference_signs(rng, shape):
    """+1 or -1 per element in C order: bit j of raw word k, a Python int, sets element 64k + j."""
    size = math.prod(shape)
    words = [int(w) for w in rng.bit_generator.random_raw(-(-size // 64))]
    bits = [(word >> j) & 1 for word in words for j in range(64)]
    return np.array([1.0 if bit else -1.0 for bit in bits[:size]]).reshape(shape)


def _reference_em_step(field, params, rng):
    var = np.maximum(field * (1.0 - field) / params.noise_n, 0.0)
    noise = np.sqrt(var * params.dt) * _reference_signs(rng, field.shape)
    out = field + _reference_drift_field(field, params) * params.dt + noise
    return np.clip(out, 0.0, 1.0)


def _reference_chunk(params, p0, grid, size, rng):
    """The fields after each grid time, each a fresh array: shape (size, len(grid), *shape)."""
    fields = np.broadcast_to(p0, (size,) + p0.shape).copy()
    t = 0.0
    out = []
    for target in grid:
        while t < target - 1e-12:
            h = min(params.dt, target - t)
            fields = _reference_em_step(fields, params.with_dt(h) if h != params.dt else params,
                                        rng)
            t += h
        out.append(fields)
    return np.stack(out, axis=1)


# (torus, stencil) cases: nearest neighbours on 1-d rings of 2, 8 and 16 sites
# and on 2-d and 3-d tori, plus hand-built stencils with a jump of 2, a jump
# past L (10 on 8 sites, which wraps to 2), a jump past L/2 and a diagonal
_GEOMETRIES = {
    "ring2": (Torus(1, 2), Stencil.nearest_neighbor(1, 1.0)),
    "ring8": (Torus(1, 8), Stencil.nearest_neighbor(1, 1.0)),
    "ring16": (Torus(1, 16), Stencil.nearest_neighbor(1, 1.0)),
    "torus2d": (Torus(2, 4), Stencil.nearest_neighbor(2, 1.0)),
    "torus3d": (Torus(3, 3), Stencil.nearest_neighbor(3, 1.5)),
    "jump2": (Torus(1, 8), Stencil(((2,), (-1,), (-2,)), (0.3, 0.4, 0.3))),
    "jumpL": (Torus(1, 8), Stencil(((10,), (1,), (-5,)), (0.2, 0.5, 0.3))),
    "diagonal": (Torus(2, 4), Stencil(((1, 1), (0, -1), (2, 0), (-1, 3)), (0.4, 0.3, 0.2, 0.1))),
}
_SELECTION = [(s, mu) for s in (0.0, 1.0, -1.0, 20.0) for mu in (0.0, 2.0, -0.5)]


def _gate_start(torus, seed):
    # random frequencies with some sites already at the boundaries 0 and 1
    p0 = derive_stream(seed, "gate-init").random(torus.shape)
    flat = p0.reshape(-1)
    flat[:: 3] = 0.0
    flat[1:: 5] = 1.0
    return p0


@pytest.mark.parametrize("noise_n", [1.0, 0.5])
@pytest.mark.parametrize("s, mu", _SELECTION)
@pytest.mark.parametrize("geometry", sorted(_GEOMETRIES))
def test_buffered_em_gives_the_reference_bits(geometry, s, mu, noise_n):
    # 200 steps of em_step on reused buffers, directly and through
    # _ensemble_chunk (whose last grid step is a shortened one), against the
    # allocating reference on the same stream
    torus, stencil = _GEOMETRIES[geometry]
    params = DiffusionParams(torus=torus, stencil=stencil, s=s, mu=mu, noise_n=noise_n, dt=2e-3)
    p0 = _gate_start(torus, 71)
    start = np.broadcast_to(p0, (3,) + p0.shape).copy()
    want, field = start, start.copy()
    rng_ref, rng = derive_stream(72, "gate"), derive_stream(72, "gate")
    spare, work = np.empty_like(field), [np.empty_like(field) for _ in range(4)]
    for _ in range(200):
        want = _reference_em_step(want, params, rng_ref)
        field, spare = em_step(field, params, rng, spare, work), field
    assert field.tobytes() == want.tobytes()

    grid = [0.1, 0.399]  # 50 steps, then 149 full ones and one of 1e-3
    ref = _reference_chunk(params, p0, grid, 3, derive_stream(73, "gate"))
    got = _ensemble_chunk(params, p0, grid, _flat_fields, 3, derive_stream(73, "gate"))
    assert got.tobytes() == ref.reshape(got.shape).tobytes()


def test_em_step_allocates_its_buffers_when_none_are_given():
    # the plain call, on a single field with no batch axis, is the same step
    params = _params(L=8, s=1.0, mu=2.0, noise_n=0.5)
    field = _gate_start(params.torus, 74)
    got = em_step(field, params, derive_stream(75, "plain"))
    want = _reference_em_step(field, params, derive_stream(75, "plain"))
    assert got.tobytes() == want.tobytes()
    assert drift_field(field, params).tobytes() == _reference_drift_field(field, params).tobytes()


def _flat_view(fields):
    return fields.reshape(len(fields), -1)  # a view of the reused buffer


def test_an_observable_may_return_a_view_of_the_fields():
    # the chunk copies each observation as it is made, so a view of a buffer
    # that later steps overwrite still records the field at its grid time
    params = _params(d=2, L=4, s=1.0, mu=2.0, dt=2e-3)
    p0 = _gate_start(params.torus, 76)
    grid = [0.01, 0.02, 0.0305]
    got = _ensemble_chunk(params, p0, grid, _flat_view, 5, derive_stream(77, "view"))
    ref = _reference_chunk(params, p0, grid, 5, derive_stream(77, "view"))
    assert got.shape == (5, 3, 16)
    assert got.tobytes() == ref.reshape(got.shape).tobytes()
    assert not np.array_equal(got[:, 0], got[:, -1])


@pytest.mark.parametrize("noise_n", [1.0, 0.5])
def test_each_increment_before_the_clip_is_plus_or_minus_the_standard_deviation(noise_n):
    # em_step leaves the noise in its second work array: every entry is
    # +sd or -sd with sd = sqrt(max(f(1 - f)/N, 0) dt), signed by its bit;
    # 5 x 16 sites take one full raw word and 16 bits of a second
    params = _params(L=16, s=1.0, mu=2.0, noise_n=noise_n, dt=2e-3)
    field = np.stack([_gate_start(params.torus, 78 + i) for i in range(5)])
    work = [np.empty_like(field) for _ in range(4)]
    em_step(field, params, derive_stream(79, "signs"), np.empty_like(field), work)
    sd = np.sqrt(np.maximum(field * (1.0 - field) / noise_n, 0.0) * params.dt)
    signs = _reference_signs(derive_stream(79, "signs"), field.shape)
    assert (signs > 0).any() and (signs < 0).any() and (sd == 0.0).any()
    assert np.array_equal(np.abs(work[1]), sd)
    assert work[1].tobytes() == (signs * sd).tobytes()


def test_diffusion_run_output_is_byte_identical_at_one_and_two_threads(tmp_path, monkeypatch):
    # three chunks of sign noise from a uniform start, which has its own stream
    monkeypatch.setattr(diffusion, "ENSEMBLE_BATCH", 40)
    trees = []
    for threads in ("1", "2"):
        out = tmp_path / threads
        main(["diffusion-run", "--config", str(CONFIGS / "diffusion-run.ini"), "--seed", "7",
              "--reps", "100", "--threads", threads, "--out", str(out), "--set", "run.init=uniform",
              "--set", "run.T=0.1", "--set", "run.grid=0.05,0.1", "--set", "model.dt=0.01"])
        trees.append({f.name: f.read_bytes() for f in out.iterdir()})
    assert trees[0] == trees[1] and len(trees[0]) == 2


# -- the weak-Euler gate: sign-noise moments against the exact walker dual

def _beyond_cap_bound(kind, totals, c, t):
    """A bound on |E[H(v0, xi_s)]|, s <= t, from a start past the cap; c = max |v0| <= 1.

    |H(v0, xi)| <= c^|xi|.  Branching only adds walkers, and the pair rate at
    total K is at most C(K, 2), which it reaches with every walker on one
    site; so the walker total stays at or above the chain K that only makes
    the kind's pair jump, at rate C(K, 2), and c^|xi_s| <= c^K_s <= c^K_t.
    Returns the largest E[c^K_t] over the given start totals.
    """
    _, _, pair_delta = per_particle_rates(kind)
    top = int(max(totals, default=0))
    gen = np.zeros((top + 1, top + 1))
    for k in range(2, top + 1):
        gen[k, k + pair_delta] += k * (k - 1) / 2.0
        gen[k, k] -= k * (k - 1) / 2.0
    powers = _uniformized(gen, t, c ** np.arange(top + 1.0))
    return max((float(powers[k]) for k in totals), default=0.0)


# criterion 9's three settings on a ring of 8 from xi0 = {0: 2}; the chain's
# cap is the smallest whose over-cap bound stays below a tenth of the error
@pytest.mark.parametrize("s, mu, p0, cap, seed", [(0.0, 2.0, 0.25, 2, 2201),
                                                  (1.0, 2.0, 0.25, 10, 2202),
                                                  (-1.0, -0.5, 0.5, 12, 2203)])
def test_sign_noise_moments_match_the_exact_walker_dual_at_dt_and_half_dt(s, mu, p0, cap, seed):
    torus, stencil = Torus(1, 8), Stencil.nearest_neighbor(1, 1.0)
    params = DiffusionParams(torus, stencil, s=s, mu=mu, dt=0.002)
    grid, xi0, reps = [0.25, 0.5], {0: 2}, 10_000
    _, kind, transform, _ = pairing(s, mu)
    v0 = np.full(torus.n_sites, p0) if transform is None else transform(np.full(torus.n_sites, p0))
    chain = _walker_chain(kind, xi0, torus, stencil, cap)
    inside = len(chain.counts)
    h = moment_product(v0, chain.counts)
    exact, bound = [], []
    for t, law in zip(grid, _chain_laws(chain, grid)):
        exact.append(float(law[:inside] @ h))
        bound.append(float(law[inside:].sum())
                     * _beyond_cap_bound(kind, chain.totals[inside:], float(np.abs(v0).max()), t))
    obs = partial(field_moment, xi0, transform=transform)
    for dt, role in ((params.dt, "weak-gate"), (params.dt / 2.0, "weak-gate-half")):
        vals = ensemble_observable(params.with_dt(dt), np.full(torus.shape, p0), grid, obs, reps,
                                   seed, role)
        for t, row, want, slack in zip(grid, vals, exact, bound):
            est = MCEstimate.from_samples(row)
            assert slack < est.stderr / 10.0, (t, dt, slack, est)
            assert abs(est.mean - want) < 4.0 * est.stderr + slack, (t, dt, want, est)
