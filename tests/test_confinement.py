"""Transfer operator for tube confinement: path sums, spectra, width scaling."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import semiflex
from semiflex import confinement
from semiflex.confinement import (
    TransferOperator,
    TubeSpec,
    build_transfer,
    confinement_sweep,
    exponent_fit,
    power_iteration,
    survival_probability,
    tube_radius,
)
from semiflex.gaussian import sigma2_increment
from semiflex.model import (
    GaussianPotential,
    ModelParams,
    PowerLawPotential,
    TabulatedPotential,
    build_increment_dist,
)
from semiflex.oracle import EnumerationSpec, enumerate_configs
from semiflex.sampling import ChainSettings, sample_free

ZERO_POT = TabulatedPotential(np.array([-1.0, 0.0, 1.0]), np.zeros(3))
SUPPORT = (-1.0, 0.0, 1.0)


def _discrete_params(n):
    return ModelParams(n_sites=n, epsilon=1.0, macro_length=float(n),
                       height_mode="discrete")


def test_tube_radius_floor():
    params = _discrete_params(4)
    assert tube_radius(TubeSpec(0.7), params, 2.0 / 3.0) == 1.0
    assert tube_radius(TubeSpec(1.3), params, 2.0 / 3.0) == 2.0
    cont = ModelParams(n_sites=4, epsilon=0.25, macro_length=1.0)
    assert tube_radius(TubeSpec(0.5), cont, 4.0) == pytest.approx(2.0)


def test_survival_matches_enumeration():
    # same tube, two routes: transfer path sum vs exhaustive enumeration
    for n in (4, 6):
        params = _discrete_params(n)
        for pot in (ZERO_POT, GaussianPotential(1.0)):
            for rho in (0.7, 1.3):
                op = build_transfer(params, pot, TubeSpec(rho), support=SUPPORT)
                lhs = survival_probability(op, n)
                radius = op.radius
                spec = EnumerationSpec(params, pot, support=SUPPORT)
                ref = enumerate_configs(
                    spec,
                    event=lambda phi: np.max(np.abs(phi[:, 1:n + 1]), axis=1) <= radius,
                )
                assert lhs == pytest.approx(ref.probability, abs=1e-13)


def test_power_iteration_matches_dense_spectrum():
    params = _discrete_params(4)
    for pot in (ZERO_POT, GaussianPotential(1.0)):
        op = build_transfer(params, pot, TubeSpec(1.3), support=SUPPORT)
        res = power_iteration(op)
        lam_dense = float(np.max(np.linalg.eigvals(op.dense()).real))
        assert res.lam_raw == pytest.approx(lam_dense, rel=1e-12)
        assert res.lam_norm == pytest.approx(lam_dense / op.z1, rel=1e-12)
        assert 0 <= res.error <= confinement._POWER_TOL


@pytest.mark.parametrize("op", [
    build_transfer(_discrete_params(8), ZERO_POT, TubeSpec(1.3), support=SUPPORT),
    build_transfer(ModelParams(100, 0.01, 1.0), GaussianPotential(1.0), TubeSpec(0.1),
                   mesh=0.05),
], ids=["lattice", "continuous"])
def test_power_iteration_starts_flat(op):
    res, flat = power_iteration(op), power_iteration(op, start=np.ones(op.shape))
    assert (res.lam_raw, res.iterations) == (flat.lam_raw, flat.iterations)
    assert np.array_equal(res.eigvec, flat.eigvec)


def test_power_iteration_reports_lost_mass():
    # one tap of weight 0 maps every vector to zero in the first step
    op = TransferOperator(1.0, 1.0, 1, 1, [0], [0.0], 1.0)
    with pytest.raises(RuntimeError) as err:
        power_iteration(op)
    assert str(err.value) == "power iteration lost all mass; operator is degenerate"


def test_power_iteration_reports_no_convergence(monkeypatch):
    # this operator needs 158 steps; allow 3
    op = build_transfer(ModelParams(100, 0.01, 1.0), GaussianPotential(1.0), TubeSpec(0.1),
                        mesh=0.05)
    monkeypatch.setattr(confinement, "_POWER_MAX_ITER", 3)
    with pytest.raises(RuntimeError) as err:
        power_iteration(op)
    assert str(err.value) == "power iteration did not converge in 3 iterations"


def _reversal(op):
    """Time reversal (h, g) -> (h - g, -g) as a flat-index map, and the core:
    the states whose previous height h - g lies on the grid."""
    nr, nc = 2 * op.n_h + 1, 2 * op.n_g + 1
    h, c = np.divmod(np.arange(nr * nc), nc)
    prev = h - (c - op.n_g)
    core = (prev >= 0) & (prev < nr)
    return np.where(core, prev * nc + (nc - 1 - c), -1), core


DISC_N2000 = ModelParams(n_sites=2000, epsilon=1.0, macro_length=2000.0,
                        height_mode="discrete")
CONT_N100 = ModelParams(n_sites=100, epsilon=0.01, macro_length=1.0)


@pytest.mark.parametrize("params, pot, rho, mesh", [
    (CONT_N100, GaussianPotential(1.0), 0.02, 0.1),
    (CONT_N100, PowerLawPotential(1.0, 1.5), 0.02, 0.18),
    (DISC_N2000, GaussianPotential(1.0), 0.3, None),
    (DISC_N2000, PowerLawPotential(1.0, 1.5), 0.3, None),
])
def test_time_reversal_makes_the_core_symmetric(params, pot, rho, mesh):
    # T^T = P T P exactly on the core, every output lies in it, and
    # _reflect is P: what power_iteration's quotient and estimate rest on
    op = build_transfer(params, pot, TubeSpec(rho), mesh=mesh)
    assert op.n_states <= 3000
    mat = op.dense()
    p, core = _reversal(op)
    idx = np.flatnonzero(core)
    assert np.array_equal(mat[np.ix_(idx, idx)].T, mat[np.ix_(p[idx], p[idx])])
    assert not mat[~core].any()
    v = np.random.default_rng(1).random((2 * op.n_h + 1, 2 * op.n_g + 1))
    pv = op._reflect(v).ravel()
    assert np.array_equal(pv[core], v.ravel()[p[core]])
    assert not pv[~core].any()


def test_power_iteration_start_off_the_core():
    # the first step carries mass from anywhere into the core
    op = build_transfer(CONT_N100, GaussianPotential(1.0), TubeSpec(0.02), mesh=0.1)
    off = ~_reversal(op)[1].reshape(2 * op.n_h + 1, 2 * op.n_g + 1)
    assert off.any()
    res = power_iteration(op, start=off.astype(float))
    assert res.lam_norm == pytest.approx(power_iteration(op).lam_norm, rel=1e-11)


@pytest.mark.parametrize("taps, weights", [
    ([1, 3], [1.0, 0.5]),
    ([-1, 0, 1], [0.5, 1.0, 0.25]),
])
def test_power_iteration_needs_even_taps(taps, weights):
    op = TransferOperator(1.0, 1.0, 2, 3, taps, weights, 1.0)
    with pytest.raises(ValueError, match=r"even tap weights, w\(t\) == w\(-t\)"):
        power_iteration(op)
    with pytest.raises(ValueError, match=r"even tap weights, w\(t\) == w\(-t\)"):
        survival_probability(op, 3)


def test_a_table_even_to_1e_10_gives_exactly_even_taps():
    # Phi is read at |x|, so a table that is even only within the 1e-9 it
    # is accepted at still passes the even step's exact check
    grid = np.linspace(-40.0, 40.0, 161)
    pot = TabulatedPotential(grid, np.abs(grid) ** 1.5 + 1e-10 * (grid > 0))
    op = build_transfer(CONT_N100, pot, TubeSpec(0.01, 0.5))
    x = op.tap_offsets * op.delta / op.eps
    assert not np.array_equal(pot(x), pot(-x))
    assert np.array_equal(op.tap_offsets, -op.tap_offsets[::-1])
    assert np.array_equal(op.tap_weights, op.tap_weights[::-1])
    lam_dense = float(np.max(np.linalg.eigvals(op.dense()).real))
    assert power_iteration(op).lam_raw == pytest.approx(lam_dense, rel=1e-10)


def test_power_iteration_stops_within_1e_11_on_the_benchmark_sweep(monkeypatch):
    # every solve of the benchmark's continuous sweep, half-mesh checks
    # included, against ARPACK run to 1e-14
    from scipy.sparse.linalg import LinearOperator, eigs

    solves = []

    def recording(op, **kw):
        res = power_iteration(op, **kw)
        solves.append((op, res))
        return res

    monkeypatch.setattr(confinement, "power_iteration", recording)
    confinement_sweep(CONT_N100, GaussianPotential(1.0), np.geomspace(0.01, 0.1, 6), mesh=0.08)
    assert len(solves) == 12
    for op, res in solves:
        shape = (2 * op.n_h + 1, 2 * op.n_g + 1)
        mat = LinearOperator((op.n_states,) * 2, dtype=float,
                             matvec=lambda x, op=op, shape=shape: op.matvec(x.reshape(shape)).ravel())
        ref = eigs(mat, k=1, which="LM", tol=1e-14, ncv=40,
                   v0=np.ones(op.n_states))[0][0].real
        assert res.lam_raw == pytest.approx(ref, rel=1e-11)
        assert res.error <= confinement._POWER_TOL


def _lattice_op(taps, kappa=1.0, n_h=2, n_g=3):
    """A lattice operator built directly: build_transfer only makes the
    symmetric cuts -k..k, and these tap sets may be one-sided or gapped."""
    offsets = np.asarray(taps)
    return TransferOperator(1.0, 1.0, n_h, n_g, offsets, np.exp(-0.5 * kappa * offsets ** 2),
                            1.0)


LATTICE_OPS = st.builds(_lattice_op, st.sets(st.integers(-3, 3), min_size=2).map(sorted),
                        st.floats(0.1, 3.0), st.integers(0, 4), st.integers(0, 6))
# 19 to 37 taps on at most 61 x 31 states, meshes under the step sd
# eps * sd >= 0.141; a small grad_cut leaves fewer gradient columns than taps
CONT_PARAMS = ModelParams(n_sites=25, epsilon=0.04, macro_length=1.0)
CONTINUOUS_OPS = st.builds(build_transfer, st.just(CONT_PARAMS),
                           st.floats(1.0, 2.0).map(GaussianPotential),
                           st.builds(TubeSpec, st.floats(0.03, 0.12), st.floats(0.1, 1.5)),
                           mesh=st.floats(0.1, 0.14))


def _continuous_op(tube, mesh):
    return build_transfer(CONT_PARAMS, GaussianPotential(1.0), tube, mesh=mesh)


@settings(max_examples=60, deadline=None)
@given(op=LATTICE_OPS | CONTINUOUS_OPS, seed=st.integers(0, 2**32))
# one-sided tap sets: the edge blocks read clipped slices of the Toeplitz tile
@example(op=_lattice_op([1, 3]), seed=0)
@example(op=_lattice_op([-3, -2]), seed=0)
# 37 taps over 3 gradient columns
@example(op=_continuous_op(TubeSpec(0.1, 0.1), 0.1), seed=0)
# 37 taps over 121 gradient columns: four column blocks share one tile
@example(op=_continuous_op(TubeSpec(0.03, 6.0), 0.1), seed=0)
# 183 taps over 31 gradient columns, 101 height rows in two row chunks
@example(op=_continuous_op(TubeSpec(0.04, 0.3), 0.02), seed=0)
# 365 taps over 3 gradient columns
@example(op=_continuous_op(TubeSpec(0.05, 0.01), 0.01), seed=0)
# 201 taps over 129 gradient columns: three blocks capped at 64 columns,
# whose tile has more rows than 2 nc - 1
@example(op=_lattice_op(range(-100, 101), 1e-3, n_g=64), seed=0)
# n_g > n_h: the first blocks' rows end at the grid, the last run none
@example(op=_lattice_op([-1, 0, 1], n_h=1, n_g=6), seed=0)
# one height row, in several column blocks
@example(op=_lattice_op([-2, 0, 1], n_h=0), seed=0)
def test_matvec_agrees_with_dense(op, seed):
    # a tap |t| >= nc joins no two of the nc gradient columns, so the span
    # is at most 2 nc - 1 however far the law reaches; a block is at most
    # 64 columns wide and its tile has at most width + span - 1 rows
    nc = 2 * op.n_g + 1
    near = op.tap_offsets[np.abs(op.tap_offsets) < nc]
    span = near.max() - near.min() + 1 if near.size else 1
    for _, _, tile in op._blocks:
        rows, cols = tile.base.shape
        assert cols <= min(nc, span, 64) and rows <= cols + span - 1 <= 64 + 2 * nc - 2
    v = np.random.default_rng(seed).normal(size=(2 * op.n_h + 1, 2 * op.n_g + 1))
    # each output sums at most 201 products w * v with weights w <= 1
    assert_allclose(op.matvec(v).ravel(), op.dense() @ v.ravel(), rtol=0,
                    atol=1e-13 * np.max(np.abs(v)))
    # a nonnegative vector stays nonnegative, and a state whose source row
    # the shear puts off the grid gets exactly nothing
    out = op.matvec(np.abs(v))
    rows = np.arange(2 * op.n_h + 1)[:, None] - (np.arange(2 * op.n_g + 1) - op.n_g)
    off_grid = (rows < 0) | (rows > 2 * op.n_h)
    assert np.all(out >= 0)
    assert np.all(out[off_grid] == 0)


EVEN_LATTICE_OPS = st.builds(
    _lattice_op, st.sets(st.integers(0, 3), min_size=1).map(lambda s: sorted(s | {-t for t in s})),
    st.floats(0.1, 3.0), st.integers(0, 4), st.integers(0, 6))


def _even(v):
    return v + v[::-1, ::-1]


@settings(max_examples=60, deadline=None)
@given(op=EVEN_LATTICE_OPS | CONTINUOUS_OPS, seed=st.integers(0, 2**32))
# one gradient column, and one height row
@example(op=_lattice_op([-1, 0, 1], n_g=0), seed=0)
@example(op=_lattice_op([-3, -1, 1, 3], n_h=0), seed=0)
# 37 taps over 3 gradient columns
@example(op=_continuous_op(TubeSpec(0.1, 0.1), 0.1), seed=0)
# 37 taps over 121 gradient columns: four column blocks share one tile
@example(op=_continuous_op(TubeSpec(0.03, 6.0), 0.1), seed=0)
# 183 taps over 31 gradient columns, 101 height rows in two row chunks
@example(op=_continuous_op(TubeSpec(0.04, 0.3), 0.02), seed=0)
# 365 taps over 3 gradient columns
@example(op=_continuous_op(TubeSpec(0.05, 0.01), 0.01), seed=0)
# 201 taps over 129 gradient columns: three blocks capped at 64 columns
@example(op=_lattice_op(range(-100, 101), 1e-3, n_g=64), seed=0)
# n_g > n_h: the first blocks' rows end at the grid, the last run none
@example(op=_lattice_op([-1, 0, 1], n_h=1, n_g=6), seed=0)
# one height row, in several column blocks
@example(op=_lattice_op([-1, 0, 1], n_h=0, n_g=4), seed=0)
def test_even_step_agrees_with_matvec(op, seed):
    # on an even vector the products up to the centre row and their mirror
    # are matvec, and the result is exactly even
    v = _even(np.random.default_rng(seed).normal(size=op.shape))
    out = op._even_step(v, op._sheared())
    assert_allclose(out, op.matvec(v), rtol=0, atol=1e-13 * np.max(np.abs(v)))
    assert np.array_equal(out, out[::-1, ::-1])
    # a state whose source row the shear puts off the grid gets exactly nothing
    rows = np.arange(2 * op.n_h + 1)[:, None] - (np.arange(2 * op.n_g + 1) - op.n_g)
    off_grid = (rows < 0) | (rows > 2 * op.n_h)
    assert np.all(op._even_step(np.abs(v), op._sheared())[off_grid] == 0)


@pytest.mark.parametrize("op", [
    _lattice_op([-3, -2, -1, 0, 1, 2, 3], n_h=3, n_g=1),
    _continuous_op(TubeSpec(0.03, 6.0), 0.1),
    _continuous_op(TubeSpec(0.04, 0.3), 0.02),
], ids=["lattice", "column-blocks", "row-chunks"])
def test_reused_buffers_step_like_fresh_ones(op):
    # the third step writes over the first one's output, and matches bit for bit
    v = _even(np.random.default_rng(3).random(op.shape))
    fresh, reused = v, v
    bufs = (op._sheared(), op._sheared())
    for k in range(3):
        fresh = op._even_step(fresh, op._sheared())
        reused = op._even_step(reused, bufs[k % 2])
    assert np.array_equal(fresh, reused)


@pytest.mark.parametrize("op", [
    build_transfer(_discrete_params(8), ZERO_POT, TubeSpec(1.3), support=SUPPORT),
    build_transfer(CONT_N100, GaussianPotential(1.0), TubeSpec(0.02), mesh=0.1),
], ids=["lattice", "continuous"])
def test_power_iteration_from_an_uneven_start(op):
    # mass on one off-centre state: the solve runs on its symmetrised start,
    # and its eigenvector is exactly even
    start = np.zeros(op.shape)
    start[op.n_h + 1, op.n_g + 1] = 1.0
    res, flat = power_iteration(op, start=start), power_iteration(op)
    assert res.lam_norm == pytest.approx(flat.lam_norm, rel=1e-11)
    for vec in (res.eigvec, flat.eigvec):
        assert np.array_equal(vec, vec[::-1, ::-1])


def test_alpha_1_solve_does_not_depend_on_blas_threads():
    # alpha = 1 at the sweep's half mesh has 235 taps, a 298 x 64 tile (it
    # was 469 x 235 before blocks were capped at 64 columns): in chunks of
    # 64 rows a product went past the one-thread GEMM size, and OpenBLAS's
    # second thread summed in another order than one thread
    mesh = confinement._grid_law(CONT_N100, PowerLawPotential(1.0, 1.0))[1] / 2
    code = ("import hashlib; from semiflex.confinement import *; "
            "from semiflex.model import ModelParams, PowerLawPotential; "
            "op = build_transfer(ModelParams(100, 0.01, 1.0), PowerLawPotential(1.0, 1.0), "
            f"TubeSpec(0.05), mesh={mesh!r}); r = power_iteration(op); "
            "print(op.tap_offsets.size, r.lam_raw.hex(), "
            "hashlib.sha256(r.eigvec.tobytes()).hexdigest())")
    src = str(Path(semiflex.__path__[0]).parent)
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    out = [subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True, env={**os.environ, "PYTHONPATH": path,
                                           "OPENBLAS_NUM_THREADS": threads}).stdout
           for threads in ("1", "2")]
    assert out[0].split()[0] == "235"
    assert out[0] == out[1]


@pytest.mark.parametrize("pot", [GaussianPotential(1.0), PowerLawPotential(1.0, 1.5),
                                 PowerLawPotential(2.0, 4.0)],
                         ids=["gaussian", "alpha-1.5", "alpha-4"])
def test_continuous_mesh_is_at_most_the_step_sd(pot):
    # a mesh of one step sd, within the grid floors' slack, keeps taps -1..1;
    # past the slack it is refused, and the default is half the sd
    sd = CONT_N100.epsilon * math.sqrt(build_increment_dist(pot, CONT_N100).sigma2)
    tube = TubeSpec(0.2)
    op = build_transfer(CONT_N100, pot, tube, mesh=sd * (1 + 1e-10))
    assert {-1, 0, 1} <= set(op.tap_offsets.tolist())
    assert build_transfer(CONT_N100, pot, tube).delta == sd / 2.0
    for mesh in (sd * (1 + 1e-8), 0.0, -sd, math.inf, math.nan):
        with pytest.raises(ValueError, match=r"at most the step sd eps \* sqrt\(sigma2\)"):
            build_transfer(CONT_N100, pot, tube, mesh=mesh)


@settings(max_examples=60, deadline=None)
@given(eps=st.sampled_from([1.0, 0.5]),
       pot=st.one_of(
           st.builds(GaussianPotential, st.floats(0.2, 4.0)),
           st.builds(PowerLawPotential, st.floats(0.2, 4.0), st.floats(1.0, 4.0))),
       cut=st.one_of(st.none(), st.floats(1.0, 12.0)))
@example(eps=1.0, pot=GaussianPotential(1.0), cut=1.9999999999999982)
def test_one_step_law_for_sampler_variance_and_taps(eps, pot, cut):
    # the transfer taps are the sampler's lattice law, bit for bit, with and
    # without a truncation; the continuous sampler and variance read one law too
    params = ModelParams(n_sites=4, epsilon=eps, macro_length=4.0 * eps,
                         height_mode="discrete")
    support = None
    if cut is not None:
        # build_increment_dist's rounding: a cut within 1e-12 below an
        # integer keeps that integer, absorbing float error in truncation*eps
        k_max = math.floor(cut + 1e-12)
        support = np.arange(-k_max, k_max + 1)
    dist = build_increment_dist(pot, params, truncation=None if cut is None else cut / eps)
    op = build_transfer(params, pot, TubeSpec(1.0), support=support)
    assert np.array_equal(dist.values * eps, op.tap_offsets)
    assert np.array_equal(dist.probs, op.tap_weights)
    if cut is None:
        assert sigma2_increment(pot, params) == dist.sigma2
        params = ModelParams(n_sites=4, epsilon=eps, macro_length=4.0 * eps)
        assert build_increment_dist(pot, params).sigma2 == sigma2_increment(pot, params)
    else:
        assert np.array_equal(op.tap_offsets, support)


def test_support_must_be_a_symmetric_lattice_cut():
    params = _discrete_params(4)
    for support in ((-1.0, 1.0), (1.0, 3.0)):
        with pytest.raises(ValueError, match=r"support must be the lattice cut -k\.\.k"):
            build_transfer(params, ZERO_POT, TubeSpec(1.0), support=support)


def _free_energy(op):
    return -math.log(power_iteration(op).lam_norm) / op.eps


def test_free_energy_positive_and_decreasing():
    params = _discrete_params(2000)
    pot = GaussianPotential(1.0)
    fs = [_free_energy(build_transfer(params, pot, TubeSpec(r))) for r in (0.3, 0.9, 2.7)]
    assert all(f > 0 for f in fs)
    assert fs[0] > fs[1] > fs[2]


def test_sweep_slope_near_minus_two_thirds():
    params = _discrete_params(2000)
    rhos = np.geomspace(0.3, 3.0, 6)
    rows = confinement_sweep(params, GaussianPotential(1.0), rhos)
    fs = [r.free_energy for r in rows]
    assert all(a > b for a, b in zip(fs, fs[1:]))
    fit = exponent_fit(rhos, fs)
    assert -0.9 < fit.slope < -0.4
    assert fit.r_squared > 0.98


def test_sweep_worker_invariance():
    params = _discrete_params(300)
    rhos = [0.5, 1.0, 2.0, 4.0, 5.0]
    rows1 = confinement_sweep(params, GaussianPotential(1.0), rhos, workers=1)
    rows2 = confinement_sweep(params, GaussianPotential(1.0), rhos, workers=3)
    for a, b in zip(rows1, rows2):
        assert a == b


def test_continuous_sweep_worker_invariance():
    # each rho job runs its own half-mesh check from its own eigenvector
    rhos = [0.04, 0.08, 0.12]
    rows1 = confinement_sweep(CONT_PARAMS, GaussianPotential(1.0), rhos, mesh=0.2, workers=1)
    rows2 = confinement_sweep(CONT_PARAMS, GaussianPotential(1.0), rhos, mesh=0.2, workers=2)
    assert all(r.mesh_delta > 0 for r in rows1)
    assert rows1 == rows2


def _half_mesh_pair(rho, grad_cut=None):
    params = ModelParams(n_sites=100, epsilon=0.01, macro_length=1.0)
    pot, tube = GaussianPotential(1.0), TubeSpec(rho, grad_cut)
    return (params, pot, build_transfer(params, pot, tube, mesh=0.08),
            build_transfer(params, pot, tube, mesh=0.04))


def test_warm_started_half_mesh_solve_matches_cold():
    _, _, coarse, fine = _half_mesh_pair(0.04)
    start = confinement._prolong(power_iteration(coarse).eigvec, coarse, fine)
    assert start.shape == (2 * fine.n_h + 1, 2 * fine.n_g + 1)
    assert start.min() >= 0 and start.sum() > 0
    warm = power_iteration(fine, start=start)
    assert warm.lam_norm == pytest.approx(power_iteration(fine).lam_norm, rel=1e-11)
    # a gradient cut below the coarse mesh step keeps one gradient column
    # there (a tube that narrow is refused, so the height axis cannot)
    _, _, coarse, fine = _half_mesh_pair(0.04, grad_cut=0.06)
    assert (coarse.n_g, fine.n_g) == (0, 1)
    start = confinement._prolong(power_iteration(coarse).eigvec, coarse, fine)
    assert start.min() >= 0 and start.sum() > 0
    assert power_iteration(fine, start=start).lam_norm == pytest.approx(
        power_iteration(fine).lam_norm, rel=1e-11)


def test_sweep_half_mesh_check_is_warm_started(monkeypatch):
    # counts iterations, not time: the sweep's half-mesh solve must start from
    # the prolonged coarse eigenvector, which takes 57 steps here to a cold
    # solve's 89
    params, pot, _, fine = _half_mesh_pair(0.04)
    solves = []

    def recording(op, **kw):
        res = power_iteration(op, **kw)
        solves.append((op.delta, res.iterations))
        return res

    monkeypatch.setattr(confinement, "power_iteration", recording)
    confinement_sweep(params, pot, [0.04], mesh=0.08)
    assert [d for d, _ in solves] == [0.08, fine.delta]
    assert solves[1][1] <= 0.8 * power_iteration(fine).iterations


def test_sweep_evaluates_the_step_law_once_per_operator_and_once_to_size(monkeypatch):
    # the default sweep builds 16 operators, one law evaluation each, and
    # sizes its 16 grids by arithmetic on one more
    calls = {"build_increment_dist": 0, "_step_weights": 0}

    def counting(name):
        fn = getattr(confinement, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(confinement, name, counting(name))
    rows = confinement_sweep(CONT_N100, GaussianPotential(1.0), np.geomspace(0.02, 0.2, 8))
    assert len(rows) == 8
    assert calls["build_increment_dist"] <= 17
    assert calls["_step_weights"] <= 17


def test_mc_survival_consistent_with_path_sum():
    # reference: the fraction of free-measure samples (phi_0 = phi_1 = 0)
    # whose heights phi_1..phi_N stay in the tube, with a binomial error
    params = _discrete_params(6)
    dist = build_increment_dist(ZERO_POT, params, truncation=1.0)
    tube = TubeSpec(1.0)
    op = build_transfer(params, ZERO_POT, tube, support=SUPPORT)
    exact = survival_probability(op, 6)
    samples = sample_free(params, dist, 0.0, ChainSettings(seed=17, n_samples=60_000))
    assert samples.shape == (60_000, 8)
    radius = tube_radius(tube, params, dist.sigma2)
    p = float(np.mean(np.max(np.abs(samples[:, 1:7]), axis=1) <= radius))
    assert 0.0 < p < 1.0
    assert abs(p - exact) < 4.0 * math.sqrt(p * (1.0 - p) / 60_000)


def test_build_transfer_mode_guards(monkeypatch):
    disc = _discrete_params(4)
    with pytest.raises(ValueError):
        build_transfer(disc, ZERO_POT, TubeSpec(1.0), support=SUPPORT, mesh=0.1)
    cont = ModelParams(n_sites=4, epsilon=0.25, macro_length=1.0)
    with pytest.raises(ValueError):
        build_transfer(cont, GaussianPotential(1.0), TubeSpec(1.0), support=SUPPORT)
    monkeypatch.setattr(confinement, "_STATE_CAP", 2)
    with pytest.raises(ValueError, match="above the cap 2"):
        build_transfer(disc, ZERO_POT, TubeSpec(1.0), support=SUPPORT)


def test_sub_cell_continuous_tube_is_refused():
    # step sd 0.1 and R = 100 rho here: at mesh 0.05 a tube of R = 0.049 has
    # no height row but 0 and cannot see the tube; R = 0.05 has one each side
    pot = GaussianPotential(1.0)
    with pytest.raises(ValueError, match=r"rho=0\.00049, mesh 0\.05: tube radius "
                                         r"R = 0\.049 is narrower than one mesh cell.*"
                                         r"raise --rho-min, or set --mesh below R"):
        build_transfer(CONT_N100, pot, TubeSpec(4.9e-4), mesh=0.05)
    assert build_transfer(CONT_N100, pot, TubeSpec(5e-4), mesh=0.05).n_h == 1


def test_sweep_refuses_a_lattice_tube_of_radius_0(monkeypatch):
    # at N = 300 the unit lattice law has sigma2 within 3e-7 of 1, so
    # R = rho * 17.3 floors to 0 below rho 0.0578: such a tube holds height 0
    # alone, and its F cannot depend on rho.  build_transfer still takes it
    # (the oracle's path sums do)
    params = ModelParams(300, 1.0, 300.0, height_mode="discrete")
    pot = GaussianPotential(1.0)
    calls = []
    monkeypatch.setattr(confinement, "power_iteration", lambda *a, **k: calls.append(a))
    with pytest.raises(ValueError, match=r"^rho=0\.05: lattice tube radius R = 0 holds "
                                         r"height 0 alone.*; raise --rho-min$"):
        confinement_sweep(params, pot, [0.1, 0.05])
    assert calls == []
    assert build_transfer(params, pot, TubeSpec(0.05)).n_h == 0


def test_sweep_refuses_an_over_cap_half_mesh_at_its_last_rho(monkeypatch):
    # a cap that every coarse grid and every half-mesh grid but the widest
    # tube's fits: the sweep must refuse that last one before any solve
    rhos = [0.02, 0.04, 0.08]
    pot = GaussianPotential(1.0)
    coarse = [build_transfer(CONT_N100, pot, TubeSpec(r), mesh=0.08) for r in rhos]
    fine = [build_transfer(CONT_N100, pot, TubeSpec(r), mesh=0.04) for r in rhos]
    cap = max(max(op.n_states for op in coarse), fine[-2].n_states)
    assert fine[-1].n_states > cap
    calls = []
    monkeypatch.setattr(confinement, "_STATE_CAP", cap)
    monkeypatch.setattr(confinement, "power_iteration", lambda *a, **k: calls.append(a))
    with pytest.raises(ValueError, match=rf"rho=0\.08, half-mesh check at mesh 0\.04: "
                                         rf"operator needs {fine[-1].n_states} states"):
        confinement_sweep(CONT_N100, pot, rhos, mesh=0.08)
    assert calls == []


def _cuts(params, pot, rho):
    """A tube's automatic cut range: where a sweep starts, and its top."""
    sigma2 = build_increment_dist(pot, params).sigma2
    return confinement._cut_range(params, TubeSpec(rho), sigma2)


def test_sweep_refuses_a_tube_whose_widest_cut_is_over_cap(monkeypatch):
    # every start-cut grid fits the cap, but the widest tube's half mesh at
    # the top of its cut range does not: a widening could reach that grid
    # mid-sweep, so the sizing pass must refuse it before any solve
    rhos = [0.02, 0.04, 0.08]
    pot = GaussianPotential(1.0)
    start = build_transfer(CONT_N100, pot, TubeSpec(0.08, _cuts(CONT_N100, pot, 0.08)[0]),
                           mesh=0.04)
    top = build_transfer(CONT_N100, pot, TubeSpec(0.08), mesh=0.04)
    assert start.n_states < top.n_states
    calls = []
    monkeypatch.setattr(confinement, "_STATE_CAP", start.n_states)
    monkeypatch.setattr(confinement, "power_iteration", lambda *a, **k: calls.append(a))
    with pytest.raises(ValueError, match=rf"rho=0\.08, half-mesh check at mesh 0\.04: "
                                         rf"operator needs {top.n_states} states"):
        confinement_sweep(CONT_N100, pot, rhos, mesh=0.08)
    assert calls == []


LATTICE_N250K = ModelParams(250_000, 1.0, 250_000.0, height_mode="discrete")
TABLE_GRID = np.linspace(-40.0, 40.0, 161)


@pytest.mark.parametrize("rho", [0.02, 0.2])
@pytest.mark.parametrize("params, pot", [
    (CONT_N100, GaussianPotential(1.0)),
    (CONT_N100, PowerLawPotential(1.0, 1.0)),
    (CONT_N100, PowerLawPotential(1.0, 1.5)),
    (CONT_N100, PowerLawPotential(1.0, 4.0)),
    (CONT_N100, TabulatedPotential(TABLE_GRID, np.abs(TABLE_GRID) ** 1.5)),
    (LATTICE_N250K, GaussianPotential(1.0)),
], ids=["gaussian", "alpha-1", "alpha-1.5", "alpha-4", "table", "lattice-gaussian"])
def test_doubling_the_final_cut_moves_f_by_at_most_1e_12(params, pot, rho, monkeypatch):
    # solves at the default 1e-12 leave lambda off by up to about that, and
    # F = -log(lam_norm) / eps with -log(lam_norm) down to 0.02 here, so two
    # of them disagreed by 4.5e-11 relative in F with the cut not moving it;
    # at 1e-15 every pair here agreed within 6e-14
    monkeypatch.setattr(confinement, "_POWER_TOL", 1e-15)
    # a sweep's chain at the default mesh alone: its last tube, operator and solve
    tubes, solves = [], []

    def building(params, pot, tube, **kw):
        tubes.append(tube)
        return build_transfer(params, pot, tube, **kw)

    def solving(op, **kw):
        solves.append((op, power_iteration(op, **kw)))
        return solves[-1][1]

    monkeypatch.setattr(confinement, "build_transfer", building)
    monkeypatch.setattr(confinement, "power_iteration", solving)
    confinement._sweep_point((params, pot, rho, _cuts(params, pot, rho), [None]))
    op, sol = solves[-1]
    wide = build_transfer(params, pot, TubeSpec(rho, 2 * tubes[-1].grad_cut))
    assert wide.n_g >= 2 * op.n_g
    res = power_iteration(wide, start=confinement._prolong(sol.eigvec, op, wide))
    assert math.log(res.lam_norm) == pytest.approx(math.log(sol.lam_norm), rel=1e-12)


def test_an_alpha_1_tube_widens_its_cut():
    # the Laplace step law's density at 4 scales holds 2e-10 of its mass in
    # the edge columns, and the start cut moves F by 6e-10 relative
    pot = PowerLawPotential(1.0, 1.0)
    start = build_transfer(CONT_N100, pot, TubeSpec(0.02, _cuts(CONT_N100, pot, 0.02)[0]))
    (row,) = confinement_sweep(CONT_N100, pot, [0.02])
    assert row.n_states == build_transfer(CONT_N100, pot, TubeSpec(0.02)).n_states
    assert row.n_states > start.n_states


def test_benchmark_sweep_keeps_its_start_cut():
    # the benchmark's continuous sweep solves every tube at 4 gradient
    # scales, about half the states of the top of the range, 8 scales
    pot = GaussianPotential(1.0)
    rhos = np.geomspace(0.01, 0.1, 6)
    rows = confinement_sweep(CONT_N100, pot, rhos, mesh=0.08)
    for row, rho in zip(rows, rhos):
        start = build_transfer(CONT_N100, pot, TubeSpec(rho, _cuts(CONT_N100, pot, rho)[0]),
                               mesh=0.08)
        assert row.n_states == start.n_states
    top = build_transfer(CONT_N100, pot, TubeSpec(0.1), mesh=0.08)
    assert rows[-1].n_states <= 0.52 * top.n_states


def test_explicit_grad_cut_is_never_widened(monkeypatch):
    # the alpha = 1 tube that widens from its automatic start cut keeps the
    # same cut when it is given explicitly: one solve per mesh
    pot = PowerLawPotential(1.0, 1.0)
    cut = _cuts(CONT_N100, pot, 0.02)[0]
    calls = []

    def counting(op, **kw):
        calls.append(op)
        return power_iteration(op, **kw)

    monkeypatch.setattr(confinement, "power_iteration", counting)
    (row,) = confinement_sweep(CONT_N100, pot, [0.02], grad_cut=cut)
    assert row.n_states == build_transfer(CONT_N100, pot, TubeSpec(0.02, cut)).n_states
    assert len(calls) == 2


def test_widening_sweep_worker_invariance():
    pot = PowerLawPotential(1.0, 1.0)
    rhos = [0.02, 0.025, 0.03]
    rows1 = confinement_sweep(CONT_N100, pot, rhos, workers=1)
    rows2 = confinement_sweep(CONT_N100, pot, rhos, workers=2)
    assert [r.n_states for r in rows1] == [
        build_transfer(CONT_N100, pot, TubeSpec(r)).n_states for r in rhos]
    assert rows1 == rows2


def test_continuous_transfer_mesh_refinement():
    # once the mesh resolves the step kernel (eps*sigma = 0.1 here), halving
    # it must barely move the free energy
    params = ModelParams(n_sites=100, epsilon=0.01, macro_length=1.0)
    pot = GaussianPotential(1.0)
    tube = TubeSpec(0.05)
    f1 = _free_energy(build_transfer(params, pot, tube, mesh=0.08))
    f2 = _free_energy(build_transfer(params, pot, tube, mesh=0.04))
    assert f2 == pytest.approx(f1, rel=0.02)


def test_exponent_fit_exact_power_law():
    rhos = np.geomspace(0.1, 10.0, 9)
    fs = 3.0 * rhos ** (-2.0 / 3.0)
    fit = exponent_fit(rhos, fs)
    assert fit.slope == pytest.approx(-2.0 / 3.0, abs=1e-12)
    assert fit.intercept == pytest.approx(math.log(3.0), abs=1e-12)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)


def test_exponent_fit_validation():
    with pytest.raises(ValueError):
        exponent_fit([1.0, 2.0, 4.0, 8.0], [1.0, 0.5, 0.25, 0.125])  # 4 points
    with pytest.raises(ValueError):
        exponent_fit([1.0, 2.0, 3.0, 4.0, 5.0], [1.0, 0.9, 0.8, 0.7, 0.6])  # no decade
    with pytest.raises(ValueError):
        exponent_fit([0.1, 0.5, 1.0, 5.0, 10.0], [1.0, 0.5, -0.1, 0.2, 0.1])


def _small_op():
    return build_transfer(_discrete_params(4), ZERO_POT, TubeSpec(1.3), support=SUPPORT)


@pytest.mark.parametrize("call, error", [
    (lambda: TubeSpec(0.0), "rho must be positive and finite"),
    (lambda: TubeSpec(math.inf), "rho must be positive and finite"),
    (lambda: _small_op().matvec(np.zeros((1, 1))), "state vector must have shape (5, 9)"),
    # 401 heights x 149 gradients
    (lambda: build_transfer(CONT_N100, GaussianPotential(1.0), TubeSpec(0.1), mesh=0.05).dense(),
     "dense form capped at 20000 states"),
    (lambda: power_iteration(_small_op(), start=-np.ones((5, 9))),
     "start vector must be nonnegative with positive mass"),
    (lambda: power_iteration(_small_op(), start=np.ones((9, 5))),
     "state vector must have shape (5, 9)"),
    (lambda: survival_probability(_small_op(), 0), "n_sites must be at least 1"),
    (lambda: confinement_sweep(CONT_N100, GaussianPotential(1.0), []), "need at least one rho"),
    (lambda: exponent_fit([0.1, 1.0, 10.0], [1.0, 0.5]),
     "rhos and fs must be 1d and the same length"),
    (lambda: exponent_fit(np.ones((5, 1)), np.ones((5, 1))),
     "rhos and fs must be 1d and the same length"),
    (lambda: exponent_fit([0.0, 0.5, 1.0, 5.0, 10.0], [1.0] * 5),
     "exponent fit needs positive rho values"),
], ids=["zero-rho", "infinite-rho", "matvec-shape", "dense-cap", "negative-start", "start-shape",
        "no-sites", "no-rho", "unequal-lengths", "not-1d", "zero-rho-fit"])
def test_confinement_refusals(call, error):
    with pytest.raises(ValueError) as err:
        call()
    assert str(err.value) == error
