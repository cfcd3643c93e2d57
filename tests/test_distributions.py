import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import discrete_spec, gaussian_spec, random_spd
from tailsgd.distributions import (
    DistributionSpec,
    Moments,
    SampleStream,
    SeedRange,
    SupportAtom,
    _philox_keys,
    draws_diagonally,
    estimate_moments,
    exact_moments,
    weighted_fourth_moment,
)
from tailsgd.errors import (
    DimensionError,
    IntractableMomentsError,
    NotSpdError,
    SingularMomentsError,
)
from tailsgd.harness import family_distribution
from tailsgd.matcore import _ROW_BLOCK
from tailsgd.stationary import FourthMomentOperator


def two_point_spec(y_std=0.0):
    atoms = (
        SupportAtom(x=[1.0, 0.0], y_mean=0.0, y_std=y_std, prob=0.5),
        SupportAtom(x=[0.0, 1.0], y_mean=0.0, y_std=y_std, prob=0.5),
    )
    return DistributionSpec(kind="discrete", d=2, support=atoms)


def test_point_mass_stream_is_constant():
    spec = DistributionSpec(
        kind="discrete", d=1,
        support=(SupportAtom(x=[2.0], y_mean=3.0, y_std=0.0, prob=1.0),),
    )
    x, y = SampleStream(spec, 0).draw(50)
    assert np.all(x == 2.0) and np.all(y == 3.0)
    assert spec.w_star == pytest.approx([1.5])  # argmin of E(y - wx)^2 = 3/2


def test_noiseless_gaussian_labels_are_exact():
    spec = gaussian_spec(3, sigma=0.0)
    x, y = SampleStream(spec, 11).draw(200)
    assert np.array_equal(y, x @ spec.w_star)


def test_gradient_noise_mean_vanishes():
    spec = gaussian_spec(3, sigma=1.0)
    n = 100_000
    x, y = SampleStream(spec, 5).draw(n)
    noise = -(y - x @ spec.w_star)[:, None] * x
    m = exact_moments(spec)
    # mean has covariance Sigma / n
    cap = 4.0 * np.sqrt(np.trace(m.Sigma) / n)
    assert np.linalg.norm(noise.mean(axis=0)) < cap


def test_exact_moments_gaussian_identity():
    m = exact_moments(gaussian_spec(3, sigma=2.0))
    assert np.allclose(m.H, np.eye(3))
    assert np.allclose(m.Sigma, 4.0 * np.eye(3))
    assert m.mu == pytest.approx(1.0, abs=1e-10)
    assert m.R2 == pytest.approx(5.0, rel=1e-12)  # Tr(H) + 2 lambda_max
    assert m.exact and m.n_samples is None


def test_exact_moments_misspecified_closed_form():
    h = np.diag([1.0, 0.5])
    m = exact_moments(gaussian_spec(2, h=h, sigma=0.5, kind="gaussian_misspecified"))
    expected = 0.25 * (np.trace(h) * h + 2.0 * h @ h)
    assert np.allclose(m.Sigma, expected, atol=1e-14)
    assert m.R2 == pytest.approx(np.trace(h) + 2.0, rel=1e-12)


def test_misspecified_sigma_matches_sampled_residuals():
    spec = gaussian_spec(2, h=np.diag([1.0, 0.5]), sigma=0.5,
                         kind="gaussian_misspecified")
    m = exact_moments(spec)
    n = 200_000
    x, y = SampleStream(spec, 17).draw(n)
    r2 = (y - x @ spec.w_star) ** 2
    terms = r2[:, None, None] * np.einsum("ni,nj->nij", x, x)
    mean = terms.mean(axis=0)
    se = terms.std(axis=0, ddof=1) / np.sqrt(n)
    assert np.all(np.abs(mean - m.Sigma) <= 4.0 * se + 1e-12)


def test_weighted_fourth_moment_gaussian_vs_sampled():
    spec = gaussian_spec(3, h=np.diag([2.0, 1.0, 0.5]), sigma=0.0)
    f = weighted_fourth_moment(spec)
    n = 200_000
    x, _ = SampleStream(spec, 23).draw(n)
    terms = np.einsum("n,ni,nj->nij", np.einsum("ni,ni->n", x, x), x, x)
    mean = terms.mean(axis=0)
    se = terms.std(axis=0, ddof=1) / np.sqrt(n)
    assert np.all(np.abs(mean - f) <= 4.0 * se)


def test_two_point_design_moments():
    m = exact_moments(two_point_spec(y_std=0.0))
    assert np.allclose(m.H, 0.5 * np.eye(2))
    assert np.allclose(m.Sigma, np.zeros((2, 2)))
    assert m.mu == pytest.approx(0.5)
    assert m.R2 == pytest.approx(1.0, rel=1e-12)
    noisy = exact_moments(two_point_spec(y_std=1.0))
    assert np.allclose(noisy.Sigma, 0.5 * np.eye(2))


def test_discrete_argmin_and_conflicting_w_star():
    atoms = (SupportAtom(x=[1.0], y_mean=2.0, y_std=0.0, prob=1.0),)
    spec = DistributionSpec(kind="discrete", d=1, support=atoms)
    assert spec.w_star == pytest.approx([2.0])
    DistributionSpec(kind="discrete", d=1, support=atoms, w_star=[2.0])
    with pytest.raises(ValueError):
        DistributionSpec(kind="discrete", d=1, support=atoms, w_star=[1.0])


def test_non_spanning_support_rejected():
    atoms = (SupportAtom(x=[1.0, 0.0], y_mean=0.0, y_std=1.0, prob=1.0),)
    with pytest.raises(SingularMomentsError):
        DistributionSpec(kind="discrete", d=2, support=atoms)


def test_spec_validation_errors():
    with pytest.raises(ValueError):
        DistributionSpec(kind="nope", d=1)
    with pytest.raises(ValueError):
        gaussian_spec(2, sigma=-1.0)
    with pytest.raises(NotSpdError):
        gaussian_spec(2, h=[[1.0, 2.0], [2.0, 1.0]])
    with pytest.raises(DimensionError):
        gaussian_spec(2, w_star=[1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        DistributionSpec(kind="gaussian_misspecified", d=1, H_spec=[[1.0]],
                         misspec_fn="unknown")
    bad = (SupportAtom(x=[1.0], y_mean=0.0, y_std=0.0, prob=0.5),)
    with pytest.raises(ValueError):
        DistributionSpec(kind="discrete", d=1, support=bad)  # probs sum to 0.5


def test_one_plus_norm_x_has_no_closed_form():
    spec = gaussian_spec(2, sigma=1.0, kind="gaussian_misspecified",
                         misspec_fn="one_plus_norm_x")
    with pytest.raises(IntractableMomentsError):
        exact_moments(spec)
    m = estimate_moments(spec, 50_000, 3)
    assert not m.exact and m.n_samples == 50_000
    assert np.linalg.norm(m.H - np.eye(2)) < 0.05
    # Var(y|x) = (1 + ||x||)^2 >= ||x||^2, so Sigma dominates the norm_x model's
    tractable = exact_moments(gaussian_spec(2, sigma=1.0, kind="gaussian_misspecified"))
    assert np.trace(m.Sigma) > np.trace(tractable.Sigma)


def test_estimate_moments_converges_with_n():
    spec = gaussian_spec(3, sigma=1.0)
    exact = exact_moments(spec)
    errs = []
    for n in (1000, 10_000, 100_000):
        m = estimate_moments(spec, n, 9)
        errs.append(np.linalg.norm(m.H - exact.H) + np.linalg.norm(m.Sigma - exact.Sigma)
                    + abs(m.R2 - exact.R2))
    assert errs[2] < errs[1] < errs[0]
    assert errs[2] < 0.15


def test_estimate_moments_degenerate_draws():
    atoms = (
        SupportAtom(x=[1.0, 0.0], y_mean=0.0, y_std=1.0, prob=0.999),
        SupportAtom(x=[0.0, 1.0], y_mean=0.0, y_std=1.0, prob=0.001),
    )
    spec = DistributionSpec(kind="discrete", d=2, support=atoms)
    with pytest.raises(SingularMomentsError):
        estimate_moments(spec, 3, 0)
    with pytest.raises(ValueError):
        estimate_moments(spec, 1, 0)  # n < d


def test_streams_reproducible_and_independent():
    spec = gaussian_spec(2, sigma=1.0)
    x1, y1 = SampleStream(spec, 42).draw(100)
    x2, y2 = SampleStream(spec, 42).draw(100)
    assert np.array_equal(x1, x2) and np.array_equal(y1, y2)
    x3, _ = SampleStream(spec, (42, 1)).draw(100)
    assert not np.array_equal(x1, x3)
    assert np.array_equal(x1, SampleStream(spec, (42,)).draw(100)[0])


def seed_sequence_key(seed):
    entropy = list(seed) if isinstance(seed, tuple) else [seed]
    return np.random.SeedSequence(entropy).generate_state(2, np.uint64)


SEED_ENTRY = st.integers(0, 2 ** 64 - 1)
SEED = st.one_of(SEED_ENTRY, st.lists(SEED_ENTRY, min_size=1, max_size=6).map(tuple))


@settings(max_examples=200, deadline=None)
@given(st.lists(SEED, min_size=1, max_size=8))
def test_batched_keys_equal_seed_sequence(seeds):
    assert np.array_equal(_philox_keys(seeds), [seed_sequence_key(s) for s in seeds])


def test_batched_keys_mix_word_layouts_in_one_batch():
    # one to twelve words per seed, hashed in groups of equal word count
    edges = [0, 2 ** 32 - 1, 2 ** 32, 2 ** 64 - 1]
    seeds = edges + [(e,) for e in edges] + [
        (2 ** 40, 3, 7), (5, 0, 2), (2 ** 64 - 1, 2 ** 32, 0),
        (0, 0, 0, 0, 0, 0), (1, 2 ** 32 - 1, 2 ** 32, 2 ** 64 - 1, 9, 0),
        (2 ** 64 - 1,) * 6, (2 ** 33 + 5, 904, 1999),
    ]
    keys = _philox_keys(seeds)
    assert keys.shape == (len(seeds), 2) and keys.dtype == np.uint64
    for seed, key in zip(seeds, keys):
        assert np.array_equal(key, seed_sequence_key(seed)), seed


@pytest.mark.parametrize("master, cell, lo, hi", [
    (0, 0, 0, 3), (7, 1, 0, 4), (2 ** 32, 0, 0, 5), (2 ** 32 - 1, 2 ** 32, 5, 9),
    (2 ** 64 - 1, 905, 0, 3), (2 ** 40 + 3, 2 ** 64 - 1, 2 ** 32 - 3, 2 ** 32),
])
def test_batched_range_keys_equal_seed_sequence(master, cell, lo, hi):
    # the seeds (master, cell, i) for lo <= i < hi as one uint32 matrix, with
    # masters and cells of one and two words, and cell or index 0
    seeds = [(master, cell, i) for i in range(lo, hi)]
    keys = _philox_keys(SeedRange(master, cell, lo, hi))
    assert keys.shape == (hi - lo, 2) and keys.dtype == np.uint64
    assert np.array_equal(keys, [seed_sequence_key(s) for s in seeds])
    assert np.array_equal(keys, _philox_keys(seeds))
    assert np.array_equal(_philox_keys(SeedRange(master, cell, lo, hi)[1:-1]), keys[1:-1])


@settings(max_examples=100, deadline=None)
@given(SEED_ENTRY, SEED_ENTRY, st.integers(0, 2 ** 32 - 8), st.integers(1, 8))
def test_range_keys_equal_tuple_keys(master, cell, lo, n):
    assert np.array_equal(_philox_keys(SeedRange(master, cell, lo, lo + n)),
                          _philox_keys([(master, cell, i) for i in range(lo, lo + n)]))


@pytest.mark.parametrize("seed, error", [
    (-1, ValueError), ((3, -2), ValueError), ((1, 2.5), TypeError), ((1, None), TypeError),
])
def test_batched_keys_reject_entries_seed_sequence_rejects(seed, error):
    entropy = list(seed) if isinstance(seed, tuple) else [seed]
    with pytest.raises(error):
        np.random.SeedSequence(entropy)
    with pytest.raises(error):
        _philox_keys([(0, 1), seed])


def test_gaussian_draws_split_invariant():
    # diagonal H (unequal, non-unit variances) scales the normals, a dense H
    # multiplies them by its factor; both give exactly z @ cholesky(H).T
    g = np.random.default_rng(3)
    cases = [np.diag(g.uniform(0.1, 4.0, d)) for d in (1, 3, 100)] + [random_spd(4, 5)]
    for h in cases:
        d = h.shape[0]
        spec = gaussian_spec(d, h=h, w_star=np.linspace(-1.0, 1.0, d), sigma=0.5)
        whole_x, whole_y = SampleStream(spec, 7).draw(100)
        z = np.random.Generator(np.random.Philox(np.random.SeedSequence([7]))).standard_normal(
            (100, d + 1))
        x = z[:, :d] @ np.linalg.cholesky(spec.H_spec).T
        assert np.array_equal(whole_x, x)
        assert np.array_equal(whole_y, x @ spec.w_star + 0.5 * z[:, d])
        s = SampleStream(spec, 7)
        ax, ay = s.draw(60)
        bx, by = s.draw(40)
        assert np.array_equal(whole_x, np.vstack([ax, bx]))
        assert np.array_equal(whole_y, np.concatenate([ay, by]))
    # the misspecified noise scale ||x|| is taken over row blocks, with the
    # bits of the whole-array norm
    for fn, shift in (("norm_x", 0.0), ("one_plus_norm_x", 1.0)):
        spec = gaussian_spec(3, h=np.diag([2.0, 1.0, 0.5]), w_star=[1.0, -1.0, 0.5],
                             sigma=0.7, kind="gaussian_misspecified", misspec_fn=fn)
        n = 2 * _ROW_BLOCK + 5
        x, y = SampleStream(spec, 7).draw(n)
        z = np.random.Generator(np.random.Philox(np.random.SeedSequence([7]))).standard_normal(
            (n, 4))
        assert np.array_equal(x, z[:, :3] * np.sqrt([2.0, 1.0, 0.5]))
        assert np.array_equal(
            y, x @ spec.w_star + (shift + np.linalg.norm(x, axis=1)) * 0.7 * z[:, 3])


def test_misspecified_draw_squares_one_row_block_at_a_time():
    # beside its (n, d + 1) block a draw holds a few length-n vectors and
    # the squares of one row block, not an (n, d) array of them
    spec = gaussian_spec(10, sigma=1.0, kind="gaussian_misspecified")
    n = 4 * _ROW_BLOCK
    tracemalloc.start()
    try:
        SampleStream(spec, 1).draw(n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n * 11 * 8 + 4 * n * 8 + 2 * _ROW_BLOCK * 10 * 8


def test_discrete_draw_gathers_x_beside_its_raw_variates():
    # a discrete draw holds n uniforms, n normals, the atom indices and the
    # gathered (n, d) x, with no (n, d + 1) block for the raw variates
    spec = discrete_spec(50, 3)
    n = 4096
    tracemalloc.start()
    try:
        SampleStream(spec, 1).draw(n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n * 50 * 8 + 8 * n * 8


def test_draw_layouts():
    # BLAS dots over rows sum in an order set by the row stride, so results
    # computed from a draw keep their bits only if its layout stays: y and a
    # gathered or multiplied x are contiguous, a scaled x is a view of the
    # draw's normals
    dense = gaussian_spec(3, h=random_spd(3, 1))
    for spec, x_view in ((gaussian_spec(3, h=np.diag([2.0, 1.0, 0.5])), True),
                         (dense, False), (two_point_spec(y_std=1.0), False)):
        x, y = SampleStream(spec, 3).draw(50)
        assert y.flags.c_contiguous and x.flags.c_contiguous is not x_view


def test_moments_validation():
    with pytest.raises(NotSpdError):
        Moments(H=np.eye(2), Sigma=np.diag([1.0, -1.0]), w_star=np.zeros(2),
                R2=4.0, exact=True)
    with pytest.raises(DimensionError):
        Moments(H=np.eye(2), Sigma=np.eye(3), w_star=np.zeros(2), R2=4.0, exact=True)
    m = Moments(H=np.diag([2.0, 1.0]), Sigma=np.eye(2), w_star=np.zeros(2),
                R2=6.0, exact=True)
    assert m.mu == pytest.approx(1.0) and m.d == 2


def _r2_pair(spec):
    m = exact_moments(spec)
    return m.R2, FourthMomentOperator.from_spec(spec).r_squared_under(m.H)


def test_moments_and_operator_share_one_r2_on_discrete_supports():
    # E[||x||^2 x x^T] is the operator's S(I): the three-operand einsum it
    # once used gave an R^2 a few ulps off on 130 of these 200 supports, so
    # a gamma the config accepted could be refused by a solver
    for seed in range(200):
        spec = discrete_spec(1 + seed % 7, 1000 + seed)
        r2, op_r2 = _r2_pair(spec)
        assert r2 == op_r2, seed


@pytest.mark.parametrize("family", ["well_specified", "misspecified"])
@pytest.mark.parametrize("d", [1, 3, 10, 40])
def test_moments_and_operator_share_one_r2_on_the_sweep_families(family, d):
    f = family_distribution(family, d, 1.0)
    h = np.eye(d) if f["H_spec"] == "identity" else np.diag(f["H_spec"]["diag"])
    spec = DistributionSpec(kind=f["kind"], d=d, H_spec=h, w_star=f["w_star"],
                            noise_sigma=f["noise_sigma"])
    r2, op_r2 = _r2_pair(spec)
    assert r2 == op_r2


def test_one_rule_decides_the_draw_form(monkeypatch):
    # H with no nonzero entry off its diagonal, however it is written, draws
    # through the square roots of that diagonal: LAPACK's factor bit for bit,
    # formed with no factorization
    g = np.random.default_rng(5)
    diagonals = [np.exp(g.uniform(-12.0, 12.0, size=g.integers(1, 8))) for _ in range(200)]
    factors = [np.linalg.cholesky(np.diag(v)) for v in diagonals]

    def no_cholesky(a):
        raise AssertionError("a diagonal H was factored")

    monkeypatch.setattr(np.linalg, "cholesky", no_cholesky)
    for v, chol in zip(diagonals, factors):
        spec = gaussian_spec(len(v), h=np.diag(v))
        assert np.array_equal(spec._chol[:-1], np.diagonal(chol)) and spec._chol[-1] == 1.0
    monkeypatch.undo()
    # antisymmetric parts vanish as spd symmetrizes; anything else is dense
    assert draws_diagonally([[2.0, 1e-300], [-1e-300, 1.0]])
    assert not draws_diagonally([[2.0, 1e-300], [1e-300, 1.0]])
    assert gaussian_spec(2, h=[[2.0, 0.1], [0.1, 1.0]])._chol.ndim == 2
