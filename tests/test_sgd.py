import itertools
import tracemalloc

import numpy as np
import pytest

import tailsgd.sgd as sgd_mod
from helpers import discrete_spec, gaussian_spec, random_spd
from tailsgd.distributions import (
    DistributionSpec,
    SampleStream,
    SeedRange,
    SupportAtom,
    exact_moments,
)
from tailsgd.errors import DimensionError, EmptyWindowError, StepSizeError
from tailsgd.distributions import sample_streams
from tailsgd.matcore import _DRAW_BUDGET
from tailsgd.sgd import (
    _MIN_GROUP,
    BLOCK,
    PROCESSES,
    SgdConfig,
    _diagonal,
    _replicate_bytes,
    draw_plan,
    resolve_moments,
    run_replicates,
)


def unit_design_1d(y_mean=1.0):
    return DistributionSpec(
        kind="discrete", d=1,
        support=(SupportAtom(x=[1.0], y_mean=y_mean, y_std=0.0, prob=1.0),),
    )


def test_config_validation():
    with pytest.raises(EmptyWindowError):
        SgdConfig(gamma=0.1, w0=[0.0], t_avg_start=5, T=5)
    with pytest.raises(StepSizeError):
        SgdConfig(gamma=0.0, w0=[0.0], t_avg_start=0, T=5)
    with pytest.raises(ValueError):
        SgdConfig(gamma=0.1, w0=[0.0], t_avg_start=0, T=0)


def test_deterministic_one_dimensional_run():
    # w_{s+1} = w_s + 0.5 (1 - w_s): states 0, 1/2, 3/4, 7/8
    spec = unit_design_1d()
    cfg = SgdConfig(gamma=0.5, w0=[0.0], t_avg_start=0, T=3)
    run = run_replicates(spec, cfg, [0], snapshot_steps=range(4))
    assert np.allclose(run.snapshots[:, 0, 0], [0.0, 0.5, 0.75, 0.875])
    assert run.tail_averages[0] == pytest.approx([5.0 / 12.0], rel=1e-15)
    assert run.finals[0] == pytest.approx([0.875])
    assert run.samples_per_replicate == 3
    # window of length one picks exactly w_{T-1}
    last = run_replicates(spec, SgdConfig(gamma=0.5, w0=[0.0], t_avg_start=2, T=3), [0])
    assert last.tail_averages[0] == pytest.approx([0.75], rel=1e-15)


def test_start_at_minimizer_is_stationary_when_noiseless():
    spec = unit_design_1d(y_mean=2.0)  # w* = 2
    cfg = SgdConfig(gamma=0.3, w0=[2.0], t_avg_start=0, T=10)
    run = run_replicates(spec, cfg, [1])
    assert run.tail_averages[0] == pytest.approx([2.0], abs=0.0)
    assert run.finals[0] == pytest.approx([2.0], abs=0.0)


def test_tail_average_matches_recorded_iterates():
    spec = gaussian_spec(2, sigma=1.0)
    cfg = SgdConfig(gamma=0.1, w0=[0.0, 0.0], t_avg_start=137, T=500)
    run = run_replicates(spec, cfg, [3], snapshot_steps=range(501))
    iterates = run.snapshots[:, 0]
    recomputed = iterates[137:500].mean(axis=0)
    assert np.allclose(run.tail_averages[0], recomputed, rtol=1e-12, atol=1e-14)
    assert np.array_equal(iterates[-1], run.finals[0])  # the last snapshot is T = 500


def test_kahan_tail_average_long_run():
    spec = gaussian_spec(2, sigma=1.0)
    cfg = SgdConfig(gamma=0.1, w0=[3.0, -1.0], t_avg_start=0, T=20_000)
    run = run_replicates(spec, cfg, [9], snapshot_steps=range(20_001))
    assert np.allclose(run.tail_averages[0], run.snapshots[:-1, 0].mean(axis=0),
                       rtol=1e-12, atol=1e-14)


def test_bias_process_fixed_point_and_exact_decay():
    spec = unit_design_1d(y_mean=5.0)  # w* = 5
    at_min = run_replicates(spec, SgdConfig(gamma=0.1, w0=[5.0], t_avg_start=0, T=20), [0],
                            process="bias")
    assert at_min.finals[0] == pytest.approx([5.0], abs=0.0)

    cfg = SgdConfig(gamma=0.1, w0=[0.0], t_avg_start=0, T=50)
    ts = (1, 10, 49)
    res = run_replicates(spec, cfg, [0], process="bias", snapshot_steps=ts)
    m = exact_moments(spec)
    for k, t in enumerate(ts):
        exact = 5.0 * (1.0 - 0.9 ** t)
        assert res.snapshots[k, 0, 0] == pytest.approx(exact, rel=1e-12)
        gap_sq = (res.snapshots[k, 0, 0] - 5.0) ** 2
        assert gap_sq <= np.exp(-0.1 * m.mu * t) * 25.0


def test_variance_process_noiseless_stays_put():
    spec = gaussian_spec(3, sigma=0.0)
    cfg = SgdConfig(gamma=0.05, w0=np.zeros(3), t_avg_start=0, T=30)
    res = run_replicates(spec, cfg, [2], process="variance", snapshot_steps=(0, 15, 30))
    assert np.array_equal(res.finals[0], np.ones(3))  # w* exactly, never moves
    assert np.array_equal(res.snapshots[:, 0], np.ones((3, 3)))


def test_variance_process_first_step_covariance():
    spec = gaussian_spec(2, sigma=1.0)
    m = exact_moments(spec)
    gamma, reps = 0.1, 2000
    cfg = SgdConfig(gamma=gamma, w0=np.zeros(2), t_avg_start=0, T=1)
    res = run_replicates(spec, cfg, list(range(reps)), process="variance",
                         snapshot_steps=(1,))
    dev = res.snapshots[0] - m.w_star
    # after one step from w*, Cov(w_1 - w*) = gamma^2 Sigma
    terms = np.einsum("ri,rj->rij", dev, dev)
    mean = terms.mean(axis=0)
    se = terms.std(axis=0, ddof=1) / np.sqrt(reps)
    assert np.all(np.abs(mean - gamma ** 2 * m.Sigma) <= 4.0 * se + 1e-12)


def test_batch_rows_equal_single_runs():
    spec = gaussian_spec(3, sigma=1.0)
    cfg = SgdConfig(gamma=0.1, w0=np.zeros(3), t_avg_start=10, T=200)
    seeds = [101, 102, 103]
    batch = run_replicates(spec, cfg, seeds)
    for i, seed in enumerate(seeds):
        solo = run_replicates(spec, cfg, [seed])
        assert np.array_equal(batch.tail_averages[i], solo.tail_averages[0])
        assert np.array_equal(batch.finals[i], solo.finals[0])


@pytest.mark.parametrize("d", [1, 3, 12])
def test_process_rows_equal_single_process_runs(d):
    # rows advance on shared draws, yet each is the single-process run bit for bit
    spec = gaussian_spec(d, h=np.diag(np.linspace(1.0, 0.2, d)), sigma=0.8,
                         kind="gaussian_misspecified")
    m = exact_moments(spec)
    cfg = SgdConfig(gamma=0.4 / m.R2, w0=np.linspace(-1.0, 2.0, d), t_avg_start=300, T=1100)
    seeds = [(4, d, r) for r in range(5)]
    snaps = (0, 1, 600, 1100)
    joint = run_replicates(spec, cfg, seeds, process=PROCESSES, moments=m,
                           snapshot_steps=snaps)
    halves = [run_replicates(spec, cfg, part, process=PROCESSES, moments=m,
                             snapshot_steps=snaps) for part in (seeds[:2], seeds[2:])]
    assert joint.tail_averages.shape == (5, len(PROCESSES), d)
    assert joint.snapshots.shape == (len(snaps), 5, len(PROCESSES), d)
    for k, process in enumerate(PROCESSES):
        solo = run_replicates(spec, cfg, seeds, process=process, moments=m,
                              snapshot_steps=snaps)
        assert np.array_equal(joint.tail_averages[:, k], solo.tail_averages)
        assert np.array_equal(joint.finals[:, k], solo.finals)
        assert np.array_equal(joint.snapshots[:, :, k], solo.snapshots)
        split_tails = np.concatenate([h.tail_averages[:, k] for h in halves])
        split_snaps = np.concatenate([h.snapshots[:, :, k] for h in halves], axis=1)
        assert np.array_equal(split_tails, solo.tail_averages)
        assert np.array_equal(split_snaps, solo.snapshots)


def test_run_reproducibility_and_seed_sensitivity():
    spec = gaussian_spec(2, sigma=1.0)
    cfg = SgdConfig(gamma=0.1, w0=np.zeros(2), t_avg_start=0, T=100)
    a, b, c = (run_replicates(spec, cfg, [seed]).tail_averages[0] for seed in (7, 7, 8))
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_stepsize_gate_and_bad_arguments():
    spec = gaussian_spec(3, sigma=1.0)  # R^2 = 5
    with pytest.raises(StepSizeError):
        run_replicates(spec, SgdConfig(gamma=0.2, w0=np.zeros(3), t_avg_start=0, T=10), [0])
    cfg = SgdConfig(gamma=0.1, w0=np.zeros(3), t_avg_start=0, T=10)
    with pytest.raises(ValueError):
        run_replicates(spec, cfg, [0], snapshot_steps=(11,))
    with pytest.raises(ValueError):
        run_replicates(spec, cfg, [0], process=("standard", "noise"))
    with pytest.raises(DimensionError):
        run_replicates(spec, SgdConfig(gamma=0.1, w0=np.zeros(2), t_avg_start=0, T=10), [0])
    with pytest.raises(ValueError):
        run_replicates(spec, cfg, [])


def test_resolve_moments_fallback_is_deterministic():
    tractable = gaussian_spec(2, sigma=1.0)
    assert resolve_moments(tractable).exact
    hard = gaussian_spec(2, sigma=1.0, kind="gaussian_misspecified",
                         misspec_fn="one_plus_norm_x")
    m1 = resolve_moments(hard)
    m2 = resolve_moments(hard)
    assert not m1.exact and m1.n_samples == m2.n_samples
    assert np.array_equal(m1.Sigma, m2.Sigma)


def test_short_runs_size_the_draw_buffer_by_horizon():
    # verify's mean-recursion check: 31 steps on 2,000 replicates at d=10
    # needs 31 rows of draws, not a full BLOCK of 512 (82 MB)
    spec = gaussian_spec(10, sigma=1.0)
    cfg = SgdConfig(gamma=0.01, w0=np.zeros(10), t_avg_start=0, T=31)
    seeds = [(0, 904, i) for i in range(2000)]
    m = exact_moments(spec)
    tracemalloc.start()
    try:
        run_replicates(spec, cfg, seeds, moments=m, snapshot_steps=(30,))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2 ** 20


BLOCK_KINDS = {
    "diagonal": lambda: gaussian_spec(3, h=np.diag([2.0, 1.0, 0.5]), sigma=0.7),
    "dense": lambda: gaussian_spec(4, h=random_spd(4, 5), sigma=0.7),
    "norm_x": lambda: gaussian_spec(3, h=np.diag([2.0, 1.0, 0.5]), sigma=0.7,
                                    kind="gaussian_misspecified"),
    "one_plus_norm_x": lambda: gaussian_spec(4, h=random_spd(4, 6), sigma=0.7,
                                             kind="gaussian_misspecified",
                                             misspec_fn="one_plus_norm_x"),
    "discrete": lambda: discrete_spec(3, 8),
    # filled in sub-blocks under a small budget
    "diagonal_d40": lambda: gaussian_spec(40, h=np.diag(np.linspace(2.0, 0.1, 40)),
                                          sigma=0.7),
    "norm_x_d40": lambda: gaussian_spec(40, h=np.diag(np.linspace(2.0, 0.1, 40)),
                                        sigma=0.7, kind="gaussian_misspecified"),
}
SUB_BLOCKED_KINDS = ("diagonal_d40", "norm_x_d40")


def _blocks_seen(monkeypatch, spec, seeds, big_t, process="standard"):
    """Copies of the (x, y) blocks a run of run_replicates steps through."""
    seen = []

    def recording(streams, block):
        x, y = real(streams, block)
        seen.append((x.copy(), y.copy()))
        return x, y

    real = sgd_mod.draw_block
    m = resolve_moments(spec)
    cfg = SgdConfig(gamma=0.1 / m.R2, w0=np.zeros(spec.d), t_avg_start=0, T=big_t)
    with monkeypatch.context() as patch:
        patch.setattr(sgd_mod, "draw_block", recording)
        run_replicates(spec, cfg, seeds, process=process, moments=m)
    return seen


@pytest.mark.parametrize("kind, big_t", [
    (kind, big_t) for kind in sorted(BLOCK_KINDS)
    for big_t in ((1, 63, 129, 513, 552, 1100) if kind in SUB_BLOCKED_KINDS
                  else (1, BLOCK - 1, BLOCK + 17))
])
def test_block_pairs_equal_lone_draws(monkeypatch, kind, big_t):
    # each replicate's rows of every BLOCK, joined from its sub-blocks, are
    # its own stream's draw of that block, bit for bit, however the seeds are
    # batched, whatever rows they are filled in and whichever processes the
    # run advances; the seeds' Philox keys are hashed in one batch, over
    # seeds of one to four 32-bit words.  A budget of 4,096 x 8 bytes per
    # seed, for its draws, state and stream, makes the five seeds at d = 40
    # fill 64 rows at a time from T = 92 on, and two or three of them 128
    seeds = [(6, 0), 6, (2 ** 32, 1), (6, 2 ** 64 - 1, 3), (6, 4)]
    monkeypatch.setattr(sgd_mod, "_DRAW_BUDGET", 8 * 4096 * len(seeds))
    spec = BLOCK_KINDS[kind]()
    rows = draw_plan(spec.d, len(seeds), big_t, _diagonal(spec), 1)[0]
    assert (rows < BLOCK) == (kind in SUB_BLOCKED_KINDS and big_t > 64)
    joint = _blocks_seen(monkeypatch, spec, seeds, big_t)
    sizes = [y.shape[1] for _, y in joint]
    assert sum(sizes) == big_t and sizes[:-1] == [rows] * (len(sizes) - 1)
    # numpy forms a one-row product with dot: a lone last row joins the
    # sub-block before it, except where a whole-block fill draws it alone too
    assert sizes[-1] <= rows + 1 and (sizes[-1] > 1 or big_t % BLOCK == 1)
    x = np.concatenate([x for x, _ in joint], axis=1)
    y = np.concatenate([y for _, y in joint], axis=1)
    assert x.shape == (len(seeds), big_t, spec.d)
    streams = [SampleStream(spec, s) for s in seeds]
    for done in range(0, big_t, BLOCK):
        b = min(BLOCK, big_t - done)
        for i, stream in enumerate(streams):
            xi, yi = stream.draw(b)
            assert np.array_equal(x[i, done:done + b], xi)
            assert np.array_equal(y[i, done:done + b], yi)
    for part in (slice(0, 2), slice(2, None)):
        alone = _blocks_seen(monkeypatch, spec, seeds[part], big_t)
        assert np.array_equal(x[part], np.concatenate([x for x, _ in alone], axis=1))
        assert np.array_equal(y[part], np.concatenate([y for _, y in alone], axis=1))
    bias_only = _blocks_seen(monkeypatch, spec, seeds, big_t, process="bias")
    for (x, y), (bx, by) in zip(joint, bias_only):
        assert np.array_equal(x, bx) and np.array_equal(y, by)


def _misspecified_d10():
    # the misspecified sweep family's spectrum at d = 10
    return gaussian_spec(10, h=np.diag(2.0 ** -np.arange(10)), kind="gaussian_misspecified")


def _buffer(rows, group, big_t, d):
    return group * min(rows + (rows < BLOCK), big_t) * (d + 1)


def _group_bytes(rows, group, big_t, d, p):
    return group * _replicate_bytes(d, rows, big_t, p)


@pytest.mark.parametrize("d, r, big_t, p, plan", [
    # verify's mean-recursion and bias-decay runs: 5 and 4 groups
    pytest.param(10, 2000, 31, 1, (64, 474), id="10-2000-31-plan0"),
    pytest.param(10, 1000, 101, 1, (64, 282), id="10-1000-101-plan1"),
    pytest.param(10, 100, 1000, 3, (128, 100), id="10-100-1000-plan2"),  # verify's main run
    pytest.param(3, 200, 10_000, 3, (256, 200), id="3-200-10000-plan3"),  # the README config
    # the sweep's d=100 cell, under the group floor, and (a worker's half) its d=3 cell
    pytest.param(100, 200, 1024, 3, (64, 200), id="100-200-1024-plan4"),
    pytest.param(3, 100, 1024, 3, (512, 100), id="3-100-1024-sweep"),
    pytest.param(1, 1, 1, 3, (512, 1), id="1-1-1-plan5"),
    pytest.param(1, 10 ** 6, 10 ** 9, 3, (64, 842), id="1-1000000-1000000000-plan6"),
    # streams, not draws, fill these groups
    pytest.param(1, 200_000, 1, 3, (64, 1432), id="1-200000-1-streams"),
])
def test_draw_plan_examples(d, r, big_t, p, plan):
    assert draw_plan(d, r, big_t, True, p) == plan


@pytest.mark.parametrize("d", [1, 3, 10, 40, 100, 1000])
def test_draw_plan_fits_the_budget_where_the_floors_allow(d):
    for r, big_t, p in itertools.product((1, 7, 200, 255, 256, 257, 1000, 4000, 10 ** 6),
                                         (1, 31, 64, 65, 101, 129, 512, 513, 10 ** 4),
                                         (1, 3)):
        rows, group = draw_plan(d, r, big_t, True, p)
        # rows a power of two in [64, 512], and the largest at which every
        # replicate fits in one group
        assert rows in (64, 128, 256, 512)
        assert rows == 64 or _group_bytes(rows, r, big_t, d, p) <= _DRAW_BUDGET
        assert rows == BLOCK or _group_bytes(2 * rows, r, big_t, d, p) > _DRAW_BUDGET
        # groups of at least 256 replicates, or all of them, and the
        # largest that fit
        assert group == r or group >= _MIN_GROUP
        assert (_group_bytes(rows, group, big_t, d, p) <= _DRAW_BUDGET
                or group == min(r, _MIN_GROUP))
        assert group == r or _group_bytes(rows, group + 1, big_t, d, p) > _DRAW_BUDGET
    if d <= 100:
        # a dense factor and a discrete fill keep whole blocks; a 1 x 1
        # factor is diagonal
        specs = [discrete_spec(d, 8)] + [gaussian_spec(d, h=random_spd(d, 1))] * (d > 1)
        for spec in specs:
            assert not _diagonal(spec)
            for r, big_t in ((1, 10 ** 4), (200, 1024), (2000, 31)):
                rows, group = draw_plan(d, r, big_t, _diagonal(spec), 3)
                assert rows == BLOCK
                assert group == r or group >= _MIN_GROUP


def test_draw_rows_floor_is_64():
    # at d = 10,000, past the config range, a row of draws alone is 625 KiB:
    # the plan keeps its floors, 64 rows and 256 replicates at a time
    assert draw_plan(10_000, 1000, 10 ** 4, True, 3) == (64, 256)
    assert draw_plan(10_000, 100, 10 ** 4, True, 3) == (64, 100)


GROUPED_RUNS = {
    # (spec, T, replicates): two or more groups, and each half of the seeds
    # one group
    "misspecified_d10_T31": (_misspecified_d10, 31, 700),
    "misspecified_d10_T101": (_misspecified_d10, 101, 500),
    "misspecified_d10_T700": (_misspecified_d10, 700, 500),
    "dense_d3": (lambda: gaussian_spec(3, h=random_spd(3, 5), sigma=0.7), 700, 500),
    "discrete_d2": (lambda: discrete_spec(2, 8), 700, 500),
}


def test_a_seed_range_runs_as_its_seed_tuples():
    # a range is keyed group by group as one uint32 matrix, with no seed list
    spec, reps, big_t = _misspecified_d10(), 700, 31
    m = exact_moments(spec)
    cfg = SgdConfig(gamma=0.5 / m.R2, w0=np.zeros(spec.d), t_avg_start=15, T=big_t)
    assert draw_plan(spec.d, reps, big_t, True, 1)[1] < reps
    ranged, listed = (run_replicates(spec, cfg, seeds, moments=m, snapshot_steps=(30,))
                      for seeds in (SeedRange(3, 7, 0, reps), [(3, 7, i) for i in range(reps)]))
    assert np.array_equal(ranged.tail_averages, listed.tail_averages)
    assert np.array_equal(ranged.snapshots, listed.snapshots)


@pytest.mark.parametrize("name", sorted(GROUPED_RUNS))
def test_grouped_run_equals_single_group_halves(monkeypatch, name):
    # the groups of one run give the tail averages, finals and snapshots of
    # every process that the same seeds give run in other groupings, bit for
    # bit; the run is one run_replicates call that keys each seed's stream once
    make, big_t, r = GROUPED_RUNS[name]
    spec = make()
    m = resolve_moments(spec)
    cfg = SgdConfig(gamma=0.3 / m.R2, w0=np.zeros(spec.d), t_avg_start=big_t // 2, T=big_t)
    seeds = [(3, 7, i) for i in range(r)]
    halves = (seeds[:r // 2], seeds[r // 2:])
    p = len(PROCESSES)
    group = draw_plan(spec.d, r, big_t, _diagonal(spec), p)[1]
    assert group < r
    assert all(draw_plan(spec.d, len(h), big_t, _diagonal(spec), p)[1] == len(h)
               for h in halves)

    def run(part):
        return sgd_mod.run_replicates(spec, cfg, part, process=PROCESSES, moments=m,
                                      snapshot_steps=(0, big_t // 3, big_t))

    calls, keyed = [], []
    with monkeypatch.context() as patch:
        real_run, real_streams = sgd_mod.run_replicates, sgd_mod.sample_streams
        patch.setattr(sgd_mod, "run_replicates",
                      lambda *a, **k: calls.append(1) or real_run(*a, **k))
        patch.setattr(sgd_mod, "sample_streams",
                      lambda spec, part: keyed.append(len(part)) or real_streams(spec, part))
        grouped = run(seeds)
    assert len(calls) == 1
    assert keyed == [group] * (r // group) + [r % group] * (r % group > 0)
    alone = [run(h) for h in halves]
    assert np.array_equal(grouped.tail_averages,
                          np.concatenate([a.tail_averages for a in alone]))
    assert np.array_equal(grouped.finals, np.concatenate([a.finals for a in alone]))
    assert np.array_equal(grouped.snapshots,
                          np.concatenate([a.snapshots for a in alone], axis=1))


@pytest.mark.parametrize("big_t, reps, process, snapshot_steps", [
    (31, 2000, "standard", (30,)),    # verify's mean-recursion run
    (101, 1000, "bias", (10, 100)),   # verify's bias-decay run
])
def test_large_runs_hold_the_draw_budget(big_t, reps, process, snapshot_steps):
    # a run holds its draw buffer, at most the budget, the transform's
    # temporaries of one chunk of rows, one group's streams and state, and
    # the run's outputs: 3.8 and 3.0 MiB here, 5.0 and 3.5 MiB in groups
    # sized by their draws alone.  In one group, with whole 512-row fills,
    # these runs took 9.1 and 10.9 MiB
    spec, p = _misspecified_d10(), 1
    d = spec.d
    m = exact_moments(spec)
    cfg = SgdConfig(gamma=0.5 / m.R2, w0=np.zeros(d), t_avg_start=0, T=big_t)
    seeds = [(0, 905, i) for i in range(reps)]
    rows, group = draw_plan(d, reps, big_t, True, p)
    assert 8 * _buffer(rows, group, big_t, d) <= _DRAW_BUDGET
    tracemalloc.start()
    try:
        sample_streams(spec, seeds[:group])
        streams = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the transform's temporaries, the squares of ||x|| (a quarter of the
    # budget) and the labels and norms of one chunk of 8,192 rows, take
    # under half the budget
    transform = _DRAW_BUDGET // 2
    # eight (group, P, d) arrays: the state, its update, the four of the
    # Kahan sum and two to spare
    state = 8 * group * p * d
    outputs = (2 + len(snapshot_steps)) * reps * p * d
    bound = _DRAW_BUDGET + transform + 8 * (state + outputs) + streams
    tracemalloc.start()
    try:
        run_replicates(spec, cfg, seeds, process=process, moments=m,
                       snapshot_steps=snapshot_steps)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound


# the ids keep the names these cases had when the misspecified one carried
# a 6,553,600-byte allowance for squaring a whole row block of x; both now
# meet the same bound with no allowance
@pytest.mark.parametrize("kind", [
    pytest.param("gaussian_well_specified", id="gaussian_well_specified-0"),
    pytest.param("gaussian_misspecified", id="gaussian_misspecified-6553600"),
])
def test_run_memory_is_the_draw_buffer_plus_a_small_working_set(kind):
    # the sweep's d=100 cell, filled 64 rows at a time, its 200 replicates
    # in one group.  Beside the draw buffer (room for 65 rows) a run holds
    # about ten (R, P, d) arrays (state, Kahan sum, update, outputs) and the
    # label temporaries of one chunk of streams, the squares of ||x|| within
    # the draw budget; an (R, rows, P) label buffer would add five more
    # units, an unblocked ||x|| temporary a whole buffer.  Whole 512-row
    # fills took 83.6 MiB; sub-blocked, the run takes under 24 MiB
    r, p, d = 200, len(PROCESSES), 100
    spec = gaussian_spec(d, sigma=1.0, kind=kind)
    m = exact_moments(spec)
    cfg = SgdConfig(gamma=0.5 / m.R2, w0=np.zeros(d), t_avg_start=512, T=1024)
    seeds = [(0, 1, i) for i in range(r)]
    rows, group = draw_plan(d, r, cfg.T, True, p)
    assert group == r
    buffer = _buffer(rows, r, cfg.T, d) * 8
    tracemalloc.start()
    try:
        run_replicates(spec, cfg, seeds, process=PROCESSES, moments=m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - buffer < 12 * r * p * d * 8
    assert peak < 24 * 2 ** 20
