import json
import tracemalloc

import numpy as np
import pytest

import tailsgd.stationary as stationary_mod
from helpers import discrete_spec, gaussian_spec, random_spd, sampled_mean_and_stderr
from tailsgd.cli import main
from tailsgd.distributions import SampleStream, estimate_moments, exact_moments
from tailsgd.errors import (
    ConvergenceError,
    DimensionError,
    IndefiniteSolutionError,
    SingularSystemError,
    StepSizeError,
)
from tailsgd.harness import config_from_dict, family_distribution
from tailsgd.matcore import (
    _ROW_BLOCK,
    _quad_forms,
    matrix_norm_under,
    psd_order_leq,
    sym_to_vec,
    sym_vec_len,
)
from tailsgd.stationary import (
    FourthMomentOperator,
    _eigen_inverse,
    anticommutator,
    covariance_step,
    covariance_walk,
    crude_bound,
    ensure_psd_solution,
    operator_matrix,
    refined_trace_bound,
    solve_stationary_direct,
    solve_stationary_fixed_point,
    solve_stationary_gaussian,
    stationary_residual,
)


def test_gaussian_operator_identity_probe():
    for d in (1, 2, 5):
        op = FourthMomentOperator.gaussian(np.eye(d))
        assert np.allclose(op.apply(np.eye(d)), (d + 2.0) * np.eye(d), atol=1e-14)
    op = FourthMomentOperator.gaussian([[2.0]])
    assert np.allclose(op.apply([[1.0]]), [[12.0]])  # m4 of N(0, 2) is 3 * 4


def test_gaussian_operator_closed_form():
    h = np.array([[1.0, 0.3], [0.3, 2.0]])
    m = np.array([[0.5, -0.2], [-0.2, 1.0]])
    op = FourthMomentOperator.gaussian(h)
    expected = 2.0 * h @ m @ h + np.trace(m @ h) * h
    assert np.allclose(op.apply(m), expected, atol=1e-14)
    assert np.allclose(op.apply(np.zeros((2, 2))), np.zeros((2, 2)))


def test_discrete_operator_two_point():
    op = FourthMomentOperator.discrete([[1.0, 0.0], [0.0, 1.0]], [0.5, 0.5])
    m = np.array([[2.0, 7.0], [7.0, 4.0]])
    # atoms e1, e2: E[(x^T M x) x x^T] = (M_11 e1 e1^T + M_22 e2 e2^T) / 2
    assert np.allclose(op.apply(m), np.diag([1.0, 2.0]))


def test_operator_self_adjoint_and_monotone():
    g = np.random.default_rng(0)
    backings = [
        FourthMomentOperator.gaussian(random_spd(3, 1)),
        FourthMomentOperator.from_spec(discrete_spec(3, 2)),
        FourthMomentOperator.sampled(SampleStream(gaussian_spec(3, sigma=0.0), 3).draw(2000)[0]),
    ]
    for op in backings:
        a = g.standard_normal((3, 3))
        a = a + a.T
        b = g.standard_normal((3, 3))
        b = b + b.T
        lhs = float(np.trace(op.apply(a) @ b))
        rhs = float(np.trace(a @ op.apply(b)))
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)
        p = g.standard_normal((3, 4))
        small = p @ p.T
        bigger = small + np.outer(g.standard_normal(3), np.ones(3)) * 0.0 + np.eye(3)
        assert psd_order_leq(op.apply(small), op.apply(bigger), tol=1e-10)


def test_operator_trace_identity_and_r2_cap():
    for op, h in [
        (FourthMomentOperator.gaussian(random_spd(4, 7)), random_spd(4, 7)),
        (FourthMomentOperator.from_spec(discrete_spec(4, 8)),
         exact_moments(discrete_spec(4, 8)).H),
    ]:
        g = np.random.default_rng(11)
        p = g.standard_normal((4, 5))
        m = p @ p.T
        tr = float(np.trace(op.apply(m)))
        # self-adjointness at the identity probe
        assert tr == pytest.approx(float(np.trace(m @ op.apply(np.eye(4)))), rel=1e-12)
        r2 = op.r_squared_under(h)
        assert tr <= r2 * float(np.trace(m @ h)) * (1.0 + 1e-12)


def test_monte_carlo_operator_stderr():
    spec = gaussian_spec(3, sigma=0.0)
    op = FourthMomentOperator.sampled(SampleStream(spec, 5).draw(100_000)[0])
    exact = FourthMomentOperator.gaussian(np.eye(3))
    probe = np.diag([1.0, 2.0, 3.0])
    mean, se = sampled_mean_and_stderr(op, probe)
    assert np.all(se > 0.0)
    assert np.all(np.abs(mean - exact.apply(probe)) <= 4.0 * se)
    assert np.allclose(mean, op.apply(probe), rtol=1e-12)


def test_operator_validation():
    with pytest.raises(DimensionError):
        FourthMomentOperator.gaussian(np.eye(2)).apply(np.eye(3))
    with pytest.raises(ValueError):
        FourthMomentOperator.discrete([[1.0, 0.0]], [0.5])
    with pytest.raises(DimensionError):
        FourthMomentOperator.discrete([[1.0, 0.0]], [0.5, 0.5])


def test_anticommutator_examples():
    h = np.diag([1.0, 2.0])
    m = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert np.allclose(anticommutator(m, h), [[0.0, 3.0], [3.0, 0.0]])
    # H M + M H - 0.1 H M H at M = I is diag(1.9, 3.6)
    inv = _eigen_inverse(np.diag(h), np.eye(2), np.diag([1.9, 3.6]), 0.1)
    assert np.allclose(inv, np.eye(2))
    with pytest.raises(DimensionError):
        anticommutator(np.eye(2), np.eye(3))


def test_operator_matrices_are_symmetric():
    # both maps are self-adjoint, so their flattened-basis matrices must be too
    h = random_spd(3, 21)
    op = FourthMomentOperator.gaussian(h)
    t_mat = operator_matrix(lambda m: anticommutator(m, h), 3)
    s_mat = operator_matrix(op.apply, 3)
    assert t_mat.shape == (sym_vec_len(3),) * 2
    assert np.allclose(t_mat, t_mat.T, atol=1e-12)
    assert np.allclose(s_mat, s_mat.T, atol=1e-12)


def test_covariance_step_base_cases():
    h = np.eye(2)
    op = FourthMomentOperator.gaussian(h)
    sigma = np.diag([1.0, 2.0])
    assert np.allclose(covariance_step(np.zeros((2, 2)), h, op, sigma, 0.1),
                       0.01 * sigma)
    assert np.allclose(covariance_step(np.zeros((2, 2)), h, op, np.zeros((2, 2)), 0.1),
                       np.zeros((2, 2)))


def _walk_model(source, d):
    if source in ("well_specified", "misspecified"):
        return config_from_dict({"distribution": family_distribution(source, d, 1.0)})
    # a dense SPD H, seeded by d
    return config_from_dict({"distribution": {"kind": source, "d": d, "noise_sigma": 1.0,
                                              "H_spec": random_spd(d, 80 + d).tolist()}})


@pytest.mark.parametrize("source,d", [
    *[(family, d) for family in ("well_specified", "misspecified") for d in (3, 10, 40)],
    ("gaussian_well_specified", 30), ("gaussian_misspecified", 30),
])
def test_eigenbasis_walk_matches_the_dense_walk(monkeypatch, source, d):
    # both statistics of 300 steps of the O(d) diagonal recursion against 300
    # dense steps: the step eigenvalue is already relative to max(1, |C|_F)
    cfg = _walk_model(source, d)
    m, op, gamma = cfg.moments, cfg.operator, cfg.gamma
    dense = stationary_mod._dense_walk(m.H, op, m.Sigma, gamma)
    basis = np.linalg.eigh(m.H)
    monkeypatch.setattr(stationary_mod, "covariance_step", None)
    walk = covariance_walk(m.H, op, m.Sigma, gamma, basis=basis)
    assert abs(walk[0] - dense[0]) <= 1e-12
    assert abs(walk[1] - dense[1]) <= 1e-12 * dense[1]


def test_walk_off_the_eigenbasis_is_dense():
    # no basis, a Sigma that does not commute with H, or an operator of
    # another H takes the dense recursion
    h = random_spd(4, 5)
    op = FourthMomentOperator.gaussian(h)
    gamma = 0.5 / op.r_squared_under(h)
    basis = np.linalg.eigh(h)
    dense = stationary_mod._dense_walk(h, op, h, gamma)
    assert covariance_walk(h, op, h, gamma) == dense
    sigma = random_spd(4, 6)
    assert (covariance_walk(h, op, sigma, gamma, basis=basis)
            == stationary_mod._dense_walk(h, op, sigma, gamma))
    wrong = FourthMomentOperator.gaussian(1.1 * h)
    assert (covariance_walk(h, wrong, h, gamma, basis=basis)
            == stationary_mod._dense_walk(h, wrong, h, gamma))


def test_one_dimensional_closed_form_both_solvers():
    gamma, h, sigma = 0.1, 1.0, 1.0
    op = FourthMomentOperator.gaussian([[h]])   # m4 = 3
    expected = gamma * sigma / (2.0 * h - gamma * 3.0)
    for solver in (solve_stationary_fixed_point, solve_stationary_direct):
        sol = solver([[h]], op, [[sigma]], gamma)
        assert sol.cov[0, 0] == pytest.approx(expected, rel=1e-10)
        assert sol.residual <= 1e-8 * gamma * sigma


def test_zero_noise_fixed_point_is_zero():
    h = random_spd(3, 31)
    op = FourthMomentOperator.gaussian(h)
    fp = solve_stationary_fixed_point(h, op, np.zeros((3, 3)), 0.05)
    di = solve_stationary_direct(h, op, np.zeros((3, 3)), 0.05)
    assert np.allclose(fp.cov, 0.0, atol=1e-15) and fp.iterations == 1
    assert np.allclose(di.cov, 0.0, atol=1e-12)


def test_solver_agreement_small_instance():
    spec = discrete_spec(3, 41)
    m = exact_moments(spec)
    op = FourthMomentOperator.from_spec(spec)
    gamma = 0.5 / m.R2
    fp = solve_stationary_fixed_point(m.H, op, m.Sigma, gamma)
    di = solve_stationary_direct(m.H, op, m.Sigma, gamma)
    scale = np.linalg.norm(di.cov, "fro")
    assert np.linalg.norm(fp.cov - di.cov, "fro") <= 1e-8 * scale
    assert stationary_residual(di.cov, m.H, op, m.Sigma, gamma) == di.residual
    assert fp.exact and di.exact
    # the symmetric system's eigenvalue ratio is its 2-norm condition number
    a = (operator_matrix(lambda mm: anticommutator(mm, m.H), 3)
         - gamma * operator_matrix(op.apply, 3))
    assert di.condition == pytest.approx(np.linalg.cond(a), rel=1e-10)


@pytest.mark.parametrize("source,d", [
    ("misspecified", 20), ("misspecified", 39), ("discrete", 3), ("discrete", 12),
])
def test_fixed_point_converges_fast_and_matches_direct(source, d):
    # the plain recursion needs ~1/(gamma mu) steps (10^6 were not enough for
    # the misspecified family at d=20); the preconditioned one contracts at
    # gamma R^2 / 2 < 1/2 whatever mu is
    spec = (discrete_spec(d, 40 + d) if source == "discrete" else
            config_from_dict({"distribution": family_distribution(source, d, 1.0)}).distribution)
    m = exact_moments(spec)
    gamma = (0.9 if source == "discrete" else 0.5) / m.R2
    op = FourthMomentOperator.from_spec(spec)
    fp = solve_stationary_fixed_point(m.H, op, m.Sigma, gamma)
    di = solve_stationary_direct(m.H, op, m.Sigma, gamma)
    assert fp.iterations <= 60
    assert np.linalg.norm(fp.cov - di.cov, "fro") <= 1e-8 * np.linalg.norm(di.cov, "fro")
    assert fp.residual <= 1e-8 * gamma * np.linalg.norm(m.Sigma, "fro")


@pytest.mark.parametrize("source,d", [
    *[(family, d) for family in ("well_specified", "misspecified") for d in (1, 3, 10, 40)],
    ("dense", 3), ("dense", 30),
])
def test_gaussian_closed_form_matches_direct(source, d):
    # one eigendecomposition and one scalar tau = Tr(HC) against the dense
    # O(d^6) solve, on both sweep families and on dense SPD H with a dense
    # Sigma: the closed form needs a Gaussian S, not a Sigma proportional to H
    if source == "dense":
        h, sigma = random_spd(d, 60 + d), random_spd(d, 70 + d)
        op = FourthMomentOperator.gaussian(h)
        gamma = 0.5 / op.r_squared_under(h)
    else:
        cfg = config_from_dict({"distribution": family_distribution(source, d, 1.0)})
        h, sigma, op, gamma = cfg.moments.H, cfg.moments.Sigma, cfg.operator, cfg.gamma
    cf = solve_stationary_gaussian(h, sigma, gamma)
    di = solve_stationary_direct(h, op, sigma, gamma)
    assert cf.method == "closed-form" and cf.exact
    assert np.linalg.norm(cf.cov - di.cov) <= 1e-12 * np.linalg.norm(di.cov)
    assert cf.residual == stationary_residual(cf.cov, h, op, sigma, gamma)
    assert cf.residual <= 1e-12 * gamma * np.linalg.norm(sigma)


def test_gaussian_closed_form_gates():
    # R^2 = d + 2 under H = I, as for the other solvers; zero noise gives zero
    with pytest.raises(StepSizeError):
        solve_stationary_gaussian(np.eye(2), np.eye(2), 0.25)
    assert not np.any(solve_stationary_gaussian(random_spd(3, 31), np.zeros((3, 3)), 0.05).cov)


def test_direct_solver_refuses_oversized_systems():
    # at d=160 the dense matrix would take (160*161/2)^2 * 8 bytes, about 1.3 GB
    d = 160
    op = FourthMomentOperator.gaussian(np.eye(d))
    tracemalloc.start()
    try:
        with pytest.raises(SingularSystemError, match="d=160"):
            solve_stationary_direct(np.eye(d), op, np.eye(d), 0.5 / (d + 2))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2 ** 20


def _rel_gap(a, b):
    return float(np.max(np.abs(a - b)) / np.max(np.abs(b)))


def test_blocked_contractions_match_einsum():
    # the row-blocked BLAS forms against the einsum forms they replace, with a
    # ragged last block
    n, d = 3 * _ROW_BLOCK + 17, 4
    g = np.random.default_rng(21)
    m = random_spd(d, 22)
    xs = g.standard_normal((n, d))
    probs = g.uniform(0.5, 1.5, n)
    probs /= probs.sum()
    q = np.einsum("ki,ij,kj->k", xs, m, xs)
    assert _rel_gap(_quad_forms(xs, m), q) <= 1e-12
    discrete = FourthMomentOperator.discrete(xs, probs)
    assert _rel_gap(discrete.apply(m), np.einsum("k,ki,kj->ij", probs * q, xs, xs)) <= 1e-12

    spec = gaussian_spec(d, h=random_spd(d, 23), sigma=0.7, kind="gaussian_misspecified",
                         misspec_fn="one_plus_norm_x")
    x, y = SampleStream(spec, 24).draw(n)
    q = np.einsum("ki,ij,kj->k", x, m, x)
    mean = np.einsum("k,ki,kj->ij", q, x, x) / n
    m2 = np.einsum("k,ki,kj->ij", q * q, x ** 2, x ** 2) / n
    se = np.sqrt(np.maximum(m2 - mean ** 2, 0.0) / n)
    mc = FourthMomentOperator.sampled(x)
    assert _rel_gap(mc.apply(m), mean) <= 1e-12
    mc_mean, mc_se = sampled_mean_and_stderr(mc, m)
    assert _rel_gap(mc_mean, mean) <= 1e-12
    assert _rel_gap(mc_se, se) <= 1e-12

    est = estimate_moments(spec, n, 24)
    sigma = np.einsum("n,ni,nj->ij", (y - x @ spec.w_star) ** 2, x, x) / n
    f = np.einsum("n,ni,nj->ij", np.einsum("ni,ni->n", x, x), x, x) / n
    assert _rel_gap(est.Sigma, sigma) <= 1e-12
    assert est.R2 == pytest.approx(matrix_norm_under(f, x.T @ x / n), rel=1e-12)


def test_sampled_operator_memory_is_bounded_by_row_blocks():
    # 200,000 draws at d=10 are 16 MB; an unblocked contraction makes
    # temporaries of that size
    cfg = config_from_dict({"distribution": family_distribution("misspecified", 10, 1.0)})
    spec = cfg.distribution
    op = FourthMomentOperator.sampled(SampleStream(spec, 5).draw(200_000)[0])
    h = spec.H_spec
    for name, fn in (("apply", op.apply), ("sums", lambda m: sampled_mean_and_stderr(op, m))):
        tracemalloc.start()
        try:
            fn(h)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2 ** 20, name


def test_cli_verify_misspecified_d20(tmp_path, capsys):
    path = tmp_path / "misspec20.json"
    path.write_text(json.dumps({"distribution": family_distribution("misspecified", 20, 1.0),
                                "T": 200, "replicates": 20, "seed": 3}))
    assert main(["verify", "--config", str(path)]) == 0
    assert "FAIL" not in capsys.readouterr().out


def test_solver_gates_and_failures(monkeypatch):
    op = FourthMomentOperator.gaussian(np.eye(2))  # R2 = 4 under H = I
    with pytest.raises(StepSizeError):
        solve_stationary_fixed_point(np.eye(2), op, np.eye(2), 0.25)
    with pytest.raises(StepSizeError):
        solve_stationary_direct(np.eye(2), op, np.eye(2), 0.3)
    with pytest.raises(StepSizeError):
        # mismatched small H inflates R^2 for this backing and is rejected
        solve_stationary_direct(0.1 * np.eye(2), op, np.eye(2), 0.2)
    with pytest.raises(DimensionError):
        solve_stationary_direct(np.eye(3), op, np.eye(3), 0.01)
    monkeypatch.setattr(stationary_mod, "_FP_MAX_ITER", 3)
    with pytest.raises(ConvergenceError):
        solve_stationary_fixed_point(np.eye(2), op, np.eye(2), 0.2)
    monkeypatch.setattr(stationary_mod, "_COND_MAX", 1.0)
    with pytest.raises(SingularSystemError):
        solve_stationary_direct(np.eye(2), op, np.eye(2), 0.2)


def test_ensure_psd_solution():
    clipped = ensure_psd_solution(np.diag([1.0, -1e-14]))
    assert np.linalg.eigvalsh(clipped)[0] >= 0.0
    assert np.allclose(clipped, np.diag([1.0, 0.0]), atol=1e-13)
    with pytest.raises(IndefiniteSolutionError):
        ensure_psd_solution(np.diag([1.0, -1e-3]))


def test_crude_bound_examples():
    # 1-d: gamma ||Sigma||_H / (1 - gamma R^2)
    assert crude_bound([[2.0]], [[1.0]], 0.1, 5.0) == pytest.approx(0.4, rel=1e-12)
    assert crude_bound(np.eye(2), 2.0 * np.eye(2), 0.1, 5.0) == pytest.approx(0.1, rel=1e-12)
    with pytest.raises(StepSizeError):
        crude_bound(np.eye(2), np.eye(2), 0.25, 4.0)


def test_refined_trace_bound_examples():
    # (gamma/2) Tr(H^{-1} Sigma) + gamma^2 R^2 d ||Sigma||_H / (2 (1 - gamma R^2))
    val = refined_trace_bound([[1.0]], [[1.0]], 0.1, 3.0)
    assert val == pytest.approx(0.05 + 0.015 / 0.7, rel=1e-12)
    val2 = refined_trace_bound([[2.0]], [[1.0]], 0.1, 5.0)
    assert val2 == pytest.approx(0.1 + 0.1, rel=1e-12)
    with pytest.raises(StepSizeError):
        refined_trace_bound(np.eye(2), np.eye(2), 0.5, 2.0)
