import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tailsgd import matcore
from tailsgd.errors import DimensionError, NotSpdError
from tailsgd.matcore import (
    matrix_norm_under,
    psd_order_leq,
    spd,
    spectral_norm,
    sym,
    sym_dim,
    sym_to_vec,
    sym_vec_len,
    vec_to_sym,
    weighted_norm_sq,
)

SQRT2 = np.sqrt(2.0)


def random_sym(d, seed):
    a = np.random.default_rng(seed).standard_normal((d, d))
    return a + a.T


def test_sym_symmetrizes_and_validates():
    a = sym([[1.0, 2.0], [0.0, 3.0]])
    assert np.array_equal(a, [[1.0, 1.0], [1.0, 3.0]])
    with pytest.raises(DimensionError):
        sym(np.ones((2, 3)))
    with pytest.raises(DimensionError):
        sym(np.ones(4))
    with pytest.raises(ValueError):
        sym([[np.nan, 0.0], [0.0, 1.0]])


def test_spd_accepts_and_rejects():
    assert np.allclose(spd([[2.0, 1.0], [1.0, 2.0]]), [[2.0, 1.0], [1.0, 2.0]])
    with pytest.raises(NotSpdError):
        spd([[1.0, 0.0], [0.0, 0.0]])
    with pytest.raises(NotSpdError):
        spd([[1.0, 0.0], [0.0, -1.0]])
    with pytest.raises(NotSpdError):
        spd([[1.0, 1.0], [1.0, 1.0]])


def test_weighted_norm_sq_oracles():
    assert weighted_norm_sq([1.0], [[1.0]]) == 1.0
    assert weighted_norm_sq([1.0, 2.0], np.eye(2)) == 5.0
    # [1,2]^T [[2,1],[1,3]] [1,2] = 2 + 2 + 2 + 12
    assert weighted_norm_sq([1.0, 2.0], [[2.0, 1.0], [1.0, 3.0]]) == 18.0
    with pytest.raises(DimensionError):
        weighted_norm_sq([1.0, 2.0, 3.0], np.eye(2))


def test_weighted_norm_sq_eigenvalue_sandwich():
    for seed in range(20):
        g = np.random.default_rng(seed)
        d = int(g.integers(1, 9))
        a = spd(random_sym(d, seed) @ random_sym(d, seed).T / d + np.eye(d) * 0.1)
        x = g.standard_normal(d)
        evals = np.linalg.eigvalsh(a)
        q = weighted_norm_sq(x, a)
        nx = float(x @ x)
        assert evals[0] * nx - 1e-10 <= q <= evals[-1] * nx + 1e-10


def test_matrix_norm_under_oracles():
    assert matrix_norm_under(np.eye(3), np.eye(3)) == pytest.approx(1.0, rel=1e-12)
    assert matrix_norm_under(2.0 * np.eye(2), np.eye(2)) == pytest.approx(2.0, rel=1e-12)
    assert matrix_norm_under(np.diag([4.0, 1.0]), np.diag([2.0, 1.0])) == pytest.approx(2.0, rel=1e-12)
    with pytest.raises(NotSpdError):
        matrix_norm_under(np.eye(2), np.diag([1.0, 0.0]))


def test_matrix_norm_under_is_smallest_sandwich_constant():
    # c = ||M||_A is exactly the smallest c with -cA <= M <= cA
    for seed in range(10):
        d = 2 + seed % 4
        a = spd(random_sym(d, seed) @ random_sym(d, seed).T / d + 0.2 * np.eye(d))
        m = random_sym(d, 1000 + seed)
        c = matrix_norm_under(m, a)
        assert psd_order_leq(m, c * a, tol=1e-10)
        assert psd_order_leq(-c * a, m, tol=1e-10)
        assert not psd_order_leq(m, 0.99 * c * a, tol=0.0) or not psd_order_leq(
            -0.99 * c * a, m, tol=0.0
        )


def test_matrix_norm_under_congruence_invariance():
    for seed in range(10):
        d = 2 + seed % 3
        g = np.random.default_rng(seed)
        a = spd(random_sym(d, seed) @ random_sym(d, seed).T / d + 0.2 * np.eye(d))
        m = random_sym(d, 2000 + seed)
        q = g.standard_normal((d, d)) + np.eye(d) * 2.0
        lhs = matrix_norm_under(m, a)
        rhs = matrix_norm_under(q.T @ m @ q, q.T @ a @ q)
        assert lhs == pytest.approx(rhs, rel=1e-10)


def test_psd_order_examples():
    assert psd_order_leq(np.eye(2), 2.0 * np.eye(2))
    assert not psd_order_leq(2.0 * np.eye(2), np.eye(2))
    assert psd_order_leq(np.eye(2), np.eye(2))
    # tol admits tiny negative gaps at the scale of ||B||
    assert psd_order_leq(np.eye(2) * (1.0 + 1e-13), np.eye(2), tol=1e-12)
    with pytest.raises(DimensionError):
        psd_order_leq(np.eye(2), np.eye(3))


def test_psd_order_transitive_on_ordered_triples():
    for seed in range(10):
        d = 2 + seed % 4
        a = random_psd_matrix(d, seed)
        b = a + random_psd_matrix(d, 100 + seed)
        c = b + random_psd_matrix(d, 200 + seed)
        assert psd_order_leq(a, b, tol=1e-12)
        assert psd_order_leq(b, c, tol=1e-12)
        assert psd_order_leq(a, c, tol=1e-12)


def random_psd_matrix(d, seed):
    a = np.random.default_rng(seed).standard_normal((d, d + 1))
    return a @ a.T / d


def test_sym_vec_len_and_dim():
    assert [sym_vec_len(d) for d in (1, 2, 3, 4)] == [1, 3, 6, 10]
    assert [sym_dim(n) for n in (1, 3, 6, 10)] == [1, 2, 3, 4]
    with pytest.raises(DimensionError):
        sym_dim(4)
    with pytest.raises(DimensionError):
        sym_vec_len(0)


def test_sym_to_vec_oracles():
    assert np.allclose(sym_to_vec(np.eye(2)), [1.0, 1.0, 0.0])
    assert np.allclose(sym_to_vec([[0.0, 1.0], [1.0, 0.0]]), [0.0, 0.0, SQRT2])
    v = sym_to_vec([[1.0, 2.0, 3.0], [2.0, 4.0, 5.0], [3.0, 5.0, 6.0]])
    assert np.allclose(v, [1.0, 4.0, 6.0, 2 * SQRT2, 3 * SQRT2, 5 * SQRT2])


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10**6), st.integers(min_value=1, max_value=8))
def test_sym_vec_round_trip(seed, d):
    m = random_sym(d, seed)
    assert np.allclose(vec_to_sym(sym_to_vec(m)), m, atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10**6), st.integers(min_value=1, max_value=8))
def test_sym_vec_is_trace_isometry(seed, d):
    a = random_sym(d, seed)
    b = random_sym(d, seed + 1)
    dot = float(sym_to_vec(a) @ sym_to_vec(b))
    assert dot == pytest.approx(float(np.trace(a @ b)), rel=1e-12, abs=1e-12)


def test_spectral_norm_matches_eigenvalues():
    m = np.diag([3.0, -5.0, 1.0])
    assert spectral_norm(m) == 5.0


def _threads_started(setup: str, call: str) -> tuple[str, str]:
    """This process's thread count before and after ``call``, run in a fresh
    interpreter after ``setup`` and one fork.  After a fork OpenBLAS's threads
    are down, and any threaded call would start one."""
    if matcore._openblas() is None or not os.path.isdir("/proc/self/task"):
        pytest.skip("needs numpy's bundled OpenBLAS and /proc")
    code = (
        "import os\n"
        f"{setup}"
        "pid = os.fork()\n"
        "if pid == 0:\n"
        "    os._exit(0)\n"
        "os.waitpid(pid, 0)\n"
        "before = len(os.listdir('/proc/self/task'))\n"
        f"{call}\n"
        "print(before, len(os.listdir('/proc/self/task')))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(matcore.__file__).parents[1]))
    env.pop("OPENBLAS_NUM_THREADS", None)
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    before, after = proc.stdout.split()
    return before, after


def test_small_norms_start_no_blas_thread():
    # a pool worker inherits the one thread the CLI's entry sets before the
    # fork, so its R^2 starts no OpenBLAS thread: at d = 25, which OpenBLAS
    # runs on one thread anyway, and at d = 60, which it would split
    before, after = _threads_started(
        "import numpy as np\n"
        "from tailsgd.harness import use_one_blas_thread\n"
        "from tailsgd.matcore import matrix_norm_under\n"
        "use_one_blas_thread()\n"
        "hs = []\n"
        "for d in (25, 60):\n"
        "    a = np.random.default_rng(11).standard_normal((d, d))\n"
        "    hs.append(a @ a.T / d + 0.1 * np.eye(d))\n",
        "for h in hs:\n"
        "    matrix_norm_under(h @ h, h)")
    assert before == after


def test_small_draw_products_start_no_blas_thread():
    # as above for the dense draw transform on a run's 512-row per-stream
    # chunks: at d = 31, which OpenBLAS runs on one thread anyway, and at
    # d = 64, which it would split
    before, after = _threads_started(
        "import numpy as np\n"
        "from tailsgd.distributions import DistributionSpec, draw_block, sample_streams\n"
        "from tailsgd.harness import use_one_blas_thread\n"
        "use_one_blas_thread()\n"
        "runs = []\n"
        "for d in (31, 64):\n"
        "    a = np.random.default_rng(11).standard_normal((d, d))\n"
        "    spec = DistributionSpec(kind='gaussian_well_specified', d=d,\n"
        "                            H_spec=a @ a.T / d + 0.1 * np.eye(d),\n"
        "                            w_star=np.ones(d), noise_sigma=1.0)\n"
        "    runs.append((sample_streams(spec, [(0, 0, r) for r in range(4)]),\n"
        "                 np.empty((4, 512, d + 1))))\n",
        "for streams, block in runs:\n"
        "    draw_block(streams, block)")
    assert before == after
