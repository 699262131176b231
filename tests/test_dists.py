import dataclasses
import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from qentropy import (
    DensityMatrix,
    Distribution,
    EstimatorParams,
    ValidationError,
    estimate_entropy,
    gen_collision_pair,
    gen_lower_bound_pair,
    gen_near_deterministic_pair,
    gen_two_point_vs_spread_pair,
    hellinger,
    lightweight_bounds,
    restricted_entropy,
    shannon_entropy,
    split_heavy_light,
    von_neumann_entropy,
    weight,
)
from qentropy.dists import EIG_CLAMP, _is_hermitian


def test_distribution_validation():
    with pytest.raises(ValidationError):
        Distribution(np.array([0.5, 0.6]))
    with pytest.raises(ValidationError):
        Distribution(np.array([1.1, -0.1]))
    with pytest.raises(ValidationError):
        Distribution(np.array([]))
    d = Distribution(np.array([0.25, 0.75]))
    assert d.n == 2


def test_uniform_and_point_mass_entropy():
    for n in (1, 2, 8, 100, 1024):
        u = Distribution.uniform(n)
        assert abs(shannon_entropy(u) - math.log2(n)) < 1e-12
    pm = Distribution.point_mass(16, 3)
    assert shannon_entropy(pm) == 0.0
    assert pm.probs[3] == 1.0


def test_zero_probability_terms_drop_out():
    p = Distribution(np.array([0.5, 0.5, 0.0, 0.0]))
    assert abs(shannon_entropy(p) - 1.0) < 1e-15


def test_zipf_entropy_frozen():
    # sum_{i=1}^{8} (1/i) = 761/280; H computed once by direct summation
    z = Distribution.zipf(8, 1.0)
    h = -sum(q * math.log2(q) for q in z.probs)
    assert abs(shannon_entropy(z) - h) < 1e-14
    assert abs(shannon_entropy(z) - 2.6197148131073638) < 1e-12


def test_zipf_extreme_exponents_do_not_overflow():
    # at k >= 11, k^300 overflows and so does 1/k^-300; both once gave
    # RuntimeWarnings and then "probabilities must be finite"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        falling, rising = Distribution.zipf(128, 300.0), Distribution.zipf(128, -300.0)
    assert falling.probs[0] == 1.0 and falling.probs[-1] == 0.0
    assert rising.probs[-1] == max(rising.probs) and rising.probs[0] == 0.0
    k = np.arange(1, 129, dtype=float)
    np.testing.assert_allclose(Distribution.zipf(128, -1.5).probs, k**1.5 / (k**1.5).sum(),
                               rtol=1e-13)
    assert np.array_equal(Distribution.zipf(128, 1.0).probs, (1.0 / k) / (1.0 / k).sum())


def test_dirichlet_seeded_reproducible():
    a = Distribution.dirichlet(12, np.random.default_rng(7))
    b = Distribution.dirichlet(12, np.random.default_rng(7))
    assert np.array_equal(a.probs, b.probs)
    assert abs(a.probs.sum() - 1.0) < 1e-12


def test_serialization_round_trip():
    d = Distribution.dirichlet(9, np.random.default_rng(3))
    d2 = Distribution.from_json(d.to_json())
    assert np.array_equal(d.probs, d2.probs)
    rec = json.loads(d.to_json())
    assert rec["n"] == 9


def test_split_heavy_light_inclusive_threshold():
    p = Distribution(np.array([0.5, 0.25, 0.125, 0.125]))
    rep = split_heavy_light(p, 0.25)
    assert set(rep.heavy) == {0, 1}
    assert set(rep.light) == {2, 3}
    assert abs(rep.heavy_weight + rep.light_weight - 1.0) < 1e-14
    assert abs(rep.heavy_entropy + rep.light_entropy - shannon_entropy(p)) < 1e-12


def test_restricted_entropy_and_weight():
    p = Distribution(np.array([0.5, 0.25, 0.25]))
    assert abs(weight(p, [1, 2]) - 0.5) < 1e-15
    # -0.25 log2 0.25 twice = 1.0
    assert abs(restricted_entropy(p, [1, 2]) - 1.0) < 1e-14


def test_lightweight_bounds_sandwich_random():
    rng = np.random.default_rng(11)
    for _ in range(200):
        n = int(rng.integers(4, 300))
        p = Distribution.dirichlet(n, rng, alpha=float(rng.uniform(0.2, 3.0)))
        beta = n ** (-1.0 / 4.0)
        lo, hi = lightweight_bounds(p, beta)
        rep = split_heavy_light(p, beta)
        assert lo - 1e-10 <= rep.light_entropy <= hi + 1e-10
        assert abs(lo - rep.light_weight * math.log2(1.0 / beta)) < 1e-12
        assert abs(hi - (rep.light_weight * math.log2(n) + 1.0 / math.e)) < 1e-12


def test_hellinger_and_tv_known_values():
    p = Distribution(np.array([1.0, 0.0]))
    q = Distribution(np.array([0.0, 1.0]))
    assert abs(hellinger(p, q) - 1.0) < 1e-15
    assert hellinger(p, p) == 0.0
    r = Distribution(np.array([0.5, 0.5]))
    # H(p, r)^2 = 1 - 1/sqrt(2)
    assert abs(hellinger(p, r) - math.sqrt(1.0 - 1.0 / math.sqrt(2.0))) < 1e-14


def test_density_matrix_validation():
    bad = np.array([[0.5, 0.1], [0.2, 0.5]])
    with pytest.raises(ValidationError):
        DensityMatrix(bad)
    with pytest.raises(ValidationError):
        DensityMatrix(np.eye(2))  # trace 2


def test_density_matrix_spectrum_and_entropy():
    rho = DensityMatrix.maximally_mixed(8)
    assert abs(von_neumann_entropy(rho) - 3.0) < 1e-12
    p = Distribution(np.array([0.7, 0.2, 0.1]))
    rho2 = DensityMatrix.from_distribution(p)
    assert abs(von_neumann_entropy(rho2) - shannon_entropy(p)) < 1e-12
    spec = rho2.spectrum().probs
    assert np.allclose(np.sort(spec), np.sort(p.probs), atol=1e-12)


def test_random_density_matrix_basis_invariance():
    rng = np.random.default_rng(5)
    rho = DensityMatrix.random(6, rng)
    s = von_neumann_entropy(rho)
    # entropy equals Shannon entropy of the spectrum
    assert abs(s - shannon_entropy(rho.spectrum())) < 1e-10
    rho2 = DensityMatrix.from_json(rho.to_json())
    assert np.allclose(rho.mat, rho2.mat, atol=1e-15)


def _old_random(n, rng, alpha):
    """DensityMatrix.random's matrix as the unbounded expression wrote it."""
    ev = Distribution.dirichlet(n, rng, alpha).probs
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(g)
    q = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
    return (q * ev) @ q.conj().T


def test_constructors_are_bit_identical_to_the_unbounded_expressions():
    for n in (1, 2, 7, 64, 300):
        for seed in (0, 3, 11):
            for alpha in (0.5, 1.0, 4.0):
                rho = DensityMatrix.random(n, np.random.default_rng(seed), alpha)
                old = _old_random(n, np.random.default_rng(seed), alpha)
                assert rho.mat.tobytes() == old.tobytes(), (n, seed, alpha)
        p = Distribution.dirichlet(n, np.random.default_rng(n))
        assert (DensityMatrix.from_distribution(p).mat.tobytes()
                == np.diag(p.probs).astype(complex).tobytes())
        assert (DensityMatrix.maximally_mixed(n).mat.tobytes()
                == (np.eye(n, dtype=complex) / n).tobytes())
        rec = DensityMatrix.random(n, np.random.default_rng(n)).to_record()
        old = np.asarray(rec["re"], dtype=float) + 1j * np.asarray(rec["im"], dtype=float)
        assert DensityMatrix.from_record(rec).mat.tobytes() == old.tobytes()


def _edge_perturbed(n, seed, scale, factors):
    """A Hermitian matrix with entries moved to `factor` times the allclose
    tolerance atol + rtol * |m_ji| away from the conjugate of their mirror."""
    rng = np.random.default_rng(seed)
    a = scale * (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    m = (a + a.conj().T) / 2
    for factor in factors:
        i, j = rng.integers(n, size=2)
        tol = 1e-10 + 1e-5 * abs(m[j, i])
        m[i, j] += factor * tol * np.exp(1j * rng.uniform(0, 2 * np.pi))
    return m


@settings(max_examples=150, deadline=None)
@given(n=st.integers(1, 40), rows=st.integers(1, 45), seed=st.integers(0, 2**32 - 1),
       scale=st.sampled_from([0.0, 1e-12, 1e-6, 1.0, 1e4]),
       factors=st.lists(st.sampled_from([0.5, 0.999999, 1.0, 1.000001, 2.0, 1e6]),
                        max_size=3))
@example(n=1, rows=1, seed=0, scale=1.0, factors=[1.000001])
@example(n=7, rows=3, seed=1, scale=1.0, factors=[0.999999])
def test_blocked_hermitian_check_agrees_with_allclose(n, rows, seed, scale, factors):
    m = _edge_perturbed(n, seed, scale, factors)
    want = np.allclose(m, m.conj().T, atol=1e-10)
    assert _is_hermitian(m, rows) == want
    assert _is_hermitian(m) == want


def test_blocked_hermitian_check_spans_default_blocks():
    # n = 300 makes row blocks of 218 and 82; a perturbation in either block
    # just past the tolerance is caught, one just inside it is not
    for i, j in ((5, 250), (250, 5), (299, 0)):
        for factor, want in ((1.000001, False), (0.999999, True)):
            m = _edge_perturbed(300, 0, 1.0, [])
            m[i, j] += factor * (1e-10 + 1e-5 * abs(m[j, i]))
            assert np.allclose(m, m.conj().T, atol=1e-10) == want
            assert _is_hermitian(m) == want, (i, j, factor)


def _traced_peak(fn):
    """Peak bytes that fn() holds above the starting level, under tracemalloc."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_random_holds_at_most_the_qr_arrays(monkeypatch):
    n = 512
    size = 16 * n * n
    at_eig = []
    eigvalsh = np.linalg.eigvalsh

    def recording(a, *args, **kw):
        at_eig.append(tracemalloc.get_traced_memory()[0])
        return eigvalsh(a, *args, **kw)

    monkeypatch.setattr(np.linalg, "eigvalsh", recording)
    peak = _traced_peak(lambda: DensityMatrix.random(n, np.random.default_rng(0)))
    # the QR holds four matrix sizes: its input, its copy of it, q and r
    assert peak <= 4.5 * size, peak / size
    # validation sees only the result: no intermediate of the product is live
    assert at_eig[0] <= 1.1 * size, at_eig[0] / size


def test_validation_makes_no_matrix_sized_temporary():
    # at n = 1024 a Hermitian-check block of 2^16 entries is 1/16 of the
    # matrix, and the check holds about 2.5 blocks at once
    m = np.array(DensityMatrix.random(1024, np.random.default_rng(0)).mat)
    peak = _traced_peak(lambda: DensityMatrix(m))
    assert peak <= 0.25 * m.nbytes, peak / m.nbytes


def test_spectrum_reads_validation_eigenvalues_bit_for_bit():
    for rho in (DensityMatrix.random(6, np.random.default_rng(1)),
                DensityMatrix.random(64, np.random.default_rng(2)),
                DensityMatrix.from_distribution(Distribution(np.array([0.7, 0.2, 0.1, 0.0]))),
                DensityMatrix.maximally_mixed(8)):
        ev = np.linalg.eigvalsh(rho.mat)
        ev = np.where(ev < EIG_CLAMP, 0.0, ev)
        assert np.array_equal(rho.spectrum().probs, ev / ev.sum())


def test_no_eigendecomposition_after_construction(monkeypatch):
    rho = DensityMatrix.random(16, np.random.default_rng(3))
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counting(a, *args, **kw):
        calls.append(a.shape)
        return eigvalsh(a, *args, **kw)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    rho.spectrum()
    von_neumann_entropy(rho)
    estimate_entropy(rho, EstimatorParams(n=16, gamma=2.0), mode="sampled", seed=0)
    assert calls == []
    DensityMatrix.maximally_mixed(4)
    assert calls == [(4, 4)]


def test_stored_eigenvalues_are_read_only_and_validated():
    rho = DensityMatrix.random(6, np.random.default_rng(1))
    with pytest.raises(ValueError):
        rho.eigenvalues[0] = 0.5
    with pytest.raises(dataclasses.FrozenInstanceError):
        rho.eigenvalues = np.zeros(6)
    assert "eigenvalues" not in repr(rho)
    # PSD is still checked: eigenvalues (1.5, -0.5)
    with pytest.raises(ValidationError):
        DensityMatrix(np.array([[0.5, 1.0], [1.0, 0.5]]))


def test_inputs_stay_writable_and_are_not_copied():
    # both classes once set the caller's own array read-only
    p = np.array([0.5, 0.5])
    dist = Distribution(p)
    m = np.eye(2, dtype=complex) / 2
    rho = DensityMatrix(m)
    for stored, given_ in ((dist.probs, p), (rho.mat, m)):
        assert np.shares_memory(stored, given_)
        with pytest.raises(ValueError, match="read-only"):
            stored[0] = 1.0
    p[0] = 1.0
    m[0, 0] = 1.0
    assert dist.probs[0] == 1.0 and rho.mat[0, 0] == 1.0


def test_replace_recomputes_eigenvalues():
    rho = DensityMatrix.maximally_mixed(4)
    pure = np.zeros((4, 4), dtype=complex)
    pure[0, 0] = 1.0
    rho2 = dataclasses.replace(rho, mat=pure)
    assert np.array_equal(rho2.eigenvalues, np.linalg.eigvalsh(pure))
    assert von_neumann_entropy(rho2) == 0.0
    assert np.array_equal(rho.eigenvalues, np.full(4, 0.25))


def test_equality_is_identity_and_instances_hash():
    # the generated __eq__ compared the arrays as a tuple: == raised ValueError
    # and hash() raised TypeError
    for make in (lambda: Distribution.uniform(4), lambda: DensityMatrix.maximally_mixed(2)):
        x, y = make(), make()
        assert (x == y) is False
        assert (x == x) is True
        assert len({x, y, x}) == 2


def test_constructors_name_bad_sizes_and_labels():
    for n in (0, -3):
        with pytest.raises(ValidationError, match="n >= 1"):
            Distribution.uniform(n)
    for i in (4, 9, -1):
        with pytest.raises(ValidationError, match="0 <= i < n"):
            Distribution.point_mass(4, i)
    for gamma in (math.nan, math.inf, 1.0, 1e200):
        with pytest.raises(ValidationError, match="gamma"):
            gen_collision_pair(64, gamma)
    with pytest.raises(ValidationError, match="exceeds cap 4194304"):
        gen_collision_pair(2**21, 1.01)  # checked before any of its n * M labels is built


def test_near_deterministic_pair():
    for eps in (0.05, 0.1, 0.2):
        p, q, rep = gen_near_deterministic_pair(64, eps)
        h = hellinger(p, q)
        assert math.sqrt(eps / 2.0) - 1e-12 <= h <= math.sqrt(eps) + 1e-12
        assert rep.kind == "near_deterministic"


def test_two_point_vs_spread_pair():
    for n in (16, 64, 256):
        p, q, rep = gen_two_point_vs_spread_pair(n, 0.1)
        ratio = shannon_entropy(p) / shannon_entropy(q)
        assert ratio >= 1.0 + 0.1 * math.log2(n - 1) - 1e-9
        assert abs(ratio - rep.entropy_ratio) < 1e-12


def test_collision_pair_entropy_gap():
    p, q, rep = gen_collision_pair(64, 1.5)
    # p is uniform on the padded domain, q is M-to-1 collided
    assert shannon_entropy(p) > shannon_entropy(q)
    assert rep.entropy_ratio > rep.param ** 2
    assert rep.extras["ideal_ratio"] == pytest.approx(1.5 ** 2 + 1.0)
    assert rep.extras["big_size"] == rep.extras["subset_size"] * 64


def test_gen_lower_bound_pair_dispatch():
    p, q, rep = gen_lower_bound_pair("near_deterministic", 32, 0.1)
    assert rep.n == 32
    with pytest.raises(ValidationError):
        gen_lower_bound_pair("nope", 32, 0.1)
