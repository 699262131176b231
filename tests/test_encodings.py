import dataclasses

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from qentropy import (
    DensityMatrix,
    Distribution,
    EstimatorParams,
    FrequencyVector,
    ValidationError,
    block_encoding_density_swap,
    build_frequency_oracle,
    build_purified_oracle_classical,
    build_purified_oracle_quantum,
    estimate_entropy,
    plan_estimate,
    projected_encoding_classical,
    projected_encoding_quantum,
    shannon_entropy,
    spectral_encoding_classical,
    spectral_encoding_quantum,
    swap_encoding_dense_unitary,
    verify_encoding,
    von_neumann_entropy,
)
from qentropy.encodings import _householder_completion


def rand_dist(n, seed):
    return Distribution.dirichlet(n, np.random.default_rng(seed))


def test_classical_oracle_reduces_to_distribution():
    p = rand_dist(12, 0)
    orc = build_purified_oracle_classical(p)
    assert orc.unitarity_residual() < 1e-12
    red = orc.reduced_state()
    assert np.allclose(np.diag(red), p.probs, atol=1e-12)


def test_classical_encoding_spectrum():
    for seed in range(20):
        p = rand_dist(int(np.random.default_rng(seed).integers(2, 40)), seed)
        enc = projected_encoding_classical(build_purified_oracle_classical(p))
        assert enc.alpha == 1.0
        got = np.sort(enc.sigma)
        want = np.sort(np.sqrt(p.probs))
        assert np.max(np.abs(got - want)) < 1e-10


def test_quantum_oracle_purifies_density_matrix():
    rng = np.random.default_rng(2)
    rho = DensityMatrix.random(6, rng)
    orc = build_purified_oracle_quantum(rho)
    assert orc.unitarity_residual() < 1e-12
    assert np.allclose(orc.reduced_state(), rho.mat, atol=1e-12)


def test_quantum_encoding_spectrum():
    for seed in range(20):
        n = int(np.random.default_rng(seed).integers(2, 16))
        rho = DensityMatrix.random(n, np.random.default_rng(seed + 100))
        enc = projected_encoding_quantum(build_purified_oracle_quantum(rho))
        assert abs(enc.alpha - np.sqrt(n)) < 1e-12
        got = np.sort(enc.sigma)
        want = np.sort(np.sqrt(rho.spectrum().probs / n))
        assert np.max(np.abs(got - want)) < 1e-10


def test_swap_block_is_density_matrix():
    rng = np.random.default_rng(3)
    rho = DensityMatrix.random(5, rng)
    enc = block_encoding_density_swap(build_purified_oracle_quantum(rho))
    assert enc.alpha == 1.0
    assert np.allclose(enc.block, rho.mat, atol=1e-12)


def test_swap_dense_unitary_cross_check():
    rng = np.random.default_rng(4)
    rho = DensityMatrix.random(4, rng)
    orc = build_purified_oracle_quantum(rho)
    big = swap_encoding_dense_unitary(orc)
    d = big.shape[0]
    assert np.allclose(big.conj().T @ big, np.eye(d), atol=1e-10)
    n = rho.mat.shape[0]
    assert np.allclose(big[:n, :n], rho.mat, atol=1e-10)


def test_frequency_oracle_counts():
    vec = FrequencyVector((0, 1, 1, 3, 3, 3), 4)
    orc = build_frequency_oracle(vec)
    assert orc.unitarity_residual() < 1e-12
    red = orc.reduced_state()
    assert vec.counts().tolist() == [1, 2, 0, 3]
    want = np.array([1, 2, 0, 3]) / 6.0
    assert np.allclose(np.diag(red), want, atol=1e-14)
    assert np.allclose(vec.induced_distribution().probs, want, atol=1e-15)


def test_frequency_oracle_rejects_bad_labels():
    # out of range or not integers: rejected at the boundary, not as an IndexError or
    # TypeError when the oracle is built
    for values in [(0, 4), (-1, 2), (0, 1.5), (1.0,), ("a",), (0, None), ((0, 1),), (2**70,)]:
        with pytest.raises(ValidationError, match=r"labels must be integers in \[0, 4\)"):
            FrequencyVector(values, 4)


@pytest.mark.parametrize("values, n", [((0, 1, 1, 3, 3, 3), 4), ((0, 2, 2, 4, 1), 5),
                                       ((0,), 1), ((2, 0, 1, 0), 3), (tuple(range(32)), 32)])
def test_frequency_oracle_state_matches_one_write_per_label(values, n):
    # the prepared state, built by one indexed write, equals one write per label
    m = len(values)
    v = np.zeros(m * n, dtype=complex)
    for j, lab in enumerate(values):
        v[j * n + lab] = 1.0 / np.sqrt(m)
    want = _householder_completion(v)
    got = build_frequency_oracle(FrequencyVector(values, n)).reflector
    assert (got is None and want is None) or got.tobytes() == want.tobytes()


def test_spectral_shortcut_matches_dense_classical():
    p = rand_dist(24, 9)
    dense = projected_encoding_classical(build_purified_oracle_classical(p))
    fast = spectral_encoding_classical(p)
    assert np.max(np.abs(np.sort(dense.sigma) -
                         np.sort(fast.sigma))) < 1e-9
    assert fast.alpha == dense.alpha


def test_spectral_shortcut_matches_dense_quantum():
    rho = DensityMatrix.random(8, np.random.default_rng(10))
    dense = projected_encoding_quantum(build_purified_oracle_quantum(rho))
    fast = spectral_encoding_quantum(rho.spectrum())
    assert np.max(np.abs(np.sort(dense.sigma) -
                         np.sort(fast.sigma))) < 1e-9
    assert abs(fast.alpha - dense.alpha) < 1e-12


def test_verify_encoding_report():
    p = rand_dist(10, 11)
    enc = projected_encoding_classical(build_purified_oracle_classical(p))
    rep = verify_encoding(enc, np.sqrt(p.probs), tol=1e-10)
    assert rep.ok
    assert rep.max_sv_deviation < 1e-10
    bad = verify_encoding(enc, np.sqrt(p.probs) + 1e-3, tol=1e-10)
    assert not bad.ok


def small_oracles():
    rng = np.random.default_rng(12)
    quantum = build_purified_oracle_quantum(DensityMatrix.random(6, rng))
    return [
        build_purified_oracle_classical(rand_dist(7, 13)),
        quantum,
        # a global phase on w leaves the unitary unchanged and makes w[0] complex
        dataclasses.replace(quantum, reflector=quantum.reflector * np.exp(0.3j)),
        build_frequency_oracle(FrequencyVector((0, 2, 2, 4, 1), 5)),
    ]


def dense_residual(u):
    return float(np.abs(u.conj().T @ u - np.eye(u.shape[0])).max())


def test_reflector_residual_matches_dense_unitary():
    for orc in small_oracles():
        assert orc.reflector.shape == (orc.dim,)
        u = orc.unitary
        assert u.shape == (orc.dim, orc.dim)
        assert orc.unitarity_residual() < 1e-12
        assert dense_residual(u) < 1e-12
        # the unitary's first column is the prepared state, bit for bit
        assert u[:, 0].tobytes() == orc.prepared_state().tobytes()


def test_non_unit_reflector_fails_verification():
    p = rand_dist(7, 13)
    orc = build_purified_oracle_classical(p)
    bad = dataclasses.replace(orc, reflector=orc.reflector * (1.0 + 1e-6))
    resid = bad.unitarity_residual()
    assert resid == pytest.approx(dense_residual(bad.unitary), rel=1e-6)
    assert 1e-6 < resid < 1e-5
    rep = verify_encoding(projected_encoding_classical(bad),
                          np.sqrt(p.probs), tol=1e-10)
    assert not rep.ok
    assert rep.unitarity_residual == resid


def test_point_mass_at_zero_is_identity_oracle():
    orc = build_purified_oracle_classical(Distribution.point_mass(5, 0))
    assert orc.reflector is None
    e0 = np.zeros(orc.dim, dtype=complex)
    e0[0] = 1.0
    assert np.array_equal(orc.prepared_state(), e0)
    assert orc.unitarity_residual() == 0.0
    assert np.array_equal(orc.unitary, np.eye(orc.dim))


@pytest.mark.parametrize("route", ["classical", "quantum"])
def test_oracle_at_n128_matches_spectral_route(route):
    n = 128
    rng = np.random.default_rng(21)
    if route == "classical":
        p = rand_dist(n, 21)
        orc = build_purified_oracle_classical(p)
        enc = projected_encoding_classical(orc)
        spectral, expected = spectral_encoding_classical(p), np.sqrt(p.probs)
    else:
        rho = DensityMatrix.random(n, rng)
        orc = build_purified_oracle_quantum(rho)
        enc = projected_encoding_quantum(orc)
        spec = rho.spectrum()
        spectral, expected = spectral_encoding_quantum(spec), np.sqrt(spec.probs / n)
    assert orc.dim == n * n
    assert verify_encoding(enc, expected).ok
    params = EstimatorParams(n=n, gamma=2.0)
    got = estimate_entropy(orc, params, mode="sampled", seed=3)
    want = estimate_entropy(spectral, params, mode="sampled", seed=3)
    assert got.h_tilde == want.h_tilde
    assert got.ledger == want.ledger


def test_quantum_oracle_estimate_decomposes_its_input_once(monkeypatch):
    # the encoding's SVD is the only decomposition: the true entropy is read
    # off the encoded spectrum, not off a rebuilt reduced density matrix
    rho = DensityMatrix.random(8, np.random.default_rng(3))
    orc = build_purified_oracle_quantum(rho)
    h = von_neumann_entropy(rho)
    calls = []

    def spy(name, real):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(DensityMatrix, "__post_init__",
                        spy("DensityMatrix", DensityMatrix.__post_init__))
    for name in ("eigvalsh", "eigh"):
        monkeypatch.setattr(np.linalg, name, spy(name, getattr(np.linalg, name)))
    rep = estimate_entropy(orc, EstimatorParams(n=8, gamma=1.5), mode="sampled", seed=1)
    assert calls == []
    assert abs(rep.h_true - h) < 1e-12
    # the spies are reachable: validating a matrix and building its oracle pass through them
    build_purified_oracle_quantum(DensityMatrix(rho.mat))
    assert calls == ["DensityMatrix", "eigvalsh", "eigh"]


def _rank_deficient(n, rank, rng):
    """A density matrix of the given rank: Dirichlet eigenvalues in a random eigenbasis."""
    ev = np.zeros(n)
    ev[:rank] = rng.dirichlet(np.ones(rank))
    q, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    return DensityMatrix((q * ev) @ q.conj().T)


def _oracle_and_spectral_route(kind, n, seed, extra):
    """(oracle, its spectral-route source, that source's own entropy)."""
    rng = np.random.default_rng(seed)
    if kind in ("classical", "point"):
        p = (Distribution.dirichlet(n, rng) if kind == "classical"
             else Distribution.point_mass(n, int(rng.integers(n))))
        return build_purified_oracle_classical(p), p, shannon_entropy(p)
    if kind == "frequency":
        # labels drawn at random, so some may go unused: a label of count 0 must
        # encode 0 on both routes, or a light mass of ~1e-32 draws another QAE outcome
        vec = FrequencyVector(tuple(rng.integers(0, n, 1 + extra).tolist()), n)
        p = vec.induced_distribution()
        return build_frequency_oracle(vec), p, shannon_entropy(p)
    # "rank_deficient" runs from rank 1, a pure state, to n - 1
    rho = (DensityMatrix.random(n, rng) if kind == "quantum"
           else _rank_deficient(n, int(rng.integers(1, n)), rng))
    return build_purified_oracle_quantum(rho), rho, von_neumann_entropy(rho)


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(["classical", "point", "frequency", "quantum", "rank_deficient"]),
       n=st.integers(2, 16), seed=st.integers(0, 2**16), extra=st.integers(0, 32),
       gamma=st.floats(1.2, 2.5))
def test_oracle_estimate_matches_its_source_and_the_spectral_route(kind, n, seed, extra, gamma):
    orc, source, h = _oracle_and_spectral_route(kind, n, seed, extra)
    params = EstimatorParams(n=n, gamma=gamma)
    try:
        plan = plan_estimate(orc, params)
    except ValidationError:  # gamma too large for this n: both routes reject it
        with pytest.raises(ValidationError):
            plan_estimate(source, params)
        return
    assert abs(plan.h_true - h) < 1e-12
    assert np.all(np.diff(plan.enc.sigma) <= 0.0)  # numpy's SVD returns them descending
    spectral = plan_estimate(source, params)
    # a p_i on the SVE grid's rounding edge may round up on one route and down on the other
    assume(np.array_equal(plan.heavy_flags, spectral.heavy_flags))
    got, want = plan.run("sampled", seed, 3), spectral.run("sampled", seed, 3)
    assert got.h_tilde == want.h_tilde
    assert got.ledger == want.ledger
    # the SVD rounds the last bits of an encoded spectrum, and so of its entropy, but
    # an entropy of 0 is +0.0 on both routes
    if h == 0.0:
        assert got.h_true.hex() == want.h_true.hex() == "0x0.0p+0"


def test_point_mass_frequency_vector_estimates_zero_on_both_routes():
    # label 3 of 4, the others unused: the oracle route once encoded label 0 as 2.2e-16
    # and the top value as 1 - 2^-52, and read h_true = 5.1e-30 and h_tilde = 0.00837
    vec = FrequencyVector((3,), 4)
    params = EstimatorParams(n=4, gamma=1.2)
    for source in (build_frequency_oracle(vec), vec.induced_distribution()):
        rep = estimate_entropy(source, params, mode="sampled", seed=2, repetitions=3)
        assert (rep.h_tilde.hex(), rep.h_true.hex()) == ("0x0.0p+0", "0x0.0p+0")


def test_dense_encoders_encode_a_zero_probability_as_zero():
    # below the SVD's round-off floor d u sigma_max a singular value is 0: a label of
    # probability 0, an unused frequency label and a zero eigenvalue encode 0
    rho = build_purified_oracle_quantum(_rank_deficient(4, 2, np.random.default_rng(0)))
    point = build_frequency_oracle(FrequencyVector((3,), 4))
    cases = [
        (projected_encoding_classical(build_purified_oracle_classical(
            Distribution(np.array([0.5, 0.0, 0.25, 0.25])))), 1),
        (projected_encoding_classical(build_frequency_oracle(FrequencyVector((3, 0, 3, 2), 4))),
         1),
        (projected_encoding_classical(point), 3),
        (projected_encoding_quantum(rho), 2),
        (block_encoding_density_swap(rho), 2),
    ]
    for enc, zeros in cases:
        assert np.count_nonzero(enc.sigma == 0.0) == zeros
        assert np.all(enc.sigma[enc.sigma > 0.0] > 0.1)
