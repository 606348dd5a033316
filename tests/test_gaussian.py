"""Thermal entropy, and the dense covariance-matrix toolbox the CV kernel is
checked against: spectra, entropies, networks, conditioning."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from dense_gaussian import (
    SYMPLECTIC_FLOOR_TOL,
    apply_symplectic,
    beamsplitter_symplectic,
    condition_on_homodyne,
    direct_sum,
    partial_trace,
    pure_loss,
    symplectic_eigenvalues,
    symplectic_form,
    thermal_cm,
    two_mode_squeezed_cm,
    vacuum_cm,
    von_neumann_entropy,
)
from satqkd.cv import UnphysicalStateError, thermal_entropy, thermal_entropy_float

RNG = np.random.default_rng(20240817)


def random_network_cm(rng, n_modes=3, mixed=True):
    """A physical CM: thermal (or TMSV + vacuum) inputs, then random beam splitters.

    Passive networks preserve physicality, so anything built this way is a
    valid state by construction; with ``mixed=False`` the inputs are pure and
    the output must be too.
    """
    if mixed:
        blocks = [thermal_cm(1.0 + 6.0 * rng.random()) for _ in range(n_modes)]
        cm = direct_sum(*blocks)
    else:
        cm = direct_sum(two_mode_squeezed_cm(1.0 + 4.0 * rng.random()),
                        *[vacuum_cm() for _ in range(n_modes - 2)])
    for _ in range(2 * n_modes):
        i, j = rng.choice(n_modes, size=2, replace=False)
        s = beamsplitter_symplectic(rng.random(), int(i), int(j), n_modes)
        cm = apply_symplectic(cm, s)
    return cm


# ---------------------------------------------------------------------------
# thermal_entropy
# ---------------------------------------------------------------------------

def test_entropy_of_pure_mode_is_zero():
    assert thermal_entropy(1.0) == 0.0


def test_entropy_at_nu_three_is_two_bits():
    assert thermal_entropy(3.0) == pytest.approx(2.0, abs=1e-15)


def test_entropy_matches_fock_basis_summation():
    # Independent route: Shannon entropy of the geometric photon-number
    # distribution of a thermal state with mean (nu - 1) / 2.
    assert thermal_entropy(10.0) == pytest.approx(
        oracles.fock_entropy(10.0, terms=200), abs=1e-12)


def test_entropy_vectorizes():
    nus = np.array([1.0, 3.0, 10.0])
    out = thermal_entropy(nus)
    assert out.shape == (3,)
    assert out[0] == 0.0 and out[1] == pytest.approx(2.0)


def test_entropy_flat_just_above_one():
    # Below the cutoff the value snaps to exactly zero instead of evaluating
    # log(x) * x -> 0 limits in floating point.
    assert thermal_entropy(1.0 + 1e-13) == 0.0


def test_array_and_float_entropy_agree():
    # The array g serves the grid and the sweeps, the float g the polish and
    # single hypotheses: one function, one vacuum contract, no floor check.
    band = 1.0 + np.linspace(-1e-9, 0.999e-12, 201)  # nu <= 1 + 1e-12
    nus = np.concatenate([np.geomspace(1.0 - 1e-9, 1e20, 2001),
                          1.0 + np.geomspace(1e-12, 1e20, 2001), band])
    arr = thermal_entropy(nus)
    flt = np.array([thermal_entropy_float(nu) for nu in nus.tolist()])
    vacuum = nus - 1.0 <= 1e-12  # exact near 1; no double lies at 1 + 1e-12
    assert np.all(arr[vacuum] == 0.0) and np.all(flt[vacuum] == 0.0)
    assert np.all(flt[~vacuum] > 0.0)
    np.testing.assert_allclose(arr, flt, rtol=1e-15, atol=0.0)


def test_entropy_monotone_and_convex_on_grid():
    nu = np.linspace(1.0, 60.0, 400)
    g = thermal_entropy(nu)
    d1 = np.diff(g)
    d2 = np.diff(g, n=2)
    assert np.all(d1 > 0.0)
    assert np.all(d2 < 1e-12)  # concave in nu (log-like growth)


# ---------------------------------------------------------------------------
# symplectic spectra
# ---------------------------------------------------------------------------

def test_symplectic_form_squares_to_minus_identity():
    omega = symplectic_form(3)
    np.testing.assert_allclose(omega @ omega, -np.eye(6), atol=0)


def test_vacuum_spectrum_is_all_ones():
    np.testing.assert_allclose(symplectic_eigenvalues(vacuum_cm(3)), np.ones(3))


def test_tmsv_is_pure():
    np.testing.assert_allclose(
        symplectic_eigenvalues(two_mode_squeezed_cm(5.0)), [1.0, 1.0], atol=1e-12)


def test_thermal_spectrum_is_its_variance():
    np.testing.assert_allclose(symplectic_eigenvalues(thermal_cm(7.0)), [7.0])


def test_spectrum_sorted_descending():
    cm = direct_sum(thermal_cm(3.0), thermal_cm(7.0), vacuum_cm())
    np.testing.assert_allclose(symplectic_eigenvalues(cm), [7.0, 3.0, 1.0], atol=1e-12)


def test_spectrum_invariant_under_beam_splitter():
    cm = direct_sum(thermal_cm(2.0), thermal_cm(5.0))
    mixed = apply_symplectic(cm, beamsplitter_symplectic(0.3, 0, 1, 2))
    np.testing.assert_allclose(
        symplectic_eigenvalues(mixed), [5.0, 2.0], atol=1e-9)


def test_eigenvalues_in_clamp_band_snap_to_one():
    cm = (1.0 - 0.5 * SYMPLECTIC_FLOOR_TOL) * np.eye(2)
    assert symplectic_eigenvalues(cm)[0] == 1.0


def test_unphysical_matrix_raises():
    with pytest.raises(UnphysicalStateError):
        symplectic_eigenvalues(0.9 * np.eye(2))


def test_odd_sized_matrix_rejected():
    with pytest.raises(ValueError):
        symplectic_eigenvalues(np.eye(3))


def test_two_mode_entropy_matches_determinant_formula():
    cm = apply_symplectic(direct_sum(thermal_cm(4.0), thermal_cm(1.5)),
                          beamsplitter_symplectic(0.7, 0, 1, 2))
    assert von_neumann_entropy(cm) == pytest.approx(
        oracles.delta_entropy_two_mode(cm), abs=1e-10)


# ---------------------------------------------------------------------------
# state constructors and networks
# ---------------------------------------------------------------------------

def test_tmsv_blocks():
    v = 5.0
    cm = two_mode_squeezed_cm(v)
    c = np.sqrt(v * v - 1.0)
    np.testing.assert_allclose(cm[:2, :2], v * np.eye(2))
    np.testing.assert_allclose(cm[2:, 2:], v * np.eye(2))
    np.testing.assert_allclose(cm[:2, 2:], c * np.diag([1.0, -1.0]))


def test_tmsv_requires_v_above_one():
    with pytest.raises(ValueError):
        two_mode_squeezed_cm(0.5)


def test_beamsplitter_eta_one_is_identity():
    np.testing.assert_allclose(beamsplitter_symplectic(1.0, 0, 1, 2), np.eye(4))


def test_beamsplitter_eta_zero_swaps_modes_up_to_sign():
    s = beamsplitter_symplectic(0.0, 0, 1, 2)
    cm = direct_sum(thermal_cm(3.0), thermal_cm(9.0))
    out = apply_symplectic(cm, s)
    np.testing.assert_allclose(out[:2, :2], 9.0 * np.eye(2))
    np.testing.assert_allclose(out[2:, 2:], 3.0 * np.eye(2))


def test_beamsplitter_is_symplectic():
    s = beamsplitter_symplectic(0.37, 0, 2, 3)
    omega = symplectic_form(3)
    np.testing.assert_allclose(s @ omega @ s.T, omega, atol=1e-14)


def test_loss_on_tmsv_arm_gives_textbook_variance():
    eta = 0.35
    v = 5.0
    cm = pure_loss(two_mode_squeezed_cm(v), 1, eta)
    bob = partial_trace(cm, [1])
    np.testing.assert_allclose(bob, (eta * v + 1.0 - eta) * np.eye(2), atol=1e-12)
    # Alice's marginal is untouched by loss downstream.
    np.testing.assert_allclose(partial_trace(cm, [0]), v * np.eye(2), atol=1e-12)


def test_partial_trace_picks_diagonal_blocks():
    cm = direct_sum(thermal_cm(2.0), thermal_cm(3.0), thermal_cm(4.0))
    np.testing.assert_allclose(partial_trace(cm, [2, 0]),
                               direct_sum(thermal_cm(4.0), thermal_cm(2.0)))


# ---------------------------------------------------------------------------
# homodyne conditioning
# ---------------------------------------------------------------------------

def test_conditioning_leaves_product_partner_alone():
    cm = direct_sum(thermal_cm(4.0), thermal_cm(2.5))
    out = condition_on_homodyne(cm, 1, "x")
    np.testing.assert_allclose(out, thermal_cm(4.0), atol=1e-14)


@pytest.mark.parametrize("quadrature", ["x", "p"])
def test_conditioning_matches_pseudoinverse_schur(quadrature):
    for _ in range(25):
        cm = random_network_cm(RNG, n_modes=3)
        mode = int(RNG.integers(3))
        got = condition_on_homodyne(cm, mode, quadrature)
        want = oracles.schur_homodyne(cm, mode, quadrature)
        np.testing.assert_allclose(got, want, atol=1e-10)


def test_conditioning_on_tmsv_arm_squeezes_the_other():
    v = 5.0
    out = condition_on_homodyne(two_mode_squeezed_cm(v), 1, "x")
    # x is conditioned down to 1/v, p stays at v.
    assert out[0, 0] == pytest.approx(1.0 / v, rel=1e-12)
    assert out[1, 1] == pytest.approx(v, rel=1e-12)


def test_conditioning_rejects_bad_quadrature():
    with pytest.raises(ValueError):
        condition_on_homodyne(vacuum_cm(2), 0, "y")


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------

@settings(deadline=None, max_examples=40)
@given(st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_passive_networks_preserve_physicality(seed):
    cm = random_network_cm(np.random.default_rng(seed), n_modes=4)
    assert float(np.min(symplectic_eigenvalues(cm))) >= 1.0


@settings(deadline=None, max_examples=40)
@given(st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_pure_inputs_stay_pure_through_networks(seed):
    cm = random_network_cm(np.random.default_rng(seed), n_modes=4, mixed=False)
    np.testing.assert_allclose(symplectic_eigenvalues(cm), np.ones(4), atol=1e-9)


@settings(deadline=None, max_examples=40)
@given(st.floats(min_value=0.01, max_value=0.99),
       st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_beamsplitter_inverse_is_transpose(eta, seed):
    cm = random_network_cm(np.random.default_rng(seed), n_modes=3)
    s = beamsplitter_symplectic(eta, 0, 2, 3)
    back = apply_symplectic(apply_symplectic(cm, s), s.T)
    np.testing.assert_allclose(back, cm, atol=1e-10)


@settings(deadline=None, max_examples=40)
@given(st.integers(min_value=0, max_value=2 ** 32 - 1),
       st.sampled_from(["x", "p"]))
def test_conditioning_never_increases_entropy(seed, quadrature):
    rng = np.random.default_rng(seed)
    cm = random_network_cm(rng, n_modes=3)
    mode = int(rng.integers(3))
    keep = [m for m in range(3) if m != mode]
    s_reduced = von_neumann_entropy(partial_trace(cm, keep))
    s_conditioned = von_neumann_entropy(condition_on_homodyne(cm, mode, quadrature))
    assert s_conditioned <= s_reduced + 1e-9
