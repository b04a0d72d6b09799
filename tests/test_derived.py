"""Objects memoized on the Representation: those of V, all read off one SVD
of V and equal to the uncached linalg calls to round-off, and [W] and the
defect operator; each built once per policy and read-only."""

import json
import math

import numpy as np
import pytest

from woldkit import wold
from woldkit.cli import main
from woldkit.errors import NotPSD
from woldkit.generate import (
    generic_rep,
    left_invertible_rep,
    rand_unitary,
    rank_deficient_rep,
    truncated_shift_rep,
)
from woldkit.growth import _singular_factors, defect_operator
from woldkit.linalg import (
    DEFAULT_POLICY,
    Subspace,
    TolerancePolicy,
    null_space,
    pinv,
    project,
    psd_sqrt,
    range_space,
    reduced_min_modulus,
    spectral_norm,
)
from woldkit.model import Representation, save_representation
from woldkit.structure import _forward_translate, _stabilized_chain, range_chain


def _reps(rng):
    return {
        "generic": generic_rep(rng, 2, 3),
        "rank-deficient": rank_deficient_rep(rng, 2, 3, 1),
        "left-invertible": left_invertible_rep(rng, 4),
        "zero": Representation(2, 3, np.zeros((3, 6))),
    }


def _same_subspace(a, b):
    assert a.ambient_dim == b.ambient_dim and a.dim == b.dim
    assert np.linalg.norm(project(a) - project(b), 2) <= 1e-12


def _chain_oracle(rep, pol):
    """The range chain by the general iteration from range_space(V)."""

    def spaces():
        current = range_space(rep.matrix, pol)
        while True:
            yield current
            current = _forward_translate(rep, current, pol)

    return _stabilized_chain(spaces())


@pytest.mark.parametrize("kind", ["generic", "rank-deficient", "left-invertible", "zero"])
def test_builders_agree_with_uncached_calls(rng, kind):
    rep = _reps(rng)[kind]
    v, pol = rep.matrix, DEFAULT_POLICY
    oracle = pinv(v, pol)
    assert np.linalg.norm(rep.pseudo_inverse(pol) - oracle, 2) <= 1e-12 * spectral_norm(oracle)
    assert math.isclose(rep.min_modulus(pol), reduced_min_modulus(v, pol), rel_tol=1e-14)
    assert math.isclose(rep.norm(), spectral_norm(v), rel_tol=1e-14)
    _same_subspace(rep.kernel(pol), null_space(v, pol))
    _same_subspace(rep.cokernel(pol), null_space(v.conj().T, pol))
    chain = range_chain(rep, pol)
    fresh_chain = _chain_oracle(rep, pol)
    assert len(chain) == len(fresh_chain)
    for a, b in zip(chain, fresh_chain):
        _same_subspace(a, b)
    if kind in ("left-invertible", "zero"):  # gamma >= 1: the defect exists
        want = psd_sqrt(v.conj().T @ v - oracle @ v, pol)
        assert np.linalg.norm(defect_operator(rep, pol).matrix - want, 2) <= 1e-12
    bracket = wold.generated_subspace(rep, rep.cokernel(pol), pol)
    _same_subspace(wold._generated_wandering(rep, pol), bracket)
    if kind == "zero":
        assert not rep.pseudo_inverse(pol).any() and rep.pseudo_inverse(pol).shape == (6, 3)
        assert math.isinf(rep.min_modulus(pol)) and rep.norm() == 0.0
        assert np.array_equal(rep.kernel(pol).basis, np.eye(6))
        assert np.array_equal(rep.cokernel(pol).basis, np.eye(3))


@pytest.mark.parametrize("kind", ["generic", "rank-deficient", "left-invertible"])
def test_one_svd_of_v_feeds_every_derived_object(rng, monkeypatch, kind):
    rep = _reps(rng)[kind]
    v, pol = rep.matrix, DEFAULT_POLICY
    real_svd = np.linalg.svd
    of_v = []

    def counting_svd(a, *args, **kwargs):
        a = np.asarray(a)
        of_v.append(a.shape in (v.shape, v.shape[::-1]) and (
            np.array_equal(a, v) or np.array_equal(a, v.conj().T)))
        return real_svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    rep.pseudo_inverse(pol)
    rep.min_modulus(pol)
    rep.norm()
    rep.kernel(pol)
    rep.cokernel(pol)
    _singular_factors(rep, pol)
    range_chain(rep, pol)
    assert sum(of_v) == 1
    if kind != "rank-deficient":
        # R(V) = H: the chain is read off the SVD with no translate.
        assert len(of_v) == 1


@pytest.mark.parametrize("d, m", [(1, 3), (2, 3), (3, 2)])
def test_range_chain_of_surjective_map_matches_iteration(rng, d, m):
    rep = generic_rep(rng, d, m)
    assert rep.cokernel().dim == 0
    chain = range_chain(rep)
    fresh_chain = _chain_oracle(rep, DEFAULT_POLICY)
    assert len(chain) == len(fresh_chain) == 1  # R(V) = H is the limit
    for a, b in zip(chain, fresh_chain):
        _same_subspace(a, b)


def test_second_call_returns_same_object(rng):
    rep = generic_rep(rng, 2, 3)
    pol = DEFAULT_POLICY
    assert rep.svd() is rep.svd()
    assert rep.pseudo_inverse(pol) is rep.pseudo_inverse(pol)
    assert rep.min_modulus(pol) is rep.min_modulus(pol)
    assert rep.norm() is rep.norm()
    assert rep.kernel(pol) is rep.kernel(pol)
    assert rep.cokernel(pol) is rep.cokernel(pol)
    assert range_chain(rep, pol) is range_chain(rep, pol)
    assert wold._generated_wandering(rep, pol) is wold._generated_wandering(rep, pol)
    invertible = left_invertible_rep(rng, 3)
    assert defect_operator(invertible) is defect_operator(invertible, pol)


def test_generated_wandering_space_of_known_splits(rng):
    # A shift block of length 4 next to a 3 x 3 unitary: [W] is the block.
    v = np.zeros((7, 7), dtype=np.complex128)
    v[:4, :4] = truncated_shift_rep(4).matrix
    v[4:, 4:] = rand_unitary(rng, 3)
    for rep, want in (
        (truncated_shift_rep(4), Subspace.full(4)),
        (generic_rep(rng, 2, 3), Subspace.zero(3)),
        (Representation(1, 7, v), Subspace(7, np.eye(7)[:, :4])),
    ):
        _same_subspace(wold._generated_wandering(rep, DEFAULT_POLICY), want)


def test_a_build_that_raises_stores_nothing():
    rep = Representation(1, 1, np.array([[0.5]]))  # gamma < 1: V*V - V+V < 0
    for _ in range(2):
        with pytest.raises(NotPSD):
            defect_operator(rep)
    assert not any(key[0] is defect_operator.__wrapped__ for key in rep._derived)


def test_entries_are_keyed_by_policy(rng):
    rep = generic_rep(rng, 2, 3)
    fn = Representation.pseudo_inverse.__wrapped__

    def pinv_entries():
        return sum(1 for key in rep._derived if key[0] is fn)

    first = rep.pseudo_inverse(TolerancePolicy())
    assert rep.pseudo_inverse(TolerancePolicy()) is first
    assert pinv_entries() == 1
    other = rep.pseudo_inverse(TolerancePolicy(tau_rank=1e-6))
    assert other is not first
    assert pinv_entries() == 2


def test_results_are_read_only(rng):
    rep = rank_deficient_rep(rng, 2, 3, 1)
    arrays = [rep.pseudo_inverse(), rep.kernel().basis, rep.cokernel().basis, *rep.svd()]
    arrays += [wold._generated_wandering(rep, DEFAULT_POLICY).basis]
    arrays += [defect_operator(left_invertible_rep(rng, 3)).matrix]
    chain = range_chain(rep)
    assert isinstance(chain, tuple)
    arrays += [space.basis for space in chain]
    for arr in arrays:
        with pytest.raises(ValueError):
            arr[...] = 0


def test_analyze_reports_rank_warning_on_borderline_instance(tmp_path):
    # The second singular value 1e-9 lies within 10x of the rank cutoff
    # tau_rank * sigma_max * max(shape) = 2e-10.
    fixture = tmp_path / "borderline.json"
    save_representation(Representation(1, 2, np.diag([1.0, 1e-9])), fixture)
    out = tmp_path / "report.json"
    assert main(["analyze", str(fixture), "--out", str(out)]) == 2
    warnings = json.loads(out.read_text())["warnings"]
    assert warnings and all("borderline" in w for w in warnings)
