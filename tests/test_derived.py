"""Objects of V memoized on the Representation: all read off one SVD of V,
equal to the uncached linalg calls to round-off, built once per policy,
and read-only."""

import json
import math

import numpy as np
import pytest

from woldkit.cli import main
from woldkit.generate import generic_rep, left_invertible_rep, rank_deficient_rep
from woldkit.growth import _singular_factors
from woldkit.linalg import (
    DEFAULT_POLICY,
    TolerancePolicy,
    null_space,
    pinv,
    project,
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

    return _stabilized_chain(spaces(), pol, max_steps=rep.dim_h + 8)


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
    chain, stable = range_chain(rep, pol)
    fresh_chain, fresh_stable = _chain_oracle(rep, pol)
    assert stable == fresh_stable and len(chain) == len(fresh_chain)
    for a, b in zip(chain, fresh_chain):
        _same_subspace(a, b)
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
    chain, stable = range_chain(rep)
    fresh_chain, fresh_stable = _chain_oracle(rep, DEFAULT_POLICY)
    assert (stable, len(chain)) == (fresh_stable, len(fresh_chain)) == (1, 3)
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
    chain, _ = range_chain(rep)
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
