"""Objects of V memoized on the Representation: equal to the uncached
linalg calls, built once per policy, and read-only."""

import json
import math

import numpy as np
import pytest

from woldkit.cli import main
from woldkit.generate import generic_rep, rank_deficient_rep
from woldkit.linalg import (
    DEFAULT_POLICY,
    TolerancePolicy,
    null_space,
    pinv,
    reduced_min_modulus,
    spectral_norm,
)
from woldkit.model import Representation, save_representation
from woldkit.structure import range_chain


def _reps(rng):
    return {
        "generic": generic_rep(rng, 2, 3),
        "rank-deficient": rank_deficient_rep(rng, 2, 3, 1),
        "zero": Representation(2, 3, np.zeros((3, 6))),
    }


@pytest.mark.parametrize("kind", ["generic", "rank-deficient", "zero"])
def test_builders_equal_uncached_calls_bitwise(rng, kind):
    rep = _reps(rng)[kind]
    v, pol = rep.matrix, DEFAULT_POLICY
    assert np.array_equal(rep.pseudo_inverse(pol), pinv(v, pol))
    assert rep.min_modulus(pol) == reduced_min_modulus(v, pol)
    assert rep.norm() == spectral_norm(v)
    assert np.array_equal(rep.kernel(pol).basis, null_space(v, pol).basis)
    assert np.array_equal(rep.cokernel(pol).basis, null_space(v.conj().T, pol).basis)
    chain, stable = range_chain(rep, pol)
    fresh_chain, fresh_stable = range_chain.__wrapped__(rep, pol)
    assert stable == fresh_stable and len(chain) == len(fresh_chain)
    assert all(np.array_equal(a.basis, b.basis) for a, b in zip(chain, fresh_chain))
    if kind == "zero":
        assert not rep.pseudo_inverse(pol).any() and rep.pseudo_inverse(pol).shape == (6, 3)
        assert math.isinf(rep.min_modulus(pol))


def test_second_call_returns_same_object(rng):
    rep = generic_rep(rng, 2, 3)
    pol = DEFAULT_POLICY
    assert rep.pseudo_inverse(pol) is rep.pseudo_inverse(pol)
    assert rep.min_modulus(pol) is rep.min_modulus(pol)
    assert rep.norm() is rep.norm()
    assert rep.kernel(pol) is rep.kernel(pol)
    assert rep.cokernel(pol) is rep.cokernel(pol)
    assert range_chain(rep, pol) is range_chain(rep, pol)


def test_entries_are_keyed_by_policy(rng):
    rep = generic_rep(rng, 2, 3)
    first = rep.pseudo_inverse(TolerancePolicy())
    assert rep.pseudo_inverse(TolerancePolicy()) is first
    assert len(rep._derived) == 1
    other = rep.pseudo_inverse(TolerancePolicy(tau_rank=1e-6))
    assert other is not first
    assert len(rep._derived) == 2


def test_results_are_read_only(rng):
    rep = rank_deficient_rep(rng, 2, 3, 1)
    arrays = [rep.pseudo_inverse(), rep.kernel().basis, rep.cokernel().basis]
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
