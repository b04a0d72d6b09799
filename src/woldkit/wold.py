"""Wandering subspaces, Wold-type decomposition, duality, and intertwiners.

The decomposition splits H into the subspace generated by the wandering
space W = ker(V*) and the stabilized intersection of iterated ranges.
Diagnostics cover orthogonality and completeness of the split, reduction,
pseudoinverse/adjoint agreement on the residual part, unitarity of the
restricted map, and the uniqueness note attached to the hyper-dagger
property.  Precondition gates (regularity, modulus >= 1, growth
feasibility) are evaluated up to a horizon so that hard truncations of
well-behaved infinite operators are not rejected for boundary artifacts;
the strict verdicts are always reported alongside.

horizon_plan decides the horizon of every stage for the three entry
points that run them: analyze, shifts.shift_pipeline, and wold_decompose
with duality_check.  Each stage is defined once and reads its horizon
from the plan: regularity (_regularity_report), growth (_growth_report)
and the Wold stage (_wold_result).  The first two are memoized on the
representation (see the model docstring), and so are [W] and the range
chain of the dual (_generated_wandering, _dual_range_chain), so
duality_check after wold_decompose, or check_purity_transfer, builds
none of them again.  The entry points keep their gates, messages and
output formats.

generated_subspace and the joins of kernel_span_check walk the forward
translates of structure._translates.
The iterates V+^(n) of the pseudoinverse are the adjoints of the levels
of the Moore-Penrose dual V' = (V+)*, whose SVD mp_cauchy_dual reads off
that of V.  All three readers of those iterates read the one range chain
of V', memoized on V (_dual_range_chain): the biregular flag compares
the dimensions of its consecutive members (structure._biregular_levels),
duality_check reads the join of
the kernels ker V+^(n) = R(V'_n)^perp as the complement of its limit, and
kernel_span_check reads ker V+^(n) as the complement of its member n.
The hyper_dagger flag decides each level from the one before by
Greville's reverse-order law, from u and s of two consecutive levels of
V's SVD walk (structure._hyper_dagger_up_to); an invertible d = 1 map whose
gamma(V)^n clears the rank cutoff of the last level needs no walk.  None
of them builds a tall iterate.  wold_diagnostics forms no subspace of
E (x) H and no m x m projector.  With B and R orthonormal
bases of [W] and R_infinity, both split residuals are read off the
cross-Gram B* R (_split_residuals): ||P_B P_R|| = ||B* R||, and
||P_B + P_R - I|| is 1 when dim [W] + dim R_infinity < m and ||B* R||
otherwise.  The dagger_equals_adjoint flag reads (V+ - V*) R off the
memoized SVD V = u diag(s) vh of rank r (_adjoint_gap):
V+ - V* = vh* diag(delta) u* with delta_i = 1/s_i - s_i below r and -s_i
past it, and vh is unitary, so the column norms of (V+ - V*) R are those
of delta (u* R).  The reduction flag asks whether V* R_infinity lies in
E (x) R_infinity through linalg._in_ampliation, V restricted to
E (x) R_infinity is V (I_E (x) R), and the domain (E (x) R_infinity) meet R(V*) of the unitary restriction
is (I_E (x) R) y for y in the kernel of K* (I_E (x) R), K spanning ker V
off the SVD of V.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import NotContraction, PreconditionFailed
from .growth import GrowthReport, check_growth, gamma, gamma_at_least_one
from .linalg import (
    DEFAULT_POLICY,
    Subspace,
    TolerancePolicy,
    _in_ampliation,
    _norm2_at_most,
    _norm2_within,
    add,
    as_matrix,
    complement,
    contains,
    null_space,
    range_space,
    spectral_norm,
    subspaces_equal,
)
from .model import (
    Representation,
    _lift,
    _lower_levels,
    _times_ampliation,
    _with_svd,
    budget_horizon,
    derived,
    iterate_map,
    size_budget,
)
from .structure import (
    RegularityReport,
    _biregular_levels,
    _hyper_dagger_up_to,
    _stabilized_chain,
    _translates,
    algebraic_core,
    default_horizon,
    is_regular,
    range_chain,
)

__all__ = [
    "wandering_space",
    "co_wandering_space",
    "generated_subspace",
    "HorizonPlan",
    "horizon_plan",
    "WoldResult",
    "wold_decompose",
    "wold_diagnostics",
    "duality_check",
    "kernel_span_check",
    "mp_cauchy_dual",
    "check_intertwiner",
    "is_pure_contraction",
    "PurityTransferReport",
    "check_purity_transfer",
]

_FLAG_TOL = 1e-8


def wandering_space(rep: Representation, pol: TolerancePolicy = DEFAULT_POLICY) -> Subspace:
    """W = ker(V*): the orthogonal complement of the range inside H."""
    return rep.cokernel(pol)


def co_wandering_space(rep: Representation, pol: TolerancePolicy = DEFAULT_POLICY) -> Subspace:
    """ker(V) inside E (x) H: the complement of the pseudoinverse's range."""
    return rep.kernel(pol)


def generated_subspace(
    rep: Representation, s: Subspace, pol: TolerancePolicy = DEFAULT_POLICY
) -> Subspace:
    """Smallest invariant subspace containing S: the join of all forward translates."""
    if s.ambient_dim != rep.dim_h:
        raise PreconditionFailed("subspace must live in H")
    joins = itertools.accumulate(_translates(rep, s, pol), functools.partial(add, pol=pol))
    return _stabilized_chain(joins)[-1]


@derived
def _generated_wandering(rep: Representation, pol: TolerancePolicy) -> Subspace:
    """[W], the subspace generated by the wandering space, built once per policy."""
    return generated_subspace(rep, wandering_space(rep, pol), pol)


@dataclass(frozen=True)
class HorizonPlan:
    """The horizon each stage reads: regularity (also the horizon of the
    Wold report), growth, and the top levels of the biregular and
    hyper_dagger flags."""

    regularity: int
    growth: int
    biregular: int
    hyper_dagger: int


_GROWTH_CAPS = {"analyze": 6, "shift": 4, "wold": math.inf}


def horizon_plan(
    rep: Representation, pol: TolerancePolicy, requested: int | None, entry: str
) -> HorizonPlan:
    """The horizons of the stages run by one entry point: "analyze" (a
    representation file), "shift" (shifts.shift_pipeline, which requests
    spec.L or spec.M) or "wold" (wold_decompose, duality_check and
    wold_diagnostics).

    The regularity horizon h is the requested one, else default_horizon.
    With b = budget_horizon, the last level that fits the size budget:
    growth reads min(h, b), capped at 6 levels for "analyze" and 4 for
    "shift"; hyper_dagger reads min(h, b); the biregular flag reads
    min(h, max(b, 1)), since level 1 of the dual's range chain builds
    nothing wider than m x dm.  WOLDKIT_BUDGET is read once per call, and
    the plan is memoized on rep per policy, request, entry and budget.
    """
    return _horizon_plan(rep, pol, requested, entry, size_budget())


@derived
def _horizon_plan(
    rep: Representation, pol: TolerancePolicy, requested: int | None, entry: str, budget: int
) -> HorizonPlan:
    h = default_horizon(rep, pol) if requested is None else requested
    levels = budget_horizon(rep, budget)
    return HorizonPlan(
        regularity=h,
        growth=min(h, levels, _GROWTH_CAPS[entry]),
        biregular=min(h, max(levels, 1)),
        hyper_dagger=min(h, levels),
    )


@derived
def _regularity_report(rep: Representation, pol: TolerancePolicy, horizon: int) -> RegularityReport:
    """The regularity stage: is_regular to the horizon, memoized per policy
    and horizon."""
    return is_regular(rep, pol, horizon)


@derived
def _growth_report(
    rep: Representation, pol: TolerancePolicy, horizon: int, d_seq: tuple[float, ...] | None
) -> GrowthReport:
    """The growth stage: check_growth to the horizon for the weights d_seq
    (a tuple, or None for the minimal weights), memoized per policy,
    horizon and weights."""
    return check_growth(rep, None if d_seq is None else list(d_seq), horizon, pol=pol)


@derived
def _dual_range_chain(rep: Representation, pol: TolerancePolicy) -> tuple[Subspace, ...]:
    """range_chain of mp_cauchy_dual(rep), memoized on rep per policy: its
    members are at most m x m, while the dual itself is not memoized."""
    return range_chain(mp_cauchy_dual(rep, pol), pol)


@dataclass(frozen=True)
class WoldResult:
    """Decomposition data plus every diagnostic flag, reported honestly.

    Boolean flags are judged at 1e-8; the raw projector residuals are kept
    so callers can see how close a failed flag was.  A true hyper_dagger
    carries the uniqueness note for the decomposition.
    """

    wandering: Subspace
    co_wandering: Subspace
    generated: Subspace
    generalized_range: Subspace
    orthogonal: bool
    spans_h: bool
    reduces: bool
    unitary_restriction: bool
    dagger_equals_adjoint: bool
    isometric_restriction: bool
    fully_coisometric_restriction: bool
    biregular: bool
    hyper_dagger: bool
    proj_sum_residual: float
    proj_product_residual: float
    gamma: float
    regular_strict: bool
    regular_at_horizon: bool
    growth_feasible: bool
    horizon: int

    @property
    def uniqueness_note(self) -> str:
        if self.hyper_dagger:
            return "iterated pseudoinverse matches at every checked level; decomposition unique"
        return "uniqueness not established (hyper-dagger property not verified)"

    def as_dict(self) -> dict:
        return {
            "dims": {
                "H": self.wandering.ambient_dim,
                "W": self.wandering.dim,
                "W_dagger": self.co_wandering.dim,
                "bracketW": self.generated.dim,
                "Rinf": self.generalized_range.dim,
            },
            "flags": {
                "orthogonal": self.orthogonal,
                "spans_H": self.spans_h,
                "reduces": self.reduces,
                "unitary_restriction": self.unitary_restriction,
                "dagger_equals_adjoint": self.dagger_equals_adjoint,
                "isometric_restriction": self.isometric_restriction,
                "fully_coisometric_restriction": self.fully_coisometric_restriction,
                "biregular": self.biregular,
                "hyper_dagger": self.hyper_dagger,
                "regular_strict": self.regular_strict,
                "regular_at_horizon": self.regular_at_horizon,
                "growth_feasible": self.growth_feasible,
            },
            "residuals": {
                "projector_sum": self.proj_sum_residual,
                "projector_product": self.proj_product_residual,
            },
            "gamma": None if math.isinf(self.gamma) else self.gamma,
            "horizon": self.horizon,
            "uniqueness_note": self.uniqueness_note,
        }


def _split_residuals(s1: Subspace, s2: Subspace) -> tuple[float, float]:
    """(||P1 + P2 - I||_2, ||P1 P2||_2) for two subspaces of C^m, of
    dimensions b and r, off their b x r cross-Gram C = B1* B2.

    ||P1 P2|| = ||B1 C B2*|| = ||C||, 0 when either space is {0}.  P1 + P2 - I
    is 1 on s1 meet s2, -1 on s1^perp meet s2^perp, 0 on s1 meet s2^perp
    and on s1^perp meet s2, and has eigenvalues +-cos(theta) on the plane
    of each principal angle 0 < theta < pi/2.  So its norm is 1 when
    b + r < m, where s1^perp meet s2^perp is not {0}, and ||C|| otherwise:
    either s1 + s2 = C^m and s1^perp meet s2^perp = {0}, or s1 and s2
    share a direction and both norms are 1.
    """
    prod_res = spectral_norm(s1.basis.conj().T @ s2.basis)
    return (1.0 if s1.dim + s2.dim < s1.ambient_dim else prod_res), prod_res


def _adjoint_gap(rep: Representation, x: np.ndarray, pol: TolerancePolicy) -> np.ndarray:
    """Column norms of (V+ - V*) X, as those of delta (u* X) (module docstring)."""
    u, s, _ = rep.svd()
    r = rep._svd_rank(pol)
    delta = -s
    delta[:r] += 1.0 / s[:r]
    return np.linalg.norm(delta[:, None] * (u.conj().T @ x), axis=0)


def wold_diagnostics(
    rep: Representation,
    horizon: int,
    pol: TolerancePolicy = DEFAULT_POLICY,
    *,
    growth_feasible: bool = True,
) -> WoldResult:
    """Compute the decomposition subspaces and every diagnostic, no gating.

    The horizons are those of horizon_plan(rep, pol, horizon, "wold"): the
    regularity verdicts are read to the horizon, the hyper_dagger flag to
    min(horizon, budget_horizon) and the biregular flag to
    min(horizon, max(budget_horizon, 1)).
    """
    return _wold_result(rep, pol, horizon_plan(rep, pol, horizon, "wold"), growth_feasible)


def _wold_result(
    rep: Representation, pol: TolerancePolicy, plan: HorizonPlan, growth_feasible: bool
) -> WoldResult:
    """The Wold stage: wold_diagnostics at the horizons of the plan."""
    d, m = rep.dim_e, rep.dim_h
    v = rep.matrix
    reg = _regularity_report(rep, pol, plan.regularity)

    w = wandering_space(rep, pol)
    wd = co_wandering_space(rep, pol)
    bracket = _generated_wandering(rep, pol)
    rinf = algebraic_core(rep, pol)

    sum_res, prod_res = _split_residuals(bracket, rinf)
    orthogonal = prod_res <= _FLAG_TOL
    spans_h = add(bracket, rinf, pol).dim == m

    # V(E (x) R_infinity) lies in R_infinity: range_chain ends where the
    # next member, V(E (x) R_infinity), has its dimension (or at {0} or H),
    # so reduction needs only the adjoint direction, V* R_infinity inside
    # E (x) R_infinity, which holds outright when R_infinity = H.
    reduces = rinf.dim == m or _in_ampliation(
        range_space(v.conj().T @ rinf.basis, pol, scale=rep.norm()), rinf, d, pol
    )

    dagger_adjoint = bool(np.all(_adjoint_gap(rep, rinf.basis, pol) <= _FLAG_TOL))

    # V on E (x) R_infinity is t = V (I (x) R), and R* t is its compression
    # b_full to R_infinity.  The domain (E (x) R_infinity) meet R(V*) of the
    # unitary restriction is (I (x) R) y for y in the kernel of K* (I (x) R),
    # K* the trailing rows of vh (R(V*) = (ker V)^perp); y is orthonormal,
    # and so is (I (x) R) y.
    t = _times_ampliation(v, rinf.basis)
    b_full = rinf.basis.conj().T @ t
    kernel_rows = rep.svd()[2][rep._svd_rank(pol) :]  # K*
    y = null_space(_times_ampliation(kernel_rows, rinf.basis), pol, scale=1.0)
    b = b_full @ y.basis
    unitary_restriction = (
        _norm2_at_most(b.conj().T @ b - np.eye(y.dim), _FLAG_TOL)
        and _norm2_at_most(b @ b.conj().T - np.eye(rinf.dim), _FLAG_TOL)
    )

    isometric = (
        _norm2_at_most(t - rinf.basis @ b_full, _FLAG_TOL)
        and _norm2_at_most(t.conj().T @ t - np.eye(t.shape[1]), _FLAG_TOL)
    )
    fully_coisometric = _norm2_at_most(b_full @ b_full.conj().T - np.eye(rinf.dim), _FLAG_TOL)

    return WoldResult(
        wandering=w,
        co_wandering=wd,
        generated=bracket,
        generalized_range=rinf,
        orthogonal=orthogonal,
        spans_h=spans_h,
        reduces=reduces,
        unitary_restriction=unitary_restriction,
        dagger_equals_adjoint=dagger_adjoint,
        isometric_restriction=isometric,
        fully_coisometric_restriction=fully_coisometric,
        biregular=all(_biregular_levels(_dual_range_chain(rep, pol), d, plan.biregular)),
        hyper_dagger=_hyper_dagger_up_to(rep, plan.hyper_dagger, pol),
        proj_sum_residual=sum_res,
        proj_product_residual=prod_res,
        gamma=gamma(rep, pol),
        regular_strict=reg.strict,
        regular_at_horizon=reg.holds_at_horizon,
        growth_feasible=growth_feasible,
        horizon=plan.regularity,
    )


def _check_preconditions(
    rep: Representation,
    d_seq: list[float] | None,
    horizon: int | None,
    pol: TolerancePolicy,
) -> HorizonPlan:
    plan = horizon_plan(rep, pol, horizon, "wold")
    if not _regularity_report(rep, pol, plan.regularity).holds_at_horizon:
        raise PreconditionFailed(
            f"regularity: kernel not contained in E (x) R(V_m) for all m <= {plan.regularity}"
        )
    if not gamma_at_least_one(rep, pol):
        raise PreconditionFailed(
            f"reduced minimum modulus {gamma(rep, pol):.6g} is below one"
        )
    report = _growth_report(rep, pol, plan.growth, None if d_seq is None else tuple(d_seq))
    if not report.all_feasible:
        bad = [e.m for e in report.entries if not e.feasible]
        raise PreconditionFailed(f"growth condition infeasible at level(s) {bad}")
    return plan


def wold_decompose(
    rep: Representation,
    d_seq: list[float] | None = None,
    horizon: int | None = None,
    pol: TolerancePolicy = DEFAULT_POLICY,
) -> WoldResult:
    """Decompose H into the wandering-generated part and the stable range.

    Preconditions (regularity up to the horizon, reduced minimum modulus
    >= 1, growth feasibility for the supplied or minimal weights) raise
    PreconditionFailed naming the violated hypothesis.  All diagnostic
    flags are computed honestly and may be false: the growth hypothesis
    involves a divergence that a finite truncation can never certify.
    """
    return _wold_result(rep, pol, _check_preconditions(rep, d_seq, horizon, pol), True)


def duality_check(
    rep: Representation,
    horizon: int | None = None,
    pol: TolerancePolicy = DEFAULT_POLICY,
) -> bool:
    """The generated subspace equals the join of iterated-pseudoinverse
    kernels and the complement of the dual map's stable range.

    With V' = mp_cauchy_dual(rep), ker V+^(n) = R(V'_n)^perp, so the
    kernels increase and tie where the ranges of V' tie, and their join is
    the complement of the limit of range_chain(V').  One comparison checks
    both sides; range_chain needs no size budget, and the horizon is that
    of the preconditions only.
    """
    _check_preconditions(rep, None, horizon, pol)
    bracket = _generated_wandering(rep, pol)
    dual_core = _dual_range_chain(rep, pol)[-1]
    return subspaces_equal(bracket, complement(dual_core, pol), pol)


def kernel_span_check(
    rep: Representation, n: int, pol: TolerancePolicy = DEFAULT_POLICY
) -> tuple[bool, bool | None]:
    """Kernel-span containments at depth n >= 1.

    First: ker of the n-fold iterated pseudoinverse lies in the join of
    forward translates of W.  With V' = mp_cauchy_dual(rep),
    ker V+^(n) = R(V'_n)^perp is the complement of member n of the range
    chain of V' (its limit from the chain's length on), and the join is the
    sum of the first n items of _translates(rep, W).  Second (regular
    representations only, otherwise None): ker(V_n) equals the join of
    lifted-pseudoinverse images of the co-wandering space.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    d, m = rep.dim_e, rep.dim_h
    chain = _dual_range_chain(rep, pol)
    ker1 = complement(chain[min(n, len(chain)) - 1], pol)
    translates = itertools.islice(_translates(rep, wandering_space(rep, pol), pol), n)
    first = contains(ker1, functools.reduce(functools.partial(add, pol=pol), translates), pol)

    if not is_regular(rep, pol).strict:
        return first, None
    nd = 1.0 / gamma(rep, pol)  # ||V+||_2; 0 for the zero map
    wd = co_wandering_space(rep, pol)
    ker_n = null_space(iterate_map(rep, n), pol, scale=rep.norm() ** n)
    eye = np.eye(m, dtype=np.complex128)
    lowered = itertools.chain([eye], _lower_levels(rep.pseudo_inverse(pol), d))  # S^(0) = I
    join2 = Subspace.zero(d**n * m)
    for i, vdi in zip(range(n), lowered):
        left = _lift(n - i, vdi, d)
        arg = _lift(n - i - 1, wd.basis, d)
        join2 = add(join2, range_space(left @ arg, pol, scale=nd**i), pol)
    return first, subspaces_equal(ker_n, join2, pol)


def mp_cauchy_dual(rep: Representation, pol: TolerancePolicy = DEFAULT_POLICY) -> Representation:
    """Pseudoinverse-based dual: the adjoint of the Moore-Penrose inverse.

    Coincides with the Cauchy dual V (V*V)^{-1} for injective maps and
    stays defined for maps whose kernel comes from hard truncation.  Its svd() is set from
    the SVD V = u diag(s) vh of rank r, so nothing decomposes the dual:
    (V+)* = u[:, p] diag(1/s[r-1], ..., 1/s[0], 0, ...) vh[q], where p and
    q reverse the first r indices and keep the others (the zero map keeps
    its identity factors).  The dual is not memoized on rep.
    """
    u, s, vh = rep.svd()
    r = rep._svd_rank(pol)
    order = np.arange(vh.shape[0])
    order[:r] = order[:r][::-1]
    inverted = np.zeros_like(s)
    inverted[:r] = 1.0 / s[order[:r]]
    dual = Representation(rep.dim_e, rep.dim_h, rep.pseudo_inverse(pol).conj().T)
    return _with_svd(dual, (u[:, order[: rep.dim_h]], inverted, vh[order]))


def check_intertwiner(rep: Representation, a, tol: float = 1e-9) -> bool:
    """A V = V (I_E (x) A) up to tol * |V| * |A|."""
    a = as_matrix(a)
    if a.shape != (rep.dim_h, rep.dim_h):
        raise PreconditionFailed("intertwiner must act on H")
    v = rep.matrix
    return _norm2_within(a @ v - _times_ampliation(v, a), a, tol * rep.norm())


def is_pure_contraction(a, horizon: int = 50, tol: float = 1e-8) -> str:
    """Three-valued purity verdict: 'pure', 'not_pure', or 'undecided'.

    A spectral radius strictly below one decides purity immediately; the
    iterated products A^n A*^n decide non-purity when their norms
    stabilize above tol with increments below tol.
    """
    a = as_matrix(a)
    if a.shape[0] != a.shape[1]:
        raise NotContraction("purity is defined for square operators")
    if a.shape[0] == 0:
        return "pure"
    norm = spectral_norm(a)
    if norm > 1.0 + 1e-10:
        raise NotContraction(f"operator norm {norm:.12g} exceeds one")
    rho = float(np.max(np.abs(np.linalg.eigvals(a)))) if a.any() else 0.0
    if rho < 1.0 - tol:
        return "pure"
    current = np.eye(a.shape[0], dtype=np.complex128)
    norms = [1.0]
    for n in range(1, max(1, horizon) + 1):
        current = a @ current @ a.conj().T
        if n >= horizon - 1:  # only the last two norms are read
            norms.append(spectral_norm(current))
    prev_norm, cur_norm = norms[-2:]
    if cur_norm <= tol:
        return "pure"
    if prev_norm - cur_norm <= tol:
        return "not_pure"
    return "undecided"


@dataclass(frozen=True)
class PurityTransferReport:
    verdict_full: str
    verdict_compressed: str
    decided: bool
    agree: bool | None
    violation: bool


def check_purity_transfer(
    rep: Representation,
    a,
    horizon: int = 50,
    tol: float = 1e-8,
    pol: TolerancePolicy = DEFAULT_POLICY,
) -> PurityTransferReport:
    """Compare purity of an intertwining contraction with its compression
    to the wandering space; a decided disagreement is a genuine violation.

    Requires: a nontrivial wandering space that generates H under both the
    representation and its pseudoinverse-based dual, and the intertwining
    identity.  (At finite dimension a genuinely injective map cannot have
    the generation property, so the dual is taken through the
    pseudoinverse; for injective maps it is the classical dual.)
    """
    a = as_matrix(a)
    w = wandering_space(rep, pol)
    if w.dim == 0:
        raise PreconditionFailed("wandering space is trivial; compression undefined")
    full = Subspace.full(rep.dim_h)
    if not subspaces_equal(_generated_wandering(rep, pol), full, pol):
        raise PreconditionFailed("wandering space does not generate H")
    dual = mp_cauchy_dual(rep, pol)
    if not subspaces_equal(generated_subspace(dual, w, pol), full, pol):
        raise PreconditionFailed("wandering space does not generate H under the dual")
    if not check_intertwiner(rep, a):
        raise PreconditionFailed("operator does not intertwine the representation")

    compressed = w.basis.conj().T @ a @ w.basis
    verdict_full = is_pure_contraction(a, horizon, tol)
    verdict_comp = is_pure_contraction(compressed, horizon, tol)
    decided = "undecided" not in (verdict_full, verdict_comp)
    agree = (verdict_full == verdict_comp) if decided else None
    return PurityTransferReport(
        verdict_full=verdict_full,
        verdict_compressed=verdict_comp,
        decided=decided,
        agree=agree,
        violation=bool(decided and not agree),
    )
