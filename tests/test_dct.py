import numpy as np
import pytest

from chebflow.dct import FOLD_MIN, DctPlan, dct, dct2d, idct, idct2d

ALL_N = [2, 4, 8, 16, 32, 64, 128, 256, 512]


def naive_pair(N):
    return DctPlan(N, "naive")


def test_frozen_small_cases():
    p = naive_pair(2)
    assert np.allclose(dct(p, [1.0, 1.0]), [2.0, 0.0], atol=1e-15)
    out = dct(p, [1.0, 0.0])
    assert abs(out[0] - 1.0) < 1e-15
    assert abs(out[1] - np.cos(np.pi / 4)) < 1e-15
    assert np.allclose(idct(p, [2.0, 0.0]), [1.0, 1.0], atol=1e-15)


def test_delta_coefficient_gives_constant():
    for N in (3, 4, 8):
        p = DctPlan(N, "naive")
        F = np.zeros(N)
        F[0] = 1.0
        assert np.allclose(idct(p, F), 1.0 / N, atol=1e-15)


def test_orthogonality_single_mode():
    N = 16
    for m in (1, 3, 7, 15):
        f = np.cos((2 * np.arange(N) + 1) * m * np.pi / (2 * N))
        F = dct(DctPlan(N, "iterative"), f)
        assert abs(F[m] - N / 2) < 1e-12
        assert np.max(np.abs(np.delete(F, m))) < 1e-12


def test_algorithm_equivalence_and_roundtrip():
    rng = np.random.RandomState(3)
    for N in ALL_N:
        f = rng.randn(N)
        ref = dct(DctPlan(N, "naive"), f)
        iref = idct(DctPlan(N, "naive"), ref)
        scale = np.max(np.abs(ref))
        for alg in ("iterative", "recursive", "hybrid"):
            plan = DctPlan(N, alg)
            assert np.max(np.abs(dct(plan, f) - ref)) <= 1e-12 * scale
            assert np.max(np.abs(idct(plan, ref) - iref)) <= 1e-12 * max(np.max(np.abs(iref)), 1)
            rt = idct(plan, dct(plan, f))
            assert np.max(np.abs(rt - f)) <= 1e-12 * max(np.max(np.abs(f)), 1)


def test_roundtrip_many_random_sequences():
    rng = np.random.RandomState(11)
    worst = 0.0
    for N in (2, 4, 8, 16, 32, 64, 128, 256):
        plan = DctPlan(N, "hybrid", cutoff=16)
        f = rng.randn(100, N)
        rt = idct(plan, dct(plan, f))
        worst = max(worst, np.max(np.abs(rt - f)) / np.max(np.abs(f)))
    assert worst <= 1e-12


def test_linearity():
    rng = np.random.RandomState(5)
    N = 64
    plan = DctPlan(N, "hybrid")
    f, g = rng.randn(N), rng.randn(N)
    a, b = 1.7, -0.4
    lhs = dct(plan, a * f + b * g)
    rhs = a * dct(plan, f) + b * dct(plan, g)
    assert np.max(np.abs(lhs - rhs)) <= 1e-13 * np.max(np.abs(rhs))


def test_even_symmetry_kills_odd_coefficients():
    rng = np.random.RandomState(7)
    for alg in ("naive", "iterative", "recursive"):
        N = 32
        half = rng.randn(N // 2)
        f = np.concatenate([half, half[::-1]])
        F = dct(DctPlan(N, alg), f)
        assert np.max(np.abs(F[1::2])) <= 1e-12 * np.max(np.abs(F))


def test_2d_constant_and_roundtrip_and_separability():
    rng = np.random.RandomState(9)
    N = 8
    plan = DctPlan(N, "hybrid", cutoff=4)
    F = dct2d(plan, np.ones((N, N)))
    assert abs(F[0, 0] - N * N) < 1e-12
    F[0, 0] = 0.0
    assert np.max(np.abs(F)) < 1e-12
    A = rng.randn(N, N)
    assert np.max(np.abs(idct2d(plan, dct2d(plan, A)) - A)) <= 1e-12
    a, b = rng.randn(N), rng.randn(N)
    F = dct2d(plan, np.outer(a, b))
    expect = np.outer(dct(plan, a), dct(plan, b))
    assert np.max(np.abs(F - expect)) <= 1e-12 * np.max(np.abs(expect))


def test_plan_validation_errors():
    with pytest.raises(ValueError):
        DctPlan(7, "iterative")       # odd length
    with pytest.raises(ValueError):
        DctPlan(12, "recursive")      # not a power of two
    with pytest.raises(ValueError):
        DctPlan(24, "hybrid")
    with pytest.raises(ValueError):
        DctPlan(8, "fft")
    plan = DctPlan(8, "naive")
    with pytest.raises(ValueError):
        dct(plan, np.zeros(9))        # length mismatch
    with pytest.raises(ValueError):
        dct2d(plan, np.zeros((8, 4))) # non-square


@pytest.mark.parametrize("N", [5, 16, 32, 48, 64, 128])
@pytest.mark.parametrize("order", ["C", "F"])
def test_naive_inverse_bitwise_equal_to_half_weighted_product(N, order):
    # the cached inverse matrix carries the 1/2 weight of F_0, which must give
    # the bits of halving F_0 first, for either memory order of the input
    plan = DctPlan(N, "naive")
    F = np.array(np.random.RandomState(N).randn(N, N), order=order)
    Fh = F.copy()
    Fh[..., 0] *= 0.5
    want = (2.0 / N) * (Fh @ plan.table(N, "naive").T)
    assert idct(plan, F).tobytes() == want.tobytes()
    assert idct(plan, F[0]).tobytes() == ((2.0 / N) * (Fh[0] @ plan.table(N, "naive").T)).tobytes()


@pytest.mark.parametrize("algorithm, N, tables", [
    ("naive", 64, {64: {"naive", "naive_inv"}}),
    ("iterative", 8, {8: {"it_fwd", "it_inv"}}),
    ("recursive", 8, {8: {"rec", "rec0"}, 4: {"rec", "rec0"}}),
    ("hybrid", 16, {16: {"rec", "rec0"}, 8: {"it_fwd", "it_inv"}}),
])
def test_plan_builds_only_the_tables_its_algorithm_reads(algorithm, N, tables):
    plan = DctPlan(N, algorithm, cutoff=8)
    assert plan._tables == {}
    idct(plan, dct(plan, np.random.RandomState(0).randn(N)))
    assert {n: set(t) for n, t in plan._tables.items()} == tables


def _row_column(N):
    """The row-column 2D pair as explicit products with the naive tables."""
    plan = DctPlan(N, "naive")
    C, Cinv = plan.table(N, "naive"), plan.table(N, "naive_inv")
    fwd = lambda f: ((f @ C).T @ C).T
    inv = lambda F: ((2.0 / N) * (np.ascontiguousarray(
        ((2.0 / N) * (np.ascontiguousarray(F) @ Cinv)).T) @ Cinv)).T
    return fwd, inv


def test_only_even_naive_plans_from_fold_min_fold():
    assert DctPlan(FOLD_MIN).folds and DctPlan(FOLD_MIN + 2).folds
    assert not DctPlan(FOLD_MIN - 2).folds and not DctPlan(FOLD_MIN + 1).folds
    assert not any(DctPlan(128, alg).folds for alg in ("iterative", "recursive", "hybrid"))


@pytest.mark.parametrize("N", [96, 128, 256])
@pytest.mark.parametrize("order", ["C", "F"])
def test_folded_2d_transforms_match_the_row_column_products(N, order):
    # the two forms sum in different orders; both sit about N eps (relative)
    # from the exact transform of these random arrays
    fwd, inv = _row_column(N)
    plan = DctPlan(N)
    f = np.array(np.random.RandomState(N).randn(N, N), order=order)
    rel = lambda got, want: np.linalg.norm(got - want) / np.linalg.norm(want)
    tol = N * np.finfo(float).eps
    F = dct2d(plan, f)
    assert rel(F, fwd(f)) <= tol
    assert rel(idct2d(plan, f), inv(f)) <= tol
    assert rel(idct2d(plan, F), f) <= tol
    # both outputs are F-ordered, as the row-column path's are
    for got, want in ((F, fwd(f)), (idct2d(plan, f), inv(f))):
        assert got.flags.f_contiguous and want.flags.f_contiguous


def test_folded_plan_builds_the_fold_blocks_from_the_naive_table():
    plan = DctPlan(128)
    idct2d(plan, dct2d(plan, np.random.RandomState(1).randn(128, 128)))
    assert {n: set(t) for n, t in plan._tables.items()} == {128: {"naive", "fold"}}


@pytest.mark.parametrize("order", ["C", "F"])
def test_unfolded_naive_2d_keeps_the_row_column_bits(order):
    fwd, inv = _row_column(64)
    plan = DctPlan(64)
    f = np.array(np.random.RandomState(64).randn(64, 64), order=order)
    assert dct2d(plan, f).tobytes() == fwd(f).tobytes()
    assert idct2d(plan, f).tobytes() == inv(f).tobytes()
