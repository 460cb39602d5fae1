"""Discrete cosine transforms (DCT-II forward, DCT-III inverse).

The transforms are the ones natural to half-integer sample points
``x_{n+1/2} = (n+1/2)/N``:

    forward   F_k = sum_{n=0}^{N-1} f_{n+1/2} cos((2n+1) k pi / (2N))
    inverse   f_{n+1/2} = (2/N) [ F_0/2 + sum_{k>=1} F_k cos((2n+1) k pi / (2N)) ]

Four interchangeable algorithms are provided, one (forward, inverse) pair
each in ``_ALGORITHMS``:

- ``naive``      direct evaluation of the sums, any N >= 1 (the oracle)
- ``iterative``  O(N^2) add/multiply recurrences, N even
- ``recursive``  O(N log N) split-radix style recursion down to size 2,
                 N a power of two
- ``hybrid``     the same recursion, stopped at size ``cutoff`` and
                 finished by the iterative algorithm

All algorithms produce identical results up to rounding.  ``dct``/``idct``
are the 1D entry points: they accept arrays of shape (..., N) and
transform along the last axis; ``dct2d``/``idct2d`` require a square
(N, N) array.

The 2D transforms apply the 1D ones along each axis, except that ``naive``
plans of even N >= ``FOLD_MIN`` fold the cosine matrix by parity (the
symmetry behind Makhoul's fast cosine transform, IEEE Trans. ASSP 28, 1980):
column k of C satisfies C[N-1-n, k] = (-1)^k C[n, k], so a product with C
is two half-size products on the sum and the difference of an array's front
half and its reversed back half.  That halves the flops, 2N^3 in place of
4N^3 per 2D transform, in four BLAS calls and four elementwise passes where
the row-column form makes two BLAS calls.  ``PoissonSolver.solve`` of an
F-ordered right-hand side, in microseconds (OpenBLAS on one thread of a
2-vCPU x86-64 box, min of 15 timeit rounds):

    N             64   80   96  112  128   256
    row-column    52   88  135  233  358  2438
    folded        65   90  121  165  233  1644

Below the crossover the extra calls cost more than the saved flops.  The 1D
``naive`` transforms stay the direct products: they are the oracle.
"""

from __future__ import annotations

import numpy as np

# the matrix product takes any N and runs as one BLAS call per axis
DEFAULT_ALGORITHM = "naive"
HYBRID_CUTOFF = 64
# the smallest even N whose naive 2D transforms fold by parity (measured
# crossover; see the module docstring)
FOLD_MIN = 96


def _is_pow2(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


def check_size(N: int, algorithm: str, cutoff: int = HYBRID_CUTOFF) -> None:
    """ValueError unless ``algorithm`` transforms length N (with this cutoff)."""
    if algorithm not in ALGORITHMS:
        raise ValueError(f"unknown DCT algorithm {algorithm!r}")
    if N < 1:
        raise ValueError("transform length must be >= 1")
    if algorithm == "iterative" and N % 2 != 0:
        raise ValueError("iterative DCT requires even N")
    if algorithm in ("recursive", "hybrid") and (not _is_pow2(N) or N < 2):
        raise ValueError(f"{algorithm} DCT requires N to be a power of two >= 2")
    if algorithm == "hybrid" and cutoff < 2:
        raise ValueError("hybrid cutoff must be >= 2")


class DctPlan:
    """Precomputed trigonometric tables for transforms of one length.

    Parameters
    ----------
    N : int
        Transform length.
    algorithm : str
        One of ``naive``, ``iterative``, ``recursive``, ``hybrid``.
    cutoff : int
        Size at which the hybrid algorithm switches to the iterative one.

    A plan builds each trigonometric table on first use, so a plan pays only
    for the tables its algorithm reads, and makes it read-only.  Transform
    calls are pure; plans can be shared between threads (a table two
    threads build at once is built twice, with the same values).
    """

    def __init__(self, N: int, algorithm: str = DEFAULT_ALGORITHM, cutoff: int = HYBRID_CUTOFF):
        check_size(N, algorithm, cutoff)
        self.N = int(N)
        self.algorithm = algorithm
        self.cutoff = int(cutoff)
        # the size at which the recursion stops: 2 (solved directly), or the
        # hybrid's cutoff clamped to [2, N] (solved iteratively above 2)
        self.base = max(2, min(self.cutoff, self.N)) if algorithm == "hybrid" else 2
        # whether dct2d/idct2d fold the cosine matrix by parity
        self.folds = algorithm == "naive" and self.N % 2 == 0 and self.N >= FOLD_MIN
        self._tables = {}

    def table(self, n: int, name: str):
        """Table ``name`` for transforms of length n, built on first use."""
        tab = self._tables.setdefault(n, {})
        if name not in tab:
            built = _TABLES[name](self, n)
            for a in built if isinstance(built, tuple) else (built,):
                a.flags.writeable = False
            tab[name] = built
        return tab[name]


# -- tables: (plan, n) -> the named table for transforms of length n ---------

def _it_fwd(plan, n):       # iterative forward: even/odd frequency recurrences
    te, to = np.arange(0, n, 2) * np.pi / n, np.arange(1, n, 2) * np.pi / n
    return np.cos(te / 2), 2 * np.cos(te), np.sin(to / 2), 2 * np.cos(to)


def _it_inv(plan, n):       # iterative inverse: recurrences over the sample index
    tn = (2 * np.arange(n // 2) + 1) * np.pi / n
    return np.sin(tn), np.sin(tn / 2), 2 * np.cos(tn)


def _rotations(k0):         # recursive split/merge rotations for k = k0..n/2-1
    def build(plan, n):
        k = np.arange(k0, n // 2)
        return np.cos(k * np.pi / (2 * n)), np.sin(k * np.pi / (2 * n))
    return build


def _naive(plan, n):        # cosine basis matrix
    nn = np.arange(n)[:, None]
    kk = np.arange(n)[None, :]
    return np.cos((2 * nn + 1) * kk * np.pi / (2 * n))


def _naive_inv(plan, n):    # transposed cosine matrix, the 1/2 weight of F_0 folded in
    c = plan.table(n, "naive").copy()
    c[:, 0] *= 0.5
    return c.T


def _fold(plan, n):         # parity blocks of the cosine matrix's front half rows
    c, h = plan.table(n, "naive"), n // 2
    even, odd = c[:h, 0::2], c[:h, 1::2]
    # the inverse's blocks carry its 2/n scale and the 1/2 weight of F_0
    inv_even, inv_odd = (2.0 / n) * even, (2.0 / n) * odd
    inv_even[:, 0] *= 0.5
    return even.copy(), odd.copy(), inv_even, inv_odd


_TABLES = {"it_fwd": _it_fwd, "it_inv": _it_inv, "rec": _rotations(1), "rec0": _rotations(0),
           "naive": _naive, "naive_inv": _naive_inv, "fold": _fold}


# -- naive ------------------------------------------------------------------

def _dct_naive(plan, f, n):
    return f @ plan.table(n, "naive")


def _idct_naive(plan, F, n):
    # Halving is exact, so F_0/2 * cos = F_0 * (cos/2) bit for bit.  BLAS
    # picks its kernel, and with it the summation order, by memory layout:
    # the product keeps a C-ordered left operand.
    return (2.0 / n) * (np.ascontiguousarray(F) @ plan.table(n, "naive_inv"))


# -- naive, folded by parity (2D, even N) -----------------------------------

def _fold_fwd(x, even, odd):
    """(C^T x)^T, F-ordered, for a square x of even side.

    Row N-1-n of C is row n with the odd columns negated, so the even
    frequencies take the front half of x plus its reversed back half, and the
    odd ones the difference; BLAS writes them into alternate rows.
    """
    h = len(even)
    front, back = x[:h], x[::-1][:h]
    out = np.empty(x.shape)
    np.matmul(even.T, front + back, out=out[0::2])
    np.matmul(odd.T, front - back, out=out[1::2])
    return out.T


def _fold_inv(x, inv_even, inv_odd, transpose):
    """D x, or (D x)^T if ``transpose``, C-ordered, for a C-ordered square x.

    D is the inverse's matrix (2/N) C with column 0 halved.  Its even and odd
    columns take the even and odd rows of x; the sum of the two products is
    the front half of D x and their difference its reversed back half.
    """
    h = len(inv_even)
    out = np.empty(x.shape)
    if transpose:
        even, odd = x[0::2].T @ inv_even.T, x[1::2].T @ inv_odd.T
        front, back = out[:, :h], out[:, ::-1][:, :h]
    else:
        even, odd = inv_even @ x[0::2], inv_odd @ x[1::2]
        front, back = out[:h], out[::-1][:h]
    np.add(even, odd, out=front)
    np.subtract(even, odd, out=back)
    return out


# -- iterative (O(N^2) recurrences) -----------------------------------------

def _dct_iter(plan, f, n):
    h = n // 2
    ce, tce, so, tco = plan.table(n, "it_fwd")
    fr = f[..., ::-1]
    we = f[..., :h] + fr[..., :h]
    wo = f[..., :h] - fr[..., :h]
    G2 = G1 = np.zeros(f.shape[:-1] + (h,))
    H2 = H1 = np.zeros_like(G1)
    wprev_e = wprev_o = 0.0
    for j in range(h):
        wj_e = we[..., j:j + 1]
        wj_o = wo[..., j:j + 1]
        G = ce * (wj_e - wprev_e) + tce * G1 - G2
        H = so * (wj_o + wprev_o) + tco * H1 - H2
        G2, G1, H2, H1 = G1, G, H1, H
        wprev_e, wprev_o = wj_e, wj_o
    out = np.empty_like(f)
    sign = np.where(np.arange(h) % 2 == 0, 1.0, -1.0)
    out[..., 0::2] = G1 * sign
    out[..., 1::2] = H1 * sign
    return out


def _idct_iter(plan, F, n):
    h = n // 2
    sn, sh, tc = plan.table(n, "it_inv")
    Fh = F.copy()
    Fh[..., 0] *= 0.5
    P2 = P1 = np.zeros(F.shape[:-1] + (h,))
    Q2 = Q1 = np.zeros_like(P1)
    for j in range(h):
        fe = Fh[..., 2 * j:2 * j + 1]
        fo = Fh[..., 2 * j + 1:2 * j + 2]
        fo_prev = Fh[..., 2 * j - 1:2 * j] if j > 0 else 0.0
        P = sn * fe + tc * P1 - P2
        Q = sh * (fo + fo_prev) + tc * Q1 - Q2
        P2, P1, Q2, Q1 = P1, P, Q1, Q
    sign = np.where(np.arange(h) % 2 == 0, 1.0, -1.0)
    out = np.empty_like(F)
    out[..., :h] = (2.0 / n) * sign * (P1 + Q1)
    out[..., h:] = ((2.0 / n) * sign * (P1 - Q1))[..., ::-1]
    return out


# -- recursive (O(N log N)) --------------------------------------------------

def _dct2_direct(f):
    out = np.empty_like(f)
    out[..., 0] = f[..., 0] + f[..., 1]
    out[..., 1] = (f[..., 0] - f[..., 1]) * np.cos(np.pi / 4)
    return out


def _idct2_direct(F):
    c = np.cos(np.pi / 4)
    out = np.empty_like(F)
    out[..., 0] = 0.5 * F[..., 0] + c * F[..., 1]
    out[..., 1] = 0.5 * F[..., 0] - c * F[..., 1]
    return out


def _dct_rec(plan, f, n):
    if n <= plan.base:
        return _dct_iter(plan, f, n) if plan.base > 2 else _dct2_direct(f)
    h = n // 2
    alt = np.where(np.arange(h) % 2 == 0, 1.0, -1.0)
    fL = f[..., 0::2] + f[..., 1::2]
    fH = (f[..., 0::2] - f[..., 1::2]) * alt
    A = _dct_rec(plan, fL, h)
    B = _dct_rec(plan, fH, h)
    ck, sk = plan.table(n, "rec")
    out = np.empty_like(f)
    out[..., 0] = A[..., 0]
    out[..., h] = B[..., 0] / np.sqrt(2.0)
    Bq = B[..., :0:-1]          # B[N/2 - k] for k = 1..N/2-1
    out[..., 1:h] = ck * A[..., 1:] + sk * Bq
    out[..., h + 1:] = (-sk * A[..., 1:] + ck * Bq)[..., ::-1]
    return out


def _idct_rec(plan, F, n):
    if n <= plan.base:
        return _idct_iter(plan, F, n) if plan.base > 2 else _idct2_direct(F)
    h = n // 2
    ck, sk = plan.table(n, "rec0")
    w = np.empty(F.shape[:-1] + (h,))
    w[..., 0] = F[..., 0]
    w[..., 1:] = ck[1:] * F[..., 1:h] - sk[1:] * F[..., :h:-1]
    Fp = F[..., h:]             # F[N/2 + k]
    Fm = np.concatenate([F[..., h:h + 1], F[..., h - 1:0:-1]], axis=-1)  # F[N/2 - k]
    v = (np.sqrt(2.0) / 2) * (ck * (Fp + Fm) + sk * (Fp - Fm))
    C = _idct_rec(plan, w, h)
    D = _idct_rec(plan, v, h)
    alt = np.where(np.arange(h) % 2 == 0, 1.0, -1.0)
    out = np.empty_like(F)
    out[..., 0::2] = 0.5 * (C + alt * D)
    out[..., 1::2] = 0.5 * (C - alt * D)
    return out


# name -> (forward, inverse), each (plan, values, n) -> transform along the
# last axis; the order of the names is the order the CLI offers them in
_ALGORITHMS = {"naive": (_dct_naive, _idct_naive), "iterative": (_dct_iter, _idct_iter),
               "recursive": (_dct_rec, _idct_rec), "hybrid": (_dct_rec, _idct_rec)}
ALGORITHMS = tuple(_ALGORITHMS)


# -- public API ---------------------------------------------------------------

def _check(plan, f):
    f = np.asarray(f, dtype=float)
    if f.shape[-1] != plan.N:
        raise ValueError(f"sequence length {f.shape[-1]} does not match plan N={plan.N}")
    return f


def dct(plan: DctPlan, f):
    """Forward DCT-II along the last axis (unscaled)."""
    return _ALGORITHMS[plan.algorithm][0](plan, _check(plan, f), plan.N)


def idct(plan: DctPlan, F):
    """Inverse transform (DCT-III with 2/N scaling and half-weighted F_0)."""
    return _ALGORITHMS[plan.algorithm][1](plan, _check(plan, F), plan.N)


def _check_square(plan, f):
    f = np.asarray(f, dtype=float)
    if f.ndim != 2 or f.shape[0] != f.shape[1]:
        raise ValueError("2d transform requires a square array")
    if f.shape[0] != plan.N:
        raise ValueError(f"array side {f.shape[0]} does not match plan N={plan.N}")
    return f


def dct2d(plan: DctPlan, f):
    """Two-dimensional forward transform of a square array.

    Separable row-column application: ``F[j, k]`` pairs frequency ``j`` with
    the first array axis and ``k`` with the second.  The result is F-ordered.
    """
    f = _check_square(plan, f)
    if plan.folds:
        even, odd = plan.table(plan.N, "fold")[:2]
        return _fold_fwd(_fold_fwd(f, even, odd), even, odd)   # (f^T C)^T C = C^T f C
    forward = _ALGORITHMS[plan.algorithm][0]
    t = forward(plan, f, plan.N)                # over axis 1 (index n -> k)
    return forward(plan, t.T, plan.N).T         # over axis 0 (index m -> j)


def idct2d(plan: DctPlan, F):
    """Two-dimensional inverse transform of a square array, F-ordered."""
    F = _check_square(plan, F)
    if plan.folds:
        inv_even, inv_odd = plan.table(plan.N, "fold")[2:]
        # BLAS reads the parity rows by stride, which needs C order
        t = _fold_inv(np.ascontiguousarray(F), inv_even, inv_odd, transpose=True)
        return _fold_inv(t, inv_even, inv_odd, transpose=False).T   # (D (D F)^T)^T
    inverse = _ALGORITHMS[plan.algorithm][1]
    t = inverse(plan, F, plan.N)
    return inverse(plan, t.T, plan.N).T
