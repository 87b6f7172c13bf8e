"""Synthetic Gaussian-tail laboratory: exact gradients and bias/variance tables.

The lab draws rewards Z ~ N(0,1) with the bounded score
S_c(Z) = 1{Z >= t_c} - (1 - Phi(t_c)) per threshold t_c, so the target
gradient g = (1/alpha) E[1{Z >= z_alpha} R_tilde_eta(Z) S(Z)] has a closed
form through Gaussian partial moments. ``estimator_bias_variance`` measures
any advantage rule's induced gradient (1/m) sum_i A_i S(Z_i) against that
target over many replications; for the TEA family the raw (uncentered,
1/alpha-weighted) estimator is measured so the target is the population tail
gradient.

The prefix rule is measured on its cross-fitted split-halves form: the tail
vector comes from batch A, the score average from batch B, and the bias is
Rao-Blackwellized over the evaluation split — conditional on A the estimator's
mean is H(eta_hat) = (1/alpha) int_r^inf R_tilde(z) S(z) phi(z) dz, available
in closed form. A control-variate layer (prefix tail moments with exactly
known means, coefficients fit on a pilot block and applied only beyond it)
removes most of the remaining tail-vector noise without biasing the mean.

Replications are drawn in blocks, each from its own SeedSequence child. A
block's normals are drawn in chunks of rows, in stream order; the calling
thread draws the even blocks and a second thread the odd ones, so block i + 1
is drawn while block i is. A thread pool measures each chunk while the next
one is drawn (NumPy releases the GIL in both), and each block bounds its own
chunks in flight. A one-block row has one drawing thread, which bounds its
time, so it keeps a core to itself and the pool gets the other cores, at
least one; beside two drawing threads the pool has a thread per core. The
prefix rule's block holds all its tail halves in the stream before its
evaluation halves, so its measurement has two stages: each tail-half chunk
goes to the pool as soon as it is drawn, and only its small per-row output
(the tail vectors, controls and Rao-Blackwell term) is kept until the
matching evaluation-half chunk is drawn; no whole block is ever held.

The prefix kernel touches only candidate slices of a row. Prefix j's top-q_j
lies among the q_J largest of prefix j - 1 and the segment that extends it,
so each prefix sorts only that window of a copy of the row, and the control
sums at z_alpha run over prefix 1's q_J largest and the later segments. The
evaluation gathers, once per chunk, the entries at or above the lowest of a
row's thresholds, and sums them per row at each r_hat_j and per row and
segment at each t_c, with one reduction per power for all rows. Small
per-row arithmetic keeps the thresholds on the leading axis, so its loops
run over rows. Every kernel output is per row, and the chunk outputs are
joined in row order before the block is merged, so a row's numbers depend
only on its seed and replication count, not on the chunk size, the thread
count or which thread drew it.
"""

from __future__ import annotations

import os
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np

from .advantages import RULE_NAMES, RuleParams, _shaped, check_rule, compute_rules
from .errors import DegenerateError, InputError
from .gauss import ndtr, norm_pdf, tail_constants
from .prefixes import cancellation_weights, theory_prefixes
from .tailstats import slice_tail_stats, tail_count

#: Replications per block. Each block draws from its own SeedSequence child,
#: and the block is the unit the moments are merged in. A block is never held
#: whole: only its per-row outputs are.
BLOCK_SIZE = 4096
#: Values per chunk (1 MiB of normals): a block is drawn and measured
#: max(1, _CHUNK_VALUES // width) rows at a time, so each kernel pass works on
#: data that stays in cache and at most a few chunks of draws are live at
#: once, whatever the group size.
_CHUNK_VALUES = 1 << 17
#: Cores the lab's threads share: one or two threads draw, and a pool with a
#: thread per core measures what they draw, but for a one-block row, whose
#: drawing thread keeps a core to itself (see ``_block_outputs``).
_CORES = (
    len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
)
#: Pilot replications used to fit control-variate coefficients.
PILOT_SIZE = 50_000
#: Default Monte Carlo prompt-batch grid for the MSE frontier.
DEFAULT_P_GRID = (1, 2048, 65536)


@dataclass(frozen=True)
class SyntheticSpec:
    """Lab configuration: tail level, target N, and score thresholds."""

    alpha: float = 0.25
    n_target: int = 128
    score_thresholds: tuple[float, ...] = (1.0, 1.5)

    def __post_init__(self) -> None:
        if not all(np.isfinite(self.score_thresholds)):
            raise InputError("score thresholds must be finite")
        if not 0.0 < self.alpha < 0.5:
            raise InputError(f"alpha must lie in (0, 1/2), got {self.alpha}")


@dataclass(frozen=True)
class BiasVarianceRow:
    """One (rule, m) measurement: bias vector/norm, variance trace, MSE map."""

    estimator_tag: str
    m: int
    bias_vec: np.ndarray
    bias_norm: float
    variance: float
    mse_at_p: dict[int, float]
    replications: int
    seed: int
    bias_se: np.ndarray
    variance_se: float


@lru_cache(maxsize=None)
def _spec_constants(spec: SyntheticSpec):
    consts = tail_constants(spec.alpha, spec.n_target)
    thresholds = np.asarray(spec.score_thresholds, dtype=float)
    return consts, thresholds, 1.0 - ndtr(thresholds)


def _shaped_coefficients(r, mu, sigma, c_tilde: float, shift=0.0):
    """Coefficients of the tail-shaped reward R_tilde(shift + v) = c0 + c1 v + c2 v^2.

    R_tilde(z) = b1 (z - r) + a2 (z - r)^2 with a2 = c_tilde / (2 sigma) and
    b1 = 1 + 2 a2 (r - mu). Expanding around a threshold (shift = r gives
    c0 = 0 exactly) keeps power sums of v free of the cancellation that
    expanding around 0 suffers when the tail is narrow.
    """
    a2 = c_tilde / (2.0 * sigma)
    b1 = 1.0 + 2.0 * a2 * (r - mu)
    e = shift - r
    return e * (b1 + a2 * e), b1 + 2.0 * a2 * e, a2


def _h_batch(r: np.ndarray, mu: np.ndarray, sigma: np.ndarray, spec: SyntheticSpec) -> np.ndarray:
    """H(eta) = (1/alpha) int_r^inf R_tilde(z) S(z) phi(z) dz for batched tail vectors; (..., d).

    R_tilde is the quadratic a0 + a1 z + a2 z^2, so the integral against the
    Gaussian density reduces to partial moments: with T(b) the integral of
    R_tilde phi from b to infinity,

        H_c = (1/alpha) [T(max(r, t_c)) - sbar_c T(r)].

    The result is a view of a (d, ...) array: with the thresholds leading,
    each elementwise loop runs over the tail vectors, not over the d of one.
    """
    consts, thresholds, sbar = _spec_constants(spec)
    r = np.asarray(r, dtype=float)
    mu = np.asarray(mu, dtype=float)
    sigma = np.asarray(sigma, dtype=float)
    a0, a1, a2 = _shaped_coefficients(r, mu, sigma, consts.c_tilde_n)
    surv = 1.0 - ndtr(r)
    dens = norm_pdf(r)
    t_r = a0 * surv + a1 * dens + a2 * (surv + r * dens)
    # T(max(r, t_c)) is T(r) where r >= t_c and T(t_c) elsewhere, with 1 - Phi(t_c) = sbar_c
    t, sbar, dens_t = (x.reshape(-1, *(1,) * r.ndim) for x in (thresholds, sbar, norm_pdf(thresholds)))
    t_t = a0 * sbar + a1 * dens_t + a2 * (sbar + t * dens_t)
    t_upper = np.where(r >= t, t_r, t_t)
    return np.moveaxis((t_upper - sbar * t_r) / spec.alpha, 0, -1)


@lru_cache(maxsize=None)
def true_gradient(spec: SyntheticSpec) -> np.ndarray:
    """Exact target gradient: H at the population tail vector, in closed form; read-only.

    The population tail vector is (z_alpha, lambda_alpha, sqrt(delta_alpha)).
    """
    consts, _, _ = _spec_constants(spec)
    out = _h_batch(consts.z_alpha, consts.lambda_alpha, np.sqrt(consts.delta_alpha), spec)
    out.setflags(write=False)
    return out


# --- vectorized per-block measurement kernels -------------------------------
#
# Only entries with z >= r_hat carry advantage, so the TEA kernel works on the
# top-q partition slice alone, and the prefix and oracle kernels reduce each
# threshold b's contribution to the power sums (count, sum v, sum v^2) of
# v = z - b over z >= b, which the quadratic R_tilde turns into exact sums.


def _score_sums(adv: np.ndarray, z: np.ndarray, spec: SyntheticSpec) -> np.ndarray:
    """sum_i A_i S(z_i) per row; shape (blocks, d)."""
    _, thresholds, sbar = _spec_constants(spec)
    total = adv.sum(axis=1)
    cols = [np.einsum("ij,ij->i", adv, z >= t) - sb * total for t, sb in zip(thresholds, sbar)]
    return np.stack(cols, axis=1)


def _induced_gradient(adv: np.ndarray, z: np.ndarray, spec: SyntheticSpec) -> np.ndarray:
    """(1/m) sum_i A_i S(z_i) per row; shape (blocks, d)."""
    return _score_sums(adv, z, spec) / z.shape[1]


def _cumulate(a: np.ndarray) -> np.ndarray:
    """Running sums of a over its axis 1, in place: np.cumsum's bits, one whole-slice add per step."""
    for k in range(1, a.shape[1]):
        a[:, k] += a[:, k - 1]
    return a


def _run_sums(v: np.ndarray, starts, x=None, shift=None) -> np.ndarray:
    """Count of v >= 0, sum of v_+ and sum of v_+^2 over runs of v's last axis; overwrites v.

    v is x - shift. The runs start at ``starts`` (increasing, each below
    v.shape[-1]) and end where the next begins; shape
    (3, *v.shape[:-1], len(starts)). The count is taken only when x and shift
    are given, as x >= shift, and is 0 otherwise. Each run is summed in column
    order, so its sums depend on its entries alone.
    """
    out = np.zeros((3, *v.shape[:-1], len(starts)))
    np.maximum(v, 0.0, out=v)
    out[1] = np.add.reduceat(v, starts, axis=-1)
    v *= v
    out[2] = np.add.reduceat(v, starts, axis=-1)
    if x is not None:
        out[0] = np.add.reduceat(x >= shift, starts, axis=-1, dtype=np.uint32)
    return out


def _shaped_sum(coef, sums: np.ndarray) -> np.ndarray:
    """Sum of R_tilde = c0 + c1 v + c2 v^2 over the entries behind ``sums``."""
    c0, c1, c2 = coef
    return c0 * sums[0] + c1 * sums[1] + c2 * sums[2]


def _tail_gradient(eta, at_r: np.ndarray, at_t: np.ndarray, spec: SyntheticSpec, m):
    """(1/m) sum_i (1/alpha) 1{z_i >= r} R_tilde(z_i) S(z_i) from power sums; (d, ..., blocks).

    ``eta`` = (r, mu, sigma), each (..., blocks) or a scalar, and m
    broadcasts against them. ``at_r`` holds the power sums at shift r, shape
    (3, ..., blocks); expanded around r, R_tilde has no constant term, so
    ties at r add nothing. ``at_t`` holds them at shift t_c, shape
    (3, d, ..., blocks): the thresholds lead, so each loop runs over blocks.
    Since 1{z >= r} 1{z >= t_c} = 1{z >= max(r, t_c)}, the upper sum comes
    from ``at_r`` where r >= t_c and from ``at_t`` elsewhere.
    """
    consts, thresholds, sbar = _spec_constants(spec)
    r = eta[0]
    t, sbar = (x.reshape(-1, *(1,) * (at_r.ndim - 1)) for x in (thresholds, sbar))
    total = _shaped_sum(_shaped_coefficients(*eta, consts.c_tilde_n, r), at_r)
    above_t = _shaped_sum(_shaped_coefficients(*eta, consts.c_tilde_n, t), at_t)
    upper = np.where(r >= t, total, above_t)
    return (upper - sbar * total) / (spec.alpha * m)


def _tea_block(z: np.ndarray, spec: SyntheticSpec, eps_sigma: float):
    """Raw TEA per row of z: induced gradient (blocks, d), and any advantage nonzero.

    Partitions each row of z in place, so that its top-q slice comes last
    with the q-th largest first. Entries outside that slice have zero
    advantage: they lie below r_hat, or tie with it and get R_tilde(r_hat) = 0
    exactly.
    """
    consts, _, _ = _spec_constants(spec)
    m = z.shape[1]
    cut = m - tail_count(m, spec.alpha)
    z.partition(cut, axis=1)
    top = z[:, cut:]
    adv = _shaped(top, *slice_tail_stats(top, eps_sigma), consts.c_tilde_n)
    grads = _score_sums(adv, top, spec) / (spec.alpha * z.shape[1])
    return grads, (adv != 0.0).any(axis=1)


def _oracle_block(z: np.ndarray, spec: SyntheticSpec):
    """Raw rule at the population tail vector: induced gradient and any nonzero."""
    consts, thresholds, _ = _spec_constants(spec)
    r = consts.z_alpha
    eta = (r, consts.lambda_alpha, np.sqrt(consts.delta_alpha))
    # (3, 1 + d, blocks): the power sums at r, then at each t_c
    sums = np.stack([_run_sums(z - shift, (0,), z, shift)[..., 0] for shift in (r, *thresholds)], axis=1)
    grads = _tail_gradient(eta, sums[:, 0], sums[:, 1:], spec, z.shape[1])
    return np.ascontiguousarray(grads.T), sums[1, 0] > 0


class _PrefixCrossFit:
    """Cross-fitted prefix estimator over split halves, with RB + CV bias path."""

    def __init__(self, m: int, spec: SyntheticSpec, params: RuleParams):
        if m % 2 != 0 or m < 4:
            raise InputError(f"cross-fitted prefix measurement needs even m >= 4, got {m}")
        self.n = m // 2
        self.spec = spec
        self.eps_sigma = params.eps_sigma
        self.sizes = theory_prefixes(self.n, params.j_count, spec.alpha)
        self.weights = np.asarray(cancellation_weights(self.n, self.sizes, params.k))
        self.counts = [tail_count(size, spec.alpha) for size in self.sizes]
        # each prefix hands its q_J largest (all of it when shorter) on to the next
        self.kept = [min(self.counts[-1], size) for size in self.sizes]
        self.starts = (0, *self.sizes[:-1])
        self.size = np.asarray(self.sizes, dtype=float)[:, None]
        # the control runs: prefix 1's kept entries, then segments 2..J
        self.control_starts = (0, *(self.kept[0] + a - self.sizes[0] for a in self.sizes[:-1]))
        # (j, ., g) is true where segment g lies in prefix j
        self.in_prefix = np.tri(len(self.sizes), dtype=bool)[:, None, :]
        consts, thresholds, sbar = _spec_constants(spec)
        self.consts = consts
        # control features: prefix means of 1{z>=z_a}, z 1{z>=z_a}, z^2 1{z>=z_a}
        z_a = consts.z_alpha
        dens = float(norm_pdf(z_a))
        self.control_means = np.array([spec.alpha, dens, spec.alpha + z_a * dens])

    def tail(self, z_a: np.ndarray):
        """Tail stage on rows of tail halves: tail vectors, RB term and controls.

        Returns the per-prefix tail vectors as one (3, J, blocks) array of
        (r_hat, mu, sigma), the Rao-Blackwell term H (blocks, d) and the
        controls (blocks, 3J). Prefix j's top q_j lies among the q_J largest
        of prefix j - 1 and segment j, which a copy of the rows holds side by
        side: each prefix sorts that window in place, which leaves its q_J
        largest, ascending, at the window's end, next to segment j + 1. Sums
        at z_alpha are taken per segment and cumulated, so prefix j's sums
        are the first j segments'; segment 1's run over prefix 1's q_J
        largest, which hold all its entries >= z_alpha unless the q_J-th
        largest is one of them, and only such rows sum the whole segment.
        """
        spec, sizes, counts = self.spec, self.sizes, self.counts
        rows = z_a.shape[0]
        z_al = self.consts.z_alpha
        z = z_a[:, : sizes[-1]].copy()
        eta = np.empty((3, len(sizes), rows))
        start = 0
        for j, (end, keep, count) in enumerate(zip(sizes, self.kept, counts)):
            z[:, start:end].sort(axis=1)
            start = end - keep  # z[:, start:end] holds prefix j's kept entries, ascending
            if j == 0:
                x = z[:, start:]
                segments = _run_sums(x - z_al, self.control_starts, x, z_al)
                spill = np.flatnonzero(z[:, start] >= z_al)
                if spill.size:
                    x = z[spill, :end]
                    segments[:, spill, :1] = _run_sums(x - z_al, (0,), x, z_al)
            # copied out at once: the next window's sort overwrites the slice
            eta[:, j] = [s[:, 0] for s in slice_tail_stats(z[:, end - count : end], self.eps_sigma)]
        # prefix sums of 1, z, z^2 over z >= z_alpha, (J, blocks) each, from those of v = z - z_alpha
        n, v1, v2 = _cumulate(segments.transpose(0, 2, 1).copy())
        features = np.stack([n, v1 + z_al * n, v2 + z_al * (2.0 * v1 + z_al * n)])
        features /= self.size
        features -= self.control_means[:, None, None]
        controls = features.transpose(2, 1, 0).reshape(rows, -1)
        h = np.moveaxis(_h_batch(*eta, spec), -1, 0)  # (d, J, blocks), all prefixes in one call
        rao = np.zeros(h.shape[::2])
        for w, h_j in zip(self.weights, h.transpose(1, 0, 2)):
            rao += w * h_j
        return eta, rao.T.copy(), controls

    def evaluate(self, z_b: np.ndarray, eta: np.ndarray, rao: np.ndarray, controls: np.ndarray):
        """Evaluation stage on rows of evaluation halves, given their tail stage's output.

        Returns (actual, rao, controls, nonzero): the cross-fitted estimator per
        row, the tail stage's two outputs, and whether any advantage is
        nonzero. Only entries at or above a row's lowest shift, the least of
        its r_hat_j and the t_c, add to its sums; these candidates are
        gathered once, in row order. Sums at r_hat_j run per row over prefix
        j's candidates alone; sums at each t_c run per row and segment, and
        are cumulated over the segments.
        """
        spec, sizes = self.spec, self.sizes
        _, thresholds, _ = _spec_constants(spec)
        rows, n_pre, d = z_b.shape[0], len(sizes), len(thresholds)
        r_hat = eta[0]
        keep = z_b >= np.minimum(r_hat.min(axis=0), thresholds.min())[:, None]
        keep[:, sizes[-1] :] = False
        # candidates per (row, segment) run, and where each run starts among them
        groups = np.add.reduceat(keep, self.starts, axis=1, dtype=np.uint32).ravel().astype(np.intp)
        first = np.cumsum(groups) - groups
        n_cand = int(first[-1] + groups[-1])
        # a -inf after the candidates adds nothing, and lets empty runs at the end start there
        flat = np.empty(n_cand + 1)
        flat[-1] = -np.inf
        np.compress(keep.ravel(), z_b, out=flat[:-1])
        empty = np.flatnonzero(groups == 0)
        # prefix j's sums: (3, J, blocks) at r_hat_j, and at the t_c
        at_r = np.zeros((3, n_pre, rows))
        row_filled = groups.reshape(rows, n_pre).any(axis=1)
        if n_cand:
            # r_hat_j on the candidates of prefix j's segments, +inf (adding nothing) elsewhere
            v = np.where(self.in_prefix, r_hat[:, :, None], np.inf).reshape(n_pre, -1)
            v = np.repeat(v, groups, axis=1)
            at_r[..., row_filled] = _run_sums(np.subtract(flat[:-1], v, out=v), first[::n_pre][row_filled])
        t = thresholds[:, None]
        at_t = _run_sums(flat - t, first, flat, t)  # (3, d, blocks * J), in (row, segment) order
        at_t[..., empty] = 0.0  # reduceat gives an empty run its next entry
        at_t = _cumulate(at_t.reshape(-1, rows, n_pre).transpose(0, 2, 1).copy())
        grads = _tail_gradient(eta, at_r, at_t.reshape(3, d, n_pre, rows), spec, self.size)
        actual = np.zeros(grads.shape[::2])
        for w, g in zip(self.weights, grads.transpose(1, 0, 2)):
            actual += w * g
        nonzero = (at_r[1] > 0).any(axis=0)  # some z > r_hat_j
        return actual.T.copy(), rao, controls, nonzero


def default_replications(m: int) -> int:
    """Default replication count: 2e5 up to m = 1024, 5e4 above."""
    return 200_000 if m <= 1024 else 50_000


#: Every tag ``estimator_bias_variance`` measures: the CLI's rules, then the lab's own.
LAB_TAGS = (*RULE_NAMES, "oracle", "prefix-tea-raw")


def _gradient_kernel(rule: str, spec: SyntheticSpec, params: RuleParams):
    """Chunk measurement z -> (induced gradient per row, any advantage nonzero)."""
    if rule == "tea":
        return partial(_tea_block, spec=spec, eps_sigma=params.eps_sigma)
    if rule == "oracle":
        return partial(_oracle_block, spec=spec)
    advantages = partial(compute_rules, rule, params=params)

    def measure(z: np.ndarray):
        adv = advantages(z)
        return _induced_gradient(adv, z, spec), (adv != 0.0).any(axis=1)

    return measure


def _draw_chunks(rng: np.random.Generator, width: int, take: int, rows: int):
    """The first ``take`` of the next ``rows`` rows of normals, as row chunks in stream order.

    The rows past ``take`` are drawn too, so the stream moves past all
    ``rows``, but one chunk at a time and never yielded.
    """
    step = max(1, _CHUNK_VALUES // width)
    for start in range(0, rows, step):
        z = rng.standard_normal((min(step, rows - start), width))
        if start < take:
            yield z[: take - start]


def _bounded_submit(pool: ThreadPoolExecutor, limit: int):
    """``pool.submit`` that waits on the oldest task once more than ``limit`` are in flight.

    The draws then run ahead of the kernels by a bounded amount of memory.
    """
    pending: deque = deque()

    def submit(fn, *args):
        future = pool.submit(fn, *args)
        pending.append(future)
        if len(pending) > limit:
            pending.popleft().result()
        return future

    return submit


def _after(measure, z: np.ndarray, tail_future):
    """``measure`` on an evaluation-half chunk and its tail-half chunk's outputs."""
    return measure(z, *tail_future.result())


def _submit_block(pool: ThreadPoolExecutor, limit: int, measure, tail, width: int, stream, take: int):
    """Draws one block from its stream, submitting each chunk to ``pool`` as it is drawn.

    Returns the futures of ``measure``'s outputs, in row order, with at most
    ``limit`` in flight at once; see ``_block_outputs`` for ``tail``.
    """
    rng = np.random.default_rng(stream)
    submit = _bounded_submit(pool, limit)
    chunks = _draw_chunks(rng, width, take, take if tail is None else BLOCK_SIZE)
    if tail is None:
        return [submit(measure, z) for z in chunks]
    tails = [submit(tail, z) for z in chunks]
    evals = _draw_chunks(rng, width, take, take)
    return [submit(_after, measure, z, t) for z, t in zip(evals, tails)]


def _block_outputs(measure, m: int, replications: int, seed: int, tail=None):
    """Each block's row count and ``measure``'s outputs over its rows, in block order.

    Without ``tail`` a row is m normals and ``measure`` takes a chunk of rows.
    With it a row is a tail half and an evaluation half of m/2 normals, and
    the stream holds a whole block of tail halves first: each tail-half chunk
    is measured by ``tail`` as it is drawn, and ``measure`` takes the
    matching evaluation-half chunk followed by ``tail``'s outputs. The
    calling thread draws the even blocks and a second thread the odd ones, so
    block i + 1 is drawn while block i is; a one-block row uses the calling
    thread alone. A lone drawing thread bounds the row's time, so it keeps a
    core to itself and the measuring pool gets the others, at least one
    thread; beside two drawing threads the pool has a thread per core, as the
    kernels cost nearly as much CPU as the draws and one thread, sharing the
    cores with both, falls behind them. Each block keeps at most two chunks
    per measuring thread in flight.
    """
    n_blocks = (replications + BLOCK_SIZE - 1) // BLOCK_SIZE
    streams = np.random.SeedSequence(seed).spawn(n_blocks)
    takes = [min(BLOCK_SIZE, replications - i * BLOCK_SIZE) for i in range(n_blocks)]
    width = m if tail is None else m // 2
    workers = max(1, _CORES - 1) if n_blocks == 1 else _CORES
    with ThreadPoolExecutor(workers) as pool, ThreadPoolExecutor(1) as ahead:
        draw = partial(_submit_block, pool, 2 * workers, measure, tail, width)
        for i, (stream, take) in enumerate(zip(streams, takes)):
            if i % 2 == 0:
                if i + 1 < n_blocks:
                    odd = ahead.submit(draw, streams[i + 1], takes[i + 1])
                futures = draw(stream, take)
            else:
                futures = odd.result()
            parts = [future.result() for future in futures]
            yield take, [np.concatenate(outputs) for outputs in zip(*parts)]


class _MomentAccumulator:
    """Streaming central moments per component, stable at any offset.

    Each block's mean and central power sums M2..M4 are taken in two passes,
    then merged into the running totals by the pairwise update of Chan, Golub
    and LeVeque (1979) as extended to M3 and M4 by Pebay (2008).
    """

    def __init__(self, dim: int):
        self.n = 0
        self.mu = np.zeros(dim)
        self.m2 = np.zeros(dim)
        self.m3 = np.zeros(dim)
        self.m4 = np.zeros(dim)

    def add(self, values: np.ndarray) -> None:
        nb = values.shape[0]
        mu_b = values.mean(axis=0)
        dev = values - mu_b
        dev2 = dev * dev
        m2b, m3b, m4b = dev2.sum(axis=0), (dev2 * dev).sum(axis=0), (dev2 * dev2).sum(axis=0)
        na = self.n
        n = na + nb
        delta = mu_b - self.mu
        self.m4 += (
            m4b
            + delta**4 * na * nb * (na * na - na * nb + nb * nb) / n**3
            + 6.0 * delta**2 * (na * na * m2b + nb * nb * self.m2) / n**2
            + 4.0 * delta * (na * m3b - nb * self.m3) / n
        )
        self.m3 += (
            m3b
            + delta**3 * na * nb * (na - nb) / n**2
            + 3.0 * delta * (na * m2b - nb * self.m2) / n
        )
        self.m2 += m2b + delta**2 * na * nb / n
        self.mu += delta * nb / n
        self.n = n

    def mean(self) -> np.ndarray:
        return self.mu

    def var(self) -> np.ndarray:
        return self.m2 / self.n

    def var_se(self) -> float:
        """se of the variance trace (per-component normal-theory, summed)."""
        m2 = self.m2 / self.n
        var_of_var = np.maximum(self.m4 / self.n - m2**2, 0.0) / self.n
        return float(np.sqrt(var_of_var.sum()))


def check_sizes(m_grid, p_grid) -> None:
    """Raises ``InputError`` unless every group size m and prompt-batch size P is at least 1."""
    for name, sizes in (("group size m", m_grid), ("prompt-batch size P", p_grid)):
        for size in sizes:
            if size < 1:
                raise InputError(f"{name} must be >= 1, got {size}")


def estimator_bias_variance(
    rule: str,
    spec: SyntheticSpec,
    m: int,
    replications: int | None = None,
    seed: int = 0,
    params: RuleParams | None = None,
    p_grid: tuple[int, ...] = DEFAULT_P_GRID,
) -> BiasVarianceRow:
    """Monte Carlo bias and variance of a rule's induced gradient estimator.

    Draws ``replications`` groups of m standard normals; each group's induced
    gradient is (1/m) sum_i A_i S(Z_i). Tags 'tea' and 'prefix-tea-raw'
    measure the raw (uncentered) estimators, so the target is the population
    tail gradient; 'oracle' plugs in the population tail vector; 'prefix-tea'
    measures the cross-fitted split-halves estimator, with variance from the
    actual estimator and bias from the Rao-Blackwellized path (control-variate
    corrected; the pilot block that calibrates the coefficients is excluded
    from the bias mean). Any other registered rule is measured as-is, one
    ``compute_rules`` call per chunk.

    ``params`` must share the spec's target (alpha, n_target), and m and
    every P in ``p_grid`` must be at least 1. Raises ``DegenerateError`` when
    the rule emits all-zero advantages on more than 99% of replications.
    """
    check_rule(rule, LAB_TAGS)
    check_sizes((m,), p_grid)
    params = params or RuleParams(alpha=spec.alpha, n_target=spec.n_target)
    if (params.alpha, params.n_target) != (spec.alpha, spec.n_target):
        raise InputError(
            f"params' (alpha, n_target) {params.alpha, params.n_target} differ from the spec's"
            f" {spec.alpha, spec.n_target}"
        )
    if replications is None:
        replications = default_replications(m)
    if replications < 1_000:
        raise InputError(f"need at least 1e3 replications, got {replications}")
    g_true = true_gradient(spec)
    d = len(spec.score_thresholds)
    acc = _MomentAccumulator(d)
    zero_rows = 0

    if rule == "prefix-tea":
        kernel = _PrefixCrossFit(m, spec, params)
        pilot_target = min(PILOT_SIZE, replications // 4)
        use_cv = pilot_target >= 1_000
        pilot_rao: list[np.ndarray] = []
        pilot_ctl: list[np.ndarray] = []
        rao_acc = _MomentAccumulator(d)
        n_pilot = 0
        lam = None
        blocks = _block_outputs(kernel.evaluate, m, replications, seed, tail=kernel.tail)
        for take, (actual, rao, controls, nonzero) in blocks:
            acc.add(actual)
            zero_rows += int(take - nonzero.sum())
            if use_cv and lam is None:
                pilot_rao.append(rao)
                pilot_ctl.append(controls)
                n_pilot += take
                if n_pilot >= pilot_target:
                    ctl = np.concatenate(pilot_ctl)
                    rao_all = np.concatenate(pilot_rao)
                    # least squares through the (3J, 3J) normal equations: LAPACK on the
                    # tall pilot matrix wakes OpenBLAS's thread pool, whose idle workers
                    # then spin for about 0.1 s of CPU taken from the draws and kernels
                    centred = rao_all - rao_all.mean(axis=0)
                    lam, *_ = np.linalg.lstsq(ctl.T @ ctl, ctl.T @ centred, rcond=None)
            else:
                rao_acc.add(rao - controls @ lam if use_cv else rao)
        if rao_acc.n == 0:  # all replications consumed by the pilot
            rao_all = np.concatenate(pilot_rao)
            rao_acc.add(rao_all)
        bias_vec = rao_acc.mean() - g_true
        bias_se = np.sqrt(rao_acc.var() / rao_acc.n)
    else:
        measure = _gradient_kernel(rule, spec, params)
        for take, (grads, nonzero) in _block_outputs(measure, m, replications, seed):
            zero_rows += int(take - nonzero.sum())
            acc.add(grads)
        bias_vec = acc.mean() - g_true
        bias_se = np.sqrt(acc.var() / acc.n)

    if zero_rows > 0.99 * replications:
        raise DegenerateError(
            f"rule {rule!r} emitted all-zero advantages on {zero_rows}/{replications} replications"
        )
    variance = float(acc.var().sum())
    bias_norm = float(np.linalg.norm(bias_vec))
    bias_vec.setflags(write=False)
    mse = {int(p): bias_norm**2 + variance / p for p in p_grid}
    return BiasVarianceRow(rule, m, bias_vec, bias_norm, variance, mse, replications, seed, bias_se, acc.var_se())


def frontier_row_seed(seed: int, rule_index: int, m_index: int) -> int:
    """Seed of the frontier row for (rule index, m index) under base ``seed``.

    A row's seed depends only on these three numbers, so adding rules or
    budgets never reshuffles existing rows.
    """
    return int(np.random.SeedSequence([seed, rule_index, m_index]).generate_state(1)[0])
