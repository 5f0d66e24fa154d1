"""Shared builders for canonical sources used across the test modules, and
reference implementations the tests compare against."""

import csv
import io
import itertools
import math
from collections import defaultdict
from functools import reduce
from pathlib import Path

import numpy as np

from ucrlab.channelcap import MixedChannel
from ucrlab.errors import InternalInvariantError, UndefinedDensityError
from ucrlab.converselab import _cmi
from ucrlab.probspace import (JointPmf, TriplePmf, compose_aux, entropy_bits,
                              mutual_information, subseed)
from ucrlab.protocol import (ExactResult, _decode_rule, _encode_batch, _uniform_int,
                             build_codebook)
from ucrlab.ucrcap import FEAS_TOL, _orbit_blocks


def h2(p: float) -> float:
    """Binary entropy in bits."""
    if p <= 0.0 or p >= 1.0:
        return 0.0
    return -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p)


def dsbs(p: float) -> JointPmf:
    """Uniform binary X, Y equals X flipped with probability p."""
    return JointPmf(np.array([[(1.0 - p) / 2.0, p / 2.0],
                              [p / 2.0, (1.0 - p) / 2.0]]))


def diagonal_source() -> JointPmf:
    """X = Y, uniform binary."""
    return JointPmf(np.array([[0.5, 0.0], [0.0, 0.5]]))


def independent_source(px, py) -> JointPmf:
    return JointPmf(np.outer(np.asarray(px, dtype=float),
                             np.asarray(py, dtype=float)))


def random_joint(rng: np.random.Generator, nx: int, ny: int,
                 concentration: float = 1.0) -> JointPmf:
    probs = rng.dirichlet(np.full(nx * ny, concentration)).reshape(nx, ny)
    return JointPmf(probs)


def source_to_dict(j: JointPmf) -> dict:
    """The source spec `source_from_dict` reads back as j, probs flat."""
    return {
        "alphabet_x": j.nx,
        "alphabet_y": j.ny,
        "probs": [float(v) for v in j.probs.ravel()],
    }


def markov_defect(t: TriplePmf) -> float:
    """I(U;Y|X) in bits for a (U, X, Y) triple; zero when U - X - Y holds."""
    p = t.probs
    h_ux = entropy_bits(p.sum(axis=2))
    h_xy = entropy_bits(p.sum(axis=0))
    h_uxy = entropy_bits(p)
    h_x = entropy_bits(p.sum(axis=(0, 2)))
    return h_ux + h_xy - h_uxy - h_x


def ucr_objective(source: JointPmf, aux) -> tuple[float, float]:
    """(I(U;X), I(U;X) - I(U;Y)) in bits for one auxiliary channel, straight
    from the composed (U, X, Y) law."""
    triple = compose_aux(source, aux.cond)
    i_ux = mutual_information(triple.pair_ux())
    i_uy = mutual_information(triple.pair_uy())
    gap = i_ux - i_uy
    if gap < -FEAS_TOL:
        raise InternalInvariantError(
            f"I(U;X) - I(U;Y) = {gap} < 0 despite the Markov chain")
    return i_ux, max(gap, 0.0)


def bsc_family(q: float, p: float) -> JointPmf:
    """Binary X with P[X = 1] = q, and Y = X xor Z with Z ~ Bernoulli(p)."""
    return JointPmf(np.array([[(1.0 - q) * (1.0 - p), (1.0 - q) * p],
                              [q * p, q * (1.0 - p)]]))


def bsc_family_curve(q: float, p: float, c_bits: float) -> float:
    """Exact V(C) for `bsc_family(q, p)`, 0 <= p <= 1/2.

    V(C) = H(X) - h(a*), where a* is the smallest a in [0, min(q, 1 - q)]
    with h(a * p) - h(a) <= C - H(X) + H(Y) and a * p = a(1 - p) + (1 - a)p.
    Mrs. Gerber's Lemma, H(Y|U) >= h(h^-1(H(X|U)) * p), bounds every U by
    it, and a binary U with X | U Bernoulli(a*) or Bernoulli(1 - a*) meets
    it. The left side decreases in a, so a* is a bisection; the returned
    end satisfies the inequality, so rounding only lowers the value.
    """
    def conv(a):
        return a * (1.0 - p) + (1.0 - a) * p

    h_x = h2(q)
    rhs = c_bits - h_x + h2(conv(q))
    lo, hi = 0.0, min(q, 1.0 - q)
    if h2(conv(lo)) - h2(lo) <= rhs:
        return h_x
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return h_x - h2(hi)
        if h2(conv(mid)) - h2(mid) <= rhs:
            hi = mid
        else:
            lo = mid


def erasure_family(px, e: float) -> JointPmf:
    """Y is X, or the erasure symbol (last column) with probability e."""
    px = np.asarray(px, dtype=float)
    return JointPmf(np.column_stack([np.diag(px * (1.0 - e)), px * e]))


def erasure_family_curve(px, e: float, c_bits: float) -> float:
    """Exact V(C) = min(H(X), C / e) for `erasure_family(px, e)`, e > 0:
    I(U;Y) = (1 - e) I(U;X), so the gap is e I(U;X)."""
    h_x = -sum(v * math.log2(v) for v in px if v > 0.0)
    return min(h_x, c_bits / e)


def climb_reference(slope_vec: np.ndarray, starts: np.ndarray, terms, steps: int) -> np.ndarray:
    """The information-bottleneck fixed-point update of `ucrcap._climb`, one
    climber at a time: starts and the result are (M, u, x) stacks, and every
    contraction is a matmul per climber. terms comes from `_source_terms`."""
    px, pxy, _, _ = terms
    cond = np.divide(pxy, px[:, None], out=np.zeros_like(pxy), where=px[:, None] > 0.0)
    beta = (slope_vec / (slope_vec - 1.0))[:, None, None]
    cur = starts.copy()
    for _ in range(steps):
        pu = cur @ px  # (M, u)
        puy = cur @ pxy  # (M, u, y)
        log_pu = np.log2(pu, out=np.full_like(pu, -np.inf), where=pu > 0.0)
        log_q = np.log2(puy, out=np.zeros_like(puy), where=puy > 0.0)
        log_q -= np.where(puy > 0.0, log_pu[..., None], 0.0)
        logit = log_pu[..., None] + beta * (log_q @ cond.T)  # (M, u, x)
        logit[(puy == 0.0) @ (cond.T > 0.0)] = -np.inf
        cur = np.exp2(logit - logit.max(axis=1, keepdims=True))
        cur /= cur.sum(axis=1, keepdims=True)
    return cur


def orbit_indices(row_pts: np.ndarray, x_card: int, start: int, stop: int) -> np.ndarray:
    """Every flat index `_orbit_blocks` yields for [start, stop), in one array."""
    return np.concatenate([np.empty(0, dtype=np.int64),
                           *_orbit_blocks(row_pts, x_card, start, stop)])


def draw_index(rng: np.random.Generator, n1: int, theta: float) -> tuple[float, int]:
    """The index channel's draws, one trial at a time: the flip uniform,
    then, only when the flip sends it (flip < theta), the alternative index
    in 1..n1; 0 marks an alternative not drawn. The reference for the
    order in which `protocol._trial_blocks` consumes a trial's stream."""
    flip = rng.random()
    return flip, (_uniform_int(rng, n1) if flip < theta else 0)


def matmul_typical_mask(words: np.ndarray, seqs: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    """bool (S, W): robust joint typicality of each word of words (W, n)
    against each sequence of seqs (S, n) under bounds, a `_count_bounds`
    table, by a kernel of its own: the counts #(u=a, x=b) of every symbol
    but the last are one float32 matmul of 0/1 indicators, 64 sequences at
    a time, and the last symbol's count is #(x=b) less the others'. Exact
    for n < 2**24, far past the block lengths tested."""
    lo, hi = bounds
    u_card, n_b = lo.shape
    blocks = (words.T == np.arange(u_card - 1)[:, None, None]).astype(np.float32)
    out = np.ones((seqs.shape[0], words.shape[0]), dtype=bool)
    for s0 in range(0, seqs.shape[0], 64):
        ind = (seqs[s0:s0 + 64, None] == np.arange(n_b)[:, None]).astype(np.float32)
        s = ind.shape[0]
        counts = np.matmul(ind.reshape(s * n_b, -1), blocks)
        counts = counts.reshape(u_card - 1, s, n_b, words.shape[0])
        totals = ind.sum(axis=2)
        for b in range(n_b):
            cells = list(counts[:, :, b])
            cells.append(totals[:, b, None] - sum(cells, np.zeros((s, 1), np.float32)))
            for a, c in enumerate(cells):
                out[s0:s0 + s] &= (lo[a, b] <= c) & (c <= hi[a, b])
    return out


def _dense_tables(cfg):
    """The dense references' tables: the class count, each x's class K,
    the class each (x, y) decodes to in x's sent row, the class counts
    classes x 2**n over all N1 + 1 rows, from a decode table by
    `matmul_typical_mask`, and the pair law, x rows."""
    n, n1, n2 = cfg.n, cfg.n1, cfg.n2
    n_x = 2 ** n
    cb = build_codebook(cfg)
    xs = np.array(list(itertools.product(range(2), repeat=n)), dtype=np.int8)

    index = cb.value_index
    u0_cls = index.first.size
    n_cls = u0_cls + 1

    found = _encode_batch(cb, xs)
    k_cls = np.where(found >= 0, index.cls[found], u0_cls)
    i_star = np.where(found >= 0, found // n2 + 1, n1 + 1)

    t_uy = matmul_typical_mask(cb.words.reshape(n1 * n2, n), xs, cb.uy_bounds)
    t_uy = t_uy.reshape(n_x, n1, n2)
    row_cls = index.cls.reshape(n1, n2)
    lead, _ = _decode_rule(t_uy, row_cls)
    l_tab = np.full((n1 + 1, n_x), u0_cls, dtype=np.int64)
    l_tab[:n1] = np.where(lead >= 0, row_cls[np.arange(n1), lead], u0_cls).T

    cnt_all = np.bincount((l_tab * n_x + np.arange(n_x)).ravel(),
                          minlength=n_cls * n_x).reshape(n_cls, n_x)
    p_joint = reduce(np.kron, [cfg.source.probs] * n, np.ones((1, 1)))  # (n_x, n_x), x rows
    return n_cls, k_cls, l_tab[i_star - 1], cnt_all, p_joint


def dense_exact_analyze(cfg, include_joint: bool = True):
    """`protocol.exact_analyze` as one dense pass over the whole pair space:
    every (x^n, y^n) table built at once, each sum taken by numpy along
    whole rows or over one entry per x or per class. An independent
    reference for the blocked analyzer and its kernel, which must return
    the same bits."""
    n, n1 = cfg.n, cfg.n1
    n_x = 2 ** n
    n_cls, k_cls, l_at_star, cnt_all, p_joint = _dense_tables(cfg)
    cnt_all = cnt_all.astype(float)
    p_x = p_joint.sum(axis=1)
    p_y = reduce(np.kron, [cfg.source.probs.sum(axis=0)] * n, np.ones(1))

    theta, w_other = cfg.theta, cfg.theta / float(n1)
    eq_star = (l_at_star == k_cls[:, None]).astype(float)
    eq_elsewhere = cnt_all[k_cls, :] - eq_star
    p_agree_xy = (1.0 - theta) * eq_star + w_other * eq_elsewhere
    p_disagree = min(max(float(1.0 - (p_joint * p_agree_xy).sum(axis=1).sum()), 0.0), 1.0)

    p_k = np.bincount(k_cls, weights=p_x, minlength=n_cls)
    joint_ky = np.bincount((k_cls[:, None] * n_x + np.arange(n_x)).ravel(),
                           weights=p_joint.ravel(),
                           minlength=n_cls * n_x).reshape(n_cls, n_x)
    h_k = entropy_bits(p_k)
    h_ky = float(np.array([entropy_bits(row) for row in joint_ky]).sum())
    h_k_given_y = max(h_ky - entropy_bits(p_y), 0.0)

    # the sent row's L law less the index channel's share of it, x rows in
    # class order, plus the index channel's errors: a pairwise sum per class
    by_class = np.argsort(k_cls, kind="stable")
    p_l = np.bincount(l_at_star[by_class].ravel(),
                      weights=(p_joint[by_class] * (1.0 - theta - w_other)).ravel(),
                      minlength=n_cls)
    p_l += (cnt_all * (p_y * w_other)).sum(axis=1)
    if abs(p_l.sum() - 1.0) > 1e-9:
        raise InternalInvariantError(f"output law sums to {p_l.sum()}")
    p_l = np.clip(p_l, 0.0, None)
    h_l = entropy_bits(p_l / p_l.sum())

    log2_card = math.log2(cfg.k_cardinality)
    return ExactResult(
        p_disagree=p_disagree,
        entropy_k_bits=h_k,
        entropy_k_given_y_bits=h_k_given_y,
        entropy_l_bits=h_l,
        uniformity_gap_bits=abs(h_k / n - log2_card / n),
        claim_rate_bits=h_k_given_y / n,
        joint_ky=joint_ky if include_joint else None,
    )


def exactly_rounded_entropy_l_bits(cfg) -> float:
    """H(L) of the exact protocol law with each class's mass added by
    math.fsum from its rounded terms: (1 - theta) p(x, y) and -theta/N1
    p(x, y) for each pair whose sent row decodes y to it, and theta/N1 times
    its decode count at y times p(y), for each y, with p(y) the fsum of its
    column. The entropy's terms are added by math.fsum as well."""
    n_cls, _, l_at_star, cnt_all, p_joint = _dense_tables(cfg)
    theta, w_other = cfg.theta, cfg.theta / float(cfg.n1)
    p_y = np.array([math.fsum(col) for col in p_joint.T])
    l_star = l_at_star.ravel()
    order = np.argsort(l_star, kind="stable")
    cuts = np.searchsorted(l_star[order], np.arange(n_cls + 1))
    sent = p_joint.ravel()[order]
    p_l = np.array([math.fsum([*(sent[lo:hi] * (1.0 - theta)), *(sent[lo:hi] * -w_other),
                               *(cnt_all[c] * p_y * w_other)])
                    for c, (lo, hi) in enumerate(zip(cuts[:-1], cuts[1:]))])
    p_l = p_l[p_l > 0.0]
    return -math.fsum(p_l * np.log2(p_l))


def telescoping_rhs_reference(inst) -> float:
    """The telescoping identity's right side, n [I(S;X_J|V) - I(S;Y_J|V)],
    by one pass over the joint's cells: each nonzero cell adds p / n to the
    (S, X_j, V) and (S, Y_j, V) laws of every coordinate j, with
    V = (X before j, Y after j, R, j) kept as a dict key."""
    n = inst.n
    joint = inst.joint
    x_side: dict[tuple, float] = defaultdict(float)
    y_side: dict[tuple, float] = defaultdict(float)
    for idx in np.ndindex(*joint.shape):
        p = joint[idx]
        if p == 0.0:
            continue
        s, r = idx[0], idx[1]
        xs = idx[2:2 + n]
        ys = idx[2 + n:]
        for j in range(n):
            v = (xs[:j], ys[j + 1:], r, j)
            x_side[(s, xs[j], v)] += p / n
            y_side[(s, ys[j], v)] += p / n

    v_index = {v: i for i, v in enumerate(sorted({key[2] for key in x_side}
                                                 | {key[2] for key in y_side}))}

    def to_array(side: dict[tuple, float], sym_card: int) -> np.ndarray:
        arr = np.zeros((inst.s_card, sym_card, len(v_index)))
        for (s, sym, v), p in side.items():
            arr[s, sym, v_index[v]] += p
        return arr

    return n * (_cmi(to_array(x_side, inst.x_card)) - _cmi(to_array(y_side, inst.y_card)))


_EXACT_CELL = {bool: lambda v: "true" if v else "false", int: str, str: str}


def _row_cell(v) -> str:
    fmt = _EXACT_CELL.get(type(v))
    if fmt is not None:
        return fmt(v)
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


def write_csv_rows(path, header: list[str], rows) -> None:
    """`serialize.write_csv` one row at a time through csv.writer, each cell
    formatted on its own: the reference the column writer must match byte
    for byte."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\r\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_row_cell(v) for v in row])
    Path(path).write_text(buf.getvalue(), encoding="utf-8", newline="")


def ref_categorical_cells(probs, u, rows=None) -> np.ndarray:
    """The inverse cdf as it was drawn before the per-row masks: with a
    table, each step's thresholds gathered by cum[rows, k], and the cells
    counted in the smallest signed dtype that holds K."""
    cum = np.cumsum(probs, axis=-1)
    cell = np.zeros(np.shape(u), dtype=np.min_scalar_type(-cum.shape[-1]))
    for k in range(cum.shape[-1] - 1):
        cell += u >= (cum[k] if rows is None else cum[rows, k])
    return cell


def ref_log2_likelihood(kernel, t, z):
    """log2 P(z^n | t^n) scored as it was before flat cells: int64 blocks
    and the 2-D gather np.log2(W)[t, z], summed along the block."""
    t, z = np.asarray(t, dtype=np.int64), np.asarray(z, dtype=np.int64)
    if isinstance(kernel, MixedChannel):
        return np.logaddexp2.reduce([math.log2(w) + ref_log2_likelihood(k, t, z)
                                     for w, k in kernel.components if w > 0.0])
    with np.errstate(divide="ignore"):
        return np.log2(kernel.kernel.rows)[t, z].sum(axis=-1)


def ref_log2_output_prob(kernel, input_pmf, z):
    """log2 P(z^n) as it was scored before: int64 z and np.log2(q)[z]."""
    z = np.asarray(z, dtype=np.int64)
    if isinstance(kernel, MixedChannel):
        return np.logaddexp2.reduce([math.log2(w) + ref_log2_output_prob(k, input_pmf, z)
                                     for w, k in kernel.components if w > 0.0])
    with np.errstate(divide="ignore"):
        return np.log2(input_pmf.probs @ kernel.kernel.rows)[z].sum(axis=-1)


def ref_information_density(kernel, input_pmf, t, z):
    ll = ref_log2_likelihood(kernel, t, z)
    lo = ref_log2_output_prob(kernel, input_pmf, z)
    if np.any(ll == -np.inf) or np.any(lo == -np.inf):
        raise UndefinedDensityError("zero likelihood or output mass at this block")
    return (ll - lo) / np.shape(t)[-1]


def ref_sample_output(kernel, t, rng):
    """The channel draw from the same generator: a mixture draws one branch
    per block, then each branch its blocks' outputs, in the smallest signed
    dtype that holds the output alphabet."""
    t = np.asarray(t, dtype=np.int64)
    if not isinstance(kernel, MixedChannel):
        return ref_categorical_cells(kernel.kernel.rows, rng.random(t.shape), t)
    weights = np.array([w for w, _ in kernel.components])
    batch = t.reshape(-1, t.shape[-1])
    branch = rng.choice(len(kernel.components), size=batch.shape[0],
                        p=weights / weights.sum())
    z = np.empty(batch.shape, dtype=np.min_scalar_type(-kernel.n_out))
    for k, (_, component) in enumerate(kernel.components):
        rows = branch == k
        if rows.any():
            z[rows] = ref_sample_output(component, batch[rows], rng)
    return z.reshape(t.shape)


def ref_spectrum_samples(kernel, input_pmf, n: int, num_samples: int, seed: int) -> np.ndarray:
    """The unsorted densities of the documented batch layout: batches of
    max(1, 2**16 // n) blocks, batch b seeded by subseed(seed, 11, n, b),
    inputs drawn first, then the outputs."""
    per_batch = max(1, 2 ** 16 // n)
    values = []
    for b, start in enumerate(range(0, num_samples, per_batch)):
        rng = np.random.default_rng(subseed(seed, 11, n, b))
        size = min(per_batch, num_samples - start)
        t = ref_categorical_cells(input_pmf.probs, rng.random((size, n)))
        z = ref_sample_output(kernel, t, rng)
        values.append(ref_information_density(kernel, input_pmf, t, z))
    return np.concatenate(values)
