"""Typed-codebook agreement protocol over a genie index link.

One terminal observes a source block, encodes it to the first codebook
word jointly typical with it, and ships the word's row index through an
index channel that delivers correctly except with probability theta. The
other terminal observes the correlated block plus the received row index
and bets on the unique jointly typical word inside that row. Both sides
fall back to the reserved value that index N1 + 1 sends when nothing (or
too much) matches.
The two outputs form the common-randomness pair (K, L) whose agreement,
cardinality, and uniformity this module measures, by Monte Carlo for
large blocks and by one exact walk of the pair law for small binary
ones: each of its sums runs along one row or over one entry per block
or per class, so the sums keep their bits at any block size.

Two evaluation engines back run_monte_carlo. The materialized engine
draws the full codebook and scans it. The statistical engine serves
configs whose codebook exceeds the memory guard (deterministic binary
auxiliaries only): it replaces the codebook by its sufficient statistics,
drawing presence of a value via its Poissonized occupancy and spurious
row matches via an exact type-class match probability, so the per-trial
law matches a materialized run up to collision terms that are negligible
in exactly the regimes that need this engine.

Both engines run trials in batches of max(1, 2**18 // n) and return
them as columns. One typicality rule, _count_bounds, serves every test,
through the (u, x) and (u, y) tables ProtocolConfig computes once:
_typical_mask applies them to words scanned against sequences, counting
joint types as popcounts of symbol bitsets, _types_typical to the joint
types of a deterministic map's words, and _overlap_range to the joint
types a word of a binary codebook's one type can form with a block of
given symbol counts. Typicality depends on the
joint type alone, so a block no such type fits is typical with no word:
for a binary U the encoder's and decoder's scans and exact_analyze's
decode table pass only the blocks Codebook.admits to _typical_mask, and
the statistical engine's row-match probability reads its overlap
interval off the same range. A run derives one PCG64 stream from
subseed(seed, _TRIAL_KEY) and cuts it into substreams with PCG64's
jump-ahead: substream k starts where PCG64.jumped(k) would, k
golden-ratio fractions of the period into the stream. Trial t draws its
source block, then the index channel's flip and, when the flip sends it,
the alternative index, from substream 2t, and the statistical engine's
conditional draws from substream 2t + 1. An outcome therefore depends on
its trial number alone, not on the batch it ran in.

The key K is a word value, so duplicate words count once. One numpy
value index per codebook, Codebook.value_index, numbers the values in
first-occurrence order and keeps their sorted keys: the encoder phi,
_encode_batch, looks det_map[x] up in it, and the decoder psi,
_decode_batch, and the exact analyzer apply one rule, _decode_rule, to
its classes. Both work on batches of blocks.
"""
from __future__ import annotations

import hashlib
import math
from collections.abc import Callable, Iterator
from dataclasses import dataclass, fields
from functools import cache, cached_property, partial
from typing import NamedTuple

import numpy as np

from .errors import GuardError, InternalInvariantError, ValidationError
from .probspace import (
    JointPmf,
    Pmf,
    _cell_dtype,
    as_rng,
    compose_aux,
    entropy_bits,
    mutual_information,
    pairs_from_uniforms,
    subseed,
    type_counts,
)
from .ucrcap import AuxiliaryChannel

_LN2 = math.log(2.0)
_CODEBOOK_KEY = 23
_TRIAL_KEY = 29
_ROW_KEY = 31
MEMORY_GUARD = 10 ** 9          # codebook symbols
# bits of N1 or N2, which are written in decimal: CPython refuses to write
# an int of more than 4,300 digits, and 2**14284 has 4,300
INDEX_BITS_GUARD = 14284
EXACT_PAIR_GUARD = 2 ** 20      # enumerated (x^n, y^n) pairs
EXACT_SCAN_GUARD = 2 * 10 ** 7  # words x sequences typicality cells
EXACT_CLASS_GUARD = 2 ** 23     # value classes x sequences small-int class counts
TRIAL_LIMIT = 2 ** 32           # substreams below 2**33 start >= 2**93 draws apart
# Fewest words per row the statistical engine accepts. Against the
# materialized engine at 4000 trials, DSBS(0.25), identity auxiliary,
# n = 12, mu = 0.02, eps 0.9, theta 0.05, seed 3 (N2 = 3) drifts 2.7 pooled
# binomial SE in ambiguous decodes, while configs with N2 of 65, 119 and
# 294 stay within 1.5 SE.
STATISTICAL_MIN_N2 = 64


def pow2_floor(bits: float) -> int:
    """floor(2**bits) as an exact integer, usable far beyond float range.

    For bits >= 53 the result is the canonical rounding m * 2^(bits-53)
    with m the 53-bit mantissa floor; the input is itself a float, so
    digits below its precision are not claimed.
    """
    if bits < 0.0:
        return 0
    if bits < 53.0:
        return math.floor(2.0 ** bits)
    i = math.floor(bits)
    m = math.floor(2.0 ** (bits - i) * (1 << 53))
    return m << (i - 53)


def _uniform_int(rng: np.random.Generator, n: int) -> int:
    """Uniform integer in 1..n for arbitrarily large n (rejection on bits)."""
    if n < 1:
        raise ValidationError(f"uniform draw needs n >= 1, got {n}")
    if n <= 2 ** 62:
        return int(rng.integers(1, n + 1))
    k = (n - 1).bit_length()
    nbytes = (k + 7) // 8
    mask = (1 << k) - 1
    while True:
        v = int.from_bytes(rng.bytes(nbytes), "little") & mask
        if v < n:
            return v + 1


def _value_seed_key(value: bytes) -> tuple[int, ...]:
    digest = hashlib.sha256(value).digest()
    return tuple(int.from_bytes(digest[4 * i: 4 * i + 4], "little") for i in range(4))


@dataclass(frozen=True)
class ProtocolConfig:
    """Full description of one protocol run.

    n: block length; mu: rate margin in bits; theta: index channel error
    probability; eps_typ: robust-typicality tolerance; aux: channel from
    the X alphabet to the codeword alphabet; source: joint block law.

    The row/column counts follow the construction's exponents: N1 counts
    rows at rate I(U;X) - I(U;Y) + 3*mu and N2 columns at I(U;Y) - 2*mu.
    A raw N2 < 1 means the margin swallowed the column rate; that config
    is rejected unless allow_degenerate_rate clamps N2 to 1. The words'
    type u_type, the deterministic map det_map and the typicality tables
    ux_bounds and uy_bounds are derived here once, for both engines.
    """

    n: int
    mu: float
    theta: float
    eps_typ: float
    aux: AuxiliaryChannel
    source: JointPmf
    seed: int = 0
    allow_degenerate_rate: bool = False

    def __post_init__(self):
        if int(self.n) != self.n or self.n < 1:
            raise ValidationError(f"block length must be a positive integer, got {self.n}")
        if not (self.mu > 0.0):
            raise ValidationError(f"rate margin mu must be > 0, got {self.mu}")
        if not (0.0 <= self.theta < 1.0):
            raise ValidationError(f"theta must be in [0, 1), got {self.theta}")
        if not (0.0 < self.eps_typ < 1.0):
            raise ValidationError(f"eps_typ must be in (0, 1), got {self.eps_typ}")
        if self.aux.x_card != self.source.nx:
            raise ValidationError(
                f"aux input alphabet {self.aux.x_card} does not match source X alphabet "
                f"{self.source.nx}")
        rate = max(self.i_ux - self.i_uy + 3.0 * self.mu, self.i_uy - 2.0 * self.mu)
        if rate >= INDEX_BITS_GUARD / self.n:  # n * rate overflows a float past n = 1e308
            raise GuardError(f"N1 or N2 needs {INDEX_BITS_GUARD} bits or more at n = {self.n} "
                             f"and {rate:.6f} bits a symbol; lower n or mu")
        if self.n2_raw < 1 and not self.allow_degenerate_rate:
            raise ValidationError(
                f"I(U;Y) - 2*mu = {self.i_uy - 2 * self.mu:.6f} yields N2 = 0; shrink mu "
                "or set allow_degenerate_rate=True to clamp N2 to 1")

    @cached_property
    def _triple(self):
        return compose_aux(self.source, self.aux.cond)

    @cached_property
    def i_ux(self) -> float:
        return mutual_information(self._triple.pair_ux())

    @cached_property
    def i_uy(self) -> float:
        return mutual_information(self._triple.pair_uy())

    @cached_property
    def p_u(self) -> np.ndarray:
        return self._triple.marginal(0).probs

    @cached_property
    def u_type(self) -> np.ndarray:
        """The codebook's type: type_counts(P_U, n), one count per symbol of U."""
        return type_counts(Pmf(self.p_u), self.n)

    @cached_property
    def det_map(self) -> np.ndarray | None:
        """The auxiliary's map x -> u in the words' dtype, if it is deterministic."""
        cond = self.aux.cond
        if not cond.is_deterministic():
            return None
        return cond.rows.argmax(axis=1).astype(_cell_dtype(self.u_card))

    @cached_property
    def n1(self) -> int:
        return max(pow2_floor(self.n * (self.i_ux - self.i_uy + 3.0 * self.mu)), 1)

    @cached_property
    def n2_raw(self) -> int:
        return pow2_floor(self.n * (self.i_uy - 2.0 * self.mu))

    @cached_property
    def n2(self) -> int:
        return max(self.n2_raw, 1)

    @property
    def u_card(self) -> int:
        return self.aux.u_card

    @cached_property
    def ux_bounds(self) -> np.ndarray:
        """_count_bounds of the (u, x) law: the encoder's typicality test."""
        return _count_bounds(self._triple.pair_ux().probs, self.eps_typ, self.n)

    @cached_property
    def uy_bounds(self) -> np.ndarray:
        """_count_bounds of the (u, y) law: the decoder's typicality test."""
        return _count_bounds(self._triple.pair_uy().probs, self.eps_typ, self.n)

    @property
    def k_cardinality(self) -> int:
        return self.n1 * self.n2 + 1

    @property
    def log2_k_cardinality(self) -> float:
        return math.log2(self.k_cardinality)

    @property
    def cardinality_bound_log2(self) -> float:
        return self.n * (self.i_ux + self.mu + 1.0)

    @property
    def cardinality_ok(self) -> bool:
        return self.log2_k_cardinality <= self.cardinality_bound_log2 + 1e-9

    @property
    def codebook_symbols(self) -> int:
        return self.n1 * self.n2 * self.n


def _value_keys(words: np.ndarray, u_card: int) -> np.ndarray:
    """Keys (W,) of words (W, n) over 0..u_card-1, equal exactly where the
    words are: their _bitsets over every symbol but the last (over the one
    symbol when u_card = 1) as big-endian uint64 columns, held as one opaque
    item; keys therefore sort as their columns do, lexicographically."""
    cols = _bitsets(words, max(u_card - 1, 1))
    cols = cols.reshape(len(cols), cols.shape[1] * cols.shape[2]).astype(">u8")
    return cols.view(f"V{8 * cols.shape[1]}")[:, 0]


class _ValueIndex(NamedTuple):
    """The distinct values of a codebook's words, flat in row-major order.

    cls[w] is word w's value class. Classes are numbered in the order their
    first words occur, and first[c] is class c's first word. keys holds the
    classes' _value_keys in sorted order, and key_cls their classes.
    Class ids are int32: MEMORY_GUARD keeps every codebook below 2**31 words.
    """

    cls: np.ndarray
    first: np.ndarray
    keys: np.ndarray
    key_cls: np.ndarray


@dataclass(frozen=True)
class Codebook:
    """N1 x N2 words of one exact quantized type, with the config's
    typicality tables ux_bounds and uy_bounds (see _count_bounds).

    value_index says which words share a value, for the encoder, the
    decoder and the exact analyzer alike, and bits holds the words' symbol
    bitsets for the typicality kernel. word_type is the type every word
    has, read off the words; admits tells from a block's symbol counts
    whether any word of that type can be typical with it, so the scans
    skip the blocks it refuses. It refuses blocks only for a binary U
    whose words share one type, as build_codebook's do.
    """

    words: np.ndarray
    n1: int
    n2: int
    ux_bounds: np.ndarray
    uy_bounds: np.ndarray
    det_map: np.ndarray | None

    @property
    def n(self) -> int:
        return self.words.shape[2]

    @property
    def u_card(self) -> int:
        return self.ux_bounds.shape[1]

    @property
    def scans(self) -> bool:
        """Whether the encoder scans the codebook rather than looking its word
        up. A deterministic auxiliary gives the cells u != det_map[x] zero mass,
        so only det_map[x] can be typical with x: a scan finds its first word."""
        return self.det_map is None

    @cached_property
    def bits(self) -> np.ndarray:
        """The words' _bitsets over every symbol but the last, (W, u_card - 1,
        n_k), built on first use. A scanning encoder scans them, its decoder
        gathers the rows it receives, and exact_analyze decodes against all.
        """
        return _bitsets(self.words.reshape(self.n1 * self.n2, self.n), self.u_card - 1)

    @cached_property
    def value_index(self) -> _ValueIndex:
        """Which words share a value, built on first use."""
        keys = _value_keys(self.words.reshape(self.n1 * self.n2, self.n), self.u_card)
        # stable: equal values stay in row-major order
        order = np.lexsort(keys.view(">u8").reshape(keys.size, -1).astype(np.uint64).T[::-1])
        keys = keys[order]
        new = np.r_[True, keys[1:] != keys[:-1]]
        keys, firsts = keys[new], order[new]    # each value's key and first word
        key_cls = np.argsort(np.argsort(firsts)).astype(np.int32)
        word_cls = np.empty(order.size, dtype=np.int32)
        word_cls[order] = key_cls[np.cumsum(new, dtype=np.int32) - 1]
        return _ValueIndex(word_cls, np.sort(firsts), keys, key_cls)

    @cached_property
    def word_type(self) -> np.ndarray | None:
        """The symbol counts (u_card,) every word has, or None when two
        words' types differ."""
        flat = self.words.reshape(self.n1 * self.n2, self.n)
        counts = np.stack([np.count_nonzero(flat == a, axis=1) for a in range(self.u_card)],
                          axis=1)
        return counts[0] if (counts == counts[0]).all() else None

    def admits(self, seqs: np.ndarray, bounds: np.ndarray) -> np.ndarray:
        """bool (S,): whether some joint type of a word of word_type with
        each sequence of seqs (S, n) lies inside bounds, a _count_bounds
        table with seqs' alphabet as its columns. A refused sequence is
        typical with no word. For a U that is not binary, or words of
        differing types, every sequence is admitted."""
        if self.u_card != 2 or self.word_type is None:
            return np.ones(seqs.shape[0], dtype=bool)
        counts = (seqs[:, :, None] == np.arange(bounds.shape[2])).sum(axis=1)
        lo, hi = _overlap_range(int(self.word_type[0]), bounds, counts)
        return (lo <= hi).all(axis=1)

    def find(self, words: np.ndarray) -> np.ndarray:
        """Flat index of the first word equal to each of words (Q, n), or -1."""
        index = self.value_index
        query = _value_keys(words, self.u_card)
        pos = np.minimum(np.searchsorted(index.keys, query), index.keys.size - 1)
        return np.where(index.keys[pos] == query, index.first[index.key_cls[pos]], -1)


def _decode_rule(mask: np.ndarray, cls: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The decoder's rule on typical-word masks (..., W), given the words'
    value classes broadcast against them: (lead, distinct). lead is the
    first typical word's position where exactly one value is typical, else
    -1 for the fallback (no typical word, or two values); distinct is the
    count of typical values capped at 2, found by comparing each typical
    word's class with the first's.
    """
    first = mask.argmax(axis=-1)
    cls = np.broadcast_to(cls, mask.shape)
    other = mask & (cls != np.take_along_axis(cls, first[..., None], axis=-1))
    distinct = mask.any(axis=-1).astype(np.intp) + other.any(axis=-1)
    return np.where(distinct == 1, first, -1), distinct


_SCAN_CELLS = 2 ** 16           # word x sequence cells per kernel step
_ENCODE_CHUNK = 65536           # codebook words per encoder scan step
_TRIAL_BATCH_SYMBOLS = 2 ** 18  # source symbols per Monte Carlo batch
_DRAW_BLOCK = 2 ** 15           # uniforms per fill of a Monte Carlo batch
_EXACT_BLOCK = 2 ** 16          # cells or pairs per block of exact_analyze


def _bitsets(seqs: np.ndarray, symbols: int) -> np.ndarray:
    """uint64 bitsets (..., symbols, n_k) of seqs (..., n), n_k = ceil(n / 64):
    bit i % 64 of word i // 64 of set a marks seqs[..., i] == a."""
    n = seqs.shape[-1]
    packed = np.zeros(seqs.shape[:-1] + (symbols, -(-n // 64) * 8), dtype=np.uint8)
    for a in range(symbols):
        packed[..., a, :-(-n // 8)] = np.packbits(seqs == a, axis=-1, bitorder="little")
    return packed.view("<u8")


def _count_bounds(ref: np.ndarray, eps: float, n: int) -> np.ndarray:
    """int64 (2, u_card, n_b): cell (a, b) of the pair law ref is robustly
    typical at block length n exactly for the counts c in
    [lo, hi] = bounds[:, a, b]. Read-only.

    Read off the typicality test itself, |c - n p| <= eps n p, at every
    count 0..n. The passing counts form an interval because fl(c - n p)
    is monotone in c; a cell no count passes gets lo = n + 1 > hi = -1.
    """
    p = np.asarray(ref, dtype=np.float64)[:, :, None]
    c = np.arange(n + 1)
    table = np.abs(c - n * p) <= eps * n * p
    passes = table.any(axis=2)
    lo = np.where(passes, table.argmax(axis=2), n + 1)
    hi = np.where(passes, n - table[:, :, ::-1].argmax(axis=2), -1)
    if not np.array_equal(table.sum(axis=2), np.maximum(hi - lo + 1, 0)):
        raise InternalInvariantError("the typical counts of a cell do not form an interval")
    bounds = np.stack([lo, hi])
    bounds.flags.writeable = False
    return bounds


def _overlap_range(t0: int, bounds: np.ndarray,
                   counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The overlaps c[0, b] = #(u=0, z=b) a binary U allows: int64 (lo, hi),
    (B, n_b) each, the least and greatest c[0, b] over the joint types of a
    word with t0 zeros and a block with symbol counts counts[t] (B, n_b)
    whose every cell lies in bounds, a (2, 2, n_b) _count_bounds table.

    Such a type is fixed by its overlaps: c[1, b] = counts[t, b] - c[0, b],
    and the c[0, b] sum to t0. Each column's two cells bound c[0, b] to an
    interval, and the sum narrows each interval by the others' ends. A
    type exists exactly when every range is non-empty, lo <= hi. Every lo
    of bounds is at least 0, so the counts a range admits are never
    negative.
    """
    lo, hi = bounds.astype(np.int64)
    c_lo = np.maximum(lo[0], counts - hi[1])
    c_hi = np.minimum(hi[0], counts - lo[1])
    lo_sum = c_lo.sum(axis=1, keepdims=True)
    hi_sum = c_hi.sum(axis=1, keepdims=True)
    return np.maximum(c_lo, t0 - (hi_sum - c_hi)), np.minimum(c_hi, t0 - (lo_sum - c_lo))


def _typical_mask(bits: np.ndarray, seqs: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    """Robust joint typicality of every word against every sequence.

    bits holds the words' _bitsets over every symbol but the last, (W, n_a,
    n_k), and seqs is (S, n) over the columns of bounds, the _count_bounds
    of a pair law at block length n; the result is bool (S, W). With a
    leading batch axis on both, (B, W, n_a, n_k) and (B, S, n), entry t
    tests seqs[t] against its own words bits[t] and the result is (B, S, W).
    A count #(u=a, x=b) is the popcount of the AND of two bitsets, exact at
    any n. The last symbol's count is #(x=b) less the others', so its
    bounds become one interval per sequence on their sum; for a binary U
    the sum is the one count, whose own bounds fold into that interval. A
    word is typical when every count lies in its cell's bounds.
    """
    batched = bits.ndim == 4
    if not batched:
        bits, seqs = bits[None], seqs[None]
    n_t, n_s, n = seqs.shape
    n_w, n_a = bits.shape[1], bits.shape[2]
    lo, hi = bounds
    dtype = np.min_scalar_type(n + 1)
    out = np.empty((n_t, n_s, n_w), dtype=bool)
    s_step = max(1, _SCAN_CELLS // max(n_w, 1))
    t_step = max(1, _SCAN_CELLS // max(n_w * n_s, 1))
    for t0 in range(0, n_t, t_step):
        words = bits[t0:t0 + t_step, None]                              # (t, 1, W, n_a, n_k)
        for s0 in range(0, n_s, s_step):
            marks = _bitsets(seqs[t0:t0 + t_step, s0:s0 + s_step], lo.shape[1])[:, :, None]
            totals = np.bitwise_count(marks).sum(axis=-1, dtype=np.int64)  # #(x=b)
            ok = out[t0:t0 + t_step, s0:s0 + s_step]
            ok[...] = True
            pair = np.empty(ok.shape + marks.shape[-1:], dtype=np.uint64)
            for b in range(lo.shape[1]):
                checks, run = [], np.zeros((), dtype=dtype)
                for a in range(n_a):
                    np.bitwise_and(words[..., a, :], marks[..., b, :], out=pair)
                    count = np.bitwise_count(pair)
                    count = count[..., 0] if n <= 64 else count.sum(axis=-1, dtype=dtype)
                    checks += [(count, lo[a, b], hi[a, b])] if n_a > 1 else []
                    run = count if a == 0 else run + count
                # the last symbol's count is #(x=b) less the others': their sum's interval
                lo_b, hi_b = totals[..., b] - hi[-1, b], totals[..., b] - lo[-1, b]
                if n_a == 1:
                    lo_b, hi_b = np.maximum(lo_b, lo[0, b]), np.minimum(hi_b, hi[0, b])
                # in counts' unsigned dtype: lo <= c < hi + 1, both clamped to 0..n + 1
                for count, c_lo, c_hi in checks + [(run, lo_b, hi_b)]:
                    ok &= np.clip(c_lo, 0, n + 1).astype(dtype) <= count
                    ok &= count < np.clip(c_hi + 1, 0, n + 1).astype(dtype)
    return out if batched else out[0]


def _joint_types(x: np.ndarray, z: np.ndarray, nx: int, nz: int) -> np.ndarray:
    """int64 (B, nx, nz): the joint type of each pair of blocks x[t], z[t],
    (B, n) each over 0..nx-1 and 0..nz-1, as popcounts of the ANDs of
    their _bitsets."""
    pairs = _bitsets(x, nx)[:, :, None] & _bitsets(z, nz)[:, None]
    return np.bitwise_count(pairs).sum(axis=-1, dtype=np.int64)


def _types_typical(types: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    """Robust joint typicality of joint types (B, a, b), by the same rule as
    _typical_mask: every count lies in its cell's bounds."""
    lo, hi = bounds
    return ((lo <= types) & (types <= hi)).all(axis=(1, 2))


def _lookup_typical(det_map: np.ndarray, ux_bounds: np.ndarray,
                    x_counts: np.ndarray) -> np.ndarray:
    """Whether each word det_map[x] is robustly typical with its block x,
    from x's symbol counts (B, nx): their joint type holds x's count of b
    at (det_map[b], b) and 0 elsewhere."""
    preimages = det_map == np.arange(ux_bounds.shape[1])[:, None]     # (u, x)
    return _types_typical(preimages * x_counts[:, None, :], ux_bounds)


def build_codebook(cfg: ProtocolConfig) -> Codebook:
    """Draw the full codebook: i.i.d. uniform draws from one type class."""
    symbols = cfg.codebook_symbols
    if symbols > MEMORY_GUARD:
        raise GuardError(
            f"codebook holds {float(symbols):.3e} symbols (> {MEMORY_GUARD:.0e}); lower n "
            "or mu, or rely on run_monte_carlo's statistical engine for this config")
    base = np.repeat(np.arange(cfg.u_card, dtype=_cell_dtype(cfg.u_card)), cfg.u_type)
    rng = as_rng(subseed(cfg.seed, _CODEBOOK_KEY))
    words = rng.permuted(np.tile(base, (cfg.n1 * cfg.n2, 1)), axis=1)
    return Codebook(words.reshape(cfg.n1, cfg.n2, cfg.n), cfg.n1, cfg.n2,
                    cfg.ux_bounds, cfg.uy_bounds, cfg.det_map)


def _encode_batch(cb: Codebook, xs: np.ndarray) -> np.ndarray:
    """The encoder phi: flat row-major index of each block's first jointly
    typical word, or -1 for the fallback, which index N1 + 1 sends.

    The materialized engine and exact_analyze encode through here. xs is
    (B, n). A lookup codebook tests every det_map[x] against its x from
    x's symbol counts (_lookup_typical) and finds the typical ones in its
    value index, with no bitsets. A scanning codebook runs the kernel on its
    bits over the blocks it admits, at most _SCAN_CELLS // _ENCODE_CHUNK at
    a time, each against _ENCODE_CHUNK words at a time while some of its
    sequences lack a typical word, and keeps each sequence's first.
    """
    found = np.full(xs.shape[0], -1, dtype=np.intp)
    if not cb.scans:
        x_counts = (xs[:, :, None] == np.arange(cb.ux_bounds.shape[2])).sum(axis=1)
        typical = np.flatnonzero(_lookup_typical(cb.det_map, cb.ux_bounds, x_counts))
        found[typical] = cb.find(cb.det_map[xs[typical]])
        return found
    n_words = cb.n1 * cb.n2
    step = max(1, _SCAN_CELLS // min(_ENCODE_CHUNK, n_words))
    admitted = np.flatnonzero(cb.admits(xs, cb.ux_bounds))
    for lo in range(0, admitted.size, step):
        pending = admitted[lo:lo + step]
        for start in range(0, n_words, _ENCODE_CHUNK):
            mask = _typical_mask(cb.bits[start:start + _ENCODE_CHUNK], xs[pending],
                                 cb.ux_bounds)
            hit = mask.any(axis=1)
            found[pending[hit]] = start + mask[hit].argmax(axis=1)
            pending = pending[~hit]
            if pending.size == 0:
                break
    return found


def _resolve_index(i_star, flip, alt, theta: float):
    """The received index: i_star unless flip < theta, then the alternative,
    moved past i_star so that it differs from it. Elementwise on arrays of
    trials, int64 or of Python ints; a 0-d array on scalars."""
    return np.where(flip < theta, np.where(alt >= i_star, alt + 1, alt), i_star)


def _decode_batch(cb: Codebook, ys: np.ndarray,
                  rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The decoder psi: decode each block ys[t] against codebook row
    rows[t], 0-based, to the unique jointly typical word value in that
    row; row n1 is the reserved index, which scans nothing and decodes to
    the fallback. Duplicate words of one value count once.

    The materialized engine decodes through here, and exact_analyze
    applies the same _decode_rule to whole typicality matrices. Returns
    _decode_rule's (lead column, distinct count up to 2) for each block.
    The kernel sees each block the codebook admits against its own row,
    at most _SCAN_CELLS word symbols at a time; the others decode to the
    fallback with no typical value, as an all-false mask would.
    """
    columns = np.full(ys.shape[0], -1, dtype=np.intp)
    distinct = np.zeros(ys.shape[0], dtype=np.intp)
    sent = np.flatnonzero((rows < cb.n1) & cb.admits(ys, cb.uy_bounds))
    row_cls = cb.value_index.cls.reshape(cb.n1, cb.n2)
    step = max(1, _SCAN_CELLS // (cb.n2 * cb.n))
    for lo in range(0, sent.size, step):
        part = sent[lo:lo + step]
        # a lookup codebook packs the rows it receives and never builds bits
        bits = (cb.bits.reshape(cb.n1, cb.n2, *cb.bits.shape[1:])[rows[part]] if cb.scans
                else _bitsets(cb.words[rows[part]], cb.u_card - 1))
        mask = _typical_mask(bits, ys[part, None, :], cb.uy_bounds)[:, 0]
        columns[part], distinct[part] = _decode_rule(mask, row_cls[rows[part]])
    return columns, distinct


@dataclass(frozen=True, eq=False)
class TrialOutcomes:
    """A run's trials as equal-length columns; entry t is trial t's.

    k_row, k_col and l_row, l_col locate the word values K and L, 1-based,
    with row 0 for the reserved fallback word; under the statistical
    engine a spurious match reports column 0. index_sent and
    index_received are the index channel's input and output, distinct the
    typical values the decoder saw (the materialized engine counts up to
    2), and agreed whether K and L are one word VALUE (duplicate draws of
    one value are the same common-randomness symbol). The index columns
    are int64, or Python ints in object arrays where N1 or N2 passes it.
    Two records are equal when every column is.
    """

    trial: np.ndarray
    k_row: np.ndarray
    k_col: np.ndarray
    index_sent: np.ndarray
    index_received: np.ndarray
    l_row: np.ndarray
    l_col: np.ndarray
    distinct: np.ndarray
    agreed: np.ndarray

    def __eq__(self, other) -> bool:
        if not isinstance(other, TrialOutcomes):
            return NotImplemented
        return all(np.array_equal(getattr(self, f.name), getattr(other, f.name))
                   for f in fields(self))

    def __len__(self) -> int:
        return self.trial.size

    @classmethod
    def concat(cls, parts: list) -> TrialOutcomes:
        """One record of the columns of parts, in order."""
        return cls(*(np.concatenate([getattr(p, f.name) for p in parts]) for f in fields(cls)))


_EVENT_NAMES = ("encoder_fallback", "index_error", "decoder_miss",
                "decoder_ambiguous", "spurious_match")


@dataclass(frozen=True)
class MonteCarloResult:
    """What run_monte_carlo measured; the ProtocolConfig it ran holds what
    was run (n, N1, N2, |K|, theta and the seed).

    entropy_k_bits carries the Miller-Madow correction on top of the
    plug-in estimate; both are biased low for severely undersampled K, so
    exact_analyze is preferred for uniformity conditions when feasible.
    """

    trials: int
    p_disagree: float
    event_counts: dict
    entropy_k_bits: float
    entropy_k_plugin_bits: float
    distinct_k: int
    uniformity_gap_bits: float
    engine: str
    outcomes: TrialOutcomes | None


def _entropy_estimates(counter: dict, trials: int) -> tuple[float, float, int]:
    counts = np.array(list(counter.values()), dtype=float)
    plugin = entropy_bits(counts / trials)
    mm = plugin + (len(counts) - 1) / (2.0 * trials * _LN2)
    return mm, plugin, len(counts)


_Stream = Callable[[int], np.random.Generator]
_PCG64_JUMP = 0x9E3779B97F4A7C15F39CC0605CEDC835  # PCG64.jumped's step, 2**128 / phi
_M128 = 2 ** 128 - 1


def _trial_stream(seed: int) -> _Stream:
    """The run's trial generator, from subseed(seed, _TRIAL_KEY), as a
    function that moves it to substream k, the state PCG64.jumped(k) would
    start from, and returns it. The generator is one object for every k,
    so a caller that knows how far it has drawn may advance it instead.

    Power-of-two jumps would not do: they leave the low half of the LCG
    state, and with it much of every output, the same in all substreams.
    """
    rng = np.random.default_rng(subseed(seed, _TRIAL_KEY))
    bitgen = rng.bit_generator
    start = bitgen.state

    def substream(k: int) -> np.random.Generator:
        bitgen.state = start
        bitgen.advance(k * _PCG64_JUMP & _M128)
        return rng
    return substream


def _index_dtype(cfg: ProtocolConfig) -> np.dtype:
    """int64 when every row and column index, and N1 + 1, fits it; else
    object, for Python ints."""
    return np.dtype(np.int64 if max(cfg.n1, cfg.n2) < 2 ** 63 - 1 else object)


def _trial_blocks(cfg: ProtocolConfig, stream: _Stream, ts: range):
    """The trials' source blocks x and y, (len(ts), n) each, and their index
    draws as columns: the flips, and the alternatives in _index_dtype, 0
    where none was drawn.

    Trial t draws from substream 2t of the run's stream: n + 1 doubles,
    its block's uniforms and then the index channel's flip, and, only when
    the flip sends it (flip < theta), the alternative index in 1..N1 by
    _uniform_int. Neither depends on the index sent. One pass fills the
    trials' n + 1 doubles with one call each, about _DRAW_BLOCK doubles of
    trials at a time, whose blocks and flips it writes into the batch's
    columns; it moves from one trial's substream to the next by one advance
    of two jumps less n + 1 draws. A second pass draws the alternatives,
    which integers or bytes draw in a varying number of words: each sets
    its trial's substream absolutely and advances it past the n + 1 doubles.
    """
    n = cfg.n
    x = np.empty((len(ts), n), dtype=_cell_dtype(cfg.source.probs.size))
    y = np.empty_like(x)
    flips = np.empty(len(ts))
    alts = np.zeros(len(ts), dtype=_index_dtype(cfg))
    skip = (2 * _PCG64_JUMP - (n + 1)) & _M128
    per = max(1, _DRAW_BLOCK // (n + 1))
    draws = np.empty((min(per, len(ts)), n + 1))
    rng = stream(2 * ts.start)
    for k0 in range(0, len(ts), per):
        part = draws[:len(ts) - k0]
        for k, row in enumerate(part, k0):
            if k:
                rng.bit_generator.advance(skip)
            rng.random(out=row)
        rows = slice(k0, k0 + len(part))
        flips[rows] = part[:, n]
        x[rows], y[rows] = pairs_from_uniforms(cfg.source, part[:, :n])
    for k in np.flatnonzero(flips < cfg.theta).tolist():
        rng = stream(2 * ts[k])
        rng.bit_generator.advance(n + 1)
        alts[k] = _uniform_int(rng, cfg.n1)
    return x, y, flips, alts


def _materialized_batch(cb: Codebook, cfg: ProtocolConfig, stream: _Stream,
                        ts: range) -> tuple[TrialOutcomes, np.ndarray]:
    """Outcomes of trials ts and K's value classes, -1 for the fallback.

    One encoder and one decoder call serve all of them, and the index
    channel is resolved in one pass between them. K and L agree when
    their value classes do.
    """
    xs, ys, flips, alts = _trial_blocks(cfg, stream, ts)
    w = _encode_batch(cb, xs)
    encoded = w >= 0
    i_star = np.where(encoded, w // cb.n2 + 1, cb.n1 + 1)
    i_tilde = _resolve_index(i_star, flips, alts, cfg.theta)
    columns, distinct = _decode_batch(cb, ys, i_tilde - 1)
    decoded = columns >= 0
    cls = cb.value_index.cls
    k_cls = np.where(encoded, cls[w], -1)
    # the flat index stays in [-1, n1 * n2) where nothing was decoded
    l_cls = np.where(decoded, cls[(i_tilde - 1) * cb.n2 + columns], -1)
    outcomes = TrialOutcomes(
        trial=np.arange(ts.start, ts.stop), k_row=np.where(encoded, i_star, 0),
        k_col=np.where(encoded, w % cb.n2 + 1, 0), index_sent=i_star,
        index_received=i_tilde, l_row=np.where(decoded, i_tilde, 0), l_col=columns + 1,
        distinct=distinct, agreed=k_cls == l_cls)
    return outcomes, k_cls


class _StatisticalEngine:
    """Codebook sufficient statistics for deterministic binary auxiliaries.

    Presence of a value in the codebook (or in one specific row) follows
    the Poissonized occupancy of n1*n2 (or n2) uniform type-class draws;
    spurious matches in a scanned row follow a Poisson law with mean
    n2 * q(y), where q(y) is the exact probability that a uniform
    type-class word is jointly typical with y, computed from the
    hypergeometric overlap count. Word values that collide with the
    trial's own value are handled separately, so the engine reproduces
    the duplicate-value agreement effect of small alphabets.

    A batch works from each block's joint type alone: the word det_map[x]
    has the codebook's type, is typical with x and is typical with y as
    its (u, x) and (u, y) types say, and y's zeros are a column sum. Only
    the trials that encode look their word up, and only those whose
    received index names a row reach the decoder and its draws.
    """

    def __init__(self, cfg: ProtocolConfig):
        if not cfg.aux.cond.is_deterministic():
            raise GuardError(
                "statistical codebook engine needs a deterministic auxiliary; "
                "this config also exceeds the materialized-codebook guard")
        if cfg.u_card != 2 or cfg.source.ny != 2:
            raise GuardError(
                "statistical codebook engine supports binary auxiliary and output "
                "alphabets; lower n to reach the materialized path")
        if cfg.n2 < STATISTICAL_MIN_N2:
            raise GuardError(
                f"statistical codebook engine needs N2 >= {STATISTICAL_MIN_N2} words per "
                f"row, got {cfg.n2}; its row statistics drift at small N2")
        self.cfg = cfg
        self.log2_t = (math.lgamma(cfg.n + 1)
                       - sum(math.lgamma(c + 1) for c in cfg.u_type)) / _LN2
        self.log2_n1 = math.log2(cfg.n1)
        self.log2_n2 = math.log2(cfg.n2)
        self._p_dup = self._prob_from_log2(self.log2_n2 - self.log2_t)
        self.log2_q_y = cache(self._log2_q_y)
        self._value_rows: dict[bytes, tuple[int, int] | None] = {}
        self._value_classes: dict[bytes, int] = {}

    def _log2_choose(self, a: int, b: int) -> float:
        return (math.lgamma(a + 1) - math.lgamma(b + 1) - math.lgamma(a - b + 1)) / _LN2

    def _log2_q_y(self, k_zeros: int) -> float:
        """log2 P[uniform type-class word jointly typical with y]; y has
        k_zeros zeros. -inf when no overlap count passes.

        The joint type is a function of the overlap a = #(u=0, y=0), and
        _overlap_range gives the overlaps cfg.uy_bounds allows, the same
        rule by which a materialized codebook admits y to its scans. With
        two columns, a's range is empty exactly when some range is.
        """
        n = self.cfg.n
        t0 = int(self.cfg.u_type[0])
        lo, hi = _overlap_range(t0, self.cfg.uy_bounds, np.array([[k_zeros, n - k_zeros]]))
        a_lo, a_hi = int(lo[0, 0]), int(hi[0, 0])
        if a_lo > a_hi:
            return -math.inf
        denom = self._log2_choose(n, t0)
        terms = [self._log2_choose(k_zeros, a) + self._log2_choose(n - k_zeros, t0 - a)
                 - denom for a in range(a_lo, a_hi + 1)]
        peak = max(terms)
        return peak + math.log2(sum(2.0 ** (t - peak) for t in terms))

    @staticmethod
    def _prob_from_log2(log2_lam: float) -> float:
        """1 - exp(-2^log2_lam), safely through the whole exponent range."""
        if log2_lam > 9.0:
            return 1.0
        if log2_lam < -60.0:
            return 0.0
        return -math.expm1(-(2.0 ** log2_lam))

    def value_rows(self, value: bytes) -> tuple[int, int] | None:
        """Global first-occurrence (row, column) of a present value, or None.

        Keyed by the value itself so the assignment is schedule-independent.
        """
        if value not in self._value_rows:
            rng = as_rng(subseed(self.cfg.seed, _ROW_KEY, *_value_seed_key(value)))
            present = rng.random() < self._prob_from_log2(
                self.log2_n1 + self.log2_n2 - self.log2_t)
            self._value_rows[value] = ((_uniform_int(rng, self.cfg.n1),
                                        _uniform_int(rng, self.cfg.n2)) if present else None)
        return self._value_rows[value]

    def batch(self, stream: _Stream, ts: range) -> tuple[TrialOutcomes, np.ndarray]:
        """Outcomes of trials ts and K's value classes, -1 for the fallback;
        the classes number the values the run's K takes as they come.

        The joint types, the typicality tests, the index channel and the
        agreement are batched; the lookups of encoded values and the
        decoder's draws, which depend on earlier results, follow per trial,
        in the materialized engine's order.
        """
        cfg = self.cfg
        det_map = cfg.det_map
        x, y, flips, alts = _trial_blocks(cfg, stream, ts)
        xy = _joint_types(x, y, cfg.source.nx, cfg.source.ny)
        # each u's (u, y) counts sum the (x, y) rows of its preimage
        uy = (det_map == np.arange(cfg.u_card)[:, None]).astype(np.int64) @ xy
        exact_type = (uy.sum(axis=2) == cfg.u_type).all(axis=1)
        encodes = exact_type & _lookup_typical(det_map, cfg.ux_bounds, xy.sum(axis=2))
        own_typical = exact_type & _types_typical(uy, cfg.uy_bounds)
        zeros = xy[:, :, 0].sum(axis=1)

        k_row, k_col = np.zeros_like(alts), np.zeros_like(alts)
        k_cls = np.full(len(ts), -1)
        for k in np.flatnonzero(encodes):
            value = det_map[x[k]].tobytes()
            k_idx = self.value_rows(value)
            if k_idx is not None:
                k_row[k], k_col[k] = k_idx
                k_cls[k] = self._value_classes.setdefault(value, len(self._value_classes))
        encoded = k_row != 0
        i_star = np.where(encoded, k_row, cfg.n1 + 1)
        i_tilde = _resolve_index(i_star, flips, alts, cfg.theta)

        l_row, l_col = np.zeros_like(alts), np.zeros_like(alts)
        distinct = np.zeros(len(ts), dtype=np.intp)
        own = np.zeros(len(ts), dtype=bool)
        for k in np.flatnonzero(i_tilde <= cfg.n1):
            k_idx = (k_row[k], k_col[k]) if encoded[k] else None
            l_idx, distinct[k], own[k] = self._decode(
                stream(2 * ts[k] + 1), det_map[x[k]].tobytes(), k_idx, int(i_tilde[k]),
                bool(own_typical[k]), int(zeros[k]))
            if l_idx is not None:
                l_row[k], l_col[k] = l_idx
        # L is K's own value or a spurious one where it is not the fallback
        agreed = np.where(l_row != 0, own & encoded, ~encoded)
        outcomes = TrialOutcomes(
            trial=np.arange(ts.start, ts.stop), k_row=k_row, k_col=k_col, index_sent=i_star,
            index_received=i_tilde, l_row=l_row, l_col=l_col, distinct=distinct,
            agreed=agreed)
        return outcomes, k_cls

    def _decode(self, rng: np.random.Generator, value: bytes, k_idx: tuple | None,
                i_tilde: int, own_typical: bool, zeros: int):
        """(l_idx, distinct, own) of a trial whose received index i_tilde
        names a row: L's (row, column) or None for the fallback, the typical
        values in that row, and whether L is the trial's own value. Its draws
        come from rng, on substream 2t + 1 of the run's stream."""
        # the trial's own value: in the scanned row either because the
        # encoder put it there, or as a duplicate occurrence elsewhere
        placed = k_idx is not None and i_tilde == k_idx[0]
        own_in_row = placed
        if own_typical and not placed and self.value_rows(value) is not None:
            own_in_row = rng.random() < self._p_dup
        own_hit = own_typical and own_in_row

        log2_lam = self.log2_n2 + self.log2_q_y(zeros)
        lam = 0.0 if log2_lam < -60.0 else 2.0 ** min(log2_lam, 40.0)
        spurious = int(rng.poisson(lam)) if lam > 0.0 else 0
        if own_hit and spurious > 0:
            # the Poisson mass counts all typical words; remove the own value's
            # expected share so it is not double-counted
            log2_share = -self.log2_t - self.log2_q_y(zeros)
            share = 0.0 if log2_share < -60.0 else min(2.0 ** log2_share, 1.0)
            spurious = int(rng.binomial(spurious, max(1.0 - share, 0.0)))

        distinct = (1 if own_hit else 0) + spurious
        if distinct != 1:
            return None, distinct, False
        if own_hit:
            return (i_tilde, k_idx[1] if placed else 0), 1, True
        return (i_tilde, 0), 1, False


def _raw_trials(cfg: ProtocolConfig,
                trials: int) -> tuple[str, Iterator[tuple[TrialOutcomes, np.ndarray]]]:
    """The engine name and, batch by batch as they are consumed, the
    outcomes of trials 0..trials-1 with K's value classes (-1 for the
    fallback), max(1, _TRIAL_BATCH_SYMBOLS // n) trials each."""
    if cfg.codebook_symbols <= MEMORY_GUARD:
        engine, batch = "materialized", partial(_materialized_batch, build_codebook(cfg), cfg)
    else:
        engine, batch = "statistical", _StatisticalEngine(cfg).batch
    stream = _trial_stream(cfg.seed)
    step = max(1, _TRIAL_BATCH_SYMBOLS // cfg.n)
    return engine, (batch(stream, range(lo, min(lo + step, trials)))
                    for lo in range(0, trials, step))


def run_monte_carlo(cfg: ProtocolConfig, trials: int,
                    keep_outcomes: bool = True) -> MonteCarloResult:
    """Fixed-codebook Monte Carlo over fresh source blocks.

    The codebook is drawn once per run from the seed's codebook child,
    and the trials from its trial child, so a seed names one result.
    One generator on the trial child's PCG64 stream moves to each trial's
    substreams in turn: trial t draws its block, then the index channel's
    flip and any alternative, from substream 2t, and the statistical
    engine's conditional draws from substream 2t + 1 (see _trial_stream
    and _trial_blocks). Trials run in batches of max(1, 2**18 // n), and
    every outcome is the same whatever the batch layout. There are at most
    TRIAL_LIMIT = 2**32 trials; the 2**33 substreams they can use start at
    least 2**93 draws apart, so none overlaps another.

    Each batch comes back as columns, and the events and agreements are
    counted over them in numpy. K's values are counted in the order they
    first occur, so the entropy estimates sum the same counts in the same
    order whatever the batch layout. With keep_outcomes the result holds
    every trial's columns as one TrialOutcomes.
    """
    if not 1 <= trials <= TRIAL_LIMIT:
        raise ValidationError(f"trials must lie in [1, 2**32], got {trials}")
    engine, batches = _raw_trials(cfg, trials)

    events = dict.fromkeys(_EVENT_NAMES, 0)
    counter: dict[int, int] = {}
    agree = 0
    kept = []
    for out, k_cls in batches:
        encoded = out.k_row != 0
        sent = out.index_received == out.index_sent
        for name, hits in (("encoder_fallback", ~encoded),
                           ("index_error", ~sent),
                           ("decoder_miss",
                            encoded & sent & (out.l_row == 0) & (out.distinct == 0)),
                           ("decoder_ambiguous", out.distinct >= 2),
                           ("spurious_match", (out.l_row != 0) & ~out.agreed)):
            events[name] += int(np.count_nonzero(hits))
        agree += int(np.count_nonzero(out.agreed))
        classes, first, counts = np.unique(k_cls, return_index=True, return_counts=True)
        order = np.argsort(first)
        for c, count in zip(classes[order].tolist(), counts[order].tolist()):
            counter[c] = counter.get(c, 0) + count
        if keep_outcomes:
            kept.append(out)

    mm, plugin, distinct_k = _entropy_estimates(counter, trials)
    return MonteCarloResult(
        trials=trials,
        p_disagree=1.0 - agree / trials,
        event_counts=events,
        entropy_k_bits=mm,
        entropy_k_plugin_bits=plugin,
        distinct_k=distinct_k,
        uniformity_gap_bits=abs(mm / cfg.n - cfg.log2_k_cardinality / cfg.n),
        engine=engine,
        outcomes=TrialOutcomes.concat(kept) if keep_outcomes else None,
    )


@dataclass(frozen=True)
class ExactResult:
    """What exact_analyze measured, the closed-form push of the protocol
    through all source blocks; the ProtocolConfig it ran holds what was run
    (n, N1, N2, |K|, theta and the seed)."""

    p_disagree: float
    entropy_k_bits: float
    entropy_k_given_y_bits: float
    entropy_l_bits: float
    uniformity_gap_bits: float
    claim_rate_bits: float
    joint_ky: np.ndarray | None


def _pair_law(law: np.ndarray, factors: np.ndarray) -> np.ndarray:
    """Pair-law rows: each row of law times factors[:, j, y], its x's
    probs[x_j, y] for one more symbol j at a time, as y's fastest column:
    the left-to-right products np.kron forms."""
    for j in range(factors.shape[1]):
        out = np.empty((law.shape[0], law.shape[1], 2))
        for y in range(2):
            np.multiply(law, factors[:, j, y], out=out[:, :, y])
        law = out.reshape(law.shape[0], -1)
    return law


def exact_analyze(cfg: ProtocolConfig, include_joint: bool = True) -> ExactResult:
    """Exact protocol law by enumerating every (x^n, y^n) pair.

    Binary source alphabets only. The codebook is materialized with the
    same seed child as run_monte_carlo, encoded by _encode_batch and
    decoded by _decode_rule; the index channel is averaged in closed form:
    correct with weight 1 - theta, else uniform over the other N1 rows.

    The class counts cnt_all, classes x 2**n in _cell_dtype's smallest
    integer dtype, are refused past EXACT_CLASS_GUARD cells before the
    codebook is drawn. The decoder runs over blocks of at most _EXACT_BLOCK
    word x sequence cells of the sequences the codebook admits, counts each
    decoded class into cnt_all and keeps it in l_sent only for the rows the
    encoder sends. Then one walk of the pair law, x rows in class order,
    forms each block of at most _EXACT_BLOCK // 4 cells once and takes from
    it each x's mass and agreement, the L law of the sent rows, and each
    class's K-Y joint row and that row's entropy; joint_ky, classes x 2**n,
    is built only for include_joint. The tail reads the class counts in
    blocks of as many cells.

    Every sum runs along one whole row, an x's or a class's, or over one
    entry per x or per class, so its bits depend on no block size or BLAS
    thread count, and a dense computation of the same formulas has them:
    _pair_law forms np.kron's products, a joint row adds its x rows in
    order, np.add.at scatters the L law in a bincount's order, and p_y is
    the n-fold product of the Y marginal. H(L) is taken of the output law
    clipped at 0 and renormalised, so a law on one class has entropy +0.0.
    """
    if cfg.source.nx != 2 or cfg.source.ny != 2:
        raise GuardError("exact analysis enumerates binary source alphabets only")
    pairs = (cfg.source.nx * cfg.source.ny) ** cfg.n
    if pairs > EXACT_PAIR_GUARD:
        raise GuardError(f"exact analysis would enumerate {pairs:.3e} sequence pairs; lower n")
    n, n1, n2 = cfg.n, cfg.n1, cfg.n2
    n_words, n_x = n1 * n2, 2 ** n
    if n_words * n_x > EXACT_SCAN_GUARD:
        raise GuardError(f"exact analysis would scan {n_words * n_x:.3e} word/sequence cells; "
                         "lower n")
    values = math.factorial(n) // math.prod(map(math.factorial, cfg.u_type.tolist()))
    if (min(n_words, values) + 1) * n_x > EXACT_CLASS_GUARD:
        raise GuardError(f"exact analysis would count up to {min(n_words, values) + 1} value "
                         f"classes x {n_x} sequences, past {EXACT_CLASS_GUARD} cells; "
                         "lower n or mu")
    cb = build_codebook(cfg)
    xs = (np.arange(n_x)[:, None] >> np.arange(n - 1, -1, -1) & 1).astype(np.int8)

    # value classes in first-occurrence order; the reserved word is the last
    index = cb.value_index
    u0_cls, n_cls = index.first.size, index.first.size + 1
    row_cls = index.cls.reshape(n1, n2)

    # each sequence's encoded word, by the encoder Monte Carlo runs, the rows
    # it sends, 0-based with n1 the reserved one, and each x's among them
    found = _encode_batch(cb, xs)
    k_cls = np.where(found >= 0, index.cls[found], u0_cls)
    sent, star = np.unique(np.where(found >= 0, found // n2, n1), return_inverse=True)
    scanned = sent[sent < n1]   # sent is sorted: the reserved row, if sent, is last

    # each y's decoded class per row, by the decoder's own rule: counted
    # into cnt_all over all n1 + 1 rows, and kept in l_sent for the sent ones
    admitted = cb.admits(xs, cb.uy_bounds)
    l_sent = np.full((sent.size, n_x), u0_cls, dtype=_cell_dtype(n_cls))
    cnt_all = np.zeros((n_cls, n_x), dtype=_cell_dtype(n1 + 2))
    cnt_all[u0_cls] = np.where(admitted, 1, n1 + 1)
    step = max(1, _EXACT_BLOCK // n_words)
    admitted = np.flatnonzero(admitted)
    for s in range(0, admitted.size, step):
        part = admitted[s:s + step]
        t_uy = _typical_mask(cb.bits, xs[part], cb.uy_bounds).reshape(-1, n1, n2)
        lead, _ = _decode_rule(t_uy, row_cls)
        l_part = np.where(lead >= 0, row_cls[np.arange(n1), lead], u0_cls)
        cnt_all[:, part] += np.bincount(
            (l_part * part.size + np.arange(part.size)[:, None]).ravel(),
            minlength=n_cls * part.size).reshape(n_cls, part.size)
        l_sent[:scanned.size, part] = l_part[:, scanned].T

    theta, probs, w_other = cfg.theta, cfg.source.probs, cfg.theta / float(n1)
    rows = 2 ** min(n, max(1, _EXACT_BLOCK // 4 // n_x).bit_length() - 1)
    # the law of the first n_head symbols, a square of at most _EXACT_BLOCK
    # // 4 cells, and each x's probs columns for the others
    n_head = min(n, ((_EXACT_BLOCK // 4).bit_length() - 1) // 2)
    head = _pair_law(np.ones((2 ** n_head, 1)), probs[xs[::2 ** (n - n_head), :n_head], :, None])
    factors = probs[xs[:, n_head:], :, None]

    # one walk of the pair law, x rows in class order: per x its mass and
    # agreement, the L law scattered by np.add.at, and per class K takes
    # its K-Y joint row, summed in x order, and that row's entropy
    by_class = np.argsort(k_cls, kind="stable")
    last = np.diff(k_cls[by_class], append=-1) != 0   # a class's last x
    p_x, agree_x, h_rows, l_law = np.empty(n_x), np.empty(n_x), np.zeros(n_cls), np.zeros(n_cls)
    joint_ky = np.zeros((n_cls, n_x)) if include_joint else None
    row = np.zeros(n_x)
    for lo in range(0, n_x, rows):
        x = by_class[lo:lo + rows]
        p_joint = _pair_law(head[x >> n - n_head], factors[x])
        p_x[x] = p_joint.sum(axis=1)
        l_at_star = l_sent[star[x]]
        eq_star = l_at_star == k_cls[x, None]
        # w_other * (cnt - eq_star) + (1 - theta) * eq_star, times p_joint, in place
        agree = np.subtract(cnt_all[k_cls[x]], eq_star, dtype=float)
        agree *= w_other
        np.add(agree, 1.0 - theta, out=agree, where=eq_star)
        agree *= p_joint
        agree_x[x] = agree.sum(axis=1)
        # the L law of the sent row, less the index channel's share of it
        # that the tail adds back, in agree's buffer
        np.add.at(l_law, l_at_star.ravel(),
                  np.multiply(p_joint, 1.0 - theta - w_other, out=agree).ravel())
        for k, end, p_row in zip(k_cls[x].tolist(), last[lo:lo + rows].tolist(), p_joint):
            row += p_row
            if end:
                h_rows[k] = entropy_bits(row)
                if include_joint:
                    joint_ky[k] = row
                row.fill(0.0)
        del p_joint, p_row, l_at_star, eq_star, agree
    p_disagree = min(max(1.0 - float(agree_x.sum()), 0.0), 1.0)
    del l_sent, star, row

    # the tail: per class, a pairwise sum of its counts times the weighted y law
    p_y = _pair_law(np.ones((1, 1)), np.tile(probs.sum(axis=0)[:, None], (1, n, 1, 1)))[0]
    w_y, step = p_y * w_other, max(1, _EXACT_BLOCK // 4 // n_x)
    tail = np.concatenate([(cnt_all[lo:lo + step] * w_y).sum(axis=1)
                           for lo in range(0, n_cls, step)])
    del cnt_all
    p_l = l_law + tail
    if abs(p_l.sum() - 1.0) > 1e-9:
        raise InternalInvariantError(f"output law sums to {p_l.sum()}")
    p_l = np.clip(p_l, 0.0, None)
    h_l = entropy_bits(p_l / p_l.sum())
    h_k = entropy_bits(np.bincount(k_cls, weights=p_x, minlength=n_cls))
    h_k_given_y = max(float(h_rows.sum()) - entropy_bits(p_y), 0.0)
    return ExactResult(
        p_disagree=p_disagree,
        entropy_k_bits=h_k,
        entropy_k_given_y_bits=h_k_given_y,
        entropy_l_bits=h_l,
        uniformity_gap_bits=abs(h_k / n - cfg.log2_k_cardinality / n),
        claim_rate_bits=h_k_given_y / n,
        joint_ky=joint_ky,
    )


def achievability_targets(cfg: ProtocolConfig,
                          read: Callable[[str, float | None], float | None] = {}.get) -> dict:
    """The targets of the four operating conditions of a run of cfg, each
    read(name, default): error bound alpha (0.1), cardinality exponent c
    (I(U;X) + mu + 1), uniformity slack beta (1.5), rate slack delta (1.0)
    against the target rate h_target (I(U;X)), and epsilon for the
    two-terminal entropy comparison (None: no comparison)."""
    targets = {name: read(name, default) for name, default in (
        ("alpha", 0.1), ("c", cfg.i_ux + cfg.mu + 1.0), ("beta", 1.5), ("delta", 1.0),
        ("h_target", cfg.i_ux), ("epsilon", None))}
    if not all(targets[name] > 0.0 for name in ("alpha", "beta", "delta")):
        raise ValidationError("alpha, beta, delta must all be > 0")
    if targets["c"] < 0.0:
        raise ValidationError(f"cardinality exponent must be >= 0, got {targets['c']}")
    return targets


def _condition(name: str, holds, margin) -> dict:
    return {"name": name, "holds": bool(holds), "margin": float(margin)}


def check_achievability_conditions(cfg: ProtocolConfig, result, targets: dict) -> dict:
    """The four operating conditions of a result of a run of cfg, which
    gives n, log2|K| and theta, against achievability_targets: whether all
    hold, whether theta <= alpha / 2, and each condition's name, verdict and
    margin (positive when it holds).

    Works on both exact and Monte Carlo results; the entropy remark is
    added only when the result carries the second terminal's entropy and
    epsilon is set.
    """
    n = cfg.n
    rate_k = result.entropy_k_bits / n
    log_card = cfg.log2_k_cardinality
    alpha, c, beta = targets["alpha"], targets["c"], targets["beta"]
    rate_floor = targets["h_target"] - targets["delta"]
    checks = [
        _condition("error", result.p_disagree <= alpha, alpha - result.p_disagree),
        _condition("cardinality", log_card <= c * n, c * n - log_card),
        _condition("uniformity", result.uniformity_gap_bits <= beta,
                   beta - result.uniformity_gap_bits),
        _condition("rate", rate_k > rate_floor, rate_k - rate_floor),
    ]
    report = {"all_hold": all(check["holds"] for check in checks),
              "theta_pairing_ok": bool(cfg.theta <= alpha / 2.0),
              "conditions": checks}
    h_l, epsilon = getattr(result, "entropy_l_bits", None), targets["epsilon"]
    if h_l is not None and epsilon is not None:
        gap = abs(rate_k - h_l / n)
        report["remark"] = _condition("entropy_match", gap <= epsilon, epsilon - gap)
    return report


def rate_feasibility(cfg: ProtocolConfig, kernel, mu_prime: float) -> dict:
    """log2(N1 + 1)/n against the index channel's capacity less mu_prime:
    whether it fits, the rate, the capacity, mu_prime and the margin
    capacity - mu_prime - rate."""
    from .channelcap import dmc_capacity
    if mu_prime < 0.0:
        raise ValidationError(f"mu_prime must be >= 0, got {mu_prime}")
    capacity = float(dmc_capacity(kernel).value_bits)
    rate = math.log2(cfg.n1 + 1) / cfg.n
    return {"ok": rate <= capacity - mu_prime + 1e-12, "index_rate_bits": rate,
            "capacity_bits": capacity, "mu_prime": float(mu_prime),
            "margin": capacity - mu_prime - rate}
