"""Typed codebooks, encoder/decoder, Monte Carlo runs, and the exact analyzer."""

import dataclasses
import functools
import hashlib
import itertools
import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from support import (dense_exact_analyze, diagonal_source, draw_index, dsbs,
                     exactly_rounded_entropy_l_bits, h2)
from ucrlab import protocol
from ucrlab.errors import GuardError, ValidationError
from ucrlab.probspace import (JointPmf, Pmf, as_rng, compose_aux, entropy_bits,
                              pairs_from_uniforms, sample_iid, subseed, type_counts)
from ucrlab.protocol import (
    Codebook,
    ExactResult,
    _bitsets,
    _count_bounds,
    _joint_types,
    _typical_mask,
    ProtocolConfig,
    TrialOutcomes,
    achievability_targets,
    build_codebook,
    check_achievability_conditions,
    exact_analyze,
    pow2_floor,
    rate_feasibility,
    run_monte_carlo,
)
from ucrlab.channelcap import bsc
from ucrlab.ucrcap import AuxiliaryChannel

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
IDENTITY_AUX = AuxiliaryChannel.identity(2)
TERNARY_AUX = AuxiliaryChannel.from_matrix(
    np.array([[0.5, 0.3, 0.2], [0.2, 0.3, 0.5]]))
BSC_AUX = AuxiliaryChannel.from_matrix(np.array([[0.9, 0.1], [0.1, 0.9]]))


def small_exact_config(seed: int = 0) -> ProtocolConfig:
    return ProtocolConfig(n=8, mu=0.3, theta=0.0, eps_typ=0.15,
                          aux=IDENTITY_AUX, source=dsbs(0.1), seed=seed,
                          allow_degenerate_rate=True)


def ternary_config(seed: int = 2) -> ProtocolConfig:
    return ProtocolConfig(n=8, mu=0.3, theta=0.0, eps_typ=0.6,
                          aux=TERNARY_AUX, source=dsbs(0.1), seed=seed,
                          allow_degenerate_rate=True)


def ambiguous_config(aux, p: float, n: int, eps: float) -> ProtocolConfig:
    """A config whose rows hold several words (n2 > 1) at mu 0.05."""
    return ProtocolConfig(n=n, mu=0.05, theta=0.05, eps_typ=eps, aux=aux,
                          source=dsbs(p), seed=4, allow_degenerate_rate=True)


def trial_reference(cfg: ProtocolConfig, k: int) -> np.random.Generator:
    """A fresh generator on substream k of the run's trial stream, built
    with numpy's own PCG64.jumped."""
    stream = np.random.PCG64(subseed(cfg.seed, protocol._TRIAL_KEY))
    return np.random.Generator(stream.jumped(k))


# Reference typicality: the per-cell count loop and the nested broadcast
# the type-count kernel replaced, kept verbatim as the tests' arbiter.

def ref_pair_counts(words_2d, seq, n_a, n_b):
    cells = words_2d.astype(np.int64) * n_b + seq[None, :]
    out = np.empty((words_2d.shape[0], n_a * n_b), dtype=np.int64)
    for c in range(n_a * n_b):
        out[:, c] = (cells == c).sum(axis=1)
    return out


def ref_batch_pair_typical(words_2d, seq, ref, eps):
    n = seq.shape[0]
    p = ref.ravel()
    counts = ref_pair_counts(words_2d, seq, ref.shape[0], ref.shape[1])
    return np.all(np.abs(counts - n * p[None, :]) <= eps * n * p[None, :], axis=1)


# Reference value index: the dict loop the numpy value index replaced.

@functools.lru_cache(maxsize=8)
def _ref_first_index(words: bytes, dtype: str, n1: int, n2: int) -> dict:
    flat = np.frombuffer(words, dtype=dtype).reshape(n1 * n2, -1)
    first_index = {}
    w = 0
    for i in range(n1):
        for j in range(n2):
            first_index.setdefault(flat[w].tobytes(), (i + 1, j + 1))
            w += 1
    return first_index


def ref_first_index(cb):
    """Each word value's bytes to its first (row, column), 1-based, row-major;
    the dict's order numbers the value classes."""
    return _ref_first_index(cb.words.tobytes(), cb.words.dtype.str, cb.n1, cb.n2)


def pair_laws(cfg: ProtocolConfig) -> tuple[np.ndarray, np.ndarray]:
    """The config's reference (u, x) and (u, y) laws."""
    triple = compose_aux(cfg.source, cfg.aux.cond)
    return triple.pair_ux().probs, triple.pair_uy().probs


def reserved_word(n: int, u_card: int) -> np.ndarray:
    """A stand-in for the fallback value: n copies of u_card, a symbol no
    codebook word holds."""
    return np.full(n, u_card, dtype=np.int16)


def ref_encode(cfg, cb, x):
    ref, eps = pair_laws(cfg)[0], cfg.eps_typ
    if cb.det_map is not None:
        u_seq = cb.det_map[x]
        if ref_batch_pair_typical(u_seq[None, :], x, ref, eps)[0]:
            hit = ref_first_index(cb).get(u_seq.tobytes())
            if hit is not None:
                return u_seq, hit, hit[0]
        return reserved_word(cb.n, cb.u_card), None, cb.n1 + 1
    flat = cb.words.reshape(cb.n1 * cb.n2, cb.n)
    mask = ref_batch_pair_typical(flat, x, ref, eps)
    if mask.any():
        w = int(np.argmax(mask))
        return flat[w], (w // cb.n2 + 1, w % cb.n2 + 1), w // cb.n2 + 1
    return reserved_word(cb.n, cb.u_card), None, cb.n1 + 1


def ref_decode(cfg, cb, y, i_tilde):
    fallback = reserved_word(cb.n, cb.u_card)
    if i_tilde == cb.n1 + 1:
        return fallback, None, 0
    row = cb.words[i_tilde - 1]
    hits = np.flatnonzero(ref_batch_pair_typical(row, y, pair_laws(cfg)[1], cfg.eps_typ))
    if hits.size == 0:
        return fallback, None, 0
    values = np.unique(row[hits], axis=0)
    if values.shape[0] != 1:
        return fallback, None, int(values.shape[0])
    return row[hits[0]], (i_tilde, int(hits[0]) + 1), 1


def ref_typical_matrix(flat, xs, ref, eps, n):
    u_card = ref.shape[0]
    out = np.ones((flat.shape[0], xs.shape[0]), dtype=bool)
    for a in range(u_card):
        for b in range(2):
            cnt = ((flat == a)[:, None, :] & (xs == b)[None, :, :]).sum(axis=2)
            out &= np.abs(cnt - n * ref[a, b]) <= eps * n * ref[a, b]
    return out


def same_detail(got, want) -> bool:
    return (np.array_equal(got[0], want[0]) and got[0].dtype == want[0].dtype
            and got[1:] == want[1:])


def capped(detail: tuple) -> tuple:
    """ref_decode's detail with its distinct count capped at 2, as
    _decode_rule reports it."""
    return detail[:2] + (min(detail[2], 2),)


def encode_details(cb: Codebook, xs: np.ndarray) -> list:
    """The encoder kernel's result on blocks xs (B, n), one ref_encode
    detail per block: (word, (i, j) or None, index sent)."""
    details = []
    for w in protocol._encode_batch(cb, xs).tolist():
        index = None if w < 0 else (w // cb.n2 + 1, w % cb.n2 + 1)
        details.append((located_word(cb, index), index,
                        cb.n1 + 1 if index is None else index[0]))
    return details


def decode_details(cb: Codebook, ys: np.ndarray, received) -> list:
    """The decoder kernel's result on blocks ys (B, n) at 1-based received
    indices, one ref_decode detail per block: (word, (i, j) or None,
    distinct count up to 2)."""
    received = np.asarray(received)
    columns, distinct = protocol._decode_batch(cb, ys, received - 1)
    details = []
    for i, col, d in zip(received.tolist(), columns.tolist(), distinct.tolist()):
        index = None if col < 0 else (i, col + 1)
        details.append((located_word(cb, index), index, d))
    return details


def run_columns(cfg: ProtocolConfig, trials: int):
    """The engine name, the outcome columns of trials 0..trials-1 and K's
    value classes, joined from the batches of _raw_trials."""
    engine, batches = protocol._raw_trials(cfg, trials)
    parts = list(batches)
    return (engine, TrialOutcomes.concat([out for out, _ in parts]),
            np.concatenate([k_cls for _, k_cls in parts]))


def outcome_row(outs: TrialOutcomes, t: int) -> tuple:
    """Trial t's (k_index, index_sent, index_received, l_index, distinct,
    agreed), an index None for the reserved word."""
    def index(row, col):
        return (int(row[t]), int(col[t])) if row[t] else None
    return (index(outs.k_row, outs.k_col), int(outs.index_sent[t]),
            int(outs.index_received[t]), index(outs.l_row, outs.l_col),
            int(outs.distinct[t]), bool(outs.agreed[t]))


def located_word(cb: Codebook, index) -> np.ndarray:
    """The codebook word at a 1-based (row, column), or the reserved word."""
    return (reserved_word(cb.n, cb.u_card) if index is None
            else cb.words[index[0] - 1, index[1] - 1])


def head(outs: TrialOutcomes, k: int) -> TrialOutcomes:
    return TrialOutcomes(*(getattr(outs, f.name)[:k] for f in dataclasses.fields(outs)))


def assert_same_partition(classes: np.ndarray, keys: list) -> None:
    """classes label the trials exactly as their word keys group them."""
    pairs = set(zip(classes.tolist(), keys))
    assert len(pairs) == len(set(classes.tolist())) == len(set(keys))


# sixteenths times eps in eighths put n p (1 +- eps) on integers for many n
DYADIC = st.integers(0, 16).map(lambda k: k / 16.0)
EPS = st.one_of(st.sampled_from([0.125, 0.25, 0.5, 0.75]),
                st.floats(0.01, 0.99, allow_nan=False))


def random_config(rng, kind: int, n: int, mu: float, eps: float) -> ProtocolConfig:
    if kind == 0:
        aux = IDENTITY_AUX
    elif kind == 1:
        a = float(rng.uniform(0.02, 0.3))
        aux = AuxiliaryChannel.from_matrix(np.array([[1 - a, a], [a, 1 - a]]))
    else:
        aux = AuxiliaryChannel.from_matrix(rng.dirichlet(np.ones(3), size=2))
    source = (dsbs(float(rng.choice([0.1, 0.25]))) if rng.random() < 0.5
              else JointPmf(rng.dirichlet(np.full(4, 2.0)).reshape(2, 2)))
    return ProtocolConfig(n=n, mu=mu, theta=0.0, eps_typ=eps, aux=aux, source=source,
                          seed=int(rng.integers(0, 2 ** 31)),
                          allow_degenerate_rate=True)


class TestConfigArithmetic:
    def test_pow2_floor(self):
        assert pow2_floor(3.2) == 9
        assert pow2_floor(0.0) == 1
        assert pow2_floor(-0.4) == 0
        assert pow2_floor(62.0) == 2**62

    def test_codebook_sizes_on_reference_config(self):
        cfg = ProtocolConfig(n=20, mu=0.05, theta=0.0, eps_typ=0.2,
                             aux=IDENTITY_AUX, source=dsbs(0.1), seed=0)
        assert cfg.i_ux == pytest.approx(1.0, abs=1e-12)
        assert cfg.i_uy == pytest.approx(1.0 - h2(0.1), abs=1e-12)
        assert (cfg.n1, cfg.n2) == (5329, 393)
        assert cfg.k_cardinality == 5329 * 393 + 1

    def test_degenerate_rate_needs_opt_in(self):
        with pytest.raises(ValidationError):
            small_exact_config().__class__(
                n=8, mu=0.3, theta=0.0, eps_typ=0.15, aux=IDENTITY_AUX,
                source=dsbs(0.1), seed=0)
        cfg = small_exact_config()
        assert cfg.n2_raw == 0 and cfg.n2 == 1

    @pytest.mark.parametrize("kwargs", [
        dict(n=0), dict(mu=0.0), dict(theta=1.0), dict(theta=-0.1),
        dict(eps_typ=0.0), dict(eps_typ=1.0),
    ])
    def test_parameter_validation(self, kwargs):
        base = dict(n=8, mu=0.3, theta=0.0, eps_typ=0.15, aux=IDENTITY_AUX,
                    source=dsbs(0.1), seed=0, allow_degenerate_rate=True)
        base.update(kwargs)
        with pytest.raises(ValidationError):
            ProtocolConfig(**base)

    def test_index_bits_guard(self):
        # DSBS(0.05), identity auxiliary, mu = 0.1: N1 grows at h(0.05) + 0.3 bits a symbol
        base = dict(mu=0.1, theta=0.0, eps_typ=0.15, aux=IDENTITY_AUX, source=dsbs(0.05))
        rate = h2(0.05) + 0.3
        edge = math.floor(protocol.INDEX_BITS_GUARD / rate)
        cfg = ProtocolConfig(n=edge - 1, **base)
        assert len(str(cfg.n1)) <= 4300 and len(str(cfg.n2)) <= 4300
        for n in (edge + 1, 100000, 10 ** 30, 10 ** 400):
            with pytest.raises(GuardError, match="N1 or N2"):
                ProtocolConfig(n=n, **base)
        with pytest.raises(GuardError, match="N1 or N2"):
            ProtocolConfig(n=8, **dict(base, mu=1e300))

    def test_aux_source_alphabet_mismatch(self):
        with pytest.raises(ValidationError):
            ProtocolConfig(n=8, mu=0.3, theta=0.0, eps_typ=0.15,
                           aux=AuxiliaryChannel.identity(3), source=dsbs(0.1),
                           seed=0, allow_degenerate_rate=True)


class TestCodebook:
    def test_every_word_has_the_quantized_type(self):
        cfg = ternary_config()
        cb = build_codebook(cfg)
        target = type_counts(Pmf(cfg.p_u), cfg.n)
        flat = cb.words.reshape(-1, cfg.n)
        for word in flat:
            assert np.array_equal(np.bincount(word, minlength=cfg.u_card), target)

    def test_guard_refuses_oversized_codebooks(self):
        cfg = ProtocolConfig(n=400, mu=0.05, theta=0.0, eps_typ=0.2,
                             aux=IDENTITY_AUX, source=diagonal_source(),
                             seed=17, allow_degenerate_rate=True)
        with pytest.raises(GuardError):
            build_codebook(cfg)

    @settings(max_examples=200)
    @given(u_card=st.integers(1, 3), n=st.integers(1, 8), n1=st.integers(1, 12),
           n2=st.integers(1, 12), seed=st.integers(0, 2 ** 32 - 1))
    @example(u_card=2, n=70, n1=6, n2=6, seed=1)       # two key columns per word
    def test_value_index_matches_the_reference(self, u_card, n, n1, n2, seed):
        # few symbols and many words: most values occur more than once
        rng = np.random.default_rng(seed)
        words = rng.integers(0, u_card, size=(n1, n2, n)).astype(np.int8)
        if n > 8:
            words[..., :n - 2] = words[0, 0, :n - 2]     # equal first key columns
        bounds = _count_bounds(np.zeros((u_card, 2)), 0.5, n)
        cb = Codebook(words, n1, n2, bounds, bounds, None)
        want = ref_first_index(cb)
        flat = words.reshape(n1 * n2, n)
        index = cb.value_index
        classes = {value: c for c, value in enumerate(want)}
        assert index.cls.tolist() == [classes[w.tobytes()] for w in flat]
        assert index.first.tolist() == [(i - 1) * n2 + j - 1 for i, j in want.values()]
        # every sequence over the alphabet, present or absent, at small n; the
        # codebook's words and their shifts, all absent, at large n
        if n <= 8:
            queries = np.array(list(itertools.product(range(u_card), repeat=n)), dtype=np.int8)
        else:
            queries = np.concatenate([flat, (flat + 1) % u_card])
        hits = [want.get(q.tobytes()) for q in queries]
        assert cb.find(queries).tolist() == [
            -1 if hit is None else (hit[0] - 1) * n2 + hit[1] - 1 for hit in hits]
        assert {hit for hit in hits if hit is not None} == set(want.values())
        assert (None in hits) == (n > 8 or len(want) < u_card ** n)

    def test_seed_determinism(self):
        a = build_codebook(ternary_config())
        b = build_codebook(ternary_config())
        assert np.array_equal(a.words, b.words)


class TestEncodeDecode:
    def test_round_trip_on_identical_source(self):
        cfg = ProtocolConfig(n=12, mu=0.05, theta=0.0, eps_typ=0.2,
                             aux=IDENTITY_AUX, source=diagonal_source(),
                             seed=13, allow_degenerate_rate=True)
        cb = build_codebook(cfg)
        x = np.asarray(cb.words[:1, 0], dtype=np.int64)
        [(k_word, _, i_star)] = encode_details(cb, x)
        assert i_star <= cfg.n1
        [(l_word, l_idx, _)] = decode_details(cb, x, [i_star])
        assert l_idx is not None and np.array_equal(k_word, l_word)

    def test_atypical_input_falls_back(self):
        cfg = ternary_config()
        cb = build_codebook(cfg)
        x = np.zeros((1, cfg.n), dtype=np.int64)  # constant block is far from type
        assert encode_details(cb, x)[0][1:] == (None, cfg.n1 + 1)
        # the reserved index scans nothing and decodes to the fallback
        assert decode_details(cb, x, [cfg.n1 + 1])[0][1:] == (None, 0)


class TestTypeCountKernel:
    """The popcount type-count kernel decides exactly as the reference loops."""

    @settings(max_examples=200)
    @given(u_card=st.integers(1, 3), n_b=st.integers(2, 3),
           n=st.one_of(st.integers(1, 24), st.sampled_from([63, 64, 65, 130])),
           n_words=st.integers(1, 30), n_seqs=st.integers(1, 5),
           cells=st.lists(DYADIC, min_size=9, max_size=9), eps=EPS,
           seed=st.integers(0, 2 ** 32 - 1))
    @example(u_card=2, n_b=2, n=8, n_words=30, n_seqs=5, cells=[0.25] * 9, eps=0.5,
             seed=0)
    def test_masks_match_the_reference(self, u_card, n_b, n, n_words, n_seqs, cells,
                                       eps, seed):
        rng = np.random.default_rng(seed)
        ref = np.array(cells[:u_card * n_b]).reshape(u_card, n_b)
        bounds = _count_bounds(ref, eps, n)
        words = rng.integers(0, u_card, size=(n_words, n)).astype(np.int8)
        seqs = rng.integers(0, n_b, size=(n_seqs, n))
        got = _typical_mask(_bitsets(words, u_card - 1), seqs, bounds)
        want = np.stack([ref_batch_pair_typical(words, s, ref, eps) for s in seqs])
        assert np.array_equal(got, want)
        # batch axis: entry t tests seqs[t] against words of its own
        own = rng.integers(0, u_card, size=(n_seqs, n_words, n)).astype(np.int8)
        got = _typical_mask(_bitsets(own, u_card - 1), seqs[:, None, :], bounds)
        want = np.stack([ref_batch_pair_typical(w, s, ref, eps) for w, s in zip(own, seqs)])
        assert np.array_equal(got[:, 0], want)

    @pytest.mark.parametrize("n", [1, 63, 64, 65, 130])
    @pytest.mark.parametrize("u_card, n_b", [(2, 2), (2, 3), (3, 2), (3, 3)])
    def test_masks_match_the_reference_on_one_and_several_words(self, n, u_card, n_b):
        # n = 63, 64 fill one uint64 word, 65 and 130 spill into a second and
        # a third; the law is the joint type of words[0] with seqs[0], which
        # is typical at any tolerance, so both verdicts occur
        rng = np.random.default_rng([n, u_card, n_b])
        words = rng.integers(0, u_card, size=(40, n)).astype(np.int8)
        seqs = rng.integers(0, n_b, size=(6, n))
        words[1:20, :n // 2] = words[0, :n // 2]
        ref = ref_pair_counts(words[:1], seqs[0], u_card, n_b).reshape(u_card, n_b) / n
        bounds = _count_bounds(ref, 0.3, n)
        got = _typical_mask(_bitsets(words, u_card - 1), seqs, bounds)
        want = np.stack([ref_batch_pair_typical(words, s, ref, 0.3) for s in seqs])
        assert np.array_equal(got, want) and want.any() and not want.all()
        own = np.stack([words, words[::-1]] * 3)
        got = _typical_mask(_bitsets(own, u_card - 1), seqs[:, None, :], bounds)[:, 0]
        want = np.stack([ref_batch_pair_typical(w, s, ref, 0.3) for w, s in zip(own, seqs)])
        assert np.array_equal(got, want) and want.any() and not want.all()

    @settings(max_examples=120)
    @given(nx=st.integers(1, 5), nz=st.integers(1, 7), b=st.integers(1, 6),
           n=st.integers(1, 40), dtype=st.sampled_from([np.int8, np.int16, np.int64]),
           seed=st.integers(0, 2 ** 32 - 1))
    @example(nx=12, nz=12, b=3, n=200, dtype=np.int16, seed=0)
    def test_joint_types_count_every_cell(self, nx, nz, b, n, dtype, seed):
        # nx != nz catches a wrong cell stride; 144 cells need an int16 cell
        rng = np.random.default_rng(seed)
        x = rng.integers(0, nx, size=(b, n)).astype(dtype)
        z = rng.integers(0, nz, size=(b, n)).astype(dtype)
        want = np.zeros((b, nx, nz), dtype=np.int64)
        np.add.at(want, (np.arange(b)[:, None], x, z), 1)
        got = _joint_types(x, z, nx, nz)
        assert got.dtype == np.int64 and np.array_equal(got, want)

    @settings(max_examples=200)
    @given(cells=st.lists(st.one_of(DYADIC, st.floats(0.0, 1.0)), min_size=4, max_size=4),
           eps=EPS, n=st.integers(1, 64))
    @example(cells=[0.05, 0.25, 0.0, 0.7], eps=0.5, n=10)    # n p = 0.5: no count passes
    @example(cells=[0.25, 0.25, 0.25, 0.25], eps=0.5, n=8)   # counts 1 and 3 on the edge
    def test_count_bounds_equal_the_pass_table(self, cells, eps, n):
        ref = np.array(cells).reshape(2, 2)
        lo, hi = _count_bounds(ref, eps, n)
        c = np.arange(n + 1)
        table = np.abs(c - n * ref[:, :, None]) <= eps * n * ref[:, :, None]
        assert np.array_equal((lo[:, :, None] <= c) & (c <= hi[:, :, None]), table)

    def test_counts_on_the_tolerance_edge_are_typical(self):
        # n p = 2 and eps n p = 1: counts 1 and 3 sit exactly on the edge
        ref = np.full((2, 2), 0.25)
        words = np.array(list(itertools.product(range(2), repeat=8)), dtype=np.int8)
        seq = np.array([0, 1] * 4)
        counts = ref_pair_counts(words, seq, 2, 2)
        assert (counts == 1).any() and (counts == 3).any()
        want = ref_batch_pair_typical(words, seq, ref, 0.5)
        got = _typical_mask(_bitsets(words, 1), seq[None, :],
                            _count_bounds(ref, 0.5, 8))[0]
        assert np.array_equal(got, want) and want.any() and not want.all()

    def test_exact_type_is_typical_at_any_tolerance(self):
        # joint counts (1, 3, 2, 2) are exactly n p
        ref = np.array([[0.125, 0.375], [0.25, 0.25]])
        word = np.array([0, 0, 0, 0, 1, 1, 1, 1], dtype=np.int8)
        seq = np.array([0, 1, 1, 1, 0, 0, 1, 1])
        for eps in (0.01, 0.2, 0.9):
            assert _typical_mask(_bitsets(word[None, :], 1), seq[None, :],
                                 _count_bounds(ref, eps, 8))[0, 0]

    @settings(max_examples=50)
    @given(seed=st.integers(0, 2 ** 32 - 1))
    def test_monotone_in_tolerance(self, seed):
        # a block that passes at some eps passes at every larger eps
        source = dsbs(0.1)
        x, y = pairs_from_uniforms(source, np.random.default_rng(seed).random((64, 400)))
        bits = _bitsets(x[:, None, :].astype(np.int8), 1)
        masks = [_typical_mask(bits, y[:, None, :], _count_bounds(source.probs, eps, 400))
                 for eps in (0.05, 0.1, 0.2, 0.4, 0.8)]
        for tight, loose in zip(masks, masks[1:]):
            assert not (tight & ~loose).any()

    @settings(max_examples=60)
    @given(kind=st.integers(0, 2), n=st.integers(4, 12), mu=st.floats(0.05, 0.5),
           eps=EPS, seed=st.integers(0, 2 ** 32 - 1))
    def test_encoder_and_decoder_match_the_reference(self, kind, n, mu, eps, seed):
        rng = np.random.default_rng(seed)
        cfg = random_config(rng, kind, n, mu, eps)
        if cfg.codebook_symbols > 2 * 10 ** 5:
            return
        cb = build_codebook(cfg)
        xs, ys = map(np.stack, zip(*(sample_iid(cfg.source, n, as_rng(subseed(seed, t)))
                                     for t in range(6))))
        encs = encode_details(cb, xs)
        for x, enc in zip(xs, encs):
            assert same_detail(enc, ref_encode(cfg, cb, x))
        # each block against row 1, the row it was sent, a random row and the reserved one
        pairs = [(t, i) for t, enc in enumerate(encs)
                 for i in sorted({1, enc[2], int(rng.integers(1, cb.n1 + 1)), cb.n1 + 1})]
        decs = decode_details(cb, ys[[t for t, _ in pairs]], [i for _, i in pairs])
        for (t, i), dec in zip(pairs, decs):
            assert same_detail(dec, capped(ref_decode(cfg, cb, ys[t], i)))

    @pytest.mark.parametrize("cfg, outcomes", [
        (ProtocolConfig(n=14, mu=0.05, theta=0.1, eps_typ=0.8, aux=IDENTITY_AUX,
                        source=dsbs(0.1), seed=3), {0, 1, 2}),
        (ProtocolConfig(n=16, mu=0.05, theta=0.0, eps_typ=0.5, aux=BSC_AUX,
                        source=dsbs(0.05), seed=3, allow_degenerate_rate=True), {0, 1, 2}),
        (ternary_config(), {0, 1}),
    ], ids=["identity", "bsc", "ternary"])
    def test_protocol_trials_match_the_reference(self, cfg, outcomes):
        cb = build_codebook(cfg)
        xs, ys = map(np.stack, zip(*(sample_iid(cfg.source, cfg.n, as_rng(subseed(7, t)))
                                     for t in range(300))))
        encs = encode_details(cb, xs)
        for x, enc in zip(xs, encs):
            assert same_detail(enc, ref_encode(cfg, cb, x))
        # each block against the row it was sent and row t % N1 + 1
        pairs = [(t, i) for t, enc in enumerate(encs) for i in (enc[2], t % cb.n1 + 1)]
        decs = decode_details(cb, ys[[t for t, _ in pairs]], [i for _, i in pairs])
        for (t, i), dec in zip(pairs, decs):
            assert same_detail(dec, capped(ref_decode(cfg, cb, ys[t], i)))
        assert {enc[1] is not None for enc in encs} == {True, False}
        assert {dec[2] for dec in decs} == outcomes

    @pytest.mark.parametrize("cfg", [
        ProtocolConfig(n=14, mu=0.05, theta=0.1, eps_typ=0.8, aux=IDENTITY_AUX,
                       source=dsbs(0.1), seed=3),
        ProtocolConfig(n=16, mu=0.05, theta=0.0, eps_typ=0.5, aux=BSC_AUX,
                       source=dsbs(0.05), seed=3, allow_degenerate_rate=True),
        ternary_config(),
    ], ids=["identity", "bsc", "ternary"])
    def test_batched_trials_match_a_per_trial_loop(self, cfg):
        cb = build_codebook(cfg)
        engine, outs, k_cls = run_columns(cfg, 300)
        assert engine == "materialized"
        assert np.array_equal(outs.trial, np.arange(300))
        keys = []
        for t in range(300):
            rng = trial_reference(cfg, 2 * t)
            x, y = sample_iid(cfg.source, cfg.n, rng)
            k_word, k_idx, i_star = ref_encode(cfg, cb, x)
            flip, alt = draw_index(rng, cfg.n1, cfg.theta)
            i_tilde = i_star if flip >= cfg.theta else alt + (alt >= i_star)
            l_word, l_idx, distinct = ref_decode(cfg, cb, y, i_tilde)
            # a batched decode counts the typical values only up to 2
            agreed = k_word.tobytes() == l_word.tobytes()
            got = outcome_row(outs, t)
            assert got == (k_idx, i_star, i_tilde, l_idx, min(distinct, 2), agreed)
            assert same_detail((located_word(cb, got[0]), got[0], got[1]),
                               (k_word, k_idx, i_star))
            assert same_detail((located_word(cb, got[3]), got[3]), (l_word, l_idx))
            keys.append(k_word.tobytes())
        assert_same_partition(k_cls, keys)

    @settings(max_examples=30)
    @given(kind=st.integers(0, 2), n=st.integers(4, 9), mu=st.floats(0.05, 0.5),
           eps=EPS, seed=st.integers(0, 2 ** 32 - 1))
    def test_exact_typical_matrices_match_the_reference(self, kind, n, mu, eps, seed):
        cfg = random_config(np.random.default_rng(seed), kind, n, mu, eps)
        if cfg.n1 * cfg.n2 > 4000:
            return
        cb = build_codebook(cfg)
        flat = cb.words.reshape(-1, n)
        xs = np.array(list(itertools.product(range(2), repeat=n)), dtype=np.int8)
        for ref, bounds in zip(pair_laws(cfg), (cb.ux_bounds, cb.uy_bounds)):
            got = _typical_mask(cb.bits, xs, bounds).T
            assert np.array_equal(got, ref_typical_matrix(flat, xs, ref, eps, n))

    def test_scanning_encoder_bounds_its_mask_by_blocks_of_sequences(self, monkeypatch):
        # chunks of 4 words and blocks of 5 sequences: every sequence keeps
        # its first typical word across chunks, and no mask passes 20 cells
        cfg = ternary_config()
        cb = build_codebook(cfg)
        assert cb.scans and cb.n1 * cb.n2 > 3 * 4
        x, _ = sample_iid(cfg.source, 300 * cfg.n, 5)
        xs = x.reshape(300, cfg.n)
        want = []
        for row in xs:
            _, idx, _ = ref_encode(cfg, cb, row)
            want.append(-1 if idx is None else (idx[0] - 1) * cb.n2 + idx[1] - 1)
        monkeypatch.setattr(protocol, "_ENCODE_CHUNK", 4)
        monkeypatch.setattr(protocol, "_SCAN_CELLS", 20)
        cells = []

        def recorded(*args):
            mask = _typical_mask(*args)
            cells.append(mask.size)
            return mask
        monkeypatch.setattr(protocol, "_typical_mask", recorded)
        assert protocol._encode_batch(cb, xs).tolist() == want
        assert max(cells) <= 20 and len(cells) >= 60
        assert -1 in want and max(want) >= 8

    def test_deterministic_codebooks_never_build_full_blocks(self):
        cfg = ProtocolConfig(n=12, mu=0.05, theta=0.3, eps_typ=0.2,
                             aux=IDENTITY_AUX, source=diagonal_source(),
                             seed=13, allow_degenerate_rate=True)
        cb = build_codebook(cfg)
        assert not cb.scans
        outs, _ = protocol._materialized_batch(cb, cfg, protocol._trial_stream(cfg.seed),
                                               range(200))
        assert len(outs) == 200 and (outs.k_row != 0).any()
        assert "bits" not in vars(cb)
        scanning = build_codebook(ternary_config())
        assert scanning.scans and "bits" not in vars(scanning)
        protocol._encode_batch(scanning, np.zeros((1, 8), dtype=np.int64))
        assert vars(scanning)["bits"].shape == (scanning.n1 * scanning.n2, 2, 1)


def ref_overlaps(t0: int, bounds: np.ndarray, counts) -> list:
    """Every first row (c[0, b]) of a joint type whose rows sum to
    (t0, n - t0), whose columns sum to counts and whose every cell lies in
    bounds, by listing all first rows under counts."""
    lo, hi = bounds
    rows = []
    for first in itertools.product(*(range(k + 1) for k in counts)):
        table = np.array([first, [k - f for k, f in zip(counts, first)]])
        if sum(first) == t0 and ((lo <= table) & (table <= hi)).all():
            rows.append(first)
    return rows


def one_type_codebook(cfg: ProtocolConfig) -> Codebook:
    """build_codebook's codebook, checked to be a binary one of one type."""
    cb = build_codebook(cfg)
    assert cb.u_card == 2 and np.array_equal(cb.word_type, cfg.u_type)
    return cb


def spy_on_the_kernel(monkeypatch, cb: Codebook) -> list:
    """Replace the typicality kernel by one that records, for each block it
    receives, whether a joint type of it with a word of the codebook's type
    fits the bounds it is tested under; the list of those records."""
    seen = []

    def recorded(bits, seqs, bounds):
        for seq in seqs.reshape(-1, seqs.shape[-1]):
            counts = np.bincount(seq, minlength=bounds.shape[2])
            seen.append(bool(ref_overlaps(int(cb.word_type[0]), bounds, counts)))
        return _typical_mask(bits, seqs, bounds)
    monkeypatch.setattr(protocol, "_typical_mask", recorded)
    return seen


def assert_same_bits(got: ExactResult, want: ExactResult) -> None:
    for field in dataclasses.fields(ExactResult):
        a, b = getattr(got, field.name), getattr(want, field.name)
        if field.name == "joint_ky":
            assert a.shape == b.shape and a.tobytes() == b.tobytes()
        else:
            assert (type(a), repr(a)) == (type(b), repr(b)), field.name


# |U| = 2 configs that scan: a binary and a ternary X
BINARY_U_CONFIGS = [
    ProtocolConfig(n=9, mu=0.05, theta=0.1, eps_typ=0.8,
                   aux=AuxiliaryChannel.from_matrix(np.array([[0.85, 0.15], [0.15, 0.85]])),
                   source=dsbs(0.1), seed=5, allow_degenerate_rate=True),
    ProtocolConfig(n=10, mu=0.05, theta=0.1, eps_typ=0.8,
                   aux=AuxiliaryChannel.from_matrix(
                       np.array([[0.8, 0.2], [0.5, 0.5], [0.2, 0.8]])),
                   source=JointPmf(np.array([[0.3, 0.05], [0.1, 0.15], [0.05, 0.35]])),
                   seed=6, allow_degenerate_rate=True),
]


class TestAdmission:
    @settings(max_examples=300)
    @given(nx=st.sampled_from([2, 3]), n=st.integers(1, 8), law=st.booleans(),
           data=st.data())
    def test_admitted_exactly_when_a_joint_type_fits(self, nx, n, law, data):
        # a word with t0 zeros against a block of the drawn counts, under
        # a _count_bounds table or under any intervals at all
        t0 = data.draw(st.integers(0, n))
        cuts = sorted(data.draw(st.lists(st.integers(0, n), min_size=nx - 1,
                                         max_size=nx - 1)))
        counts = np.diff([0, *cuts, n])
        if law:
            probs = np.array(data.draw(st.lists(st.floats(0.0, 1.0), min_size=2 * nx,
                                                max_size=2 * nx)))
            probs[0] += probs.sum() == 0.0
            bounds = _count_bounds((probs / probs.sum()).reshape(2, nx), data.draw(EPS), n)
        else:
            lo = np.array(data.draw(st.lists(st.integers(0, n), min_size=2 * nx,
                                             max_size=2 * nx)))
            width = np.array(data.draw(st.lists(st.integers(-1, n), min_size=2 * nx,
                                                max_size=2 * nx)))
            bounds = np.stack([lo, np.minimum(lo + width, n)]).reshape(2, 2, nx)
            bounds = bounds.astype(np.float32)
        word = (np.arange(n) >= t0).astype(np.int8).reshape(1, 1, n)
        cb = Codebook(word, 1, 1, bounds, bounds, None)
        seq = np.repeat(np.arange(nx), counts)[None, :]
        rows = ref_overlaps(t0, bounds, counts)
        assert cb.admits(seq, bounds).tolist() == [bool(rows)]
        if rows:
            lo, hi = protocol._overlap_range(t0, bounds, counts[None, :])
            assert lo[0].tolist() == np.min(rows, axis=0).tolist()
            assert hi[0].tolist() == np.max(rows, axis=0).tolist()

    def test_words_of_differing_types_admit_every_block(self):
        words = np.array([[[0, 0, 1, 1], [0, 1, 1, 1]]], dtype=np.int8)
        bounds = _count_bounds(np.array([[0.5, 0.0], [0.0, 0.5]]), 0.1, 4)
        cb = Codebook(words, 1, 2, bounds, bounds, None)
        seqs = np.array(list(itertools.product(range(2), repeat=4)))
        assert cb.word_type is None and cb.admits(seqs, bounds).all()
        one_type = Codebook(words[:, :1], 1, 1, bounds, bounds, None)
        assert one_type.word_type.tolist() == [2, 2]
        # the law pins the joint type to (2, 0, 0, 2): blocks with two zeros
        assert one_type.admits(seqs, bounds).tolist() == (seqs.sum(axis=1) == 2).tolist()

    @pytest.mark.parametrize("cfg", BINARY_U_CONFIGS, ids=["binary-x", "ternary-x"])
    def test_scans_match_the_reference_and_see_only_admitted_blocks(self, cfg, monkeypatch):
        cb = one_type_codebook(cfg)
        assert cb.scans
        xs, ys = map(np.stack, zip(*(sample_iid(cfg.source, cfg.n, as_rng(subseed(9, t)))
                                     for t in range(300))))
        for seqs, bounds in ((xs, cb.ux_bounds), (ys, cb.uy_bounds)):
            admitted = cb.admits(seqs, bounds)
            assert 0 < admitted.sum() < admitted.size
        seen = spy_on_the_kernel(monkeypatch, cb)
        encs = encode_details(cb, xs)
        for x, enc in zip(xs, encs):
            assert same_detail(enc, ref_encode(cfg, cb, x))
        # each block against the row it was sent, row t % N1 + 1 and the reserved row
        pairs = [(t, i) for t, enc in enumerate(encs)
                 for i in sorted({enc[2], t % cb.n1 + 1, cb.n1 + 1})]
        decs = decode_details(cb, ys[[t for t, _ in pairs]], [i for _, i in pairs])
        for (t, i), dec in zip(pairs, decs):
            assert same_detail(dec, capped(ref_decode(cfg, cb, ys[t], i)))
        assert {enc[1] is not None for enc in encs} == {True, False}
        assert {dec[1] is not None for dec in decs} == {True, False}
        assert seen and all(seen)

    @pytest.mark.parametrize("n", [8, 9, 10])
    def test_exact_analysis_matches_the_dense_reference(self, n, monkeypatch):
        cfg = dataclasses.replace(BINARY_U_CONFIGS[0], n=n)
        cb = one_type_codebook(cfg)
        xs = np.array(list(itertools.product(range(2), repeat=n)), dtype=np.int8)
        admitted = cb.admits(xs, cb.uy_bounds)
        assert 0 < admitted.sum() < admitted.size
        want = dense_exact_analyze(cfg)
        seen = spy_on_the_kernel(monkeypatch, cb)
        assert_same_bits(exact_analyze(cfg), want)
        assert seen and all(seen)

    def test_a_config_no_block_fits_never_calls_the_kernel(self, monkeypatch):
        # identity auxiliary at eps 0.15: n p(u=0, y=1) = 0.5 lets no count
        # of that cell pass, so no (u, y) pair is typical and the decode
        # table is left at the fallback without one scan
        cfg = small_exact_config()
        cb = one_type_codebook(cfg)
        assert not cb.admits(np.array(list(itertools.product(range(2), repeat=cfg.n))),
                             cb.uy_bounds).any()
        want = dense_exact_analyze(cfg)
        seen = spy_on_the_kernel(monkeypatch, cb)
        assert_same_bits(exact_analyze(cfg), want)
        assert seen == []


def sent_through_index_channel(i_star: int, n1: int, theta: float, rng) -> int:
    """The index received for i_star, drawn and resolved as the engines do."""
    return int(protocol._resolve_index(i_star, *draw_index(rng, n1, theta), theta))


class TestGenieChannel:
    def test_noiseless_theta_is_identity(self):
        assert draw_index(as_rng(0), 10, 0.0)[1] == 0
        assert sent_through_index_channel(4, 10, 0.0, as_rng(0)) == 4

    def test_flip_frequency_reference_run(self):
        rng = as_rng(subseed(101, 1))
        flips = sum(sent_through_index_channel(3, 10, 0.5, rng) != 3 for _ in range(10**4))
        assert flips == 5050
        # a Binomial(10**4, 1/2) count, within 4 standard errors (50) of its mean
        assert abs(flips - 5000) <= 4 * 50

    def test_wrong_index_lands_inside_the_extended_range(self):
        rng = as_rng(7)
        for _ in range(200):
            got = sent_through_index_channel(2, 5, 0.9, rng)
            assert 1 <= got <= 6


class TestExactAnalyzer:
    def test_reference_triple_is_frozen(self):
        cfg = small_exact_config()
        res = exact_analyze(cfg)
        assert res.p_disagree == pytest.approx(70 / 256, abs=1e-12)
        assert res.entropy_k_bits == pytest.approx(2.5223299263043213, abs=1e-9)
        assert res.entropy_k_given_y_bits == pytest.approx(
            1.3308369040324166, abs=1e-9)
        assert res.entropy_l_bits == pytest.approx(0.0, abs=1e-12)
        assert res.uniformity_gap_bits == pytest.approx(
            1.0537104048231456, abs=1e-9)
        assert res.claim_rate_bits == pytest.approx(0.16635461300405208, abs=1e-9)
        assert (cfg.n1, cfg.n2) == (1980, 1)

    def test_deterministic_aux_makes_the_seed_irrelevant(self):
        a = exact_analyze(small_exact_config(seed=0))
        b = exact_analyze(small_exact_config(seed=5))
        assert a.p_disagree == b.p_disagree
        assert a.entropy_k_bits == b.entropy_k_bits

    def test_ternary_reference_values(self):
        res = exact_analyze(ternary_config())
        assert res.p_disagree == pytest.approx(0.14832141953124978, abs=1e-12)
        assert res.entropy_k_bits == pytest.approx(1.704941788341862, abs=1e-9)
        assert res.entropy_k_given_y_bits == pytest.approx(
            1.1300479658352671, abs=1e-9)

    def test_guard_on_large_blocks(self):
        cfg = ProtocolConfig(n=12, mu=0.3, theta=0.0, eps_typ=0.6,
                             aux=TERNARY_AUX, source=dsbs(0.1), seed=2,
                             allow_degenerate_rate=True)
        with pytest.raises(GuardError):
            exact_analyze(cfg)

    @pytest.mark.parametrize("aux, p, n, eps, values, joint_sha256", [
        (IDENTITY_AUX, 0.2, 8, 0.6, (0.23752863911599964, 2.487229437503953,
                                     1.881576508731218, 0.5266140101545941),
         "c2315bc6f30ebb6ab8e520f440651862b70e99a01417286447f4f743dbbf298f"),
        (BSC_AUX, 0.1, 9, 0.8, (0.0041992187499995115, 0.0, 0.0, 0.05808566793280322),
         "07d8347f722324c27da511b946dc8368a26feebd98e3f7ddc8d20aa3848a3113"),
    ], ids=["identity", "bsc"])
    def test_rows_with_ambiguous_decodes_reference_run(self, aux, p, n, eps, values,
                                                       joint_sha256):
        # n2 > 1, so some rows hold two typical words of different values; the
        # joint law's bytes pin the value classes' order as well as the sums.
        # H(L)'s independent bound is the exactly rounded law's, below
        cfg = ambiguous_config(aux, p, n, eps)
        res = exact_analyze(cfg)
        assert cfg.n2 > 1
        got = (res.p_disagree, res.entropy_k_bits, res.entropy_k_given_y_bits,
               res.entropy_l_bits)
        assert got == pytest.approx(values, abs=1e-12)
        assert hashlib.sha256(res.joint_ky.tobytes()).hexdigest() == joint_sha256

    @pytest.mark.parametrize("aux, p, n, eps", [
        (IDENTITY_AUX, 0.2, 8, 0.6), (BSC_AUX, 0.1, 9, 0.8)], ids=["identity", "bsc"])
    def test_output_entropy_is_near_the_exactly_rounded_law(self, aux, p, n, eps):
        # the reference adds each class's terms by math.fsum; the analyzer
        # reads 8.8e-14 and 5.3e-15 off it, and 2.6e-13 and 1.6e-13 off
        # when H(L) is taken of the output law not renormalised
        cfg = ambiguous_config(aux, p, n, eps)
        got = exact_analyze(cfg, include_joint=False).entropy_l_bits
        assert abs(got - exactly_rounded_entropy_l_bits(cfg)) <= 2e-13

    @pytest.mark.parametrize("mu", [0.5, 1.0])
    def test_scan_guard_fires_before_the_codebook_is_drawn(self, monkeypatch, mu):
        def no_codebook(cfg):
            raise AssertionError("build_codebook called")
        monkeypatch.setattr(protocol, "build_codebook", no_codebook)
        cfg = ProtocolConfig(n=10, mu=mu, theta=0.0, eps_typ=0.15, aux=IDENTITY_AUX,
                             source=dsbs(0.1), seed=0, allow_degenerate_rate=True)
        with pytest.raises(GuardError, match="word/sequence cells"):
            exact_analyze(cfg)

    def test_joint_law_is_a_distribution(self):
        res = exact_analyze(small_exact_config())
        assert res.joint_ky.sum() == pytest.approx(1.0, abs=1e-9)
        assert np.all(res.joint_ky >= 0.0)

    @pytest.mark.parametrize("block", [None, 2 ** 11, 2 ** 9],
                             ids=["batch", "small-blocks", "tiny-blocks"])
    @pytest.mark.parametrize("source", [dsbs(0.1), JointPmf(np.array([[0.5, 0.1], [0.05, 0.35]])),
                                        JointPmf(np.array([[0.5, 0.0], [0.1, 0.4]]))],
                             ids=["dsbs", "asymmetric", "zero-cell"])
    @pytest.mark.parametrize("aux, eps", [
        (IDENTITY_AUX, 0.3),
        # BSC(0.1) words were typical with no x at n <= 10 (eps 0.3 to 0.8)
        (AuxiliaryChannel.from_matrix(np.array([[0.7, 0.3], [0.3, 0.7]])), 0.6),
    ], ids=["identity", "bsc"])
    def test_blocks_reproduce_the_dense_analysis_bit_for_bit(self, monkeypatch, block,
                                                             source, aux, eps):
        # a block of 2**11 cuts the n = 8 pair law into 128 blocks of 2 x
        # rows (a quarter of the block each) and its decode table into
        # blocks of a few sequences; one of 2**9 walks the pair law one x
        # at a time, so the fallback class's x rows span many blocks. Each
        # sum runs along one whole row or over one entry per x or per
        # class, so no block size moves a bit. A zero source cell leaves
        # zero joint cells, which take no entropy term
        if block is not None:
            monkeypatch.setattr(protocol, "_EXACT_BLOCK", block)
        for n, theta in itertools.product(range(2, 11), (0.0, 0.03)):
            cfg = ProtocolConfig(n=n, mu=0.05, theta=theta, eps_typ=eps, aux=aux,
                                 source=source, seed=4, allow_degenerate_rate=True)
            got, want = exact_analyze(cfg), dense_exact_analyze(cfg)
            for field in dataclasses.fields(ExactResult):
                a, b = getattr(got, field.name), getattr(want, field.name)
                if field.name == "joint_ky":
                    assert a.shape == b.shape and a.tobytes() == b.tobytes(), (n, theta)
                else:
                    assert (type(a), repr(a)) == (type(b), repr(b)), (n, theta, field.name)

    def test_analysis_at_n10_stays_under_1_6_mib(self):
        # the benchmark's exact10 jobs; the dense pair tables peaked near 58
        # MiB, and a float copy of the class counts or the K-Y joint near
        # 2.9 MiB. The traced peak is 1.42 MiB: the small-int class counts
        # and decode table, the head table and one block of the pair law
        cfg = ProtocolConfig(n=10, mu=0.1, theta=0.02, eps_typ=0.15, aux=IDENTITY_AUX,
                             source=dsbs(0.1), seed=0)
        tracemalloc.start()
        try:
            exact_analyze(cfg, include_joint=False)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.6 * 2 ** 20

    @pytest.mark.parametrize("aux, mu, n1, mib", [
        (TERNARY_AUX, 0.45, 14790, 12.9), (BSC_AUX, 0.3, 2211, 5)], ids=["ternary", "bsc"])
    def test_traced_peak_does_not_grow_with_n1(self, aux, mu, n1, mib):
        # an (N1 + 1) x 2**10 decode table took these to 110.2 and 14.3 MiB,
        # and a float copy of the ternary config's 4,078 x 2**10 class counts
        # to 41.7 MiB; its traced peak is 11.3 MiB
        cfg = ProtocolConfig(n=10, mu=mu, theta=0.01, eps_typ=0.6, aux=aux,
                             source=dsbs(0.1), seed=2, allow_degenerate_rate=True)
        assert cfg.n1 == n1
        tracemalloc.start()
        try:
            exact_analyze(cfg, include_joint=False)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= mib * 2 ** 20

    @pytest.mark.parametrize("n", [8, 10])
    def test_the_pair_law_is_walked_once(self, monkeypatch, n):
        # the rows _pair_law extends from the head table's rows, which have
        # more than one cell, where the head table and p_y start from one:
        # each x's pair-law row is formed once
        extended = []

        def spy(law, factors):
            if law.shape[1] > 1:
                extended.append(law.shape[0])
            return pair_law(law, factors)
        pair_law = protocol._pair_law
        monkeypatch.setattr(protocol, "_pair_law", spy)
        cfg = ProtocolConfig(n=n, mu=0.1, theta=0.02, eps_typ=0.15, aux=IDENTITY_AUX,
                             source=dsbs(0.1), seed=0)
        exact_analyze(cfg, include_joint=False)
        assert sum(extended) == 2 ** n

    @pytest.mark.parametrize("cfg", [
        small_exact_config(),
        # the seed-2 benchmark's g0-exact10 input, whose index channel is noisy
        ProtocolConfig(n=10, mu=0.1, theta=0.03427020870312052, eps_typ=0.15,
                       aux=IDENTITY_AUX, seed=817091732, source=JointPmf(np.array(
                           [[0.44755359147457235, 0.05244640852542763],
                            [0.05244640852542763, 0.44755359147457235]])))],
        ids=["criterion-07", "bench-exact10"])
    def test_a_decoder_that_refuses_every_y_leaves_l_no_entropy(self, cfg):
        # L is the reserved value whatever is sent, so its law is a point
        # mass: its entropy is +0.0, not the -p log2 p of a mass rounded
        # below 1 (3.3e-12 on the benchmark input)
        res = exact_analyze(cfg, include_joint=False)
        assert res.entropy_l_bits == 0.0 and math.copysign(1.0, res.entropy_l_bits) == 1.0

    def test_the_output_law_does_not_depend_on_the_tail_blocks(self, monkeypatch):
        # the tail sums the class counts times the weighted y law per class,
        # in blocks of 1, 7 and all rows; a matrix-vector product in blocks
        # of rows gives some rows other bits as the block height changes
        cfg = ProtocolConfig(n=8, mu=0.5, theta=0.03, eps_typ=0.6, aux=TERNARY_AUX,
                             source=dsbs(0.1), seed=4, allow_degenerate_rate=True)
        laws = {}
        for rows in (1, 7, 2 ** 12):
            seen = []
            monkeypatch.setattr(protocol, "entropy_bits",
                                lambda p, seen=seen: seen.append(p.copy()) or entropy_bits(p))
            monkeypatch.setattr(protocol, "_EXACT_BLOCK", 4 * 2 ** cfg.n * rows)
            exact_analyze(cfg, include_joint=False)
            # the normalised output law, the first entropy taken of a law on
            # the classes; the K-Y joint's rows have 2**n cells
            laws[rows] = next(p for p in seen if p.size != 2 ** cfg.n)
        assert 7 < laws[1].size < 2 ** 12 and laws[1].size % 7 != 0
        assert laws[1].tobytes() == laws[7].tobytes() == laws[2 ** 12].tobytes()

    @pytest.mark.parametrize("aux", [
        AuxiliaryChannel.from_matrix(np.array([[0.7, 0.3], [0.3, 0.7]])), TERNARY_AUX],
        ids=["bsc", "ternary"])
    def test_a_few_sent_rows_of_thousands_match_the_dense_reference(self, aux):
        # only the rows the encoder sends are decoded and kept; every row
        # is still counted into the class counts of the index channel's errors
        cfg = ProtocolConfig(n=8, mu=0.5, theta=0.03, eps_typ=0.6, aux=aux, source=dsbs(0.1),
                             seed=4, allow_degenerate_rate=True)
        cb = build_codebook(cfg)
        found = protocol._encode_batch(
            cb, np.array(list(itertools.product(range(2), repeat=cfg.n)), dtype=np.int8))
        sent = np.unique(np.where(found >= 0, found // cfg.n2, cfg.n1))
        assert cfg.n1 > 4000 and 1 < sent.size < 16
        got = exact_analyze(cfg)
        assert got.entropy_k_bits > 0.0 and got.entropy_l_bits > 0.0
        assert_same_bits(got, dense_exact_analyze(cfg))


class TestMonteCarlo:
    def test_agrees_with_exact_analyzer_on_ternary_aux(self):
        cfg = ternary_config()
        exact = exact_analyze(cfg, include_joint=False)
        mc = run_monte_carlo(cfg, 20000, keep_outcomes=False)
        se = (exact.p_disagree * (1 - exact.p_disagree) / 20000) ** 0.5
        assert abs(mc.p_disagree - exact.p_disagree) <= 3.0 * se
        assert mc.engine == "materialized"

    def test_agrees_with_exact_analyzer_where_the_decoder_decodes(self):
        # criterion 07's config admits no y sequence, so its decoder always
        # falls back; at DSBS(0.25) 70 of the 256 are admitted
        cfg = ProtocolConfig(n=8, mu=0.1, theta=0.02, eps_typ=0.15, aux=IDENTITY_AUX,
                             source=dsbs(0.25), seed=5, allow_degenerate_rate=True)
        cb = one_type_codebook(cfg)
        ys = np.array(list(itertools.product(range(2), repeat=cfg.n)))
        assert np.count_nonzero(cb.admits(ys, cb.uy_bounds)) == 70
        exact = exact_analyze(cfg, include_joint=False)
        mc = run_monte_carlo(cfg, 20000)
        se = (exact.p_disagree * (1 - exact.p_disagree) / 20000) ** 0.5
        assert abs(mc.p_disagree - exact.p_disagree) <= 3.0 * se
        decoded = mc.outcomes.l_row != 0
        assert np.count_nonzero(decoded & mc.outcomes.agreed) > 0

    def test_same_seed_gives_the_same_run(self):
        cfg = ternary_config()
        a = run_monte_carlo(cfg, 500)
        b = run_monte_carlo(cfg, 500)
        assert a == b
        assert a.p_disagree == b.p_disagree
        assert a.event_counts == b.event_counts
        assert a.entropy_k_bits == b.entropy_k_bits
        assert a.outcomes == b.outcomes and len(a.outcomes) == 500

    def test_identical_source_with_noisy_index_reference_run(self):
        cfg = ProtocolConfig(n=12, mu=0.05, theta=0.3, eps_typ=0.2,
                             aux=IDENTITY_AUX, source=diagonal_source(),
                             seed=13, allow_degenerate_rate=True)
        mc = run_monte_carlo(cfg, 20000, keep_outcomes=False)
        assert mc.p_disagree == pytest.approx(0.0307, abs=1e-12)
        assert mc.event_counts["index_error"] == 5986
        assert mc.event_counts["encoder_fallback"] == 15452

    def test_disagreement_grows_with_index_noise(self):
        # all theta values share one randomness stream (coupled draws)
        ps = []
        for theta in (0.0, 0.011, 0.022, 0.02975, 0.0465):
            cfg = ProtocolConfig(n=12, mu=0.05, theta=theta, eps_typ=0.2,
                                 aux=IDENTITY_AUX, source=diagonal_source(),
                                 seed=13, allow_degenerate_rate=True)
            ps.append(run_monte_carlo(cfg, 4000, keep_outcomes=False).p_disagree)
        assert ps[0] == 0.0
        assert all(a < b for a, b in zip(ps, ps[1:]))

    def test_statistical_engine_reference_run(self):
        cfg = ProtocolConfig(n=1000, mu=0.1, theta=0.01, eps_typ=0.15,
                             aux=IDENTITY_AUX, source=dsbs(0.05), seed=11)
        mc = run_monte_carlo(cfg, 2000, keep_outcomes=False)
        assert mc.engine == "statistical"
        assert mc.p_disagree == pytest.approx(0.022, abs=1e-12)
        assert mc.event_counts["encoder_fallback"] == 1938
        assert mc.event_counts["index_error"] == 25
        assert mc.event_counts["decoder_miss"] == 43
        assert cfg.log2_k_cardinality == pytest.approx(1100.0, abs=1e-9)

    def test_statistical_engine_same_seed_gives_the_same_run(self):
        cfg = ProtocolConfig(n=1000, mu=0.1, theta=0.01, eps_typ=0.15,
                             aux=IDENTITY_AUX, source=dsbs(0.05), seed=11)
        a = run_monte_carlo(cfg, 400)
        b = run_monte_carlo(cfg, 400)
        assert a.engine == b.engine == "statistical"
        assert a.p_disagree == b.p_disagree
        assert a.event_counts == b.event_counts
        assert a.entropy_k_bits == b.entropy_k_bits
        assert a.outcomes == b.outcomes and len(a.outcomes) == 400

    @pytest.mark.parametrize("p, n, mu, theta, eps", [
        (0.05, 16, 0.1, 0.05, 0.15),
        (0.1, 16, 0.05, 0.05, 0.5),
        (0.1, 14, 0.05, 0.1, 0.8),
    ])
    def test_statistical_engine_agrees_with_the_materialized_one(
            self, monkeypatch, p, n, mu, theta, eps):
        trials = 4000
        cfg = ProtocolConfig(n=n, mu=mu, theta=theta, eps_typ=eps,
                             aux=IDENTITY_AUX, source=dsbs(p), seed=3)
        full = run_monte_carlo(cfg, trials, keep_outcomes=False)
        monkeypatch.setattr(protocol, "MEMORY_GUARD", 0)
        stat = run_monte_carlo(cfg, trials, keep_outcomes=False)
        assert (full.engine, stat.engine) == ("materialized", "statistical")
        rates = [(full.p_disagree * trials, stat.p_disagree * trials)]
        rates += [(full.event_counts[k], stat.event_counts[k]) for k in full.event_counts]
        for a, b in rates:
            pooled = (a + b) / (2 * trials)
            se = math.sqrt(pooled * (1.0 - pooled) * 2.0 / trials)
            assert abs(a - b) / trials <= 3.0 * se + 1e-12

    def test_statistical_engine_refuses_tiny_rows(self, monkeypatch):
        # N2 = 3: forced here, this engine's ambiguous-decode rate sat 2.7 SE
        # off the materialized engine's
        cfg = ProtocolConfig(n=12, mu=0.02, theta=0.05, eps_typ=0.9, aux=IDENTITY_AUX,
                             source=dsbs(0.25), seed=3)
        assert cfg.n2 == 3 < protocol.STATISTICAL_MIN_N2
        monkeypatch.setattr(protocol, "MEMORY_GUARD", 0)
        with pytest.raises(GuardError, match="N2"):
            run_monte_carlo(cfg, 10)

    @pytest.mark.parametrize("source, mu, eps, typical_k", [
        # n p of the off-diagonal cells is 0.3: no word is typical with any y
        (dsbs(0.05), 0.01, 0.5, []),
        (dsbs(0.1), 0.005, 0.9, [6]),
        (JointPmf(np.array([[0.5, 0.06], [0.0, 0.44]])), 0.01, 0.5, [6]),
    ], ids=["dsbs-0.05", "dsbs-0.1", "zero-cell"])
    def test_row_match_probability_counts_the_type_class(self, source, mu, eps, typical_k):
        # every word of the codebook's type class at n = 12 against a y with k
        # zeros, for every k: 2**_log2_q_y(k) is the fraction the reference
        # test calls typical, and -inf where it calls none typical
        cfg = ProtocolConfig(n=12, mu=mu, theta=0.0, eps_typ=eps, aux=IDENTITY_AUX,
                             source=source, seed=0)
        engine = protocol._StatisticalEngine(cfg)
        words = np.array([w for w in itertools.product(range(2), repeat=cfg.n)
                          if w.count(0) == cfg.u_type[0]], dtype=np.int8)
        assert len(words) == math.comb(cfg.n, int(cfg.u_type[0]))
        ref_uy = pair_laws(cfg)[1]
        seen = []
        for k in range(cfg.n + 1):
            y = np.array([0] * k + [1] * (cfg.n - k))
            fraction = ref_batch_pair_typical(words, y, ref_uy, eps).mean()
            log2_q = engine._log2_q_y(k)
            if fraction == 0.0:
                assert log2_q == -math.inf, k
            else:
                assert 2.0 ** log2_q == pytest.approx(fraction, rel=1e-12), k
                seen.append(k)
        assert seen == typical_k

    @pytest.mark.parametrize("cfg, trials, batch", [
        (ProtocolConfig(n=12, mu=0.05, theta=0.3, eps_typ=0.2, aux=IDENTITY_AUX,
                        source=diagonal_source(), seed=13, allow_degenerate_rate=True),
         50, 16),
        (ProtocolConfig(n=16, mu=0.05, theta=0.05, eps_typ=0.5, aux=BSC_AUX,
                        source=dsbs(0.05), seed=3, allow_degenerate_rate=True), 50, 16),
        (ProtocolConfig(n=1000, mu=0.1, theta=0.2, eps_typ=0.15, aux=IDENTITY_AUX,
                        source=dsbs(0.05), seed=11), 140, 65),
    ], ids=["lookup", "scan", "statistical"])
    def test_outcomes_do_not_depend_on_the_batch_layout(self, monkeypatch, cfg, trials,
                                                        batch):
        # the first `trials` outcomes cross two boundaries of `batch`-trial
        # batches; the batches are shrunk to get there
        monkeypatch.setattr(protocol, "_TRIAL_BATCH_SYMBOLS", batch * cfg.n)
        short = run_monte_carlo(cfg, trials)
        long = run_monte_carlo(cfg, trials + batch)
        assert short.outcomes == head(long.outcomes, trials)
        assert set((short.outcomes.k_row == 0).tolist()) == {True, False}
        monkeypatch.undo()  # the default layout
        assert run_monte_carlo(cfg, trials) == short

    @pytest.mark.parametrize("cfg", [
        # the alternative index comes from rng.bytes, and 39 of 200 trials
        # draw after it
        ProtocolConfig(n=1000, mu=0.02, theta=0.2, eps_typ=0.4, aux=IDENTITY_AUX,
                       source=dsbs(0.05), seed=11),
        # N1 = 2**30: the alternative comes from rng.integers, which leaves
        # the upper half of a 64-bit draw cached in the state of every trial
        # whose flip sends it
        ProtocolConfig(n=1000, mu=0.01, theta=0.2, eps_typ=0.15, aux=IDENTITY_AUX,
                       source=diagonal_source(), seed=11),
    ], ids=["bytes", "uint32"])
    def test_statistical_trials_match_a_per_trial_loop(self, cfg):
        engine = protocol._StatisticalEngine(cfg)
        eps = cfg.eps_typ
        ref_ux, ref_uy = pair_laws(cfg)
        fallback = reserved_word(cfg.n, cfg.u_card)
        name, outs, k_cls = run_columns(cfg, 200)
        assert name == "statistical"
        assert np.array_equal(outs.trial, np.arange(200))
        cached = moved = 0
        keys = []
        for t in range(200):
            rng = trial_reference(cfg, 2 * t)
            x, y = sample_iid(cfg.source, cfg.n, rng)
            u = cfg.det_map[x]
            exact_type = (u == 0).sum() == cfg.u_type[0]
            encodes = exact_type and ref_batch_pair_typical(u[None, :], x, ref_ux, eps)[0]
            own = exact_type and ref_batch_pair_typical(u[None, :], y, ref_uy, eps)[0]
            flip, alt = draw_index(rng, cfg.n1, cfg.theta)
            # the cached half of a 32-bit draw never reaches the later draws,
            # which start on their own substream
            cached += rng.bit_generator.state["has_uint32"]
            k_idx = engine.value_rows(u.tobytes()) if encodes else None
            i_star = k_idx[0] if k_idx is not None else cfg.n1 + 1
            i_tilde = i_star if flip >= cfg.theta else alt + (alt >= i_star)
            l_idx, distinct, own_l = None, 0, False
            if i_tilde <= cfg.n1:
                later = trial_reference(cfg, 2 * t + 1)
                state = later.bit_generator.state
                l_idx, distinct, own_l = engine._decode(later, u.tobytes(), k_idx, i_tilde,
                                                        bool(own), int((y == 0).sum()))
                moved += later.bit_generator.state != state
            k_word = u if k_idx is not None else fallback
            l_word = (u if own_l else np.array([-1], dtype=np.int8) if l_idx is not None
                      else fallback)
            agreed = k_word.tobytes() == l_word.tobytes()
            assert outcome_row(outs, t) == (k_idx, i_star, i_tilde, l_idx, distinct, agreed)
            keys.append(k_word.tobytes())
        assert_same_partition(k_cls, keys)
        assert cached > 0 and moved > 0

    def test_trial_substreams_draw_uniformly_across_trials(self):
        # jumps by a multiple of 2**64 would leave the low half of the LCG
        # state the same in every substream: those substreams' first and
        # 13th draws read 16-bin chi-squares of 67 to 152 on seeds 0, 3 and
        # 13, against 37.7 at p = 0.001 on 15 degrees of freedom
        stream = protocol._trial_stream(13)
        for draw in (lambda rng: rng.random(), lambda rng: rng.random(13)[-1]):
            u = np.array([draw(stream(k)) for k in range(8000)])
            counts = np.bincount((u * 16).astype(int), minlength=16)
            assert ((counts - 500) ** 2 / 500).sum() < 37.7

    @pytest.mark.parametrize("cfg", [
        # alternatives from rng.bytes: N1 is far past 2**62
        ProtocolConfig(n=1000, mu=0.02, theta=0.3, eps_typ=0.4, aux=IDENTITY_AUX,
                       source=dsbs(0.05), seed=11),
        # N1 = 2**30: rng.integers leaves half a 64-bit draw cached
        ProtocolConfig(n=1000, mu=0.01, theta=0.3, eps_typ=0.15, aux=IDENTITY_AUX,
                       source=diagonal_source(), seed=11),
        ProtocolConfig(n=12, mu=0.05, theta=0.3, eps_typ=0.2, aux=IDENTITY_AUX,
                       source=dsbs(0.2), seed=13, allow_degenerate_rate=True),
    ], ids=["bytes", "uint32", "small-n"])
    def test_trial_blocks_follow_numpys_jumped_substreams(self, cfg):
        # one stream serves three calls whose boundaries split the trials
        # 3..39, as consecutive batches do; each trial must draw what a fresh
        # numpy PCG64(...).jumped(2t) draws, by an independent inverse cdf
        stream = protocol._trial_stream(cfg.seed)
        parts = [protocol._trial_blocks(cfg, stream, range(lo, hi))
                 for lo, hi in ((3, 7), (7, 19), (19, 40))]
        x, y, flips, alts = (np.concatenate(column) for column in zip(*parts))
        steps = np.cumsum(cfg.source.probs.ravel())[:-1]
        drew = []
        for k, t in enumerate(range(3, 40)):
            rng = trial_reference(cfg, 2 * t)
            cells = np.searchsorted(steps, rng.random(cfg.n), side="right")
            flip = rng.random()
            alt = protocol._uniform_int(rng, cfg.n1) if flip < cfg.theta else 0
            assert np.array_equal(x[k], cells // cfg.source.ny)
            assert np.array_equal(y[k], cells % cfg.source.ny)
            assert (flips[k], alts[k]) == (flip, alt)
            drew.append(alt != 0)
        # alternatives inside each call, so later trials of the call start
        # from an absolute substream
        assert sum(drew[:-1]) >= 5 and not all(drew)

    @pytest.mark.parametrize("cfg", [
        ProtocolConfig(n=8, mu=0.3, theta=0.3, eps_typ=0.15, aux=IDENTITY_AUX,
                       source=dsbs(0.1), seed=5, allow_degenerate_rate=True),
        ProtocolConfig(n=1000, mu=0.02, theta=0.3, eps_typ=0.4, aux=IDENTITY_AUX,
                       source=dsbs(0.05), seed=11),
    ], ids=["n8", "n1000"])
    def test_trial_blocks_do_not_depend_on_the_fill_size(self, cfg, monkeypatch):
        # fills of 1 trial, 7 trials and the default, which holds all 40
        # trials at n = 8 and 32 of them at n = 1000
        def drawn():
            x, y, flips, alts = protocol._trial_blocks(cfg, protocol._trial_stream(cfg.seed),
                                                       range(3, 43))
            return x.dtype, x.tobytes(), y.tobytes(), flips.tobytes(), alts.tolist()
        want = drawn()
        assert 0 < np.count_nonzero(want[-1]) < 40
        for trials in (1, 7):
            monkeypatch.setattr(protocol, "_DRAW_BLOCK", trials * (cfg.n + 1))
            assert drawn() == want

    def test_a_desk_batch_stays_under_1_1_mib(self):
        # the batch's uniforms, 262 x 1001 doubles, took 2 MiB when drawn at
        # once, for a traced peak of 3.1 MiB; filled 2**15 doubles at a time
        # it is 0.93 MiB
        desc = json.loads((CONFIGS / "protocol_desk.json").read_text(encoding="utf-8"))
        cfg = ProtocolConfig(n=desc["n"], mu=desc["mu"], theta=desc["theta"],
                             eps_typ=desc["eps_typ"], aux=IDENTITY_AUX,
                             source=JointPmf(np.reshape(desc["source"]["probs"], (2, 2))),
                             seed=desc["seed"])
        engine = protocol._StatisticalEngine(cfg)
        stream = protocol._trial_stream(cfg.seed)
        step = protocol._TRIAL_BATCH_SYMBOLS // cfg.n
        engine.batch(stream, range(step))   # the engine's caches fill on a first batch
        tracemalloc.start()
        try:
            engine.batch(stream, range(step, 2 * step))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * 2 ** 20

    def test_outcome_records_compare_every_column(self):
        cfg = ProtocolConfig(n=12, mu=0.05, theta=0.3, eps_typ=0.2, aux=IDENTITY_AUX,
                             source=diagonal_source(), seed=13, allow_degenerate_rate=True)
        run = run_monte_carlo(cfg, 60)
        outs = run.outcomes
        assert len(outs) == 60 and outs == head(outs, 60) and outs != head(outs, 59)
        for field in dataclasses.fields(TrialOutcomes):
            column = getattr(outs, field.name)
            changed = column.copy()
            changed[7] = not column[7] if column.dtype == bool else column[7] + 1
            other = dataclasses.replace(outs, **{field.name: changed})
            assert other != outs, field.name
            assert dataclasses.replace(run, outcomes=other) != run, field.name

    def test_trial_counts_past_32_bits_are_refused_before_any_work(self, monkeypatch):
        def no_work(*args, **kwargs):
            raise AssertionError("work started")
        for name in ("build_codebook", "_StatisticalEngine", "_trial_stream", "_raw_trials"):
            monkeypatch.setattr(protocol, name, no_work)
        cfg = ternary_config()
        tracemalloc.start()
        try:
            with pytest.raises(ValidationError, match="2\\*\\*32"):
                run_monte_carlo(cfg, protocol.TRIAL_LIMIT + 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 16

    def test_very_noisy_encoder_statistics_reference_run(self):
        cfg = ProtocolConfig(n=400, mu=0.05, theta=0.0, eps_typ=0.2,
                             aux=IDENTITY_AUX, source=diagonal_source(),
                             seed=17, allow_degenerate_rate=True)
        mc = run_monte_carlo(cfg, 1000, keep_outcomes=False)
        assert mc.engine == "statistical"
        assert mc.event_counts["encoder_fallback"] == 968
        assert mc.event_counts["decoder_ambiguous"] == 0

    def test_trial_count_validation(self):
        with pytest.raises(ValidationError):
            run_monte_carlo(ternary_config(), 0)


class TestConditions:
    def test_reference_exact_run_against_targets(self):
        cfg = small_exact_config()
        res = exact_analyze(cfg)
        targets = achievability_targets(cfg, dict(alpha=0.3, c=2.0, beta=1.1, delta=1.0,
                                                  h_target=1.0, epsilon=0.2).get)
        report = check_achievability_conditions(cfg, res, targets)
        names = [c["name"] for c in report["conditions"]]
        assert names == ["error", "cardinality", "uniformity", "rate"]
        assert report["all_hold"]
        assert report["theta_pairing_ok"]  # theta = 0 <= alpha / 2
        assert report.get("remark") is not None and not report["remark"]["holds"]

    def test_margins_have_the_documented_sign(self):
        cfg = small_exact_config()
        res = exact_analyze(cfg)
        targets = achievability_targets(cfg, dict(alpha=0.2, c=2.0, beta=1.1, delta=1.0,
                                                  h_target=1.0).get)
        report = check_achievability_conditions(cfg, res, targets)
        error = report["conditions"][0]
        assert not error["holds"] and error["margin"] < 0.0

    def test_parameter_validation(self):
        cfg = small_exact_config()
        with pytest.raises(ValidationError):
            achievability_targets(cfg, dict(alpha=0.0, c=1.0, beta=0.1, delta=0.1,
                                            h_target=1.0).get)
        with pytest.raises(ValidationError):
            achievability_targets(cfg, dict(alpha=0.1, c=-1.0, beta=0.1, delta=0.1,
                                            h_target=1.0).get)


class TestRateFeasibility:
    def test_small_index_set_fits_a_clean_channel(self):
        cfg = small_exact_config()  # log2(1981) / 8 bits per symbol
        check = rate_feasibility(cfg, bsc(0.0), mu_prime=0.05)
        assert not check["ok"]  # 1.369 bits/use exceeds 1 - 0.05
        wide = ProtocolConfig(n=24, mu=0.05, theta=0.0, eps_typ=0.2,
                              aux=IDENTITY_AUX, source=dsbs(0.1), seed=0)
        check2 = rate_feasibility(wide, bsc(0.0), mu_prime=0.05)
        assert check2["ok"] == (check2["index_rate_bits"]
                                <= check2["capacity_bits"] - 0.05 + 1e-12)

    def test_mu_prime_validation(self):
        with pytest.raises(ValidationError):
            rate_feasibility(small_exact_config(), bsc(0.1), mu_prime=-0.2)
