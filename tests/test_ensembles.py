import itertools
import json
import math
import threading
from fractions import Fraction

import numpy as np
import pytest
import sympy as sp

from rmtlab import ensembles
from rmtlab.config import ConfigError, from_json, to_json
from rmtlab.ensembles import (ENTRY_BLOCK, EnsembleSpec, FactorDistribution, MetropolisParams,
                              ParameterError, QuarticChain, entry_cumulant_oracle, entry_stream,
                              sample, sample_stream)
from rmtlab.graphs import CumulantGraph
from rmtlab.linalg import MAX_MATRIX_SIZE, RngHandle
from rmtlab.spectral import spectra

TWO_CYCLE = CumulantGraph(2, ((0, 1), (1, 0)))
TWO_TWO_CYCLES = CumulantGraph(4, ((0, 1), (1, 0), (2, 3), (3, 2)))
IDX2 = {0: 0, 1: 1}
IDX4 = {0: 0, 1: 1, 2: 2, 3: 3}


# --- spec validation and serialization --------------------------------------

def test_spec_validation():
    with pytest.raises(ParameterError):
        EnsembleSpec("nope")
    with pytest.raises(ParameterError):
        EnsembleSpec("gue", sigma=0.0)
    with pytest.raises(ParameterError):
        EnsembleSpec("wigner", entry_dist="cauchy")
    with pytest.raises(ParameterError):
        EnsembleSpec("damped_common_factor", damping_alpha=-1.0)



@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field", ["sigma", "quartic_g", "damping_alpha",
                                   "diagonal_variance", "step_size"])
def test_spec_rejects_non_finite_parameters(field, bad):
    # through the JSON reader too, which takes NaN and Infinity literals
    metropolis = {"step_size": bad} if field == "step_size" else {}
    doc = {"kind": "quartic_invariant", "metropolis": metropolis}
    if field != "step_size":
        doc[field] = bad
    with pytest.raises(ParameterError, match="finite"):
        from_json(EnsembleSpec, doc)
    with pytest.raises(ParameterError, match="finite"):
        from_json(EnsembleSpec, json.loads(json.dumps(doc)))

def test_factor_dist_must_have_unit_second_moment():
    with pytest.raises(ParameterError):
        FactorDistribution(squares=(Fraction(1, 2), Fraction(1)), weights=(Fraction(1, 2), Fraction(1, 2)))
    with pytest.raises(ParameterError):
        FactorDistribution(squares=(Fraction(1),), weights=(Fraction(1, 2),))
    # the default law has E[g^2] = 1 and E[g^4] = 5/4, read through the oracle:
    # <M_01 M_10> = E[g^2] and the two-2-cycle cumulant is E[g^4] - E[g^2]^2
    spec = EnsembleSpec("common_factor", factor_dist=FactorDistribution())
    assert entry_cumulant_oracle(spec, TWO_CYCLE, IDX2) == 1
    assert entry_cumulant_oracle(spec, TWO_TWO_CYCLES, IDX4) == float(Fraction(5, 4) - 1)


def test_spec_json_roundtrip():
    spec = EnsembleSpec("common_factor", sigma=0.5, entry_dist="uniform",
                        factor_dist=FactorDistribution((Fraction(1, 4), Fraction(7, 4)),
                                                       (Fraction(1, 2), Fraction(1, 2))))
    again = from_json(EnsembleSpec, json.loads(json.dumps(to_json(spec))))
    assert again == spec


def test_spec_json_rejects_unknown_fields():
    with pytest.raises(ConfigError):
        from_json(EnsembleSpec, {"kind": "gue", "flavour": "strawberry"})
    with pytest.raises(ConfigError):
        from_json(EnsembleSpec, {"kind": "gue", "metropolis": {"steps": 1, "pace": 2}})


# --- sampling ----------------------------------------------------------------

def test_samples_are_hermitian_all_kinds():
    specs = [EnsembleSpec("gue"), EnsembleSpec("wigner", entry_dist="centered_exponential"),
             EnsembleSpec("common_factor"),
             EnsembleSpec("damped_common_factor", damping_alpha=1.0),
             EnsembleSpec("quartic_invariant", quartic_g=0.05,
                          metropolis=MetropolisParams(steps=1, burn_in=5))]
    for i, spec in enumerate(specs):
        m = sample(spec, 9, RngHandle(100 + i, 0))
        assert np.array_equal(m.data, m.data.conj().T)
        assert np.all(np.imag(np.diag(m.data)) == 0)


def test_sampling_deterministic():
    spec = EnsembleSpec("wigner", entry_dist="uniform")
    a = sample(spec, 12, RngHandle(5, 3))
    b = sample(spec, 12, RngHandle(5, 3))
    assert np.array_equal(a.data, b.data)


def test_rademacher_support():
    spec = EnsembleSpec("wigner", entry_dist="rademacher", sigma=2.0)
    allowed = {-2.0 / math.sqrt(2.0), 2.0 / math.sqrt(2.0)}
    for s in range(50):
        m = sample(spec, 2, RngHandle(31, s))
        assert m.data[0, 1].real in allowed
        assert m.data[0, 1].imag in allowed


def test_rademacher_draws_are_the_signs_of_uniforms_against_one_half():
    from rmtlab.ensembles import _draw_entries
    got = _draw_entries(RngHandle(31, 7), "rademacher", 4001)
    u = RngHandle(31, 7).uniform(4001)
    assert got.tobytes() == np.where(u < 0.5, -1.0, 1.0).tobytes()


def test_gue_second_moment_band():
    # sample mean of |M_12|^2 over 1e4 draws at n=64 within 5 standard errors
    spec = EnsembleSpec("gue")
    rng = RngHandle(8, 0)
    vals = np.empty(10_000)
    for s, m in enumerate(sample_stream(spec, 64, 10_000, rng)):
        e = m.data[1, 2]
        vals[s] = (e * e.conjugate()).real
    assert 0.97 <= float(vals.mean()) <= 1.03


def test_wigner_offdiagonal_independence():
    spec = EnsembleSpec("wigner", entry_dist="centered_exponential")
    rng = RngHandle(13, 0)
    count = 10_000
    x = np.empty(count)
    y = np.empty(count)
    for s, m in enumerate(sample_stream(spec, 4, count, rng)):
        x[s] = m.data[0, 1].real
        y[s] = m.data[2, 3].real
    prod = x * y
    cov = prod.mean() - x.mean() * y.mean()
    stderr = prod.std(ddof=1) / math.sqrt(count)
    assert abs(cov) <= 5 * stderr


def test_common_factor_scales_whole_matrix():
    from rmtlab.ensembles import _draw_triangle
    from rmtlab.linalg import HermitianMatrix
    spec = EnsembleSpec("common_factor")
    m = sample(spec, 6, RngHandle(77, 0))
    g = m.meta["factor"]
    assert g in set(np.sqrt([0.5, 1.5]))
    # replay the draw order: one factor draw, then the triangle of the same
    # law without a factor
    rng = RngHandle(77, 0)
    rng.choice_index([float(w) for w in spec.factor_dist.weights])
    (draws,), factors = _draw_triangle(EnsembleSpec("wigner"), 6, rng, 1, 15, 6)
    assert factors is None
    draws = draws * g  # x | y | diag, 15 + 15 + 6
    w = HermitianMatrix.from_triangle(draws[:15], draws[15:30], draws[30:])
    assert np.array_equal(m.data, w.data)


@pytest.mark.parametrize("sigma", [1.0, 0.7])
def test_gue_draw_equals_gaussian_wigner_draw(sigma):
    wigner = sample(EnsembleSpec("wigner", sigma=sigma, entry_dist="gaussian"), 9,
                    RngHandle(31, 0))
    gue = sample(EnsembleSpec("gue", sigma=sigma), 9, RngHandle(31, 0))
    assert np.array_equal(gue.data, wigner.data)
    # GUE entries are Gaussian: any other entry law is refused, not overridden
    with pytest.raises(ParameterError, match='kind "wigner"'):
        EnsembleSpec("gue", sigma=sigma, entry_dist="uniform")


def test_damped_factor_value():
    spec = EnsembleSpec("damped_common_factor", damping_alpha=1.0)
    m = sample(spec, 16, RngHandle(21, 0))
    assert m.meta["factor"] in {1.0 + 0.25, 1.0 - 0.25}



def reference_factor(spec: EnsembleSpec, n: int, rng: RngHandle) -> float | None:
    """The scalar factor of a common-factor kind, drawn as the earlier
    sampler drew it; None, with no draw, for the other kinds."""
    if spec.kind == "common_factor":
        weights = [float(w) for w in spec.factor_dist.weights]
        return float(spec.factor_dist.values()[rng.choice_index(weights)])
    if spec.kind == "damped_common_factor":
        xi = -1.0 if rng.uniform() < 0.5 else 1.0
        return 1.0 + xi * float(n) ** (-spec.damping_alpha / 2.0)
    return None


def parent_sample(spec: EnsembleSpec, n: int, rng: RngHandle) -> np.ndarray:
    """The earlier sampler, kept as a reference: a zero-filled upper triangle
    from complex-scaled draws, the common factor applied to the whole matrix,
    then np.triu plus its conjugate transpose and the real diagonal."""
    from rmtlab.ensembles import _draw_entries
    g = reference_factor(spec, n, rng)
    m = n * (n - 1) // 2
    x = _draw_entries(rng, spec.entry_dist, m)
    y = _draw_entries(rng, spec.entry_dist, m)
    diag = _draw_entries(rng, spec.entry_dist, n) * math.sqrt(spec.diag_variance)
    upper = np.zeros((n, n), dtype=complex)
    upper[np.triu_indices(n, k=1)] = (x + 1j * y) * (spec.sigma / math.sqrt(2.0))
    upper[np.diag_indices(n)] = diag
    if g is not None:
        upper = upper * g
    arr = np.triu(upper, k=1)
    full = arr + arr.conj().T
    full[np.diag_indices(n)] = np.real(np.diagonal(upper))
    return full


SAMPLE_SPECS = {
    "gue": EnsembleSpec("gue"), "gue_sigma0.7": EnsembleSpec("gue", sigma=0.7),
    **{d: EnsembleSpec("wigner", entry_dist=d)
       for d in ("gaussian", "rademacher", "uniform", "centered_exponential")},
    "common_factor": EnsembleSpec("common_factor"),
    "damped_alpha1": EnsembleSpec("damped_common_factor", damping_alpha=1.0),
    "damped_alpha0.5": EnsembleSpec("damped_common_factor", damping_alpha=0.5),
    "diag_var0.25": EnsembleSpec("wigner", entry_dist="uniform", diagonal_variance=0.25),
    "common_factor_diag_var0": EnsembleSpec("common_factor", diagonal_variance=0.0),
}


@pytest.mark.parametrize("n", [1, 2, 33, 128])
@pytest.mark.parametrize("spec", SAMPLE_SPECS.values(), ids=SAMPLE_SPECS)
def test_sample_bytes_match_parent_assembly(spec, n):
    for s in range(3):
        got = sample(spec, n, RngHandle(53, s))
        assert got.data.tobytes() == parent_sample(spec, n, RngHandle(53, s)).tobytes()


@pytest.mark.parametrize("spec", SAMPLE_SPECS.values(), ids=SAMPLE_SPECS)
def test_streams_above_2_pow_63_match_a_fresh_handle_reference(spec):
    # a per-N handle keys its Philox through the one key rule; only a
    # generator keyed by numpy itself, drawn the earlier way, can catch a
    # wrong key
    n, count, base = 7, 3, RngHandle(53, 9)
    s = next(s for s in itertools.count() if base.substream(s).stream >= 2 ** 63)
    stream = base.substream(s).stream
    assert stream % 2 ** 11  # its key is rounded through float64
    reference = RngHandle(0)
    reference._gen = np.random.Generator(np.random.Philox(key=[base.seed, stream]))
    want = [parent_sample(spec, n, reference).tobytes() for _ in range(count)]
    assert [m.data.tobytes() for m in sample_stream(spec, n, count, base.substream(s))] == want
    rows, cols = np.indices((n, n))
    blocks = entry_stream(spec, n, count, base.substream(s), rows, cols)
    assert [a.tobytes() for a in samples_of(blocks)] == want


# above, on and below the diagonal, with repeats
ENTRY_ROWS = np.array([[0, 2, 6, 3, 1, 5], [4, 0, 6, 2, 6, 4]])
ENTRY_COLS = np.array([[1, 5, 6, 0, 1, 5], [2, 3, 6, 2, 0, 4]])


ENTRY_WISE_SPECS = {
    "gue": EnsembleSpec("gue", sigma=0.7, diagonal_variance=0.3),
    **{d: EnsembleSpec("wigner", entry_dist=d, sigma=1.3, diagonal_variance=2.5)
       for d in ("gaussian", "rademacher", "uniform", "centered_exponential")},
    "common_factor": EnsembleSpec("common_factor", sigma=0.8, diagonal_variance=0.0),
    "damped_alpha1": EnsembleSpec("damped_common_factor", damping_alpha=1.0, sigma=1.5),
    "damped_alpha0.5": EnsembleSpec("damped_common_factor", damping_alpha=0.5,
                                    diagonal_variance=0.25),
}


QUARTIC_SPEC = EnsembleSpec("quartic_invariant", quartic_g=0.1, sigma=1.2,
                            metropolis=MetropolisParams(steps=1, step_size=1.0, burn_in=5))


def restricted_reference(spec: EnsembleSpec, n: int, count: int, rng: RngHandle, rows, cols):
    """``entry_stream``'s samples written as a plain loop, one array per
    sample, all drawn from ``rng`` in turn.  Sample s: the factor, then one
    draw of x | y | diag over the distinct upper-triangle pairs read, in
    ``np.triu_indices`` order, and the distinct diagonal indices read,
    ascending; each entry is then scaled on its own and looked up by
    position.  The quartic kind reads its assembled matrices."""
    from rmtlab.ensembles import _draw_entries
    rows, cols = np.broadcast_arrays(np.asarray(rows), np.asarray(cols))
    if spec.kind == "quartic_invariant":
        for matrix in sample_stream(spec, n, count, rng):
            yield matrix.data[rows, cols]
        return
    read = list(zip(rows.flat, cols.flat))
    pairs = sorted({(min(i, j), max(i, j)) for i, j in read if i != j})
    diagonal = sorted({i for i, j in read if i == j})
    p = len(pairs)
    for _ in range(count):
        g = reference_factor(spec, n, rng)
        draws = _draw_entries(rng, spec.entry_dist, 2 * p + len(diagonal))
        value = {}
        for k, (i, j) in enumerate(pairs):
            x = draws[k] * (spec.sigma / math.sqrt(2.0))
            y = draws[p + k] * (spec.sigma / math.sqrt(2.0))
            if g is not None:
                x, y = x * g, y * g
            value[i, j], value[j, i] = complex(x, y), complex(x, -y)
        for k, i in enumerate(diagonal):
            d = draws[2 * p + k] * math.sqrt(spec.diag_variance)
            value[i, i] = complex(d if g is None else d * g, 0.0)
        yield np.array([value[i, j] for i, j in read], dtype=complex).reshape(rows.shape)


def in_blocks(samples, size: int = ENTRY_BLOCK):
    """Per-sample arrays stacked into ``entry_stream``'s blocks."""
    samples = iter(samples)
    while block := list(itertools.islice(samples, size)):
        yield np.stack(block)


def samples_of(blocks) -> list[np.ndarray]:
    """The per-sample rows of ``entry_stream``'s blocks."""
    return [row for block in blocks for row in block]


@pytest.mark.parametrize("spec", [*ENTRY_WISE_SPECS.values(), QUARTIC_SPEC],
                         ids=[*ENTRY_WISE_SPECS, "quartic"])
@pytest.mark.parametrize("n", [7, 12])
def test_entry_stream_equals_the_restricted_draw_reference(spec, n):
    got = samples_of(entry_stream(spec, n, 6, RngHandle(71, 3), ENTRY_ROWS, ENTRY_COLS))
    want = list(restricted_reference(spec, n, 6, RngHandle(71, 3), ENTRY_ROWS, ENTRY_COLS))
    assert len(got) == len(want) == 6
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and a.shape == b.shape == ENTRY_ROWS.shape
        assert np.array_equal(a, b)
        assert a.tobytes() == b.tobytes()  # the sign of a zero imaginary part too


@pytest.mark.parametrize("spec", ENTRY_WISE_SPECS.values(), ids=ENTRY_WISE_SPECS)
@pytest.mark.parametrize("n", [7, 12])
def test_entry_stream_reading_every_entry_equals_sample_stream(spec, n):
    # the restricted buffer of a read of every entry is sample's whole buffer
    rows, cols = np.indices((n, n))
    got = [a.tobytes() for a in samples_of(entry_stream(spec, n, 6, RngHandle(71, 3), rows, cols))]
    want = [m.data.tobytes() for m in sample_stream(spec, n, 6, RngHandle(71, 3))]
    assert got == want


@pytest.mark.parametrize("count", [1, ENTRY_BLOCK - 1, ENTRY_BLOCK, ENTRY_BLOCK + 1,
                                   2 * ENTRY_BLOCK + 1])
@pytest.mark.parametrize("spec", [*ENTRY_WISE_SPECS.values(), QUARTIC_SPEC],
                         ids=[*ENTRY_WISE_SPECS, "quartic"])
def test_entry_stream_blocks_keep_every_byte_at_block_boundaries(spec, count):
    n = 9
    blocks = list(entry_stream(spec, n, count, RngHandle(72, 1), ENTRY_ROWS, ENTRY_COLS))
    assert [len(b) for b in blocks] == [min(ENTRY_BLOCK, count - start)
                                        for start in range(0, count, ENTRY_BLOCK)]
    got = np.concatenate(blocks)
    want = np.stack(list(restricted_reference(spec, n, count, RngHandle(72, 1), ENTRY_ROWS,
                                              ENTRY_COLS)))
    assert got.shape == want.shape == (count, *ENTRY_ROWS.shape)
    assert got.tobytes() == want.tobytes()
    rows, cols = np.indices((n, n))
    every = np.concatenate(list(entry_stream(spec, n, count, RngHandle(72, 1), rows, cols)))
    matrices = np.stack([m.data for m in sample_stream(spec, n, count, RngHandle(72, 1))])
    assert every.tobytes() == matrices.tobytes()


@pytest.mark.parametrize("spec", ENTRY_WISE_SPECS.values(), ids=ENTRY_WISE_SPECS)
def test_entry_stream_of_fewer_samples_is_a_prefix(spec):
    short = [a.tobytes() for a in samples_of(entry_stream(spec, 9, 4, RngHandle(71, 3),
                                                          ENTRY_ROWS, ENTRY_COLS))]
    long = [a.tobytes() for a in samples_of(entry_stream(spec, 9, 11, RngHandle(71, 3),
                                                         ENTRY_ROWS, ENTRY_COLS))]
    assert len(long) == 11 and long[:4] == short


@pytest.mark.parametrize("count", [1, 15, 33])
@pytest.mark.parametrize("spec", ENTRY_WISE_SPECS.values(), ids=ENTRY_WISE_SPECS)
def test_entry_stream_bytes_do_not_depend_on_the_block_size(spec, count, monkeypatch):
    # the handle's Philox stream is read in sequence however a block splits it,
    # and centered_exponential's log1p runs over a whole block
    n = 9
    reads = [(ENTRY_ROWS, ENTRY_COLS), np.indices((n, n))]
    got = {}
    for block in (1, 7, 16, 64):
        monkeypatch.setattr(ensembles, "ENTRY_BLOCK", block)
        for r, (rows, cols) in enumerate(reads):
            blocks = list(entry_stream(spec, n, count, RngHandle(73, 5), rows, cols))
            assert [len(b) for b in blocks] == [min(block, count - start)
                                                for start in range(0, count, block)]
            got.setdefault(r, set()).add(np.concatenate(blocks).tobytes())
    assert all(len(bytes_of_read) == 1 for bytes_of_read in got.values())


@pytest.mark.parametrize("count", [1, 2, 5])
@pytest.mark.parametrize("n", [1, 7])
@pytest.mark.parametrize("spec", SAMPLE_SPECS.values(), ids=SAMPLE_SPECS)
def test_sample_stream_is_sample_called_on_one_handle(spec, n, count):
    rng = RngHandle(74, 2)
    want = [sample(spec, n, rng).data.tobytes() for _ in range(count)]
    assert [m.data.tobytes() for m in sample_stream(spec, n, count, RngHandle(74, 2))] == want


def test_entry_stream_starts_no_thread(monkeypatch):
    def no_thread(self):
        raise AssertionError(f"thread {self.name} started")

    monkeypatch.setattr(threading.Thread, "start", no_thread)
    draw = ensembles._draw_triangle
    threads = set()

    def traced(*args):
        threads.add(threading.current_thread().name)
        return draw(*args)

    monkeypatch.setattr(ensembles, "_draw_triangle", traced)
    before = threading.enumerate()
    for spec in ENTRY_WISE_SPECS.values():
        assert len(samples_of(entry_stream(spec, 12, 200, RngHandle(2, 0), ENTRY_ROWS,
                                           ENTRY_COLS))) == 200
    assert threads == {threading.current_thread().name}
    assert threading.enumerate() == before


def test_entry_stream_draw_error_reaches_the_caller_unchanged(monkeypatch):
    draw = ensembles._draw_entries
    error = ParameterError("draw failed")
    calls = []

    def failing(*args, **kwargs):
        calls.append(None)
        if len(calls) == 5:
            raise error
        return draw(*args, **kwargs)

    monkeypatch.setattr(ensembles, "_draw_entries", failing)
    seen = 0
    with pytest.raises(ParameterError) as raised:
        for block in entry_stream(EnsembleSpec("gue"), 6, 640, RngHandle(2, 0), [0], [1]):
            seen += len(block)
    assert raised.value is error
    # gue draws a block in one call: the four blocks before the failing one
    # came through, and no later draw was made
    assert seen == 4 * ENTRY_BLOCK
    assert len(calls) == 5


def test_entry_stream_takes_narrow_integer_indices():
    # triangle positions beyond int16 are computed in a wide type
    rows, cols = np.array([250, 299, 7], dtype=np.int16), np.array([290, 3, 7], dtype=np.int16)
    narrow = entry_stream(EnsembleSpec("gue"), 300, 3, RngHandle(1, 0), rows, cols)
    wide = entry_stream(EnsembleSpec("gue"), 300, 3, RngHandle(1, 0),
                        rows.astype(np.int64), cols.astype(np.int64))
    assert [a.tobytes() for a in narrow] == [a.tobytes() for a in wide]


def test_entry_stream_broadcasts_like_fancy_indexing():
    # the broadcast index pairs cover every entry, so the matrix is sample's
    spec = EnsembleSpec("wigner", entry_dist="uniform")
    rows, cols = np.arange(5)[:, None], np.array([4, 0, 2, 1, 3])
    (block,) = entry_stream(spec, 5, 1, RngHandle(4, 0), rows, cols)
    (want,) = sample_stream(spec, 5, 1, RngHandle(4, 0))
    assert block.shape == (1, 5, 5)
    assert block[0].tobytes() == want.data[rows, cols].tobytes()


@pytest.mark.parametrize("n", [0, -2, MAX_MATRIX_SIZE + 1])
@pytest.mark.parametrize("kind", ["gue", "common_factor", "quartic_invariant"])
def test_entry_stream_refuses_sizes_as_sample_does(kind, n):
    spec = EnsembleSpec(kind)
    with pytest.raises(ParameterError) as by_sample:
        sample(spec, n, RngHandle(1, 0))
    with pytest.raises(ParameterError) as by_stream:
        entry_stream(spec, n, 3, RngHandle(1, 0), [0], [0])
    assert str(by_stream.value) == str(by_sample.value)


@pytest.mark.parametrize("n", [0, MAX_MATRIX_SIZE + 1])
def test_quartic_chain_refuses_sizes_before_its_gaussian_start(monkeypatch, n):
    def no_start(*args, **kwargs):
        raise AssertionError("the chain drew its Gaussian start")

    monkeypatch.setattr(ensembles, "sample", no_start)
    spec = EnsembleSpec("quartic_invariant", quartic_g=0.1)
    with pytest.raises(ParameterError, match="matrix size"):
        QuarticChain(spec, n, RngHandle(1, 0))
    with pytest.raises(ParameterError, match="matrix size"):
        spectra(spec, n, 1, RngHandle(1, 0))


def test_entry_stream_refuses_out_of_range_and_non_integer_indices():
    spec = EnsembleSpec("gue")
    for rows, cols in (([0, 4], [1, 2]), ([0], [-1]), ([0.0], [1.0])):
        with pytest.raises(IndexError):
            entry_stream(spec, 4, 2, RngHandle(1, 0), rows, cols)


def test_quartic_g0_matches_gue_second_moments():
    spec = EnsembleSpec("quartic_invariant", quartic_g=0.0,
                        metropolis=MetropolisParams(steps=4, step_size=1.0, burn_in=40))
    n = 16
    off = []
    diag = []
    for m in sample_stream(spec, n, 30, RngHandle(42, 0)):
        iu = np.triu_indices(n, k=1)
        off.append(float(np.mean(np.abs(m.data[iu]) ** 2)))
        diag.append(float(np.mean(np.real(np.diag(m.data)) ** 2)))
    assert abs(np.mean(off) - 1.0) < 0.2
    assert abs(np.mean(diag) - 1.0) < 0.5


def test_metropolis_acceptance_warning():
    spec = EnsembleSpec("quartic_invariant", quartic_g=0.5,
                        metropolis=MetropolisParams(steps=1, step_size=80.0, burn_in=0))
    m = sample(spec, 8, RngHandle(3, 0))
    assert m.meta["warnings"], m.meta
    ok = EnsembleSpec("quartic_invariant", quartic_g=0.1,
                      metropolis=MetropolisParams(steps=2, step_size=1.0, burn_in=30))
    m2 = sample(ok, 8, RngHandle(3, 0))
    assert not m2.meta["warnings"], m2.meta


def test_sample_rejects_bad_size():
    with pytest.raises(ParameterError):
        sample(EnsembleSpec("gue"), 0, RngHandle(1, 0))


@pytest.mark.parametrize("dist", ["gaussian", "rademacher", "uniform", "centered_exponential"])
def test_entry_draws_match_moment_tables(dist):
    from rmtlab.ensembles import _draw_entries
    from rmtlab.exactvalues import entry_moment
    assert entry_moment(dist, 1) == 0
    assert entry_moment(dist, 2) == 1
    draws = _draw_entries(RngHandle(37, 0), dist, 200_000)
    for k in (1, 2, 3, 4):
        want = float(entry_moment(dist, k))
        got = float(np.mean(draws**k))
        stderr = float(np.std(draws**k, ddof=1)) / math.sqrt(draws.size)
        assert abs(got - want) <= 5 * stderr + 1e-12, (dist, k)


# --- analytic cumulant oracle --------------------------------------------------

def test_oracle_gue_two_cycle():
    assert entry_cumulant_oracle(EnsembleSpec("gue"), TWO_CYCLE, IDX2) == 1.0
    assert entry_cumulant_oracle(EnsembleSpec("gue", sigma=2.0), TWO_CYCLE, IDX2) == 4.0


def test_oracle_gue_higher_and_unmatched_orders_vanish():
    spec = EnsembleSpec("gue")
    three = CumulantGraph(2, ((0, 1), (1, 0), (0, 1)))
    assert entry_cumulant_oracle(spec, three, IDX2) == 0.0
    double = CumulantGraph(2, ((0, 1), (0, 1)))
    assert entry_cumulant_oracle(spec, double, IDX2) == 0.0
    single = CumulantGraph(2, ((0, 1),))
    assert entry_cumulant_oracle(spec, single, IDX2) == 0.0


def test_oracle_gue_diagonal_pair():
    loops = CumulantGraph(1, ((0, 0), (0, 0)))
    assert entry_cumulant_oracle(EnsembleSpec("gue"), loops, {0: 3}) == 1.0
    spec = EnsembleSpec("gue", diagonal_variance=0.25)
    assert entry_cumulant_oracle(spec, loops, {0: 3}) == 0.25


def test_oracle_rademacher_fourth_cumulant():
    spec = EnsembleSpec("wigner", entry_dist="rademacher")
    quad = CumulantGraph(2, ((0, 1), (0, 1), (1, 0), (1, 0)))
    assert entry_cumulant_oracle(spec, quad, IDX2) == -1.0


def test_oracle_skewed_third_order_complex_value():
    spec = EnsembleSpec("wigner", entry_dist="centered_exponential")
    graph = CumulantGraph(2, ((0, 1), (0, 1), (1, 0)))
    got = entry_cumulant_oracle(spec, graph, IDX2)
    expect = (math.sqrt(2.0) / 2.0) * (1 + 1j)
    assert got == pytest.approx(expect, abs=1e-14)
    # common factor, M_00 = g x: kappa_3 = E[g^3] E[x^3] = 2 E[g^3], and E[g^3]
    # needs sqrt(3/2)^3, outside Q[i, sqrt2], so this value takes the float path
    spec = EnsembleSpec("common_factor", entry_dist="centered_exponential")
    loops = CumulantGraph(1, ((0, 0),) * 3)
    got = entry_cumulant_oracle(spec, loops, {0: 5})
    assert got == pytest.approx(0.5 ** 1.5 + 1.5 ** 1.5, abs=1e-12)  # 2.1906707...


def test_oracle_common_factor_disjoint_two_cycles():
    spec = EnsembleSpec("common_factor")
    assert entry_cumulant_oracle(spec, TWO_TWO_CYCLES, IDX4) == 0.25
    trivial = EnsembleSpec("common_factor",
                           factor_dist=FactorDistribution((Fraction(1),), (Fraction(1),)))
    assert entry_cumulant_oracle(trivial, TWO_TWO_CYCLES, IDX4) == 0.0
    # sigma^4 / 4 rounded once from the exact rational, not built from float powers
    small = EnsembleSpec("common_factor", sigma=0.1)
    assert entry_cumulant_oracle(small, TWO_TWO_CYCLES, IDX4) == float(Fraction(0.1) ** 4 / 4)


@pytest.mark.parametrize("spec", [
    EnsembleSpec("gue"), EnsembleSpec("wigner", entry_dist="rademacher"),
    EnsembleSpec("common_factor"), EnsembleSpec("damped_common_factor", damping_alpha=1.0)],
    ids=["gue", "rademacher", "common_factor", "damped_alpha1"])
def test_oracle_is_exact_on_every_class_through_four_edges(spec):
    from rmtlab.ensembles import _EXACT, _entry_cumulant
    from rmtlab.exactvalues import ExactComplex
    from rmtlab.graphs import enumerate_graphs
    for graph in enumerate_graphs(4):
        edges = [(3 * s, 3 * t) for s, t in graph.edges]
        # the exact scalars raise InexactValue rather than leave Q[i, sqrt2]
        value = _entry_cumulant(spec, edges, 16, _EXACT)
        assert isinstance(value, (int, Fraction, ExactComplex)), graph
        indices = {v: 3 * v for v in range(graph.num_vertices)}
        assert entry_cumulant_oracle(spec, graph, indices, n=16) == complex(value)


S2, EG2, EG4, EG6 = sp.symbols("s2 eg2 eg4 eg6")
# (2-cycles on disjoint vertex pairs, closed form of their joint cumulant)
DISJOINT_TWO_CYCLES = {
    "two": (2, S2 ** 2 * (EG4 - EG2 ** 2)),
    "three": (3, S2 ** 3 * (EG6 - 3 * EG4 * EG2 + 2 * EG2 ** 3)),
}


@pytest.mark.parametrize("cycles, closed_form", DISJOINT_TWO_CYCLES.values(),
                         ids=DISJOINT_TWO_CYCLES)
def test_oracle_common_factor_symbolic_brute_force(cycles, closed_form):
    """Brute-force symbolic oracle for the disjoint-2-cycles cumulant.

    Moments of M = g W factor as E[g^k] times Wick sums over pairings of W;
    Moebius inversion over the partitions of the 2c entries must give the
    closed form: sigma^4 (E[g^4] - E[g^2]^2) for two 2-cycles, and
    sigma^6 (E[g^6] - 3 E[g^4] E[g^2] + 2 E[g^2]^3) for three.
    """
    pairs = [p for c in range(cycles) for p in ((2 * c, 2 * c + 1), (2 * c + 1, 2 * c))]

    def w_pair(p, q):
        (i, j), (k, l) = p, q
        return S2 if (i == l and j == k) else sp.Integer(0)

    def w_moment(subset):
        items = list(subset)
        if len(items) % 2:
            return sp.Integer(0)

        def pairings(idx):
            if not idx:
                yield []
                return
            first, rest = idx[0], idx[1:]
            for i, other in enumerate(rest):
                for tail in pairings(rest[:i] + rest[i + 1:]):
                    yield [(first, other)] + tail

        total = sp.Integer(0)
        for matching in pairings(list(range(len(items)))):
            term = sp.Integer(1)
            for a, b in matching:
                term *= w_pair(items[a], items[b])
            total += term
        return total

    g_mom = {0: sp.Integer(1), 2: EG2, 4: EG4, 6: EG6}
    g_mom.update({k: sp.Symbol(f"eg{k}") for k in (1, 3, 5)})

    def m_moment(subset):
        return g_mom[len(subset)] * w_moment(subset)

    from rmtlab.partitions import set_partitions
    kappa = sp.Integer(0)
    for part in set_partitions(len(pairs)):
        term = sp.Integer(part.moebius_weight())
        for block in part.blocks:
            term *= m_moment([pairs[i] for i in block])
        kappa += term
    assert sp.simplify(kappa - closed_form) == 0
    # numeric corners, read through the oracle: the default law {1/2, 3/2}
    # and an asymmetric law {1/2, 2} with weights {2/3, 1/3}
    graph = CumulantGraph(2 * cycles, tuple(pairs))
    indices = {v: v for v in range(2 * cycles)}
    for law in (FactorDistribution(),
                FactorDistribution((Fraction(1, 2), Fraction(2)), (Fraction(2, 3), Fraction(1, 3)))):
        def eg(k):  # E[g^(2k)]
            return sum(w * s ** k for w, s in zip(law.weights, law.squares))
        want = kappa.subs({S2: 1, EG2: eg(1), EG4: eg(2), EG6: eg(3)})
        spec = EnsembleSpec("common_factor", factor_dist=law)
        assert entry_cumulant_oracle(spec, graph, indices) == float(want)


def test_oracle_damped_matches_analytic_scaling():
    spec = EnsembleSpec("damped_common_factor", damping_alpha=1.0)
    for n in (8, 32, 128):
        got = entry_cumulant_oracle(spec, TWO_TWO_CYCLES, IDX4, n=n)
        assert got == pytest.approx(4.0 / n, abs=1e-12)
    with pytest.raises(ParameterError):
        entry_cumulant_oracle(spec, TWO_TWO_CYCLES, IDX4)
    # a half-integer exponent: 4 N^(-1/2), exact in Q[sqrt2] at these N
    half = EnsembleSpec("damped_common_factor", damping_alpha=0.5)
    for n in (8, 32, 128):
        got = entry_cumulant_oracle(half, TWO_TWO_CYCLES, IDX4, n=n)
        assert got == pytest.approx(4.0 * n ** -0.5, abs=1e-12)



@pytest.mark.parametrize("n", [8, 16, 32])
def test_oracle_half_integer_damping_is_exact(n):
    from rmtlab.ensembles import _EXACT, _FLOAT, _entry_cumulant
    from rmtlab.exactvalues import ExactComplex
    from rmtlab.graphs import enumerate_graphs
    spec = EnsembleSpec("damped_common_factor", damping_alpha=0.5)
    for graph in enumerate_graphs(4):
        edges = [(3 * s, 3 * t) for s, t in graph.edges]
        # the exact scalars raise InexactValue rather than leave Q[i, sqrt2]
        value = _entry_cumulant(spec, edges, n, _EXACT)
        assert isinstance(value, (int, Fraction, ExactComplex)), graph
        assert abs(complex(value) - complex(_entry_cumulant(spec, edges, n, _FLOAT))) <= 1e-15



def test_exact_powers_of_half_integer_damping():
    from rmtlab.ensembles import _exact_inverse_power
    from rmtlab.exactvalues import ExactComplex
    # h^2 = 8^(-1/2) = sqrt2/4, and (sqrt2/4)^2 = 1/8, (sqrt2/4)^3 = sqrt2/32
    h2 = _exact_inverse_power(8, 0.5)
    assert h2 == ExactComplex(0, Fraction(1, 4))
    assert h2 ** 0 == ExactComplex(1)
    assert h2 ** 2 == ExactComplex(Fraction(1, 8))
    assert h2 ** 3 == ExactComplex(0, Fraction(1, 32))
    assert _exact_inverse_power(16, 0.5) == Fraction(1, 4)
    assert _exact_inverse_power(16, 1.5) == Fraction(1, 64)
    assert _exact_inverse_power(5, 2.0) == Fraction(1, 25)
    with pytest.raises(ValueError):
        h2 ** -1


def test_oracle_third_damping_falls_back_to_floats():
    from rmtlab.ensembles import _EXACT, _entry_cumulant
    from rmtlab.exactvalues import InexactValue
    spec = EnsembleSpec("damped_common_factor", damping_alpha=1 / 3)
    with pytest.raises(InexactValue):
        _entry_cumulant(spec, list(TWO_TWO_CYCLES.edges), 8, _EXACT)
    got = entry_cumulant_oracle(spec, TWO_TWO_CYCLES, IDX4, n=8)
    assert got == pytest.approx(4.0 * 8 ** (-1 / 3), abs=1e-12)


def test_oracle_huge_damping_exponent_takes_the_float_path():
    # 8^(-1e6) as an exact Fraction once took over a minute to return 0j
    from rmtlab.ensembles import _EXACT, _FLOAT, _entry_cumulant
    from rmtlab.exactvalues import InexactValue
    spec = EnsembleSpec("damped_common_factor", damping_alpha=1e6)
    edges = list(TWO_TWO_CYCLES.edges)
    with pytest.raises(InexactValue):
        _entry_cumulant(spec, edges, 8, _EXACT)
    got = entry_cumulant_oracle(spec, TWO_TWO_CYCLES, IDX4, n=8)
    assert got == complex(_entry_cumulant(spec, edges, 8, _FLOAT)) == 0j


def test_exact_inverse_power_cut_lies_at_the_square_of_the_smallest_float():
    from rmtlab.ensembles import _exact_inverse_power
    from rmtlab.exactvalues import InexactValue
    # every exponent the tests use stays exact at every size they use
    for n in (1, 2, 8, 16, 32, 128):
        assert complex(_exact_inverse_power(n, 0.5)) == pytest.approx(n ** -0.5, rel=1e-15)
    for n in (1, 2, 8, 16, 32, 33, 128, 1000):
        assert _exact_inverse_power(n, 1.0) == Fraction(1, n)
    assert _exact_inverse_power(2, 2148.0) == Fraction(1, 2 ** 2148)
    with pytest.raises(InexactValue):
        _exact_inverse_power(2, 2149.0)
    with pytest.raises(InexactValue):
        _exact_inverse_power(8, 1e6)


def test_oracle_unavailable_cases():
    spec = EnsembleSpec("quartic_invariant", quartic_g=0.1)
    assert entry_cumulant_oracle(spec, TWO_CYCLE, IDX2) is None
    # the oracle takes every graph the cumulant inversion takes, up to 6 edges
    five = CumulantGraph(2, ((0, 1), (1, 0)) * 2 + ((0, 1),))
    assert entry_cumulant_oracle(EnsembleSpec("gue"), five, IDX2) == 0
    seven = CumulantGraph(2, ((0, 1), (1, 0)) * 3 + ((0, 1),))
    assert entry_cumulant_oracle(EnsembleSpec("gue"), seven, IDX2) is None


def test_oracle_requires_injective_indices():
    with pytest.raises(ParameterError):
        entry_cumulant_oracle(EnsembleSpec("gue"), TWO_CYCLE, {0: 1, 1: 1})


def test_oracle_monte_carlo_cross_check_rademacher():
    # empirical joint cumulant of (M_01)^2 (M_10)^2 for rademacher entries
    from rmtlab.cumulant_scan import estimate_entry_cumulant
    spec = EnsembleSpec("wigner", entry_dist="rademacher")
    quad = CumulantGraph(2, ((0, 1), (0, 1), (1, 0), (1, 0)))
    est = estimate_entry_cumulant(spec, quad, 16, 4000, RngHandle(14, 0))
    truth = entry_cumulant_oracle(spec, quad, IDX2).real
    assert abs(est.estimate - truth) <= 5 * est.stderr + 0.02
