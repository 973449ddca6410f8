"""Field and codec tests.

The product and inverse tables are checked exhaustively against a
scalar long-multiplication oracle that reduces by 0x11D bit by bit, so
the vectorized table build never certifies itself.
"""

from dataclasses import astuple, replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ncbroadcast import cli, rlnc
from ncbroadcast.model import ConfigError
from ncbroadcast.rlnc import (
    REDUCTION_POLY,
    CodecValidationReport,
    RankTracker,
    _combine,
    decode_blocks,
    encode_blocks,
    expected_extra_packets,
    run_codec_validation,
)
from reference import Eliminator, per_row_coefficients


def gf_mul_reference(a: int, b: int) -> int:
    """Carry-less long multiplication with explicit polynomial reduction."""
    acc = 0
    while b:
        if b & 1:
            acc ^= a
        a <<= 1
        if a & 0x100:
            a ^= REDUCTION_POLY
        b >>= 1
    return acc


def rng(seed=0):
    return np.random.Generator(np.random.PCG64(seed))


def per_packet_validation(window, packet_len, n_batches, seed=0):
    """Reference for run_codec_validation: every packet drawn on its own and fed to an Eliminator.

    Per batch, the source comes from substream SeedSequence((seed, 0)), the
    first K coefficient rows from (seed, 1) and any further rows from (seed, 2).
    Returns the report and, sorted, the (source, K x K rows) bytes a block
    decode must see: each batch under its first K rows and a batch that
    needed more under the rows that raised its rank.
    """
    sources, first, extra = (np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, role))))
                             for role in range(3))
    failures = extras_total = exact = 0
    encoded = []
    for _ in range(n_batches):
        source = sources.integers(0, 256, size=(window, packet_len), dtype=np.uint8)
        decoder = Eliminator(window)
        rows, raised = [], []
        while decoder.rank < window:
            coeffs = per_row_coefficients(first if len(rows) < window else extra, window)
            rows.append(coeffs.tobytes())
            if decoder.ingest(np.concatenate((coeffs, _combine(coeffs, source)))):
                raised.append(rows[-1])
        encoded.append((source.tobytes(), b"".join(rows[:window])))
        if len(rows) > window:
            encoded.append((source.tobytes(), b"".join(raised)))
        extras_total += len(rows) - window
        exact += len(rows) == window
        failures += int((decoder.recover() != source).any())
    report = CodecValidationReport(
        n_batches=n_batches,
        window=window,
        packet_len=packet_len,
        roundtrip_failures=failures,
        mean_extra_packets=extras_total / n_batches,
        exact_rank_fraction=exact / n_batches,
    )
    return report, sorted(encoded)


def recording_encodes(monkeypatch):
    """Record the (source, K x K coefficient rows) bytes of every block run_codec_validation encodes."""
    encoded = []
    encode = rlnc.encode_blocks

    def recording(coefficients, sources):
        encoded.extend((source.tobytes(), rows.tobytes()) for source, rows in zip(sources, coefficients))
        return encode(coefficients, sources)

    monkeypatch.setattr(rlnc, "encode_blocks", recording)
    return encoded


def counting_draws(monkeypatch):
    """Count the coefficient rows run_codec_validation pulls from its role-2 substream,
    the further rows of rank-deficient batches."""
    pulled = [0]
    rows = rlnc.coefficient_rows

    def counting(gen, window):
        further = gen.bit_generator.seed_seq.entropy[1] == 2  # SeedSequence((seed, role))
        for row in rows(gen, window):
            pulled[0] += further
            yield row

    monkeypatch.setattr(rlnc, "coefficient_rows", counting)
    return pulled


# Chunkings run_codec_validation must not depend on: single batches, a chunk
# that divides none of the batch counts below, one block per chunk by bytes.
CHUNK_PATCHES = [("_BATCH_CHUNK", 1), ("_BATCH_CHUNK", 7), ("_CHUNK_BYTES", 1), None]


class TestFieldArithmetic:
    def test_exhaustive_against_long_multiplication(self):
        # the flat-table lookup the row operations use, on every pair
        a, b = np.meshgrid(np.arange(256, dtype=np.uint8), np.arange(256, dtype=np.uint8), indexing="ij")
        assert rlnc._mul(a, b).tolist() == [[gf_mul_reference(x, y) for y in range(256)] for x in range(256)]

    def test_product_tables_against_long_multiplication(self):
        reference = [[gf_mul_reference(a, b) for b in range(256)] for a in range(256)]
        assert rlnc._MUL.tolist() == reference
        assert [list(row) for row in rlnc._MUL_BYTES] == reference

    def test_known_product(self):
        assert rlnc._MUL[2, 0x80] == 0x1D

    def test_zero_and_identity(self):
        assert (rlnc._MUL[0] == 0).all() and (rlnc._MUL[:, 0] == 0).all()
        assert (rlnc._MUL[1] == np.arange(256)).all() and (rlnc._MUL[:, 1] == np.arange(256)).all()

    def test_every_nonzero_element_has_an_inverse(self):
        assert rlnc._INV.dtype == np.uint8
        for a in range(1, 256):
            assert gf_mul_reference(a, int(rlnc._INV[a])) == 1
        assert rlnc._INV_LIST == rlnc._INV.tolist()

    def test_zero_has_no_inverse(self):
        assert all(gf_mul_reference(0, b) != 1 for b in range(256))
        assert rlnc._INV[0] == 0  # the placeholder a block without a pivot reads

    def test_distributivity_sampled_a_full_b_c(self):
        # a <= 16 crossed with the whole (b, c) square
        bs, cs = np.meshgrid(np.arange(256), np.arange(256))
        products = rlnc._MUL[:17]
        for a in range(17):
            left = products[a][bs ^ cs]
            right = products[a][bs] ^ products[a][cs]
            assert (left == right).all()

    @given(a=st.integers(0, 255), b=st.integers(0, 255), c=st.integers(0, 255))
    def test_associative_and_commutative(self, a, b, c):
        mul = rlnc._MUL
        assert mul[a, b] == mul[b, a]
        assert mul[mul[a, b], c] == mul[a, mul[b, c]]


class TestEncode:
    def test_combine_matches_long_multiplication(self):
        gen = rng(11)
        coeffs = gen.integers(0, 256, size=(3, 5, 4), dtype=np.uint8)
        rows = gen.integers(0, 256, size=(3, 1, 4, 6), dtype=np.uint8)
        expected = np.zeros((3, 5, 6), dtype=np.uint8)
        for b, i, k, j in np.ndindex(3, 5, 4, 6):
            expected[b, i, j] ^= gf_mul_reference(int(coeffs[b, i, k]), int(rows[b, 0, k, j]))
        assert (_combine(coeffs, rows) == expected).all()
        assert (_combine(coeffs[1, 2], rows[1, 0]) == expected[1, 2]).all()

    def test_unit_coefficients_reproduce_a_source_packet(self):
        packets = rng(1).integers(0, 256, size=(4, 16), dtype=np.uint8)
        unit = np.array([1, 0, 0, 0], dtype=np.uint8)
        assert _combine(unit, packets).tobytes() == packets[0].tobytes()

    def test_all_zero_coefficients_are_redrawn(self):
        class ScriptedRng:
            def __init__(self, draws):
                self.draws = list(draws)

            def integers(self, low, high, size, dtype):
                return np.array(self.draws.pop(0), dtype=dtype)

        scripted = ScriptedRng([[0, 0], [1, 0]])
        assert per_row_coefficients(scripted, 2).tolist() == [1, 0]
        assert scripted.draws == []

    def test_single_packet_window(self):
        packets = rng(2).integers(0, 256, size=(1, 1, 8), dtype=np.uint8)
        coeffs = per_row_coefficients(rng(3), 1).reshape(1, 1, 1)
        assert_decodes(encode_blocks(coeffs, packets), packets)

    @pytest.mark.parametrize("window", [*range(1, 9), 13, 16, 20, 100])
    def test_row_blocks_match_per_row_draws(self, window):
        # numpy fills a uint8 draw from fresh 32-bit words, low byte first; if that
        # buffering changes, the simulator's coding stream changes and this fails
        class CountingRng:
            def __init__(self, gen):
                self.gen, self.calls = gen, 0

            def integers(self, *args, **kwargs):
                self.calls += 1
                return self.gen.integers(*args, **kwargs)

        n_rows = rlnc._ROW_BLOCK + 500  # past the first block, which _CHUNK_BYTES does not cut below K=129
        skipped = 0
        for seed in range(3):
            blocks, per_row = rng(seed), CountingRng(rng(seed))
            for gen in (blocks, per_row):
                gen.integers(0, 256, size=37, dtype=np.uint8)  # an odd-length draw first, as a source is
            rows = rlnc.coefficient_rows(blocks, window)
            for _ in range(n_rows):
                assert next(rows) == per_row_coefficients(per_row, window).tobytes()
            skipped += per_row.calls - n_rows  # all-zero rows per_row_coefficients redrew
        if window == 1:
            assert skipped > 0


def assert_decodes(blocks: np.ndarray, sources: np.ndarray) -> None:
    """Every block is full rank and decodes to its source."""
    full, wrong = decode_blocks(blocks, sources)
    assert full.all() and not wrong.any()


def received_rows(window: int, gen) -> np.ndarray:
    """Rows drawn as a receiver gets them, the K x K block of those that raised its rank."""
    tracker = RankTracker(window)
    while tracker.rank < window:
        tracker.add(per_row_coefficients(gen, window).tobytes())
    return np.frombuffer(b"".join(tracker.raw), dtype=np.uint8).reshape(window, window)


class TestDecoder:
    """One batch at one receiver: rank on a RankTracker, payloads by a block decode."""

    def test_duplicate_is_not_innovative(self):
        tracker = RankTracker(4)
        row = per_row_coefficients(rng(5), 4).tobytes()
        assert tracker.add(row)
        assert not tracker.add(row)
        assert tracker.rank == 1

    def test_scaled_single_packet_recovers_by_inverse(self):
        src = np.array([[[7, 80, 255, 0]]], dtype=np.uint8)
        assert_decodes(encode_blocks(np.array([[[9]]], dtype=np.uint8), src), src)

    @pytest.mark.parametrize("window", [1, 4, 16, 64])
    @pytest.mark.parametrize("packet_len", [1, 64, 1500])
    def test_round_trip(self, window, packet_len):
        gen = rng(window * 10_000 + packet_len)
        src = gen.integers(0, 256, size=(2, window, packet_len), dtype=np.uint8)
        coeffs = np.stack([received_rows(window, gen) for _ in src])
        assert_decodes(encode_blocks(coeffs, src), src)

    @given(data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_rank_monotone_and_bounded(self, data):
        window = data.draw(st.integers(1, 8), label="window")
        seed = data.draw(st.integers(0, 2**16), label="seed")
        gen = rng(seed)
        tracker = RankTracker(window)
        previous = 0
        for _ in range(3 * window):
            tracker.add(per_row_coefficients(gen, window).tobytes())
            assert previous <= tracker.rank <= window
            previous = tracker.rank
        assert tracker.rank == window  # overwhelmingly likely and required downstream


def tracker_stream(window: int, seed: int) -> list[bytes]:
    """Coefficient rows for a rank tracker: random ones, every other one
    with leading zeros, mixed with dependent ones built from rows already
    sent (repeats, sums and scalar multiples), and more rows than the window."""
    gen = rng(seed)
    sent: list[np.ndarray] = []
    for i in range(2 * window + 4):
        fresh = gen.integers(0, 256, size=window, dtype=np.uint8)
        if i % 2:
            fresh[: int(gen.integers(0, window))] = 0
        sent.append(fresh)
        if len(sent) >= 2:
            a, b = (sent[int(i)] for i in gen.integers(0, len(sent), size=2))
            scale = gen.integers(1, 256, size=2, dtype=np.uint8)
            sent.append(a.copy())                                # a repeat
            sent.append(a ^ b)                                   # a sum
            sent.append(rlnc._MUL[scale[0], a])                  # a scalar multiple
            sent.append(rlnc._MUL[scale[0], a] ^ rlnc._MUL[scale[1], b])
    return [row.tobytes() for row in sent]


class TestRankTracker:
    @pytest.mark.parametrize("window", [1, 2, 3, 5, 16, 100])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_agrees_with_decoder_packet_by_packet(self, window, seed):
        tracker = RankTracker(window)
        decoder = Eliminator(window)
        rows = tracker_stream(window, seed)
        flags = []
        for row in rows:
            flags.append(tracker.add(row))
            assert flags[-1] == decoder.ingest(np.frombuffer(row, dtype=np.uint8))
            assert tracker.rank == decoder.rank
        assert tracker.rank == window
        assert False in flags
        assert tracker.raw == [row for row, flag in zip(rows, flags) if flag]

    def test_rows_stay_in_echelon_form(self):
        tracker = RankTracker(16)
        for row in tracker_stream(16, 2):
            tracker.add(row)
        assert sorted(tracker.rows) == list(range(16))
        for offset, row in tracker.rows.items():
            col = 15 - offset  # the leading byte, counted from the left
            assert row[:col] == bytes(col) and row[col] == 1

    def test_zero_row_is_dependent(self):
        tracker = RankTracker(3)
        assert not tracker.add(bytes(3))
        assert tracker.rank == 0


def coded_batches(window=4, packet_len=6, count=3, seed=0):
    """Random coefficient blocks (full rank for this seed) and their sources."""
    gen = rng(seed)
    sources = gen.integers(0, 256, size=(count, window, packet_len), dtype=np.uint8)
    coeffs = gen.integers(0, 256, size=(count, window, window), dtype=np.uint8)
    return coeffs, sources


class TestDecodeBlocks:
    """decode_blocks on blocks that must be flagged; full-rank ones decode in TestDecoder::test_round_trip."""

    def test_corrupted_source_byte_is_flagged_wrong(self):
        coeffs, sources = coded_batches()
        blocks = encode_blocks(coeffs, sources)
        sources[2, 1, 3] ^= 0x40
        full, wrong = decode_blocks(blocks, sources)
        assert full.tolist() == [True, True, True]
        assert wrong.tolist() == [False, False, True]

    def test_rank_deficient_block_is_flagged_not_full_and_never_wrong(self):
        coeffs, sources = coded_batches()
        full, wrong = decode_blocks(encode_blocks(coeffs, sources), sources)
        assert full.all() and not wrong.any()
        coeffs[1, 3] = rlnc._MUL[7, coeffs[1, 0]] ^ coeffs[1, 2]
        full, wrong = decode_blocks(encode_blocks(coeffs, sources), sources)
        assert full.tolist() == [True, False, True]
        assert not wrong.any()  # a block that is not full rank is never called wrong

    def test_wrong_decode_is_flagged_beside_a_deficient_block(self):
        coeffs, sources = coded_batches()
        coeffs[1, 3] = rlnc._MUL[7, coeffs[1, 0]] ^ coeffs[1, 2]
        blocks = encode_blocks(coeffs, sources)
        sources[2, 1, 3] ^= 0x40
        full, wrong = decode_blocks(blocks, sources)
        assert full.tolist() == [True, False, True]
        assert wrong.tolist() == [False, False, True]


def eliminator_rank(rows: np.ndarray) -> int:
    """Rank an Eliminator reaches on the rows of one K x K block, fed one at a time."""
    decoder = Eliminator(rows.shape[1])
    for row in rows:
        decoder.ingest(row)
    return decoder.rank


class TestFullRankBlocks:
    """full_rank_blocks flags a block full rank exactly when an Eliminator reaches rank K on its rows."""

    @staticmethod
    def assert_same_mask(blocks: np.ndarray) -> list[bool]:
        expected = [eliminator_rank(block) == block.shape[0] for block in blocks]
        assert rlnc.full_rank_blocks(blocks.copy()).tolist() == expected
        return expected

    @pytest.mark.parametrize("K", [1, 2, 4, 20, 100])
    def test_random_stacks(self, K):
        gen = rng(K)
        # bytes drawn from 0..255 are almost always full rank; bytes drawn from {0, 1} often are not at small K
        for high in (256, 2):
            self.assert_same_mask(gen.integers(0, high, size=(40, K, K), dtype=np.uint8))

    @pytest.mark.parametrize("K", [4, 20, 100])
    def test_forced_deficient_stacks(self, K):
        blocks = rng(K + 1).integers(0, 256, size=(4, K, K), dtype=np.uint8)
        blocks[1, -1] = blocks[1, 0]  # a repeated row
        blocks[2, -1] = blocks[2, 0] ^ blocks[2, 1]  # the sum of two rows
        blocks[3, :, K // 2] = 0  # a zero column
        assert self.assert_same_mask(blocks) == [True, False, False, False]

    @pytest.mark.parametrize("K", [1, 4, 16])
    def test_payload_columns_leave_the_mask_alone(self, K):
        # coded (B, K, K+L) blocks against their K x K coefficient part; bytes from {0, 1}
        # make both full-rank and deficient blocks at each K here
        gen = rng(K + 2)
        coeffs = gen.integers(0, 2, size=(40, K, K), dtype=np.uint8)
        sources = gen.integers(0, 256, size=(40, K, 5), dtype=np.uint8)
        expected = self.assert_same_mask(coeffs)
        assert True in expected and False in expected
        assert rlnc.full_rank_blocks(encode_blocks(coeffs, sources)).tolist() == expected

    def test_ends_upper_triangular_with_a_unit_diagonal(self):
        blocks = rng(3).integers(0, 256, size=(5, 6, 6), dtype=np.uint8)
        assert rlnc.full_rank_blocks(blocks).all()
        assert (np.tril(blocks, -1) == 0).all()
        assert (np.diagonal(blocks, axis1=1, axis2=2) == 1).all()


class TestRankStatistics:
    def test_analytic_extra_packets_value(self):
        # dominated by the 1/255 chance of a dependent draw one packet early
        assert expected_extra_packets(16) == pytest.approx(0.003937, abs=1e-6)
        assert expected_extra_packets(1) == pytest.approx(0.0, abs=1e-12)

    def test_analytic_extra_packets_matches_direct_formula(self):
        # the direct sum over (256**r - 1) / (256**K - 1), while 256.0**K is a float
        for window in range(1, 128):
            denom = 256.0**window - 1.0
            direct = 0.0
            for r in range(window):
                dep = (256.0**r - 1.0) / denom
                direct += dep / (1.0 - dep)
            assert expected_extra_packets(window) == pytest.approx(direct, rel=1e-15, abs=0.0)

    def test_analytic_extra_packets_past_the_float_range(self):
        # 256.0**128 overflows; the terms a window past 127 adds are below a float's precision
        assert expected_extra_packets(128) == expected_extra_packets(127)
        assert expected_extra_packets(1000) == expected_extra_packets(127)

    def test_monte_carlo_matches_analytic(self):
        report = run_codec_validation(window=16, packet_len=8, n_batches=10_000, seed=3)
        assert report.roundtrip_failures == 0
        sigma = (0.004 / 10_000) ** 0.5
        assert abs(report.mean_extra_packets - expected_extra_packets(16)) < 4 * sigma
        dependence_free = 1.0
        for i in range(1, 17):
            dependence_free *= 1.0 - 256.0**-i
        assert report.exact_rank_fraction == pytest.approx(dependence_free, abs=0.002)

    @pytest.mark.parametrize("window", [1, 2, 3, 4, 5, 8, 16, 20, 32])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_block_decoding_matches_per_packet_loop(self, monkeypatch, window, seed):
        # packet_len 5 makes K*L odd for odd K, so sources are cut from partial 32-bit words
        report, encoded = per_packet_validation(window, 5, 150, seed)
        for chunk in CHUNK_PATCHES:
            with monkeypatch.context() as patch:
                if chunk:
                    patch.setattr(rlnc, *chunk)
                seen = recording_encodes(patch)
                assert astuple(run_codec_validation(window, 5, 150, seed)) == astuple(report), chunk
                assert sorted(seen) == encoded, chunk

    @pytest.mark.parametrize("window,packet_len", [(3, 5), (4, 8)], ids=["3x5", "4x8"])
    @pytest.mark.parametrize(
        "chunk", CHUNK_PATCHES, ids=["batch-chunk-1", "batch-chunk-7", "chunk-bytes-1", "default"],
    )
    def test_fallback_batches_match_per_packet_loop(self, monkeypatch, window, packet_len, chunk):
        # both shapes meet rank-deficient batches at seed 4, and 3x5 has an odd K*L;
        # 2001 batches is a multiple of neither 7 nor the default chunk of 64.
        expected, encoded = per_packet_validation(window, packet_len, 2001, seed=4)
        if chunk:
            monkeypatch.setattr(rlnc, *chunk)
        further_rows = counting_draws(monkeypatch)
        seen = recording_encodes(monkeypatch)
        report = run_codec_validation(window, packet_len, 2001, seed=4)
        assert astuple(report) == astuple(expected)
        assert sorted(seen) == encoded
        assert further_rows[0] > 0
        assert further_rows[0] == round(report.mean_extra_packets * 2001)  # every extra packet is a role-2 row
        assert report.roundtrip_ok

    def test_wrong_decodes_are_counted(self, monkeypatch, capsys):
        # One payload byte flipped in every coded block: each batch, decoded in
        # a chunk or as a fallback batch (K=4, seed 4 reaches one), is a failure.
        encode = rlnc.encode_blocks

        def corrupting(coefficients, sources):
            blocks = encode(coefficients, sources)
            blocks[:, 0, -1] ^= 1
            return blocks

        clean = run_codec_validation(4, 8, 2001, seed=4)
        monkeypatch.setattr(rlnc, "encode_blocks", corrupting)
        further_rows = counting_draws(monkeypatch)
        report = run_codec_validation(4, 8, 2001, seed=4)
        assert further_rows[0] > 0
        assert astuple(report) == astuple(replace(clean, roundtrip_failures=2001))
        args = ["codec-validate", "--window", "4", "--packet-len", "8", "--batches", "2001", "--seed", "4"]
        assert cli.main(args) == 1
        assert "(2001 failures)" in capsys.readouterr().out

    @pytest.mark.parametrize("window", [2, 3, 5])
    def test_changed_stream_keeps_statistics(self, window):
        # windows whose rows are cut from a partial 32-bit word
        n = 10_000
        report = run_codec_validation(window, 8, n, seed=6)
        assert report.roundtrip_failures == 0
        variance = 0.0
        for r in range(window):
            dep = (256.0**r - 1.0) / (256.0**window - 1.0)
            variance += dep / (1.0 - dep) ** 2  # extra draws at rank r are geometric
        assert abs(report.mean_extra_packets - expected_extra_packets(window)) < 4 * (variance / n) ** 0.5


class TestValidationAdmission:
    @pytest.mark.parametrize("args,message", [
        ((0, 8, 3, 0), "--window must be at least 1, got 0"),
        ((4, 0, 3, 0), "--packet-len must be at least 1, got 0"),
        ((4, 8, -5, 0), "--batches must be at least 1, got -5"),
        ((4, 8, 3, -1), "--seed must be at least 0, got -1"),
        ((0, 0, -5, -1), "--window must be at least 1, got 0"),  # checked in this order
    ], ids=["window", "packet-len", "batches", "seed", "window-first"])
    def test_bad_argument_refused(self, args, message):
        with pytest.raises(ConfigError, match=f"^{message}$"):
            run_codec_validation(*args)

    def test_window_over_the_byte_cap_refused(self, monkeypatch):
        # one K=4, L=8 block decode needs 12*4*(4+8) = 576 bytes
        monkeypatch.setattr(rlnc, "MAX_CODEC_BYTES", 576)
        assert run_codec_validation(4, 8, 3).roundtrip_ok
        with pytest.raises(ConfigError, match="^--window 4 with --packet-len 9 needs about 624 bytes per block decode"):
            run_codec_validation(4, 9, 3)
        monkeypatch.undo()
        with pytest.raises(ConfigError, match="--window 20000"):
            run_codec_validation(20_000, 64, 1)
