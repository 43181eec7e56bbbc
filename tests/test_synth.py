import math
import subprocess
import sys
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import given
from oracles import naive_sparse, naive_stream

from dpe import rng as rng_module
from dpe import synth
from dpe.errors import InputError
from dpe.rng import RngStream
from dpe.seqcore import Direction
from dpe.synth import (
    FAMILIES,
    FAMILY_DEFAULTS,
    SPARSE_N,
    TrialSpec,
    delayed_flip_indicator,
    gen_ar1,
    gen_delayed_bitflip,
    gen_skew_tent,
    gen_sparse,
    generate_trial,
    skew_tent,
)


class TestRngStream:
    def test_identical_streams_replay(self):
        a = RngStream(123, 7)
        b = RngStream(123, 7)
        assert a._words(20).tolist() == b._words(20).tolist()

    def test_distinct_streams_differ(self):
        a = RngStream(123, 0)
        b = RngStream(123, 1)
        assert a._words(4).tolist() != b._words(4).tolist()

    def test_uniform_in_unit_interval(self):
        rng = RngStream(5)
        draws = rng.uniforms(2000).tolist()
        assert all(0.0 <= u < 1.0 for u in draws)
        assert 0.4 < sum(draws) / len(draws) < 0.6

    def test_normal_moments(self):
        rng = RngStream(5)
        draws = rng.normals(4000).tolist()
        mean = sum(draws) / len(draws)
        var = sum((d - mean) ** 2 for d in draws) / len(draws)
        assert abs(mean) < 0.1
        assert abs(var - 1.0) < 0.15

    def test_sample_without_replacement(self):
        rng = RngStream(9)
        picks = rng.sample_without_replacement(100, 30)
        assert len(picks) == len(set(picks)) == 30
        assert all(0 <= p < 100 for p in picks)


_B = rng_module._BLOCK
_CHUNK = rng_module._LANES * _B  # longest draw the cached jump rows cover in one pass
EDGE_COUNTS = (0, 1, 2, 3, 5, _B - 1, _B, _B + 1, 2 * _B + 1, _CHUNK - 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK + 3)
BLOCK_DRAWS = {"_words": "next_u64", "uniforms": "uniform", "bits": "bit", "normals": "normal"}

draw_plans = st.lists(
    st.one_of(
        st.tuples(st.sampled_from(sorted(BLOCK_DRAWS)), st.just(1)),  # one number at a time
        st.tuples(st.sampled_from(sorted(BLOCK_DRAWS)),
                  st.one_of(st.integers(0, 40), st.sampled_from(EDGE_COUNTS))),
        st.tuples(st.just("sample"), st.integers(0, 60)),  # from range(k + 3)
        st.tuples(st.just("sample_wide"), st.sampled_from((0, 1, 45, 50))),  # from range(2000)
    ),
    max_size=6,
)


class TestBlockDraws:
    """Block draws against the one-number-per-call oracle: same values, same final state."""

    @given(
        seed=st.integers(-(2**63), 2**64 - 1),
        stream_index=st.integers(0, 10**6),
        plan=draw_plans,
    )
    def test_any_plan_matches_the_scalar_oracle(self, seed, stream_index, plan):
        stream, oracle = RngStream(seed, stream_index), naive_stream(seed, stream_index)
        assert stream._state == oracle.state
        for op, count in plan:
            if op.startswith("sample"):
                n = count + 3 if op == "sample" else 2000
                got = stream.sample_without_replacement(n, count)
                want = oracle.sample_without_replacement(n, count)
            else:
                got = getattr(stream, op)(count).tolist()
                want = [getattr(oracle, BLOCK_DRAWS[op])() for _ in range(count)]
            assert got == want, (op, count)
        assert (stream._state, stream._spare_normal) == (oracle.state, oracle.spare)

    @pytest.mark.parametrize("count", EDGE_COUNTS)
    @pytest.mark.parametrize("spare", (False, True))
    def test_edge_counts_of_normals(self, count, spare):
        stream, oracle = RngStream(11, 3), naive_stream(11, 3)
        if spare:  # an odd draw leaves a spare that the next block must hand out first
            assert stream.normals(1).tolist() == [oracle.normal()]
        assert stream.normals(count).tolist() == [oracle.normal() for _ in range(count)]
        assert (stream._state, stream._spare_normal) == (oracle.state, oracle.spare)

    @given(
        seed=st.integers(-(2**63), 2**64 - 1),
        n=st.one_of(st.integers(0, 3 * _CHUNK), st.sampled_from((0, 1, 7, 8, 9, 3998, 4095, 4096, 9000))),
        spare=st.booleans(),
    )
    def test_advance_matches_the_scalar_oracle(self, seed, n, spare):
        # a jump of whole lanes, at most _LANES - 1 a row, then n % _BLOCK single steps;
        # a cached Box-Muller spare is neither handed out nor dropped
        stream, oracle = RngStream(seed, 1), naive_stream(seed, 1)
        if spare:
            assert stream.normals(1).tolist() == [oracle.normal()]
        stream.advance(n)
        for _ in range(n):
            oracle.next_u64()
        assert (stream._state, stream._spare_normal) == (oracle.state, oracle.spare)
        assert stream.normals(3).tolist() == [oracle.normal() for _ in range(3)]

    def test_jump_rows_are_built_on_first_draw_and_stay_small(self):
        src = Path(rng_module.__file__).resolve().parents[1]
        code = (f"import sys; sys.path.insert(0, {str(src)!r}); import dpe; from dpe import rng; "
                "assert rng._jump.cache_info().currsize == 0; rng.RngStream(1).uniforms(100); "
                "assert rng._jump.cache_info().currsize == 1; print(rng._jump().nbytes)")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
        assert int(out.stdout) <= 256 * 1024


class TestDelayedBitflip:
    def test_indicator_matches_hand_rule(self):
        x = (1, 1, 0, 1, 0, 0, 0, 0)
        assert delayed_flip_indicator(x, 0) == (0, 0, 0, 1, 0, 0, 0, 0)
        assert delayed_flip_indicator(x, 2) == (0, 0, 0, 0, 0, 1, 0, 0)

    def test_overlapping_triggers(self):
        x = (1, 1, 0, 1, 1, 0, 1, 0)
        # trigger ends at 0-based 3 and 6
        assert delayed_flip_indicator(x, 0) == (0, 0, 0, 1, 0, 0, 1, 0)

    def test_no_trigger_gives_all_zeros(self):
        assert delayed_flip_indicator((0,) * 12, 3) == (0,) * 12

    def test_generated_pair_consistent(self):
        pair = gen_delayed_bitflip(100, 2, RngStream(1, 0))
        assert len(pair.x) == len(pair.y) == 100
        assert pair.ground_truth == Direction.X_CAUSES_Y
        assert pair.y.symbols == delayed_flip_indicator(pair.x.symbols, 2)

    def test_determinism(self):
        a = gen_delayed_bitflip(64, 1, RngStream(77, 3))
        b = gen_delayed_bitflip(64, 1, RngStream(77, 3))
        assert a.x == b.x and a.y == b.y

    def test_parameter_validation(self):
        with pytest.raises(InputError):
            gen_delayed_bitflip(4, 0, RngStream(0))
        with pytest.raises(InputError):
            gen_delayed_bitflip(100, 7, RngStream(0))


class TestAr1:
    def test_lengths_after_drop(self):
        pair = gen_ar1(0.5, 1500, 500, RngStream(2, 0))
        assert len(pair.x) == len(pair.y) == 1000

    def test_ground_truth_labels(self):
        assert gen_ar1(0.5, 100, 10, RngStream(2, 0)).ground_truth == Direction.Y_CAUSES_X
        assert gen_ar1(0.0, 100, 10, RngStream(2, 0)).ground_truth == Direction.INDEPENDENT

    def test_determinism(self):
        a = gen_ar1(0.3, 400, 100, RngStream(11, 5))
        b = gen_ar1(0.3, 400, 100, RngStream(11, 5))
        assert a.x == b.x and a.y == b.y

    @pytest.mark.parametrize("phi", (0.0, 0.35, 0.8, 0.95))
    def test_noise_scale_never_reaches_the_pair(self, phi, monkeypatch):
        """AR1_NOISE cannot change a bit: it only scales the values before an equal-width cut.

        Every value, and with them min, max and the midpoint, scale by the
        same factor. A power of two scales each of them exactly, so the pair
        must be identical; another factor could differ only by float rounding
        at the midpoint.
        """
        before = [gen_ar1(phi, 600, 100, RngStream(seed, 5)) for seed in (0, 42, 2**64 - 1)]
        monkeypatch.setattr(synth, "AR1_NOISE", 4 * synth.AR1_NOISE)
        after = [gen_ar1(phi, 600, 100, RngStream(seed, 5)) for seed in (0, 42, 2**64 - 1)]
        assert [(p.x, p.y) for p in after] == [(p.x, p.y) for p in before]

    def test_uncoupled_pair_nearly_uncorrelated(self):
        # sanity bound, not sharp: binarized independent AR(1) streams
        pair = gen_ar1(0.0, 1100, 100, RngStream(3, 0))
        xs, ys = pair.x.symbols, pair.y.symbols
        n = len(xs)
        mx, my = sum(xs) / n, sum(ys) / n
        cov = sum((a - mx) * (b - my) for a, b in zip(xs, ys)) / n
        sx = math.sqrt(sum((a - mx) ** 2 for a in xs) / n)
        sy = math.sqrt(sum((b - my) ** 2 for b in ys) / n)
        assert abs(cov / (sx * sy)) < 0.1


class TestSkewTent:
    def test_map_values(self):
        assert skew_tent(0.2, 0.35) == pytest.approx(0.571428571, abs=1e-9)
        assert skew_tent(0.5, 0.35) == pytest.approx(0.769230769, abs=1e-9)

    def test_orbit_stays_in_unit_interval(self):
        rng = RngStream(4, 0)
        x = float(rng.uniforms(1)[0])
        for _ in range(5000):
            x = skew_tent(x, 0.76)
            assert 0.0 <= x <= 1.0

    def test_ground_truth_labels(self):
        assert gen_skew_tent(0.5, 200, 50, RngStream(5, 0)).ground_truth == Direction.X_CAUSES_Y
        assert gen_skew_tent(0.0, 200, 50, RngStream(5, 0)).ground_truth == Direction.INDEPENDENT

    def test_determinism(self):
        a = gen_skew_tent(0.4, 300, 100, RngStream(6, 2))
        b = gen_skew_tent(0.4, 300, 100, RngStream(6, 2))
        assert a.x == b.x and a.y == b.y

    def test_lengths(self):
        pair = gen_skew_tent(0.4, 1500, 500, RngStream(6, 2))
        assert len(pair.x) == len(pair.y) == 1000


class TestSparse:
    def test_x_has_exactly_k_ones(self):
        for k in (5, 25, 50):
            pair = gen_sparse(k, RngStream(7, k))
            assert sum(pair.x.symbols) == k

    def test_y_ones_are_successors_of_x_ones(self):
        pair = gen_sparse(25, RngStream(8, 0))
        t1 = {i for i, s in enumerate(pair.x.symbols) if s == 1}
        t2 = {i for i, s in enumerate(pair.y.symbols) if s == 1}
        expected = {t + 1 for t in t1 if t + 1 < SPARSE_N}
        assert t2 == expected
        assert len(t2) <= 25

    def test_lengths_and_truth(self):
        pair = gen_sparse(10, RngStream(9, 0))
        assert len(pair.x) == len(pair.y) == SPARSE_N
        assert pair.ground_truth == Direction.X_CAUSES_Y

    def test_determinism(self):
        a = gen_sparse(12, RngStream(10, 4))
        b = gen_sparse(12, RngStream(10, 4))
        assert a.x == b.x and a.y == b.y

    @staticmethod
    def _check_against_recursion(seed, stream_index, k, n):
        """The pair, then the stream's next draws, match the latent recursion's.

        Each case runs on a fresh stream and on one that holds a cached
        Box-Muller spare; only the second tells normals(2) apart from uniforms(2).
        """
        for spare in (False, True):
            stream, oracle = RngStream(seed, stream_index), RngStream(seed, stream_index)
            if spare:
                assert stream.normals(1).tolist() == oracle.normals(1).tolist()
            got, want = gen_sparse(k, stream, n=n), naive_sparse(k, oracle, n)
            assert (got.x, got.y, got.ground_truth) == (want.x, want.y, want.ground_truth)
            assert stream.uniforms(2).tolist() == oracle.uniforms(2).tolist()
            assert stream.normals(3).tolist() == oracle.normals(3).tolist()

    @given(
        seed=st.integers(-(2**63), 2**64 - 1),
        stream_index=st.integers(0, 10**6),
        n_k=st.sampled_from((2, 200, 2000)).flatmap(
            lambda n: st.tuples(st.just(n), st.integers(1, min(n, 50)))
        ),
    )
    def test_matches_the_latent_recursion(self, seed, stream_index, n_k):
        n, k = n_k
        self._check_against_recursion(seed, stream_index, k, n)

    @pytest.mark.parametrize("k", (1, 2))
    def test_shortest_series_matches_the_latent_recursion(self, k):
        self._check_against_recursion(3, 1, k, 2)

    def test_k_validation(self):
        with pytest.raises(InputError):
            gen_sparse(0, RngStream(0))
        with pytest.raises(InputError):
            gen_sparse(51, RngStream(0))

    def test_k_above_length_is_an_input_error(self):
        with pytest.raises(InputError, match="k=20 exceeds the series length 10"):
            gen_sparse(20, RngStream(0), n=10)


class TestTrialSpec:
    def test_config_roundtrip(self):
        text = (
            "# ar1 battery\nfamily=ar1\nparam=phi\nvalues=0.2,0.4\n"
            "length=1500\ndrop=500\ntrials=200\nseed=42\n"
        )
        spec = TrialSpec("ar1", "phi", (0.2, 0.4), 1500, 500, 200, 42)
        assert TrialSpec.from_config(text) == spec

    def test_config_missing_key(self):
        with pytest.raises(InputError, match="missing"):
            TrialSpec.from_config("family=ar1\n")

    def test_validation(self):
        with pytest.raises(InputError):
            TrialSpec("nope", "phi", (0.1,), 100, 0, 10, 1)
        with pytest.raises(InputError):
            TrialSpec("ar1", "phi", (0.1,), 100, 100, 10, 1)
        with pytest.raises(InputError):
            TrialSpec("ar1", "phi", (0.1,), 100, 0, 0, 1)
        with pytest.raises(InputError, match="values must not be empty"):
            TrialSpec("ar1", "phi", (), 100, 0, 10, 1)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_param_must_be_the_familys_name(self, family):
        values = (5.0,) if family == "sparse" else (0.0,)
        name = FAMILY_DEFAULTS[family][3]
        assert TrialSpec(family, name, values, 100, 0, 1, 1).param_name == name
        for wrong in ("banana", "p", name.upper()):
            with pytest.raises(InputError, match=f"{family} sweeps '{name}', got param='{wrong}'"):
                TrialSpec(family, wrong, values, 100, 0, 1, 1)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_negative_drop_is_an_input_error(self, family):
        param = FAMILY_DEFAULTS[family][3]
        with pytest.raises(InputError, match="drop must be >= 0, got -5"):
            TrialSpec(family, param, (1.0,) if family == "sparse" else (0.0,), 10, -5, 1, 1)

    @pytest.mark.parametrize("family", ("ar1", "skew_tent"))
    def test_generators_reject_a_negative_drop(self, family):
        with pytest.raises(InputError, match="drop must be >= 0, got -5"):
            generate_trial(family, 0.5, 10, -5, RngStream(1, 0))

    @pytest.mark.parametrize("family, value", (("delay_bitflip", 2.0), ("sparse", 5.0)))
    def test_families_without_transients_reject_a_drop(self, family, value):
        message = f"{family} drops no transients, got drop=1999"
        with pytest.raises(InputError, match=message):
            TrialSpec(family, FAMILY_DEFAULTS[family][3], (value,), 2000, 1999, 1, 1)
        with pytest.raises(InputError, match=message):
            generate_trial(family, value, 2000, 1999, RngStream(1, 0))

    def test_generate_trial_dispatch(self):
        for family, value, length, drop in (
            ("delay_bitflip", 2.0, 100, 0),
            ("ar1", 0.3, 200, 50),
            ("skew_tent", 0.3, 200, 50),
            ("sparse", 5.0, 2000, 0),
        ):
            pair = generate_trial(family, value, length, drop, RngStream(1, 0))
            assert len(pair.x) == len(pair.y)

    @pytest.mark.parametrize("family", ("delay_bitflip", "sparse"))
    @pytest.mark.parametrize("value", (2.5, math.inf, math.nan))
    def test_whole_number_families_reject_fractions(self, family, value):
        with pytest.raises(InputError, match=f"got {value}"):
            generate_trial(family, value, 2000, 0, RngStream(1, 0))
