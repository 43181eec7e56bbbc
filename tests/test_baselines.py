import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from conftest import symbol_tuples
from dpe import baselines, cli
from dpe.baselines import (
    baseline_direction,
    etc_complexity,
    joint_sequence,
    lz76_complexity,
)
from dpe.errors import InputError
from dpe.seqcore import Direction, SymbolSequence
from oracles import naive_etc, naive_joint, naive_lz76


def seq(text):
    return SymbolSequence.from_text(text)


@st.composite
def sequences(draw, max_size=300):
    """Uniform or run-heavy sequences over an alphabet of 1, 2, 4 or 256."""
    alphabet = draw(st.sampled_from((1, 2, 4, 256)))
    symbol = st.integers(min_value=0, max_value=alphabet - 1)
    if draw(st.booleans()):
        symbols = draw(st.lists(symbol, min_size=1, max_size=max_size))
    else:  # short motifs repeated: long zero runs, aaaa, abab, aabb
        motifs = st.lists(symbol, min_size=1, max_size=4)
        blocks = draw(
            st.lists(st.tuples(motifs, st.integers(1, 60)), min_size=1, max_size=8)
        )
        symbols = [v for motif, times in blocks for _ in range(times) for v in motif]
        symbols = symbols[:max_size]
    return SymbolSequence(tuple(symbols), alphabet)


# overlapping pair counts and non-overlapping replacement disagree on runs
RUN_HEAVY = (
    "0000", "000", "00000", "0101", "010101010", "0011", "00110011",
    "0" * 100 + "1" + "0" * 50, "1" + "0" * 99, "0012" * 20, "0001" * 30,
)


class TestOracles:
    @pytest.mark.parametrize("text", RUN_HEAVY)
    def test_run_heavy_cases(self, text):
        s = seq(text)
        assert etc_complexity(s) == naive_etc(s)
        assert lz76_complexity(s) == naive_lz76(s)

    @settings(max_examples=300)
    @given(sequences())
    def test_etc_matches_oracle(self, s):
        assert etc_complexity(s) == naive_etc(s)

    @settings(max_examples=300)
    @given(sequences())
    def test_lz76_matches_oracle(self, s):
        assert lz76_complexity(s) == naive_lz76(s)

    @given(
        st.sampled_from(("lzp", "etcp", "etce")),
        symbol_tuples(min_size=2, max_size=120),
        symbol_tuples(min_size=2, max_size=120),
    )
    def test_direction_matches_oracle_counts(self, method, xs, ys):
        n = min(len(xs), len(ys))
        x, y = SymbolSequence(xs[:n], 2), SymbolSequence(ys[:n], 2)
        fast = baseline_direction(method, x, y)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(baselines, "lz76_complexity", naive_lz76)
            mp.setattr(baselines, "etc_complexity", naive_etc)
            slow = baseline_direction(method, x, y)
        assert fast == slow  # scores, verdict and the degenerate flag


def etc_paths(monkeypatch):
    """Record, in order, which way each ETC count update was made."""
    paths = []
    count, patch = baselines._pair_counts, baselines._patch_pair_counts

    def counted(*args):
        paths.append("count")
        return count(*args)

    def patched(*args):
        paths.append("patch")
        return patch(*args)

    monkeypatch.setattr(baselines, "_pair_counts", counted)
    monkeypatch.setattr(baselines, "_patch_pair_counts", patched)
    return paths


class TestEtcUpdatePaths:
    """Each side of the recount/patch split, checked against the oracle."""

    def test_step_replacing_a_large_share_recounts(self, monkeypatch):
        paths = etc_paths(monkeypatch)
        s = seq("0" * 100 + "1" + "0" * 50)  # halving the zero runs
        assert etc_complexity(s) == naive_etc(s)
        assert paths[:2] == ["count", "count"]

    def test_step_replacing_a_small_share_patches(self, monkeypatch):
        paths = etc_paths(monkeypatch)
        s = SymbolSequence(tuple(range(200)), 256)
        assert etc_complexity(s) == naive_etc(s)
        # every pair occurs once, so each step replaces one pair, which is a
        # large enough share to recount only once the text is that short
        short = baselines._RECOUNT_SHARE
        assert paths == ["count"] + ["patch"] * (200 - short) + ["count"] * (short - 1)

    @pytest.mark.parametrize("length, path", [(2 * baselines._RECOUNT_SHARE, "count"),
                                              (2 * baselines._RECOUNT_SHARE + 1, "patch")])
    def test_split_at_the_recount_share(self, monkeypatch, length, path):
        # the first step replaces the two occurrences of (0, 1) in 0 1 0 1 2 3 ...
        paths = etc_paths(monkeypatch)
        s = SymbolSequence((0, 1, 0, 1) + tuple(range(2, length - 2)), 256)
        assert etc_complexity(s) == naive_etc(s)
        assert paths[1] == path

    @given(sequences())
    def test_both_paths_match_oracle(self, s):
        with pytest.MonkeyPatch.context() as mp:
            for share in (0, 1 << 40):  # patch every step, then recount every step
                mp.setattr(baselines, "_RECOUNT_SHARE", share)
                assert etc_complexity(s) == naive_etc(s)


class TestEtcCodePointRange:
    """Fresh symbols are code points, so the input length is bounded."""

    def test_longest_input_within_range_is_exact(self, monkeypatch):
        monkeypatch.setattr(baselines, "_LAST_CODE_POINT", 40)
        s = SymbolSequence((3, 1, 0, 2) * 9 + (0, 3), 4)  # max + n - 1 == 40
        assert etc_complexity(s) == naive_etc(s)

    def test_longer_input_is_an_input_error(self, monkeypatch):
        monkeypatch.setattr(baselines, "_LAST_CODE_POINT", 40)
        with pytest.raises(InputError, match="ETC supports at most 38 symbols"):
            etc_complexity(SymbolSequence((3, 1, 0, 2) * 9 + (0, 3, 1), 4))

    def test_bench_spec_beyond_range_exits_1(self, monkeypatch, tmp_path, capsys):
        monkeypatch.setattr(baselines, "_LAST_CODE_POINT", 40)
        spec = tmp_path / "spec.cfg"
        spec.write_text(
            "family=delay_bitflip\nparam=delay\nvalues=1.0\n"
            "length=64\ndrop=0\ntrials=1\nseed=5\n"
        )
        code = cli.main(["bench", "--spec", str(spec), "--methods", "etcp",
                         "--out", str(tmp_path / "r.csv")])
        assert code == 1
        assert "ETC supports at most" in capsys.readouterr().err


class TestLz76:
    def test_preregistered_hand_parse(self):
        # phrases: 0 | 001 | 10 | 100 | 1000 | 101
        assert lz76_complexity(seq("0001101001000101")).raw == 6

    def test_constant_sequences(self):
        assert lz76_complexity(seq("0000000")).raw == 2
        for n in (2, 3, 10, 64):
            assert lz76_complexity(SymbolSequence((1,) * n, 2)).raw == 2

    def test_single_symbol(self):
        assert lz76_complexity(SymbolSequence((0,), 1)).raw == 1

    def test_alternating(self):
        # 0 | 1 | 0101...
        assert lz76_complexity(seq("010101")).raw == 3

    @given(symbol_tuples(min_size=1, max_size=60))
    def test_bounded_by_length(self, symbols):
        assert 1 <= lz76_complexity(SymbolSequence(symbols, 2)).raw <= len(symbols)


class TestEtc:
    def test_constant_is_zero(self):
        assert etc_complexity(seq("1111")).raw == 0
        assert etc_complexity(SymbolSequence((0,), 1)).raw == 0

    def test_hand_traced_examples(self):
        # 10101 -> 1 2 2 -> 3 2 -> 4
        assert etc_complexity(seq("10101")).raw == 3
        assert etc_complexity(seq("01")).raw == 1

    def test_normalized_by_length_minus_one(self):
        value = etc_complexity(seq("10101"))
        assert value.normalized == pytest.approx(3 / 4)

    @given(symbol_tuples(min_size=1, max_size=50, alphabet=3))
    def test_bounded_iterations(self, symbols):
        value = etc_complexity(SymbolSequence(symbols, 3))
        assert 0 <= value.raw <= max(len(symbols) - 1, 0)


class TestJointSequence:
    def test_canonical_labels_are_order_invariant(self):
        x = seq("0101100")
        y = seq("0011010")
        assert joint_sequence(x, y) == joint_sequence(y, x)

    def test_distinct_states_get_distinct_symbols(self):
        x = seq("0011")
        y = seq("0101")
        joint = joint_sequence(x, y)
        assert len(set(joint.symbols)) == 4

    @given(symbol_tuples(max_size=30), symbol_tuples(max_size=30))
    def test_equality_structure_preserved(self, xs, ys):
        n = min(len(xs), len(ys))
        x = SymbolSequence(xs[:n], 2)
        y = SymbolSequence(ys[:n], 2)
        joint = joint_sequence(x, y)
        for i in range(n):
            for j in range(i + 1, n):
                same_state = (xs[i], ys[i]) == (xs[j], ys[j])
                assert (joint.symbols[i] == joint.symbols[j]) == same_state

    @given(st.sampled_from((1, 2, 4, 16)).flatmap(
        lambda k: st.tuples(st.just(k), symbol_tuples(0, 80, k), symbol_tuples(0, 80, k))))
    def test_matches_oracle(self, case):
        alphabet, xs, ys = case
        n = min(len(xs), len(ys))
        joint = joint_sequence(SymbolSequence(xs[:n], alphabet), SymbolSequence(ys[:n], alphabet))
        labels, states = naive_joint(xs[:n], ys[:n])
        assert joint.symbols == labels
        assert joint.alphabet_size == max(states, 1)

    def test_more_than_256_states_is_an_input_error(self):
        ramp = bytes(range(256))
        x = SymbolSequence(ramp * 2, 256)
        y = SymbolSequence(ramp[::-1] + ramp, 256)
        assert naive_joint(x.symbols, y.symbols)[1] == 512
        with pytest.raises(InputError, match="joint sequence has 512 distinct states"):
            baseline_direction("lzp", x, y)

    def test_exactly_256_states_fit(self):
        x = SymbolSequence(bytes(range(256)) * 2, 256)
        joint = joint_sequence(x, x)
        assert joint.alphabet_size == 256
        assert joint.symbols == tuple(range(256)) * 2


class TestBaselineDirection:
    def test_identical_inputs_independent(self):
        x = seq("0110100101")
        for method in ("lzp", "etcp", "etce"):
            v = baseline_direction(method, x, x)
            assert v.verdict == Direction.INDEPENDENT
            assert v.score_xy == v.score_yx

    def test_constant_effect_etcp(self):
        x = seq("0110100101")
        const = SymbolSequence((0,) * 10, 2)
        v = baseline_direction("etcp", x, const)
        # penalty(X->Y) = C_J - C(X), penalty(Y->X) = C_J - 0; the direction
        # out of the constant can win only if C(X) = 0
        assert v.score_xy == v.score_yx - etc_complexity(x).raw
        assert v.verdict == Direction.X_CAUSES_Y

    def test_etce_zero_denominator_degenerate(self):
        const_x = SymbolSequence((1,) * 8, 2)
        const_y = SymbolSequence((0,) * 8, 2)
        v = baseline_direction("etce", const_x, const_y)
        assert v.verdict == Direction.INDEPENDENT
        assert v.degenerate

    def test_unknown_method(self):
        with pytest.raises(InputError):
            baseline_direction("nope", seq("01"), seq("01"))

    def test_deterministic(self):
        x, y = seq("01101001"), seq("00110011")
        for method in ("lzp", "etcp", "etce"):
            assert baseline_direction(method, x, y) == baseline_direction(method, x, y)

    @given(
        st.sampled_from(("lzp", "etcp", "etce")),
        symbol_tuples(min_size=2, max_size=40),
        symbol_tuples(min_size=2, max_size=40),
    )
    def test_swap_symmetry(self, method, xs, ys):
        n = min(len(xs), len(ys))
        x = SymbolSequence(xs[:n], 2)
        y = SymbolSequence(ys[:n], 2)
        fwd = baseline_direction(method, x, y)
        rev = baseline_direction(method, y, x)
        assert fwd.score_xy == rev.score_yx
        assert fwd.score_yx == rev.score_xy
        mirrored = {
            Direction.X_CAUSES_Y: Direction.Y_CAUSES_X,
            Direction.Y_CAUSES_X: Direction.X_CAUSES_Y,
            Direction.INDEPENDENT: Direction.INDEPENDENT,
        }
        assert rev.verdict == mirrored[fwd.verdict]
