import itertools
import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from conftest import symbol_tuples
from dpe import baselines, cli
from dpe.baselines import (
    BASELINE_METHODS,
    baseline_verdicts,
    etc_complexity,
    joint_sequence,
    lz76_complexity,
)
from dpe.errors import InputError
from dpe.seqcore import Direction, SymbolSequence
from oracles import (
    naive_baseline,
    naive_etc,
    naive_etc_tail,
    naive_joint,
    naive_lz76,
    naive_pair_counts,
)


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
        value, sides = etc_sides(s)
        assert value == naive_etc(s)
        assert "sorted" not in sides  # a byte holds every step of these texts
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
        # scores, verdict and the degenerate flag
        assert baseline_verdicts((method,), x, y) == {method: naive_baseline(method, x, y)}


# both ends of the byte range, the surrogates that fresh ETC symbols pass on
# long inputs, and the code points either side of them and of the BMP's end
CODE_POINTS = (0x0000, 0x00FF, 0x0100, 0xD7FF, 0xD800, 0xDBFF, 0xDC00, 0xDFFF, 0xE000, 0x10000)


@st.composite
def code_point_texts(draw):
    """(text, fresh): a text over a few of CODE_POINTS, so that pairs repeat and
    counts tie, and a fresh symbol above them all, most often past 256."""
    palette = draw(st.lists(st.sampled_from(CODE_POINTS), min_size=1, max_size=4, unique=True))
    text = "".join(map(chr, draw(st.lists(st.sampled_from(palette), min_size=2, max_size=80))))
    return text, draw(st.sampled_from((max(palette) + 1, 0x110000)) | st.integers(max(palette) + 1, 0x110000))


@st.composite
def byte_texts(draw):
    """(text, fresh): a text over a few code points below fresh <= 256, so counts tie."""
    palette = draw(st.lists(st.integers(0, 255), min_size=1, max_size=4, unique=True))
    text = "".join(map(chr, draw(st.lists(st.sampled_from(palette), min_size=2, max_size=80))))
    return text, draw(st.integers(max(palette) + 1, 256))


def doubled_walk(length, seed, alphabet=256):
    """w w for a walk w over ``alphabet`` symbols whose adjacent pairs are distinct.

    Every pair of w occurs twice, so each ETC step replaces two occurrences
    and recounts a text only two symbols shorter: ETC's worst known shape.
    """
    rng = random.Random(seed)
    walk, seen = [0], set()
    while len(walk) < length:
        pair = (walk[-1], rng.randrange(alphabet))
        if pair[0] != pair[1] and pair not in seen:
            seen.add(pair)
            walk.append(pair[1])
    return SymbolSequence(tuple(walk + walk), alphabet)


class TestTopPair:
    """Each step's recount, on either side of fresh 256, against the per-pair Counter."""

    @settings(max_examples=300)
    @given(code_point_texts())
    def test_matches_counter_top(self, case):
        text, fresh = case
        counts, heap = naive_pair_counts(text)
        count, pair = baselines._top_pair(text, fresh)
        assert (-count, pair) == heap[0]  # the most frequent pair, ties to the smallest
        assert counts[pair] == count

    def test_top_breaks_ties_by_code_point(self):
        # (U+10000, U+0000) and (U+D800, U+00FF) occur twice each: the tie goes
        # to the smaller code point, U+D800, though it comes second in the text
        text = "".join(map(chr, (0x10000, 0x0, 0x10000, 0x0, 0xD800, 0xFF, 0xD800, 0xFF)))
        assert baselines._top_pair(text, 0x10001) == (2, "\ud800\xff")
        # (3, 0) and (1, 2) occur twice each: the tie goes to (1, 2), the
        # smaller pair, though it comes second in the text, on the sorted side
        text = "".join(map(chr, (3, 0, 3, 0, 1, 2, 1, 2)))
        for fresh in (257, 0x110000):
            assert baselines._top_pair(text, fresh) == (2, "\x01\x02")

    @pytest.mark.parametrize("fresh", (3, 256, 257, 0x110000))
    def test_halves_keep_their_order(self, fresh):
        # (2, 1) is the top pair; its mirror (1, 2) occurs once
        text = "".join(map(chr, (2, 1, 2, 1, 0)))
        assert baselines._top_pair(text, fresh) == (2, "\x02\x01")

    def test_doubled_walk_matches_oracle(self):
        s = doubled_walk(300, seed=19)
        value = etc_complexity(s)
        assert value == naive_etc(s)
        assert value.raw == 299  # one step per pair of the walk, down to a constant a a


class TestTopBytePair:
    """The dense bincount of each step while fresh <= 256, against the per-pair Counter."""

    @settings(max_examples=300)
    @given(byte_texts())
    def test_matches_counter_top(self, case):
        text, fresh = case
        counts, heap = naive_pair_counts(text)
        count, pair = baselines._top_pair(text, fresh)
        assert (-count, pair) == heap[0]  # the most frequent pair, ties to the smallest
        assert counts[pair] == count

    def test_top_breaks_ties_by_code_point(self):
        # (3, 0) and (1, 2) occur twice each: the tie goes to (1, 2), the
        # smaller bin, though it comes second in the text
        text = "".join(map(chr, (3, 0, 3, 0, 1, 2, 1, 2)))
        for fresh in (4, 255, 256):
            assert baselines._top_pair(text, fresh) == (2, "\x01\x02")


def etc_sides(s):
    """etc_complexity(s), and the side each step's count took: "dense" while
    its fresh symbol is at most 256, "sorted" after."""
    fresh = []
    count = baselines._top_pair
    with mock.patch.object(baselines, "_top_pair", lambda text, f: fresh.append(f) or count(text, f)):
        value = etc_complexity(s)
    return value, ["dense" if f <= 256 else "sorted" for f in fresh]


def byte_rule(s, steps):
    """The side of each of ``steps`` counts: dense while every code point fits a byte."""
    fresh = max(s.symbols) + 1  # the text's code points are all below fresh
    return ["dense" if fresh + step <= 256 else "sorted" for step in range(steps)]


@st.composite
def sided_sequences(draw):
    """Sequences whose largest symbol puts ETC's first counts near the byte boundary."""
    top = draw(st.sampled_from((0, 1, 3, 200, 250, 254, 255)))
    symbol = st.integers(0, top)
    if draw(st.booleans()):
        symbols = draw(st.lists(symbol, max_size=300))
    else:  # short motifs repeated, so that many steps count more than one pair
        motifs = st.lists(symbol, min_size=1, max_size=3)
        blocks = draw(st.lists(st.tuples(motifs, st.integers(1, 30)), min_size=1, max_size=8))
        symbols = [v for motif, times in blocks for _ in range(times) for v in motif][:300]
    return SymbolSequence(tuple(symbols) + (top,), top + 1)


class TestEtcSides:
    """Each step counts on the dense side while fresh <= 256 and on the sorted side after."""

    @settings(max_examples=200)
    @given(sided_sequences())
    def test_matches_oracle_on_either_side(self, s):
        value, sides = etc_sides(s)
        assert value == naive_etc(s)
        assert sides == byte_rule(s, len(sides))

    @pytest.mark.parametrize("top, dense", ((254, 2), (255, 1)))
    def test_alphabets_255_and_256_cross_early(self, top, dense):
        # fresh starts at top + 1: a byte holds the text until fresh passes 256
        s = SymbolSequence((top, 0, top, 0, top, 0, 1, 2, 1, 2, 1), top + 1)
        value, sides = etc_sides(s)
        assert value == naive_etc(s)
        assert len(sides) > dense
        assert sides == ["dense"] * dense + ["sorted"] * (len(sides) - dense)

    def test_fresh_symbols_pass_255_mid_run(self):
        s = doubled_walk(300, seed=5, alphabet=64)
        value, sides = etc_sides(s)
        assert value == naive_etc(s) and value.raw == 299
        assert sides == byte_rule(s, 300)
        assert sides.count("dense") == 256 - 64 + 1  # fresh 64 to 256

    @pytest.mark.parametrize("fresh, sorts", ((255, False), (256, False), (257, True)))
    def test_fresh_256_counts_the_last_bytes(self, fresh, sorts):
        # the side follows fresh alone: a byte holds every code point up to 256
        with mock.patch.object(np, "unique", wraps=np.unique) as unique:
            assert baselines._top_pair("\x00\xfe\x00\xfe", fresh) == (2, "\x00\xfe")
        assert unique.called == sorts


@st.composite
def doubled_run(draw, extra):
    """r1 m m r2: distinct symbols, with m repeated and ``extra`` symbols in r1 r2.

    The two copies of m shrink in step until each is one symbol a, so ETC's
    top pair count first falls to 1 on r1 a a r2, at length 2 + extra.
    """
    symbols = draw(st.permutations(range(256)))
    k = draw(st.integers(1, 40))
    m, r = symbols[:k], symbols[k : k + extra]
    split = draw(st.integers(0, extra))
    return SymbolSequence(tuple(r[:split] + m + m + r[split:]), 256)


class TestEtcTail:
    """Inputs whose pairs all become unique at a chosen text length."""

    def test_all_distinct_pairs_take_the_tail(self):
        s = SymbolSequence(tuple(range(200)), 256)
        value = etc_complexity(s)
        assert value == naive_etc(s) and value.raw == 199

    @given(doubled_run(extra=0))
    def test_tail_at_two_constant(self, s):
        tail = naive_etc_tail(s)
        assert len(tail) == 2 and tail[0] == tail[1]
        assert etc_complexity(s) == naive_etc(s)

    @given(st.lists(st.integers(0, 255), min_size=2, max_size=2, unique=True))
    def test_tail_at_two_distinct(self, symbols):
        s = SymbolSequence(tuple(symbols), 256)  # only an input can be a b
        assert naive_etc_tail(s) == tuple(symbols)
        assert etc_complexity(s).raw == naive_etc(s).raw == 1

    @pytest.mark.parametrize("low, high", ((1, 1), (2, 60)))
    @given(data=st.data())
    def test_tail_at_three_and_longer(self, low, high, data):
        extra = data.draw(st.integers(low, high))
        s = data.draw(doubled_run(extra))
        assert len(naive_etc_tail(s)) == 2 + extra
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
            baseline_verdicts(("lzp",), x, y)

    def test_exactly_256_states_fit(self):
        x = SymbolSequence(bytes(range(256)) * 2, 256)
        joint = joint_sequence(x, x)
        assert joint.alphabet_size == 256
        assert joint.symbols == tuple(range(256)) * 2


class TestBaselineDirection:
    def test_identical_inputs_independent(self):
        x = seq("0110100101")
        for v in baseline_verdicts(BASELINE_METHODS, x, x).values():
            assert v.verdict == Direction.INDEPENDENT
            assert v.score_xy == v.score_yx

    def test_constant_effect_etcp(self):
        x = seq("0110100101")
        const = SymbolSequence((0,) * 10, 2)
        v = baseline_verdicts(("etcp",), x, const)["etcp"]
        # penalty(X->Y) = C_J - C(X), penalty(Y->X) = C_J - 0; the direction
        # out of the constant can win only if C(X) = 0
        assert v.score_xy == v.score_yx - etc_complexity(x).raw
        assert v.verdict == Direction.X_CAUSES_Y

    def test_etce_zero_denominator_degenerate(self):
        const_x = SymbolSequence((1,) * 8, 2)
        const_y = SymbolSequence((0,) * 8, 2)
        v = baseline_verdicts(("etce",), const_x, const_y)["etce"]
        assert v.verdict == Direction.INDEPENDENT
        assert v.degenerate

    def test_unknown_method(self):
        with pytest.raises(InputError):
            baseline_verdicts(("nope",), seq("01"), seq("01"))

    def test_deterministic(self):
        x, y = seq("01101001"), seq("00110011")
        first = baseline_verdicts(BASELINE_METHODS, x, y)
        assert baseline_verdicts(BASELINE_METHODS, x, y) == first

    @given(
        st.sampled_from(("lzp", "etcp", "etce")),
        symbol_tuples(min_size=2, max_size=40),
        symbol_tuples(min_size=2, max_size=40),
    )
    def test_swap_symmetry(self, method, xs, ys):
        n = min(len(xs), len(ys))
        x = SymbolSequence(xs[:n], 2)
        y = SymbolSequence(ys[:n], 2)
        fwd = baseline_verdicts((method,), x, y)[method]
        rev = baseline_verdicts((method,), y, x)[method]
        assert fwd.score_xy == rev.score_yx
        assert fwd.score_yx == rev.score_xy
        mirrored = {
            Direction.X_CAUSES_Y: Direction.Y_CAUSES_X,
            Direction.Y_CAUSES_X: Direction.X_CAUSES_Y,
            Direction.INDEPENDENT: Direction.INDEPENDENT,
        }
        assert rev.verdict == mirrored[fwd.verdict]


ORDERED_SUBSETS = [
    methods for r in range(1, len(BASELINE_METHODS) + 1)
    for methods in itertools.permutations(BASELINE_METHODS, r)
]


@st.composite
def equal_length_pairs(draw):
    alphabet = draw(st.sampled_from((1, 2, 4)))
    xs = draw(symbol_tuples(min_size=2, max_size=80, alphabet=alphabet))
    ys = draw(symbol_tuples(min_size=len(xs), max_size=len(xs), alphabet=alphabet))
    return SymbolSequence(xs, alphabet), SymbolSequence(ys, alphabet)


class TestBaselineVerdicts:
    """One joint sequence and one complexity per (measure, sequence) per call."""

    @pytest.mark.parametrize("methods", ORDERED_SUBSETS)
    @settings(max_examples=20)
    @given(pair=equal_length_pairs())
    def test_matches_naive_verdicts(self, methods, pair):
        x, y = pair
        verdicts = baseline_verdicts(methods, x, y)
        assert list(verdicts) == list(methods)
        assert verdicts == {m: naive_baseline(m, x, y) for m in methods}

    def test_constant_x_makes_etce_degenerate(self):
        x, y = SymbolSequence((1,) * 12, 2), seq("011010011100")
        verdicts = baseline_verdicts(BASELINE_METHODS, x, y)
        assert verdicts["etce"].degenerate
        assert verdicts == {m: naive_baseline(m, x, y) for m in BASELINE_METHODS}

    def test_each_complexity_computed_once(self, monkeypatch):
        calls = []

        def counted(name):
            original = getattr(baselines, name)
            return lambda *args: calls.append(name) or original(*args)

        for name in ("joint_sequence", "lz76_complexity", "etc_complexity"):
            monkeypatch.setattr(baselines, name, counted(name))
        baseline_verdicts(("etce", "lzp", "etcp"), seq("01101001"), seq("00110011"))
        assert sorted(calls) == (
            ["etc_complexity"] * 3 + ["joint_sequence"] + ["lz76_complexity"] * 3
        )


class TestSharedVerdictRule:
    # unrelated inputs whose complexities tie, with nonzero penalties both ways
    TIED = ("0100010010100001", "1011100111110011")

    @pytest.mark.parametrize("method, score", (("lzp", 1.0), ("etcp", 3.0), ("etce", 0.625)))
    def test_tied_scores_are_independent(self, method, score):
        v = baseline_verdicts((method,), seq(self.TIED[0]), seq(self.TIED[1]))[method]
        assert v.score_xy == v.score_yx == score
        assert v.verdict == Direction.INDEPENDENT
        assert not v.degenerate

    def test_etce_higher_efficacy_wins(self):
        x, y = seq("010110000110"), seq("011001001100")
        v = baseline_verdicts(("etce",), x, y)["etce"]
        assert v.score_xy > v.score_yx
        assert v.verdict == Direction.X_CAUSES_Y
        assert baseline_verdicts(("etce",), y, x)["etce"].verdict == Direction.Y_CAUSES_X

    @given(
        st.sampled_from(("lzp", "etcp", "etce")),
        symbol_tuples(min_size=2, max_size=40),
        symbol_tuples(min_size=2, max_size=40),
    )
    def test_verdict_follows_scores(self, method, xs, ys):
        n = min(len(xs), len(ys))
        x, y = SymbolSequence(xs[:n], 2), SymbolSequence(ys[:n], 2)
        v = baseline_verdicts((method,), x, y)[method]
        gap = v.score_xy - v.score_yx
        if method == "etce":
            gap = -gap  # efficacy: the higher score wins
        if abs(gap) <= 1e-12:
            assert v.verdict == Direction.INDEPENDENT
        else:
            assert v.verdict == (Direction.X_CAUSES_Y if gap < 0 else Direction.Y_CAUSES_X)
