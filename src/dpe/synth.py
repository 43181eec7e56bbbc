"""Seeded generators for the four synthetic experiment families.

Each generator is a pure function of its parameters and an RngStream, returns
a SequencePair carrying its ground-truth direction, and never touches global
state, so trials parallelize freely. The ar1 and skew-tent families drop
transients first and binarize afterwards; the sparse family builds its binary
observation masks directly.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InputError
from .rng import RngStream
from .seqcore import (
    Direction,
    RealSeries,
    SequencePair,
    SymbolSequence,
    binarize_equiwidth,
)

# sweep grid, desk-scale trials, full-scale trials, param name, length, drop
FAMILY_DEFAULTS = {
    "delay_bitflip": (tuple(float(k) for k in range(7)), 200, 1000, "delay", 100, 0),
    "ar1": (tuple(round(0.05 * i, 2) for i in range(20)), 200, 2000, "phi", 1500, 500),
    "skew_tent": (tuple(round(0.1 * i, 1) for i in range(10)), 200, 2000, "eta", 1500, 500),
    "sparse": (tuple(float(k) for k in range(5, 55, 5)), 100, 100, "k", 2000, 0),
}

FAMILIES = tuple(FAMILY_DEFAULTS)

# fixed model constants
AR1_A = 0.8
AR1_B = 0.8
AR1_NOISE = 0.01
TENT_B_DRIVER = 0.35
TENT_B_RESPONSE = 0.76
SPARSE_N = 2000

TRIGGER_PATTERN = (1, 1, 0, 1)

CONFIG_KEYS = ("family", "param", "values", "length", "drop", "trials", "seed")


@dataclass(frozen=True)
class TrialSpec:
    """One sweep battery: a family, the swept parameter values, and sizes."""

    family: str
    param_name: str
    values: tuple[float, ...]
    length: int
    drop: int
    trials: int
    seed: int

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise InputError(f"unknown family {self.family!r}")
        param = FAMILY_DEFAULTS[self.family][3]
        if self.param_name != param:
            raise InputError(f"{self.family} sweeps {param!r}, got param={self.param_name!r}")
        if self.trials < 1:
            raise InputError("trials must be >= 1")
        if not self.values:
            raise InputError("values must not be empty")
        for value in self.values:  # reject a bad battery before any trial runs
            check_trial_value(self.family, value, self.length, self.drop)

    @classmethod
    def from_config(cls, text: str) -> "TrialSpec":
        fields: dict[str, str] = {}
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise InputError(f"config line {lineno}: expected key=value, got {line!r}")
            key, _, value = (part.strip() for part in line.partition("="))
            if key not in CONFIG_KEYS:
                raise InputError(f"config line {lineno}: unknown key {key!r}")
            if key in fields:
                raise InputError(f"config line {lineno}: key {key!r} is given more than once")
            fields[key] = value
        missing = set(CONFIG_KEYS) - set(fields)
        if missing:
            raise InputError(f"config missing keys: {', '.join(sorted(missing))}")
        try:
            values = tuple(float(v) for v in fields["values"].split(",") if v.strip())
            return cls(
                family=fields["family"],
                param_name=fields["param"],
                values=values,
                length=int(fields["length"]),
                drop=int(fields["drop"]),
                trials=int(fields["trials"]),
                seed=int(fields["seed"]),
            )
        except ValueError as exc:
            raise InputError(f"bad config value: {exc}") from exc


def check_trial_value(family: str, value: float, length: int, drop: int) -> None:
    """Raise InputError unless ``value`` is a valid parameter of ``family``.

    ``family`` is one of FAMILIES; ``length`` and ``drop`` are the trial's
    sizes (``length`` is the series length n of sparse, and only the
    real-valued families drop transients); it is the one check of both.
    ``TrialSpec`` checks every swept value with it, ``generate_trial`` each
    trial, and each generator its own arguments.
    """
    if drop < 0:
        raise InputError(f"drop must be >= 0, got {drop}")
    if family in ("delay_bitflip", "sparse") and drop:
        raise InputError(f"{family} drops no transients, got drop={drop}")
    if family in ("delay_bitflip", "sparse") and not float(value).is_integer():
        raise InputError(f"{family} needs a whole-number parameter value, got {value}")
    if family == "delay_bitflip":
        if length < 8:
            raise InputError("delayed bit-flip needs length >= 8")
        if not 0 <= value <= 6:
            raise InputError("delay must lie in [0, 6]")
    elif family == "sparse":
        if not 1 <= value <= 50:
            raise InputError("sparsity k must lie in [1, 50]")
        if value > length:
            raise InputError(f"sparsity k={int(value)} exceeds the series length {length}")
    elif family == "ar1" and not 0 <= value < 1:
        raise InputError("phi must lie in [0, 1)")
    elif family == "skew_tent" and not 0 <= value <= 0.9:
        raise InputError("eta must lie in [0, 0.9]")
    if family in ("ar1", "skew_tent", "sparse") and length - drop < 2:  # sparse drops nothing
        raise InputError(f"{family} series would hold fewer than 2 symbols: length={length}, drop={drop}")


def delayed_flip_indicator(x_symbols: tuple[int, ...], delay_k: int) -> tuple[int, ...]:
    """y_i = 1 iff the trigger pattern ends at position i - delay_k (1-based)."""
    n = len(x_symbols)
    plen = len(TRIGGER_PATTERN)
    y = [0] * n
    for i in range(n):  # 0-based end position of the would-be pattern: i - delay_k
        end = i - delay_k
        if end - plen + 1 >= 0 and tuple(x_symbols[end - plen + 1 : end + 1]) == TRIGGER_PATTERN:
            y[i] = 1
    return tuple(y)


def gen_delayed_bitflip(length: int, delay_k: int, rng: RngStream) -> SequencePair:
    """Fair random bits X; Y flags trigger-pattern occurrences after a delay."""
    check_trial_value("delay_bitflip", delay_k, length, 0)
    delay_k = int(delay_k)
    x_symbols = tuple(rng.bits(length).tolist())
    y_symbols = delayed_flip_indicator(x_symbols, delay_k)
    return SequencePair(
        SymbolSequence(x_symbols, 2),
        SymbolSequence(y_symbols, 2),
        Direction.X_CAUSES_Y,
    )


def gen_ar1(phi: float, length: int, drop: int, rng: RngStream) -> SequencePair:
    """Unidirectionally coupled AR(1) pair: the autonomous Y drives X.

    Per step the Y innovation comes before the X innovation. Zero initial
    conditions; the first ``drop`` samples are discarded before equi-width
    binarization. Ground truth is y_causes_x, or independent when phi == 0.
    """
    check_trial_value("ar1", phi, length, drop)
    noise = iter((AR1_NOISE * rng.normals(2 * length)).tolist())
    xs = [0.0] * length
    ys = [0.0] * length
    xprev = 0.0
    yprev = 0.0
    for t, eps_y, eps_x in zip(range(length), noise, noise):
        ycur = AR1_B * yprev + eps_y
        xcur = AR1_A * xprev + phi * yprev + eps_x
        ys[t] = ycur
        xs[t] = xcur
        xprev, yprev = xcur, ycur
    bx = binarize_equiwidth(RealSeries(tuple(xs[drop:])))
    by = binarize_equiwidth(RealSeries(tuple(ys[drop:])))
    truth = Direction.INDEPENDENT if phi == 0 else Direction.Y_CAUSES_X
    return SequencePair(bx, by, truth)


def skew_tent(x: float, b: float) -> float:
    """Piecewise-linear chaotic map on [0, 1) with breakpoint b."""
    if x < b:
        return x / b
    return (1.0 - x) / (1.0 - b)


def gen_skew_tent(eta: float, length: int, drop: int, rng: RngStream) -> SequencePair:
    """Driver-response pair of skew-tent maps with concurrent coupling.

    D_t = T(D_{t-1}, 0.35); R_t = (1 - eta) * T(R_{t-1}, 0.76) + eta * D_t.
    Initial conditions are uniform on (0, 1), the driver drawn first. Ground
    truth is x_causes_y (driver causes response), or independent at eta == 0.
    """
    check_trial_value("skew_tent", eta, length, drop)
    d, r = rng.uniforms(2).tolist()
    ds = [0.0] * length
    rs = [0.0] * length
    for t in range(length):
        d = skew_tent(d, TENT_B_DRIVER)
        r = (1.0 - eta) * skew_tent(r, TENT_B_RESPONSE) + eta * d
        if not (0.0 <= d <= 1.0 and 0.0 <= r <= 1.0):
            raise AssertionError("skew-tent orbit left [0, 1]")
        ds[t] = d
        rs[t] = r
    bd = binarize_equiwidth(RealSeries(tuple(ds[drop:])))
    br = binarize_equiwidth(RealSeries(tuple(rs[drop:])))
    truth = Direction.INDEPENDENT if eta == 0 else Direction.X_CAUSES_Y
    return SequencePair(bd, br, truth)


def gen_sparse(k: int, rng: RngStream, n: int = SPARSE_N) -> SequencePair:
    """Sparse coupled processes observed at k random instants and their successors.

    Two latent AR processes are observed, the first on a random k-subset t1 of
    the instants and the second on their successors (within range). Observed
    values are nonzero, so their nonzero indicators are the masks: x is 1 on t1
    and y is x shifted right by one. The latent values never reach the pair and
    are not computed (``tests/oracles.py::naive_sparse`` runs them), but the
    stream advances as their 2n normals would: 2n uniforms, the first 2n - 2
    skipped by ``RngStream.advance`` and the last two drawn through ``normals``
    so that a cached Box-Muller spare is replaced too. Ground truth is
    x_causes_y.
    """
    check_trial_value("sparse", k, n, 0)
    x = bytearray(n)
    for t in rng.sample_without_replacement(n, int(k)):
        x[t] = 1
    rng.advance(2 * n - 2)
    rng.normals(2)
    return SequencePair(SymbolSequence(bytes(x), 2), SymbolSequence(b"\0" + x[:-1], 2), Direction.X_CAUSES_Y)


def generate_trial(family: str, value: float, length: int, drop: int, rng: RngStream) -> SequencePair:
    """Dispatch one trial of any family; ``value`` is the swept parameter."""
    check_trial_value(family, value, length, drop)
    if family == "delay_bitflip":
        return gen_delayed_bitflip(length, value, rng)
    if family == "ar1":
        return gen_ar1(value, length, drop, rng)
    if family == "skew_tent":
        return gen_skew_tent(value, length, drop, rng)
    if family == "sparse":
        return gen_sparse(value, rng, n=length)
    raise InputError(f"unknown family {family!r}")
