#!/usr/bin/env python3
"""Generates the coefficients of the Gaussian core in src/stats/lanes.h.

    python3 tools/gen_normal_core.py

The core (lanes::normal_core) returns Phi(x), Phi(-x) and phi(x) of one
double from one range-reduced exp and one polynomial:

    E          = exp(-x^2/2)       x^2 split exactly (Dekker), so the
                                   argument carries no rounding error
    t          = K / (K + |x|)     in (0, 1], t = 1 at x = 0
    Phi(-|x|)  = E * t * P(t)      P fits Phi(-x) e^{x^2/2} / t
    Phi(|x|)   = 1 - Phi(-|x|)
    phi(x)     = E / sqrt(2 pi)

P is a Chebyshev fit (mpmath.chebyfit, near-minimax) on t in
[K / (K + 38.6), 1]: below t = K / (K + 38.6) the tail underflows, so the
fit never sees the point t = 0 where the function stops being analytic,
and a low degree reaches the double rounding floor.  Its leading
coefficient is moved by the rounding residual of the double sum at t = 1
until that sum is exactly 0.5, which makes Phi(0) = 0.5 exact.  The exp core is exp(r) on
|r| <= ln2/2 as 1 + r + r^2 Q(r), with Q a Chebyshev fit of
(e^r - 1 - r) / r^2.

Python floats are IEEE doubles and Python arithmetic never fuses a
multiply-add, so the emulation below replays the C++ core's exact
operation sequence (the repository builds with -ffp-contract=off).  The
script checks the emulated core against mpmath on a 0.01 grid and exits
non-zero if an accuracy bound is missed, then rewrites:

  * the block between the "gen_normal_core.py" markers in
    src/stats/lanes.h (the two polynomial leaf functions and K);
  * tests/normal_table.inc: 30-digit reference values of Phi(x), Phi(-x)
    and phi(x) at 587 doubles with |x| <= 38, read by test_stats.

Re-running it reproduces both files byte for byte (mpmath 1.3.0).
"""
import math
import struct
import sys
from pathlib import Path

import mpmath as mp

ROOT = Path(__file__).resolve().parent.parent
LANES_H = ROOT / "src" / "stats" / "lanes.h"
TABLE = ROOT / "tests" / "normal_table.inc"
BEGIN = "// BEGIN generated by tools/gen_normal_core.py: do not edit by hand."
END = "// END generated by tools/gen_normal_core.py."

mp.mp.dps = 50

K = 5.0          # t = K / (K + |x|)
P_TERMS = 22     # terms of P(t)
Q_TERMS = 10     # terms of the exp core's Q(r)
X_CLAMP = 39.0   # |x| above this gives the same (underflowed) result
X_FIT = mp.mpf("38.6")
EXP_FLOOR = -768.0
SCALE_BIAS = 128  # 2^k is built as 2^(k + 128) * 2^-128: gradual underflow

LN2_HI = float.fromhex("0x1.62e42fee00000p-1")  # 32 significant bits
LN2_LO = float.fromhex("0x1.a39ef35793c76p-33")
INV_LN2 = float.fromhex("0x1.71547652b82fep+0")
INV_SQRT_2PI = float(1 / mp.sqrt(2 * mp.pi))

# Accuracy bounds on the 0.01 grid (max relative error of Phi(-|x|) and of
# phi(x)); the libm path (0.5 * erfc, exp) measured 3.2e-15, 5.2e-14 and
# 1.8e-13 for min(Phi(x), Phi(-x)) over the same three ranges.
BOUNDS = [(5.0, 1e-15), (20.0, 1e-15), (37.0, 1e-15)]


def bits(d):
    return struct.unpack("<Q", struct.pack("<d", d))[0]


def from_bits(u):
    return struct.unpack("<d", struct.pack("<Q", u & (2**64 - 1)))[0]


def select(cond, a, b):
    return a if cond else b


# ---------------------------------------------------------------- fitting

def mills_over_t(t):
    """Phi(-x) e^{x^2/2} / t at x = K (1 - t) / t."""
    t = mp.mpf(t)
    if t == 1:
        return mp.mpf("0.5")
    x = mp.mpf(K) * (1 - t) / t
    return mp.erfc(x / mp.sqrt(2)) / 2 * mp.exp(x * x / 2) / t


def exp_q(r):
    r = mp.mpf(r)
    if r == 0:
        return mp.mpf("0.5")
    return (mp.exp(r) - 1 - r) / (r * r)


def estrin_levels(n):
    """Estrin's scheme for n coefficients (ascending): per level, the index
    pairs (i, i+1) combined as a + b * v^(2^level); an odd last term is
    carried up.  The tree is ~log2(n) deep where Horner's chain is n - 1
    long, which is what the one-lane (scalar) callers wait on."""
    levels, m = [], n
    while m > 1:
        levels.append(m)
        m = (m + 1) // 2
    return levels


def estrin(coeffs, v):
    """coeffs highest degree first; the emitted C++ order exactly."""
    terms = list(reversed(coeffs))
    power = v
    for m in estrin_levels(len(coeffs)):
        terms = [terms[i] + terms[i + 1] * power for i in range(0, m - 1, 2)] \
            + ([terms[-1]] if m % 2 else [])
        power = power * power
    return terms[0]


def fit():
    t_min = mp.mpf(K) / (mp.mpf(K) + X_FIT)
    p = [float(c) for c in mp.chebyfit(mills_over_t, [t_min, 1], P_TERMS)]
    # Move the leading coefficient by P(1)'s rounding residual until P(1)
    # is exactly 0.5: at t = 1 it counts in full, in the tail
    # (t <= 0.9) it is damped by t^21 below 0.11.
    for _ in range(64):
        s = estrin(p, 1.0)
        if s == 0.5:
            break
        p[0] += 0.5 - s
    else:
        sys.exit("gen_normal_core: could not make P(1) exactly 0.5")
    half_ln2 = mp.log(2) / 2 + mp.mpf("1e-6")
    q = [float(c) for c in mp.chebyfit(exp_q, [-half_ln2, half_ln2], Q_TERMS)]
    return p, q


# ------------------------------------------------------------- emulation

def exp_core(q, y, y_lo):
    y = select(y < EXP_FLOOR, EXP_FLOOR, y)
    kr = y * INV_LN2 + float.fromhex("0x1.8p52")
    kd = kr - float.fromhex("0x1.8p52")
    r = ((y - kd * LN2_HI) - kd * LN2_LO) + y_lo
    expu = 1.0 + r * (1.0 + r * estrin(q, r))
    scale = from_bits((bits(kr) + 1023 + SCALE_BIAS) << 52)
    return (expu * scale) * float.fromhex("0x1p-%d" % SCALE_BIAS)


def normal_core(p, q, x):
    ax = from_bits(bits(x) & 0x7FFFFFFFFFFFFFFF)
    ax = select(ax > X_CLAMP, X_CLAMP, ax)
    c = 134217729.0 * ax
    hi = c - (c - ax)
    lo = ax - hi
    sq = ax * ax
    err = ((hi * hi - sq) + 2.0 * hi * lo) + lo * lo
    e = exp_core(q, -0.5 * sq, -0.5 * err)
    t = K / (K + ax)
    s = e * (t * estrin(p, t))
    b = 1.0 - s
    neg = x < 0.0
    return select(neg, s, b), select(neg, b, s), INV_SQRT_2PI * e


# ------------------------------------------------------------- reference

def ref(x):
    x = mp.mpf(x)
    sf = mp.erfc(x / mp.sqrt(2)) / 2
    cdf = mp.erfc(-x / mp.sqrt(2)) / 2
    pdf = mp.exp(-x * x / 2) / mp.sqrt(2 * mp.pi)
    return cdf, sf, pdf


def rel(got, want):
    return abs((mp.mpf(got) - want) / want)


def check(p, q):
    """Max relative error of Phi(-|x|) and phi(x) on x = k/100 per range;
    the libm path's for comparison."""
    worst = {xmax: [0.0, 0.0, 0.0] for xmax, _ in BOUNDS}
    for k in range(0, 3701):
        x = k / 100
        _, sf, pdf = ref(x)
        _, got_sf, got_pdf = normal_core(p, q, x)
        libm = 0.5 * math.erfc(x * float(1 / mp.sqrt(2)))
        errs = (rel(got_sf, sf), rel(got_pdf, pdf), rel(libm, sf))
        for xmax, _ in BOUNDS:
            if x <= xmax:
                w = worst[xmax]
                for i in range(3):
                    w[i] = max(w[i], float(errs[i]))
    ok = True
    for xmax, bound in BOUNDS:
        sf_e, pdf_e, libm_e = worst[xmax]
        print(f"|x| <= {xmax:4.1f}: Phi(-|x|) {sf_e:.2e}  phi {pdf_e:.2e}  "
              f"(libm erfc {libm_e:.2e}, bound {bound:.0e})")
        ok &= sf_e <= bound and pdf_e <= bound
    return ok


# ---------------------------------------------------------------- output

def table_points():
    xs = {0.0, 1e-300, 1e-8, 0.5, 1.0, 1.96, 3.0, 8.3, 37.0, 37.5, 38.0}
    xs |= {-38.0 + i * 0.19 for i in range(401)}
    xs |= {-x for x in xs}
    return sorted(x for x in xs if abs(x) <= 38.0)


def write_table():
    rows = ["// Generated by tools/gen_normal_core.py: do not edit by hand.",
            "// {x, Phi(x), Phi(-x), phi(x)}, reference values to 30 digits."]
    pts = table_points()
    for x in pts:
        vals = ", ".join(mp.nstr(v, 30, min_fixed=1, max_fixed=0) + "L"
                         for v in ref(x))
        rows.append(f"{{{x.hex()}, {vals}}},")
    TABLE.write_text("\n".join(rows) + "\n", encoding="utf-8")
    return len(pts)


def cxx_estrin(name, var, coeffs, indent):
    """estrin() as C++ statements; a - b*v is bitwise a + (-b)*v."""
    terms = [c.hex() for c in reversed(coeffs)]
    power, lines = var, []
    levels = estrin_levels(len(coeffs))
    for lv, m in enumerate(levels, start=1):
        nxt = []
        for i in range(0, m - 1, 2):
            a, b = terms[i], terms[i + 1]
            op = "+"
            if b.startswith("-"):
                op, b = "-", b[1:]
            out = f"{name}{lv}_{i // 2}"
            lhs = "return" if lv == len(levels) else f"const double {out} ="
            lines.append(f"{indent}{lhs} {a} {op} {b} * {power};")
            nxt.append(out)
        terms = nxt + ([terms[-1]] if m % 2 else [])
        if lv < len(levels):
            sq = f"{var}{2 ** lv}"
            lines.append(f"{indent}const double {sq} = {power} * {power};")
            power = sq
    return lines


def write_block(p, q):
    ind = "  "
    block = [
        BEGIN,
        "// mpmath 1.3.0 Chebyshev fits; see the script for how they are made.",
        "",
        "/// t = kNormalCoreK / (kNormalCoreK + |x|) is normal_core's tail variable.",
        f"inline constexpr double kNormalCoreK = {K!r};",
        "",
        f"/// P(t) ~ Phi(-x) e^(x^2/2) / t, {P_TERMS} terms in Estrin's scheme, with",
        "/// P(1) == 0.5 exactly in this evaluation order.",
        "__attribute__((always_inline)) inline double normal_tail_poly(",
        f"{ind}  double t) noexcept {{",
        *cxx_estrin("p", "t", p, ind),
        "}",
        "",
        f"/// Q(r) ~ (e^r - 1 - r) / r^2 on |r| <= ln2/2, {Q_TERMS} terms, Estrin.",
        "__attribute__((always_inline)) inline double exp_poly(double r) noexcept {",
        *cxx_estrin("q", "r", q, ind),
        "}",
        END,
    ]
    text = LANES_H.read_text(encoding="utf-8")
    head, sep, rest = text.partition(BEGIN)
    _, sep2, tail = rest.partition(END)
    if not sep or not sep2:
        sys.exit(f"gen_normal_core: markers not found in {LANES_H}")
    LANES_H.write_text(head + "\n".join(block) + tail, encoding="utf-8")


def main():
    p, q = fit()
    assert normal_core(p, q, 0.0) == (0.5, 0.5, INV_SQRT_2PI)
    assert exp_core(q, 0.0, 0.0) == 1.0
    ok = check(p, q)
    if not ok:
        sys.exit("gen_normal_core: accuracy bound missed; nothing written")
    write_block(p, q)
    n = write_table()
    print(f"wrote {LANES_H.relative_to(ROOT)} and "
          f"{TABLE.relative_to(ROOT)} ({n} points)")


if __name__ == "__main__":
    main()
