"""Pinned float outputs of the Koornwinder measure.

Each value is the ``float.hex`` of the real and imaginary parts of a
``full_inner``, ``norm_K`` or ``continuous_gram`` value, so any change to
how the weight tables, residue masses or chamber sums are built must keep
every bit.  ``OUT1`` and ``OUT2`` have |t_0| > 1: at l = 1 and l = 2 the
terms with every coordinate pinned and the mixed terms both run.  ``OUT2``
has a complex-conjugate pair and two pinned points t_0, t_0 q.  ``T_L`` is
the little q-Jacobi limit set t_L(eps) at eps = 1e-3.  At l = 3 the
measured <1,1>_K of ``normalization_check`` is pinned at ``OUT1``, and
``norm_K`` at ``IN``, inside the disc, where only the torus term runs.
``OUT3`` (k = 1) and ``OUT3_K2`` (k = 2) have the two pinned points t_0 = 4
and t_0 q = 1.6, whose coupling g(x y) g(x / y) is exactly 0 at k = 2, and
``T_L4`` is t_L(eps) at eps = 1e-4 with 13 pinned points: their ``norm_K``
pins, at l = 2 and 3 and at l = 2, cover the terms with every coordinate
pinned at several points.  The
``gram_poly`` keys pin the coefficient of each dominant exponent, with its
type, of ``koornwinder_poly(lam, params, mode="gram")`` at ``IN`` and
``OUT1``; ``COLL`` has the eigenvalue collision E_(2,0) = E_(1,1), where
``norm_K`` takes the Gram route too.  The Gram-mode pins were recorded
before the Koornwinder and q-Jacobi Gram-Schmidt builds were merged.  The
pins were recorded again when the infinite q-products moved to a head
product and Euler's tail (``qseries._euler_split``), which moved each group
by at most 1.6e-15 of its largest entry, and last when float Koornwinder
builds moved to the row engine of exact builds, which moved 19 keys by at
most 1.8e-13 of their group's largest entry (the ``norm_K`` keys by at most
5.5e-14).  Print fresh pins with
``PYTHONPATH=src python tests/test_measure_pins.py``.
"""

from fractions import Fraction as F

import pytest

from bcq import (
    KoornwinderParams,
    LaurentPoly,
    LittleJacobiParams,
    full_inner,
    koornwinder_poly,
    norm_K,
    t_L,
)
from bcq.awmeasure import continuous_gram, normalization_check

OUT1 = KoornwinderParams(1.7, -0.2, 0.15, -0.4, 0.4, 1)
OUT2 = KoornwinderParams(2.5, -0.6, 0.3 + 0.2j, 0.3 - 0.2j, 0.5, 1)
IN = KoornwinderParams(0.3, -0.2, 0.15, -0.4, 0.4, 1)
T_L = t_L(F(1, 1000), LittleJacobiParams(F(1), F(-4), F(1, 2), 1))
COLL = KoornwinderParams(F(-48), F(1, 3), F(1, 2), F(1, 2), F(1, 2), 1)
OUT3 = KoornwinderParams(4.0, -0.2, 0.15, -0.4, 0.4, 1)
OUT3_K2 = KoornwinderParams(4.0, -0.2, 0.15, -0.4, 0.4, 2)
T_L4 = t_L(F(1, 10000), LittleJacobiParams(F(1), F(-4), F(1, 2), 1))
LAMS = {1: [(1,), (2,)], 2: [(1, 0), (1, 1), (2, 0)], 3: [(1, 0, 0), (1, 1, 0)]}
GRAM_LAMS = [(1, 0), (2, 0), (1, 1), (2, 1)]


def _hex(z):
    z = complex(z)
    return z.real.hex(), z.imag.hex()


def _values(key):
    """The pinned values of one key, recomputed."""
    name, kind, l = key
    if name == "T_L":
        return [_hex(norm_K(lam, T_L)) for lam in LAMS[l]]
    if name == "T_L4":
        return [_hex(norm_K(lam, T_L4)) for lam in [(2, 0), (1, 1)]]
    named = {"OUT1": OUT1, "OUT2": OUT2, "IN": IN, "COLL": COLL, "OUT3": OUT3, "OUT3_K2": OUT3_K2}
    params = named[name]
    if kind == "normalization_check":
        return [_hex(normalization_check(l, params).detail["measured"])]
    if kind == "norm_K":
        return [_hex(norm_K(lam, params)) for lam in ([(2, 0)] if name == "COLL" else LAMS[l])]
    if kind == "gram_poly":
        return [
            (lam, exp, type(c).__name__, *_hex(c))
            for lam in ([(2, 0)] if name == "COLL" else GRAM_LAMS)
            for exp, c in sorted(koornwinder_poly(lam, params, mode="gram").terms.items())
            if list(exp) == sorted(map(abs, exp), reverse=True)
        ]
    polys = [LaurentPoly.const(l, 1)] + [koornwinder_poly(lam, params) for lam in LAMS[l]]
    if kind == "gram":
        return [_hex(v) for row in continuous_gram(polys, params) for v in row]
    return [_hex(full_inner(p, r, params)) for i, p in enumerate(polys) for r in polys[i:]]


PINS = {
    ('OUT1', 'full_inner', 1): [
        ('0x1.99fc012e62d57p+0', '-0x1.7c9783eb91591p-55'),
        ('0x1.3000000000000p-48', '0x1.c3e7ae7705726p-54'),
        ('0x1.6600000000000p-44', '-0x1.02796ea4f4601p-52'),
        ('0x1.b364691cf0682p+0', '-0x1.5b77619bb73eep-56'),
        ('-0x1.cb20000000000p-43', '0x1.2ddbe1f6d57b7p-53'),
        ('0x1.d9e23da276514p+0', '-0x1.6a78d4ac8acbap-56'),
    ],
    ('OUT1', 'norm_K', 1): [
        ('0x1.0fdd7136af7f5p+0', '0x0.0p+0'),
        ('0x1.27e64fd6e95c5p+0', '0x0.0p+0'),
    ],
    ('OUT1', 'gram', 1): [
        ('0x1.069a3b870f2f4p+0', '0x1.7c9783eb91591p-55'),
        ('-0x1.28db513831f36p-1', '0x1.c3e7ae7705726p-54'),
        ('-0x1.c10d56920686bp-2', '-0x1.02796ea4f4601p-52'),
        ('-0x1.28db513831f36p-1', '-0x1.c3e7ae7705726p-54'),
        ('0x1.1de8f6a08e6f1p+0', '0x1.5b77619bb73eep-56'),
        ('-0x1.c43d8d0eb4099p-2', '0x1.2ddbe1f6d57b7p-53'),
        ('-0x1.c10d56920686bp-2', '0x1.02796ea4f4601p-52'),
        ('-0x1.c43d8d0eb4099p-2', '-0x1.2ddbe1f6d57b7p-53'),
        ('0x1.845f0ec152da5p+0', '0x1.6a78d4ac8acbap-56'),
    ],
    ('OUT1', 'full_inner', 2): [
        ('0x1.5ca402647e8f1p+2', '-0x1.ca05e1e4d5f20p-53'),
        ('-0x1.ab00000000000p-44', '-0x1.0b01f975390ecp-54'),
        ('0x1.4e00000000000p-45', '-0x1.a81b246c35adep-51'),
        ('-0x1.2fb0000000000p-39', '-0x1.af041a426fbcfp-50'),
        ('0x1.7b7678ae7d660p+2', '-0x1.950641493c91fp-53'),
        ('-0x1.6c00000000000p-43', '0x1.19875ad32f2d6p-52'),
        ('0x1.1128000000000p-39', '0x1.e6368aed7d480p-52'),
        ('0x1.92faa6d73fc62p+2', '-0x1.e37b1b9c9014ap-54'),
        ('-0x1.54c345fb36c38p-42', '-0x1.cdb1b026b9565p-52'),
        ('0x1.8ca4bfc6ebc3ep+2', '-0x1.5625be374f3d3p-54'),
    ],
    ('OUT1', 'norm_K', 2): [
        ('0x1.16a1cfc14a4b5p+0', '0x0.0p+0'),
        ('0x1.27e64fd6e95c0p+0', '0x0.0p+0'),
        ('0x1.233f616f93b3cp+0', '0x0.0p+0'),
    ],
    ('OUT1', 'gram', 2): [
        ('0x1.9e7366356a4d1p+0', '0x1.827e03f732dcdp-54'),
        ('-0x1.6a21c284c31d6p+0', '0x1.d9f5a4c6a3fb6p-53'),
        ('0x1.7ddce5d897670p+0', '-0x1.390f9b2ae2d99p-51'),
        ('-0x1.dabc3967c1b64p-1', '-0x1.9b09b3b86c609p-51'),
        ('-0x1.6a21c284c31d6p+0', '-0x1.d9f5a4c6a3fb6p-53'),
        ('0x1.5d2847f1a64e7p+1', '0x1.3caf56cdb20a2p-54'),
        ('-0x1.12c1c913972fep+1', '0x1.e7d2629a37ecep-52'),
        ('-0x1.6710468777936p-1', '0x1.b5dada3b0388ap-51'),
        ('0x1.7ddce5d897670p+0', '0x1.390f9b2ae2d99p-51'),
        ('-0x1.12c1c913972fep+1', '-0x1.e7d2629a37ecep-52'),
        ('0x1.7fd0a92afd1cdp+1', '0x1.53791ff13c710p-54'),
        ('-0x1.916c94fc4537ap-40', '-0x1.7755c0e797974p-51'),
        ('-0x1.dabc3967c1b64p-1', '0x1.9b09b3b86c609p-51'),
        ('-0x1.6710468777936p-1', '-0x1.b5dada3b0388ap-51'),
        ('-0x1.916c94fc4537ap-40', '0x1.7755c0e797974p-51'),
        ('0x1.c1469615bef34p+1', '0x1.6dc162f4b4e40p-54'),
    ],
    ('OUT2', 'full_inner', 1): [
        ('0x1.76349e97783bfp+3', '-0x1.b87e334c78d8dp-54'),
        ('0x1.7c00000000000p-46', '-0x1.4280ab2427227p-50'),
        ('-0x1.cbb4000000000p-39', '-0x1.ac77b67724848p-49'),
        ('0x1.c89b1c2748936p+1', '0x1.48fef79a8c0b9p-55'),
        ('-0x1.09f4000000000p-39', '0x1.650ae50a6d026p-52'),
        ('0x1.2469eea6c4be8p+1', '0x1.903df9ca77578p-57'),
    ],
    ('OUT2', 'norm_K', 1): [
        ('0x1.385f1412f61adp-2', '0x0.0p+0'),
        ('0x1.901704a2aded9p-3', '0x0.0p+0'),
    ],
    ('OUT2', 'gram', 1): [
        ('0x1.8ee9b4ef3b85bp+0', '-0x1.a8bf68b5cdd97p-54'),
        ('-0x1.dc8df6fa718d1p+0', '0x1.9df2c4e15a6c4p-55'),
        ('-0x1.417a304698cc4p-3', '-0x1.e00f12b7a67bbp-51'),
        ('-0x1.dc8df6fa718d1p+0', '-0x1.9df2c4e15a6c4p-55'),
        ('0x1.4edc9aad7f846p+1', '-0x1.bf55fa6ba709cp-55'),
        ('-0x1.29c7f0fdff05fp-1', '0x1.ef4b82cac8cf2p-51'),
        ('-0x1.417a304698cc4p-3', '0x1.e00f12b7a67bbp-51'),
        ('-0x1.29c7f0fdff05fp-1', '-0x1.ef4b82cac8cf2p-51'),
        ('0x1.c7cf125e8b4bcp+0', '-0x1.c393824eb9688p-57'),
    ],
    ('OUT2', 'full_inner', 2): [
        ('0x1.4db83ac080a9bp+6', '-0x1.e3f51585445cap-50'),
        ('-0x1.5d80000000000p-38', '0x1.70cd2424fb397p-50'),
        ('-0x1.0560000000000p-38', '-0x1.c744079580eb3p-48'),
        ('-0x1.b000000000000p-38', '-0x1.77ceb66efd4f0p-46'),
        ('0x1.ab6edd52826b1p+5', '-0x1.70f1375bbef9ep-51'),
        ('-0x1.6130000000000p-38', '-0x1.ed80bdb18508fp-47'),
        ('-0x1.baa0000000000p-38', '0x1.9ba99a2e6bec3p-45'),
        ('0x1.04c6eeb28148cp+4', '0x1.13fd2dcccf36cp-53'),
        ('-0x1.f810000000000p-40', '-0x1.5d8bad14e0587p-47'),
        ('0x1.7df452d93758bp+5', '-0x1.b48194be0bdbcp-51'),
    ],
    ('OUT2', 'norm_K', 2): [
        ('0x1.47e37aac636a7p-1', '0x0.0p+0'),
        ('0x1.901704a2adeebp-3', '0x0.0p+0'),
        ('0x1.25005bc016452p-1', '0x0.0p+0'),
    ],
    ('OUT2', 'gram', 2): [
        ('0x1.38f2355f9210cp+0', '-0x1.632c94f2733a1p-54'),
        ('-0x1.32d08814c3598p+1', '0x1.a0c12907a358ep-55'),
        ('0x1.7e4b0fcf789a6p+1', '0x1.a2dc1cfeb1f55p-54'),
        ('-0x1.27b74d2f75e66p-2', '-0x1.5fde79c909527p-48'),
        ('-0x1.32d08814c3598p+1', '-0x1.a0c12907a358ep-55'),
        ('0x1.5ffa9ec85a1c4p+2', '-0x1.77dfa30379840p-52'),
        ('-0x1.b3f0742edea68p+2', '-0x1.791845ce0048cp-51'),
        ('-0x1.449f35a4dfe58p+0', '0x1.87ae0744e6d15p-47'),
        ('0x1.7e4b0fcf789a6p+1', '-0x1.a2dc1cfeb1f55p-54'),
        ('-0x1.b3f0742edea68p+2', '0x1.791845ce0048cp-51'),
        ('0x1.14766113f0759p+3', '-0x1.0d8b1baafa284p-51'),
        ('0x1.7c5b56acf5557p+0', '-0x1.e4cc67ec7d604p-47'),
        ('-0x1.27b74d2f75e66p-2', '0x1.5fde79c909527p-48'),
        ('-0x1.449f35a4dfe58p+0', '-0x1.87ae0744e6d15p-47'),
        ('0x1.7c5b56acf5557p+0', '0x1.e4cc67ec7d604p-47'),
        ('0x1.3e3cdce2fbb49p+2', '-0x1.8ddf146f71c2bp-52'),
    ],
    ('T_L', 'norm_K', 1): [
        ('0x1.e847002b13f54p+14', '0x0.0p+0'),
        ('0x1.8fbee24ca42dbp+30', '0x0.0p+0'),
    ],
    ('OUT1', 'normalization_check', 3): [
        ('0x1.e4075bdc98082p+4', '0x0.0p+0'),
    ],
    ('IN', 'norm_K', 3): [
        ('0x1.e9cd5e713120dp-1', '0x0.0p+0'),
        ('0x1.b29954887d140p-1', '0x0.0p+0'),
    ],
    ('IN', 'gram_poly', 2): [
        ((1, 0), (0, 0), 'complex', '0x1.b8a7de6d1d61ep-3', '-0x1.a1aef2fde8d92p-54'),
        ((1, 0), (1, 0), 'int', '0x1.0000000000000p+0', '0x0.0p+0'),
        ((2, 0), (0, 0), 'complex', '0x1.37ebb73bd26e8p+1', '-0x1.d9e6e37676c5cp-51'),
        ((2, 0), (1, 0), 'complex', '0x1.e3e09193a5036p-3', '-0x1.197db94bcc4fbp-51'),
        ((2, 0), (1, 1), 'complex', '0x1.fffffffffffe0p-1', '-0x1.e0eef513c7e92p-51'),
        ((2, 0), (2, 0), 'int', '0x1.0000000000000p+0', '0x0.0p+0'),
        ((1, 1), (0, 0), 'complex', '0x1.6ded220a9d44ep-1', '-0x1.8251c708ab674p-53'),
        ((1, 1), (1, 0), 'complex', '0x1.46cefa8d9df57p-3', '-0x1.c8f77c2694dd0p-53'),
        ((1, 1), (1, 1), 'int', '0x1.0000000000000p+0', '0x0.0p+0'),
        ((2, 1), (0, 0), 'complex', '0x1.16f19eb593e37p-1', '0x1.6ec99ab73728ep-51'),
        ((2, 1), (1, 0), 'complex', '0x1.04d36e635848bp+1', '-0x1.e94ddd96077f0p-54'),
        ((2, 1), (1, 1), 'complex', '0x1.9557c610a17c6p-2', '-0x1.65dc062624b50p-56'),
        ((2, 1), (2, 0), 'complex', '0x1.46cefa8d9df4ep-3', '0x1.5424e93bb91a1p-54'),
        ((2, 1), (2, 1), 'int', '0x1.0000000000000p+0', '0x0.0p+0'),
    ],
    ('OUT1', 'gram_poly', 2): [
        ((1, 0), (0, 0), 'complex', '-0x1.c22fab502ed09p+0', '0x1.17a4e3e4d663ap-58'),
        ((1, 0), (1, 0), 'int', '0x1.0000000000000p+0', '0x0.0p+0'),
        ((2, 0), (0, 0), 'complex', '0x1.66a54492eb260p+1', '0x1.26ca08193dff8p-54'),
        ((2, 0), (1, 0), 'complex', '-0x1.f3c7ce69c4d00p+0', '-0x1.28731f98cbb90p-54'),
        ((2, 0), (1, 1), 'complex', '0x1.0000000000020p+0', '0x1.89986cc571b33p-54'),
        ((2, 0), (2, 0), 'int', '0x1.0000000000000p+0', '0x0.0p+0'),
        ((1, 1), (0, 0), 'complex', '0x1.5a0514142d488p+1', '-0x1.de2f778ac1e54p-53'),
        ((1, 1), (1, 0), 'complex', '-0x1.47f87941f5c27p+0', '0x1.e6fea9282e483p-55'),
        ((1, 1), (1, 1), 'int', '0x1.0000000000000p+0', '0x0.0p+0'),
        ((2, 1), (0, 0), 'complex', '-0x1.448fd1eb11710p+2', '-0x1.e1bf6b54750cbp-48'),
        ((2, 1), (1, 0), 'complex', '0x1.201253bcd1bf4p+2', '0x1.f2edbc1b3cbe7p-49'),
        ((2, 1), (1, 1), 'complex', '-0x1.9de023d5dd4b4p+1', '-0x1.1004602f973bcp-49'),
        ((2, 1), (2, 0), 'complex', '-0x1.47f87941f5c71p+0', '-0x1.88016860b70c6p-50'),
        ((2, 1), (2, 1), 'int', '0x1.0000000000000p+0', '0x0.0p+0'),
    ],
    ('COLL', 'gram_poly', 2): [
        ((2, 0), (0, 0), 'complex', '0x1.1ea60b8e326b8p+9', '-0x1.8839572e71000p-58'),
        ((2, 0), (1, 0), 'complex', '0x1.bc8049d75f0dap+5', '-0x1.1434c883825ccp-52'),
        ((2, 0), (1, 1), 'complex', '0x1.00006e2264b49p+0', '-0x1.8fa260117321cp-54'),
        ((2, 0), (2, 0), 'int', '0x1.0000000000000p+0', '0x0.0p+0'),
    ],
    ('COLL', 'norm_K', 2): [
        ('0x1.7e3fb53761937p+15', '0x0.0p+0'),
    ],
    ('OUT3', 'norm_K', 2): [
        ('0x1.5ee8f12666924p+0', '0x0.0p+0'),
        ('0x1.bd60e9e8e6df1p+0', '0x0.0p+0'),
        ('0x1.9fb0f9ecebb04p+0', '0x0.0p+0'),
    ],
    ('OUT3', 'norm_K', 3): [
        ('0x1.2f42952675c89p+0', '0x0.0p+0'),
        ('0x1.9fb0f9ecebaffp+0', '0x0.0p+0'),
    ],
    ('OUT3_K2', 'norm_K', 2): [
        ('0x1.b7cab729f498cp-1', '0x0.0p+0'),
        ('0x1.73a9857ea33bbp+0', '0x0.0p+0'),
        ('0x1.ac6b4fa3319b7p-1', '0x0.0p+0'),
    ],
    ('OUT3_K2', 'norm_K', 3): [
        ('0x1.7a3aa8153ab6cp-1', '0x0.0p+0'),
        ('0x1.b4cefffe62a18p-1', '0x0.0p+0'),
    ],
    ('T_L4', 'norm_K', 2): [
        ('0x1.3fabeac4f5eaep+43', '0x0.0p+0'),
        ('0x1.e55ac57a62bb8p+43', '0x0.0p+0'),
    ],
}


@pytest.mark.parametrize("key", sorted(PINS))
def test_measure_values_are_pinned(key):
    assert _values(key) == PINS[key]


if __name__ == "__main__":
    keys = [
        (name, kind, l)
        for name in ("OUT1", "OUT2")
        for l in (1, 2)
        for kind in ("full_inner", "norm_K", "gram")
    ]
    keys += [("T_L", "norm_K", 1), ("OUT1", "normalization_check", 3), ("IN", "norm_K", 3)]
    keys += [("IN", "gram_poly", 2), ("OUT1", "gram_poly", 2)]
    keys += [("COLL", "gram_poly", 2), ("COLL", "norm_K", 2)]
    keys += [(name, "norm_K", l) for name in ("OUT3", "OUT3_K2") for l in (2, 3)]
    keys += [("T_L4", "norm_K", 2)]
    for key in keys:
        print(f"    {key!r}: [")
        for pair in _values(key):
            print(f"        {pair!r},")
        print("    ],")
