"""Pinned float outputs of the Koornwinder measure.

Each value is the ``float.hex`` of the real and imaginary parts of a
``full_inner``, ``norm_K`` or ``continuous_gram`` value, so any change to
how the weight tables, residue masses or chamber sums are built must keep
every bit.  Both parameter sets have |t_0| > 1: at l = 1 and l = 2 the
terms with every coordinate pinned and the mixed terms both run.  ``OUT2``
has a complex-conjugate pair and two pinned points t_0, t_0 q.  ``T_L`` is
the little q-Jacobi limit set t_L(eps) at eps = 1e-3, and ``L3`` the
measured <1,1>_K of the l = 3 ``normalization_check``.  The pins were
recorded before the weight tables were cached per parameter.  Print fresh
pins with ``PYTHONPATH=src python tests/test_measure_pins.py``.
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
T_L = t_L(F(1, 1000), LittleJacobiParams(F(1), F(-4), F(1, 2), 1))
LAMS = {1: [(1,), (2,)], 2: [(1, 0), (1, 1), (2, 0)]}


def _hex(z):
    z = complex(z)
    return z.real.hex(), z.imag.hex()


def _values(key):
    """The pinned values of one key, recomputed."""
    name, kind, l = key
    if name == "T_L":
        return [_hex(norm_K(lam, T_L)) for lam in LAMS[l]]
    params = {"OUT1": OUT1, "OUT2": OUT2}[name]
    if kind == "normalization_check":
        return [_hex(normalization_check(l, params).detail["measured"])]
    if kind == "norm_K":
        return [_hex(norm_K(lam, params)) for lam in LAMS[l]]
    polys = [LaurentPoly.const(l, 1)] + [koornwinder_poly(lam, params) for lam in LAMS[l]]
    if kind == "gram":
        return [_hex(v) for row in continuous_gram(polys, params) for v in row]
    return [_hex(full_inner(p, r, params)) for i, p in enumerate(polys) for r in polys[i:]]


PINS = {
    ('OUT1', 'full_inner', 1): [
        ('0x1.99fc012e62d59p+0', '-0x1.4e541d4eb30b5p-55'),
        ('0x1.7800000000000p-48', '0x1.ca28f231abd6cp-54'),
        ('0x1.4e80000000000p-43', '-0x1.0a7f7c71a666ap-52'),
        ('0x1.b364691cf0682p+0', '-0x1.f9147877280e6p-56'),
        ('-0x1.c130000000000p-42', '0x1.3bb17ce3b5f39p-53'),
        ('0x1.d9e23da276511p+0', '-0x1.4e5edde0c12dbp-55'),
    ],
    ('OUT1', 'norm_K', 1): [
        ('0x1.0fdd7136af7f3p+0', '0x0.0p+0'),
        ('0x1.27e64fd6e95c2p+0', '0x0.0p+0'),
    ],
    ('OUT1', 'gram', 1): [
        ('0x1.069a3b870f2f5p+0', '0x1.4e541d4eb30b5p-55'),
        ('-0x1.28db513831f31p-1', '0x1.ca28f231abd6cp-54'),
        ('-0x1.c10d5692060a3p-2', '-0x1.0a7f7c71a666ap-52'),
        ('-0x1.28db513831f31p-1', '-0x1.ca28f231abd6cp-54'),
        ('0x1.1de8f6a08e6eep+0', '0x1.f9147877280e6p-56'),
        ('-0x1.c43d8d0eb4b65p-2', '0x1.3bb17ce3b5f39p-53'),
        ('-0x1.c10d5692060a3p-2', '0x1.0a7f7c71a666ap-52'),
        ('-0x1.c43d8d0eb4b65p-2', '-0x1.3bb17ce3b5f39p-53'),
        ('0x1.845f0ec152ec0p+0', '0x1.4e5edde0c12dbp-55'),
    ],
    ('OUT1', 'full_inner', 2): [
        ('0x1.5ca402647e8f5p+2', '-0x1.cbbc8339788e6p-53'),
        ('0x1.8d00000000000p-44', '0x1.41694423f5678p-55'),
        ('0x1.4700000000000p-44', '-0x1.72753c5c53fc3p-51'),
        ('-0x1.9900000000000p-40', '-0x1.95dc345e45b64p-50'),
        ('0x1.7b7678ae7d665p+2', '-0x1.6676cc66ac9d2p-53'),
        ('-0x1.4600000000000p-43', '0x1.1ab493a3398fap-52'),
        ('0x1.8c18000000000p-40', '0x1.a4ac2dd94f194p-52'),
        ('0x1.92faa6d73fc62p+2', '-0x1.9e9f63f9a420ep-53'),
        ('-0x1.96b98dc4d05b0p-43', '-0x1.8dd17881aa179p-52'),
        ('0x1.8ca4bfc6ebc46p+2', '-0x1.62f3af8daabe1p-54'),
    ],
    ('OUT1', 'norm_K', 2): [
        ('0x1.16a1cfc14a4b6p+0', '0x0.0p+0'),
        ('0x1.27e64fd6e95bcp+0', '0x0.0p+0'),
        ('0x1.233f616f93b3fp+0', '0x0.0p+0'),
    ],
    ('OUT1', 'gram', 2): [
        ('0x1.9e7366356a4d8p+0', '0x1.91281a1793391p-54'),
        ('-0x1.6a21c284c30e7p+0', '0x1.058af161cc06cp-52'),
        ('0x1.7ddce5d897692p+0', '-0x1.2bcc33e8e73afp-51'),
        ('-0x1.dabc3967c0e98p-1', '-0x1.71dff183b08c4p-51'),
        ('-0x1.6a21c284c30e7p+0', '-0x1.058af161cc06cp-52'),
        ('0x1.5d2847f1a6417p+1', '0x1.faf93c7f62f58p-54'),
        ('-0x1.12c1c91397294p+1', '0x1.e0607cbc50f69p-52'),
        ('-0x1.6710468778ae6p-1', '0x1.83dabc2d22d62p-51'),
        ('0x1.7ddce5d897692p+0', '0x1.2bcc33e8e73afp-51'),
        ('-0x1.12c1c91397294p+1', '-0x1.e0607cbc50f69p-52'),
        ('0x1.7fd0a92afd1ddp+1', '0x1.d9bb14902d526p-54'),
        ('-0x1.165a1ef298ebep-40', '-0x1.61d8eab327465p-51'),
        ('-0x1.dabc3967c0e98p-1', '0x1.71dff183b08c4p-51'),
        ('-0x1.6710468778ae6p-1', '-0x1.83dabc2d22d62p-51'),
        ('-0x1.165a1ef298ebep-40', '0x1.61d8eab327465p-51'),
        ('0x1.c1469615bee3dp+1', '0x1.7072bb64e2f55p-54'),
    ],
    ('OUT2', 'full_inner', 1): [
        ('0x1.76349e97783bbp+3', '0x1.4c15dbe825aebp-51'),
        ('0x1.bc00000000000p-46', '-0x1.3310d135a4d87p-50'),
        ('-0x1.bf5a000000000p-40', '-0x1.ad386cd37183ap-49'),
        ('0x1.c89b1c2748935p+1', '0x1.8838a0c36e7c7p-53'),
        ('-0x1.0858000000000p-40', '0x1.834110cd76a2cp-52'),
        ('0x1.2469eea6c4be8p+1', '0x1.6b5f96374942ap-54'),
    ],
    ('OUT2', 'norm_K', 1): [
        ('0x1.385f1412f61afp-2', '0x0.0p+0'),
        ('0x1.901704a2adeddp-3', '0x0.0p+0'),
    ],
    ('OUT2', 'gram', 1): [
        ('0x1.8ee9b4ef3b859p+0', '-0x1.6ae9497cbc9c7p-53'),
        ('-0x1.dc8df6fa718d1p+0', '-0x1.aba4acc54f0ebp-56'),
        ('-0x1.417a30469b329p-3', '-0x1.edda09fce192ep-51'),
        ('-0x1.dc8df6fa718d1p+0', '0x1.aba4acc54f0ebp-56'),
        ('0x1.4edc9aad7f842p+1', '-0x1.2a5a65412d9dbp-53'),
        ('-0x1.29c7f0fdfe13dp-1', '0x1.ecfeb9766af34p-51'),
        ('-0x1.417a30469b329p-3', '0x1.edda09fce192ep-51'),
        ('-0x1.29c7f0fdfe13dp-1', '-0x1.ecfeb9766af34p-51'),
        ('0x1.c7cf125e8ae7dp+0', '-0x1.007c5ad22275ap-54'),
    ],
    ('OUT2', 'full_inner', 2): [
        ('0x1.4db83ac080a97p+6', '0x1.cb1da01ed19e4p-48'),
        ('0x1.bb80000000000p-39', '0x1.3f0272a3f5cdbp-49'),
        ('0x1.02f0000000000p-39', '-0x1.c3c47d860b832p-48'),
        ('0x1.a3c0000000000p-39', '-0x1.4ce251cdf6355p-46'),
        ('0x1.ab6edd52826afp+5', '0x1.1c7c98df022bbp-48'),
        ('0x1.6678000000000p-39', '-0x1.eaaf10b6898f8p-47'),
        ('0x1.1b40000000000p-38', '0x1.9a9664f68bd33p-45'),
        ('0x1.04c6eeb28148ap+4', '0x1.6172b22fac92ap-50'),
        ('-0x1.01d0000000000p-40', '-0x1.5eac48c698870p-47'),
        ('0x1.7df452d93758ap+5', '0x1.dbcc19d700353p-49'),
    ],
    ('OUT2', 'norm_K', 2): [
        ('0x1.47e37aac636aap-1', '0x0.0p+0'),
        ('0x1.901704a2adeecp-3', '0x0.0p+0'),
        ('0x1.25005bc016455p-1', '0x0.0p+0'),
    ],
    ('OUT2', 'gram', 2): [
        ('0x1.38f2355f9210dp+0', '-0x1.79e65c5de770ep-53'),
        ('-0x1.32d08814c348ap+1', '-0x1.05ed573587d78p-53'),
        ('0x1.7e4b0fcf78771p+1', '0x1.4e248348c0560p-52'),
        ('-0x1.27b74d2f76a41p-2', '-0x1.5be8ae4d6bdf4p-48'),
        ('-0x1.32d08814c348ap+1', '0x1.05ed573587d78p-53'),
        ('0x1.5ffa9ec859fc4p+2', '-0x1.878ae60ccb1e2p-51'),
        ('-0x1.b3f0742ede686p+2', '-0x1.3890037df1844p-50'),
        ('-0x1.449f35a4df754p+0', '0x1.80562b7a5b252p-47'),
        ('0x1.7e4b0fcf78771p+1', '-0x1.4e248348c0560p-52'),
        ('-0x1.b3f0742ede686p+2', '0x1.3890037df1844p-50'),
        ('0x1.14766113f03f4p+3', '-0x1.207087eca5da8p-50'),
        ('0x1.7c5b56acf488dp+0', '-0x1.dc452b7331311p-47'),
        ('-0x1.27b74d2f76a41p-2', '0x1.5be8ae4d6bdf4p-48'),
        ('-0x1.449f35a4df754p+0', '-0x1.80562b7a5b252p-47'),
        ('0x1.7c5b56acf488dp+0', '0x1.dc452b7331311p-47'),
        ('0x1.3e3cdce2fb984p+2', '-0x1.8e8a24b0491b6p-51'),
    ],
    ('T_L', 'norm_K', 1): [
        ('0x1.e847002b13f4ep+14', '0x0.0p+0'),
        ('0x1.8fbee24ca42d7p+30', '0x0.0p+0'),
    ],
    ('OUT1', 'normalization_check', 3): [
        ('0x1.e4075bdc9808ap+4', '0x0.0p+0'),
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
    keys += [("T_L", "norm_K", 1), ("OUT1", "normalization_check", 3)]
    for key in keys:
        print(f"    {key!r}: [")
        for pair in _values(key):
            print(f"        {pair!r},")
        print("    ],")
