"""Pinned float outputs of the Koornwinder measure.

Each value is the ``float.hex`` of the real and imaginary parts of a
``full_inner``, ``norm_K`` or ``continuous_gram`` value, so any change to
how the weight tables, residue masses or chamber sums are built must keep
every bit.  Both parameter sets have |t_0| > 1: at l = 1 and l = 2 the
terms with every coordinate pinned and the mixed terms both run.  ``OUT2``
has a complex-conjugate pair and two pinned points t_0, t_0 q.  ``T_L`` is
the little q-Jacobi limit set t_L(eps) at eps = 1e-3, and ``L3`` the
measured <1,1>_K of the l = 3 ``normalization_check``.  The pins were last
recorded when the infinite q-products moved to a head product and Euler's
tail (``qseries._euler_split``), which moved each group by at most 1.6e-15
of its largest entry.  Print fresh pins with
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
        ('0x1.99fc012e62d57p+0', '-0x1.7c9783eb91591p-55'),
        ('0x1.7800000000000p-48', '0x1.c3e7ae7705722p-54'),
        ('0x1.4fa0000000000p-43', '-0x1.f7867c8d7f225p-53'),
        ('0x1.b364691cf0680p+0', '-0x1.5b77619bb73e6p-56'),
        ('-0x1.c1d0000000000p-42', '0x1.0f72ae90ecb48p-53'),
        ('0x1.d9e23da276512p+0', '-0x1.6a78d4ac8a0e3p-56'),
    ],
    ('OUT1', 'norm_K', 1): [
        ('0x1.0fdd7136af7f4p+0', '0x0.0p+0'),
        ('0x1.27e64fd6e95c4p+0', '0x0.0p+0'),
    ],
    ('OUT1', 'gram', 1): [
        ('0x1.069a3b870f2f4p+0', '0x1.7c9783eb91591p-55'),
        ('-0x1.28db513831f2fp-1', '0x1.c3e7ae7705722p-54'),
        ('-0x1.c10d569206097p-2', '-0x1.f7867c8d7f225p-53'),
        ('-0x1.28db513831f2fp-1', '-0x1.c3e7ae7705722p-54'),
        ('0x1.1de8f6a08e6edp+0', '0x1.5b77619bb73e6p-56'),
        ('-0x1.c43d8d0eb4b6cp-2', '0x1.0f72ae90ecb48p-53'),
        ('-0x1.c10d569206097p-2', '0x1.f7867c8d7f225p-53'),
        ('-0x1.c43d8d0eb4b6cp-2', '-0x1.0f72ae90ecb48p-53'),
        ('0x1.845f0ec152ec1p+0', '0x1.6a78d4ac8a0e3p-56'),
    ],
    ('OUT1', 'full_inner', 2): [
        ('0x1.5ca402647e8f1p+2', '-0x1.ca05e1e4d5f20p-53'),
        ('0x1.8500000000000p-44', '-0x1.0b01f9753933ep-54'),
        ('0x1.4600000000000p-44', '-0x1.997b9a9e08b78p-51'),
        ('-0x1.98c8000000000p-40', '-0x1.8ffbf29a3d948p-50'),
        ('0x1.7b7678ae7d660p+2', '-0x1.950641493c990p-53'),
        ('-0x1.4700000000000p-43', '0x1.e18531fc51fcdp-53'),
        ('0x1.8c40000000000p-40', '0x1.351e0fa6fe21ap-52'),
        ('0x1.92faa6d73fc64p+2', '-0x1.e37b1b9c90194p-54'),
        ('-0x1.95b3255177fd0p-43', '-0x1.9249eaea886cep-52'),
        ('0x1.8ca4bfc6ebc3cp+2', '-0x1.5625be374deccp-54'),
    ],
    ('OUT1', 'norm_K', 2): [
        ('0x1.16a1cfc14a4b5p+0', '0x0.0p+0'),
        ('0x1.27e64fd6e95c1p+0', '0x0.0p+0'),
        ('0x1.233f616f93b3bp+0', '0x0.0p+0'),
    ],
    ('OUT1', 'gram', 2): [
        ('0x1.9e7366356a4d1p+0', '0x1.827e03f732dcdp-54'),
        ('-0x1.6a21c284c30e4p+0', '0x1.d9f5a4c6a3f2fp-53'),
        ('0x1.7ddce5d89768ep+0', '-0x1.2a6add9d680e6p-51'),
        ('-0x1.dabc3967c0e92p-1', '-0x1.60f2b00ac5d3bp-51'),
        ('-0x1.6a21c284c30e4p+0', '-0x1.d9f5a4c6a3f2fp-53'),
        ('0x1.5d2847f1a6412p+1', '0x1.3caf56cdb1f86p-54'),
        ('-0x1.12c1c91397292p+1', '0x1.bf0c5426e3694p-52'),
        ('-0x1.6710468778adfp-1', '0x1.6d3bf63cf1277p-51'),
        ('0x1.7ddce5d89768ep+0', '0x1.2a6add9d680e6p-51'),
        ('-0x1.12c1c91397292p+1', '-0x1.bf0c5426e3694p-52'),
        ('0x1.7fd0a92afd1e2p+1', '0x1.53791ff13c743p-54'),
        ('-0x1.16305e9020faap-40', '-0x1.46a1a98f34494p-51'),
        ('-0x1.dabc3967c0e92p-1', '0x1.60f2b00ac5d3bp-51'),
        ('-0x1.6710468778adfp-1', '-0x1.6d3bf63cf1277p-51'),
        ('-0x1.16305e9020faap-40', '0x1.46a1a98f34494p-51'),
        ('0x1.c1469615bee31p+1', '0x1.6dc162f4b3d46p-54'),
    ],
    ('OUT2', 'full_inner', 1): [
        ('0x1.76349e97783bfp+3', '-0x1.b87e334c78d8dp-54'),
        ('0x1.d400000000000p-46', '-0x1.4280ab2427229p-50'),
        ('-0x1.bf74000000000p-40', '-0x1.ac988c076ae0bp-49'),
        ('0x1.c89b1c2748935p+1', '0x1.48fef79a8c0aap-55'),
        ('-0x1.07f0000000000p-40', '0x1.577423206ac02p-52'),
        ('0x1.2469eea6c4be8p+1', '0x1.903df9ca7a351p-57'),
    ],
    ('OUT2', 'norm_K', 1): [
        ('0x1.385f1412f61acp-2', '0x0.0p+0'),
        ('0x1.901704a2aded9p-3', '0x0.0p+0'),
    ],
    ('OUT2', 'gram', 1): [
        ('0x1.8ee9b4ef3b85bp+0', '-0x1.a8bf68b5cdd97p-54'),
        ('-0x1.dc8df6fa718cfp+0', '0x1.9df2c4e15a6c6p-55'),
        ('-0x1.417a30469b336p-3', '-0x1.e09268f8bfe99p-51'),
        ('-0x1.dc8df6fa718cfp+0', '-0x1.9df2c4e15a6c6p-55'),
        ('0x1.4edc9aad7f841p+1', '-0x1.bf55fa6ba7094p-55'),
        ('-0x1.29c7f0fdfe134p-1', '0x1.e88021d5c7256p-51'),
        ('-0x1.417a30469b336p-3', '0x1.e09268f8bfe99p-51'),
        ('-0x1.29c7f0fdfe134p-1', '-0x1.e88021d5c7256p-51'),
        ('0x1.c7cf125e8ae7bp+0', '-0x1.c393824ebd5d7p-57'),
    ],
    ('OUT2', 'full_inner', 2): [
        ('0x1.4db83ac080a9bp+6', '-0x1.e3f51585445cap-50'),
        ('0x1.bf40000000000p-39', '0x1.70cd2424faf16p-50'),
        ('0x1.03c0000000000p-39', '-0x1.c7a6799119c54p-48'),
        ('0x1.a480000000000p-39', '-0x1.4fdc601f3e3b6p-46'),
        ('0x1.ab6edd52826b1p+5', '-0x1.70f1375bbe4f7p-51'),
        ('0x1.6790000000000p-39', '-0x1.f297d06d773b0p-47'),
        ('0x1.1c20000000000p-38', '0x1.9685273ffbdc9p-45'),
        ('0x1.04c6eeb281489p+4', '0x1.13fd2dccce599p-53'),
        ('-0x1.0130000000000p-40', '-0x1.600f4740ccbd9p-47'),
        ('0x1.7df452d93758cp+5', '-0x1.b48194be0c735p-51'),
    ],
    ('OUT2', 'norm_K', 2): [
        ('0x1.47e37aac636a7p-1', '0x0.0p+0'),
        ('0x1.901704a2adee6p-3', '0x0.0p+0'),
        ('0x1.25005bc016453p-1', '0x0.0p+0'),
    ],
    ('OUT2', 'gram', 2): [
        ('0x1.38f2355f9210cp+0', '-0x1.632c94f2733a1p-54'),
        ('-0x1.32d08814c3487p+1', '0x1.a0c12907a3a52p-55'),
        ('0x1.7e4b0fcf78770p+1', '0x1.b05985466dc12p-54'),
        ('-0x1.27b74d2f76a46p-2', '-0x1.5995f65ed6fc5p-48'),
        ('-0x1.32d08814c3487p+1', '-0x1.a0c12907a3a52p-55'),
        ('0x1.5ffa9ec859fc3p+2', '-0x1.77dfa30379607p-52'),
        ('-0x1.b3f0742ede681p+2', '-0x1.7a468b147c386p-51'),
        ('-0x1.449f35a4df752p+0', '0x1.830c12740cd76p-47'),
        ('0x1.7e4b0fcf78770p+1', '-0x1.b05985466dc12p-54'),
        ('-0x1.b3f0742ede681p+2', '0x1.7a468b147c386p-51'),
        ('0x1.14766113f03f2p+3', '-0x1.0d8b1baaf9f28p-51'),
        ('0x1.7c5b56acf4887p+0', '-0x1.defd83b80e5a0p-47'),
        ('-0x1.27b74d2f76a46p-2', '0x1.5995f65ed6fc5p-48'),
        ('-0x1.449f35a4df752p+0', '-0x1.830c12740cd76p-47'),
        ('0x1.7c5b56acf4887p+0', '0x1.defd83b80e5a0p-47'),
        ('0x1.3e3cdce2fb980p+2', '-0x1.8ddf146f7196ap-52'),
    ],
    ('T_L', 'norm_K', 1): [
        ('0x1.e847002b13f58p+14', '0x0.0p+0'),
        ('0x1.8fbee24ca42dep+30', '0x0.0p+0'),
    ],
    ('OUT1', 'normalization_check', 3): [
        ('0x1.e4075bdc98082p+4', '0x0.0p+0'),
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
