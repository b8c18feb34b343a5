"""Pinned float outputs of the big and little q-Jacobi Jackson sums.

Each value is a ``float.hex``: the measured <1,1> of
``qjacobi.normalization_check``, a norm from ``norm_little`` or
``norm_big``, or a Gram-Schmidt coefficient of ``little_jacobi_poly`` or
``big_jacobi_poly`` (the coefficient of each dominant exponent, in exponent
order).  Any change to how the nodes, masses, pair coupling factors or
chamber sums are built must keep every bit.  The sets run at l = 2, 3 and
k = 1, 2; at l = 3 the big grid has 50 nodes per coordinate.  Print fresh
pins with ``PYTHONPATH=src python tests/test_jackson_pins.py``.
"""

import pytest

from bcq.qjacobi import (
    BigJacobiParams,
    LittleJacobiParams,
    big_jacobi_poly,
    little_jacobi_poly,
    norm_big,
    norm_little,
    normalization_check,
)

LAMS = {2: [(1, 0), (1, 1), (2, 0)], 3: [(1, 0, 0), (1, 1, 0), (2, 0, 0)]}


def _params(name, k):
    if name == "little":
        return LittleJacobiParams(0.5, 1 / 3, 0.25, k)
    return BigJacobiParams(0.05, 0.04, 1.0, 4.0, 0.25, k)


def _values(key):
    """The pinned values of one key, recomputed."""
    name, kind, l, k = key
    params = _params(name, k)
    if kind == "normalization_check":
        return [normalization_check(params, l).detail["measured"].hex()]
    if kind == "norm":
        norm = norm_little if name == "little" else norm_big
        return [norm(lam, params).hex() for lam in LAMS[l]]
    build = little_jacobi_poly if name == "little" else big_jacobi_poly
    return [
        (exp, float(c).hex())
        for lam in LAMS[l]
        for exp, c in sorted(build(lam, params).terms.items())
        if list(exp) == sorted(exp, reverse=True)
    ]


PINS = {
    ('big', 'norm', 2, 1): [
        '0x1.e38906672ec9fp-1',
        '0x1.754cb35d9396dp+1',
        '0x1.dcdb7805b8bc2p-3',
    ],
    ('big', 'norm', 2, 2): [
        '0x1.98b74fe581353p-3',
        '0x1.85c5ede9302bfp-1',
        '0x1.850b3ffa9c313p-7',
    ],
    ('big', 'norm', 3, 1): [
        '0x1.f8edce423d11bp-3',
        '0x1.dcdb7805b8bb7p-3',
        '0x1.f7303870ac2d2p-7',
    ],
    ('big', 'norm', 3, 2): [
        '0x1.998b77d309a13p-7',
        '0x1.93da693bdd8b5p-9',
        '0x1.86078ee850942p-15',
    ],
    ('big', 'normalization_check', 2, 1): [
        '0x1.49ba9702afbb6p+8',
    ],
    ('big', 'normalization_check', 2, 2): [
        '0x1.98c1d48a430ffp+12',
    ],
    ('big', 'normalization_check', 3, 1): [
        '0x1.495af2cc98c14p+14',
    ],
    ('big', 'normalization_check', 3, 2): [
        '0x1.0b4095d6166a4p+21',
    ],
    ('big', 'poly', 2, 1): [
        ((0, 0), '0x1.de675b57bc143p+1'),
        ((1, 0), '0x1.0000000000000p+0'),
        ((0, 0), '0x1.7b4293279a914p+3'),
        ((1, 0), '0x1.7aed67da5cff7p+1'),
        ((1, 1), '0x1.0000000000000p+0'),
        ((0, 0), '-0x1.fe4bcaaf22ea0p-1'),
        ((1, 0), '0x1.f7948afe9c0c3p+1'),
        ((1, 1), '0x1.0000000000066p+0'),
        ((2, 0), '0x1.0000000000000p+0'),
    ],
    ('big', 'poly', 2, 2): [
        ((0, 0), '0x1.97a902ce1cc29p+1'),
        ((1, 0), '0x1.0000000000000p+0'),
        ((0, 0), '0x1.93f63bda718b4p+3'),
        ((1, 0), '0x1.7aed67da5cf33p+1'),
        ((1, 1), '0x1.0000000000000p+0'),
        ((0, 0), '-0x1.9f5d7dadc8800p-1'),
        ((1, 0), '0x1.e70a9822d0340p+1'),
        ((1, 1), '0x1.30c30c30c31c8p+0'),
        ((2, 0), '0x1.0000000000000p+0'),
    ],
    ('big', 'poly', 3, 1): [
        ((0, 0, 0), '0x1.f7948afe9bff7p+1'),
        ((1, 0, 0), '0x1.0000000000000p+0'),
        ((0, 0, 0), '0x1.f66e12a7cd410p+3'),
        ((1, 0, 0), '0x1.de675b57bbcf6p+1'),
        ((1, 1, 0), '0x1.0000000000000p+0'),
        ((0, 0, 0), '-0x1.0c962a9adda90p+0'),
        ((1, 0, 0), '0x1.fde4cdd1db69ap+1'),
        ((1, 1, 0), '0x1.fffffffffdcebp-1'),
        ((2, 0, 0), '0x1.0000000000000p+0'),
    ],
    ('big', 'poly', 3, 2): [
        ((0, 0, 0), '0x1.997a8a4a8b172p+1'),
        ((1, 0, 0), '0x1.0000000000000p+0'),
        ((0, 0, 0), '0x1.b2d26e1f60818p+3'),
        ((1, 0, 0), '0x1.97a902ce1e513p+1'),
        ((1, 1, 0), '0x1.0000000000000p+0'),
        ((0, 0, 0), '-0x1.a00e4c5be1d20p-1'),
        ((1, 0, 0), '0x1.e7953b5c25d0bp+1'),
        ((1, 1, 0), '0x1.30c30c315abb3p+0'),
        ((2, 0, 0), '0x1.0000000000000p+0'),
    ],
    ('little', 'norm', 2, 1): [
        '0x1.c46893b31ba66p-8',
        '0x1.16a324bd9ad1dp-11',
        '0x1.b686a00227714p-19',
    ],
    ('little', 'norm', 2, 2): [
        '0x1.8ece2e3d61077p-12',
        '0x1.2edc666b4b506p-15',
        '0x1.7946d42f82993p-27',
    ],
    ('little', 'norm', 3, 1): [
        '0x1.f049eb69e9913p-12',
        '0x1.b686a00227718p-19',
        '0x1.ec6ddfce5422bp-27',
    ],
    ('little', 'norm', 3, 2): [
        '0x1.98e6d0372940ap-20',
        '0x1.897053424eb2fp-31',
        '0x1.8543930ac8db3p-43',
    ],
    ('little', 'normalization_check', 2, 1): [
        '0x1.248fb1df1869dp-4',
    ],
    ('little', 'normalization_check', 2, 2): [
        '0x1.56a497e5c7778p-7',
    ],
    ('little', 'normalization_check', 3, 1): [
        '0x1.4552167ccebcfp-14',
    ],
    ('little', 'normalization_check', 3, 2): [
        '0x1.e86f493b0a7c0p-35',
    ],
    ('little', 'poly', 2, 1): [
        ((0, 0), '-0x1.3633b3488c173p+0'),
        ((1, 0), '0x1.0000000000000p+0'),
        ((0, 0), '0x1.b7b6a87b19425p-1'),
        ((1, 0), '-0x1.c4b73dfa9c1d9p-1'),
        ((1, 1), '0x1.0000000000000p+0'),
        ((0, 0), '0x1.4305d2d46b72cp-2'),
        ((1, 0), '-0x1.4d6379094295cp+0'),
        ((1, 1), '0x1.ffffffffffb87p-1'),
        ((2, 0), '0x1.0000000000000p+0'),
    ],
    ('little', 'poly', 2, 2): [
        ((0, 0), '-0x1.0de2cfb229db1p+0'),
        ((1, 0), '0x1.0000000000000p+0'),
        ((0, 0), '0x1.c178b8f2cd8fdp-1'),
        ((1, 0), '-0x1.c4b73dfa9a6abp-1'),
        ((1, 1), '0x1.0000000000000p+0'),
        ((0, 0), '0x1.115c0a21b2e94p-2'),
        ((1, 0), '-0x1.4420e0b017a79p+0'),
        ((1, 1), '0x1.30c30c30b531fp+0'),
        ((2, 0), '0x1.0000000000000p+0'),
    ],
    ('little', 'poly', 3, 1): [
        ((0, 0, 0), '-0x1.4d63790942c38p+0'),
        ((1, 0, 0), '0x1.0000000000000p+0'),
        ((0, 0, 0), '0x1.433854284771ep+0'),
        ((1, 0, 0), '-0x1.3633b3489146fp+0'),
        ((1, 1, 0), '0x1.0000000000000p+0'),
        ((0, 0, 0), '0x1.61860ba37daeep-2'),
        ((1, 0, 0), '-0x1.53563890979cdp+0'),
        ((1, 1, 0), '0x1.00000001d3099p+0'),
        ((2, 0, 0), '0x1.0000000000000p+0'),
    ],
    ('little', 'poly', 3, 2): [
        ((0, 0, 0), '-0x1.10dde2d7a5077p+0'),
        ((1, 0, 0), '0x1.0000000000000p+0'),
        ((0, 0, 0), '0x1.0ebf235a96db9p+0'),
        ((1, 0, 0), '-0x1.0de2cfafd1b8fp+0'),
        ((1, 1, 0), '0x1.0000000000000p+0'),
        ((0, 0, 0), '0x1.1525850fcb18cp-2'),
        ((1, 0, 0), '-0x1.45050aa738d04p+0'),
        ((1, 1, 0), '0x1.30c302ad37000p+0'),
        ((2, 0, 0), '0x1.0000000000000p+0'),
    ],
}


@pytest.mark.parametrize("key", sorted(PINS))
def test_jackson_values_are_pinned(key):
    assert _values(key) == PINS[key]


if __name__ == "__main__":
    for key in sorted(
        (name, kind, l, k)
        for name in ("little", "big")
        for kind in ("normalization_check", "norm", "poly")
        for l in (2, 3)
        for k in (1, 2)
    ):
        print(f"    {key!r}: [")
        for value in _values(key):
            print(f"        {value!r},")
        print("    ],")
