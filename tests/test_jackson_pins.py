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
        '0x1.e38906672ec8dp-1',
        '0x1.754cb35d93967p+1',
        '0x1.dcdb7805b8bebp-3',
    ],
    ('big', 'norm', 2, 2): [
        '0x1.98b74fe58137ap-3',
        '0x1.85c5ede9302c2p-1',
        '0x1.850b3ffa9c349p-7',
    ],
    ('big', 'norm', 3, 1): [
        '0x1.f8edce423d15ep-3',
        '0x1.dcdb7805b8bebp-3',
        '0x1.f7303870ac2f2p-7',
    ],
    ('big', 'norm', 3, 2): [
        '0x1.998b77d309a94p-7',
        '0x1.93da693bdd8c5p-9',
        '0x1.86078ee850fc2p-15',
    ],
    ('big', 'normalization_check', 2, 1): [
        '0x1.49ba9702afbc8p+8',
    ],
    ('big', 'normalization_check', 2, 2): [
        '0x1.98c1d48a4310fp+12',
    ],
    ('big', 'normalization_check', 3, 1): [
        '0x1.495af2cc98c26p+14',
    ],
    ('big', 'normalization_check', 3, 2): [
        '0x1.0b4095d6166ccp+21',
    ],
    ('big', 'poly', 2, 1): [
        ((0, 0), '0x1.de675b57bc146p+1'),
        ((1, 0), '0x1.0000000000000p+0'),
        ((0, 0), '0x1.7b4293279a92bp+3'),
        ((1, 0), '0x1.7aed67da5d00fp+1'),
        ((1, 1), '0x1.0000000000000p+0'),
        ((0, 0), '-0x1.fe4bcaaf23aa0p-1'),
        ((1, 0), '0x1.f7948afe9bfffp+1'),
        ((1, 1), '0x1.0000000000000p+0'),
        ((2, 0), '0x1.0000000000000p+0'),
    ],
    ('big', 'poly', 2, 2): [
        ((0, 0), '0x1.97a902ce1cc30p+1'),
        ((1, 0), '0x1.0000000000000p+0'),
        ((0, 0), '0x1.93f63bda71966p+3'),
        ((1, 0), '0x1.7aed67da5d00fp+1'),
        ((1, 1), '0x1.0000000000000p+0'),
        ((0, 0), '-0x1.9f5d7dadca7c5p-1'),
        ((1, 0), '0x1.e70a9822d0143p+1'),
        ((1, 1), '0x1.30c30c30c30c3p+0'),
        ((2, 0), '0x1.0000000000000p+0'),
    ],
    ('big', 'poly', 3, 1): [
        ((0, 0, 0), '0x1.f7948afe9bfffp+1'),
        ((1, 0, 0), '0x1.0000000000000p+0'),
        ((0, 0, 0), '0x1.f66e12a7cd856p+3'),
        ((1, 0, 0), '0x1.de675b57bc146p+1'),
        ((1, 1, 0), '0x1.0000000000000p+0'),
        ((0, 0, 0), '-0x1.0c962a9acb60fp+0'),
        ((1, 0, 0), '0x1.fde4cdd1dd988p+1'),
        ((1, 1, 0), '0x1.0000000000000p+0'),
        ((2, 0, 0), '0x1.0000000000000p+0'),
    ],
    ('big', 'poly', 3, 2): [
        ((0, 0, 0), '0x1.997a8a4a8b16ep+1'),
        ((1, 0, 0), '0x1.0000000000000p+0'),
        ((0, 0, 0), '0x1.b2d26e1f5f431p+3'),
        ((1, 0, 0), '0x1.97a902ce1cc30p+1'),
        ((1, 1, 0), '0x1.0000000000000p+0'),
        ((0, 0, 0), '-0x1.a00e4c6c3bf20p-1'),
        ((1, 0, 0), '0x1.e7953b5b2f47dp+1'),
        ((1, 1, 0), '0x1.30c30c30c30c3p+0'),
        ((2, 0, 0), '0x1.0000000000000p+0'),
    ],
    ('little', 'norm', 2, 1): [
        '0x1.c46893b31ba67p-8',
        '0x1.16a324bd9ad1ep-11',
        '0x1.b686a00227716p-19',
    ],
    ('little', 'norm', 2, 2): [
        '0x1.8ece2e3d61075p-12',
        '0x1.2edc666b4b506p-15',
        '0x1.7946d42f82991p-27',
    ],
    ('little', 'norm', 3, 1): [
        '0x1.f049eb69e9910p-12',
        '0x1.b686a00227716p-19',
        '0x1.ec6ddfce542f1p-27',
    ],
    ('little', 'norm', 3, 2): [
        '0x1.98e6d03729409p-20',
        '0x1.897053424eb1ep-31',
        '0x1.8543930215cebp-43',
    ],
    ('little', 'normalization_check', 2, 1): [
        '0x1.248fb1df1869cp-4',
    ],
    ('little', 'normalization_check', 2, 2): [
        '0x1.56a497e5c7779p-7',
    ],
    ('little', 'normalization_check', 3, 1): [
        '0x1.4552167ccebcap-14',
    ],
    ('little', 'normalization_check', 3, 2): [
        '0x1.e86f493b0a7bfp-35',
    ],
    ('little', 'poly', 2, 1): [
        ((0, 0), '-0x1.3633b3488c176p+0'),
        ((1, 0), '0x1.0000000000000p+0'),
        ((0, 0), '0x1.b7b6a87b197a1p-1'),
        ((1, 0), '-0x1.c4b73dfa9c4b7p-1'),
        ((1, 1), '0x1.0000000000000p+0'),
        ((0, 0), '0x1.4305d2d46c31cp-2'),
        ((1, 0), '-0x1.4d63790942c36p+0'),
        ((1, 1), '0x1.0000000000000p+0'),
        ((2, 0), '0x1.0000000000000p+0'),
    ],
    ('little', 'poly', 2, 2): [
        ((0, 0), '-0x1.0de2cfb229db2p+0'),
        ((1, 0), '0x1.0000000000000p+0'),
        ((0, 0), '0x1.c178b8f2cf8adp-1'),
        ((1, 0), '-0x1.c4b73dfa9c4b7p-1'),
        ((1, 1), '0x1.0000000000000p+0'),
        ((0, 0), '0x1.115c0a21ea121p-2'),
        ((1, 0), '-0x1.4420e0b02572bp+0'),
        ((1, 1), '0x1.30c30c30c30c3p+0'),
        ((2, 0), '0x1.0000000000000p+0'),
    ],
    ('little', 'poly', 3, 1): [
        ((0, 0, 0), '-0x1.4d63790942c36p+0'),
        ((1, 0, 0), '0x1.0000000000000p+0'),
        ((0, 0, 0), '0x1.4338542840b0cp+0'),
        ((1, 0, 0), '-0x1.3633b3488c176p+0'),
        ((1, 1, 0), '0x1.0000000000000p+0'),
        ((0, 0, 0), '0x1.61860b9a37b8cp-2'),
        ((1, 0, 0), '-0x1.5356388e5ec26p+0'),
        ((1, 1, 0), '0x1.0000000000000p+0'),
        ((2, 0, 0), '0x1.0000000000000p+0'),
    ],
    ('little', 'poly', 3, 2): [
        ((0, 0, 0), '-0x1.10dde2d7a5079p+0'),
        ((1, 0, 0), '0x1.0000000000000p+0'),
        ((0, 0, 0), '0x1.0ebf235d16882p+0'),
        ((1, 0, 0), '-0x1.0de2cfb229db2p+0'),
        ((1, 1, 0), '0x1.0000000000000p+0'),
        ((0, 0, 0), '0x1.1525ad5445bb0p-2'),
        ((1, 0, 0), '-0x1.450514b01321fp+0'),
        ((1, 1, 0), '0x1.30c30c30c30c3p+0'),
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
