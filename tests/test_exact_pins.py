"""Pinned exact outputs of the Koornwinder construction and of D_K.

Each entry is the sha256 of ``repr(sorted(P.terms.items()))``: the exact
``Fraction`` coefficients of every term, independent of the dict order
(which varies with ``PYTHONHASHSEED``).  The digests were recorded from the
``Fraction`` Gauss-Jordan collocation, so any change to how D_K is solved
must reproduce its polynomials exactly.  The k = 2 set (t = q^2) and the set
with ``int`` and negative entries were recorded from the ``Fraction`` phi_j
pair, before the collocation rows were built from integers.  Print fresh
digests with ``PYTHONPATH=src python tests/test_exact_pins.py``.
"""

import hashlib
from fractions import Fraction as F

import pytest

from bcq import (
    GrassmannShape,
    KoornwinderParams,
    dk_apply,
    grassmann_koornwinder_params,
    koornwinder_poly,
)

GENERIC = KoornwinderParams(F(1, 5), F(-1, 7), F(1, 3), F(-2, 7), F(1, 4), 1)
GRASSMANN = grassmann_koornwinder_params(GrassmannShape(5, 2), 0, 1, F(1, 2))
SQUARE_T = KoornwinderParams(F(1, 5), F(-1, 7), F(1, 3), F(-2, 7), F(1, 4), 2)
MIXED = KoornwinderParams(-2, F(-1, 3), 1, F(1, 5), F(2, 5), 1)

GENERIC_PINS = {
    (1,): "aaf270159f2b1b8bb5fe74fcd87eb5994a96151ad6edd44aaf53fe4b10ea5a3b",
    (2,): "b5b7111ce44816b0c7107ec9e50f5f9b77c283aeb5589f165bf4afaac9949ba9",
    (3,): "31bc3a532f4114c0359bf719afa6e2630f6f06ecb3862fa9c9960b24ff6d1c8b",
    (4,): "bf20cc3df0ebcae0b1cf8abb6e82e4bc620d534a5a06cec6d49cb5803ff392c8",
    (1, 0): "29b7e718d90c82c1e0ea682cfc130090eeabb0fd95fb1e7036be0c1d2d6771ec",
    (1, 1): "368d4db6968bed294c7ef6840bcdc27c9fd8fa452dc58f80a34278e311ff940b",
    (2, 0): "af06e35498ad72819b16f5070e75e4a3caa36682d17ab52b52053e0d7b798988",
    (2, 1): "32e471ddb83d0ed198daeb53c8aaf8bde408ae73a0e65ad309d50363c692f9fb",
    (2, 2): "83d5356a2a336ae7e311adab5627b416919c70d0d953c8fde3c55845010cd907",
    (3, 1): "87fc909b3583e75dc9ec18cfd6bfcf733bbdadddf9487a77d28b81d3539e57d6",
    (4, 2): "30d43450afce7448a4d64519a98662da01ff3f3410c4618689d833c7211f44d8",
    (1, 0, 0): "b6a2a532b7201b242f839fd9585d97ab27912a2b250a9794aadb66ccad5762fb",
    (1, 1, 1): "2239d68457f4f1209dc50b9650d327dd57025f6f909625ab89a7597ab49963a5",
    (2, 1, 0): "e33b52efb8848d3f72e55e5f7e0e66e71c5d7f1f5b14d8675d940a39bc7bcde7",
    (2, 1, 1): "cf300df9035613ae8fa21690babc1abb309490cf0559addeb8aa22a04427a13c",
    (3, 2, 1): "ae15f54b246ef928d56c5db6eabe536f3123e6010f7587c7cca279f213c3c78a",
    (1, 1, 1, 0): "1201128d82715f79f9ae68bd04d904ac378e4936e632fbe0f7c16c73e86f020a",
    (2, 1, 1, 0): "377c93d229bfdfba96601e2b9229968b135c60e5fbf9755382628c173d90ea28",
}
GRASSMANN_PINS = {
    (1, 0): "ab2a146abaacd6e8bcf0f836c459cbff685626ef94f8227e97582a4538edd018",
    (1, 1): "2abde348e3c1d5e0ab0fd537032d3a6a1c659e4f91152c2b450ca60b7968466e",
    (2, 0): "a804eb0ce5ed95014b96d0f2c0c69698cd999cd245577769ffd7969c5924c8d4",
    (2, 1): "7424c23088dd315adb058b71a15ff6a754c75e9a6f5d79460ff526f12b122643",
}
SQUARE_T_PINS = {
    (1, 1): "bc5a63e362b4dea5fb0b4f8193b12baea5911a87fb10aa59d582b94268dd0dea",
    (2, 1): "90534b4102156ba7c32f3434b73904e98fb8e2574260c361f5b4694dc3477318",
    (3, 1): "985ec73cef2a1cd8762d19eb2a2df5b82d9a1bfa2e6df277401a4ff07c6c97b8",
    (1, 0, 0): "219008cb75b57072b0e751bed08efa78f74fdb1aca61ad597b99a5921f4eba3d",
    (2, 1, 0): "f30f70dfa3d702466a364282a6d2c2a15805a221b43d9396ab26fbc8a03fe1fd",
    (2, 1, 1): "5f06c5bd1afe8b19ac9889b77d341cb70940bc7ca5aa2be20f02bc290dbfd1e5",
}
MIXED_PINS = {
    (1, 1): "915d32a589f05eaac22d426e6cb078166b7446711608c7c1289d6683c4569e01",
    (2, 1): "5d40f133486ecbd4540dea4aa020d7690754fc8d54f16cb96ad73439c5a112ac",
    (3, 1): "56e694bf128e840c84064fa0b46d7486735d735d77d6a99e23836081674643e5",
    (1, 0, 0): "283a5eca9b1fb677797b24ae3e959a99be1fb431ce1fe573983c949d0e3c62c9",
    (2, 1, 0): "1c1177c44c3cb25f1b0e4850faa2e9821faec78f0aa6ed88b1edbbc7b73ba5f3",
    (2, 1, 1): "d5f8d6f3d6b689c6c32c380c91587baaa4321e64c3dc0120bebb784bec3a7d13",
}
DK_APPLY_PINS = {
    (1, 0): "3d762bc7e5e817d20313aaa55395bbdee7b7f5765170d32c517ba2dd3879ddff",
    (1, 1): "2386c1642dc9cd1892cae588db4b2ddbc0f03ad2e4672114254ac73c33108cfd",
    (2, 0): "c4f3af12fcc14e6fb3f010a272f88fdd9d05c0af728cc670b7ad3f7e025f1e14",
    (2, 1): "3221ae502c14f13a489e0a10ca4260b4b83b1f1aeede4c9b74c5ffa6296f4db4",
    (2, 2): "ac220845b1a64e2f7b8457cf564d301076036687a914050542d9e306027256bb",
}


def digest(poly) -> str:
    return hashlib.sha256(repr(sorted(poly.terms.items())).encode()).hexdigest()


@pytest.mark.parametrize("lam", list(GENERIC_PINS))
def test_generic_koornwinder_pinned(lam):
    assert digest(koornwinder_poly(lam, GENERIC)) == GENERIC_PINS[lam]


@pytest.mark.parametrize("lam", list(GRASSMANN_PINS))
def test_grassmann_koornwinder_pinned(lam):
    assert digest(koornwinder_poly(lam, GRASSMANN)) == GRASSMANN_PINS[lam]


@pytest.mark.parametrize("lam", list(SQUARE_T_PINS))
def test_square_t_koornwinder_pinned(lam):
    assert digest(koornwinder_poly(lam, SQUARE_T)) == SQUARE_T_PINS[lam]


@pytest.mark.parametrize("lam", list(MIXED_PINS))
def test_mixed_koornwinder_pinned(lam):
    assert digest(koornwinder_poly(lam, MIXED)) == MIXED_PINS[lam]


@pytest.mark.parametrize("lam", list(DK_APPLY_PINS))
def test_dk_apply_pinned(lam):
    image = dk_apply(koornwinder_poly(lam, GENERIC), GENERIC)
    assert digest(image) == DK_APPLY_PINS[lam]


if __name__ == "__main__":
    for name, pins, build in (
        ("GENERIC_PINS", GENERIC_PINS, lambda lam: koornwinder_poly(lam, GENERIC)),
        ("GRASSMANN_PINS", GRASSMANN_PINS, lambda lam: koornwinder_poly(lam, GRASSMANN)),
        ("SQUARE_T_PINS", SQUARE_T_PINS, lambda lam: koornwinder_poly(lam, SQUARE_T)),
        ("MIXED_PINS", MIXED_PINS, lambda lam: koornwinder_poly(lam, MIXED)),
        (
            "DK_APPLY_PINS",
            DK_APPLY_PINS,
            lambda lam: dk_apply(koornwinder_poly(lam, GENERIC), GENERIC),
        ),
    ):
        print(f"{name} = {{")
        for lam in pins:
            print(f'    {lam}: "{digest(build(lam))}",')
        print("}")
