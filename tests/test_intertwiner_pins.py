"""Pinned exact images of the q-exterior intertwiners.

The intertwiner and theta checks compare only the principal term of an
image, so a wrong sign elsewhere in Psi_hat_r or Theta_hat_r passes them.
These pins hash every term: Psi_hat_r(w^{(x) r}) and Theta_hat_r(u_{r-1}
(x) w), u_{r-1} and u~_{r-1}, for w in (w^sigma, w~^sigma, w^infty), sigma
in {0, 1, 2}, q in ``QS``, and Psi_hat_r and Theta_hat_r of seeded random
rational tensors, for every (n, l, r) with n <= 7.  Each entry is the
sha256 of the ``repr`` of the images' sorted items, so the exact
``Fraction`` values and their types are pinned.  The digests were recorded
from the braiding of the whole tensor power, before Psi_hat_r was built by
folding Theta_hat_r: they are the whole-tensor reference that the fold over
a factor list is checked against, Psi_hat_r(w^{(x) r}) as the fold of
[w] * r and a random tensor's image by linearity.  Print fresh digests with
``PYTHONPATH=src python tests/test_intertwiner_pins.py``, and the float
residuals of ``tests/data/vector_residuals.json`` by adding ``residuals``.
"""

import hashlib
import itertools
import json
import random
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

from bcq.qgrass import (
    QExtVector,
    intertwiner_check,
    psi_hat_r,
    theta_constant_check,
    theta_hat_r,
    u_tilde_vector,
    u_vector,
    w_vectors,
)
from bcq.weights import GrassmannShape

QS = (F(1, 2), F(3, 7), F(2), F(-1, 3), F(1), F(-1))

PINS = {
    (2, 1, 1): "bf3aa3750591e561e42c3d931baf2b76eece21605cf3c3926e8db540ac3df68d",
    (3, 1, 1): "4b9105182a0747353309ca2cb539f3e6dac25f25c1d500553dad334c2f5c167b",
    (4, 1, 1): "8be2290df5c8b77941feb5226f0767862e6d999be5579e6d877dbddb8eaa412c",
    (4, 2, 1): "45da02f96cc5816dfce9cd1a9ee41dc6b9119b0bd2e6fee870552a3628b68949",
    (4, 2, 2): "d58b1985e8faf780d2460fc7ccc6c1d0f6504da99c396952fb3296edfcff1722",
    (5, 1, 1): "7f578922ec0acf98308fb2f3ce2abfab5a351ed7bbf4dff449b699aa98f685a4",
    (5, 2, 1): "4538db0eff920f2cfa0324230eee1658c88434b743fd81c5af39e44acb5be6ce",
    (5, 2, 2): "9cce552082a2551c8b05497d765f8f9e87e64231e9f14cc3522d22813659af56",
    (6, 1, 1): "7cebd8cc66eca682285ef4218573c375e2f41111761e42565adf538aa2524f64",
    (6, 2, 1): "be471a19436c81762d526b561d53efb4a50caf009433e090aee0b09f704d3845",
    (6, 2, 2): "d48b899c6894b84dc0fdd69d130af1bf092921173e026b0a0e25cf3736cdbdd5",
    (6, 3, 1): "0ecb5c19c3552fb20080e23f3a4a7631817fd315862d46573a943f927656f076",
    (6, 3, 2): "2c71c83e83d9639e37e270c458b1755e3b2b4626c9b2ee4bc8c2c667f7c5ffe3",
    (6, 3, 3): "35640163464a0f554f46c52431256c59c2038e911b75962477223fbe927604f4",
    (7, 1, 1): "e438c2a043fc0c9df17b03548e4d25233c1e7c5221017d67b1dd525b8ed494e3",
    (7, 2, 1): "e07c27cae5949b49da984636c9a582088c2bd591707414eecac521396edb427d",
    (7, 2, 2): "2628ea7e3e2c6758b6e1079cbae6cfc4c483be93db5cc065920d8d054b670083",
    (7, 3, 1): "ac59a3589950dab1e5eeaa2fcab91e5f35b2c502d22ca6b42aa4b792467c5eb6",
    (7, 3, 2): "d8ffa13dfb887e84bdc11b5c2b1cf6560b43bb61976d9164337b8115b86e1250",
    (7, 3, 3): "9cb0984d3741ce21642774a023bc446fa47d977a27123981e94ab6d271adae5e",
}


def _cases():
    for n in range(2, 8):
        for l in range(1, n // 2 + 1):
            for r in range(1, l + 1):
                yield n, l, r


def _random_rational(rng):
    return F(rng.randint(-9, 9), rng.randint(1, 9))


def _random_tensor(rng, n, r):
    """A sum of 12 random terms of (V (x) V*)^{(x) r}, interleaved keys."""
    return QExtVector(f"V*V.{r}", {
        tuple(rng.randint(1, n) for _ in range(2 * r)): _random_rational(rng) for _ in range(12)
    })


def _random_wedge(rng, n, r):
    """A sum of 6 random terms of Wedge^r(V) (x) Wedge^r(V*)."""
    subsets = list(itertools.combinations(range(1, n + 1), r))
    return QExtVector(f"Wedge.{r}", {
        (rng.choice(subsets), rng.choice(subsets)): _random_rational(rng) for _ in range(6)
    })


def _psi_by_linearity(t, shape, r, q):
    """Psi_hat_r(t) = sum_K c_K Psi_hat_r(K's basis factors), t = sum_K c_K K."""
    out = QExtVector(f"Wedge.{r}", {})
    for key, c in t.coeffs.items():
        factors = [QExtVector("V*V.1", {key[s : s + 2]: 1}) for s in range(0, 2 * r, 2)]
        out += psi_hat_r(factors, shape, q).scale(c)
    return out


def _images(n, l, r):
    """The exact images pinned for one (n, l, r), as sorted item lists."""
    shape = GrassmannShape(n, l)
    rng = random.Random(1000 * n + 10 * l + r)
    out = []
    for q in QS:
        for sigma in (0, 1, 2):
            for w in w_vectors(shape, sigma, q):
                out.append(psi_hat_r([w] * r, shape, q))
                if r >= 2:
                    for u in (u_vector(shape, r - 1), u_tilde_vector(shape, r - 1, q)):
                        out.append(theta_hat_r(u, w, shape, q))
        out.append(_psi_by_linearity(_random_tensor(rng, n, r), shape, r, q))
        if r >= 2:
            w = QExtVector("V*V.1", _random_tensor(rng, n, 1).coeffs)
            out.append(theta_hat_r(_random_wedge(rng, n, r - 1), w, shape, q))
    return [sorted(v.coeffs.items()) for v in out]


def digest(n, l, r) -> str:
    return hashlib.sha256(repr(_images(n, l, r)).encode()).hexdigest()


@pytest.mark.parametrize("n, l, r", list(_cases()))
def test_intertwiner_images_pinned(n, l, r):
    assert digest(n, l, r) == PINS[n, l, r]


RESIDUALS = Path(__file__).resolve().parent / "data" / "vector_residuals.json"


def float_residuals() -> dict:
    """float.hex of every float intertwiner and theta residual at q = 0.3
    and 1.7, keyed "check n l r sigma tilde q"; the vector-side companion
    of ``FLOAT_RESIDUALS`` in ``test_qgrass.py``."""
    out = {}
    cases = itertools.product(_cases(), (0, 1, 2), (False, True), (0.3, 1.7))
    for (n, l, r), sigma, tilde, q in cases:
        shape = GrassmannShape(n, l)
        checks = [("intertwiner", intertwiner_check)] + [("theta", theta_constant_check)] * (r >= 2)
        for name, check in checks:
            residual = check(shape, r, sigma, q, tilde).residual
            out[f"{name} {n} {l} {r} {sigma} {tilde} {q}"] = float.hex(residual)
    return out


def test_float_vector_residuals_keep_every_bit():
    # recorded before Psi_hat_r became a fold over a factor list; the tilde
    # theta residuals at (6, 3, 3, 2) and (7, 3, 3, sigma), q = 1.7, are
    # pinned although they exceed the absolute 1e-10 of the float verdict
    assert float_residuals() == json.loads(RESIDUALS.read_text())


if __name__ == "__main__":
    if sys.argv[1:] == ["residuals"]:
        print(json.dumps(float_residuals(), indent=1))
        sys.exit()
    print("PINS = {")
    for case in _cases():
        print(f'    {case}: "{digest(*case)}",')
    print("}")
