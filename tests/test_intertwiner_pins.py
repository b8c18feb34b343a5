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
``PYTHONPATH=src python tests/test_intertwiner_pins.py``.

The ``Fraction`` term-by-term Theta_hat_r that Theta_hat_r replaced with
its integer-scaled terms is kept here as ``_theta_reference``.  On float
inputs both maps run at the inputs' binary values and round once, so their
images are the references at those values, rounded once; the checks that
build their own vectors from a float q read a residual of exactly 0.0.
"""

import hashlib
import itertools
import random
from fractions import Fraction as F

import pytest

from bcq.qgrass import (
    QExtVector,
    _orbit_weights,
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


def _sgn(i_set, j_set, q):
    """sgn(I;J): 0 on overlap, else (-q)^{#{(i, j) in I x J : i > j}}."""
    if set(i_set) & set(j_set):
        return 0
    return (-q) ** sum(i > j for i in i_set for j in j_set)


def _phi_reference(i_set, j, q):
    """The braiding v*_I (x) v_j -> V (x) Wedge^{r-1}(V*), each sign one power of -q."""
    i_set = tuple(sorted(i_set))
    if j not in i_set:
        return [((j, i_set), 1)]
    qi = F(1) / q if isinstance(q, (int, F)) else 1 / q
    rest = tuple(x for x in i_set if x != j)
    out = [((j, i_set), qi)]
    denom = _sgn(rest, (j,), q)
    for m in range(1, j):
        num = _sgn(rest, (m,), q)
        if num != 0:
            out.append(((m, tuple(sorted(rest + (m,)))), -(q - qi) * num / denom))
    return out


def _theta_reference(u, w, shape, q, weights=None):
    """Theta_hat_r with each term c d e s_v s_d a product of scalars, summed
    per key in the order the terms are met."""
    some_key = next(iter(u.coeffs), None)
    if some_key is None:
        return QExtVector("Wedge.?", {})
    out = {}
    for (i_set, j_set), c in u.coeffs.items():
        for (s, t), d in w.coeffs.items():
            weight = [0] * shape.n
            for i in i_set + (s,):
                weight[i - 1] += 1
            for j in j_set + (t,):
                weight[j - 1] -= 1
            if weights is not None and tuple(weight) not in weights:
                continue
            for (m, k_set), e in _phi_reference(j_set, s, q):
                sv, sd = _sgn(i_set, (m,), q), _sgn((t,), k_set, q)
                if sv != 0 and sd != 0:
                    key = (tuple(sorted(i_set + (m,))), tuple(sorted((t,) + k_set)))
                    out[key] = out.get(key, 0) + c * d * e * sv * sd
    return QExtVector(f"Wedge.{len(some_key[0]) + 1}", {k: v for k, v in out.items() if v != 0})


def _psi_reference(ws, shape, q, weights=None):
    """Psi_hat_r as the fold of ``_theta_reference`` over the factors ws."""
    one = (-q) ** 0
    image = QExtVector("Wedge.1", {((i,), (j,)): c * one for (i, j), c in ws[0].coeffs.items() if c != 0})
    for s in range(1, len(ws)):
        image = _theta_reference(image, ws[s], shape, q, weights if s == len(ws) - 1 else None)
    return QExtVector(f"Wedge.{len(ws)}", image.coeffs)


def _random_factor(rng, n, kind=_random_rational):
    """A random element of V (x) V*, 12 terms drawn by ``kind``."""
    return QExtVector("V*V.1", {(rng.randint(1, n), rng.randint(1, n)): kind(rng) for _ in range(12)})


def _same(got, want, q):
    """The same terms in the same order, and the same types at a Fraction
    q; at an int q the reference keeps ints where both factors are, and
    qgrass, exact there too, gives Fractions."""
    if isinstance(q, F):
        return repr(got) == repr(want)
    return got == want and list(got.coeffs) == list(want.coeffs)


@pytest.mark.parametrize("q", QS + (2, -1))
def test_theta_and_psi_match_the_fraction_reference(q):
    for n, l, r in _cases():
        shape = GrassmannShape(n, l)
        rng = random.Random(f"reference {n} {l} {r}")
        for weights in (None, _orbit_weights(shape, r)):
            for kind in (_random_rational, lambda rng: rng.randint(-3, 3)):
                ws = [_random_factor(rng, n, kind) for _ in range(r)]
                assert _same(psi_hat_r(ws, shape, q, weights), _psi_reference(ws, shape, q, weights), q)
                if r >= 2:
                    u, w = _random_wedge(rng, n, r - 1), ws[-1]
                    want = _theta_reference(u, w, shape, q, weights)
                    assert _same(theta_hat_r(u, w, shape, q, weights), want, q), (n, l, r, q)
                    u = u_vector(shape, r - 1)
                    want = _theta_reference(u, w, shape, q, weights)
                    assert _same(theta_hat_r(u, w, shape, q, weights), want, q), (n, l, r, q)


def _float_coefficient(rng):
    return float(_random_rational(rng))


def _exact(v):
    """v at the binary values of its coefficients."""
    return QExtVector(v.space, {k: F(c) for k, c in v.coeffs.items()})


def _rounded(v):
    """v with each coefficient rounded once to a float."""
    return QExtVector(v.space, {k: float(c) for k, c in v.coeffs.items()})


@pytest.mark.parametrize("q", [F(1, 2), F(-3, 5), 0.3])
def test_float_coefficients_at_an_exact_q_keep_every_bit(q):
    # on float coefficients, or float and exact ones mixed, or at a float q,
    # both maps give the references at the binary values, rounded once
    x = F(q)
    for n, l, r in _cases():
        shape = GrassmannShape(n, l)
        rng = random.Random(f"float {n} {l} {r}")
        for weights in (None, _orbit_weights(shape, r)):
            ws = [_random_factor(rng, n, _float_coefficient) for _ in range(r)]
            cases = [ws] + [[_random_factor(rng, n)] + ws[1:]] * (r >= 2)
            for factors in cases:
                want = _rounded(_psi_reference(list(map(_exact, factors)), shape, x, weights))
                assert repr(psi_hat_r(factors, shape, q, weights)) == repr(want), (n, l, r)
            if r >= 2:
                u = _random_wedge(rng, n, r - 1)
                float_u = QExtVector(u.space, {k: float(c) for k, c in u.coeffs.items()})
                for u, w in ((float_u, ws[-1]), (float_u, _random_factor(rng, n)), (u, ws[-1])):
                    want = _rounded(_theta_reference(_exact(u), _exact(w), shape, x, weights))
                    assert repr(theta_hat_r(u, w, shape, q, weights)) == repr(want), (n, l, r)


def digest(n, l, r) -> str:
    return hashlib.sha256(repr(_images(n, l, r)).encode()).hexdigest()


@pytest.mark.parametrize("n, l, r", list(_cases()))
def test_intertwiner_images_pinned(n, l, r):
    assert digest(n, l, r) == PINS[n, l, r]


@pytest.mark.parametrize("q", [0.3, 1.7, -0.6])
def test_float_q_vector_checks_read_zero(q):
    # every intertwiner and theta constant is polynomial in q, so it holds
    # exactly at the binary value of a float q
    cases = itertools.product(_cases(), (0, 1, 2), (False, True))
    for (n, l, r), sigma, tilde in cases:
        shape = GrassmannShape(n, l)
        for check in [intertwiner_check] + [theta_constant_check] * (r >= 2):
            report = check(shape, r, sigma, q, tilde)
            assert (report.exact, report.passed, report.residual) == (False, True, 0.0), (
                report.identity, n, l, r, sigma, tilde)


@pytest.mark.parametrize("n, l, r, sigma", [(6, 3, 3, 2), (7, 3, 3, 0), (7, 3, 3, 1), (7, 3, 3, 2)])
def test_tilde_theta_at_q_1_7_passes(n, l, r, sigma):
    # the float path read 1.16e-10 to 4.66e-10 here, relative errors near
    # 1e-16 on constants up to 2e7, and failed the absolute 1e-10 verdict
    report = theta_constant_check(GrassmannShape(n, l), r, sigma, 1.7, tilde=True)
    assert report.exact is False and report.residual == 0.0 and report.passed


if __name__ == "__main__":
    print("PINS = {")
    for case in _cases():
        print(f'    {case}: "{digest(*case)}",')
    print("}")
