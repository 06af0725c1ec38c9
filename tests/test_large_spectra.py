"""Laplacian spectra of large graphs against spectral identities.

Above about n = 40 the spectra are otherwise pinned only by digests
recorded from the code itself. Here they meet facts that need no second
characteristic polynomial:

- a threshold graph's L spectrum is integral, and its integer roots with
  their multiplicities are the conjugate of its degree sequence (Merris,
  "Degree maximal graphs are Laplacian integral", LAA 199, 1994), on
  graphs from a random creation sequence at n = 40, 80 and 120;
- the hypercube Q_d = K2 □ ... □ K2 has the L eigenvalue 2k with
  multiplicity C(d, k), for d <= 6 (n <= 64);
- the characteristic polynomials of L(G) and of L of its complement Ḡ
  satisfy λ·p_G(n − λ) = (−1)^(n−1)·(n − λ)·p_Ḡ(λ) (Merris, LAA 197–198,
  1994), checked as exact polynomials on seeded graphs at n = 20, 40, 60.

The builders are in oracle_helpers.
"""

import random
from collections import Counter
from math import comb

import pytest

from lapspec import char_poly, is_L_integral, laplacian, spectrum

from oracle_helpers import (
    complement,
    compose_affine,
    conjugate_degrees,
    hypercube,
    poly_mul,
    random_graph,
    threshold_graph,
)


@pytest.mark.parametrize("n", [40, 80, 120])
def test_threshold_graph_spectrum_is_its_conjugate_degree_sequence(n):
    g = threshold_graph(random.Random(5), n)
    # decided first by the integer-root split alone, so a polynomial that
    # is wrong fails here, before spectrum isolates its other roots
    assert is_L_integral(g)
    report = spectrum(g, "L")
    assert report.is_integral
    assert dict(report.integer_spectrum) == Counter(conjugate_degrees(g))


@pytest.mark.parametrize("d", range(1, 7))
def test_hypercube_spectrum_is_binomial(d):
    g = hypercube(d)
    assert is_L_integral(g)
    report = spectrum(g, "L")
    assert report.is_integral
    assert dict(report.integer_spectrum) == {2 * k: comb(d, k) for k in range(d + 1)}


@pytest.mark.parametrize("n", [20, 40, 60])
def test_complement_identity_between_the_two_polynomials(n):
    g = random_graph(random.Random(n), n, 0.5)
    p_g = char_poly(laplacian(g))
    p_h = char_poly(laplacian(complement(g)))
    left = [0] + compose_affine(p_g, n, -1)
    right = [(-1) ** (n - 1) * x for x in poly_mul([n, -1], p_h)]
    assert left == right
