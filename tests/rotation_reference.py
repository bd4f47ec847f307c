"""The composite paired rotation that the one-node ``ad.paired_rotation``
replaced.

The phase pairs are normalised by viewing the (m, n) phases as (m*n/2, 2)
rows for ``l2_normalize_rows``; the complex product gathers the real and
imaginary columns, multiplies them with elementwise nodes and restores
the interleaved column order through a transpose, a row concatenation
and a column gather, eighteen tape nodes in all.  Its output is
F-ordered.  Tests pin the fused primitive to it, values and gradients.
"""

import numpy as np

from structkgc import autodiff as ad

from autodiff_reference import concat_rows, gather_cols, reshape, sub


def l2_normalize_pairs(a, eps=ad.DEFAULT_NORM_EPS):
    """Normalize each (even, odd) column pair of every row to unit modulus."""
    m, n = a.value.shape
    flat = reshape(a, m * n // 2, 2)
    return reshape(ad.l2_normalize_rows(flat, eps), m, n)


def paired_complex_mul(a, b):
    """Complex product of (even=real, odd=imag) column pairs, elementwise."""
    n = a.value.shape[1]
    evens = np.arange(0, n, 2)
    odds = np.arange(1, n, 2)
    a_re, a_im = gather_cols(a, evens), gather_cols(a, odds)
    b_re, b_im = gather_cols(b, evens), gather_cols(b, odds)
    out_re = sub(ad.mul(a_re, b_re), ad.mul(a_im, b_im))
    out_im = ad.add(ad.mul(a_re, b_im), ad.mul(a_im, b_re))
    stacked = concat_rows([ad.transpose(out_re), ad.transpose(out_im)])
    # columns of `stacked`^T are [re..., im...]; restore interleaved order
    perm = np.empty(n, dtype=np.intp)
    perm[evens] = np.arange(n // 2)
    perm[odds] = np.arange(n // 2) + n // 2
    return gather_cols(ad.transpose(stacked), perm)


def paired_rotation(h, phases, eps=ad.DEFAULT_NORM_EPS):
    """Rotate each complex pair of ``h`` by its renormalised phase pair."""
    return paired_complex_mul(h, l2_normalize_pairs(phases, eps))
