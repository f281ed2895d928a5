"""Non-variational comparison method: local Schmidt-value truncation.

:func:`schmidt_truncate` cuts the bonds of a canonical state to their
largest Schmidt values, the standard local approach the variational
optimizer is benchmarked against.  The local truncation of an MPO-MPS
product is the same cut applied to the product written in canonical form
at its full bonds chi*D (Orus and Vidal, PRB 78, 155117 (2008)), which
:func:`vomps.truncation.vomps_truncate` gives exactly when its target is
at least those bonds (it caps every target at the channel's bond)::

    product, _ = vomps_truncate(m, VompsConfig(target_chi=chi * D,
                                               eta=1e-12), mpo=mpo)
    local, discarded = schmidt_truncate(product, new_chi)
"""

from __future__ import annotations

import numpy as np

from .tensor import svd
from .umps import (
    UniformMPS,
    _bond_targets,
    _rotate_bonds,
    _schmidt_frame,
    left_orthonormalize,
)


def schmidt_truncate(state: UniformMPS, new_chi):
    """Cut every bond to `new_chi` by discarding the smallest Schmidt values.

    SVDs each bond matrix, keeps the largest singular values (descending
    order with index tie-break: a cut through a degenerate pair keeps the
    first of it), projects the neighboring gauge tensors with the
    truncated isometries, and re-canonicalizes, starting the right gauge
    iteration from the kept Schmidt values instead of the identity: the
    cut's right fixed point is near their squares, so few sweeps remain,
    and a transfer spectrum degenerate to rounding cannot pull the
    iteration to another fixed point.  Returns ``(state,
    discarded_weight)`` where the weight is the total of dropped squared
    singular values.  A target is an upper bound, capped at the state's
    bond (see :func:`~vomps.umps._bond_targets`), so targets at or above
    the current bond dimensions reduce to the identity operation; a cut
    that leaves some site without isometric tensors raises ValueError.
    """
    L = state.unit_cell
    targets = _bond_targets(new_chi, state.bond_dims[:L], state.phys_dims)

    # us[k]: truncated bond-k isometry from the svd of c[k-1]
    us = [None] * L
    s_kept = [None] * L
    discarded = 0.0
    for n in range(L):
        bond = (n + 1) % L
        u, s, _ = svd(state.c[n])
        k = targets[bond]
        discarded += float(np.sum(s[k:] ** 2))
        us[bond] = u[:, :k]
        s_kept[n] = s[:k]

    if all(len(s_kept[n]) == state.c[n].shape[0] for n in range(L)):
        return state, 0.0

    al = [_rotate_bonds(us[n].conj().T, state.al[n], us[(n + 1) % L])
          for n in range(L)]
    al, gauges = left_orthonormalize(al)
    # al is gauges[k] a inv(gauges[k+1]) up to scale: its right fixed point
    # on bond k is near gauges[k] diag(s)^2 gauges[k]^H, s kept from c[k-1]
    seed = [gauges[k] * s_kept[(k - 1) % L] for k in range(L)]
    return _schmidt_frame(al, seed), discarded
