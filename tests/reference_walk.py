"""The forward pipeline walk: a reference for the engine's reverse walk.

It carries every port as combinations of all N roster inputs, so it yields
the whole transfer matrix A(w) at every frequency.  The engine reads the
same linear maps (``PipelineStep.gains`` and ``tau``) in reverse order.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np


def run_pipeline(net, omegas: np.ndarray, ports: Sequence[str]) -> dict[str, np.ndarray]:
    """Walk the element pipeline at every sideband frequency in ``omegas``.

    A port's state is an (F, N) array: row f holds the port's operator as a
    combination of the roster inputs at omegas[f].  Roster inputs start as
    unit rows when first read.  Every port feeds at most one consumer, so a
    state is dropped once read unless it is one of ``ports``.  Returns the
    states of ``ports``.
    """
    omegas = np.asarray(omegas, dtype=float)
    shape = (omegas.size, net.n_inputs)
    column = {entry.name: j for j, entry in enumerate(net.roster)}
    wanted = set(ports)
    state: dict[str, np.ndarray] = {}
    out: dict[str, np.ndarray] = {}

    def read(port: str) -> np.ndarray:
        arr = state.pop(port, None)
        if arr is None:
            arr = np.zeros(shape, dtype=complex)
            arr[:, column[port]] = 1.0
        if port in wanted:
            out[port] = arr
        return arr

    for st in net.steps:
        ins = [read(p) for p in st.in_ports]
        gains = st.gains
        if st.tau:
            delay = np.exp(-1j * omegas * st.tau)
            gains = [[(g * delay)[:, None] for g in row] for row in gains]
        for port, row in zip(st.out_ports, gains):
            acc = row[0] * ins[0]
            if len(row) > 1:
                acc += row[1] * ins[1]
            state[port] = acc
    for port in ports:
        if port not in out:
            read(port)
    return out


def forward_reference(net, omegas) -> np.ndarray:
    """A(w) for every w in ``omegas``: an (F, M, N) array."""
    state = run_pipeline(net, omegas, net.detector_ports)
    return np.stack([state[p] for p in net.detector_ports], axis=1)
