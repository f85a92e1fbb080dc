"""Result containers returned by the analyses.

All containers behave like read-only mappings keyed by signal name:

* node across variables are keyed ``v(<node>)`` (the across value, which is a
  velocity for mechanical nodes),
* device outputs use the names produced by each device's ``record`` method
  (``i(V1)``, ``f(spring)``, ``x(mass)``, ``x(transducer)`` ...).

Transient results additionally provide interpolation, final-value and
peak-finding helpers used by the comparison harness of figure 5 and by the
test-suite assertions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping

import numpy as np

from ...errors import AnalysisError

from ..mna import canonical_signal_name

__all__ = ["OperatingPoint", "DCSweepResult", "ACResult", "TransientResult",
           "canonical_signal_name"]


class _SignalMapping(Mapping[str, object]):
    """Shared mapping behaviour (case-sensitive exact keys, helpful errors)."""

    #: :class:`~repro.telemetry.TelemetryReport` of the producing run, set by
    #: the analysis when ``SimulationOptions.telemetry`` is enabled.
    telemetry = None

    def __init__(self, data: dict[str, object]) -> None:
        self._data = dict(data)

    def __getitem__(self, key: str):
        try:
            return self._data[key]
        except KeyError:
            known = ", ".join(sorted(self._data))
            raise KeyError(f"unknown signal {key!r}; available: {known}") from None

    def __iter__(self) -> Iterator[str]:
        return iter(self._data)

    def __len__(self) -> int:
        return len(self._data)

    def signals(self) -> list[str]:
        """All available signal names."""
        return sorted(self._data)

    def read(self, getter):
        """``getter`` applied to the signal dict: one ``itemgetter`` reads
        many signals in one call (a missing name raises ``KeyError``)."""
        return getter(self._data)


class OperatingPoint(_SignalMapping):
    """DC operating-point solution.

    Holds the across value of every node, every device-recorded output and
    the raw unknown vector (``raw``) in system ordering for reuse as the
    linearization point of an AC analysis.
    """

    def __init__(self, data: dict[str, float], raw: np.ndarray,
                 labels: list[str], iterations: int) -> None:
        super().__init__(data)
        self.raw = np.asarray(raw, dtype=float)
        self.labels = list(labels)
        self.iterations = int(iterations)

    def voltage(self, node: str) -> float:
        """Across value of a node (voltage or velocity)."""
        return float(self[f"v({node})"])

    def current(self, device: str) -> float:
        """Recorded branch current / force of a device."""
        return float(self[f"i({device})"])

    def __repr__(self) -> str:
        return f"OperatingPoint({len(self._data)} signals, {self.iterations} iterations)"


class DCSweepResult(_SignalMapping):
    """Result of a DC sweep: one array per signal over the sweep values."""

    def __init__(self, sweep_name: str, sweep_values: np.ndarray,
                 data: dict[str, np.ndarray]) -> None:
        arrays = {key: np.asarray(val, dtype=float) for key, val in data.items()}
        super().__init__(arrays)
        self.sweep_name = sweep_name
        self.sweep_values = np.asarray(sweep_values, dtype=float)

    def column(self, signal: str) -> np.ndarray:
        """The swept values of one signal as a numpy array."""
        return np.asarray(self[signal], dtype=float)

    def __repr__(self) -> str:
        return (f"DCSweepResult({self.sweep_name}: {self.sweep_values.size} points, "
                f"{len(self._data)} signals)")


class ACResult(_SignalMapping):
    """Result of an AC small-signal sweep: complex arrays over frequency."""

    def __init__(self, frequencies: np.ndarray, data: dict[str, np.ndarray]) -> None:
        arrays = {key: np.asarray(val, dtype=complex) for key, val in data.items()}
        super().__init__(arrays)
        self.frequencies = np.asarray(frequencies, dtype=float)

    @property
    def omegas(self) -> np.ndarray:
        """Angular frequencies ``2*pi*f``."""
        return 2.0 * np.pi * self.frequencies

    def magnitude(self, signal: str) -> np.ndarray:
        """Magnitude of a complex signal over frequency."""
        return np.abs(np.asarray(self[signal], dtype=complex))

    def magnitude_db(self, signal: str) -> np.ndarray:
        """Magnitude in decibels (20*log10)."""
        mag = self.magnitude(signal)
        return 20.0 * np.log10(np.maximum(mag, 1e-300))

    def phase_deg(self, signal: str) -> np.ndarray:
        """Phase in degrees."""
        return np.degrees(np.angle(np.asarray(self[signal], dtype=complex)))

    def at(self, signal: str, frequency: float) -> complex:
        """Complex value of ``signal`` at the grid point closest to ``frequency``."""
        idx = int(np.argmin(np.abs(self.frequencies - frequency)))
        return complex(np.asarray(self[signal], dtype=complex)[idx])

    def resonance_frequency(self, signal: str) -> float:
        """Frequency of the magnitude peak of ``signal``.

        Refined to sub-grid resolution by parabolic interpolation through
        the peak sample (shared with the FE harmonic analysis).
        """
        from ...fem.harmonic import interpolate_peak_frequency

        return interpolate_peak_frequency(self.frequencies,
                                          self.magnitude(signal))

    def __repr__(self) -> str:
        return f"ACResult({self.frequencies.size} frequencies, {len(self._data)} signals)"


class TransientResult(_SignalMapping):
    """Result of a transient analysis: sampled waveforms over time."""

    def __init__(self, time: np.ndarray, data: dict[str, np.ndarray],
                 statistics: dict[str, float] | None = None,
                 trajectory: np.ndarray | None = None) -> None:
        arrays = {key: np.asarray(val, dtype=float) for key, val in data.items()}
        super().__init__(arrays)
        self.time = np.asarray(time, dtype=float)
        for key, val in arrays.items():
            if val.shape != self.time.shape:
                raise AnalysisError(
                    f"signal {key!r} has {val.size} samples for {self.time.size} time points")
        #: Solver statistics: accepted/rejected steps, Newton iterations, wall time.
        self.statistics = dict(statistics or {})
        #: Raw unknown-vector trajectory ``(num_points, system_size)`` at the
        #: accepted time points; populated when the analysis was run with
        #: ``record_trajectory=True`` (the discrete-adjoint sensitivity sweep
        #: replays it).  ``None`` otherwise.
        self.trajectory = None if trajectory is None \
            else np.asarray(trajectory, dtype=float)

    # ----------------------------------------------------------------- access
    def signal(self, name: str) -> np.ndarray:
        """Waveform of one signal."""
        return np.asarray(self[name], dtype=float)

    def voltage(self, node: str) -> np.ndarray:
        """Across waveform of a node."""
        return self.signal(f"v({node})")

    def final(self, name: str) -> float:
        """Final value of a signal."""
        return float(self.signal(name)[-1])

    def at(self, name: str, t: float) -> float:
        """Linearly interpolated value of ``name`` at time ``t``."""
        return float(np.interp(t, self.time, self.signal(name)))

    def sample(self, name: str, times: Iterable[float]) -> np.ndarray:
        """Interpolate a signal onto the given time points."""
        return np.interp(np.asarray(list(times), dtype=float), self.time, self.signal(name))

    # ------------------------------------------------------------- descriptors
    def peak(self, name: str, after: float = 0.0) -> tuple[float, float]:
        """(time, value) of the maximum of ``name`` for ``t >= after``."""
        mask = self.time >= after
        values = self.signal(name)[mask]
        times = self.time[mask]
        if values.size == 0:
            raise AnalysisError(f"no samples of {name!r} after t={after}")
        idx = int(np.argmax(values))
        return float(times[idx]), float(values[idx])

    def trough(self, name: str, after: float = 0.0) -> tuple[float, float]:
        """(time, value) of the minimum of ``name`` for ``t >= after``."""
        mask = self.time >= after
        values = self.signal(name)[mask]
        times = self.time[mask]
        if values.size == 0:
            raise AnalysisError(f"no samples of {name!r} after t={after}")
        idx = int(np.argmin(values))
        return float(times[idx]), float(values[idx])

    def settled_value(self, name: str, fraction: float = 0.1) -> float:
        """Mean of the last ``fraction`` of the waveform (quasi-static value)."""
        if not (0.0 < fraction <= 1.0):
            raise AnalysisError("fraction must be in (0, 1]")
        n = max(1, int(self.time.size * fraction))
        return float(np.mean(self.signal(name)[-n:]))

    def overshoot(self, name: str, reference: float, after: float = 0.0) -> float:
        """Relative overshoot of ``name`` beyond ``reference`` (0 when none)."""
        if reference == 0.0:
            raise AnalysisError("overshoot needs a non-zero reference value")
        _, peak_value = self.peak(name, after) if reference > 0 else self.trough(name, after)
        return max(0.0, (peak_value - reference) / abs(reference)) if reference > 0 else \
            max(0.0, (reference - peak_value) / abs(reference))

    def __repr__(self) -> str:
        return f"TransientResult({self.time.size} points, {len(self._data)} signals)"
