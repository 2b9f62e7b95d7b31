"""Serialization of trajectories and change records for the durable tier.

The WAL and the snapshot header both need a compact, loss-free encoding of
one :class:`~repro.trajectories.trajectory.UncertainTrajectory` and of one
:class:`~repro.trajectories.mod.ChangeRecord`.  The encoding mirrors the
interchange formats in :mod:`repro.trajectories.io`: samples as plain
``(x, y, t)`` float triples (pickle round-trips Python floats exactly, so
replay is bit-identical), the uncertainty radius, and the pdf as a
``(family, parameter)`` pair.  Only the shipped pdf families (uniform,
truncated Gaussian) are encoded; a custom pdf degrades to a uniform pdf
with the same support radius, exactly like the JSON/CSV exporters.

Everything here is plain data (dicts, tuples, floats) — the frame/byte
layer (length prefixes, checksums, files) lives in
:mod:`repro.persistence.wal` and :mod:`repro.persistence.snapshot`.  A
snapshot's sample columns need no codec: a restored trajectory is an
ordinary :class:`~repro.trajectories.trajectory.UncertainTrajectory` over
the mapped column views
(:meth:`~repro.trajectories.trajectory.UncertainTrajectory.from_columns`).
"""

from __future__ import annotations

import io
import pickle
from typing import BinaryIO, Dict, List, Optional, Tuple

from ..trajectories.mod import ChangeRecord
from ..trajectories.trajectory import UncertainTrajectory
from ..uncertainty.gaussian import TruncatedGaussianPDF
from ..uncertainty.pdf import RadialPDF
from ..uncertainty.uniform import UniformDiskPDF

#: One encoded pdf: ``(family, parameter)`` — the parameter is the
#: Gaussian's sigma, ``None`` for the uniform family.
PdfSpec = Tuple[str, Optional[float]]

#: One encoded trajectory: the payload dict a WAL frame / snapshot header
#: carries for an ``add``/``replace`` mutation.
TrajectoryPayload = Dict[str, object]

#: An appending ``replace``'s WAL payload: ``(base sample count, base end
#: time, tail sample triples, radius, pdf spec)``.
ExtensionPayload = Tuple[int, float, List[Tuple[float, float, float]], float, PdfSpec]


class _PlainDataUnpickler(pickle.Unpickler):
    """Unpickler that refuses every global lookup.

    WAL payloads and snapshot headers are plain data (dicts, tuples,
    lists, strs, numbers, ``None``), which pickle reconstructs without a
    single ``find_class`` call.  Refusing globals outright means a
    tampered data directory can corrupt a restore but never execute code
    through it — CRC32 guards integrity, this guards the deserializer.
    Object ids must therefore be plain data too (they already must be for
    the snapshot header's manifest round-trip).
    """

    def find_class(self, module: str, name: str):  # noqa: ANN201
        raise pickle.UnpicklingError(
            f"refusing to unpickle global {module}.{name}: durable-tier "
            "payloads are plain data (see docs/persistence.md, trust boundary)"
        )


def plain_loads(data: bytes) -> object:
    """``pickle.loads`` restricted to plain-data payloads (no globals)."""
    return _PlainDataUnpickler(io.BytesIO(data)).load()


def plain_load(handle: BinaryIO) -> object:
    """``pickle.load`` restricted to plain-data payloads (no globals)."""
    return _PlainDataUnpickler(handle).load()


def encode_pdf(pdf: RadialPDF) -> PdfSpec:
    """The ``(family, parameter)`` spec of a shipped pdf.

    Custom pdfs degrade to ``("uniform", None)`` with the same support
    radius (the radius is stored alongside, not here), mirroring
    :mod:`repro.trajectories.io`.
    """
    if isinstance(pdf, TruncatedGaussianPDF):
        return ("gaussian", float(pdf.sigma))
    return ("uniform", None)


def decode_pdf(spec: PdfSpec, radius: float) -> RadialPDF:
    """Rebuild a pdf from its spec and the trajectory's uncertainty radius.

    Raises:
        ValueError: on an unknown family name.
    """
    family, parameter = spec
    if family == "gaussian":
        return TruncatedGaussianPDF(radius, parameter)
    if family == "uniform":
        return UniformDiskPDF(radius)
    raise ValueError(
        f"unknown pdf family {family!r} (expected 'uniform' or 'gaussian')"
    )


def encode_trajectory(trajectory: UncertainTrajectory) -> TrajectoryPayload:
    """The plain-data payload of one trajectory (samples, radius, pdf).

    Sample fields are coerced to plain ``float``: a NumPy scalar pickles as
    a global lookup, which the restricted unpickler refuses on restore.
    """
    return {
        "samples": [
            (float(s.x), float(s.y), float(s.t)) for s in trajectory.samples
        ],
        "radius": float(trajectory.radius),
        "pdf": encode_pdf(trajectory.pdf),
    }


def decode_trajectory(
    object_id: object, payload: TrajectoryPayload
) -> UncertainTrajectory:
    """Rebuild one trajectory from :func:`encode_trajectory`'s payload."""
    samples = payload["samples"]
    if not isinstance(samples, list):
        raise ValueError("trajectory payload lacks a sample list")
    radius = float(payload["radius"])  # type: ignore[arg-type]
    pdf_spec = payload["pdf"]
    if not isinstance(pdf_spec, tuple) or len(pdf_spec) != 2:
        raise ValueError("trajectory payload lacks a (family, parameter) pdf")
    return UncertainTrajectory(
        object_id,
        [(float(x), float(y), float(t)) for x, y, t in samples],
        radius,
        decode_pdf((str(pdf_spec[0]), pdf_spec[1]), radius),
    )


def encode_extension(
    base: UncertainTrajectory, trajectory: UncertainTrajectory
) -> ExtensionPayload:
    """The payload of a ``trajectory`` that starts with ``base``'s samples."""
    count = len(base.samples)
    return (
        count,
        float(base.end_time),
        [(float(s.x), float(s.y), float(s.t)) for s in trajectory.samples[count:]],
        float(trajectory.radius),
        encode_pdf(trajectory.pdf),
    )


def decode_extension(payload: object) -> ExtensionPayload:
    """An :func:`encode_extension` payload read back from disk, types checked."""
    count, end_time, tail, radius, (family, parameter) = payload  # type: ignore[misc]
    tail = [(float(x), float(y), float(t)) for x, y, t in tail]
    return (int(count), float(end_time), tail, float(radius), (str(family), parameter))


def extend_trajectory(
    stored: UncertainTrajectory, payload: ExtensionPayload
) -> UncertainTrajectory:
    """Replay an extension payload onto ``stored``: ValueError unless
    ``stored`` is its base (sample count and end time) and the tail is valid."""
    count, end_time, tail, radius, pdf_spec = payload
    if (len(stored.samples), stored.end_time) != (count, end_time):
        raise ValueError(
            f"the extension's base has {count} samples ending at t={end_time}, "
            f"the stored trajectory {len(stored.samples)} ending at t={stored.end_time}"
        )
    return stored.extended(tail, radius, decode_pdf(pdf_spec, radius))


def encode_record(record: ChangeRecord) -> Tuple[int, str, object, Optional[float]]:
    """A change record as the plain tuple the WAL/snapshot layers store."""
    return (record.revision, record.kind, record.object_id, record.divergence_time)


def decode_record(
    encoded: Tuple[int, str, object, Optional[float]]
) -> ChangeRecord:
    """Rebuild a :class:`ChangeRecord` from :func:`encode_record`'s tuple."""
    revision, kind, object_id, divergence_time = encoded
    return ChangeRecord(
        int(revision),
        str(kind),
        object_id,
        None if divergence_time is None else float(divergence_time),
    )
