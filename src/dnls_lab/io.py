"""Field persistence: JSON header plus raw little-endian payload.

A field dump is one file:

    <one-line ASCII JSON header>\n<payload>

The payload holds the spectral coefficients in ascending-frequency order
as interleaved little-endian float64 (re, im) pairs, 16 bytes per mode.
The header records the domain, the capture time (when any), the dtype tag
and a CRC32 of the payload; the reader checks the header's fields and
verifies length and checksum, and raises FieldDumpError on any defect.
"""

from __future__ import annotations

import json
import zlib
from pathlib import Path

import numpy as np

from .errors import DnlsLabError
from .fields import Domain, SpectralField

FORMAT_TAG = "dnls-lab-field/1"


class FieldDumpError(DnlsLabError):
    pass


def _ascending_order(domain: Domain) -> np.ndarray:
    return np.argsort(domain.xi, kind="stable")


def write_field(path, f: SpectralField, time: float | None) -> None:
    order = _ascending_order(f.domain)
    flat = np.empty(2 * f.domain.n_points, dtype="<f8")
    flat[0::2] = np.real(f.coeffs[order])
    flat[1::2] = np.imag(f.coeffs[order])
    payload = flat.tobytes()
    header = {
        "format": FORMAT_TAG,
        "kind": f.domain.kind,
        "n_points": f.domain.n_points,
        "domain_scale": f.domain.domain_scale,
        "period": f.domain.period,
        "time": time,
        "dtype": "c128-le",
        "layout": "xi-ascending",
        "payload_bytes": len(payload),
        "crc32": zlib.crc32(payload) & 0xFFFFFFFF,
    }
    with open(path, "wb") as fh:
        fh.write(json.dumps(header, sort_keys=True).encode("ascii"))
        fh.write(b"\n")
        fh.write(payload)


def read_field(path) -> tuple[SpectralField, dict]:
    raw = Path(path).read_bytes()
    nl = raw.find(b"\n")
    if nl < 0:
        raise FieldDumpError("missing header line")
    try:
        header = json.loads(raw[:nl].decode("ascii"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise FieldDumpError(f"bad header: {e}") from e
    if not isinstance(header, dict):
        raise FieldDumpError("bad header: not a JSON object")
    if header.get("format") != FORMAT_TAG:
        raise FieldDumpError(f"unknown format {header.get('format')!r}")
    try:
        domain = Domain(header["kind"], header["n_points"], header["domain_scale"])
    except (KeyError, TypeError, ValueError) as e:
        raise FieldDumpError(f"bad header: {type(e).__name__}: {e}") from e
    n = domain.n_points
    payload = raw[nl + 1:]
    if len(payload) != 16 * n or len(payload) != header.get("payload_bytes"):
        raise FieldDumpError(
            f"payload length {len(payload)} does not match 16 * {n}")
    if (zlib.crc32(payload) & 0xFFFFFFFF) != header.get("crc32"):
        raise FieldDumpError("payload checksum mismatch")
    flat = np.frombuffer(payload, dtype="<f8")
    coeffs_asc = flat[0::2] + 1j * flat[1::2]
    order = _ascending_order(domain)
    coeffs = np.empty(n, dtype=np.complex128)
    coeffs[order] = coeffs_asc
    return SpectralField(domain, coeffs), header
