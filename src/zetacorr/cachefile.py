"""The container behind the `ZGRD` sample-grid and `ZPRM` prime-table
caches.  Version 2 layout, little-endian: 4-byte magic, uint32 version,
the kind's fixed header fields (the last is the array length), the
array, and a uint32 `zlib.crc32` of every byte before it.
"""

import struct
import zlib

import numpy as np

from .errors import CacheFormatError

VERSION = 2
_PREFIX = struct.Struct("<4sI")     # magic, version
_CRC = struct.Struct("<I")


def pack(magic: bytes, header: str, fields, values, dtype) -> bytes:
    """A cache file: `fields` packed with the struct format `header`,
    then `values` as `dtype`, then the checksum."""
    head = _PREFIX.pack(magic, VERSION) + struct.pack(header, *fields)
    data = np.ascontiguousarray(values, dtype=dtype)
    return b"".join((head, data, _CRC.pack(zlib.crc32(data, zlib.crc32(head)))))


def unpack(path, magic: bytes, header: str, dtype_of):
    """(fields, array) from a cache file, given as a filename or a binary
    file object; `dtype_of` maps the fields to the array dtype.  Checks
    the magic, the version, the array length and the checksum, in that
    order."""
    if hasattr(path, "read"):
        blob = path.read()
    else:
        with open(path, "rb") as fh:
            blob = fh.read()
    if len(blob) < _PREFIX.size or blob[:4] != magic:
        raise CacheFormatError(f"{path}: not a {magic.decode()} cache")
    version = _PREFIX.unpack_from(blob)[1]
    if version != VERSION:
        raise CacheFormatError(f"{path}: unsupported version {version}")
    head = _PREFIX.size + struct.calcsize(header)
    if len(blob) < head + _CRC.size:
        raise CacheFormatError(f"{path}: truncated header")
    fields = struct.unpack_from(header, blob, _PREFIX.size)
    dtype = np.dtype(dtype_of(fields))
    length = len(blob) - head - _CRC.size
    if length != dtype.itemsize * fields[-1]:
        raise CacheFormatError(
            f"{path}: payload length {length} != {dtype.itemsize} * {fields[-1]}")
    (crc,) = _CRC.unpack_from(blob, head + length)
    if zlib.crc32(memoryview(blob)[:-_CRC.size]) != crc:
        raise CacheFormatError(f"{path}: checksum mismatch")
    # copied, so the file's bytes are freed now: held by a view, they kept
    # heap pages resident that worker processes forked later inherit
    values = np.frombuffer(blob, dtype=dtype, count=fields[-1], offset=head)
    return fields, values.copy()
