"""The ZGRD grid cache: any damage to a cache file is refused."""

import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zetacorr import zeta
from zetacorr.errors import CacheFormatError

_BLOB = zeta.cache_bytes(
    zeta.sample_critical_line(30.0, 30.3, 0.05, correction_terms=3))


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_any_byte_change_or_truncation_is_refused(data):
    blob = bytearray(_BLOB)
    at = data.draw(st.integers(0, len(blob) - 1), label="at")
    if data.draw(st.booleans(), label="truncate"):
        del blob[at:]
    else:
        blob[at] ^= data.draw(st.integers(1, 255), label="xor")
    with pytest.raises(CacheFormatError):
        zeta.cache_read(io.BytesIO(bytes(blob)))
