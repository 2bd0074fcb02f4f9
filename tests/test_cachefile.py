"""The shared cache container: any damage to a cache file is refused."""

import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zetacorr import primes, zeta
from zetacorr.errors import CacheFormatError

_BLOBS = {
    "ZGRD": zeta.cache_bytes(
        zeta.sample_critical_line(30.0, 30.3, 0.05, correction_terms=3)),
    "ZPRM": primes.cache_bytes(primes.sieve_primes(50)),
}
_READERS = {"ZGRD": zeta.cache_read, "ZPRM": primes.read_prime_cache}


@settings(max_examples=100, deadline=None)
@given(kind=st.sampled_from(sorted(_BLOBS)), data=st.data())
def test_any_byte_change_or_truncation_is_refused(kind, data):
    blob = bytearray(_BLOBS[kind])
    at = data.draw(st.integers(0, len(blob) - 1), label="at")
    if data.draw(st.booleans(), label="truncate"):
        del blob[at:]
    else:
        blob[at] ^= data.draw(st.integers(1, 255), label="xor")
    with pytest.raises(CacheFormatError):
        _READERS[kind](io.BytesIO(bytes(blob)))
