"""The codec's old module name: ``bench/trace.py`` imports ``WireCodec``
from here, which is this module's only reason to exist.  The codec is
:mod:`repro.formats.codec`."""

from repro.formats.codec import CODEC_VERSION, WireCodec

__all__ = ["CODEC_VERSION", "WireCodec"]
