"""The byte formats, below both layers that read and write them.

:mod:`~repro.formats.binwire` (the document kernel of every TCP frame,
WAL header and checkpoint envelope), :mod:`~repro.formats.codec` (the v3
message record and its row blocks, on the wire and on disk) and
:mod:`~repro.formats.errors` (the runtime's errors, and the refusal of
an older format).  The runtime and durability layers import this
package at module top; it imports only the relational engine,
``sources.messages`` and ``simulation.channel``, so no import order can
close a cycle through it.
"""
