"""Content hashing of spec files for the inputs named in a report.

The report itself is `certs.CertReport`; `Report` is the same class under
the name this module has always exported.
"""

import hashlib

from .certs import CertReport as Report  # noqa: F401
from .specfile import canonical_text


def content_hash(sd):
    """Identity of a parsed spec: sha256 of `specfile.canonical_text`.

    That text comes from the one spec emitter that `serialize_spec` also
    uses, listing the labels in sorted order instead of their own: each
    entry index is decoded once into its per-leg digits, which give both
    its relabelled position and its key text, and each map's lines are
    sorted by that position.  No relabelled spec or map is built, except
    that the spanning vectors of a subspace are reduced first."""
    return hashlib.sha256(canonical_text(sd).encode("ascii")).hexdigest()
