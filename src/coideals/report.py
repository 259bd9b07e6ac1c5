"""Content hashing of spec files for the inputs named in a report.

The report itself is `certs.CertReport`; `Report` is the same class under
the name this module has always exported.
"""

import hashlib

from .certs import CertReport as Report  # noqa: F401
from .specfile import canonical_form, serialize_spec


def content_hash(sd):
    """Identity of a parsed spec: sha256 of its canonical serialization."""
    text = serialize_spec(canonical_form(sd))
    return hashlib.sha256(text.encode("ascii")).hexdigest()
