"""SHA-256 from the interpreter's built-in module, so no run loads OpenSSL.

``import hashlib`` maps OpenSSL's libcrypto (~3.4 MiB of a cold run's peak) for
the same digest.  CPython's own ``random`` takes its sha512 this way.
"""

try:
    from _sha2 import sha256  # CPython 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # CPython 3.10-3.11
    except ImportError:  # an interpreter built without it
        from hashlib import sha256
