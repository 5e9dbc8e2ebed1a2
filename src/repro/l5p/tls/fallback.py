"""Software fallback for partially-offloaded TLS records (§5.2).

AES-GCM authenticates the *ciphertext*, so when the NIC decrypted only
some packets of a record, software must re-encrypt those plaintext runs
to recompute the tag — "handling partial decryption is costlier than
full decryption".  This module performs the recovery (bit-exact) and
reports how many bytes had to be re-encrypted so the CPU model can
charge the extra cost.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.crypto.gcm import AuthenticationError
from repro.crypto.suite import CipherSuite
from repro.l5p.base import Run


@dataclass
class RecoveredRecord:
    plaintext: bytes
    ok: bool
    reencrypted_bytes: int  # plaintext runs that had to be re-encrypted
    decrypted_bytes: int  # ciphertext runs software had to decrypt


def recover_partial_record(
    suite: CipherSuite,
    key: bytes,
    nonce: bytes,
    aad: bytes,
    body_runs: list[Run],
    wire_tag: bytes,
) -> RecoveredRecord:
    """Authenticate and decrypt a record whose body arrived as a mix of
    NIC-decrypted (plaintext) and untouched (ciphertext) runs.

    The authenticator sees the full ciphertext: plaintext runs are
    re-encrypted, ciphertext runs are absorbed as-is, and the tag is then
    checked.  Each ciphertext run is decrypted by seeking a throwaway
    keystream to its offset; the record is copied once, when its
    plaintext pieces are joined.
    """
    enc = suite.encryptor(key, nonce, aad=aad)
    reencrypted = decrypted = 0
    plain = []
    offset = 0
    for run in body_runs:
        if run.meta.decrypted:
            enc.update(run.data)  # re-encrypt to recover the ciphertext
            reencrypted += len(run.data)
            plain.append(run.data)
        else:
            enc.absorb_ciphertext(run.data)
            dec = suite.decryptor(key, nonce, aad=aad)
            if offset:
                dec.skip(offset)
            plain.append(dec.update(run.data))
            decrypted += len(run.data)
        offset += len(run.data)
    return RecoveredRecord(
        plaintext=b"".join(plain),
        ok=enc.finalize() == wire_tag,
        reencrypted_bytes=reencrypted,
        decrypted_bytes=decrypted,
    )


def decrypt_whole_record(
    suite: CipherSuite,
    key: bytes,
    nonce: bytes,
    aad: bytes,
    ciphertext: bytes,
    wire_tag: bytes,
) -> tuple[bytes, bool]:
    """Plain software decryption of an entirely un-offloaded record."""
    try:
        return suite.open(key, nonce, ciphertext, wire_tag, aad=aad), True
    except AuthenticationError:
        dec = suite.decryptor(key, nonce, aad=aad)
        return dec.update(ciphertext), False
