package shard

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
)

// Sealed snapshot envelope, version 1 (all integers big-endian):
//
//	magic "UNSE" | version (uint32) | nonce (12 bytes) | AES-256-GCM ciphertext+tag
//
// The envelope wraps a complete plaintext snapshot blob (magic "UNSS"):
// the ciphertext is that whole blob, the GCM tag authenticates it, and
// the 8-byte header rides along as additional authenticated data so a
// tampered magic or version fails the open, not the inner parser. The
// plaintext blob embeds the pool's secret partition salt — the reason the
// envelope exists — so a snapshot at rest on shared storage reveals
// nothing and cannot be modified undetected. A fresh random nonce per seal
// keeps repeated snapshots of the same pool state unlinkable.
const (
	sealMagic   = "UNSE"
	sealVersion = 1
	// SnapshotKeyLen is the sealing key length: AES-256.
	SnapshotKeyLen = 32
	sealNonceLen   = 12
	sealHeaderLen  = 8 // magic + version
)

// SnapshotSealed reports whether data carries the encrypted snapshot
// envelope (as opposed to a plaintext "UNSS" blob or garbage).
func SnapshotSealed(data []byte) bool {
	return len(data) >= len(sealMagic) && string(data[:len(sealMagic)]) == sealMagic
}

// SealSnapshot encrypts a plaintext snapshot blob under a 32-byte key into
// the versioned "UNSE" envelope. The blob must be a plaintext snapshot
// (sealing an already-sealed blob is refused — it is always a caller bug
// and would make the restore path ambiguous).
func SealSnapshot(blob, key []byte) ([]byte, error) {
	if len(key) != SnapshotKeyLen {
		return nil, fmt.Errorf("shard: snapshot key is %d bytes, need %d (AES-256)", len(key), SnapshotKeyLen)
	}
	if SnapshotSealed(blob) {
		return nil, errors.New("shard: refusing to seal an already-sealed snapshot")
	}
	aead, err := newSnapshotAEAD(key)
	if err != nil {
		return nil, err
	}
	out := make([]byte, 0, sealHeaderLen+sealNonceLen+len(blob)+aead.Overhead())
	out = append(out, sealMagic...)
	out = binary.BigEndian.AppendUint32(out, sealVersion)
	nonce := make([]byte, sealNonceLen)
	if _, err := rand.Read(nonce); err != nil {
		return nil, fmt.Errorf("shard: sealing nonce: %w", err)
	}
	out = append(out, nonce...)
	return aead.Seal(out, nonce, blob, out[:sealHeaderLen]), nil
}

// OpenSealedSnapshot decrypts an "UNSE" envelope back into the plaintext
// snapshot blob. A wrong key, a truncated envelope or any modified byte
// (header included) fails authentication with a clear error — never a
// silently corrupt restore.
func OpenSealedSnapshot(data, key []byte) ([]byte, error) {
	if len(key) != SnapshotKeyLen {
		return nil, fmt.Errorf("shard: snapshot key is %d bytes, need %d (AES-256)", len(key), SnapshotKeyLen)
	}
	if !SnapshotSealed(data) {
		return nil, errors.New("shard: not a sealed snapshot (no UNSE envelope)")
	}
	if len(data) < sealHeaderLen+sealNonceLen {
		return nil, errors.New("shard: truncated sealed snapshot")
	}
	if v := binary.BigEndian.Uint32(data[len(sealMagic):]); v != sealVersion {
		return nil, fmt.Errorf("shard: unsupported sealed snapshot version %d", v)
	}
	aead, err := newSnapshotAEAD(key)
	if err != nil {
		return nil, err
	}
	nonce := data[sealHeaderLen : sealHeaderLen+sealNonceLen]
	blob, err := aead.Open(nil, nonce, data[sealHeaderLen+sealNonceLen:], data[:sealHeaderLen])
	if err != nil {
		return nil, errors.New("shard: sealed snapshot failed authentication (wrong key or corrupted blob)")
	}
	return blob, nil
}

func newSnapshotAEAD(key []byte) (cipher.AEAD, error) {
	block, err := aes.NewCipher(key)
	if err != nil {
		return nil, fmt.Errorf("shard: snapshot cipher: %w", err)
	}
	aead, err := cipher.NewGCM(block)
	if err != nil {
		return nil, fmt.Errorf("shard: snapshot cipher: %w", err)
	}
	return aead, nil
}
