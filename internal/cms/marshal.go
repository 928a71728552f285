package cms

import (
	"encoding/binary"
	"errors"
	"fmt"

	"nodesampling/internal/hashing"
)

// Binary layout, version 2 (all fields big-endian uint64 unless noted):
//
//	magic "CMSK" | version (uint32) = 2 | bucket map (uint32) = 1
//	rows | cols | total
//	rows × (a, b) hash parameters
//	rows × cols counters
//
// The bucket map word names hashing's multiply-shift map, the only one
// there is; it stays in the header so the bytes match every version 2 blob
// ever written. This is the one version MarshalBinary writes and
// UnmarshalBinary reads. Version 1 blobs (no bucket map word) hashed ids
// under a retired modulo map and are refused with ErrSketchV1; any other
// version or bucket map word is refused too.
const (
	marshalMagic   = "CMSK"
	marshalVersion = 2
	bucketMapWord  = 1
	headerLen      = 4 + 4 + 4 + 8*3
)

// ErrSketchV1 refuses a version 1 sketch blob: it was built under the
// retired modulo bucket map, whose columns this build cannot reproduce.
var ErrSketchV1 = errors.New("cms: version 1 sketch blob uses the retired modulo bucket map and can no longer be read")

// MarshalBinary serialises the sketch — counters and hash-family
// parameters — so a sampler's frequency state survives restarts. It
// implements encoding.BinaryMarshaler.
func (sk *Sketch) MarshalBinary() ([]byte, error) {
	size := headerLen + sk.rows*16 + sk.rows*sk.cols*8
	buf := make([]byte, 0, size)
	buf = append(buf, marshalMagic...)
	buf = binary.BigEndian.AppendUint32(buf, marshalVersion)
	buf = binary.BigEndian.AppendUint32(buf, bucketMapWord)
	buf = binary.BigEndian.AppendUint64(buf, uint64(sk.rows))
	buf = binary.BigEndian.AppendUint64(buf, uint64(sk.cols))
	buf = binary.BigEndian.AppendUint64(buf, sk.total)
	for _, p := range sk.hashes.Params() {
		buf = binary.BigEndian.AppendUint64(buf, p[0])
		buf = binary.BigEndian.AppendUint64(buf, p[1])
	}
	for _, v := range sk.counts {
		buf = binary.BigEndian.AppendUint64(buf, v)
	}
	return buf, nil
}

// UnmarshalBinary reconstructs a sketch serialised by MarshalBinary,
// including its hash family, counters and global-minimum tracking. It
// implements encoding.BinaryUnmarshaler; the receiver's previous state is
// discarded.
func (sk *Sketch) UnmarshalBinary(data []byte) error {
	if len(data) < 8 {
		return errors.New("cms: truncated sketch data")
	}
	if string(data[:4]) != marshalMagic {
		return errors.New("cms: bad magic, not a serialised sketch")
	}
	switch v := binary.BigEndian.Uint32(data[4:8]); v {
	case marshalVersion:
	case 1:
		return ErrSketchV1
	default:
		return fmt.Errorf("cms: unsupported version %d", v)
	}
	if len(data) < headerLen {
		return errors.New("cms: truncated sketch data")
	}
	if m := binary.BigEndian.Uint32(data[8:12]); m != bucketMapWord {
		return fmt.Errorf("cms: unknown bucket map %d in version 2 sketch", m)
	}
	rows := binary.BigEndian.Uint64(data[12:])
	cols := binary.BigEndian.Uint64(data[20:])
	total := binary.BigEndian.Uint64(data[28:])
	if rows == 0 || cols == 0 || rows > 1<<20 || cols > 1<<30 {
		return fmt.Errorf("cms: implausible dimensions %dx%d", rows, cols)
	}
	want := headerLen + int(rows)*16 + int(rows*cols)*8
	if len(data) != want {
		return fmt.Errorf("cms: data length %d, want %d for a %dx%d sketch", len(data), want, rows, cols)
	}
	off := headerLen
	params := make([][2]uint64, rows)
	for i := range params {
		params[i][0] = binary.BigEndian.Uint64(data[off:])
		params[i][1] = binary.BigEndian.Uint64(data[off+8:])
		off += 16
	}
	fam, err := hashing.NewFamilyFromParams(params, int(cols))
	if err != nil {
		return fmt.Errorf("cms: reconstruct hash family: %w", err)
	}
	counts := make([]uint64, rows*cols)
	for i := range counts {
		counts[i] = binary.BigEndian.Uint64(data[off:])
		off += 8
	}
	sk.rows = int(rows)
	sk.cols = int(cols)
	sk.total = total
	sk.hashes = fam
	sk.counts = counts
	sk.scratch = make([]int, int(rows))
	sk.rescanMin()
	return nil
}
