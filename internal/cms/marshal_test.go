package cms

import (
	"bytes"
	"encoding"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"strings"
	"testing"

	"nodesampling/internal/rng"
)

var (
	_ encoding.BinaryMarshaler   = (*Sketch)(nil)
	_ encoding.BinaryUnmarshaler = (*Sketch)(nil)
)

func TestMarshalRoundTrip(t *testing.T) {
	sk := mustSketch(t, 20, 4, 50)
	r := rng.New(51)
	for i := 0; i < 20000; i++ {
		sk.Add(r.Uint64n(300))
	}
	data, err := sk.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var back Sketch
	if err := back.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	if back.Rows() != sk.Rows() || back.Cols() != sk.Cols() || back.Total() != sk.Total() {
		t.Fatalf("shape/total mismatch: (%d,%d,%d) vs (%d,%d,%d)",
			back.Rows(), back.Cols(), back.Total(), sk.Rows(), sk.Cols(), sk.Total())
	}
	if back.GlobalMin() != sk.GlobalMin() {
		t.Fatalf("GlobalMin %d vs %d", back.GlobalMin(), sk.GlobalMin())
	}
	// Identical estimates, including for never-seen ids (same hash family).
	for id := uint64(0); id < 600; id++ {
		if back.Estimate(id) != sk.Estimate(id) {
			t.Fatalf("estimate mismatch for id %d: %d vs %d", id, back.Estimate(id), sk.Estimate(id))
		}
	}
	// The restored sketch must keep evolving identically.
	sk.Add(42)
	back.Add(42)
	if back.Estimate(42) != sk.Estimate(42) {
		t.Fatal("post-restore evolution diverged")
	}
	if back.GlobalMin() != back.globalMinNaive() {
		t.Fatal("restored GlobalMin tracker inconsistent")
	}
}

func TestUnmarshalRejectsGarbage(t *testing.T) {
	var sk Sketch
	cases := map[string][]byte{
		"empty":     nil,
		"short":     []byte("CMSK"),
		"bad magic": append([]byte("NOPE"), make([]byte, 60)...),
	}
	for name, data := range cases {
		if err := sk.UnmarshalBinary(data); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

func TestUnmarshalRejectsWrongVersionAndLength(t *testing.T) {
	good := mustSketch(t, 4, 2, 52)
	data, err := good.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt the version.
	bad := append([]byte(nil), data...)
	bad[7] = 99
	var sk Sketch
	if err := sk.UnmarshalBinary(bad); err == nil {
		t.Error("wrong version accepted")
	}
	// Corrupt the bucket map word (1 is multiply-shift, the only map).
	bad = append([]byte(nil), data...)
	bad[11] = 0
	if err := sk.UnmarshalBinary(bad); err == nil {
		t.Error("unknown bucket map word accepted")
	}
	// Truncate the counters.
	if err := sk.UnmarshalBinary(data[:len(data)-8]); err == nil {
		t.Error("truncated data accepted")
	}
	// Extend with junk.
	if err := sk.UnmarshalBinary(append(append([]byte(nil), data...), 0)); err == nil {
		t.Error("oversized data accepted")
	}
}

func TestUnmarshalRejectsBadHashParams(t *testing.T) {
	// The first hash parameter a lives right after the 36-byte header; zero
	// is outside [1, p-1].
	data, err := mustSketch(t, 4, 2, 53).MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	for i := headerLen; i < headerLen+8; i++ {
		data[i] = 0
	}
	var sk Sketch
	if err := sk.UnmarshalBinary(data); err == nil {
		t.Error("a=0 hash parameter accepted")
	}
}

// TestUnmarshalRefusesV1Blob: a hand-built version 1 blob — the layout
// written under the retired modulo bucket map, without the bucket map word
// — is refused with ErrSketchV1, whose message names both the version and
// the modulo map.
func TestUnmarshalRefusesV1Blob(t *testing.T) {
	const rows, cols = 2, 4
	blob := []byte(marshalMagic)
	blob = binary.BigEndian.AppendUint32(blob, 1)
	for _, v := range []uint64{rows, cols, 7} {
		blob = binary.BigEndian.AppendUint64(blob, v)
	}
	for i := 0; i < rows*2+rows*cols; i++ {
		blob = binary.BigEndian.AppendUint64(blob, uint64(i+1))
	}
	var sk Sketch
	err := sk.UnmarshalBinary(blob)
	if !errors.Is(err, ErrSketchV1) {
		t.Fatalf("v1 blob: got %v, want ErrSketchV1", err)
	}
	if !strings.Contains(err.Error(), "version 1") || !strings.Contains(err.Error(), "modulo") {
		t.Fatalf("v1 refusal %q does not name version 1 and the modulo map", err)
	}
}

// goldenSketch is the version 2 blob of an 8×3 sketch seeded with 1 after
// adding i mod 11 for i in [0, 40). The bytes were captured before the
// modulo bucket map was deleted; they pin that the written format did not
// move.
const goldenSketch = "" +
	"434d534b00000002000000010000000000000003000000000000000800000000" +
	"00000028167e55eda1f8e21810a76ab2c8e6c99c125f12eac10548a20c85c38f" +
	"784cd474164f491c534466cd049824624dffb4e4000000000000000000000000" +
	"0000000300000000000000070000000000000008000000000000000800000000" +
	"0000000000000000000000080000000000000006000000000000000400000000" +
	"0000000a0000000000000004000000000000000c000000000000000400000000" +
	"0000000300000000000000030000000000000000000000000000000400000000" +
	"000000040000000000000004000000000000000e000000000000000600000000" +
	"0000000400000000000000040000000000000000"

func TestSketchGoldenBytes(t *testing.T) {
	sk := mustSketch(t, 8, 3, 1)
	for i := uint64(0); i < 40; i++ {
		sk.Add(i % 11)
	}
	data, err := sk.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if got := hex.EncodeToString(data); got != goldenSketch {
		t.Fatalf("sketch bytes moved:\n got %s\nwant %s", got, goldenSketch)
	}
}

// FuzzUnmarshalSketch feeds arbitrary bytes to the decoder: it must never
// panic, and any blob it accepts must re-marshal to the same bytes.
func FuzzUnmarshalSketch(f *testing.F) {
	golden, err := hex.DecodeString(goldenSketch)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(golden)
	f.Add([]byte(marshalMagic))
	f.Add(golden[:headerLen])
	f.Fuzz(func(t *testing.T, data []byte) {
		var sk Sketch
		if sk.UnmarshalBinary(data) != nil {
			return
		}
		back, err := sk.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(back, data) {
			t.Fatalf("accepted blob re-marshals differently:\n in %x\nout %x", data, back)
		}
	})
}

func BenchmarkMarshal(b *testing.B) {
	sk := mustSketch(b, 250, 17, 1)
	r := rng.New(2)
	for i := 0; i < 100000; i++ {
		sk.Add(r.Uint64n(10000))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sk.MarshalBinary(); err != nil {
			b.Fatal(err)
		}
	}
}
