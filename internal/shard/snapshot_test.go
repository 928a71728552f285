package shard

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"runtime"
	"testing"

	"nodesampling/internal/cms"
	"nodesampling/internal/core"
	"nodesampling/internal/metrics"
	"nodesampling/internal/rng"
)

// restoreFrom rebuilds a pool from p's snapshot with the given config.
func restoreFrom(t *testing.T, p *Pool, cfg Config) *Pool {
	t.Helper()
	blob, err := p.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	q, err := Restore(cfg, blob)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = q.Close() })
	return q
}

// TestSnapshotRestoreRoundTrip is the round-trip property test: after a
// quiescent snapshot, the restored pool answers with identical Γ, identical
// frequency estimates for every id, the same shard map (epoch, count and
// routing) and the same aggregate counters — the daemon-restart guarantee
// at pool level, across several random workloads.
func TestSnapshotRestoreRoundTrip(t *testing.T) {
	for trial := 0; trial < 5; trial++ {
		seed := uint64(trial)*997 + 13
		src := rng.New(seed)
		shards := 1 + int(src.Uint64n(7))
		population := 50 + int(src.Uint64n(400))
		cfg := Config{
			Shards: shards, Buffer: 8, Block: true, Seed: seed,
			Capacity: 30, Sampler: kfSampler(64, 4),
		}
		p, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		batch := make([]uint64, 256)
		rounds := 4 + int(src.Uint64n(20))
		for r := 0; r < rounds; r++ {
			for i := range batch {
				batch[i] = src.Uint64n(uint64(population)) + 1
			}
			if err := p.PushBatch(batch); err != nil {
				t.Fatal(err)
			}
		}
		if err := p.Flush(); err != nil {
			t.Fatal(err)
		}
		// A resize before the snapshot makes the round trip cover a
		// non-zero epoch and retired counters too.
		if trial%2 == 1 {
			if err := p.Resize(shards + 2); err != nil {
				t.Fatal(err)
			}
		}
		q := restoreFrom(t, p, Config{
			Buffer: 8, Block: true, Seed: seed + 1,
			Sampler: kfSampler(64, 4),
		})
		if q.NumShards() != p.NumShards() || q.Epoch() != p.Epoch() {
			t.Fatalf("trial %d: restored shape %d/%d, want %d/%d",
				trial, q.NumShards(), q.Epoch(), p.NumShards(), p.Epoch())
		}
		if !sameIDSet(p.Memory(), q.Memory()) {
			t.Fatalf("trial %d: restored Γ differs", trial)
		}
		for id := uint64(0); id <= uint64(population)+10; id++ {
			if pe, qe := p.Estimate(id), q.Estimate(id); pe != qe {
				t.Fatalf("trial %d: id %d estimate %d restored as %d", trial, id, pe, qe)
			}
			if po, qo := p.ShardOf(id), q.ShardOf(id); po != qo {
				t.Fatalf("trial %d: id %d routed to %d, restored pool routes to %d", trial, id, po, qo)
			}
		}
		ps, qs := p.Stats(), q.Stats()
		if ps.Processed != qs.Processed || ps.Dropped != qs.Dropped {
			t.Fatalf("trial %d: counters (%d,%d) restored as (%d,%d)",
				trial, ps.Processed, ps.Dropped, qs.Processed, qs.Dropped)
		}
		for i := range ps.Shards {
			if ps.Shards[i].MemorySize != qs.Shards[i].MemorySize || ps.Shards[i].Halvings != qs.Shards[i].Halvings {
				t.Fatalf("trial %d shard %d: %+v restored as %+v", trial, i, ps.Shards[i], qs.Shards[i])
			}
		}
		// The restored pool is live: it ingests, samples and resizes.
		if err := q.PushBatch(batch); err != nil {
			t.Fatal(err)
		}
		if err := q.Flush(); err != nil {
			t.Fatal(err)
		}
		if _, ok := q.Sample(); !ok {
			t.Fatalf("trial %d: restored pool cannot sample", trial)
		}
		if err := q.Resize(q.NumShards() + 1); err != nil {
			t.Fatalf("trial %d: resize after restore: %v", trial, err)
		}
		_ = p.Close()
	}
}

// TestSnapshotRestoreWithDecay checks the decay clock survives: halvings
// and the global epoch resume where the snapshot left them.
func TestSnapshotRestoreWithDecay(t *testing.T) {
	cfg := Config{
		Shards: 4, Buffer: 8, Block: true, Seed: 21,
		Capacity: 10, Sampler: kfSampler(16, 4), DecayEvery: 500,
	}
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = p.Close() }()
	src := rng.New(22)
	batch := make([]uint64, 250)
	for r := 0; r < 8; r++ { // 2000 ids = 4 epochs
		for i := range batch {
			batch[i] = src.Uint64n(1 << 40)
		}
		if err := p.PushBatch(batch); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	q := restoreFrom(t, p, Config{
		Buffer: 8, Block: true, Seed: 23,
		Sampler: kfSampler(16, 4), DecayEvery: 500,
	})
	st := q.Stats()
	for i, s := range st.Shards {
		if s.Halvings != 4 {
			t.Fatalf("restored shard %d at %d halvings, want 4", i, s.Halvings)
		}
	}
	// 500 more ids must tick exactly one more epoch (decayTotal restored,
	// not reset).
	for i := range batch {
		batch[i] = src.Uint64n(1 << 40)
	}
	if err := q.PushBatch(batch); err != nil {
		t.Fatal(err)
	}
	if err := q.PushBatch(batch); err != nil {
		t.Fatal(err)
	}
	if err := q.Flush(); err != nil {
		t.Fatal(err)
	}
	for i, s := range q.Stats().Shards {
		if s.Halvings != 5 {
			t.Fatalf("shard %d at %d halvings after 500 more ids, want 5", i, s.Halvings)
		}
	}
}

// TestSnapshotRestoreUniformity: a restored pool must sample uniformly from
// its restored memories, without any new input.
func TestSnapshotRestoreUniformity(t *testing.T) {
	const popSize = 60
	p := newTestPool(t, 4, popSize, 10, 5, true, 16)
	pop := make([]uint64, popSize)
	for i := range pop {
		pop[i] = uint64(i + 1)
	}
	src := rng.New(31)
	batch := make([]uint64, 512)
	for r := 0; r < 120; r++ {
		for i := range batch {
			batch[i] = pop[src.Intn(len(pop))]
		}
		if err := p.PushBatch(batch); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	q := restoreFrom(t, p, Config{Buffer: 16, Block: true, Seed: 77, Sampler: kfSampler(10, 5)})
	byID := metrics.NewHistogram()
	for i := 0; i < 120000; i++ {
		id, ok := q.Sample()
		if !ok {
			t.Fatal("restored pool cannot sample")
		}
		byID.Add(id)
	}
	// df = 59, 99.99th percentile ≈ 104.
	chi, err := byID.ChiSquareUniform(popSize)
	if err != nil {
		t.Fatal(err)
	}
	if chi > 110 {
		t.Fatalf("restored pool not uniform: chi2 = %v", chi)
	}
}

// TestRestoreRejectsBadBlobs: truncations, corruption and configuration
// mismatches must fail loudly, never construct a half-alive pool.
func TestRestoreRejectsBadBlobs(t *testing.T) {
	p := newTestPool(t, 3, 10, 16, 4, true, 8)
	if err := p.PushBatch([]uint64{1, 2, 3, 4, 5}); err != nil {
		t.Fatal(err)
	}
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	blob, err := p.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Buffer: 8, Block: true, Sampler: kfSampler(16, 4)}
	if _, err := Restore(cfg, nil); err == nil {
		t.Error("nil blob should fail")
	}
	if _, err := Restore(cfg, blob[:len(blob)/2]); err == nil {
		t.Error("truncated blob should fail")
	}
	bad := append([]byte(nil), blob...)
	bad[0] ^= 0xff
	if _, err := Restore(cfg, bad); err == nil {
		t.Error("bad magic should fail")
	}
	long := append(append([]byte(nil), blob...), 0xaa)
	if _, err := Restore(cfg, long); err == nil {
		t.Error("trailing bytes should fail")
	}
	// A configured sketch shape that contradicts the snapshot is a
	// deployment error, not something to silently paper over.
	mismatch := Config{Buffer: 8, Block: true, Sampler: kfSampler(99, 2)}
	if _, err := Restore(mismatch, blob); err == nil {
		t.Error("sketch shape mismatch should fail")
	}
	// The configured strategy is required: a blob never picks it.
	if _, err := Restore(Config{Buffer: 8, Block: true}, blob); err == nil {
		t.Error("restore without a configured sampler strategy should fail")
	}
	q, err := Restore(cfg, blob)
	if err != nil {
		t.Fatal(err)
	}
	_ = q.Close()
}

// goldenConfig is the pool behind goldenSnapshot: two shards, c=3, a 4×2
// sketch, seed 3.
func goldenConfig() Config {
	return Config{Shards: 2, Buffer: 4, Block: true, Seed: 3, Capacity: 3, Sampler: kfSampler(4, 2)}
}

// goldenSnapshot is the snapshot of goldenConfig's pool after one batch of
// i mod 9 + 1 for i in [0, 30) and a Flush. The bytes were captured before
// the v1 snapshot reader and the modulo bucket map were deleted; they pin
// that the written format did not move.
const goldenSnapshot = "" +
	"554e5353000000020000000e6b6e6f776c656467652d66726565a3fd1dea5e18" +
	"64ee000000000000000000000000000000000000000000000000000000000000" +
	"0000000000030000000237e00afb3229fd510000000000000000000000000000" +
	"0011000000000000000000000003000000000000000100000000000000030000" +
	"00000000000500000084434d534b000000020000000100000000000000020000" +
	"000000000004000000000000001105758f638538758a154c5d85e8d6dc161e3d" +
	"a944cad1bf2d1050f03456e05ca5000000000000000d00000000000000040000" +
	"0000000000000000000000000000000000000000000300000000000000070000" +
	"00000000000000000000000000076cb24c8fb224980a00000000000000000000" +
	"00000000000d0000000000000000000000030000000000000002000000000000" +
	"0004000000000000000600000084434d534b0000000200000001000000000000" +
	"00020000000000000004000000000000000d05758f638538758a154c5d85e8d6" +
	"dc161e3da944cad1bf2d1050f03456e05ca50000000000000004000000000000" +
	"0003000000000000000000000000000000060000000000000000000000000000" +
	"000600000000000000000000000000000007"

// TestSnapshotGoldenBytes: a fixed-seed pool snapshots to exactly the
// golden bytes, and restoring those bytes snapshots back to them unchanged.
func TestSnapshotGoldenBytes(t *testing.T) {
	p, err := New(goldenConfig())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = p.Close() })
	ids := make([]uint64, 30)
	for i := range ids {
		ids[i] = uint64(i%9) + 1
	}
	if err := p.PushBatch(ids); err != nil {
		t.Fatal(err)
	}
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	blob, err := p.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if got := hex.EncodeToString(blob); got != goldenSnapshot {
		t.Fatalf("snapshot bytes moved:\n got %s\nwant %s", got, goldenSnapshot)
	}
	q := restoreFrom(t, p, goldenConfig())
	again, err := q.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, blob) {
		t.Fatal("restored golden snapshot re-snapshots to different bytes")
	}
}

// emptyShardsSnapshot hand-builds a well-formed knowledge-free snapshot
// that declares the largest capacity Restore accepts but carries nothing:
// every shard has an empty Γ and a 1×1 sketch.
func emptyShardsSnapshot(t *testing.T, shards int) []byte {
	t.Helper()
	sk, err := cms.NewWithDimensions(1, 1, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	state, err := sk.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	blob := binary.BigEndian.AppendUint32([]byte(snapshotMagic), snapshotVersion)
	blob = binary.BigEndian.AppendUint32(blob, uint32(len(core.DefaultStrategy)))
	blob = append(blob, core.DefaultStrategy...)
	blob = append(blob, make([]byte, 5*8)...) // salt, epoch, decay, retired counters
	blob = binary.BigEndian.AppendUint32(blob, 1<<20)
	blob = binary.BigEndian.AppendUint32(blob, uint32(shards))
	for i := 0; i < shards; i++ {
		blob = binary.BigEndian.AppendUint64(blob, uint64(i+1)) // shard key
		blob = append(blob, make([]byte, 3*8+4)...)             // counters, empty Γ
		blob = binary.BigEndian.AppendUint32(blob, uint32(len(state)))
		blob = append(blob, state...)
	}
	return blob
}

// TestRestoreAllocationFollowsContent: a snapshot declaring capacity 2^20
// over 16 empty shards is under 2 KiB, and restoring it must allocate on
// the order of its content, not 16 memories pre-sized to the declared
// capacity (about 88 MiB each).
func TestRestoreAllocationFollowsContent(t *testing.T) {
	blob := emptyShardsSnapshot(t, 16)
	cfg := Config{Buffer: 4, Block: true, Sampler: kfSampler(1, 1)}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	p, err := Restore(cfg, blob)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = p.Close() })
	if p.NumShards() != 16 || len(p.Memory()) != 0 {
		t.Fatalf("restored %d shards holding %d ids, want 16 empty shards", p.NumShards(), len(p.Memory()))
	}
	const limit = 4 << 20
	if got := after.TotalAlloc - before.TotalAlloc; got > limit {
		t.Fatalf("restoring a %d-byte snapshot allocated %d bytes, want at most %d", len(blob), got, limit)
	}
}

// FuzzRestoreSnapshot feeds arbitrary bytes to Restore: it must never
// panic, and whatever it accepts must be a live pool that closes cleanly.
func FuzzRestoreSnapshot(f *testing.F) {
	golden, err := hex.DecodeString(goldenSnapshot)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(golden)
	f.Add(golden[:len(golden)/2])
	f.Add([]byte(snapshotMagic))
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := Restore(goldenConfig(), data)
		if err != nil {
			return
		}
		if err := p.Close(); err != nil {
			t.Fatal(err)
		}
	})
}
