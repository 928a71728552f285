package core

import (
	"encoding/binary"
	"fmt"
	"slices"
	"testing"

	"nodesampling/internal/hashing"
	"nodesampling/internal/rng"
)

// refSketch is the per-row reference Count-Min sketch the ingest kernel is
// pinned against: Family.Hash per row, one counter update per row, and the
// global minimum tracked by a per-row multiplicity count with a one-pass
// rescan — the sketch half of Algorithm 3 exactly as written, sharing no
// code with internal/cms.
type refSketch struct {
	fam        *hashing.Family
	rows, cols int
	counts     []uint64
	total      uint64
	gMin       uint64
	gMinCnt    int
}

// newRefSketch draws the same hash family cms.NewWithDimensions(k, s, r)
// draws, consuming r identically.
func newRefSketch(t *testing.T, k, s int, r *rng.Xoshiro) *refSketch {
	t.Helper()
	fam, err := hashing.NewFamily(s, k, r)
	if err != nil {
		t.Fatal(err)
	}
	return &refSketch{fam: fam, rows: s, cols: k, counts: make([]uint64, s*k), gMinCnt: s * k}
}

func (sk *refSketch) add(id uint64) uint64 {
	sk.total++
	est := ^uint64(0)
	for row := 0; row < sk.rows; row++ {
		idx := row*sk.cols + sk.fam.Hash(row, id)
		if sk.counts[idx] == sk.gMin {
			sk.gMinCnt--
		}
		sk.counts[idx]++
		est = min(est, sk.counts[idx])
	}
	if sk.gMinCnt == 0 {
		sk.rescan()
	}
	return est
}

func (sk *refSketch) addConservative(id uint64) uint64 {
	sk.total++
	target := sk.estimate(id) + 1
	for row := 0; row < sk.rows; row++ {
		idx := row*sk.cols + sk.fam.Hash(row, id)
		if v := sk.counts[idx]; v < target {
			if v == sk.gMin {
				sk.gMinCnt--
			}
			sk.counts[idx] = target
		}
	}
	if sk.gMinCnt == 0 {
		sk.rescan()
	}
	return target
}

func (sk *refSketch) estimate(id uint64) uint64 {
	est := ^uint64(0)
	for row := 0; row < sk.rows; row++ {
		est = min(est, sk.counts[row*sk.cols+sk.fam.Hash(row, id)])
	}
	return est
}

func (sk *refSketch) halve() {
	for i := range sk.counts {
		sk.counts[i] /= 2
	}
	sk.total /= 2
	sk.rescan()
}

func (sk *refSketch) rescan() {
	sk.gMin, sk.gMinCnt = ^uint64(0), 0
	for _, v := range sk.counts {
		switch {
		case v < sk.gMin:
			sk.gMin, sk.gMinCnt = v, 1
		case v == sk.gMin:
			sk.gMinCnt++
		}
	}
}

// refKnowledgeFree is the one-id-at-a-time reference of Algorithm 3 over
// refSketch and a scan-only Γ (a plain slice, no tag filter, no index),
// with uniform eviction.
type refKnowledgeFree struct {
	sketch       *refSketch
	mem          []uint64
	c            int
	r            *rng.Xoshiro
	conservative bool
	halveEvery   uint64
	stats        Stats
}

func (kf *refKnowledgeFree) processOne(id uint64) {
	kf.stats.Processed++
	var fj uint64
	if kf.conservative {
		fj = kf.sketch.addConservative(id)
	} else {
		fj = kf.sketch.add(id)
	}
	if kf.halveEvery > 0 && kf.stats.Processed%kf.halveEvery == 0 {
		kf.sketch.halve()
		fj = kf.sketch.estimate(id)
	}
	switch {
	case slices.Contains(kf.mem, id):
		kf.stats.Duplicates++
	case len(kf.mem) < kf.c:
		kf.mem = append(kf.mem, id)
		kf.stats.Admitted++
	default:
		if kf.r.Bernoulli(float64(kf.sketch.gMin) / float64(fj)) {
			kf.mem[kf.r.Intn(len(kf.mem))] = id
			kf.stats.Admitted++
			kf.stats.Evicted++
		}
	}
}

func (kf *refKnowledgeFree) sample() (uint64, bool) {
	if len(kf.mem) == 0 {
		return 0, false
	}
	return kf.mem[kf.r.Intn(len(kf.mem))], true
}

// victimSkewedStream returns n ids of a targeted attack: half the stream is
// one victim id, a tenth comes from four colluding ids, and the rest is
// uniform over 4096 honest ids.
func victimSkewedStream(n int, seed uint64) []uint64 {
	r := rng.New(seed)
	ids := make([]uint64, n)
	for i := range ids {
		switch x := r.Intn(10); {
		case x < 5:
			ids[i] = 7
		case x < 6:
			ids[i] = 1000 + r.Uint64n(4)
		default:
			ids[i] = 1<<20 + r.Uint64n(4096)
		}
	}
	return ids
}

// sketchCounters decodes the counter matrix from the tail of the sketch's
// binary form (the last rows·cols big-endian words of every blob version).
func sketchCounters(t *testing.T, kf *KnowledgeFree) []uint64 {
	t.Helper()
	blob, err := kf.Sketch().MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	n := kf.Sketch().Rows() * kf.Sketch().Cols()
	blob = blob[len(blob)-8*n:]
	out := make([]uint64, n)
	for i := range out {
		out[i] = binary.BigEndian.Uint64(blob[8*i:])
	}
	return out
}

// TestKernelMatchesPerIDReference pins the sketch-then-admit ingest kernel
// bit for bit against the one-id-at-a-time reference of Algorithm 3 (per-row
// Family.Hash sketch, scan-only Γ) on a 200k-id victim-skewed stream, for Γ
// capacities on both sides of gammaScanThreshold, plain and conservative
// updates, periodic halving off and on (with a period that cuts chunks
// mid-batch), and every entry point: ProcessBatch, ProcessBatchEmit, Process
// and a random mix of the three. Batches have random lengths up to four
// chunks. After every batch Γ (contents and order), Stats, GlobalMin, Total,
// and any emitted draws must match; the counter matrix is compared every 64
// batches and at the end, followed by the next output of both generators.
func TestKernelMatchesPerIDReference(t *testing.T) {
	const (
		k, s = 50, 10
		n    = 200_000
	)
	stream := victimSkewedStream(n, 11)
	for _, c := range []int{25, gammaScanThreshold + 72} {
		for _, conservative := range []bool{false, true} {
			for _, halveEvery := range []uint64{0, 997} {
				for _, entry := range []string{"batch", "emit", "process", "mixed"} {
					name := fmt.Sprintf("c=%d/cu=%v/halve=%d/%s", c, conservative, halveEvery, entry)
					t.Run(name, func(t *testing.T) {
						var opts []Option
						if conservative {
							opts = append(opts, WithConservativeUpdate())
						}
						if halveEvery > 0 {
							opts = append(opts, WithPeriodicHalving(halveEvery))
						}
						kr := rng.New(5)
						kf, err := NewKnowledgeFree(c, k, s, kr, opts...)
						if err != nil {
							t.Fatal(err)
						}
						rr := rng.New(5)
						ref := &refKnowledgeFree{
							sketch: newRefSketch(t, k, s, rr), c: c, r: rr,
							conservative: conservative, halveEvery: halveEvery,
						}
						runKernelEquivalence(t, kf, ref, stream, entry)
						if got, want := kr.Uint64(), rr.Uint64(); got != want {
							t.Fatalf("next generator output %#x, reference %#x", got, want)
						}
					})
				}
			}
		}
	}
}

func runKernelEquivalence(t *testing.T, kf *KnowledgeFree, ref *refKnowledgeFree, stream []uint64, entry string) {
	t.Helper()
	route := rng.New(13) // batch lengths and, for "mixed", entry points
	var out, want []uint64
	for batch := 0; len(stream) > 0; batch++ {
		m := min(len(stream), 1+route.Intn(4*ingestChunk))
		ids := stream[:m]
		stream = stream[m:]
		how := entry
		if how == "mixed" {
			how = []string{"batch", "emit", "process"}[route.Intn(3)]
		}
		switch how {
		case "batch":
			kf.ProcessBatch(ids)
			for _, id := range ids {
				ref.processOne(id)
			}
		case "emit":
			out = kf.ProcessBatchEmit(ids, out[:0])
			want = want[:0]
			for _, id := range ids {
				ref.processOne(id)
				if d, ok := ref.sample(); ok {
					want = append(want, d)
				}
			}
			if !slices.Equal(out, want) {
				t.Fatalf("batch %d: emitted draws diverge from the reference", batch)
			}
		case "process":
			for i, id := range ids {
				got := kf.Process(id)
				ref.processOne(id)
				if d, _ := ref.sample(); got != d {
					t.Fatalf("batch %d id %d: Process returned %d, reference %d", batch, i, got, d)
				}
			}
		}
		if got := kf.Memory(); !slices.Equal(got, ref.mem) {
			t.Fatalf("batch %d: Γ %v, reference %v", batch, got, ref.mem)
		}
		if kf.Stats() != ref.stats {
			t.Fatalf("batch %d: stats %+v, reference %+v", batch, kf.Stats(), ref.stats)
		}
		sk := kf.Sketch()
		if sk.GlobalMin() != ref.sketch.gMin || sk.Total() != ref.sketch.total {
			t.Fatalf("batch %d: (GlobalMin, Total) = (%d, %d), reference (%d, %d)",
				batch, sk.GlobalMin(), sk.Total(), ref.sketch.gMin, ref.sketch.total)
		}
		if batch%64 == 0 || len(stream) == 0 {
			if !slices.Equal(sketchCounters(t, kf), ref.sketch.counts) {
				t.Fatalf("batch %d: sketch counters diverge from the reference", batch)
			}
		}
	}
}

// TestGammaTagFilterMatchesScan drives Γ through random fills,
// replacements and restores on both sides of gammaScanThreshold and checks
// that membership always equals a plain scan of the items and that the tag
// counts equal a recount from the items.
func TestGammaTagFilterMatchesScan(t *testing.T) {
	r := rng.New(21)
	for _, c := range []int{1, 25, gammaScanThreshold, gammaScanThreshold + 1} {
		g := newGamma(c)
		check := func(step int) {
			t.Helper()
			for trial := 0; trial < 8; trial++ {
				id := r.Uint64n(4 * uint64(c))
				if trial == 0 && g.size() > 0 {
					id = g.items[r.Intn(g.size())]
				}
				if got, want := g.contains(id), slices.Contains(g.items, id); got != want {
					t.Fatalf("c=%d step %d: contains(%d) = %v, scan %v", c, step, id, got, want)
				}
			}
			if g.index != nil {
				return
			}
			var tags [256]uint8
			for _, id := range g.items {
				tags[gammaTag(id)]++
			}
			if tags != g.tags {
				t.Fatalf("c=%d step %d: tag counts drifted from the items", c, step)
			}
		}
		for step := 0; step < 5000; step++ {
			id := r.Uint64n(4 * uint64(c))
			switch {
			case g.contains(id):
			case !g.full():
				g.add(id)
			default:
				g.replace(r.Intn(g.size()), id)
			}
			check(step)
		}
		kf, err := NewKnowledgeFree(c, 8, 2, rng.New(1))
		if err != nil {
			t.Fatal(err)
		}
		if err := kf.RestoreMemory(g.snapshot()); err != nil {
			t.Fatal(err)
		}
		g = kf.mem
		check(-1)
	}
}

// BenchmarkKnowledgeFreeDaemonShape measures the ingest kernel at unsd's
// default shape — c=25, a 50-column × 10-row sketch — on a stream in which
// every other id is one victim and the rest are drawn from 16384 honest
// ids, fed in 256-id batches (a shard's sub-batch of a 1024-id frame over
// four shards). ns/op is ns per id. unsbench's perf suite carries the same
// body as KnowledgeFreeBatch/daemon-shape.
func BenchmarkKnowledgeFreeDaemonShape(b *testing.B) {
	kf, err := NewKnowledgeFree(25, 50, 10, rng.New(7))
	if err != nil {
		b.Fatal(err)
	}
	r := rng.New(8)
	stream := make([]uint64, 1<<16)
	for i := range stream {
		stream[i] = 1 + r.Uint64n(1<<14)
		if i%2 == 0 {
			stream[i] = 0
		}
	}
	const batch = 256
	b.ResetTimer()
	for i := 0; i < b.N; i += batch {
		off := i % len(stream)
		kf.ProcessBatch(stream[off : off+batch])
	}
}
