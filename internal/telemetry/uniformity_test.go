package telemetry

import (
	"maps"
	"strings"
	"testing"

	"nodesampling/internal/rng"
)

func collectGauge(t *testing.T, u *Uniformity, name string) (float64, bool) {
	t.Helper()
	for _, f := range u.Collect() {
		if f.Name != name {
			continue
		}
		if len(f.Samples) == 0 {
			return 0, false
		}
		if len(f.Samples) != 1 {
			t.Fatalf("%s: want at most 1 sample, got %d", name, len(f.Samples))
		}
		return f.Samples[0].Value, true
	}
	t.Fatalf("family %s not collected", name)
	return 0, false
}

func TestProbeSlidingWindow(t *testing.T) {
	p := NewProbe(4, 1)
	p.Offer([]uint64{1, 2, 3, 4})
	h, seen, kept := p.Snapshot()
	if seen != 4 || kept != 4 {
		t.Fatalf("seen=%d kept=%d, want 4/4", seen, kept)
	}
	if h.Total() != 4 || h.Distinct() != 4 {
		t.Fatalf("total=%d distinct=%d, want 4/4", h.Total(), h.Distinct())
	}
	// Two more ids evict the two oldest (1 and 2).
	p.Offer([]uint64{5, 5})
	h, _, _ = p.Snapshot()
	if h.Total() != 4 {
		t.Fatalf("total=%d after eviction, want 4", h.Total())
	}
	if h.Count(1) != 0 || h.Count(2) != 0 {
		t.Fatalf("oldest ids not evicted: count(1)=%d count(2)=%d", h.Count(1), h.Count(2))
	}
	if h.Count(5) != 2 || h.Count(3) != 1 || h.Count(4) != 1 {
		t.Fatalf("window contents wrong: 5=%d 3=%d 4=%d", h.Count(5), h.Count(3), h.Count(4))
	}
}

func TestProbeDecimation(t *testing.T) {
	const total = 4000
	p := NewProbe(total, 4)
	ids := make([]uint64, total)
	for i := range ids {
		ids[i] = uint64(i)
	}
	// Split across batches: decimation must carry over the boundary.
	p.Offer(ids[:7])
	p.Offer(ids[7:])
	_, seen, kept := p.Snapshot()
	if seen != total {
		t.Fatalf("seen=%d, want %d", seen, total)
	}
	// The hashed 1-in-4 gate admits ~total/4; the exact count is
	// deterministic but not a round quarter.
	if kept < total/5 || kept > total/3 {
		t.Fatalf("kept=%d, want roughly %d (1 of every 4)", kept, total/4)
	}
	// Aliasing guard: a periodic id cycle sharing a factor with the
	// decimation interval must still populate (nearly) all distinct ids.
	q := NewProbe(512, 8)
	cyc := make([]uint64, 512*8)
	for i := range cyc {
		cyc[i] = uint64(i % 64)
	}
	q.Offer(cyc)
	h, _, _ := q.Snapshot()
	if h.Distinct() < 60 {
		t.Fatalf("periodic input collapsed under decimation: %d distinct of 64", h.Distinct())
	}
}

func TestProbeDisabled(t *testing.T) {
	p := NewProbe(0, 1)
	p.Offer([]uint64{1, 2, 3})
	h, seen, kept := p.Snapshot()
	if h.Total() != 0 || kept != 0 {
		t.Fatalf("disabled probe admitted ids: total=%d kept=%d", h.Total(), kept)
	}
	if seen != 3 {
		t.Fatalf("disabled probe lost the offered count: seen=%d", seen)
	}
}

// TestUniformityFloodDegradesAndRecovers drives the gauge through the
// acceptance scenario in miniature: a uniform baseline, then a targeted
// flood concentrated on one id, then uniform traffic again. Input KL must
// rise under the flood and fall back once the window slides past it.
func TestUniformityFloodDegradesAndRecovers(t *testing.T) {
	const window = 512
	u := NewUniformity(window, 1)

	uniform := make([]uint64, window)
	for i := range uniform {
		uniform[i] = uint64(i % 64)
	}
	u.In.Offer(uniform)
	u.Out.Offer(uniform)

	baseline, ok := collectGauge(t, u, "unsd_uniformity_input_kl")
	if !ok {
		t.Fatal("no baseline input KL")
	}
	if baseline > 1e-9 {
		t.Fatalf("uniform baseline has KL %v, want ~0", baseline)
	}

	// Targeted flood: 80% of the window becomes a single id.
	flood := make([]uint64, window*8/10)
	for i := range flood {
		flood[i] = 7
	}
	u.In.Offer(flood)
	flooded, ok := collectGauge(t, u, "unsd_uniformity_input_kl")
	if !ok {
		t.Fatal("no flooded input KL")
	}
	if flooded <= baseline+0.5 {
		t.Fatalf("flood did not degrade the gauge: baseline %v, flooded %v", baseline, flooded)
	}

	// Gain must show the output (still uniform) beating the input.
	gain, ok := collectGauge(t, u, "unsd_uniformity_gain")
	if !ok {
		t.Fatal("no gain while input is biased")
	}
	if gain < 0.5 {
		t.Fatalf("gain %v under flood, want close to 1 (output stayed uniform)", gain)
	}

	// Recovery: a full window of uniform traffic slides the flood out.
	u.In.Offer(uniform)
	recovered, ok := collectGauge(t, u, "unsd_uniformity_input_kl")
	if !ok {
		t.Fatal("no recovered input KL")
	}
	if recovered > 1e-9 {
		t.Fatalf("gauge did not recover after flood: KL %v", recovered)
	}
}

func TestUniformityEmptyWindows(t *testing.T) {
	u := NewUniformity(64, 1)
	if _, ok := collectGauge(t, u, "unsd_uniformity_input_kl"); ok {
		t.Error("empty window exported an input KL sample")
	}
	if _, ok := collectGauge(t, u, "unsd_uniformity_gain"); ok {
		t.Error("empty window exported a gain sample")
	}
	// Metadata families must still be present and valid for the registry.
	r := NewRegistry()
	r.Register(u)
	var sb strings.Builder
	if _, err := r.WriteTo(&sb); err != nil {
		t.Fatalf("WriteTo over empty gauge: %v", err)
	}
}

// countingProbe is the incremental-count reference the map-free Probe
// replaced: the same ring and gate, plus a count map updated on every
// admission and eviction.
type countingProbe struct {
	ring              []uint64
	head, size        int
	counts            map[uint64]uint64
	every, seen, kept uint64
}

func (p *countingProbe) offer(ids []uint64) {
	for _, id := range ids {
		p.seen++
		if p.every > 1 && rng.Mix64(p.seen)%p.every != 0 {
			continue
		}
		p.kept++
		if p.size == len(p.ring) {
			old := p.ring[p.head]
			if p.counts[old]--; p.counts[old] == 0 {
				delete(p.counts, old)
			}
		} else {
			p.size++
		}
		p.ring[p.head] = id
		p.head = (p.head + 1) % len(p.ring)
		p.counts[id]++
	}
}

// TestProbeSnapshotMatchesIncrementalCounts pins the ring-built Snapshot
// against the incremental-count reference over random batches, across many
// ring wraparounds and with and without decimation: identical per-id
// counts, totals and offered/kept counters after every batch.
func TestProbeSnapshotMatchesIncrementalCounts(t *testing.T) {
	r := rng.New(31)
	for _, window := range []int{1, 7, 64, 4096} {
		for _, every := range []int{1, 3, 8} {
			p := NewProbe(window, every)
			ref := &countingProbe{
				ring: make([]uint64, window), counts: make(map[uint64]uint64), every: uint64(every),
			}
			ids := make([]uint64, 3*window+5)
			for batch := 0; batch < 200; batch++ {
				n := r.Intn(len(ids) + 1)
				for i := range ids[:n] {
					ids[i] = r.Uint64n(uint64(2*window) + 3)
				}
				p.Offer(ids[:n])
				ref.offer(ids[:n])
				h, seen, kept := p.Snapshot()
				if seen != ref.seen || kept != ref.kept {
					t.Fatalf("window %d every %d batch %d: seen/kept %d/%d, reference %d/%d",
						window, every, batch, seen, kept, ref.seen, ref.kept)
				}
				if !maps.Equal(h.Counts(), ref.counts) || h.Total() != uint64(ref.size) {
					t.Fatalf("window %d every %d batch %d: histogram %v (total %d), reference %v (total %d)",
						window, every, batch, h.Counts(), h.Total(), ref.counts, ref.size)
				}
			}
		}
	}
}
