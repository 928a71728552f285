package main

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"nodesampling/internal/cluster"
	"nodesampling/internal/cms"
	"nodesampling/internal/core"
	"nodesampling/internal/netgossip"
	"nodesampling/internal/rng"
	"nodesampling/internal/shard"
	"nodesampling/internal/subhub"
	"nodesampling/internal/telemetry"
)

// The in-process layer replay: the workload's own seeded batches through
// each module's public functions, timed by the benchmark, at the daemon's
// parameters (4 shards, c=25, a 50x10 sketch, a 4096-id probe window
// keeping one id in 8).
const (
	layerReps   = 5
	layerMinDur = 60 * time.Millisecond
	daemonC     = 25
	daemonK     = 50
	daemonS     = 10
	daemonShard = 4
	daemonBuf   = 64
)

// perID runs fn, which handles some ids per call and returns how many,
// for layerReps repetitions of at least layerMinDur each, and returns the
// median nanoseconds per id.
func perID(fn func() int) float64 {
	fn()
	xs := make([]float64, 0, layerReps)
	for r := 0; r < layerReps; r++ {
		n := 0
		start := time.Now()
		for time.Since(start) < layerMinDur {
			n += fn()
		}
		xs = append(xs, float64(time.Since(start))/float64(n))
	}
	return median(xs)
}

// allocsPer is the heap allocations per call of fn over n calls, with
// nothing else of the benchmark running.
func allocsPer(n int, fn func()) float64 {
	fn()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		fn()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(n)
}

// cycler hands out the workload's batches round robin.
type cycler struct {
	batches [][]uint64
	i       int
}

func (c *cycler) next() []uint64 {
	b := c.batches[c.i%len(c.batches)]
	c.i++
	return b
}

// replayLayers measures every in-process per-layer metric on the batches.
func replayLayers(batches [][]uint64, seed uint64) (map[string]float64, error) {
	m := map[string]float64{}
	for _, step := range []func([][]uint64, uint64, map[string]float64) error{
		layerNetgossip, layerTelemetry, layerCore, layerCMS, layerShard, layerSubhub, layerCluster,
	} {
		if err := step(batches, seed, m); err != nil {
			return nil, err
		}
	}
	return m, nil
}

func layerNetgossip(batches [][]uint64, _ uint64, m map[string]float64) error {
	cy := &cycler{batches: batches}
	var buf []byte
	var err error
	m["netgossip.encode_ns_per_id"] = perID(func() int {
		b := cy.next()
		buf, err = netgossip.AppendFrame(buf[:0], netgossip.Frame{Type: netgossip.FramePushBatch, IDs: b})
		return len(b)
	})
	if err != nil {
		return err
	}
	const frames = 64
	var wire []byte
	for i := 0; i < frames; i++ {
		if wire, err = netgossip.AppendFrame(wire, netgossip.Frame{Type: netgossip.FramePushBatch, IDs: batches[i%len(batches)]}); err != nil {
			return err
		}
	}
	br := bytes.NewReader(wire)
	fr := netgossip.NewFrameReader(br)
	var readErr error
	decodeAll := func() int {
		br.Reset(wire)
		n := 0
		for i := 0; i < frames; i++ {
			f, err := fr.Read()
			if err != nil {
				readErr = err
				return 1
			}
			n += len(f.IDs)
		}
		return n
	}
	m["netgossip.decode_ns_per_id"] = perID(decodeAll)
	m["netgossip.decode_allocs_per_frame"] = allocsPer(16, func() { decodeAll() }) / frames
	return readErr
}

func layerTelemetry(batches [][]uint64, _ uint64, m map[string]float64) error {
	cy := &cycler{batches: batches}
	u := telemetry.NewUniformity(4096, 8)
	m["telemetry.probe_offer_ns_per_id"] = perID(func() int {
		b := cy.next()
		u.In.Offer(b)
		return len(b)
	})
	// Two goroutines offering at once, as two pushing connections do: the
	// wall time per id offered by both together.
	xs := make([]float64, 0, layerReps)
	for r := 0; r < layerReps; r++ {
		var ids atomic.Int64
		var wg sync.WaitGroup
		start := time.Now()
		for g := 0; g < 2; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				cy := &cycler{batches: batches, i: g * len(batches) / 2}
				for time.Since(start) < layerMinDur {
					b := cy.next()
					u.In.Offer(b)
					ids.Add(int64(len(b)))
				}
			}(g)
		}
		wg.Wait()
		xs = append(xs, float64(time.Since(start))/float64(ids.Load()))
	}
	m["telemetry.probe_offer_contended_ns_per_id"] = median(xs)
	return nil
}

func layerCore(batches [][]uint64, seed uint64, m map[string]float64) error {
	kf, err := core.NewKnowledgeFree(daemonC, daemonK, daemonS, rng.New(seed))
	if err != nil {
		return err
	}
	cy := &cycler{batches: batches}
	m["core.process_ns_per_id"] = perID(func() int {
		b := cy.next()
		kf.ProcessBatch(b)
		return len(b)
	})
	var out []uint64
	m["core.process_emit_ns_per_id"] = perID(func() int {
		b := cy.next()
		out = kf.ProcessBatchEmit(b, out[:0])
		return len(b)
	})
	// One pass over the batches from a fresh sampler: Γ admissions per id
	// offered, the share of arrivals that change the memory.
	fresh, err := core.NewKnowledgeFree(daemonC, daemonK, daemonS, rng.New(seed))
	if err != nil {
		return err
	}
	for _, b := range batches {
		fresh.ProcessBatch(b)
	}
	st := fresh.Stats()
	m["core.admit_frac"] = float64(st.Admitted) / float64(st.Processed)
	return nil
}

func layerCMS(batches [][]uint64, seed uint64, m map[string]float64) error {
	sk, err := cms.NewWithDimensions(daemonK, daemonS, rng.New(seed))
	if err != nil {
		return err
	}
	cy := &cycler{batches: batches}
	var sink uint64
	m["cms.add_estimate_ns"] = perID(func() int {
		b := cy.next()
		for _, id := range b {
			sink += sk.AddEstimate(id)
		}
		return len(b)
	})
	if sink == 0 {
		return fmt.Errorf("cms: no estimates")
	}
	return nil
}

func newLayerPool(seed uint64) (*shard.Pool, error) {
	factory, err := core.NewFactory(core.DefaultStrategy, core.StrategyParams{K: daemonK, S: daemonS})
	if err != nil {
		return nil, err
	}
	return shard.New(shard.Config{
		Shards: daemonShard, Buffer: daemonBuf, Block: true, Seed: seed,
		Capacity: daemonC, Sampler: factory,
	})
}

func layerShard(batches [][]uint64, seed uint64, m map[string]float64) error {
	p, err := newLayerPool(seed)
	if err != nil {
		return err
	}
	defer p.Close()
	cy := &cycler{batches: batches}
	// Enqueue only: a round of pushes that fits the empty queues, timed
	// without the Flush that drains them.
	const round = daemonBuf / 2
	xs := make([]float64, 0, layerReps)
	for r := 0; r < layerReps; r++ {
		var busy time.Duration
		n := 0
		for busy < layerMinDur/4 {
			for i := 0; i < round; i++ {
				b := cy.next()
				start := time.Now()
				if err := p.PushBatch(b); err != nil {
					return err
				}
				busy += time.Since(start)
				n += len(b)
			}
			if err := p.Flush(); err != nil {
				return err
			}
		}
		xs = append(xs, float64(busy)/float64(n))
	}
	m["shard.push_ns_per_id"] = median(xs)

	var flushErr error
	m["shard.process_ns_per_id"] = perID(func() int {
		n := 0
		for i := 0; i < round; i++ {
			b := cy.next()
			if err := p.PushBatch(b); err != nil {
				flushErr = err
			}
			n += len(b)
		}
		if err := p.Flush(); err != nil {
			flushErr = err
		}
		return n
	})
	if flushErr != nil {
		return flushErr
	}

	// SampleN(16) under the shard locks while a producer keeps the
	// workers busy.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		cy := &cycler{batches: batches}
		for {
			select {
			case <-stop:
				return
			default:
				_ = p.PushBatch(cy.next())
			}
		}
	}()
	var lat []float64
	start := time.Now()
	for time.Since(start) < layerMinDur*layerReps {
		t := time.Now()
		if got := p.SampleN(sampleN); len(got) != sampleN {
			close(stop)
			wg.Wait()
			return fmt.Errorf("shard: SampleN(%d) returned %d ids", sampleN, len(got))
		}
		lat = append(lat, float64(time.Since(t)))
	}
	close(stop)
	wg.Wait()
	m["shard.sample16_ns"] = median(lat)
	return nil
}

func layerSubhub(batches [][]uint64, _ uint64, m map[string]float64) error {
	for _, subs := range []int{1, 16} {
		h := subhub.New()
		var wg sync.WaitGroup
		for i := 0; i < subs; i++ {
			s, err := h.SubscribeEvery(subCapacity, subEvery)
			if err != nil {
				return err
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				for range s.C() {
				}
			}()
		}
		cy := &cycler{batches: batches}
		m[fmt.Sprintf("subhub.publish_ns_per_id_%dsub", subs)] = perID(func() int {
			b := cy.next()
			h.Publish(b)
			return len(b)
		})
		h.Close()
		wg.Wait()
	}
	return nil
}

func layerCluster(batches [][]uint64, seed uint64, m map[string]float64) error {
	// A routing-only two-member view: never started, so nothing dials.
	cl, err := cluster.New(cluster.Config{
		Members:  []string{"127.0.0.1:1", "127.0.0.1:2"},
		Self:     "127.0.0.1:1",
		Seed:     seed | 1,
		Fallback: func([]uint64) {},
	})
	if err != nil {
		return err
	}
	cy := &cycler{batches: batches}
	m["cluster.partition_ns_per_id"] = perID(func() int {
		b := cy.next()
		cl.Partition(b)
		return len(b)
	})
	m["cluster.partition_allocs_per_batch"] = allocsPer(64, func() { cl.Partition(cy.next()) })
	return nil
}
