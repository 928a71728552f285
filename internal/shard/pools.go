package shard

import (
	"sync"
	"sync/atomic"

	"nodesampling/internal/spans"
)

// The ingest hot path recycles every buffer it needs through sync.Pools, so
// a steady-state PushBatch performs zero heap allocations: the partitioned
// id payload, the partition scratch (shard tags and counting-sort cursors)
// and the σ′ draw buffers all come from and return to these pools. The
// payload is the delicate one — its sub-slices are aliased by up to one
// in-flight ring item per shard — so it carries a reference count and only
// re-enters the pool once every shard has consumed (or dropped) its share.

// payload is one PushBatch's partitioned id storage. refs is the number of
// outstanding sub-batches aliasing buf; it is set once, before any
// sub-batch is sent (a fast shard could otherwise process and release its
// share — hitting zero — while later sends are still being enqueued).
//
// While a subscriber is live the payload also carries the batch's σ′ draw
// area: draws is a pooled buffer as long as buf, and each sub-batch writes
// its draws at its own ids' offset (the same counting-sort layout), then
// records how many it wrote in its segs entry. No lock is needed: every
// sub-batch owns its region and its entry, and the atomic decrement of refs
// orders those writes before the last releaser reads them. That releaser
// compacts the segments and emits the whole batch's draws as one unit.
type payload struct {
	buf  []uint64
	refs atomic.Int32

	draws *[]uint64 // nil unless the batch emits σ′
	segs  []drawSeg // one per shard of the batch, indexed like the sends
}

// drawSeg is one sub-batch's region of a payload's draw area.
type drawSeg struct {
	off int // offset of the sub-batch's ids in buf, and of its draws
	n   int // draws written; stays 0 for a dropped sub-batch
}

var payloadPool = sync.Pool{New: func() any { return new(payload) }}

// getPayload returns a payload with buf sized to exactly n ids and no draw
// area.
func getPayload(n int) *payload {
	pl := payloadPool.Get().(*payload)
	if cap(pl.buf) < n {
		pl.buf = make([]uint64, n)
	}
	pl.buf = pl.buf[:n]
	return pl
}

// withDraws attaches a draw area for a batch split into shards sub-batches;
// the caller sets each sub-batch's offset before sending it.
func (pl *payload) withDraws(shards int) {
	dp := drawPool.Get().(*[]uint64)
	if cap(*dp) < len(pl.buf) {
		*dp = make([]uint64, len(pl.buf))
	}
	*dp = (*dp)[:len(pl.buf)]
	pl.draws = dp
	if cap(pl.segs) < shards {
		pl.segs = make([]drawSeg, shards)
	}
	pl.segs = pl.segs[:shards]
	for i := range pl.segs {
		pl.segs[i] = drawSeg{}
	}
}

// release drops one sub-batch's reference. Called by the shard worker after
// its sub-batch is fully processed (sc is its open "shard" span), and by the
// drop path when a full queue discards one (sc is the ingest span). The last
// reference returns the payload to the pool and, if the batch carries a
// draw area, packs the sub-batches' draws to the front in shard order and
// hands them to the emitter as one σ′ unit.
func (p *Pool) release(pl *payload, sc spans.Context) {
	if pl.refs.Add(-1) != 0 {
		return
	}
	dp := pl.draws
	if dp == nil {
		payloadPool.Put(pl)
		return
	}
	d, w := *dp, 0
	for _, sg := range pl.segs {
		// off ≥ w always (segments are in offset order and n ≤ their
		// length), so the forward copy never overwrites unread draws.
		w += copy(d[w:], d[sg.off:sg.off+sg.n])
	}
	pl.draws = nil
	payloadPool.Put(pl)
	*dp = d[:w]
	if w == 0 {
		drawPool.Put(dp)
		return
	}
	p.emit(dp, sc)
}

// partScratch is PushBatch's partition workspace: one shard tag per id and
// the counting-sort cursor/start table. Unlike the payload it is never
// aliased by ring items, so it goes back to the pool as soon as the sends
// are enqueued.
type partScratch struct {
	shards []uint8
	counts []int
}

var scratchPool = sync.Pool{New: func() any { return new(partScratch) }}

// grow sizes the scratch for nids ids across n shards and returns the two
// working slices, with the cursor table zeroed (the counting sort relies on
// starting from zero, a property fresh allocations used to provide for
// free).
func (sc *partScratch) grow(nids, n int) ([]uint8, []int) {
	if cap(sc.shards) < nids {
		sc.shards = make([]uint8, nids)
	}
	sc.shards = sc.shards[:nids]
	if cap(sc.counts) < 2*n {
		sc.counts = make([]int, 2*n)
	}
	sc.counts = sc.counts[:2*n]
	for i := range sc.counts {
		sc.counts[i] = 0
	}
	return sc.shards, sc.counts
}

// drawPool recycles σ′ draw buffers between the ingest path and the
// emitter: a batch's draw area (or a single-id Push's draw) is filled via
// ProcessBatchEmit, the emitter publishes it through the hub (which copies
// into subscriber buffers) and returns it here. Buffers keep whatever
// capacity they grew to.
var drawPool = sync.Pool{New: func() any {
	b := make([]uint64, 0, 2048)
	return &b
}}
