package shard

import (
	"sync/atomic"

	"nodesampling/internal/spans"
)

// ring is a bounded multi-producer single-consumer queue of ring items —
// the shard ingest queue. It replaces the buffered channel the workers used
// to drain: a channel hand-off costs a mutex acquisition plus a scheduler
// visit on every send, while the ring's uncontended enqueue is one
// compare-and-swap and two plain atomics, with producers contending only on
// the enqueue cursor (never with the consumer) and the consumer touching
// nothing shared but the slot it drains. Block/drop semantics, flush
// barriers and shutdown live in the worker around it (see worker.run); the
// ring itself is lock-free and never blocks.
//
// The design is the classic bounded MPMC sequence ring restricted to one
// consumer: each slot carries a sequence number that encodes, relative to
// the cursors, whether the slot is free for the enqueuer of position pos
// (seq == pos), occupied for the dequeuer of position pos (seq == pos+1),
// or still owned by a lapped-around peer (anything else). Producers claim a
// position by CAS on enq, write the item, then publish it by bumping the
// slot's sequence; the consumer reads published slots in order and recycles
// them a full lap ahead. The single-consumer restriction lets the dequeue
// side use plain stores on deq, ordered only by the slot-sequence
// publication.
type ring struct {
	mask uint64
	slot []ringSlot

	// enq is the next position to claim for enqueue (shared by producers);
	// deq is the next position to drain (consumer-private, but read by
	// producers for fullness and by load-signal snapshots for depth).
	enq atomic.Uint64
	deq atomic.Uint64
}

// ringItem is one unit of work in a shard queue: a sub-batch of ids, the
// wire batch's ingest span context, the refcounted payload the ids alias
// (nil when the batch owns its slice outright, e.g. single-id Push) and the
// sub-batch's index in the payload's draw segments.
type ringItem struct {
	ids []uint64
	tc  spans.Context
	pl  *payload
	seg int
}

type ringSlot struct {
	seq atomic.Uint64
	it  ringItem
}

// newRing builds a ring with capacity ≥ max(2, want), rounded up to a power
// of two so position-to-slot mapping is a mask instead of a division. Two is
// the protocol's floor: with a single slot, the producer of position 1 reads
// the published sequence (1) of the still-queued item from position 0 as
// "free for position 1" and would overwrite it.
func newRing(want int) *ring {
	capacity := 2
	for capacity < want {
		capacity <<= 1
	}
	r := &ring{mask: uint64(capacity - 1), slot: make([]ringSlot, capacity)}
	for i := range r.slot {
		r.slot[i].seq.Store(uint64(i))
	}
	return r
}

// Cap returns the ring's slot count (the rounded capacity).
func (r *ring) Cap() int { return len(r.slot) }

// Len approximates the number of items currently queued (claimed positions
// not yet drained). Exact only at quiescence; load signals want a gauge,
// not an invariant.
func (r *ring) Len() int {
	n := int64(r.enq.Load()) - int64(r.deq.Load())
	if n < 0 {
		return 0
	}
	if n > int64(len(r.slot)) {
		return len(r.slot)
	}
	return int(n)
}

// tryPush enqueues it, returning false when the ring is full. Safe for any
// number of concurrent producers. On success the item is visible to the
// consumer before tryPush returns (the slot-sequence store publishes it).
func (r *ring) tryPush(it ringItem) bool {
	for {
		pos := r.enq.Load()
		s := &r.slot[pos&r.mask]
		seq := s.seq.Load()
		switch {
		case seq == pos:
			// Slot free for this position: claim it. A failed CAS means
			// another producer took pos; reload and retry.
			if r.enq.CompareAndSwap(pos, pos+1) {
				s.it = it
				s.seq.Store(pos + 1)
				return true
			}
		case seq < pos:
			// The consumer has not recycled this slot yet: a full lap of
			// items is in flight ahead of us.
			return false
		default:
			// seq > pos: a racing producer already claimed past pos; the
			// reloaded enq cursor will reflect it.
		}
	}
}

// tryPop dequeues the oldest item, returning false when none is published.
// Single consumer only. The drained slot is recycled a full lap ahead so
// producers can reuse it.
func (r *ring) tryPop() (ringItem, bool) {
	pos := r.deq.Load()
	s := &r.slot[pos&r.mask]
	if s.seq.Load() != pos+1 {
		// Empty — or the producer that claimed pos has not published yet
		// (the claim/publish window); either way nothing to take.
		return ringItem{}, false
	}
	it := s.it
	s.it = ringItem{} // release the slices to the GC / payload pool
	s.seq.Store(pos + uint64(len(r.slot)))
	r.deq.Store(pos + 1)
	return it, true
}
