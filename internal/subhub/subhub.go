// Package subhub implements the fan-out half of the streaming output plane:
// a subscription hub that distributes the sampling service's output stream
// σ′ to many subscribers without ever letting a slow subscriber backpressure
// the producer.
//
// Each subscriber owns a fixed-capacity ring buffer filled by Publish under
// a non-blocking drop-oldest policy. Publish only appends to rings — it
// never blocks and never waits for a consumer — so ingestion throughput is
// decoupled from delivery entirely, mirroring the root package's Service
// guarantee that a lagging subscriber costs dropped stream elements (which
// a sampling stream can always afford: a later draw carries the same
// information) rather than stalling the pipeline.
//
// A subscription's consumer shape is fixed when it is created:
//
//   - Channel-fed (Subscribe, SubscribeEvery, SubscribeWith): a pump
//     goroutine moves ring contents one id at a time onto a buffered
//     delivery channel, read through C. This suits consumers that select
//     on the stream next to other events.
//   - Batch-fed (SubscribeBatch): no pump and no channel. The consumer
//     calls Next, which blocks until the ring holds ids and then moves the
//     whole ring out in one take. This suits consumers that forward σ′ in
//     bulk, such as the daemon's stream writer, which frames each take
//     straight onto its socket.
//
// Upstream, the shard pool publishes σ′ as one unit per pushed batch, so
// each Publish carries a whole batch's draws and a batch-fed consumer
// typically takes one publish's worth per Next.
//
// Subscriptions may opt into decimation (SubscribeEvery): only every k-th
// offered id enters the ring, so a modest consumer rides a fast hub
// without paying for draws it would discard. They may additionally opt
// into a delivery rate cap (SubscribeWith): a token bucket refilled at
// RatePerSec ids/second, with one second of burst, discards (and counts)
// ids beyond the budget before they reach the ring — the absolute ceiling
// complementing decimation's relative thinning, for consumers that want
// "at most R ids/second" regardless of how fast the pool runs.
//
// Accounting is exact: every id offered to a subscription is eventually
// counted as delivered (handed to the delivery channel, or taken by Next),
// dropped (overwritten in the ring, or discarded at cancellation),
// filtered (thinned away by the decimation interval) or capped (discarded
// by the rate limiter), so Offered == Delivered + Dropped + Filtered +
// Capped once a subscription has been cancelled (for a batch-fed one, once
// Next has reported the end of the stream).
package subhub

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// ErrHubClosed is returned by Subscribe after Close.
var ErrHubClosed = errors.New("subhub: hub closed")

// MaxSubscriptionBuffer bounds a single subscription's ring capacity; a
// network daemon must not let one Subscribe request pin an arbitrary
// allocation.
const MaxSubscriptionBuffer = 1 << 20

// MaxDecimation bounds a subscription's sample-every-k interval; beyond it
// a subscriber is asking for practically no stream at all.
const MaxDecimation = 1 << 20

// Hub fans the output stream out to its current subscribers. All methods
// are safe for concurrent use. A Hub is created with New and released with
// Close, which cancels every remaining subscription.
type Hub struct {
	mu     sync.Mutex
	subs   []*Subscription
	nextID uint64
	closed bool

	// active mirrors len(subs) so producers can gate σ′ generation on a
	// single atomic load instead of taking the hub lock per batch.
	active atomic.Int32
}

// New creates an empty hub.
func New() *Hub { return &Hub{} }

// Active reports whether at least one subscription is live. Producers use
// it to skip output-draw generation entirely while nobody is listening.
func (h *Hub) Active() bool { return h.active.Load() > 0 }

// NumSubscribers returns the current number of live subscriptions.
func (h *Hub) NumSubscribers() int { return int(h.active.Load()) }

// Subscribe registers a new subscriber with a ring buffer (and delivery
// channel) of the given capacity, in ids.
func (h *Hub) Subscribe(capacity int) (*Subscription, error) {
	return h.SubscribeEvery(capacity, 1)
}

// SubscribeEvery is Subscribe with per-subscription decimation: only every
// every-th id offered to this subscription enters its ring (the rest are
// counted as filtered, not dropped). Decimation lets a modest consumer
// ride a fast hub without paying — in buffering or in drops — for stream
// elements it would discard anyway; because the retained draws are a
// deterministic 1-in-k thinning of an i.i.d. uniform stream, they are
// themselves i.i.d. uniform. every == 1 delivers everything.
func (h *Hub) SubscribeEvery(capacity, every int) (*Subscription, error) {
	if every < 1 {
		return nil, fmt.Errorf("subhub: decimation interval must be in [1, %d], got %d", MaxDecimation, every)
	}
	return h.SubscribeWith(SubOptions{Capacity: capacity, Every: every})
}

// SubOptions parameterises SubscribeWith, the full subscription surface.
type SubOptions struct {
	// Capacity is the ring buffer (and, when channel-fed, delivery channel)
	// size, in ids.
	// Required, in [1, MaxSubscriptionBuffer].
	Capacity int
	// Every is the decimation interval (0 and 1 both deliver everything),
	// at most MaxDecimation.
	Every int
	// RatePerSec, when positive, caps delivery at that many ids per second
	// via a token bucket with one second of burst; ids beyond the budget
	// are counted as capped and never enter the ring.
	RatePerSec uint32
	// InitialSeen seeds the decimation phase: the subscription behaves as
	// if InitialSeen ids had already been offered to its 1-in-Every
	// thinning window (taken modulo Every). A reconnecting subscriber
	// passes its previous subscription's Seen() so the stitched-together
	// stream never stretches the delivery spacing beyond Every.
	InitialSeen uint64
}

// SubscribeWith registers a new channel-fed subscriber with decimation,
// rate capping and decimation-phase seeding per o.
func (h *Hub) SubscribeWith(o SubOptions) (*Subscription, error) {
	return h.subscribe(o, false)
}

// SubscribeBatch registers a new batch-fed subscriber per o: the consumer
// reads with Next, and the subscription has no pump goroutine and no
// delivery channel (C returns nil). Cancel never blocks; ids still in the
// ring at the cut stay readable through Next.
func (h *Hub) SubscribeBatch(o SubOptions) (*Subscription, error) {
	return h.subscribe(o, true)
}

func (h *Hub) subscribe(o SubOptions, batch bool) (*Subscription, error) {
	capacity, every := o.Capacity, o.Every
	if capacity < 1 || capacity > MaxSubscriptionBuffer {
		return nil, fmt.Errorf("subhub: subscription capacity must be in [1, %d], got %d", MaxSubscriptionBuffer, capacity)
	}
	if every == 0 {
		every = 1
	}
	if every < 1 || every > MaxDecimation {
		return nil, fmt.Errorf("subhub: decimation interval must be in [1, %d], got %d", MaxDecimation, every)
	}
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return nil, ErrHubClosed
	}
	h.nextID++
	s := &Subscription{
		id:    h.nextID,
		hub:   h,
		every: uint64(every),
		seen:  o.InitialSeen % uint64(every),
		rate:  float64(o.RatePerSec),
		ring:  make([]uint64, capacity),
		wake:  make(chan struct{}, 1),
		done:  make(chan struct{}),
		now:   func() int64 { return time.Now().UnixNano() },
	}
	if !batch {
		s.out = make(chan uint64, capacity)
		s.pumpDone = make(chan struct{})
	}
	if s.rate > 0 {
		// A full bucket at birth: the first second's budget is available
		// immediately, then refills at RatePerSec.
		s.tokens = s.rate
		s.lastRefill = s.now()
	}
	h.subs = append(h.subs, s)
	h.active.Add(1)
	h.mu.Unlock()
	if !batch {
		go s.pump()
	}
	return s, nil
}

// Unsubscribe cancels a subscription. Equivalent to s.Cancel; nil-safe and
// idempotent.
func (h *Hub) Unsubscribe(s *Subscription) {
	if s != nil {
		s.Cancel()
	}
}

// Publish offers ids to every current subscriber. It never blocks: a full
// ring overwrites its oldest element (counted against that subscriber).
// The ids slice is copied into the rings; the caller keeps ownership.
func (h *Hub) Publish(ids []uint64) {
	if len(ids) == 0 || h.active.Load() == 0 {
		return
	}
	h.mu.Lock()
	for _, s := range h.subs {
		s.offer(ids)
	}
	h.mu.Unlock()
}

// SubStats is one subscription's delivery accounting snapshot.
type SubStats struct {
	ID        uint64 // stable per-hub subscription identifier
	Offered   uint64 // ids published while this subscription was live
	Delivered uint64 // ids handed to the delivery channel or taken by Next
	Dropped   uint64 // ids overwritten in the ring or discarded at cancel
	Filtered  uint64 // ids thinned away by the decimation interval
	Capped    uint64 // ids discarded by the delivery rate cap
	Capacity  int    // ring capacity
	Depth     int    // ids buffered and not yet consumed (ring + channel)
	Every     int    // decimation interval (1 delivers everything)
	Rate      uint32 // delivery rate cap in ids/second (0 = uncapped)
}

// Stats returns a snapshot of every live subscription's counters.
func (h *Hub) Stats() []SubStats {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]SubStats, len(h.subs))
	for i, s := range h.subs {
		out[i] = s.stats()
	}
	return out
}

// remove unlinks s from the hub (cancel path). Idempotent per subscription
// because Cancel runs at most once.
func (h *Hub) remove(s *Subscription) {
	h.mu.Lock()
	for i, cur := range h.subs {
		if cur == s {
			h.subs = append(h.subs[:i], h.subs[i+1:]...)
			h.active.Add(-1)
			break
		}
	}
	h.mu.Unlock()
}

// Close cancels every subscription (closing their delivery channels) and
// rejects future Subscribe calls. Idempotent.
func (h *Hub) Close() {
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return
	}
	h.closed = true
	subs := append([]*Subscription(nil), h.subs...)
	h.mu.Unlock()
	for _, s := range subs {
		s.Cancel()
	}
}

// Subscription is one subscriber's endpoint: a ring buffer written by the
// hub and read by the consumer, either through a delivery channel
// (channel-fed) or through Next (batch-fed). Obtain one from Hub.Subscribe
// or Hub.SubscribeBatch and release it with Cancel.
type Subscription struct {
	id  uint64
	hub *Hub

	// out is the delivery channel of a channel-fed subscription (nil when
	// batch-fed). Its buffer equals the ring capacity, so the total lag a
	// subscriber can accumulate before losing elements is roughly twice
	// the requested capacity.
	out chan uint64

	done       chan struct{} // closed by Cancel; unblocks the pump or Next
	pumpDone   chan struct{} // closed when the pump exits; nil when batch-fed
	cancelOnce sync.Once

	mu     sync.Mutex
	ring   []uint64
	head   int // index of the oldest buffered id
	size   int // ids currently buffered
	closed bool
	wake   chan struct{} // capacity 1: at-least-once data signal for the pump or Next

	// every is the decimation interval; seen counts offered ids modulo it
	// (guarded by mu, like the ring it feeds).
	every uint64
	seen  uint64

	// Token-bucket rate cap (guarded by mu): tokens refill at rate per
	// second up to one second's burst; rate 0 disables the bucket (and the
	// clock read). now is the time source, swappable by same-package tests.
	rate       float64
	tokens     float64
	lastRefill int64
	now        func() int64

	offered   atomic.Uint64
	delivered atomic.Uint64
	dropped   atomic.Uint64
	filtered  atomic.Uint64
	capped    atomic.Uint64
}

// ID returns the hub-assigned subscription identifier.
func (s *Subscription) ID() uint64 { return s.id }

// C returns the delivery channel of a channel-fed subscription. It is
// closed after Cancel (or hub Close) once the pump has exited; ids already
// in the channel buffer remain readable after the close. A batch-fed
// subscription has no channel and returns nil.
func (s *Subscription) C() <-chan uint64 { return s.out }

// Next is a batch-fed subscription's read: it blocks until the ring holds
// ids or the subscription is cancelled, then moves the whole ring into
// buf[:0] and returns it, counting the ids as delivered. After Cancel it
// returns whatever the ring still held at the cut, then reports the end
// of the stream with ok == false. One goroutine reads a subscription; on a
// channel-fed subscription, whose pump owns the ring, use C instead.
func (s *Subscription) Next(buf []uint64) (ids []uint64, ok bool) {
	if s.pumpDone != nil {
		panic("subhub: Next on a channel-fed subscription")
	}
	cut := false
	for {
		if buf = s.take(buf[:0]); len(buf) > 0 {
			s.delivered.Add(uint64(len(buf)))
			return buf, true
		}
		if cut {
			return buf, false
		}
		select {
		case <-s.wake:
		case <-s.done:
			// Offers stop before done closes, so one more take sees the
			// ring as the cut left it.
			cut = true
		}
	}
}

// Done returns a channel closed when the subscription is cancelled. Bridges
// that forward C to another sink select on it to unblock a pending send.
func (s *Subscription) Done() <-chan struct{} { return s.done }

// Offered returns how many ids were published while this subscription was
// live.
func (s *Subscription) Offered() uint64 { return s.offered.Load() }

// Delivered returns how many ids were handed to the delivery channel or
// taken by Next.
func (s *Subscription) Delivered() uint64 { return s.delivered.Load() }

// Dropped returns how many ids were lost to the drop-oldest policy (plus
// any discarded at cancellation).
func (s *Subscription) Dropped() uint64 { return s.dropped.Load() }

// Filtered returns how many ids the decimation interval thinned away.
func (s *Subscription) Filtered() uint64 { return s.filtered.Load() }

// Capped returns how many ids the delivery rate cap discarded.
func (s *Subscription) Capped() uint64 { return s.capped.Load() }

// Every returns the subscription's decimation interval.
func (s *Subscription) Every() int { return int(s.every) }

// Rate returns the delivery rate cap in ids/second (0 = uncapped).
func (s *Subscription) Rate() uint32 { return uint32(s.rate) }

// Seen returns the decimation window's current phase: how many ids have
// been offered since the last one entered the ring. A server hands it to a
// reconnecting subscriber (SubOptions.InitialSeen) so the stitched stream
// keeps its 1-in-Every spacing across the reconnect.
func (s *Subscription) Seen() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.seen
}

// Cancel detaches the subscription from the hub. On a channel-fed
// subscription it closes the delivery channel: ids already buffered are
// flushed into the channel as far as its capacity allows — without ever
// blocking — and the remainder is counted as dropped, so Offered ==
// Delivered + Dropped + Filtered + Capped holds after cancellation and a
// consumer that kept up loses nothing to the shutdown. On a batch-fed
// subscription Cancel only marks the cut: Next hands out what the ring
// still holds and then reports the end, after which the identity holds.
// Idempotent, never blocked by the consumer, and safe to call
// concurrently with Publish.
func (s *Subscription) Cancel() {
	s.cancelOnce.Do(func() {
		s.mu.Lock()
		s.closed = true // no further offers enter the ring
		s.mu.Unlock()
		close(s.done)
		s.hub.remove(s)
		if s.pumpDone != nil {
			<-s.pumpDone
		}
	})
}

// offer appends ids to the ring under the drop-oldest policy. Called by the
// hub with the hub lock held; never blocks. Decimation is a stride: the
// kept ids are the ones that complete a 1-in-every window, so offer jumps
// from one kept position to the next and its cost is O(kept ids), not
// O(offered ids); the filtered count and the next phase are arithmetic.
func (s *Subscription) offer(ids []uint64) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.offered.Add(uint64(len(ids)))
	n := len(s.ring)
	var dropped, filtered, capped uint64
	if s.rate > 0 {
		// One refill per offer batch: the bucket accrues rate tokens per
		// second since the last offer, capped at one second of burst.
		// Uncapped subscriptions never reach this, so they never read the
		// clock on the publish path.
		now := s.now()
		if elapsed := float64(now-s.lastRefill) / 1e9; elapsed > 0 {
			s.tokens += elapsed * s.rate
			if s.tokens > s.rate {
				s.tokens = s.rate
			}
		}
		s.lastRefill = now
	}
	first, stride := 0, 1
	if s.every > 1 {
		// ids[i] is the (seen+i+1)-th id of the current window, so the
		// first kept one is at every-1-seen and the rest follow every apart.
		l := uint64(len(ids))
		f := s.every - 1 - s.seen
		kept := uint64(0)
		if f < l {
			kept = (l-1-f)/s.every + 1
		}
		filtered = l - kept
		s.seen = (s.seen + l) % s.every
		first, stride = int(min(f, l)), int(s.every)
	}
	for i := first; i < len(ids); i += stride {
		if s.rate > 0 {
			if s.tokens < 1 {
				capped++
				continue
			}
			s.tokens--
		}
		id := ids[i]
		if s.size == n {
			s.ring[s.head] = id
			s.head++
			if s.head == n {
				s.head = 0
			}
			dropped++
		} else {
			j := s.head + s.size
			if j >= n {
				j -= n
			}
			s.ring[j] = id
			s.size++
		}
	}
	if dropped > 0 {
		s.dropped.Add(dropped)
	}
	if filtered > 0 {
		s.filtered.Add(filtered)
	}
	if capped > 0 {
		s.capped.Add(capped)
	}
	s.mu.Unlock()
	select {
	case s.wake <- struct{}{}:
	default:
	}
}

// take moves the ring contents into buf. The pump (or Next) keeps calling
// it after Cancel to flush what was buffered before the cut (offers stop at
// Cancel, so the drain terminates).
func (s *Subscription) take(buf []uint64) []uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := len(s.ring)
	end := s.head + s.size
	if end <= n {
		buf = append(buf, s.ring[s.head:end]...)
	} else {
		end -= n
		buf = append(buf, s.ring[s.head:]...)
		buf = append(buf, s.ring[:end]...)
	}
	if end == n {
		end = 0
	}
	s.head, s.size = end, 0
	return buf
}

// pump moves ids from the ring to the delivery channel until cancellation,
// then flushes the remainder non-blockingly (the channel buffer is the
// last stop a cancelled subscription's ids can still reach). It is the
// only sender on out, so it alone closes it.
func (s *Subscription) pump() {
	defer close(s.pumpDone)
	defer close(s.out)
	buf := make([]uint64, 0, len(s.ring))
	for {
		buf = s.take(buf[:0])
		if len(buf) == 0 {
			select {
			case <-s.wake:
				continue
			case <-s.done:
				s.flush(s.take(buf[:0]))
				return
			}
		}
		for i, id := range buf {
			select {
			case s.out <- id:
				s.delivered.Add(1)
			case <-s.done:
				// Deliver what still fits — first the rest of this chunk,
				// then whatever remains in the ring — and drop the rest.
				if s.flush(buf[i:]) {
					s.flush(s.take(buf[:0]))
				} else {
					s.dropped.Add(uint64(len(s.take(buf[:0]))))
				}
				return
			}
		}
	}
}

// flush performs the post-cancellation hand-off: non-blocking sends into
// the delivery channel's remaining buffer, counting what does not fit as
// dropped. Reports whether everything fit.
func (s *Subscription) flush(ids []uint64) bool {
	for i, id := range ids {
		select {
		case s.out <- id:
			s.delivered.Add(1)
		default:
			s.dropped.Add(uint64(len(ids) - i))
			return false
		}
	}
	return true
}

// stats snapshots the counters; the caller holds the hub lock. Depth spans
// both buffering stages — the ring and the delivery channel (none when
// batch-fed) — so a lagging consumer's backlog is visible before drops
// begin.
func (s *Subscription) stats() SubStats {
	s.mu.Lock()
	depth := s.size + len(s.out)
	s.mu.Unlock()
	return SubStats{
		ID:        s.id,
		Offered:   s.offered.Load(),
		Delivered: s.delivered.Load(),
		Dropped:   s.dropped.Load(),
		Filtered:  s.filtered.Load(),
		Capped:    s.capped.Load(),
		Capacity:  len(s.ring),
		Depth:     depth,
		Every:     int(s.every),
		Rate:      uint32(s.rate),
	}
}
