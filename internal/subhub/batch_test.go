package subhub

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"
)

// setClock points a subscription's rate-cap clock at *clock and refills its
// bucket as at birth, so twin subscriptions meter identically.
func setClock(s *Subscription, clock *int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.now = func() int64 { return *clock }
	s.lastRefill = *clock
	s.tokens = s.rate
}

// drainNext reads a batch-fed subscription until Next reports the end.
func drainNext(s *Subscription) []uint64 {
	var out, buf []uint64
	for {
		var ok bool
		if buf, ok = s.Next(buf); !ok {
			return out
		}
		out = append(out, buf...)
	}
}

func checkIdentity(t *testing.T, name string, s *Subscription) {
	t.Helper()
	if o, d, dr, f, c := s.Offered(), s.Delivered(), s.Dropped(), s.Filtered(), s.Capped(); o != d+dr+f+c {
		t.Fatalf("%s: offered %d != delivered %d + dropped %d + filtered %d + capped %d", name, o, d, dr, f, c)
	}
}

// TestBatchFedMatchesChannelFed feeds a batch-fed subscription and a
// channel-fed twin the same publishes and checks they receive the same ids
// in the same order with the same counters, under decimation, a rate cap
// and a seeded decimation phase, and that the accounting identity holds
// once each stream has ended.
func TestBatchFedMatchesChannelFed(t *testing.T) {
	// Capacities exceed everything published, so neither twin drops: a
	// channel-fed cancel flushes only as far as its channel buffer.
	cases := []SubOptions{
		{Capacity: 1 << 14},
		{Capacity: 1 << 14, Every: 16},
		{Capacity: 1 << 14, Every: 7, InitialSeen: 5},
		{Capacity: 1 << 14, RatePerSec: 300},
		{Capacity: 1 << 14, Every: 3, RatePerSec: 200, InitialSeen: 2},
	}
	for _, o := range cases {
		t.Run(fmt.Sprintf("every=%d,rate=%d,seen=%d", o.Every, o.RatePerSec, o.InitialSeen), func(t *testing.T) {
			h := New()
			defer h.Close()
			ch, err := h.SubscribeWith(o)
			if err != nil {
				t.Fatal(err)
			}
			bt, err := h.SubscribeBatch(o)
			if err != nil {
				t.Fatal(err)
			}
			if bt.C() != nil {
				t.Fatal("batch-fed subscription exposes a delivery channel")
			}
			var clock int64 = 1e9
			setClock(ch, &clock)
			setClock(bt, &clock)
			r := rand.New(rand.NewSource(int64(o.Every)*31 + int64(o.RatePerSec)))
			var got []uint64
			var buf []uint64
			next := uint64(1)
			for round := 0; round < 60; round++ {
				ids := make([]uint64, r.Intn(200))
				for i := range ids {
					ids[i] = next
					next++
				}
				h.Publish(ids)
				clock += int64(r.Intn(400)) * 1e6
				if round%4 == 3 { // read mid-stream now and then
					var ok bool
					if buf, ok = bt.Next(buf); ok {
						got = append(got, buf...)
					}
				}
			}
			ch.Cancel()
			bt.Cancel()
			var want []uint64
			for id := range ch.C() {
				want = append(want, id)
			}
			got = append(got, drainNext(bt)...)
			if len(got) != len(want) {
				t.Fatalf("batch-fed received %d ids, channel-fed %d", len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("id %d: batch-fed %d, channel-fed %d", i, got[i], want[i])
				}
			}
			if bt.Offered() != ch.Offered() || bt.Filtered() != ch.Filtered() ||
				bt.Capped() != ch.Capped() || bt.Dropped() != ch.Dropped() || bt.Delivered() != ch.Delivered() {
				t.Fatalf("counters differ: batch-fed %+v, channel-fed %+v", bt.stats(), ch.stats())
			}
			if bt.Seen() != ch.Seen() {
				t.Fatalf("phase differs: batch-fed %d, channel-fed %d", bt.Seen(), ch.Seen())
			}
			checkIdentity(t, "batch-fed", bt)
			checkIdentity(t, "channel-fed", ch)
		})
	}
}

// TestNextAfterCancel: Cancel on a batch-fed subscription returns without
// any consumer, a Next blocked on an empty ring returns at the cut, and
// the ids buffered before the cut are still handed out before the end.
func TestNextAfterCancel(t *testing.T) {
	h := New()
	defer h.Close()
	s, err := h.SubscribeBatch(SubOptions{Capacity: 4})
	if err != nil {
		t.Fatal(err)
	}
	ended := make(chan bool)
	go func() {
		ids, ok := s.Next(nil)
		ended <- ok && len(ids) > 0
	}()
	time.Sleep(10 * time.Millisecond) // let Next park on the empty ring
	h.Publish([]uint64{1, 2, 3, 4, 5, 6})
	if !<-ended {
		t.Fatal("blocked Next did not wake with ids")
	}
	h.Publish([]uint64{7, 8})
	cancelled := make(chan struct{})
	go func() { s.Cancel(); close(cancelled) }()
	select {
	case <-cancelled:
	case <-time.After(5 * time.Second):
		t.Fatal("Cancel blocked on a batch-fed subscription nobody reads")
	}
	if h.NumSubscribers() != 0 {
		t.Fatalf("NumSubscribers after cancel = %d", h.NumSubscribers())
	}
	h.Publish([]uint64{9}) // after the cut: never offered
	ids, ok := s.Next(nil)
	if !ok || len(ids) != 2 || ids[0] != 7 || ids[1] != 8 {
		t.Fatalf("Next after Cancel = %v, %v; want the buffered [7 8]", ids, ok)
	}
	if ids, ok := s.Next(ids); ok || len(ids) != 0 {
		t.Fatalf("Next at end = %v, %v; want nothing and the end", ids, ok)
	}
	if s.Offered() != 8 {
		t.Fatalf("offered %d, want 8", s.Offered())
	}
	checkIdentity(t, "batch-fed", s)

	// A consumer parked on an empty ring is released by Cancel.
	s2, err := h.SubscribeBatch(SubOptions{Capacity: 4})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan bool)
	go func() {
		_, ok := s2.Next(nil)
		done <- ok
	}()
	time.Sleep(10 * time.Millisecond)
	s2.Cancel()
	select {
	case ok := <-done:
		if ok {
			t.Fatal("Next on an empty cancelled subscription reported ids")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Cancel did not release a parked Next")
	}
}

// TestNextCancelRace races publishers, a Next consumer and Cancel; once
// Next reports the end the accounting identity must hold exactly.
func TestNextCancelRace(t *testing.T) {
	h := New()
	defer h.Close()
	s, err := h.SubscribeBatch(SubOptions{Capacity: 64, Every: 3})
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var pubs sync.WaitGroup
	for g := 0; g < 2; g++ {
		pubs.Add(1)
		go func(g int) {
			defer pubs.Done()
			ids := make([]uint64, 37)
			for i := range ids {
				ids[i] = uint64(g*1000 + i)
			}
			for {
				select {
				case <-stop:
					return
				default:
					h.Publish(ids)
				}
			}
		}(g)
	}
	got := make(chan int)
	go func() { got <- len(drainNext(s)) }()
	time.Sleep(20 * time.Millisecond)
	s.Cancel()
	n := <-got
	close(stop)
	pubs.Wait()
	if uint64(n) != s.Delivered() {
		t.Fatalf("consumer took %d ids, Delivered says %d", n, s.Delivered())
	}
	checkIdentity(t, "batch-fed", s)
}

// offerPerID is the one-id-at-a-time offer loop the stride loop replaced:
// every offered id steps the decimation window, and each kept id spends a
// token and enters the ring. It is the oracle for TestOfferStride.
func offerPerID(s *Subscription, ids []uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	s.offered.Add(uint64(len(ids)))
	n := len(s.ring)
	if s.rate > 0 {
		now := s.now()
		if elapsed := float64(now-s.lastRefill) / 1e9; elapsed > 0 {
			s.tokens += elapsed * s.rate
			if s.tokens > s.rate {
				s.tokens = s.rate
			}
		}
		s.lastRefill = now
	}
	for _, id := range ids {
		if s.every > 1 {
			s.seen++
			if s.seen < s.every {
				s.filtered.Add(1)
				continue
			}
			s.seen = 0
		}
		if s.rate > 0 {
			if s.tokens < 1 {
				s.capped.Add(1)
				continue
			}
			s.tokens--
		}
		if s.size == n {
			s.ring[s.head] = id
			s.head++
			if s.head == n {
				s.head = 0
			}
			s.dropped.Add(1)
		} else {
			i := s.head + s.size
			if i >= n {
				i -= n
			}
			s.ring[i] = id
			s.size++
		}
	}
}

// ringState is everything offer may change, for comparing two
// subscriptions.
type ringState struct {
	Buffered                           []uint64
	Head, Size                         int
	Seen                               uint64
	Tokens                             float64
	Offered, Dropped, Filtered, Capped uint64
}

func snapshotRing(s *Subscription) ringState {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := ringState{Head: s.head, Size: s.size, Seen: s.seen, Tokens: s.tokens,
		Offered: s.offered.Load(), Dropped: s.dropped.Load(), Filtered: s.filtered.Load(), Capped: s.capped.Load()}
	for i := 0; i < s.size; i++ {
		st.Buffered = append(st.Buffered, s.ring[(s.head+i)%len(s.ring)])
	}
	return st
}

// TestOfferStride checks the stride offer against the per-id reference
// loop over random intervals, phases, ring sizes, rate caps and batch
// lengths: same kept ids in the same ring positions, same filtered, capped
// and dropped counts, same Seen phase and the same token balance.
func TestOfferStride(t *testing.T) {
	r := rand.New(rand.NewSource(15))
	for trial := 0; trial < 300; trial++ {
		o := SubOptions{
			Capacity:    1 + r.Intn(40),
			Every:       1 + r.Intn(20),
			InitialSeen: uint64(r.Intn(50)),
		}
		if r.Intn(2) == 0 {
			o.RatePerSec = uint32(1 + r.Intn(60))
		}
		h := New()
		a, err := h.SubscribeBatch(o)
		if err != nil {
			t.Fatal(err)
		}
		b, err := h.SubscribeBatch(o)
		if err != nil {
			t.Fatal(err)
		}
		var clock int64 = 3e9
		setClock(a, &clock)
		setClock(b, &clock)
		next := uint64(1)
		for round := 0; round < 25; round++ {
			ids := make([]uint64, r.Intn(3*o.Every+5))
			for i := range ids {
				ids[i] = next
				next++
			}
			a.offer(ids)
			offerPerID(b, ids)
			if sa, sb := snapshotRing(a), snapshotRing(b); fmt.Sprint(sa) != fmt.Sprint(sb) {
				t.Fatalf("trial %d round %d (%+v, %d ids): stride %+v, per-id %+v", trial, round, o, len(ids), sa, sb)
			}
			clock += int64(r.Intn(300)) * 1e6
		}
		h.Close()
	}
}
