package main

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"nodesampling"
	"nodesampling/client"
	"nodesampling/internal/metrics"
	"nodesampling/internal/rng"
	"nodesampling/internal/telemetry"
)

const (
	batchLen     = 1024 // ids per pushed batch
	inputBatches = 512  // distinct pre-generated batches, cycled
	ackEvery     = 8    // a Ping follows every 8th batch
	sampleN      = 16   // ids per Sample request
	sampleRate   = 1000 // Sample requests per second
	subEvery     = 16   // σ′ decimation of the subscription
	subCapacity  = 1 << 16
	warmup       = time.Second
	setups       = 15 // daemon starts per phase; setup_s is their median
	sliceDur     = time.Second
	traceEvery   = 64 // -trace-sample of the traced phase
)

// workload is one traffic mix against one daemon or a two-member fleet.
type workload struct {
	name      string
	members   int
	block     bool    // -block: producers wait on full shard queues
	honest    int     // distinct honest ids in the input
	victim    bool    // one victim id carries half of the input stream
	rate      float64 // open-loop push rate, ids/s; 0 = closed loop
	subscribe bool    // connection 2 subscribes to σ′ (every=16)
	sample    bool    // connection 2 runs Sample(16) at sampleRate
}

var workloads = []workload{
	{name: "ingest-saturate", members: 1, block: true, honest: 65536, victim: true},
	{name: "mixed-open", members: 1, honest: 4096, victim: true, rate: 2e6, subscribe: true, sample: true},
	{name: "fleet-forward", members: 2, honest: 65536, rate: 1e6, sample: true},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// inputs are the seeded batches a workload offers, generated before any
// timing, and the population they are drawn from.
type inputs struct {
	batches    [][]nodesampling.NodeID
	raw        [][]uint64 // the same batches, for the in-process layer replay
	population map[uint64]struct{}
	inputKL    float64 // KL divergence of the offered stream from uniform
}

func makeInputs(w workload, seed uint64) (*inputs, error) {
	r := rng.New(seed)
	pop := make(map[uint64]struct{}, w.honest+1)
	ids := make([]uint64, 0, w.honest+1)
	for len(ids) < w.honest+1 {
		id := r.Uint64()
		if _, dup := pop[id]; id == 0 || dup {
			continue
		}
		pop[id] = struct{}{}
		ids = append(ids, id)
	}
	victim, honest := ids[0], ids[1:]
	if !w.victim {
		honest = ids[:w.honest]
		delete(pop, ids[w.honest])
	}
	in := &inputs{population: pop}
	hist := metrics.NewHistogram()
	for b := 0; b < inputBatches; b++ {
		raw := make([]uint64, batchLen)
		for i := range raw {
			if w.victim && r.Uint64()&1 == 0 {
				raw[i] = victim
			} else {
				raw[i] = honest[r.Intn(len(honest))]
			}
			hist.Add(raw[i])
		}
		batch := make([]nodesampling.NodeID, batchLen)
		for i, id := range raw {
			batch[i] = nodesampling.NodeID(id)
		}
		in.raw = append(in.raw, raw)
		in.batches = append(in.batches, batch)
	}
	kl, err := hist.KLvsUniform(len(pop))
	if err != nil {
		return nil, err
	}
	in.inputKL = kl
	return in, nil
}

// clientSpan is one of the benchmark's own spans around a client call,
// kept in memory during a traced phase.
type clientSpan struct {
	dur time.Duration
	ids int
}

// tally is what one driving goroutine observed; tallies merge after the
// goroutines are joined.
type tally struct {
	offered   uint64 // ids of pushes the client accepted
	rpcs      uint64
	rpcFailed uint64
	pushLost  uint64    // ids of pushes that returned an error
	short     uint64    // Sample answers with fewer than sampleN ids
	acks      []float64 // push→ack latency from the batch's due time, ms
	late      []float64 // how late the open-loop generator sent, ms
	samples   []float64 // Sample(16) round trips, µs
	pushSpans []clientSpan
}

func (t *tally) merge(o tally) {
	t.offered += o.offered
	t.rpcs += o.rpcs
	t.rpcFailed += o.rpcFailed
	t.pushLost += o.pushLost
	t.short += o.short
	t.acks = append(t.acks, o.acks...)
	t.late = append(t.late, o.late...)
	t.samples = append(t.samples, o.samples...)
	t.pushSpans = append(t.pushSpans, o.pushSpans...)
}

// pusher drives one connection's pushes over the cycled input batches.
type pusher struct {
	c      *client.Client
	in     *inputs
	cursor int
	traced bool
}

// push sends the next batch and, on every ackEvery-th, a Ping, timing the
// ack from due.
func (p *pusher) push(t *tally, i int, due time.Time) {
	b := p.in.batches[p.cursor%len(p.in.batches)]
	p.cursor++
	began := time.Now()
	err := p.c.PushBatch(b)
	if p.traced {
		t.pushSpans = append(t.pushSpans, clientSpan{dur: time.Since(began), ids: len(b)})
	}
	if err != nil {
		t.pushLost += uint64(len(b))
		return
	}
	t.offered += uint64(len(b))
	if i%ackEvery == ackEvery-1 {
		t.rpcs++
		if err := p.c.Ping(); err != nil {
			t.rpcFailed++
			return
		}
		t.acks = append(t.acks, ms(time.Since(due)))
	}
}

// closedLoop pushes back to back until end; each batch is due when sent.
func (p *pusher) closedLoop(end time.Time) tally {
	var t tally
	for i := 0; ; i++ {
		now := time.Now()
		if !now.Before(end) || p.c.Err() != nil {
			return t
		}
		p.push(&t, i, now)
	}
}

// paced calls step for event i when it falls due, at start + i/rate, until
// dur has passed: it sleeps while ahead of schedule and never waits for a
// slow step, so a stall makes later events late. It returns how late each
// event began, in ms.
func paced(rate float64, dur time.Duration, alive func() bool, step func(i int, due time.Time)) []float64 {
	var late []float64
	interval := time.Duration(float64(time.Second) / rate)
	start := time.Now()
	for i := 0; ; i++ {
		due := start.Add(time.Duration(i) * interval)
		if due.Sub(start) >= dur || !alive() {
			return late
		}
		// A signal can end the sleep early; sleep again until due.
		for d := time.Until(due); d > 0; d = time.Until(due) {
			sleep(d)
		}
		late = append(late, ms(time.Since(due)))
		step(i, due)
	}
}

// sleep blocks the calling goroutine's thread in nanosleep(2), which wakes
// within tens of microseconds; the runtime's timers wake up to a
// millisecond late on an otherwise idle process, which would make the open
// loop's own lateness the largest part of every sub-millisecond latency.
func sleep(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	_ = syscall.Nanosleep(&ts, nil)
}

// openLoop pushes one batch every batchLen/rate seconds on a fixed
// schedule, whatever the daemon's answers cost; ack latencies count from
// when the batch was due.
func (p *pusher) openLoop(rate float64, dur time.Duration) tally {
	var t tally
	alive := func() bool { return p.c.Err() == nil }
	t.late = paced(rate/batchLen, dur, alive, func(i int, due time.Time) { p.push(&t, i, due) })
	return t
}

// sampleLoop sends Sample(sampleN) at sampleRate per second with one
// request outstanding and times each round trip. The fixed rate keeps the
// daemon's read work per pushed id the same from run to run. Once warm,
// every answer must hold sampleN ids of the population.
func sampleLoop(c *client.Client, dur time.Duration, warm bool, seen *drawHistogram) tally {
	var t tally
	alive := func() bool { return c.Err() == nil }
	paced(sampleRate, dur, alive, func(int, time.Time) {
		began := time.Now()
		ids, err := c.Sample(sampleN)
		t.rpcs++
		if err != nil {
			t.rpcFailed++
			return
		}
		t.samples = append(t.samples, us(time.Since(began)))
		if warm && len(ids) != sampleN {
			t.short++
		}
		for _, id := range ids {
			seen.add(uint64(id))
		}
	})
	return t
}

// sigmaSink drains the σ′ subscription into a draw histogram.
type sigmaSink struct {
	mu       sync.Mutex
	hist     *drawHistogram
	received atomic.Uint64
	done     chan struct{}
}

func newSigmaSink(ch <-chan nodesampling.NodeID, pop map[uint64]struct{}) *sigmaSink {
	s := &sigmaSink{hist: newDrawHistogram(pop), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		for id := range ch {
			s.mu.Lock()
			s.hist.add(uint64(id))
			s.mu.Unlock()
			s.received.Add(1)
		}
	}()
	return s
}

// reset starts a fresh histogram and returns the draws received so far.
func (s *sigmaSink) reset() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.hist = newDrawHistogram(s.hist.population)
	return s.received.Load()
}

// result is the KL divergence of the draws since the last reset and how
// many of them lay outside the population.
func (s *sigmaSink) result() (kl float64, foreign uint64, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	kl, err = s.hist.kl()
	return kl, s.hist.foreign, err
}

// phaseResult is everything one daemon lifecycle measured.
type phaseResult struct {
	setupSecs []float64
	total     tally   // warm-up and window together, for the failure count
	window    tally   // the timed window only
	slices    []slice // first window push → last offered id counted
	stealFrac float64 // share of the host's CPU time the hypervisor took
	rssMiB    float64
	before    []*telemetry.Scrape
	after     []*telemetry.Scrape
	dropped   uint64 // ids dropped over the whole phase

	sigmaFrac  float64
	outputKL   float64
	traces     [][]byte
	pushAllocs float64 // mallocs per pushed frame in the benchmark process

	failures []string // correctness failures
}

// idsPerSec and cpuPerID are the medians over the window's slices of the
// ids counted per second and the daemon CPU per counted id: a stall of the
// host moves a slice or two, not the median.
func (r *phaseResult) idsPerSec() float64 {
	xs := make([]float64, len(r.slices))
	for i, s := range r.slices {
		xs[i] = s.ids / s.secs
	}
	return median(xs)
}

func (r *phaseResult) cpuPerID() float64 {
	xs := make([]float64, len(r.slices))
	for i, s := range r.slices {
		xs[i] = s.cpuNs / s.ids
	}
	return median(xs)
}

func (r *phaseResult) fail(format string, args ...any) {
	r.failures = append(r.failures, fmt.Sprintf(format, args...))
}

type phaseOpts struct {
	bin     string
	seed    uint64
	seconds float64
	traced  bool
}

// runPhase sets the workload's daemons up, warms them, drives the timed
// window, reconciles the counters and tears everything down.
func runPhase(w workload, in *inputs, o phaseOpts) (*phaseResult, error) {
	shared := []string{"-shards", "4", "-seed", strconv.FormatUint(o.seed|1, 10),
		"-trace-sample", "0"}
	if o.traced {
		shared[len(shared)-1] = strconv.Itoa(traceEvery)
	}
	if w.block {
		shared = append(shared, "-block")
	} else {
		// The default 64-batch queues hold 32 ms of a 2M ids/s stream,
		// less than a scheduling stall of a small shared host lasts; the
		// open loop's catch-up burst after such a stall would be shed.
		// 256 batches keep drops a measure of the daemon, not of the host.
		shared = append(shared, "-buffer", "256")
	}
	res := &phaseResult{}
	var f *fleet
	for i := 0; i < setups; i++ {
		g, secs, err := startFleet(o.bin, w.members, shared)
		if err != nil {
			return nil, err
		}
		res.setupSecs = append(res.setupSecs, secs)
		if i < setups-1 {
			g.stop()
			continue
		}
		f = g
	}
	defer f.stop()

	push, err := client.Dial(f.members[0].stream)
	if err != nil {
		return nil, err
	}
	defer push.Close()
	aux, err := client.Dial(f.members[len(f.members)-1].stream)
	if err != nil {
		return nil, err
	}
	defer aux.Close()

	var sink *sigmaSink
	if w.subscribe {
		ch, err := aux.SubscribeEvery(subCapacity, subEvery)
		if err != nil {
			return nil, err
		}
		sink = newSigmaSink(ch, in.population)
	}
	p1 := &pusher{c: push, in: in, traced: o.traced}
	p2 := &pusher{c: aux, in: in, cursor: len(in.batches) / 2, traced: o.traced}
	seen := newDrawHistogram(in.population)

	drive := func(dur time.Duration, warm bool) tally {
		end := time.Now().Add(dur)
		var a, b tally
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			if w.rate > 0 {
				a = p1.openLoop(w.rate, dur)
			} else {
				a = p1.closedLoop(end)
			}
		}()
		go func() {
			defer wg.Done()
			switch {
			case w.sample:
				b = sampleLoop(aux, dur, warm, seen)
			case w.rate == 0:
				b = p2.closedLoop(end)
			}
		}()
		wg.Wait()
		a.merge(b)
		return a
	}

	warmT := drive(warmup, false)
	res.total.merge(warmT)
	if _, err := f.waitCounted(res.total.offered); err != nil {
		return nil, err
	}
	if sink != nil {
		if _, err := f.waitSigma(sink, aux); err != nil {
			return nil, err
		}
	}
	if res.before, err = f.scrapeAll(); err != nil {
		return nil, err
	}
	var sigma0 uint64
	if sink != nil {
		sigma0 = sink.reset()
	}
	p0, err := f.point(res.before)
	if err != nil {
		return nil, err
	}
	// The window drives in the background while this goroutine reads the
	// daemons' CPU time and counters once per slice.
	done := make(chan tally, 1)
	go func() { done <- drive(time.Duration(o.seconds*float64(time.Second)), true) }()
	pts := []point{p0}
	tick := time.NewTicker(sliceDur)
	var sliceErr error
	for running := true; running; {
		select {
		case res.window = <-done:
			running = false
		case <-tick.C:
			pt, err := f.point(nil)
			if err != nil {
				sliceErr = err
				continue
			}
			pts = append(pts, pt)
		}
	}
	tick.Stop()
	if sliceErr != nil {
		return nil, sliceErr
	}
	res.total.merge(res.window)
	counted, err := f.waitCounted(res.total.offered)
	if err != nil {
		return nil, err
	}
	pEnd, err := f.point(counted)
	if err != nil {
		return nil, err
	}
	res.slices = slices(append(pts, pEnd))
	res.stealFrac = (pEnd.steal - p0.steal) / (pEnd.hostTicks - p0.hostTicks)
	if res.rssMiB, err = f.peakRSSMiB(); err != nil {
		return nil, err
	}
	res.after = counted
	if sink != nil {
		after, err := f.waitSigma(sink, aux)
		if err != nil {
			return nil, err
		}
		res.after = after
		offered := subDelta(res.before, after, "unsd_subscriber_offered_ids_total") -
			subDelta(res.before, after, "unsd_subscriber_filtered_ids_total")
		got := float64(sink.received.Load() - sigma0)
		if offered > 0 {
			res.sigmaFrac = got / offered
		}
		kl, foreign, err := sink.result()
		res.outputKL = kl
		if foreign > 0 {
			res.fail("%d σ′ draws outside the generated population", foreign)
		}
		if err != nil {
			res.fail("output KL: %v", err)
		} else if res.outputKL >= in.inputKL {
			res.fail("output KL %.4f not below input KL %.4f: the sampler removed no bias", res.outputKL, in.inputKL)
		}
	}
	if o.traced {
		for _, d := range f.members {
			doc, err := f.fetchTrace(d)
			if err != nil {
				return nil, err
			}
			res.traces = append(res.traces, doc)
		}
	}

	// The subscription and sampler connection close first, so the
	// allocation count below sees only the pushing goroutine.
	_ = aux.Close()
	if sink != nil {
		<-sink.done
	}
	if o.traced {
		allocs, ids, err := measurePushAllocs(f, push, in, res.total.offered)
		if err != nil {
			return nil, err
		}
		res.pushAllocs = allocs
		res.total.offered += ids
	}
	final, err := f.waitCounted(res.total.offered)
	if err != nil {
		res.fail("%v", err)
	}
	for _, s := range final {
		res.dropped += counts(s).Dropped
	}
	if seen.foreign > 0 {
		res.fail("%d sampled ids outside the generated population", seen.foreign)
	}
	if res.window.short > 0 {
		res.fail("%d warm Sample(%d) answers held fewer than %d ids", res.window.short, sampleN, sampleN)
	}
	if w.sample && len(res.window.samples) == 0 {
		res.fail("no Sample answered in the window")
	}
	if res.total.pushLost > 0 {
		res.fail("pushes of %d ids failed", res.total.pushLost)
	}
	for i, d := range f.members {
		if d.exited() {
			res.fail("member %d exited: %s", i, d.log.String())
		}
	}
	return res, nil
}

// measurePushAllocs counts heap allocations per client.PushBatch frame in
// this process, with no other benchmark goroutine running. The frames go
// out in groups the daemon's queues can absorb, each counted before the
// next, so the measurement drops nothing; only the pushes are counted.
func measurePushAllocs(f *fleet, c *client.Client, in *inputs, offered uint64) (perFrame float64, ids uint64, err error) {
	const groups, group = 16, 16
	var mallocs uint64
	var before, after runtime.MemStats
	runtime.GC()
	for g := 0; g < groups; g++ {
		runtime.ReadMemStats(&before)
		for i := 0; i < group; i++ {
			b := in.batches[(g*group+i)%len(in.batches)]
			if err := c.PushBatch(b); err != nil {
				return 0, ids, err
			}
			ids += uint64(len(b))
		}
		runtime.ReadMemStats(&after)
		mallocs += after.Mallocs - before.Mallocs
		if _, err := f.waitCounted(offered + ids); err != nil {
			return 0, ids, err
		}
	}
	return float64(mallocs) / (groups * group), ids, nil
}

// point is one reading of the fleet's CPU time and counted ids.
type point struct {
	at               time.Time
	cpuNs            float64
	counted          float64
	steal, hostTicks float64
}

// point reads the fleet's CPU time and, unless scrapes are given, scrapes
// its counters.
func (f *fleet) point(scrapes []*telemetry.Scrape) (point, error) {
	at := time.Now()
	cpu, err := f.cpuNanos()
	if err != nil {
		return point{}, err
	}
	steal, ticks, err := hostSteal()
	if err != nil {
		return point{}, err
	}
	if scrapes == nil {
		if scrapes, err = f.scrapeAll(); err != nil {
			return point{}, err
		}
	}
	p := point{at: at, cpuNs: cpu, steal: steal, hostTicks: ticks}
	for _, s := range scrapes {
		c := counts(s)
		p.counted += float64(c.Processed + c.Dropped)
	}
	return p, nil
}

// slice is the work the fleet counted and the CPU it spent between two
// points.
type slice struct {
	secs, ids, cpuNs float64
}

// slices turns consecutive points into slices, dropping a closing slice
// shorter than half a sliceDur (the drain after the last push).
func slices(pts []point) []slice {
	var out []slice
	for i := 1; i < len(pts); i++ {
		s := slice{
			secs:  pts[i].at.Sub(pts[i-1].at).Seconds(),
			ids:   pts[i].counted - pts[i-1].counted,
			cpuNs: pts[i].cpuNs - pts[i-1].cpuNs,
		}
		if s.secs < sliceDur.Seconds()/2 || s.ids <= 0 {
			continue
		}
		out = append(out, s)
	}
	return out
}

// waitCounted polls every member's /metrics until the fleet has counted
// exactly offered ids (processed + dropped), and returns the final scrapes.
func (f *fleet) waitCounted(offered uint64) ([]*telemetry.Scrape, error) {
	deadline := time.Now().Add(30 * time.Second)
	for {
		scrapes, err := f.scrapeAll()
		if err != nil {
			return nil, err
		}
		cs := make([]memberCounts, len(scrapes))
		for i, s := range scrapes {
			cs[i] = counts(s)
		}
		err = reconcile(offered, cs)
		if err == nil {
			return scrapes, nil
		}
		if time.Now().After(deadline) {
			return nil, err
		}
		time.Sleep(time.Millisecond)
	}
}

// waitSigma waits until the σ′ stream has gone quiet and the subscriber has
// received (or counted as dropped on its side) every draw the daemon
// delivered to its connection.
func (f *fleet) waitSigma(s *sigmaSink, c *client.Client) ([]*telemetry.Scrape, error) {
	deadline := time.Now().Add(10 * time.Second)
	last := math.NaN()
	for {
		scrapes, err := f.scrapeAll()
		if err != nil {
			return nil, err
		}
		offered, _ := scrapes[len(scrapes)-1].Sum("unsd_subscriber_offered_ids_total")
		delivered, _ := scrapes[len(scrapes)-1].Sum("unsd_subscriber_delivered_ids_total")
		got := float64(s.received.Load() + c.StreamDropped())
		if offered == last && got >= delivered {
			return scrapes, nil
		}
		if time.Now().After(deadline) {
			return nil, errors.New("σ′ stream did not settle")
		}
		last = offered
		time.Sleep(5 * time.Millisecond)
	}
}

// subDelta is the change of a subscriber counter between two scrapes of the
// subscribed member.
func subDelta(before, after []*telemetry.Scrape, name string) float64 {
	a, _ := after[len(after)-1].Sum(name)
	b, _ := before[len(before)-1].Sum(name)
	return a - b
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
