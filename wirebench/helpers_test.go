package main

import (
	"math"
	"net"
	"net/http"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"nodesampling/internal/telemetry"
)

func TestNearestRank(t *testing.T) {
	xs := make([]float64, 0, 100)
	for i := 100; i >= 1; i-- {
		xs = append(xs, float64(i))
	}
	p50 := nearestRank(append([]float64(nil), xs...), 50)
	if p50.Value != 50 || p50.N != 100 || !p50.OK {
		t.Fatalf("p50 of 1..100 = %+v, want 50 over 100 samples", p50)
	}
	// Nearest rank of p99 over 100 samples is the 99th value; only one
	// sample lies beyond it, too few to report.
	p99 := nearestRank(append([]float64(nil), xs...), 99)
	if p99.Value != 99 || p99.OK {
		t.Fatalf("p99 of 1..100 = %+v, want 99 and not reportable", p99)
	}
	big := make([]float64, 1010)
	for i := range big {
		big[i] = float64(i + 1)
	}
	// ceil(0.99*1010) = 1000: ten samples beyond, just enough.
	if p := nearestRank(big, 99); p.Value != 1000 || !p.OK {
		t.Fatalf("p99 of 1..1010 = %+v, want 1000 and reportable", p)
	}
	if p := nearestRank(nil, 50); p.N != 0 || p.OK {
		t.Fatalf("empty sample reported %+v", p)
	}
	if p := nearestRank([]float64{7}, 50); p.Value != 7 || p.OK {
		t.Fatalf("single sample = %+v", p)
	}
}

func TestMedian(t *testing.T) {
	xs := []float64{3, 1, 2}
	if m := median(xs); m != 2 {
		t.Fatalf("median = %v", m)
	}
	if xs[0] != 3 {
		t.Fatal("median reordered its input")
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Fatalf("even median = %v", m)
	}
	if !math.IsNaN(median(nil)) {
		t.Fatal("median of nothing is not NaN")
	}
}

func TestDrawHistogramKL(t *testing.T) {
	pop := map[uint64]struct{}{1: {}, 2: {}, 3: {}, 4: {}}
	h := newDrawHistogram(pop)
	for id := uint64(1); id <= 4; id++ {
		for i := 0; i < 25; i++ {
			h.add(id)
		}
	}
	if kl, err := h.kl(); err != nil || kl > 1e-12 {
		t.Fatalf("uniform draws: kl = %v, %v; want 0", kl, err)
	}
	// All mass on one of four ids: KL = ln 4.
	h = newDrawHistogram(pop)
	for i := 0; i < 10; i++ {
		h.add(3)
	}
	if kl, err := h.kl(); err != nil || math.Abs(kl-math.Log(4)) > 1e-12 {
		t.Fatalf("point mass: kl = %v, %v; want ln 4", kl, err)
	}
	// Half the draws on ids 1 and 2 each: KL = ln 4 - ln 2 = ln 2. Ids
	// never drawn count towards the support all the same.
	h = newDrawHistogram(pop)
	h.add(1)
	h.add(2)
	if kl, _ := h.kl(); math.Abs(kl-math.Log(2)) > 1e-12 {
		t.Fatalf("two of four: kl = %v, want ln 2", kl)
	}
	h.add(99)
	if h.foreign != 1 {
		t.Fatalf("foreign = %d, want 1", h.foreign)
	}
	if kl, _ := h.kl(); math.Abs(kl-math.Log(2)) > 1e-12 {
		t.Fatalf("a foreign id changed the histogram: kl = %v", kl)
	}
	if _, err := newDrawHistogram(pop).kl(); err == nil {
		t.Fatal("KL of no draws did not fail")
	}
}

const traceDoc = `{"traceEvents":[
 {"name":"ingest","ph":"X","ts":1000,"dur":10,"pid":1,"tid":7,"args":{"trace_id":"7","span_id":"1","ids":1024}},
 {"name":"shard","ph":"X","ts":1004,"dur":100,"pid":1,"tid":7,"args":{"trace_id":"7","span_id":"2","parent_span_id":"1","ids":256}},
 {"name":"emit","ph":"X","ts":1090,"dur":30,"pid":1,"tid":7,"args":{"trace_id":"7","span_id":"3","parent_span_id":"2"}},
 {"name":"delivery","ph":"X","ts":1115,"dur":5,"pid":1,"tid":7,"args":{"trace_id":"7","span_id":"4","parent_span_id":"3","ids":256}}
],"metadata":{"sampled":true,"spanCount":4}}`

func TestAnalyzeTrace(t *testing.T) {
	spans, err := parseTrace([]byte(traceDoc))
	if err != nil {
		t.Fatal(err)
	}
	if len(spans) != 4 || spans[1].Parent != 1 || spans[0].IDs != 1024 {
		t.Fatalf("parsed %+v", spans)
	}
	st := analyzeSpans(spans)
	check := func(name string, got []float64, want float64) {
		t.Helper()
		if len(got) != 1 || math.Abs(got[0]-want) > 1e-9 {
			t.Errorf("%s = %v, want [%v]", name, got, want)
		}
	}
	// The shard span starts 4µs into the 10µs ingest span: 6µs of the
	// ingest interval are covered by its child.
	check("ingest self", st.IngestSelf, 4)
	check("queue wait", st.QueueWait, 4)
	// Shard self time: 100µs minus the emit child's 14µs inside it
	// (1090..1104), over 256 ids.
	check("shard ns/id", st.ShardNsPerID, 86*1e3/256)
	check("emit wait", st.EmitWait, 25)
	check("delivery self", st.Delivery, 5)

	if _, err := parseTrace([]byte(`{"traceEvents":[{"name":"x","args":{}}]}`)); err == nil {
		t.Error("span without span_id accepted")
	}
}

func TestSelfTimeOverlappingChildren(t *testing.T) {
	parent := &traceSpan{Start: 0, Dur: 100}
	kids := []*traceSpan{
		{Start: 10, Dur: 20},  // 10..30
		{Start: 20, Dur: 20},  // 20..40, overlaps the first
		{Start: 90, Dur: 50},  // 90..140, clipped to 90..100
		{Start: 200, Dur: 10}, // outside
	}
	if got := selfTime(parent, kids); got != 60 {
		t.Fatalf("self time = %v, want 60", got)
	}
	if got := selfTime(parent, nil); got != 100 {
		t.Fatalf("self time without children = %v", got)
	}
}

func TestReconcile(t *testing.T) {
	standalone := []memberCounts{{Processed: 900, Dropped: 100}}
	if err := reconcile(1000, standalone); err != nil {
		t.Fatal(err)
	}
	if err := reconcile(1001, standalone); err == nil {
		t.Fatal("a lost id passed")
	}
	// Member 0 forwarded 400 of 1000 ids and processed the rest; member 1
	// processed the forwarded ones.
	fleet := []memberCounts{{Processed: 600}, {Processed: 400}}
	if err := reconcile(1000, fleet); err != nil {
		t.Fatal(err)
	}
	fleet[1].Processed = 390
	err := reconcile(1000, fleet)
	if err == nil || !strings.Contains(err.Error(), "990") {
		t.Fatalf("missing forwarded ids: err = %v", err)
	}
}

func TestParseStatCPU(t *testing.T) {
	stat := "4242 (un sd) S 1 4242 4242 0 -1 4194560 1234 0 0 0 150 50 0 0 20 0 9 0 100 0 0"
	ns, err := parseStatCPU(stat)
	if err != nil || ns != 2e9 {
		t.Fatalf("cpu = %v, %v; want 2e9 ns", ns, err)
	}
	if _, err := parseStatCPU("garbage"); err == nil {
		t.Fatal("garbage parsed")
	}
}

func TestFreeAddrs(t *testing.T) {
	addrs, err := freeAddrs(4)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, a := range addrs {
		if seen[a] {
			t.Fatalf("duplicate address %s in %v", a, addrs)
		}
		seen[a] = true
		ln, err := net.Listen("tcp", a)
		if err != nil {
			t.Fatalf("reserved address %s not free again: %v", a, err)
		}
		ln.Close()
	}
}

func TestWaitReady(t *testing.T) {
	addrs, err := freeAddrs(1)
	if err != nil {
		t.Fatal(err)
	}
	url := "http://" + addrs[0] + "/stats"
	hc := &http.Client{Timeout: time.Second}
	srvErr := make(chan error, 1)
	var srv *http.Server
	started := make(chan struct{})
	go func() {
		// The listener comes up only after a while, as a daemon does.
		time.Sleep(50 * time.Millisecond)
		ln, err := net.Listen("tcp", addrs[0])
		if err != nil {
			srvErr <- err
			close(started)
			return
		}
		srv = &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {})}
		close(started)
		srvErr <- srv.Serve(ln)
	}()
	never := func() error { return nil }
	if err := waitReady(5*time.Second, time.Millisecond, func() error { return probeHTTP(hc, url) }, never); err != nil {
		t.Fatal(err)
	}
	<-started
	if srv == nil {
		t.Fatal(<-srvErr)
	}
	srv.Close()
	<-srvErr

	// A target that never answers times out; a dead one aborts at once.
	begin := time.Now()
	err = waitReady(30*time.Millisecond, time.Millisecond, func() error { return probeHTTP(hc, url) }, never)
	if err == nil || time.Since(begin) > 2*time.Second {
		t.Fatalf("never-ready target: err = %v after %v", err, time.Since(begin))
	}
	dead := func() error { return net.ErrClosed }
	if err := waitReady(time.Minute, time.Millisecond, func() error { return probeHTTP(hc, url) }, dead); err != net.ErrClosed {
		t.Fatalf("aborted wait returned %v", err)
	}
}

func TestSlices(t *testing.T) {
	t0 := time.Unix(0, 0)
	pts := []point{
		{at: t0, cpuNs: 0, counted: 0},
		{at: t0.Add(time.Second), cpuNs: 4e8, counted: 1e6},
		{at: t0.Add(2 * time.Second), cpuNs: 9e8, counted: 2e6},
		{at: t0.Add(2100 * time.Millisecond), cpuNs: 1e9, counted: 2.1e6}, // short drain
	}
	s := slices(pts)
	if len(s) != 2 {
		t.Fatalf("slices = %+v, want the two whole seconds", s)
	}
	r := &phaseResult{slices: s}
	if got := r.cpuPerID(); got != 450 {
		t.Fatalf("cpu per id = %v, want median of 400 and 500", got)
	}
	if got := r.idsPerSec(); got != 1e6 {
		t.Fatalf("ids/s = %v", got)
	}
}

func TestHistQuantile(t *testing.T) {
	// Bucket counts are cumulative; the window saw 10 observations, 4 at
	// most 1ms and 10 at most 2ms: the median lies 1/6 into (1ms, 2ms].
	before := scrapeOf(t, `# TYPE h histogram
h_bucket{le="0.001"} 2
h_bucket{le="0.002"} 2
h_bucket{le="+Inf"} 2
h_sum 0.001
h_count 2
`)
	after := scrapeOf(t, `# TYPE h histogram
h_bucket{le="0.001"} 6
h_bucket{le="0.002"} 12
h_bucket{le="+Inf"} 12
h_sum 0.02
h_count 12
`)
	q, n := histQuantile(before, after, "h", 0.5)
	if n != 10 || math.Abs(q-(0.001+0.001/6)) > 1e-12 {
		t.Fatalf("p50 = %v over %v", q, n)
	}
	if _, n := histQuantile(after, after, "h", 0.5); n != 0 {
		t.Fatalf("empty window counted %v observations", n)
	}
}

func scrapeOf(t *testing.T, exposition string) []*telemetry.Scrape {
	t.Helper()
	s, err := telemetry.Parse(strings.NewReader(exposition))
	if err != nil {
		t.Fatal(err)
	}
	return []*telemetry.Scrape{s}
}

// TestStartFleet builds unsd from this tree and brings a two-member
// cluster up: startFleet must return only once both members answer and
// report each other connected, and stop must reap both processes.
func TestStartFleet(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs unsd")
	}
	bin := filepath.Join(t.TempDir(), "unsd")
	build := exec.Command("go", "build", "-o", bin, "./cmd/unsd")
	build.Dir = ".."
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build unsd: %v\n%s", err, out)
	}
	f, secs, err := startFleet(bin, 2, []string{"-shards", "2", "-seed", "7", "-trace-sample", "0"})
	if err != nil {
		t.Fatal(err)
	}
	defer f.stop()
	if secs <= 0 || len(f.members) != 2 {
		t.Fatalf("set-up took %vs with %d members", secs, len(f.members))
	}
	scrapes, err := f.scrapeAll()
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range scrapes {
		if n, _ := s.Sum("unsd_cluster_member_connected"); n != 2 {
			t.Errorf("member %d reports %v of 2 members connected", i, n)
		}
	}
	f.stop()
	for i, d := range f.members {
		if !d.exited() {
			t.Errorf("member %d still running after stop", i)
		}
	}
}
