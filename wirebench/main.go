// Command wirebench is the repository's benchmark. It spawns an unsd
// binary built from the tree under test (run.sh builds both), drives one
// workload over loopback through the public client package, checks the
// outputs and reports the end-to-end metrics (-trace 0) or the per-layer
// ledger from a second, traced run (-trace 1) as one JSON line:
//
//	bash wirebench/run.sh --workload mixed-open --seed 1 --seconds 10 --trace 0
//
// The metric names and units it must report are read from BENCHMARK.json
// at the repository root. Human-readable lines, every measured metric among
// them, precede the JSON result; a run that fails a correctness check
// prints the failures, reports no numbers and exits non-zero.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"

	"nodesampling/internal/telemetry"
)

type spec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

// specPath is the benchmark definition, relative to the repository root
// the benchmark runs from.
const specPath = "BENCHMARK.json"

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// metric is one measured value. A metric that does not apply to the
// workload, or whose percentile has too few samples beyond it, carries the
// reason in na instead.
type metric struct {
	value float64
	unit  string
	n     int // sample count behind a percentile; 0 otherwise
	na    string
}

type metricSet map[string]metric

func (ms metricSet) set(name, unit string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		ms[name] = metric{unit: unit, na: "not measured"}
		return
	}
	ms[name] = metric{value: v, unit: unit}
}

func (ms metricSet) na(name, unit, why string) { ms[name] = metric{unit: unit, na: why} }

// pct records a nearest-rank percentile of xs, scaled, when enough samples
// lie beyond it.
func (ms metricSet) pct(name, unit string, xs []float64, p float64) {
	pc := nearestRank(append([]float64(nil), xs...), p)
	switch {
	case pc.N == 0:
		ms.na(name, unit, "no samples")
	case !pc.OK:
		ms[name] = metric{unit: unit, n: pc.N, na: fmt.Sprintf("fewer than %d of %d samples beyond p%g", minBeyond, pc.N, p)}
	default:
		ms[name] = metric{value: pc.Value, unit: unit, n: pc.N}
	}
}

type result struct {
	Correct   bool                      `json:"correct"`
	Attempted uint64                    `json:"attempted"`
	Failed    uint64                    `json:"failed"`
	Metrics   map[string]map[string]any `json:"metrics"`
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "wirebench:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		name    = flag.String("workload", "", "workload name (see BENCHMARK.json)")
		seed    = flag.Uint64("seed", 1, "input seed")
		seconds = flag.Float64("seconds", 10, "length of the timed window, seconds")
		traced  = flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
		bin     = flag.String("unsd", "", "path of the unsd binary to benchmark")
	)
	flag.Parse()
	raw, err := os.ReadFile(specPath)
	if err != nil {
		return err
	}
	var sp spec
	if err := json.Unmarshal(raw, &sp); err != nil {
		return fmt.Errorf("%s: %w", specPath, err)
	}
	w, err := findWorkload(*name)
	if err != nil {
		return err
	}
	if *bin == "" {
		return errors.New("-unsd is required")
	}
	if *seconds <= 0 || (*traced != 0 && *traced != 1) {
		return errors.New("-seconds must be positive and -trace 0 or 1")
	}
	in, err := makeInputs(w, *seed)
	if err != nil {
		return err
	}
	fmt.Printf("workload %s  seed %d  seconds %g  trace %d  (%s, GOMAXPROCS %d)\n",
		w.name, *seed, *seconds, *traced, runtime.Version(), runtime.GOMAXPROCS(0))
	opts := phaseOpts{bin: *bin, seed: *seed, seconds: *seconds}
	plain, err := runPhase(w, in, opts)
	if err != nil {
		return err
	}
	phases := []*phaseResult{plain}
	ms := endToEnd(w, in, plain)
	want := sp.EndToEnd
	var budget string
	if *traced == 1 {
		opts.traced = true
		tr, err := runPhase(w, in, opts)
		if err != nil {
			return err
		}
		phases = append(phases, tr)
		layers, err := replayLayers(in.raw, *seed)
		if err != nil {
			return err
		}
		ms, budget = perLayer(w, ms, tr, layers)
		want = sp.PerLayer
	}

	var attempted, dropped, lost, rpcFailed uint64
	var failures []string
	for _, p := range phases {
		attempted += p.total.offered + p.total.pushLost + p.total.rpcs
		dropped += p.dropped
		lost += p.total.pushLost
		rpcFailed += p.total.rpcFailed
		failures = append(failures, p.failures...)
	}
	failed := dropped + lost + rpcFailed
	res := result{Attempted: attempted, Failed: failed, Metrics: map[string]map[string]any{}}
	operations := fmt.Sprintf("  operations: attempted %d (ids offered + RPCs sent), failed %d (%d ids dropped, %d ids in failed pushes, %d RPCs failed)\n",
		attempted, failed, dropped, lost, rpcFailed)
	if len(failures) > 0 {
		fmt.Print(operations)
		for _, f := range failures {
			fmt.Println("  CHECK FAILED:", f)
		}
		printJSON(res)
		return errors.New("correctness checks failed")
	}
	fmt.Print(budget)
	report(ms)
	fmt.Print(operations)
	for _, sm := range want {
		m, ok := ms[sm.Name]
		if !ok || m.na != "" {
			return fmt.Errorf("metric %s not measured on %s: %s", sm.Name, w.name, m.na)
		}
		if m.unit != sm.Unit {
			return fmt.Errorf("metric %s measured in %s, BENCHMARK.json says %s", sm.Name, m.unit, sm.Unit)
		}
		res.Metrics[sm.Name] = map[string]any{"value": m.value, "unit": m.unit}
	}
	fmt.Println("  checks: ok")
	res.Correct = true
	printJSON(res)
	return nil
}

func printJSON(r result) {
	b, _ := json.Marshal(r)
	fmt.Println(string(b))
}

func report(ms metricSet) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := ms[n]
		switch {
		case m.na != "":
			fmt.Printf("  %-44s n/a (%s)\n", n, m.na)
		case m.n > 0:
			fmt.Printf("  %-44s %.6g %s  (n=%d)\n", n, m.value, m.unit, m.n)
		default:
			fmt.Printf("  %-44s %.6g %s\n", n, m.value, m.unit)
		}
	}
}

// endToEnd computes the user-visible metrics of an untraced phase.
func endToEnd(w workload, in *inputs, r *phaseResult) metricSet {
	ms := metricSet{}
	ids := float64(r.window.offered)
	ms.set("setup_s", "s", median(r.setupSecs))
	ms.set("ingest_ids_per_s", "ids/s", r.idsPerSec())
	ms.set("cpu_ns_per_id", "ns/id", r.cpuPerID())
	ms.set("rss_mb", "MiB", r.rssMiB)
	ms.set("host.steal_frac", "ratio", r.stealFrac)
	dropped := sumDelta(r.before, r.after, "unsd_pool_dropped_ids_total")
	ms.set("ingest_drop_frac", "ratio", dropped/ids)
	ms.pct("push_ack_p50_ms", "ms", r.window.acks, 50)
	ms.pct("push_ack_p99_ms", "ms", r.window.acks, 99)
	if w.sample {
		ms.pct("sample_p50_us", "us", r.window.samples, 50)
		ms.pct("sample_p99_us", "us", r.window.samples, 99)
	} else {
		ms.na("sample_p50_us", "us", "no reads on this workload")
		ms.na("sample_p99_us", "us", "no reads on this workload")
	}
	if w.subscribe {
		ms.set("sigma_delivered_frac", "ratio", r.sigmaFrac)
		ms.set("output_kl", "nats", r.outputKL)
		ms.set("input_kl", "nats", in.inputKL)
	} else {
		ms.na("sigma_delivered_frac", "ratio", "no σ′ subscriber on this workload")
		ms.na("output_kl", "nats", "no σ′ subscriber on this workload")
	}
	return ms
}

// perLayer computes the ledger: per-layer metrics from the traced phase and
// the in-process replay, the tracing overhead, and the stage budget.
func perLayer(w workload, plain metricSet, tr *phaseResult, layers map[string]float64) (metricSet, string) {
	ms := metricSet{}
	for k, v := range layers {
		ms.set(k, layerUnit(k), v)
	}
	ids := float64(tr.window.offered)
	var pushNs, pushIDs float64
	for _, s := range tr.window.pushSpans {
		pushNs += float64(s.dur)
		pushIDs += float64(s.ids)
	}
	ms.set("client.push_ns_per_id", "ns/id", pushNs/pushIDs)
	ms.set("client.push_allocs_per_frame", "allocs/frame", tr.pushAllocs)
	ms.set("host.steal_frac", "ratio", tr.stealFrac)

	hist := func(name, metricName string, applies bool, why string) {
		if !applies {
			ms.na(metricName, "us", why)
			return
		}
		q, n := histQuantile(tr.before, tr.after, name, 0.5)
		if n == 0 {
			ms.na(metricName, "us", "no observations")
			return
		}
		ms.set(metricName, "us", q*1e6)
	}
	hist("unsd_ingest_batch_duration_seconds", "unsd.ingest_batch_p50_us", true, "")
	hist("unsd_emit_delivery_lag_seconds", "unsd.emit_lag_p50_us", w.subscribe, "no σ′ subscriber on this workload")
	hist("unsd_sample_duration_seconds", "unsd.sample_p50_us", w.sample, "no reads on this workload")

	var spans []traceSpan
	for _, doc := range tr.traces {
		s, err := parseTrace(doc)
		if err != nil {
			tr.fail("%v", err)
			continue
		}
		spans = append(spans, s...)
	}
	st := analyzeSpans(spans)
	spanMetric := func(name, unit string, xs []float64) {
		if len(xs) == 0 {
			ms.na(name, unit, "no such spans on this workload")
			return
		}
		ms.set(name, unit, median(xs))
	}
	spanMetric("unsd.span.ingest_self_us", "us", st.IngestSelf)
	spanMetric("unsd.span.queue_wait_us", "us", st.QueueWait)
	spanMetric("unsd.span.shard_ns_per_id", "ns/id", st.ShardNsPerID)
	spanMetric("unsd.span.emit_wait_us", "us", st.EmitWait)
	spanMetric("unsd.span.delivery_us", "us", st.Delivery)

	forwarded := sumDelta(tr.before, tr.after, "unsd_cluster_forwarded_ids_total")
	if w.members > 1 {
		ms.set("cluster.forwarded_frac", "ratio", forwarded/ids)
		ms.set("cluster.fallback_frac", "ratio", sumDelta(tr.before, tr.after, "unsd_cluster_fallback_ids_total")/ids)
	} else {
		ms.na("cluster.forwarded_frac", "ratio", "standalone daemon")
		ms.na("cluster.fallback_frac", "ratio", "standalone daemon")
	}
	if w.rate > 0 {
		ms.pct("loadgen.late_p99_ms", "ms", tr.window.late, 99)
	} else {
		ms.na("loadgen.late_p99_ms", "ms", "closed loop")
	}

	cpu := plain["cpu_ns_per_id"].value
	ms.set("trace.overhead_frac", "ratio", tr.cpuPerID()/cpu-1)

	// The stage budget: the daemon-side self cost per id of every layer an
	// id crosses on this workload, against the daemon's measured CPU.
	type stage struct {
		name string
		per  float64 // how many times an offered id crosses the stage
	}
	stages := []stage{{"netgossip.decode_ns_per_id", 1}}
	if w.rate == 0 {
		stages = append(stages, stage{"telemetry.probe_offer_contended_ns_per_id", 1})
	} else {
		stages = append(stages, stage{"telemetry.probe_offer_ns_per_id", 1})
	}
	stages = append(stages, stage{"shard.push_ns_per_id", 1})
	if w.subscribe {
		stages = append(stages, stage{"core.process_emit_ns_per_id", 1}, stage{"subhub.publish_ns_per_id_1sub", 1})
	} else {
		stages = append(stages, stage{"core.process_ns_per_id", 1})
	}
	if w.members > 1 {
		f := forwarded / ids
		stages = append(stages,
			stage{"cluster.partition_ns_per_id", 1},
			stage{"netgossip.encode_ns_per_id", f},
			stage{"netgossip.decode_ns_per_id", f},
			stage{"telemetry.probe_offer_ns_per_id", f})
	}
	var b strings.Builder
	fmt.Fprintf(&b, "  stage budget (daemon CPU per offered id, untraced cpu_ns_per_id %.1f ns/id):\n", cpu)
	sum := 0.0
	for _, s := range stages {
		v := ms[s.name].value * s.per
		sum += v
		fmt.Fprintf(&b, "    %-44s %8.1f ns/id  (x%.3g)\n", s.name, v, s.per)
	}
	fmt.Fprintf(&b, "    %-44s %8.1f ns/id\n", "sum of stages", sum)
	ms.set("budget.unattributed_ns_per_id", "ns/id", cpu-sum)
	fmt.Fprintf(&b, "    %-44s %8.1f ns/id\n", "unattributed (budget.unattributed_ns_per_id)", cpu-sum)
	return ms, b.String()
}

func layerUnit(name string) string {
	switch {
	case strings.Contains(name, "_ns_per_id"):
		return "ns/id"
	case strings.HasSuffix(name, "allocs_per_frame"):
		return "allocs/frame"
	case strings.HasSuffix(name, "allocs_per_batch"):
		return "allocs/batch"
	case strings.HasSuffix(name, "_frac"):
		return "ratio"
	default:
		return "ns"
	}
}

// sumDelta is the change of a counter family, summed over labels and fleet
// members, between two scrape sets.
func sumDelta(before, after []*telemetry.Scrape, name string) float64 {
	d := 0.0
	for i := range after {
		a, _ := after[i].Sum(name)
		b, _ := before[i].Sum(name)
		d += a - b
	}
	return d
}

// histQuantile estimates quantile q of a latency histogram family over the
// observations made between two scrape sets, summed over fleet members,
// interpolating linearly inside the bucket that holds it (as Prometheus's
// histogram_quantile does). It returns the observation count too.
func histQuantile(before, after []*telemetry.Scrape, name string, q float64) (float64, float64) {
	var bounds, cum []float64
	for i := range after {
		ha, hb := after[i].Histogram(name), before[i].Histogram(name)
		if ha == nil {
			continue
		}
		if bounds == nil {
			cum = make([]float64, len(ha.Buckets))
			for _, b := range ha.Buckets {
				bounds = append(bounds, b.UpperBound)
			}
		}
		for j, b := range ha.Buckets {
			cum[j] += b.Count
			if hb != nil && j < len(hb.Buckets) {
				cum[j] -= hb.Buckets[j].Count
			}
		}
	}
	if len(cum) == 0 || cum[len(cum)-1] == 0 {
		return 0, 0
	}
	total := cum[len(cum)-1]
	rank := q * total
	lo, below := 0.0, 0.0
	for j, c := range cum {
		if c >= rank {
			if math.IsInf(bounds[j], 1) {
				return lo, total
			}
			inBucket := c - below
			if inBucket == 0 {
				return bounds[j], total
			}
			return lo + (bounds[j]-lo)*(rank-below)/inBucket, total
		}
		lo, below = bounds[j], c
	}
	return lo, total
}
