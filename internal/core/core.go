// Package core implements the paper's contribution: the uniform node
// sampling service tolerant to collusions of malicious nodes.
//
// A sampler is a one-pass, online component local to a correct node. It
// reads the node's input stream σ of node identifiers — which an adversary
// may bias arbitrarily — and produces an output stream σ′ intended to
// satisfy two properties (Section IV):
//
//	Uniformity: ∀t, ∀j ∈ N, P{S(t) = j} = 1/n
//	Freshness:  ∀t, ∀j ∈ N, {t′ > t : S(t′) = j} ≠ ∅ with probability 1
//
// Two strategies are provided, faithful to Algorithms 1 and 3:
//
//   - Omniscient: knows each id's true occurrence probability p_j (through
//     an Oracle) and admits an arriving id into the sampling memory Γ with
//     probability a_j = min_i(p_i)/p_j, evicting a uniform victim.
//   - KnowledgeFree: estimates frequencies with a Count-Min sketch and
//     admits with probability a_j = minσ/f̂_j, where minσ is the smallest
//     counter of the whole sketch.
//
// Two baselines are included for comparison: FullSpace (the impracticable
// exact strategy that remembers every id) and MinWiseSampler (the
// min-wise-permutation sampler of Bortnikov et al. [6], which converges to
// a uniform choice but then never changes — violating Freshness).
package core

import (
	"errors"
	"fmt"

	"nodesampling/internal/cms"
	"nodesampling/internal/hashing"
	"nodesampling/internal/rng"
)

// Sampler is the node sampling service interface shared by the strategies
// and baselines. Implementations are single-goroutine components; wrap them
// (see the root package's Service) for concurrent use.
type Sampler interface {
	// Process reads one id from the input stream and returns the id written
	// to the output stream for this step.
	Process(id uint64) uint64
	// Sample returns the service's current sample S(t) without consuming
	// input. ok is false before any id has been processed.
	Sample() (id uint64, ok bool)
	// Memory returns a copy of the sampler's current memory Γ.
	Memory() []uint64
}

// Stats counts the sampler's internal activity; useful for experiments and
// ablations.
type Stats struct {
	Processed  uint64 // ids read from the input stream
	Admitted   uint64 // ids inserted into Γ (fill or replacement)
	Evicted    uint64 // ids removed from Γ
	Duplicates uint64 // arrivals already present in Γ (no-ops, the chain's self-loops)
}

// EvictionPolicy selects the element of Γ to evict when a new id is
// admitted into a full memory. The paper's analysis (Theorem 4) requires
// the removal probabilities r_j to be identical — UniformEviction — to make
// the stationary distribution uniform; alternative policies are provided
// for the ablation study. A policy sees Γ and the sampler's generator only;
// the knowledge-free batch kernel runs the sketch up to one chunk ahead of
// admission, so a policy must not consult the sampler's sketch.
type EvictionPolicy interface {
	// Pick returns the index in mem of the victim. mem is non-empty.
	Pick(mem []uint64, r *rng.Xoshiro) int
}

// UniformEviction picks the victim uniformly: r_k/Σr_ℓ = 1/|Γ| for the
// constant family r_j = 1/n of Corollary 5.
type UniformEviction struct{}

var _ EvictionPolicy = UniformEviction{}

// Pick implements EvictionPolicy.
func (UniformEviction) Pick(mem []uint64, r *rng.Xoshiro) int {
	return r.Intn(len(mem))
}

// WeightedEviction picks the victim with probability proportional to
// Weight(id), i.e. a non-constant family (r_j). Used by the ablation
// benches to demonstrate that Theorem 4's uniformity breaks when r_j is not
// constant.
type WeightedEviction struct {
	Weight func(id uint64) float64
}

var _ EvictionPolicy = WeightedEviction{}

// Pick implements EvictionPolicy. Non-positive total weight falls back to
// uniform choice.
func (w WeightedEviction) Pick(mem []uint64, r *rng.Xoshiro) int {
	total := 0.0
	for _, id := range mem {
		if v := w.Weight(id); v > 0 {
			total += v
		}
	}
	if total <= 0 {
		return r.Intn(len(mem))
	}
	x := r.Float64() * total
	for i, id := range mem {
		if v := w.Weight(id); v > 0 {
			x -= v
			if x < 0 {
				return i
			}
		}
	}
	return len(mem) - 1
}

// gammaScanThreshold is the memory capacity above which Γ maintains a
// hash index for membership tests. Below it a linear scan over the
// contiguous items slice is faster than any map operation (the whole
// memory fits in a couple of cache lines at the paper's operating points,
// c ∈ [10, 50]), and replacement needs no index maintenance at all.
const gammaScanThreshold = 128

// gamma is the sampling memory Γ: a set of at most c distinct ids with
// cheap membership, insertion, replacement and uniform choice.
//
// At or below gammaScanThreshold, membership is a linear scan behind a
// counting tag filter: tags[t] counts the members whose 8-bit tag is t, so
// an arrival whose tag count is zero — most non-members, since c ≤ 128
// members occupy at most half of the 256 tags — is rejected without
// touching items. add and replace keep the counts exact, and every
// constructor starts from an empty memory (newGamma) and fills it through
// add, so the filter never needs a separate rebuild. A count never exceeds
// c ≤ 128, so uint8 cannot overflow. Above the threshold a map index
// replaces both.
type gamma struct {
	items []uint64
	index map[uint64]int // nil at or below gammaScanThreshold: scanning wins
	tags  [256]uint8     // members per tag; used only while index is nil
	cap   int
}

// gammaTag is the filter tag of id: the top byte of a Fibonacci
// multiplicative hash, so structured ids (small integers, strides) still
// spread over all 256 tags.
func gammaTag(id uint64) uint8 { return uint8((id * 0x9e3779b97f4a7c15) >> 56) }

// newGamma returns an empty memory of capacity c. At or below
// gammaScanThreshold the items slice is sized to c up front; above it the
// slice and the index grow with the members actually added, so a declared
// capacity (a snapshot header, a migration) costs nothing until ids arrive.
func newGamma(c int) gamma {
	if c > gammaScanThreshold {
		return gamma{index: make(map[uint64]int), cap: c}
	}
	return gamma{items: make([]uint64, 0, c), cap: c}
}

func (g *gamma) contains(id uint64) bool {
	if g.index != nil {
		_, ok := g.index[id]
		return ok
	}
	if g.tags[gammaTag(id)] == 0 {
		return false
	}
	for _, v := range g.items {
		if v == id {
			return true
		}
	}
	return false
}

func (g *gamma) full() bool { return len(g.items) == g.cap }
func (g *gamma) size() int  { return len(g.items) }

// add appends id to a non-full memory.
func (g *gamma) add(id uint64) {
	if g.index != nil {
		g.index[id] = len(g.items)
	} else {
		g.tags[gammaTag(id)]++
	}
	g.items = append(g.items, id)
}

// replace evicts the element at index i and installs id in its place.
func (g *gamma) replace(i int, id uint64) (evicted uint64) {
	evicted = g.items[i]
	if g.index != nil {
		delete(g.index, evicted)
		g.index[id] = i
	} else {
		g.tags[gammaTag(evicted)]--
		g.tags[gammaTag(id)]++
	}
	g.items[i] = id
	return evicted
}

// snapshot returns a copy of the memory contents.
func (g *gamma) snapshot() []uint64 {
	out := make([]uint64, len(g.items))
	copy(out, g.items)
	return out
}

// config carries the options shared by the two strategies.
type config struct {
	eviction     EvictionPolicy
	conservative bool
	halveEvery   uint64
}

// Option customises a sampler at construction time.
type Option func(*config) error

// WithEviction overrides the eviction policy (default UniformEviction).
func WithEviction(p EvictionPolicy) Option {
	return func(c *config) error {
		if p == nil {
			return errors.New("core: nil eviction policy")
		}
		c.eviction = p
		return nil
	}
}

// WithPeriodicHalving makes the knowledge-free strategy halve all sketch
// counters every `every` processed ids, exponentially decaying the weight
// of old stream elements. The paper's model assumes churn stops at time T0;
// periodic halving is the natural relaxation that lets the sampler follow a
// population that keeps changing slowly: departed ids wash out of the
// frequency estimates instead of suppressing newcomers forever. The option
// has no effect on the omniscient strategy.
func WithPeriodicHalving(every uint64) Option {
	return func(c *config) error {
		if every == 0 {
			return errors.New("core: halving period must be positive")
		}
		c.halveEvery = every
		return nil
	}
}

// WithConservativeUpdate makes the knowledge-free strategy feed its sketch
// with the conservative-update rule (CM-CU) instead of the plain Count-Min
// increments of Algorithm 2. Estimates remain upper bounds but carry far
// less collision over-count, which markedly improves the strategy's
// discrimination when the sketch width k is small relative to the
// population (the paper's Figure 7b operating point). The option has no
// effect on the omniscient strategy.
func WithConservativeUpdate() Option {
	return func(c *config) error {
		c.conservative = true
		return nil
	}
}

func buildConfig(opts []Option) (config, error) {
	cfg := config{eviction: UniformEviction{}}
	for _, o := range opts {
		if err := o(&cfg); err != nil {
			return cfg, err
		}
	}
	return cfg, nil
}

// Oracle supplies the omniscient strategy with the knowledge Algorithm 1
// assumes: the true occurrence probability of every id in the input stream
// and the minimum probability over the population.
// stream.Categorical satisfies this interface, as does CountOracle for
// recorded traces.
type Oracle interface {
	// Prob returns p_j, the occurrence probability of id j in the stream.
	Prob(id uint64) float64
	// MinProb returns min over the population of the non-zero p_i.
	MinProb() float64
}

// Omniscient implements Algorithm 1. It requires an Oracle for the stream's
// true occurrence probabilities; with the families a_j = min(p_i)/p_j and
// r_j = 1/n the output stream is provably uniform and fresh (Corollary 5).
type Omniscient struct {
	mem    gamma
	oracle Oracle
	r      *rng.Xoshiro
	evict  EvictionPolicy
	stats  Stats
}

var _ Sampler = (*Omniscient)(nil)

// NewOmniscient creates an omniscient sampler with memory capacity c.
func NewOmniscient(c int, oracle Oracle, r *rng.Xoshiro, opts ...Option) (*Omniscient, error) {
	if c < 1 {
		return nil, fmt.Errorf("core: memory size c must be at least 1, got %d", c)
	}
	if oracle == nil {
		return nil, errors.New("core: nil oracle")
	}
	if r == nil {
		return nil, errors.New("core: nil random source")
	}
	cfg, err := buildConfig(opts)
	if err != nil {
		return nil, err
	}
	return &Omniscient{
		mem:    newGamma(c),
		oracle: oracle,
		r:      r,
		evict:  cfg.eviction,
	}, nil
}

// Process implements one step of Algorithm 1.
func (o *Omniscient) Process(id uint64) uint64 {
	o.stats.Processed++
	switch {
	case o.mem.contains(id):
		// Γ is a set: a present id leaves the state unchanged (the Markov
		// chain's self-loop).
		o.stats.Duplicates++
	case !o.mem.full():
		o.mem.add(id)
		o.stats.Admitted++
	default:
		aj := o.admissionProb(id)
		if o.r.Bernoulli(aj) {
			victim := o.evict.Pick(o.mem.items, o.r)
			o.mem.replace(victim, id)
			o.stats.Admitted++
			o.stats.Evicted++
		}
	}
	out, _ := o.Sample()
	return out
}

// admissionProb returns a_j = min_i(p_i)/p_j, clamped to [0, 1]. An id the
// oracle has never seen (p_j = 0) is treated as maximally rare (a_j = 1):
// rarer than the rarest known id, it must be admitted.
func (o *Omniscient) admissionProb(id uint64) float64 {
	pj := o.oracle.Prob(id)
	if pj <= 0 {
		return 1
	}
	aj := o.oracle.MinProb() / pj
	if aj > 1 {
		aj = 1
	}
	return aj
}

// Sample returns a uniformly chosen element of Γ.
func (o *Omniscient) Sample() (uint64, bool) {
	if o.mem.size() == 0 {
		return 0, false
	}
	return o.mem.items[o.r.Intn(o.mem.size())], true
}

// Memory returns a copy of Γ.
func (o *Omniscient) Memory() []uint64 { return o.mem.snapshot() }

// Stats returns the sampler's activity counters.
func (o *Omniscient) Stats() Stats { return o.stats }

// KnowledgeFree implements Algorithm 3: the omniscient structure with the
// oracle replaced by a Count-Min sketch built on the fly over the same
// stream. The admission probability is a_j = minσ/f̂_j with minσ the global
// minimum counter of the sketch and f̂_j the estimate for the arriving id.
type KnowledgeFree struct {
	mem          gamma
	sketch       *cms.Sketch
	r            *rng.Xoshiro
	evict        EvictionPolicy
	conservative bool
	halveEvery   uint64
	stats        Stats
	// fj and minSigma hold one chunk's sketch results (f̂_j and minσ per
	// id) between the sketch pass and the admission pass of ingest. They
	// grow on demand up to ingestChunk and are scratch between calls.
	fj, minSigma []uint64
}

var _ Sampler = (*KnowledgeFree)(nil)

// NewKnowledgeFree creates a knowledge-free sampler with memory capacity c
// and a k-column, s-row Count-Min sketch (the paper's notation).
func NewKnowledgeFree(c, k, s int, r *rng.Xoshiro, opts ...Option) (*KnowledgeFree, error) {
	if c < 1 {
		return nil, fmt.Errorf("core: memory size c must be at least 1, got %d", c)
	}
	if r == nil {
		return nil, errors.New("core: nil random source")
	}
	cfg, err := buildConfig(opts)
	if err != nil {
		return nil, err
	}
	sketch, err := cms.NewWithDimensions(k, s, r)
	if err != nil {
		return nil, err
	}
	return &KnowledgeFree{
		mem:          newGamma(c),
		sketch:       sketch,
		r:            r,
		evict:        cfg.eviction,
		conservative: cfg.conservative,
		halveEvery:   cfg.halveEvery,
	}, nil
}

// NewKnowledgeFreeWithSketch creates a knowledge-free sampler around an
// existing sketch, taking ownership of it. The sharded pool uses this to
// give every shard an empty clone of one template sketch (a shared hash
// family makes per-shard sketches mergeable at resize), and to revive
// samplers from snapshots and resize hand-offs with their frequency state
// intact.
func NewKnowledgeFreeWithSketch(c int, sk *cms.Sketch, r *rng.Xoshiro, opts ...Option) (*KnowledgeFree, error) {
	if c < 1 {
		return nil, fmt.Errorf("core: memory size c must be at least 1, got %d", c)
	}
	if sk == nil {
		return nil, errors.New("core: nil sketch")
	}
	if r == nil {
		return nil, errors.New("core: nil random source")
	}
	cfg, err := buildConfig(opts)
	if err != nil {
		return nil, err
	}
	return &KnowledgeFree{
		mem:          newGamma(c),
		sketch:       sk,
		r:            r,
		evict:        cfg.eviction,
		conservative: cfg.conservative,
		halveEvery:   cfg.halveEvery,
	}, nil
}

// NewKnowledgeFreeFromAccuracy creates a knowledge-free sampler whose sketch
// is sized from the (ε, δ) accuracy targets of Algorithm 2: k = ⌈e/ε⌉ and
// s = ⌈log₂(1/δ)⌉.
func NewKnowledgeFreeFromAccuracy(c int, epsilon, delta float64, r *rng.Xoshiro, opts ...Option) (*KnowledgeFree, error) {
	if c < 1 {
		return nil, fmt.Errorf("core: memory size c must be at least 1, got %d", c)
	}
	if r == nil {
		return nil, errors.New("core: nil random source")
	}
	cfg, err := buildConfig(opts)
	if err != nil {
		return nil, err
	}
	sketch, err := cms.New(epsilon, delta, r)
	if err != nil {
		return nil, err
	}
	return &KnowledgeFree{
		mem:          newGamma(c),
		sketch:       sketch,
		r:            r,
		evict:        cfg.eviction,
		conservative: cfg.conservative,
		halveEvery:   cfg.halveEvery,
	}, nil
}

// Process implements one step of Algorithm 3: the sketch and the sampling
// logic both consume the arriving id (the paper's cobegin).
func (kf *KnowledgeFree) Process(id uint64) uint64 {
	ids := [1]uint64{id}
	kf.ingest(ids[:], nil, false)
	out, _ := kf.Sample()
	return out
}

// ingestChunk is the number of ids the sketch pass of ingest runs ahead of
// the admission pass: large enough to amortise the pass switch, small
// enough that the chunk's ids and sketch results stay in L1.
const ingestChunk = 256

// ingest is the knowledge-free ingest kernel behind Process, ProcessBatch
// and ProcessBatchEmit. It cuts ids into chunks of at most ingestChunk and,
// per chunk, first runs the sketch over every id in stream order,
// recording each id's post-add estimate f̂_j and minσ, then runs admission
// (and, with emit, one σ′ draw appended to out) over the chunk in stream
// order. Splitting the per-id step this way is exact: the sketch never
// reads Γ or the generator, and admission never writes the sketch, so each
// admission sees the same f̂_j and minσ as the one-id-at-a-time loop of
// Algorithm 3 and consumes the generator in the same order. A chunk ends at
// every halving step, where the step's id is admitted against the halved
// counters.
func (kf *KnowledgeFree) ingest(ids, out []uint64, emit bool) []uint64 {
	for len(ids) > 0 {
		n := min(len(ids), ingestChunk)
		halve := false
		if kf.halveEvery > 0 {
			if left := kf.halveEvery - kf.stats.Processed%kf.halveEvery; uint64(n) >= left {
				n, halve = int(left), true
			}
		}
		if cap(kf.fj) < n {
			kf.fj, kf.minSigma = make([]uint64, n), make([]uint64, n)
		}
		chunk, fj, minSigma := ids[:n], kf.fj[:n], kf.minSigma[:n]
		if kf.conservative {
			kf.sketch.AddConservativeEstimates(chunk, fj, minSigma)
		} else {
			kf.sketch.AddEstimates(chunk, fj, minSigma)
		}
		kf.stats.Processed += uint64(n)
		if halve {
			kf.sketch.Halve()
			fj[n-1], minSigma[n-1] = kf.sketch.Estimate(chunk[n-1]), kf.sketch.GlobalMin()
		}
		for i, id := range chunk {
			kf.admit(id, fj[i], minSigma[i])
			if emit {
				if s, ok := kf.Sample(); ok {
					out = append(out, s)
				}
			}
		}
		ids = ids[n:]
	}
	return out
}

// admit is the admission half of Algorithm 3: given the arriving id, its
// frequency estimate f̂_j and the sketch minimum minσ as of its arrival,
// admit it into Γ with probability minσ/f̂_j, evicting a victim chosen by
// the eviction policy. fj ≥ 1 because the sketch has counted id.
func (kf *KnowledgeFree) admit(id, fj, minSigma uint64) {
	switch {
	case kf.mem.contains(id):
		kf.stats.Duplicates++
	case !kf.mem.full():
		kf.mem.add(id)
		kf.stats.Admitted++
	default:
		aj := float64(minSigma) / float64(fj)
		if kf.r.Bernoulli(aj) {
			victim := kf.evict.Pick(kf.mem.items, kf.r)
			kf.mem.replace(victim, id)
			kf.stats.Admitted++
			kf.stats.Evicted++
		}
	}
}

// ProcessBatch consumes a whole batch of ids with the same admission logic
// as Process, but without drawing a per-id output sample: batch ingestion
// (the sharded pool) serves samples on demand, so the per-step output draw
// of the paper's one-pass loop would be pure waste.
func (kf *KnowledgeFree) ProcessBatch(ids []uint64) { kf.ingest(ids, nil, false) }

// ProcessBatchEmit consumes a batch like ProcessBatch but restores the
// per-id output draw of the paper's one-pass loop: after each ingested id
// one uniform element of Γ is appended to out — the output stream σ′ that
// Algorithm 1 writes continuously. It returns the extended slice. Γ is
// non-empty from the first processed id on, so exactly len(ids) draws are
// appended whenever the memory was seeded (always, except for the ids at
// the very front of the sampler's first ever batch before one is admitted —
// and the first id is always admitted, so in practice one draw per id).
func (kf *KnowledgeFree) ProcessBatchEmit(ids []uint64, out []uint64) []uint64 {
	return kf.ingest(ids, out, true)
}

// Sample returns a uniformly chosen element of Γ.
func (kf *KnowledgeFree) Sample() (uint64, bool) {
	if kf.mem.size() == 0 {
		return 0, false
	}
	return kf.mem.items[kf.r.Intn(kf.mem.size())], true
}

// Memory returns a copy of Γ.
func (kf *KnowledgeFree) Memory() []uint64 { return kf.mem.snapshot() }

// MemorySize returns the current |Γ| without copying the memory.
func (kf *KnowledgeFree) MemorySize() int { return kf.mem.size() }

// MemoryCap returns c, the capacity of Γ.
func (kf *KnowledgeFree) MemoryCap() int { return kf.mem.cap }

// RestoreMemory replaces Γ with the given ids (duplicates collapse; Γ is a
// set). The resize and snapshot-restore paths use it to hand a repartitioned
// or deserialised memory to a sampler. Fails without modifying the sampler
// if the distinct ids exceed the capacity; callers shedding overflow must
// choose the survivors uniformly to preserve the Uniformity argument.
func (kf *KnowledgeFree) RestoreMemory(ids []uint64) error {
	mem := newGamma(kf.mem.cap)
	for _, id := range ids {
		if mem.contains(id) {
			continue
		}
		if mem.full() {
			return fmt.Errorf("core: restoring %d distinct ids into a memory of capacity %d", len(ids), kf.mem.cap)
		}
		mem.add(id)
	}
	kf.mem = mem
	return nil
}

// Stats returns the sampler's activity counters.
func (kf *KnowledgeFree) Stats() Stats { return kf.stats }

// Sketch exposes the underlying Count-Min sketch (read-only use intended);
// experiments use it to inspect estimation error under attack.
func (kf *KnowledgeFree) Sketch() *cms.Sketch { return kf.sketch }

// CountOracle is an Oracle built from exact id counts — the "omniscient"
// knowledge for a recorded trace, obtained by a preliminary full pass.
type CountOracle struct {
	probs map[uint64]float64
	min   float64
}

var _ Oracle = (*CountOracle)(nil)

// NewCountOracle builds an oracle from a count table.
func NewCountOracle(counts map[uint64]uint64) (*CountOracle, error) {
	if len(counts) == 0 {
		return nil, errors.New("core: empty count table")
	}
	var total uint64
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		return nil, errors.New("core: all counts are zero")
	}
	probs := make(map[uint64]float64, len(counts))
	min := 2.0
	for id, c := range counts {
		if c == 0 {
			continue
		}
		p := float64(c) / float64(total)
		probs[id] = p
		if p < min {
			min = p
		}
	}
	return &CountOracle{probs: probs, min: min}, nil
}

// NewCountOracleFromStream counts a recorded stream and builds the oracle.
func NewCountOracleFromStream(ids []uint64) (*CountOracle, error) {
	if len(ids) == 0 {
		return nil, errors.New("core: empty stream")
	}
	counts := make(map[uint64]uint64)
	for _, id := range ids {
		counts[id]++
	}
	return NewCountOracle(counts)
}

// Prob implements Oracle.
func (o *CountOracle) Prob(id uint64) float64 { return o.probs[id] }

// MinProb implements Oracle.
func (o *CountOracle) MinProb() float64 { return o.min }

// FullSpace is the impracticable exact baseline discussed in the paper's
// introduction: it stores every distinct id ever seen and samples uniformly
// among them. Its memory grows linearly with the population, which is
// precisely what the paper's strategies avoid.
type FullSpace struct {
	ids  []uint64
	seen map[uint64]struct{}
	r    *rng.Xoshiro
}

var _ Sampler = (*FullSpace)(nil)

// NewFullSpace creates the full-memory baseline.
func NewFullSpace(r *rng.Xoshiro) (*FullSpace, error) {
	if r == nil {
		return nil, errors.New("core: nil random source")
	}
	return &FullSpace{seen: make(map[uint64]struct{}), r: r}, nil
}

// Process records the id if new and returns a uniform sample of all ids
// seen so far.
func (f *FullSpace) Process(id uint64) uint64 {
	if _, ok := f.seen[id]; !ok {
		f.seen[id] = struct{}{}
		f.ids = append(f.ids, id)
	}
	out, _ := f.Sample()
	return out
}

// Sample returns a uniform element among all distinct ids seen.
func (f *FullSpace) Sample() (uint64, bool) {
	if len(f.ids) == 0 {
		return 0, false
	}
	return f.ids[f.r.Intn(len(f.ids))], true
}

// Memory returns a copy of all distinct ids seen (unbounded).
func (f *FullSpace) Memory() []uint64 {
	out := make([]uint64, len(f.ids))
	copy(out, f.ids)
	return out
}

// MinWiseSampler is the Bortnikov et al. baseline [6]: it keeps the id whose
// image under a randomly drawn min-wise permutation is smallest. Over a
// stream that eventually contains every id, the kept id converges to a
// uniform choice — and then never changes again, violating Freshness. The
// paper's introduction and related-work sections argue against exactly this
// behaviour; the ablation bench quantifies it.
type MinWiseSampler struct {
	perm hashing.MinWise
	cur  uint64
	img  uint64
	has  bool
	// changes counts how many times the sample value changed, exposing the
	// staticity defect: it stops growing once convergence is reached.
	changes uint64
}

var _ Sampler = (*MinWiseSampler)(nil)

// NewMinWiseSampler draws a random min-wise permutation for the sampler.
func NewMinWiseSampler(r *rng.Xoshiro) (*MinWiseSampler, error) {
	if r == nil {
		return nil, errors.New("core: nil random source")
	}
	perm, err := hashing.NewMinWise(r)
	if err != nil {
		return nil, err
	}
	return &MinWiseSampler{perm: perm}, nil
}

// Process keeps the minimum-image id and returns the current sample.
func (m *MinWiseSampler) Process(id uint64) uint64 {
	img := m.perm.Image(id)
	if !m.has || img < m.img {
		if m.has && id != m.cur {
			m.changes++
		}
		m.cur, m.img, m.has = id, img, true
	}
	out, _ := m.Sample()
	return out
}

// Sample returns the current minimum-image id.
func (m *MinWiseSampler) Sample() (uint64, bool) { return m.cur, m.has }

// Memory returns the single stored id (or empty before any input).
func (m *MinWiseSampler) Memory() []uint64 {
	if !m.has {
		return nil
	}
	return []uint64{m.cur}
}

// Changes reports how many times the sample value has changed since the
// first arrival; a static sampler stops changing early in the stream.
func (m *MinWiseSampler) Changes() uint64 { return m.changes }
