// Package stats provides the accounting both checkers report: transition,
// state and system-state counters, soundness-verification tallies, per-depth
// progress samples for the paper's figures, and heap-growth measurement.
package stats

import (
	"fmt"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"sync/atomic"
	"time"
)

// Counters accumulates the quantities §5 of the paper reports.
type Counters struct {
	// Transitions is the number of handler executions performed by the
	// checker (§5.1 compares 157,332 for B-DFS against 1,186 for LMC).
	Transitions int
	// NodeStates is the number of distinct node local states visited
	// ("LMC-local" in Figure 11). The global checker leaves it zero.
	NodeStates int
	// GlobalStates is the number of distinct global states visited by the
	// baseline checker. LMC leaves it zero.
	GlobalStates int
	// SystemStates is the number of system states materialized for
	// invariant checking (the "-system" series of Figure 11).
	SystemStates int
	// InvariantChecks counts invariant evaluations on system states.
	InvariantChecks int
	// PreliminaryViolations counts invariant violations before soundness
	// verification (valid or not).
	PreliminaryViolations int
	// SoundnessCalls counts invocations of the soundness-verification
	// module (isStateSound). §5.4 reports 773 for the buggy-Paxos run.
	SoundnessCalls int
	// SequencesChecked counts event-sequence combinations examined by
	// soundness verification (§5.4 reports 427,731).
	SequencesChecked int
	// SoundnessTime is the total wall time spent in soundness verification.
	SoundnessTime time.Duration
	// SystemStateTime is the total wall time spent materializing system
	// states and checking invariants on them, net of the SoundnessTime of
	// the confirmations that ran under it.
	SystemStateTime time.Duration
	// ShardWaitTime is the wall time a sharded run's coordinator spent
	// blocked on worker-process frames (collecting delivery records and
	// end-of-round digests). Zero outside sharded runs; excluded from
	// determinism comparisons like the other wall-clock fields.
	ShardWaitTime time.Duration
	// ConfirmedBugs counts violations that passed soundness verification.
	ConfirmedBugs int
	// CoverIndexHits / CoverIndexMisses count coverage queries answered by
	// the producer index during witness searches: a hit found a visible
	// producer for the queried message fingerprint, a miss found none.
	CoverIndexHits   int
	CoverIndexMisses int
	// WitnessSkips is retired and always 0: it counted the hits of a
	// per-pair witness outcome cache that never had one (a candidate pair is
	// examined at most once per run) and is gone. The field stays because the
	// v1 store segment layout and the parity dump carry it.
	WitnessSkips int
	// SymmetrySkips counts the GEN sweep's system-state combinations skipped
	// by the symmetry reduction: non-canonical arrangements whose canonical
	// representative is covered. LMC-OPT never skips, so it leaves this 0.
	// The sweep never forms most of what it skips, so per sweep it adds the
	// size of the product within MaxSystemDepth minus the combinations it
	// enumerated; a sweep the Budget cut short adds only the skips it decided
	// one by one.
	SymmetrySkips int
	// OrbitChecks counts the arrangements re-expanded and invariant-checked
	// by the fixpoint orbit sweep (the completion half of the symmetry skip).
	OrbitChecks int
	// PORPathsDeduped and PORDetached are retired and always 0: they counted
	// the work of a partial-order reduction of the soundness search, which
	// was measured to lose on every workload and is gone. The fields stay
	// because the v1 store segment layout and the parity dump carry them.
	PORPathsDeduped int
	PORDetached     int
	// Rejections counts handler executions rejected by local assertions
	// (handlers returning a nil state).
	Rejections int
	// DuplicatesDropped counts messages refused by the duplicate limit.
	DuplicatesDropped int
	// MaxDepth is the deepest point the run materialized. B-DFS: the longest
	// event sequence executed. LMC: the larger of the deepest single
	// node-state path visited and the largest total depth (sum of member
	// path lengths) of a system state it built — so a run that builds no
	// system state reports its deepest single-node path. The depth axis of
	// Figures 10–13 is a different coordinate, Sample.Depth.
	MaxDepth int
	// Elapsed is the wall time of the whole run.
	Elapsed time.Duration
}

// AvgSoundnessCall is the mean wall time per soundness-verification call.
func (c *Counters) AvgSoundnessCall() time.Duration {
	if c.SoundnessCalls == 0 {
		return 0
	}
	return c.SoundnessTime / time.Duration(c.SoundnessCalls)
}

// String renders the counters as a compact multi-line report.
func (c *Counters) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "transitions=%d nodeStates=%d globalStates=%d systemStates=%d\n",
		c.Transitions, c.NodeStates, c.GlobalStates, c.SystemStates)
	fmt.Fprintf(&b, "invariantChecks=%d prelimViolations=%d soundnessCalls=%d sequencesChecked=%d confirmedBugs=%d\n",
		c.InvariantChecks, c.PreliminaryViolations, c.SoundnessCalls, c.SequencesChecked, c.ConfirmedBugs)
	fmt.Fprintf(&b, "coverIndexHits=%d coverIndexMisses=%d witnessSkips=%d\n",
		c.CoverIndexHits, c.CoverIndexMisses, c.WitnessSkips)
	fmt.Fprintf(&b, "symmetrySkips=%d orbitChecks=%d porPathsDeduped=%d porDetached=%d\n",
		c.SymmetrySkips, c.OrbitChecks, c.PORPathsDeduped, c.PORDetached)
	fmt.Fprintf(&b, "rejections=%d dupDropped=%d maxDepth=%d elapsed=%v soundnessTime=%v systemStateTime=%v",
		c.Rejections, c.DuplicatesDropped, c.MaxDepth, c.Elapsed.Round(time.Microsecond),
		c.SoundnessTime.Round(time.Microsecond), c.SystemStateTime.Round(time.Microsecond))
	if c.ShardWaitTime > 0 {
		fmt.Fprintf(&b, " shardWait=%v", c.ShardWaitTime.Round(time.Microsecond))
	}
	return b.String()
}

// Sample is one point of a per-depth progress series, the raw material of
// Figures 10–13.
type Sample struct {
	// Depth is the checker's depth coordinate when the sample was taken:
	// B-DFS's event depth; for LMC the sum over nodes of the deepest visited
	// path, the deepest system state the visited node states could form.
	Depth        int
	Elapsed      time.Duration
	Transitions  int
	NodeStates   int
	GlobalStates int
	SystemStates int
	// HeapBytes is the heap growth since the run started, sampled when the
	// checker first reached this depth.
	HeapBytes uint64
}

// Series collects per-depth samples keyed by depth; each depth keeps the
// values observed when the checker finished exploring that depth.
type Series struct {
	byDepth map[int]Sample
}

// NewSeries returns an empty series.
func NewSeries() *Series { return &Series{byDepth: make(map[int]Sample)} }

// Record stores s for its depth, overwriting an earlier sample at the same
// depth (later samples reflect completed exploration of the depth).
func (se *Series) Record(s Sample) {
	if se.byDepth == nil {
		se.byDepth = make(map[int]Sample)
	}
	se.byDepth[s.Depth] = s
}

// Points returns the samples in ascending depth order.
func (se *Series) Points() []Sample {
	out := make([]Sample, 0, len(se.byDepth))
	for _, s := range se.byDepth {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Depth < out[j].Depth })
	return out
}

// Len is the number of recorded depths.
func (se *Series) Len() int { return len(se.byDepth) }

// MemProbe measures heap growth relative to a baseline, the way Figure 12
// reports "increased memory size". Call Baseline once before the run, then
// Sample at measurement points.
//
// The probe is re-entrant and data-race-free: the baseline is an atomic,
// and Sample reads the heap through runtime/metrics — which takes no
// stop-the-world pause, unlike runtime.ReadMemStats — so periodic heartbeat
// snapshots can sample mid-run, concurrently with exploration workers
// (Options.Workers > 1) and with other samplers, without perturbing the run
// they are observing.
type MemProbe struct {
	base atomic.Uint64
}

// heapInUse reads the live heap-object bytes without stopping the world.
func heapInUse() uint64 {
	var s [1]metrics.Sample
	s[0].Name = "/memory/classes/heap/objects:bytes"
	metrics.Read(s[:])
	if s[0].Value.Kind() == metrics.KindUint64 {
		return s[0].Value.Uint64()
	}
	// Metric unavailable (a future runtime renamed it): fall back to the
	// stop-the-world reader rather than reporting garbage.
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// Baseline garbage-collects and records the current heap allocation.
func (p *MemProbe) Baseline() {
	runtime.GC()
	p.base.Store(heapInUse())
}

// Sample returns the heap growth since Baseline, clamped at zero. It does
// not force a GC — sampling is frequent and must stay cheap — so values are
// an upper estimate, as in the paper's coarse MB-scale plot.
func (p *MemProbe) Sample() uint64 {
	cur := heapInUse()
	base := p.base.Load()
	if cur < base {
		return 0
	}
	return cur - base
}

// SamplePrecise forces a GC first, for end-of-run measurements.
func (p *MemProbe) SamplePrecise() uint64 {
	runtime.GC()
	return p.Sample()
}

// Stopwatch measures elapsed wall time with a fixed start.
type Stopwatch struct {
	start time.Time
}

// Start resets the stopwatch to now.
func (s *Stopwatch) Start() { s.start = time.Now() }

// Elapsed reports time since Start.
func (s *Stopwatch) Elapsed() time.Duration { return time.Since(s.start) }
