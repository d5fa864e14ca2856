package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/pprof"
	"sort"
	"strings"
)

// perLayer lists the traced run's metrics with their units, in report
// order. Every workload reports all of them; a layer the workload does
// not run reads zero.
var perLayer = []struct{ name, unit string }{
	{"trace.synth_s", "s"},
	{"trace.arrivals", "count"},
	{"sim.events", "count"},
	{"sim.ns_per_event", "ns"},
	{"sim.cpu_pct", "%"},
	{"faas.request_s", "s"},
	{"faas.boot_s", "s"},
	{"faas.thaw_s", "s"},
	{"faas.exec_s", "s"},
	{"faas.keepalive_s", "s"},
	{"faas.cpu_pct", "%"},
	{"faas.occupancy_cpu_pct", "%"},
	{"faas.cold_boots", "count"},
	{"faas.warm_ratio", "ratio"},
	{"faas.evictions", "count"},
	{"faas.drops", "count"},
	{"faas.queue_wait_p99_ms", "sim_ms"},
	{"core.host_s", "s"},
	{"core.cpu_pct", "%"},
	{"core.activations", "count"},
	{"core.reclamations", "count"},
	{"core.skip_ratio", "ratio"},
	{"core.retries", "count"},
	{"core.released_mb", "MB"},
	{"core.mb_per_reclaim_cpu_s", "MB/s"},
	{"cluster.reports", "count"},
	{"cluster.mig_orders", "count"},
	{"cluster.moves", "count"},
	{"cluster.moves_per_order", "ratio"},
	{"cluster.adopt_errors", "count"},
	{"cluster.cpu_pct", "%"},
	{"container.invoke_s", "s"},
	{"container.reclaim_s", "s"},
	{"container.freeze_s", "s"},
	{"container.uss_s", "s"},
	{"workload.cpu_pct", "%"},
	{"mm.cpu_pct", "%"},
	{"hotspot.cpu_pct", "%"},
	{"v8heap.cpu_pct", "%"},
	{"gc.young", "count"},
	{"gc.full", "count"},
	{"heap.resizes", "count"},
	{"osmem.cpu_pct", "%"},
	{"osmem.commits", "count"},
	{"osmem.releases", "count"},
	{"obs.cpu_pct", "%"},
	{"metrics.cpu_pct", "%"},
	{"go.gc_cpu_pct", "%"},
	{"go.gc_cycles", "count"},
	{"go.alloc_mb", "MB"},
	{"go.mallocs", "count"},
	{"trace.overhead_x", "x"},
	{"trace.attributed_pct", "%"},
	{"mem_reduction_x", "x"},
	{"paper_relerr_pct", "%"},
	{"error_rate", "ratio"},
}

// Where each per-layer value comes from.
var (
	// Host seconds the tracer charged, reported per repetition.
	hostMetrics = []string{
		"trace.synth_s", "faas.request_s", "faas.boot_s", "faas.thaw_s", "faas.exec_s",
		"faas.keepalive_s", "core.host_s", "container.invoke_s", "container.reclaim_s",
		"container.freeze_s", "container.uss_s",
	}
	// Event counts from the bus, reported per repetition.
	busMetrics = []string{"gc.young", "gc.full", "heap.resizes"}
	// Simulated statistics, averaged over the inputs.
	simMetrics = []string{
		"trace.arrivals", "sim.events", "faas.cold_boots", "faas.warm_ratio", "faas.evictions",
		"faas.drops", "faas.queue_wait_p99_ms", "core.activations", "core.reclamations",
		"core.skip_ratio", "core.retries", "core.released_mb", "core.mb_per_reclaim_cpu_s",
		"cluster.reports", "cluster.mig_orders", "cluster.moves", "cluster.moves_per_order",
		"cluster.adopt_errors", "osmem.commits", "osmem.releases", "mem_reduction_x",
		"paper_relerr_pct",
	}
	// Profile rows: the innermost desiccant/internal package of each
	// sample, with Go's garbage collector as a row of its own.
	cpuMetrics = map[string]string{
		"sim": "sim.cpu_pct", "faas": "faas.cpu_pct", "core": "core.cpu_pct",
		"cluster": "cluster.cpu_pct", "workload": "workload.cpu_pct", "mm": "mm.cpu_pct",
		"hotspot": "hotspot.cpu_pct", "v8heap": "v8heap.cpu_pct", "osmem": "osmem.cpu_pct",
		"obs": "obs.cpu_pct", "metrics": "metrics.cpu_pct", gcRow: "go.gc_cpu_pct",
	}
)

// runTraced measures the per-layer table. The same inputs run twice:
// first untraced, for the host-time baseline, then with per-layer
// timing, bus counters and a CPU profile. The ratio of the two is the
// tracing overhead. A last repetition runs under the invariant
// checker. Every traced repetition must reproduce its untraced digest.
func runTraced(w bench, seed uint64, seconds float64, profDir string) (*report, error) {
	h := newHarness(w, seed)
	h.warmUp()
	plain, order := h.cycle(1, seconds/2)

	if err := os.MkdirAll(profDir, 0o755); err != nil {
		return nil, fmt.Errorf("profile directory: %w", err)
	}
	path := filepath.Join(profDir, w.name+".cpu.pprof")
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("create profile: %w", err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, fmt.Errorf("start profile: %w", err)
	}
	tr := newTracer(false)
	traced := h.repeat(order, tr)
	pprof.StopCPUProfile()
	if err := f.Close(); err != nil {
		return nil, fmt.Errorf("write profile: %w", err)
	}
	h.once(subSeed(seed, 0), newTracer(true))

	rep := &report{Attempted: h.attempted, Failed: h.failed, Correct: h.failed == 0, Metrics: map[string]metric{}}
	for _, l := range perLayer {
		rep.Metrics[l.name] = metric{0, l.unit}
	}
	set := func(name string, v float64) {
		m := rep.Metrics[name]
		m.Value = v
		rep.Metrics[name] = m
	}
	set("error_rate", float64(h.failed)/float64(h.attempted))
	if len(plain) == 0 || len(traced) == 0 {
		return rep, nil
	}

	reps := float64(len(traced))
	for _, name := range hostMetrics {
		set(name, tr.host[name].Seconds()/reps)
	}
	for _, name := range busMetrics {
		set(name, tr.counts[name]/reps)
	}
	per := firstPerSeed(plain)
	for _, name := range simMetrics {
		set(name, meanStat(per, name))
	}
	_, plainHost := runSpeed(plain)
	_, tracedHost := runSpeed(traced)
	if ev := meanStat(per, "sim.events"); ev > 0 {
		set("sim.ns_per_event", 1e9*plainHost/float64(len(per))/ev)
	}
	set("trace.overhead_x", tracedHost/plainHost)
	var gc, alloc, mallocs float64
	for _, s := range plain {
		gc += float64(s.mem.gcCycles)
		alloc += float64(s.mem.allocBytes)
		mallocs += float64(s.mem.allocObjects)
	}
	np := float64(len(plain))
	set("go.gc_cycles", gc/np)
	set("go.alloc_mb", alloc/1e6/np)
	set("go.mallocs", mallocs/np)

	fold, err := foldProfile(path)
	if err != nil {
		return nil, err
	}
	for row, name := range cpuMetrics {
		set(name, fold.pct(row))
	}
	set("faas.occupancy_cpu_pct", fold.pct(occupancyRow))
	set("trace.attributed_pct", fold.attributedPct())
	fmt.Fprintf(os.Stderr, "# profile %s: %.2f s sampled; rows:", path, float64(fold.samples)/1e6)
	for _, row := range fold.rows() {
		fmt.Fprintf(os.Stderr, " %s=%.1f%%", row, fold.pct(row))
	}
	fmt.Fprintln(os.Stderr)
	return rep, nil
}

const (
	gcRow        = "go.gc"
	occupancyRow = "faas.occupancy"
	benchRow     = "bench"
	otherRow     = "other"
)

// profileFold is a CPU profile folded into per-layer rows.
type profileFold struct {
	samples int64
	weight  map[string]int64
}

func (p *profileFold) pct(row string) float64 {
	if p.samples == 0 {
		return 0
	}
	return 100 * float64(p.weight[row]) / float64(p.samples)
}

// attributedPct is the share of samples assigned to a named layer: a
// simulator package or the garbage collector.
func (p *profileFold) attributedPct() float64 {
	var named int64
	for row, w := range p.weight {
		if row != benchRow && row != otherRow && row != occupancyRow {
			named += w
		}
	}
	if p.samples == 0 {
		return 0
	}
	return 100 * float64(named) / float64(p.samples)
}

func (p *profileFold) rows() []string {
	var out []string
	for row := range p.weight {
		out = append(out, row)
	}
	sort.Strings(out)
	return out
}

// foldProfile reads the profile's stacks with `go tool pprof -traces`
// and assigns each sample to one row.
func foldProfile(path string) (*profileFold, error) {
	cmd := exec.Command("go", "tool", "pprof", "-traces", path)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof -traces: %v: %s", err, stderr.String())
	}
	return parseTraces(out)
}

// parseTraces folds `pprof -traces` output. Each sample block is
// separated by a dashed line; its first line carries the sample's
// value (a duration) before the leaf frame, and each further line one
// caller frame.
func parseTraces(out []byte) (*profileFold, error) {
	fold := &profileFold{weight: make(map[string]int64)}
	var frames []string
	var value int64
	flush := func() {
		if len(frames) == 0 {
			return
		}
		fold.samples += value
		fold.weight[classify(frames)] += value
		for _, f := range frames {
			if isOccupancy(f) {
				fold.weight[occupancyRow] += value
				break
			}
		}
		frames, value = frames[:0], 0
	}
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	inBlocks := false
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(strings.TrimSpace(line), "-----------+") {
			flush()
			inBlocks = true
			continue
		}
		if !inBlocks || strings.TrimSpace(line) == "" {
			continue
		}
		fields := strings.Fields(line)
		if len(frames) == 0 {
			if len(fields) < 2 {
				return nil, fmt.Errorf("pprof traces: malformed sample line %q", line)
			}
			v, err := parseSampleValue(fields[0])
			if err != nil {
				return nil, err
			}
			value = v
			frames = append(frames, fields[1])
			continue
		}
		frames = append(frames, fields[0])
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("read pprof traces: %w", err)
	}
	flush()
	if fold.samples == 0 {
		return nil, fmt.Errorf("pprof traces: no samples in profile")
	}
	return fold, nil
}

// parseSampleValue reads a sample value such as "10ms" or "1.50s" in
// microseconds.
func parseSampleValue(s string) (int64, error) {
	units := []struct {
		suffix string
		us     float64
	}{{"ms", 1e3}, {"us", 1}, {"µs", 1}, {"ns", 1e-3}, {"s", 1e6}}
	for _, u := range units {
		if strings.HasSuffix(s, u.suffix) {
			var v float64
			if _, err := fmt.Sscanf(strings.TrimSuffix(s, u.suffix), "%g", &v); err != nil {
				return 0, fmt.Errorf("pprof traces: sample value %q: %w", s, err)
			}
			return int64(v*u.us + 0.5), nil
		}
	}
	return 0, fmt.Errorf("pprof traces: sample value %q has no time unit", s)
}

const internalPrefix = "desiccant/internal/"

// gcFrames mark a sample as garbage-collector work wherever they
// appear in its stack: background marking, assists charged to an
// allocating goroutine, sweeping and scavenging.
var gcFrames = []string{
	"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.bgsweep",
	"runtime.bgscavenge", "runtime.gcMarkDone", "runtime.gcMarkTermination",
	"runtime.gcStart", "runtime.sweepone", "runtime.gcDrain",
}

// classify assigns a leaf-first stack to its row.
func classify(frames []string) string {
	for _, f := range frames {
		for _, g := range gcFrames {
			if f == g {
				return gcRow
			}
		}
	}
	for _, f := range frames {
		if strings.HasPrefix(f, internalPrefix) {
			pkg := strings.TrimPrefix(f, internalPrefix)
			if i := strings.IndexAny(pkg, "./"); i >= 0 {
				pkg = pkg[:i]
			}
			return pkg
		}
	}
	for _, f := range frames {
		if strings.HasPrefix(f, "main.") {
			return benchRow
		}
	}
	return otherRow
}

// isOccupancy reports a frame of the platform's frozen-cache occupancy
// rescan, which walks every cached instance's address space.
func isOccupancy(frame string) bool {
	return frame == internalPrefix+"faas.(*Platform).MemoryUsed" ||
		frame == internalPrefix+"faas.(*Platform).cachedUSS"
}
