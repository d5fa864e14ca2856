package main

import (
	"fmt"
	"strings"
	"time"

	"desiccant/internal/core"
	"desiccant/internal/faas"
	"desiccant/internal/invariant"
	"desiccant/internal/metrics"
	"desiccant/internal/obs"
	"desiccant/internal/osmem"
	"desiccant/internal/sim"
	"desiccant/internal/trace"
	"desiccant/internal/workload"
)

// The replay workload is Fig. 9's SetupDesiccant cell at scale 25: a
// synthetic Azure trace matched to Table 1, 60 s of warm-up at scale
// 15, then the 180 s measured window on one invoker with a 2 GiB
// frozen-instance cache.
const (
	replayFunctions   = 2000
	replayBaseRate    = 2.2
	replayWarmupScale = 15
	replayScale       = 25
	replayWarmup      = 60 * sim.Second
	replayWindow      = 180 * sim.Second
	replayCacheBytes  = 2 << 30
	// replayTraceSeed fixes the function population: the trace the
	// repository's Fig. 9 runs synthesize. An input seed draws only the
	// arrivals, as Fig. 9 does with the trace seed plus one, so input
	// 11 is exactly Fig. 9's cell. Different populations change the
	// workload itself (cold boots per completion ranged 0.02-0.27 over
	// five trace seeds), which no bound could absorb.
	replayTraceSeed = 11
	// replayInputs: the cold-boot rate varies by about 18% (standard
	// deviation over mean) from one arrival draw to the next and the
	// p99 latency by about 12%; twenty draws per run keep the
	// run-to-run spread of their means near 5%.
	replayInputs = 20
)

// mib converts simulated bytes to the MB the repository's reports
// print (2^20 bytes).
const mib = 1 << 20

// maxDrainSeconds bounds the simulated time the checks wait for
// in-flight invocations to settle after the window closes.
const maxDrainSeconds = 600

// replayFamilies are the event-label families whose host time the
// traced run reports, mapped to their metric names. Labels are
// "<family>:<function>" or a bare family name.
var replayFamilies = map[string]string{
	"request":   "faas.request_s",
	"boot":      "faas.boot_s",
	"thaw":      "faas.thaw_s",
	"exec":      "faas.exec_s",
	"keepalive": "faas.keepalive_s",
	"desiccant": "core.host_s",
}

// stepper advances an engine to a deadline. The traced run steps the
// engine itself and charges each event's host time to the family of
// its label; the untraced run uses the engine's own loop.
type stepper struct {
	eng   *sim.Engine
	tr    *tracer
	label string
	// events counts fired events other than the invariant checker's
	// own sweeps, so traced and untraced runs agree.
	events uint64
}

func newStepper(eng *sim.Engine, tr *tracer) *stepper {
	st := &stepper{eng: eng, tr: tr}
	if tr != nil {
		eng.SetFireHook(func(label string, _ sim.Time, _ int) { st.label = label })
	}
	return st
}

func (st *stepper) runUntil(deadline sim.Time) {
	if st.tr == nil {
		st.eng.RunUntil(deadline)
		return
	}
	for {
		next, ok := st.eng.Next()
		if !ok || next > deadline {
			break
		}
		t0 := time.Now()
		st.eng.Step()
		d := time.Since(t0)
		family, _, _ := strings.Cut(st.label, ":")
		if family != "invariant" {
			st.events++
		}
		name, ok := replayFamilies[family]
		if !ok {
			name = "other." + family + "_s"
		}
		st.tr.host[name] += d
	}
	st.eng.RunUntil(deadline) // advance the clock to the deadline
}

// firedEvents reports the model's own fired events.
func (st *stepper) firedEvents() uint64 {
	if st.tr == nil {
		return st.eng.Fired()
	}
	return st.events
}

// synthesize builds the matched, rate-normalized assignment set.
func synthesize(seed uint64, functions int, zipf, baseRate float64) []trace.Assignment {
	tr := trace.Generate(trace.GenConfig{Seed: seed, Functions: functions})
	as := trace.Match(tr, workload.All())
	if zipf > 0 {
		trace.ApplyZipf(as, zipf, seed+3)
	}
	trace.NormalizeRate(as, baseRate)
	return as
}

func runReplay(seed uint64, m *meter, tr *tracer) (*outcome, error) {
	m.begin()
	var as []trace.Assignment
	tr.span("trace.synth_s", func() { as = synthesize(replayTraceSeed, replayFunctions, 0, replayBaseRate) })

	eng := sim.NewEngine()
	pcfg := faas.DefaultConfig()
	pcfg.CacheBytes = replayCacheBytes
	var bus *obs.Bus
	if tr != nil {
		bus = obs.NewBus(eng)
		pcfg.Events = bus
	}
	p := faas.New(pcfg, eng)
	mgr := core.Attach(p, core.DefaultConfig())
	var chk *invariant.Checker
	var rec *obs.Recorder
	if tr != nil {
		if tr.check {
			chk = invariant.Attach(eng, bus, p, mgr)
		}
		rec = obs.NewRecorder()
		rec.CountOnly()
		bus.Subscribe(rec)
	}
	warmEnd := sim.Time(replayWarmup)
	end := warmEnd.Add(replayWindow)
	rp := trace.NewReplayer(p, as, seed+1)
	arrivals := rp.Schedule(0, warmEnd, replayWarmupScale)
	arrivals += rp.Schedule(warmEnd, end, replayScale)
	st := newStepper(eng, tr)
	m.setupDone()

	st.runUntil(warmEnd)
	s := p.Stats()
	warmRequests, warmSettled := s.Requests, s.Completions+s.Drops
	warmHeld := int64(p.InFlightCount() + p.QueueLength())
	st.runUntil(end)
	mgr.Stop()
	m.runDone()

	// The model's outcomes cover the whole replay, warm-up included:
	// resetting the platform's counters at the window start, as Fig. 9
	// does, would break the invariant checker's monotone-counter and
	// span-conservation laws in the traced run.
	stats := map[string]float64{
		"trace.arrivals":  float64(arrivals),
		"sim.events":      float64(st.firedEvents()),
		"requests":        float64(s.Requests),
		"completions":     float64(s.Completions),
		"peak_phys_mb":    float64(p.Machine().PeakPhysBytes()) / mib,
		"reclaim_cpu_pct": 100 * s.ReclaimCPU.Seconds() / (pcfg.CPUs * end.Sub(0).Seconds()),
		"cpu_busy_s":      s.CPUBusy.Seconds(),
	}
	addPlatformStats(stats, s)
	addManagerStats(stats, mgr.Stats(), core.Stats{})
	addPageCounters(stats, p.Machine())
	invocations := s.Completions

	// Checks, outside the timed run. Mid-run, invocations still booting
	// hold no instance yet, so only an upper bound holds at warm-up end;
	// after a drain with no further arrivals the books balance exactly.
	var errs []string
	if warmRequests < warmSettled+warmHeld {
		errs = append(errs, fmt.Sprintf("at warm-up end: requests %d < %d settled + %d in flight or queued",
			warmRequests, warmSettled, warmHeld))
	}
	if int64(arrivals) != s.Requests {
		errs = append(errs, fmt.Sprintf("%d arrivals scheduled, %d submitted", arrivals, s.Requests))
	}
	for i := 0; i < maxDrainSeconds && (s.Completions+s.Drops != s.Requests || p.InFlightCount() != 0 || p.QueueLength() != 0); i++ {
		eng.RunUntil(eng.Now().Add(sim.Second))
	}
	if err := conservation(s.Requests, s.Completions, s.Drops, p.InFlightCount(), p.QueueLength()); err != nil {
		errs = append(errs, "after drain: "+err.Error())
	}
	if a := p.Machine().Audit(); len(a) != 0 {
		errs = append(errs, "machine audit: "+strings.Join(a, "; "))
	}
	if chk != nil {
		if v := chk.Final(); len(v) != 0 {
			errs = append(errs, "invariant violations: "+strings.Join(v, "; "))
		}
	}
	if tr != nil {
		addBusCounts(tr, rec)
	}
	if len(errs) != 0 {
		return nil, fmt.Errorf("%s", strings.Join(errs, "; "))
	}
	return &outcome{invocations: invocations, stats: stats}, nil
}

// conservation checks that every submitted request has completed, been
// dropped, or is still held by the platform (running or queued).
func conservation(requests, completions, drops int64, inFlight, queued int) error {
	if requests != completions+drops+int64(inFlight)+int64(queued) {
		return fmt.Errorf("requests %d != completions %d + drops %d + in flight %d + queued %d",
			requests, completions, drops, inFlight, queued)
	}
	return nil
}

// addPlatformStats records the faas model statistics of one platform
// (or a fleet's sum).
func addPlatformStats(stats map[string]float64, s *faas.Stats) {
	stats["coldboot_per_completion"] = s.ColdBootRate()
	stats["p99_latency_ms"] = percentile(&s.Latency, 99)
	stats["p50_latency_ms"] = percentile(&s.Latency, 50)
	stats["faas.cold_boots"] = float64(s.ColdBoots)
	stats["faas.warm_starts"] = float64(s.WarmStarts)
	stats["faas.warm_ratio"] = ratio(float64(s.WarmStarts), float64(s.WarmStarts+s.ColdBoots))
	stats["faas.evictions"] = float64(s.Evictions)
	stats["faas.drops"] = float64(s.Drops)
	stats["faas.oom_kills"] = float64(s.OOMKills)
	stats["faas.queue_wait_p99_ms"] = percentile(&s.QueueWait, 99)
	stats["faas.queue_waits"] = float64(s.QueueWait.Count())
}

// addManagerStats records Desiccant's counters accumulated since base.
func addManagerStats(stats map[string]float64, ms, base core.Stats) {
	reclaims := ms.Reclamations - base.Reclamations
	skipped := ms.SkippedThaws - base.SkippedThaws
	released := float64(ms.ReleasedBytes-base.ReleasedBytes) / mib
	cpu := (ms.CPUTime - base.CPUTime).Seconds()
	stats["core.activations"] = float64(ms.Activations - base.Activations)
	stats["core.reclamations"] = float64(reclaims)
	stats["core.skip_ratio"] = ratio(float64(skipped), float64(reclaims+skipped))
	stats["core.retries"] = float64(ms.Retries - base.Retries)
	stats["core.starved"] = float64(ms.Starved - base.Starved)
	stats["core.released_mb"] = released
	stats["core.mb_per_reclaim_cpu_s"] = ratio(released, cpu)
}

// addPageCounters records a machine's lifetime paging flows.
func addPageCounters(stats map[string]float64, machines ...*osmem.Machine) {
	for _, mc := range machines {
		pc := mc.PageCounters()
		stats["osmem.commits"] += float64(pc.Commits)
		stats["osmem.releases"] += float64(pc.Releases)
	}
}

// addBusCounts folds the traced run's event counts into the tracer.
func addBusCounts(tr *tracer, recs ...*obs.Recorder) {
	for _, r := range recs {
		tr.counts["gc.young"] += float64(r.CountByKind(obs.EvGCYoung))
		tr.counts["gc.full"] += float64(r.CountByKind(obs.EvGCFull))
		tr.counts["heap.resizes"] += float64(r.CountByKind(obs.EvHeapResize))
	}
}

// percentile is d's p-th percentile, or 0 for an empty distribution.
func percentile(d *metrics.Distribution, p float64) float64 {
	if d.Count() == 0 {
		return 0
	}
	return d.Percentile(p)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
