package experiments

import (
	"fmt"
	"io"

	"desiccant/internal/core"
	"desiccant/internal/faas"
	"desiccant/internal/obs"
	"desiccant/internal/sim"
	"desiccant/internal/trace"
)

// ReplayProfile is the single-machine Desiccant trace replay behind
// the observe experiment and the trace subcommand, so the two exports
// describe the same run.
type ReplayProfile struct {
	// Scale is the trace scale factor.
	Scale float64
	// Window is the replayed duration.
	Window sim.Duration
	// CacheBytes is the instance cache size.
	CacheBytes int64
	// TraceFunctions is the synthetic trace's population size.
	TraceFunctions int
	// BaseRate pins the total arrival rate at scale 1, in req/s.
	BaseRate float64
	// TraceSeed seeds trace synthesis and replay.
	TraceSeed uint64
}

// DefaultReplayProfile returns a window big enough to show cold
// boots, freezes, manager activations, and reclamations on one track.
func DefaultReplayProfile() ReplayProfile {
	return ReplayProfile{
		Scale:          15,
		Window:         60 * sim.Second,
		CacheBytes:     2 << 30,
		TraceFunctions: 400,
		BaseRate:       2.2,
		TraceSeed:      11,
	}
}

// ReplayProfile returns DefaultReplayProfile shrunk for Quick and
// reseeded by Seed.
func (o Options) ReplayProfile() ReplayProfile {
	p := DefaultReplayProfile()
	if o.Quick {
		p.Window = 20 * sim.Second
		p.TraceFunctions = 200
	}
	if o.Seed != 0 {
		p.TraceSeed = o.Seed
	}
	return p
}

// busReplay is a ReplayProfile wired for observation: one Desiccant
// platform publishing on an event bus, with a recorder subscribed.
type busReplay struct {
	prof     ReplayProfile
	eng      *sim.Engine
	rec      *obs.Recorder
	platform *faas.Platform
	mgr      *core.Manager
}

// newBusReplay wires the machine. The recorder keeps event payloads
// only when keepEvents is set (a Perfetto export reads them); subs
// subscribe after it and before the manager attaches, so they see the
// manager's first event.
func newBusReplay(prof ReplayProfile, keepEvents bool, subs ...obs.Subscriber) *busReplay {
	eng := sim.NewEngine()
	bus := obs.NewBus(eng)
	rec := obs.NewRecorder()
	// Engine fires are counted (engine.fired, engine.queue_depth) but
	// not stored: one instant per simulated event would dwarf the
	// lifecycle tracks the trace exists to show.
	rec.Ignore(obs.EvEngineFire)
	if !keepEvents {
		// Nothing reads the event payloads, so keep only the counts.
		// Summaries are unchanged — Len and CountByKind report as if
		// storage were on — and memory stays constant no matter how
		// many invocations replay.
		rec.CountOnly()
	}
	bus.Subscribe(rec)
	for _, s := range subs {
		bus.Subscribe(s)
	}
	pcfg := faas.DefaultConfig()
	pcfg.CacheBytes = prof.CacheBytes
	pcfg.Events = bus
	platform := faas.New(pcfg, eng)
	return &busReplay{prof: prof, eng: eng, rec: rec, platform: platform,
		mgr: core.Attach(platform, core.DefaultConfig())}
}

// run replays the trace over [0, Window) and stops the manager.
// There is no warmup: an arrival can land at t=0, and a stats reset
// there would erase it.
func (r *busReplay) run() {
	p := r.prof
	assignments := trace.Population(p.TraceSeed, p.TraceFunctions, nil, 0, p.BaseRate)
	end := sim.Time(p.Window)
	trace.NewReplayer(r.platform, assignments, p.TraceSeed+1).Schedule(0, end, p.Scale)
	r.eng.RunUntil(end)
	r.mgr.Stop()
}

// ObserveOptions parameterizes the instrumented replay: the replay
// profile with the full observability stack attached — event
// recorder, metrics collector, and periodic sampler.
type ObserveOptions struct {
	ReplayProfile
	// SampleEvery is the metrics sampling cadence.
	SampleEvery sim.Duration

	// Trace, when non-nil, receives the Chrome/Perfetto trace JSON.
	Trace io.Writer
	// Metrics, when non-nil, receives the sampled time series as CSV.
	Metrics io.Writer
	// Summary, when non-nil, receives the human-readable summary.
	Summary io.Writer
	// Snapshot, when non-nil, receives the final metrics snapshot as
	// metric,value CSV (the experiment's default machine output).
	Snapshot io.Writer
}

// DefaultObserveOptions samples the default replay profile twice per
// simulated second.
func DefaultObserveOptions() ObserveOptions {
	return ObserveOptions{ReplayProfile: DefaultReplayProfile(), SampleEvery: 500 * sim.Millisecond}
}

// RunObserve replays the profile with the observability layer
// attached and writes whichever exports the options request.
// Identical options produce byte-identical exports: every writer sees
// only sim-time-stamped, deterministically ordered data.
func RunObserve(o ObserveOptions) error {
	reg := obs.NewRegistry()
	r := newBusReplay(o.ReplayProfile, o.Trace != nil, obs.NewCollector(reg))
	eng, platform := r.eng, r.platform
	obs.InstrumentEngine(platform.Events(), eng)

	// Gauges sourced outside the event stream, refreshed per sample.
	memFrac := reg.Gauge("platform.memory_used_frac")
	commits := reg.Gauge("os.page_commits")
	releases := reg.Gauge("os.page_releases")
	swapIns := reg.Gauge("os.page_swap_ins")
	swapOuts := reg.Gauge("os.page_swap_outs")
	sampler := obs.NewSampler(eng, reg, o.SampleEvery)
	if o.Metrics != nil {
		// Stream CSV rows as samples are taken instead of retaining
		// snapshots — byte-identical output, constant memory.
		sampler.StreamTo(o.Metrics)
	}
	sampler.OnSample = func(*obs.Registry) {
		memFrac.Set(platform.MemoryUsedFraction())
		pc := platform.Machine().PageCounters()
		commits.Set(float64(pc.Commits))
		releases.Set(float64(pc.Releases))
		swapIns.Set(float64(pc.SwapIns))
		swapOuts.Set(float64(pc.SwapOuts))
	}

	r.run()
	sampler.Stop()

	if o.Trace != nil {
		if err := obs.WritePerfetto(o.Trace, r.rec.Events()); err != nil {
			return err
		}
	}
	if o.Metrics != nil {
		if err := sampler.Flush(); err != nil {
			return err
		}
	}
	if o.Summary != nil {
		if err := obs.WriteSummary(o.Summary, r.rec, reg, eng.Now()); err != nil {
			return err
		}
	}
	if o.Snapshot != nil {
		if _, err := fmt.Fprintln(o.Snapshot, "metric,value"); err != nil {
			return err
		}
		for _, mv := range reg.Snapshot() {
			if _, err := fmt.Fprintf(o.Snapshot, "%s,%s\n", mv.Name, obs.FormatValue(mv.Value)); err != nil {
				return err
			}
		}
	}
	return nil
}
