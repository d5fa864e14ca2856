package main

import (
	"fmt"
	"math"
	"strings"

	"desiccant/internal/container"
	"desiccant/internal/metrics"
	"desiccant/internal/obs"
	"desiccant/internal/osmem"
	"desiccant/internal/runtime"
	"desiccant/internal/sim"
	"desiccant/internal/workload"
)

// The characterize workload is the Table 1 suite shaped like Fig. 7:
// every function under vanilla, eager and Desiccant for 100 end-to-end
// invocations on its own machine, with the single-function rig's
// settings (256 MiB instances, OpenWhisk library sharing plus a
// background sharer, unmap of private libraries on reclaim).
const (
	charIterations = 100
	charBudget     = 256 << 20
	// charCPUShare converts GC and fault core time to wall time, as the
	// platform's per-invocation share does.
	charCPUShare = 0.14
	// charInputs: an input seed draws the workloads' jitter; the
	// outcomes barely move with it, so a few inputs per run suffice.
	charInputs = 4
)

// charMode is a per-instance memory management mode.
type charMode int

const (
	modeVanilla charMode = iota
	modeEager
	modeDesiccant
)

var charModes = []charMode{modeVanilla, modeEager, modeDesiccant}

// Paper-reported mean memory reduction vs vanilla (Fig. 7).
var paperReduction = []struct {
	lang runtime.Language
	x    float64
}{{runtime.Java, 2.78}, {runtime.JavaScript, 1.93}}

// charCell is one (function, mode) rig: a machine with the function's
// chain of instances.
type charCell struct {
	spec      *workload.Spec
	mode      charMode
	machine   *osmem.Machine
	instances []*container.Instance
	clock     sim.Time
	reclaimed sim.Duration // reclamation core time
	finalUSS  int64
	ussRatio  float64 // mean USS/ideal over iterations
}

// newCharCell boots the rig: the background sharer that keeps the
// language's libraries shared, then one instance per chain stage.
func newCharCell(spec *workload.Spec, mode charMode, bus *obs.Bus) (*charCell, error) {
	c := &charCell{spec: spec, mode: mode, machine: osmem.NewMachine(osmem.DefaultFaultCosts())}
	sharer := &workload.Spec{
		Name: "background-sharer", Language: spec.Language, ChainLength: 1,
		ExecTime: sim.Millisecond, ObjectSize: 4096, NonHeapBytes: 4096,
	}
	opts := container.Options{MemoryBudget: charBudget, ShareLibraries: true, Events: bus}
	if _, err := container.New(c.machine, 0, sharer, 0, 0, opts); err != nil {
		return nil, err
	}
	for stage := 0; stage < spec.ChainLength; stage++ {
		inst, err := container.New(c.machine, stage+1, spec, stage, 0, opts)
		if err != nil {
			return nil, err
		}
		c.instances = append(c.instances, inst)
	}
	return c, nil
}

// iterate runs one end-to-end invocation (every chain stage) and
// returns its modeled latency.
func (c *charCell) iterate(rng *sim.RNG, tr *tracer) (sim.Duration, error) {
	var latency sim.Duration
	for _, inst := range c.instances {
		c.clock = c.clock.Add(sim.Second)
		inst.BeginRun(c.clock)
		var rep workload.BodyReport
		var gc, faults sim.Duration
		var err error
		tr.span("container.invoke_s", func() { rep, gc, faults, err = inst.InvokeBody(rng) })
		if err != nil {
			return 0, fmt.Errorf("%s stage %d: %w", inst.Spec.Name, inst.Stage, err)
		}
		wall := sim.Duration(rng.Jitter(float64(inst.Spec.ExecTime), 0.08))
		if rep.DeoptApplied && inst.Spec.DeoptSlowdown > 1 {
			wall = sim.Duration(float64(wall) * inst.Spec.DeoptSlowdown)
		}
		wall += sim.WorkDuration(gc+faults, charCPUShare)
		latency += wall
		c.clock = c.clock.Add(wall)
		if c.mode == modeEager {
			// The eager baseline's stock GC hook at exit; its cost is
			// platform CPU, not user latency.
			inst.Runtime.CollectFull(true)
			inst.Runtime.DrainGCCost()
		}
		tr.span("container.freeze_s", func() { inst.Freeze(c.clock) })
	}
	for _, inst := range c.instances {
		inst.State.ReleaseIntermediates()
	}
	if c.mode == modeDesiccant {
		for _, inst := range c.instances {
			tr.span("container.reclaim_s", func() {
				c.reclaimed += inst.Reclaim(false, true).CPUCost
			})
		}
	}
	return latency, nil
}

// uss sums USS over the chain and returns it with the ideal bound:
// page-aligned live heap plus the non-heap state each stage needs.
func (c *charCell) uss(tr *tracer) (uss, ideal int64) {
	tr.span("container.uss_s", func() {
		for _, inst := range c.instances {
			uss += inst.USS()
		}
	})
	for _, inst := range c.instances {
		ideal += osmem.PagesFor(inst.Runtime.LiveBytes())*osmem.PageSize + inst.Spec.NonHeapBytes
	}
	return uss, ideal
}

func runCharacterize(seed uint64, m *meter, tr *tracer) (*outcome, error) {
	m.begin()
	var bus *obs.Bus
	var rec *obs.Recorder
	if tr != nil {
		// Runtimes stamp their events from an engine clock; the rigs
		// have none, so a private idle engine supplies time zero.
		bus = obs.NewBus(sim.NewEngine())
		rec = obs.NewRecorder()
		rec.CountOnly()
		bus.Subscribe(rec)
	}
	specs := workload.All()
	var cells []*charCell
	booted := 0
	for _, spec := range specs {
		for _, mode := range charModes {
			c, err := newCharCell(spec, mode, bus)
			if err != nil {
				return nil, fmt.Errorf("boot %s: %w", spec.Name, err)
			}
			cells = append(cells, c)
			booted += len(c.instances)
		}
	}
	m.setupDone()

	var latency metrics.Distribution
	for ci, c := range cells {
		// Each cell draws from its own stream of the run's seed, so the
		// result does not depend on the order cells run in.
		rng := sim.NewRNG(seed).Fork(uint64(ci))
		var ratios metrics.Distribution
		for i := 0; i < charIterations; i++ {
			lat, err := c.iterate(rng, tr)
			if err != nil {
				return nil, err
			}
			latency.Add(lat.Millis())
			uss, ideal := c.uss(tr)
			ratios.Add(metrics.Ratio(float64(uss), float64(ideal)))
			c.finalUSS = uss
		}
		c.ussRatio = ratios.Mean()
	}
	m.runDone()

	var errs []string
	var peak, simSeconds float64
	var reclaimCPU sim.Duration
	var machines []*osmem.Machine
	for _, c := range cells {
		if a := c.machine.Audit(); len(a) != 0 {
			errs = append(errs, fmt.Sprintf("%s/%d machine audit: %s", c.spec.Name, c.mode, strings.Join(a, "; ")))
		}
		if c.finalUSS <= 0 {
			errs = append(errs, fmt.Sprintf("%s/%d: final USS %d", c.spec.Name, c.mode, c.finalUSS))
		}
		peak += float64(c.machine.PeakPhysBytes()) / mib
		machines = append(machines, c.machine)
		if c.mode == modeDesiccant {
			reclaimCPU += c.reclaimed
			simSeconds += sim.Duration(c.clock).Seconds()
		}
	}
	if len(errs) != 0 {
		return nil, fmt.Errorf("%s", strings.Join(errs, "; "))
	}

	stats := map[string]float64{
		"coldboot_per_completion": float64(booted) / float64(len(cells)*charIterations),
		"p99_latency_ms":          latency.Percentile(99),
		"p50_latency_ms":          latency.Percentile(50),
		"reclaim_cpu_pct":         100 * reclaimCPU.Seconds() / simSeconds,
		"peak_phys_mb":            peak,
	}
	// Per-function reduction vs vanilla, averaged per language and over
	// the suite, against the paper's per-language means.
	var all []float64
	byLang := make(map[runtime.Language][]float64)
	for i := 0; i < len(cells); i += len(charModes) {
		van, des := cells[i+int(modeVanilla)], cells[i+int(modeDesiccant)]
		r := metrics.Ratio(float64(van.finalUSS), float64(des.finalUSS))
		all = append(all, r)
		byLang[van.spec.Language] = append(byLang[van.spec.Language], r)
		for _, c := range cells[i : i+len(charModes)] {
			key := fmt.Sprintf("uss.%s.%d", c.spec.Name, c.mode)
			stats[key] = float64(c.finalUSS)
			stats[key+".ratio"] = c.ussRatio
		}
	}
	stats["mem_reduction_x"] = mean(all)
	var relerr []float64
	for _, p := range paperReduction {
		got := mean(byLang[p.lang])
		stats["mem_reduction_x."+string(p.lang)] = got
		relerr = append(relerr, math.Abs(got-p.x)/p.x)
	}
	stats["paper_relerr_pct"] = 100 * mean(relerr)
	addPageCounters(stats, machines...)
	if tr != nil {
		addBusCounts(tr, rec)
	}
	return &outcome{invocations: int64(len(cells) * charIterations), stats: stats}, nil
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var s float64
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}
