// Command faas-bench drives the simulated FaaS platform with an ad-hoc
// load: a chosen function (or all of them round-robin) at a fixed
// request rate, with any of the memory-management setups. It prints a
// one-line summary plus optional per-second cache occupancy, and is
// the quickest way to watch Desiccant's effect interactively.
//
// Usage:
//
//	faas-bench [-fn fft] [-rate 20] [-duration 60] [-setup desiccant]
//	           [-cache 2048] [-cpus 20] [-trace]
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"sort"

	"desiccant/internal/core"
	"desiccant/internal/faas"
	"desiccant/internal/sim"
	"desiccant/internal/workload"
)

func main() {
	fn := flag.String("fn", "", "function name (empty = all Table 1 functions round-robin)")
	rate := flag.Float64("rate", 20, "request rate (req/s)")
	durationSec := flag.Float64("duration", 60, "run length in simulated seconds")
	setup := flag.String("setup", "desiccant", "vanilla | eager | desiccant | swap")
	cacheMB := flag.Int64("cache", 2048, "instance cache size (MiB)")
	cpus := flag.Float64("cpus", 20, "CPU cores for function execution")
	trace := flag.Bool("trace", false, "print per-second cache occupancy")
	seed := flag.Uint64("seed", 1, "seed")
	flag.Parse()

	if err := run(*fn, *rate, *durationSec, *setup, *cacheMB, *cpus, *trace, *seed); err != nil {
		fmt.Fprintln(os.Stderr, "faas-bench:", err)
		os.Exit(1)
	}
}

func run(fn string, rate, durationSec float64, setup string, cacheMB int64, cpus float64, traceCache bool, seed uint64) error {
	if !(rate > 0) || math.IsInf(rate, 1) {
		return fmt.Errorf("-rate must be a positive finite req/s, got %v", rate)
	}
	eng := sim.NewEngine()
	cfg := faas.DefaultConfig()
	cfg.Seed = seed
	cfg.CacheBytes = cacheMB << 20
	cfg.CPUs = cpus

	var mgrCfg *core.Config
	switch setup {
	case "vanilla":
	case "eager":
		cfg.Policy = faas.PolicyEager
	case "desiccant":
		c := core.DefaultConfig()
		mgrCfg = &c
	case "swap":
		c := core.DefaultConfig()
		c.Mode = core.ModeSwap
		mgrCfg = &c
	default:
		return fmt.Errorf("unknown setup %q", setup)
	}

	p := faas.New(cfg, eng)
	var mgr *core.Manager
	if mgrCfg != nil {
		mgr = core.Attach(p, *mgrCfg)
	}

	var specs []*workload.Spec
	if fn == "" {
		specs = workload.All()
	} else {
		spec, err := workload.Lookup(fn)
		if err != nil {
			return err
		}
		specs = []*workload.Spec{spec}
	}

	end := sim.Time(sim.DurationFromSeconds(durationSec))
	gap := sim.DurationFromSeconds(1 / rate)
	i := 0
	for t := sim.Time(0); t < end; t = t.Add(gap) {
		p.Submit(specs[i%len(specs)], t)
		i++
	}

	if traceCache {
		fmt.Println("second,cache_mb,cached_instances,cold_boots,evictions")
		for sec := 1.0; sec <= durationSec; sec++ {
			eng.RunUntil(sim.Time(sim.DurationFromSeconds(sec)))
			fmt.Printf("%.0f,%.1f,%d,%d,%d\n", sec,
				float64(p.MemoryUsed())/(1<<20), len(p.CachedInstances()),
				p.Stats().ColdBoots, p.Stats().Evictions)
		}
	}
	// Drain whatever is still in flight.
	eng.RunUntil(end.Add(30 * sim.Second))
	if mgr != nil {
		mgr.Stop()
	}

	st := p.Stats()
	fmt.Printf("setup=%s requests=%d completions=%d coldboots=%d (rate %.3f) warm=%d evictions=%d oom=%d\n",
		setup, st.Requests, st.Completions, st.ColdBoots, st.ColdBootRate(),
		st.WarmStarts, st.Evictions, st.OOMKills)
	if st.Latency.Count() > 0 {
		fmt.Printf("latency p50=%.1fms p90=%.1fms p99=%.1fms cpu_busy=%v reclaim_cpu=%v\n",
			st.Latency.Percentile(50), st.Latency.Percentile(90), st.Latency.Percentile(99),
			st.CPUBusy, st.ReclaimCPU)
	}
	if mgr != nil {
		ms := mgr.Stats()
		fmt.Printf("desiccant: reclamations=%d released=%.1fMB swapped=%.1fMB cpu=%v threshold=%.2f\n",
			ms.Reclamations, float64(ms.ReleasedBytes)/(1<<20), float64(ms.SwappedBytes)/(1<<20),
			ms.CPUTime, mgr.Threshold())
	}
	if len(specs) > 1 && len(st.PerFunction) > 0 {
		names := make([]string, 0, len(st.PerFunction))
		for n := range st.PerFunction {
			names = append(names, n)
		}
		sort.Slice(names, func(i, j int) bool {
			return st.PerFunction[names[i]].Mean() > st.PerFunction[names[j]].Mean()
		})
		fmt.Println("slowest functions (mean ms):")
		for i, n := range names {
			if i >= 5 {
				break
			}
			fmt.Printf("  %-18s %8.1f (n=%d)\n", n, st.PerFunction[n].Mean(), st.PerFunction[n].Count())
		}
	}
	return nil
}
