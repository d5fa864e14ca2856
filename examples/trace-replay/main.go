// Trace replay: the paper's end-to-end experiment in miniature.
//
// This example builds the full stack — simulated host, OpenWhisk-style
// platform, Azure-style synthetic trace — and runs the same load three
// times: vanilla, eager-GC, and with Desiccant attached. It prints the
// §5.3 headline metrics (cold-boot rate, throughput, tail latency) so
// you can see the cache-capacity feedback loop with your own eyes.
//
// Run it with:
//
//	go run ./examples/trace-replay
package main

import (
	"fmt"
	"log"

	"desiccant/internal/core"
	"desiccant/internal/faas"
	"desiccant/internal/sim"
	"desiccant/internal/trace"
)

const (
	warmup      = 30 * sim.Second
	replay      = 120 * sim.Second
	scaleFactor = 15.0
)

func main() {
	assignments := trace.Population(11, 1000, nil, 0, 2.2)

	fmt.Printf("%-10s %12s %12s %10s %10s %10s %12s\n",
		"setup", "coldboot/req", "throughput", "p50(ms)", "p99(ms)", "evictions", "cached@end")
	for _, setup := range []string{"vanilla", "eager", "desiccant"} {
		if err := runSetup(setup, assignments); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Println("\nDesiccant shrinks frozen instances, so the 2 GiB cache holds more")
	fmt.Println("of them; warm starts replace cold boots and the tail latency drops.")
}

func runSetup(setup string, assignments []trace.Assignment) error {
	eng := sim.NewEngine()
	cfg := faas.DefaultConfig()
	if setup == "eager" {
		cfg.Policy = faas.PolicyEager
	}
	p := faas.New(cfg, eng)

	var mgr *core.Manager
	if setup == "desiccant" {
		mgr = core.Attach(p, core.DefaultConfig())
	}

	rp := trace.NewReplayer(p, assignments, 7)
	rp.Schedule(0, sim.Time(warmup), scaleFactor)
	rp.Schedule(sim.Time(warmup), sim.Time(warmup+replay), scaleFactor)

	eng.RunUntil(sim.Time(warmup))
	p.ResetStats()
	eng.RunUntil(sim.Time(warmup + replay))
	if mgr != nil {
		mgr.Stop()
	}

	st := p.Stats()
	fmt.Printf("%-10s %12.3f %12.2f %10.1f %10.1f %10d %12d\n",
		setup, st.ColdBootRate(), float64(st.Completions)/replay.Seconds(),
		st.Latency.Percentile(50), st.Latency.Percentile(99),
		st.Evictions, len(p.CachedInstances()))
	if mgr != nil {
		ms := mgr.Stats()
		fmt.Printf("%-10s reclaimed %d instances, released %.1f MiB, burned %v CPU\n",
			"", ms.Reclamations, float64(ms.ReleasedBytes)/(1<<20), ms.CPUTime)
	}
	return nil
}
