package main

import (
	"fmt"
	"strings"

	"desiccant/internal/cluster"
	"desiccant/internal/core"
	"desiccant/internal/faas"
	"desiccant/internal/invariant"
	"desiccant/internal/obs"
	"desiccant/internal/osmem"
	"desiccant/internal/sim"
)

// The cluster workload is ext-cluster's headline cell with a cache
// small enough that the router migrates: 16 nodes with 256 MiB of
// frozen cache each, Zipf 0.9 popularity at scale 15, garbage-aware
// placement, Desiccant on every node, a 120 s window, on two shards.
const (
	clusterCacheBytes = 256 << 20
	clusterWindow     = 120 * sim.Second
	clusterShards     = 2
)

// clusterTraceSeed pins the input. cluster.Options has one seed that
// draws the trace population, the Zipf ranks, the arrivals and the
// placement stream together, and moving it changes the workload
// itself: over five seeds cold boots per completion ranged 0.75-1.01
// and p99 latency 7.6-25.5 s. The workload therefore replays
// ext-cluster's own seed on every run; the run seed does not reach it.
const clusterTraceSeed = 11

// clusterOptions returns the workload's configuration.
func clusterOptions(shards int) cluster.Options {
	o := cluster.DefaultOptions()
	o.CacheBytes = clusterCacheBytes
	o.Window = clusterWindow
	o.Shards = shards
	o.TraceSeed = clusterTraceSeed
	return o
}

func runCluster(_ uint64, m *meter, tr *tracer) (*outcome, error) {
	return runClusterShards(clusterShards, m, tr)
}

// clusterNode is what the workload keeps of one node.
type clusterNode struct {
	eng      *sim.Engine
	platform *faas.Platform
	mgr      *core.Manager
	checker  *invariant.Checker
	rec      *obs.Recorder
	// sweeps counts the invariant checker's own events on this node's
	// engine (traced run only); each slot is written only by the
	// goroutine running the node's domain.
	sweeps uint64
}

func runClusterShards(shards int, m *meter, tr *tracer) (*outcome, error) {
	o := clusterOptions(shards)
	nodes := make([]*clusterNode, o.Nodes)
	o.ObserveNode = func(i int, eng *sim.Engine, bus *obs.Bus, p *faas.Platform, mgr *core.Manager) {
		n := &clusterNode{eng: eng, platform: p, mgr: mgr}
		nodes[i] = n
		if tr != nil {
			n.rec = obs.NewRecorder()
			n.rec.CountOnly()
			bus.Subscribe(n.rec)
			if tr.check {
				n.checker = invariant.Attach(eng, bus, p, mgr)
				eng.SetFireHook(func(label string, _ sim.Time, _ int) {
					if strings.HasPrefix(label, "invariant:") {
						n.sweeps++
					}
				})
			}
		}
		// The last node wired is the end of set-up: the replay starts
		// once every node is observed.
		m.setupDone()
	}
	m.begin()
	res, err := cluster.Run(o)
	if err != nil {
		return nil, err
	}
	m.runDone()

	var errs []string
	if err := res.CheckConsistency(); err != nil {
		errs = append(errs, err.Error())
	}
	if res.Submitted != res.Acks {
		errs = append(errs, fmt.Sprintf("router submitted %d requests, %d acked", res.Submitted, res.Acks))
	}
	if res.MigratedOut != res.MigratedIn {
		errs = append(errs, fmt.Sprintf("%d instances migrated out, %d in", res.MigratedOut, res.MigratedIn))
	}
	if len(res.AdoptErrs) != 0 || len(res.Violations) != 0 {
		errs = append(errs, fmt.Sprintf("%d adopt errors, %d router violations", len(res.AdoptErrs), len(res.Violations)))
	}

	var fleet faas.Stats
	var mgrs core.Stats
	var machines []*osmem.Machine
	var events uint64
	for i, n := range nodes {
		if n == nil {
			return nil, fmt.Errorf("node %d was never observed", i)
		}
		s := n.platform.Stats()
		if err := conservation(s.Requests, s.Completions, s.Drops, n.platform.InFlightCount(), n.platform.QueueLength()); err != nil {
			errs = append(errs, fmt.Sprintf("node %d: %v", i, err))
		}
		if a := n.platform.Machine().Audit(); len(a) != 0 {
			errs = append(errs, fmt.Sprintf("node %d machine audit: %s", i, strings.Join(a, "; ")))
		}
		if n.checker != nil {
			if v := n.checker.Final(); len(v) != 0 {
				errs = append(errs, fmt.Sprintf("node %d invariant violations: %s", i, strings.Join(v, "; ")))
			}
		}
		sumPlatform(&fleet, s)
		if n.mgr != nil {
			sumManager(&mgrs, n.mgr.Stats())
		}
		machines = append(machines, n.platform.Machine())
		events += n.eng.Fired() - n.sweeps
	}
	if fleet.Requests != res.Submitted {
		errs = append(errs, fmt.Sprintf("nodes received %d requests, router submitted %d", fleet.Requests, res.Submitted))
	}
	if len(errs) != 0 {
		return nil, fmt.Errorf("%s", strings.Join(errs, "; "))
	}

	cpus := faas.DefaultConfig().CPUs
	stats := map[string]float64{
		"trace.arrivals":          float64(res.Submitted),
		"sim.events":              float64(events),
		"requests":                float64(fleet.Requests),
		"completions":             float64(res.Completions),
		"peak_phys_mb":            float64(res.PeakBytes) / mib,
		"reclaim_cpu_pct":         100 * fleet.ReclaimCPU.Seconds() / (float64(o.Nodes) * cpus * o.Window.Seconds()),
		"cpu_busy_s":              fleet.CPUBusy.Seconds(),
		"fleet_p99_latency_ms":    res.Fleet.Quantile(0.99),
		"cluster.reports":         float64(res.Reports),
		"cluster.mig_orders":      float64(res.MigOrders),
		"cluster.moves":           float64(res.Moves),
		"cluster.moves_per_order": ratio(float64(res.Moves), float64(res.MigOrders)),
		"cluster.adopt_errors":    float64(len(res.AdoptErrs)),
		"cluster.migrated":        float64(res.MigratedIn),
	}
	addPlatformStats(stats, &fleet)
	stats["coldboot_per_completion"] = res.ColdBootRate()
	addManagerStats(stats, mgrs, core.Stats{})
	addPageCounters(stats, machines...)
	if tr != nil {
		for _, n := range nodes {
			addBusCounts(tr, n.rec)
		}
		tr.span("trace.synth_s", func() { synthesize(o.TraceSeed, o.TraceFunctions, o.ZipfSkew, o.BaseRate) })
	}
	return &outcome{invocations: res.Completions, stats: stats}, nil
}

// sumPlatform adds one node's platform statistics into a fleet total.
func sumPlatform(dst, s *faas.Stats) {
	dst.Requests += s.Requests
	dst.Completions += s.Completions
	dst.ColdBoots += s.ColdBoots
	dst.WarmStarts += s.WarmStarts
	dst.Evictions += s.Evictions
	dst.OOMKills += s.OOMKills
	dst.Drops += s.Drops
	dst.CPUBusy += s.CPUBusy
	dst.ReclaimCPU += s.ReclaimCPU
	dst.Latency.Merge(&s.Latency)
	dst.QueueWait.Merge(&s.QueueWait)
}

// sumManager adds one node's manager counters into a fleet total.
func sumManager(dst *core.Stats, s core.Stats) {
	dst.Activations += s.Activations
	dst.Reclamations += s.Reclamations
	dst.SkippedThaws += s.SkippedThaws
	dst.Retries += s.Retries
	dst.Starved += s.Starved
	dst.ReleasedBytes += s.ReleasedBytes
	dst.CPUTime += s.CPUTime
}
