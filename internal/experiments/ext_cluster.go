package experiments

import (
	"fmt"
	"io"

	"desiccant/internal/cluster"
	"desiccant/internal/sim"
)

// ClusterSweepOptions parameterizes the ext-cluster experiment family:
// a Zipfian multi-function trace replayed over the internal/cluster
// fleet once per placement policy × manager mode, plus a COCOA-style
// capacity grid (nodes × per-node RAM → cold-start SLO) under the
// best policy. Sub-runs are pure functions of their options, so the
// sweep fans out through the package's deterministic-collection pool
// and the CSV is byte-identical at any -parallel/-shards setting.
type ClusterSweepOptions struct {
	// Cluster is every sub-run's template. Its Nodes and CacheBytes
	// size the policy × mode table; each cell sets its own Policy and
	// Mode, and each grid point its own Nodes and CacheBytes.
	Cluster cluster.Options
	// Parallel bounds the sweep's worker pool (0 = GOMAXPROCS).
	Parallel int
	// Policies × Modes spans the table.
	Policies []string
	Modes    []string
	// GridNodes × GridCache spans the capacity grid, replayed under
	// the garbage-aware policy in reclaim mode.
	GridNodes []int
	GridCache []int64
	// SLOColdBoot is the capacity grid's cold-start SLO.
	SLOColdBoot float64
}

// DefaultClusterSweepOptions returns the committed 16-node sweep over
// every policy × mode, with migration armed for every dynamic cell and
// a 16–64 node capacity grid.
func DefaultClusterSweepOptions() ClusterSweepOptions {
	return ClusterSweepOptions{
		Cluster: cluster.Options{
			Nodes:          16,
			Shards:         1,
			RouteLatency:   2 * sim.Millisecond,
			Window:         60 * sim.Second,
			Scale:          15,
			TraceFunctions: 400,
			BaseRate:       2.2,
			TraceSeed:      11,
			CacheBytes:     256 << 20,
			ZipfSkew:       0.9,
			Migration:      cluster.DefaultMigration(),
		},
		Policies:    cluster.PolicyNames,
		Modes:       cluster.Modes,
		GridNodes:   []int{16, 32, 64},
		GridCache:   []int64{128 << 20, 256 << 20, 512 << 20},
		SLOColdBoot: 0.3,
	}
}

// clusterOptions builds one cell's cluster.Options from the template.
func (o ClusterSweepOptions) clusterOptions(nodes int, cache int64, policy, mode string) cluster.Options {
	c := o.Cluster
	c.Nodes, c.CacheBytes, c.Policy, c.Mode = nodes, cache, policy, mode
	return c
}

// ClusterCell is one policy × mode replay of the table.
type ClusterCell struct {
	Policy string
	Mode   string
	Res    *cluster.Result
}

// ClusterSweepResult is the family's full measurement.
type ClusterSweepResult struct {
	Nodes int
	Cells []ClusterCell
	Grid  []cluster.CapacityPoint
	SLO   float64
}

// Cell returns the table cell for (policy, mode).
func (r *ClusterSweepResult) Cell(policy, mode string) (*cluster.Result, bool) {
	for _, c := range r.Cells {
		if c.Policy == policy && c.Mode == mode {
			return c.Res, true
		}
	}
	return nil, false
}

// RunClusterSweep replays the policy × mode table and the capacity
// grid, fanning cells out over the deterministic worker pool.
func RunClusterSweep(o ClusterSweepOptions) (*ClusterSweepResult, error) {
	if len(o.Policies) == 0 || len(o.Modes) == 0 {
		return nil, fmt.Errorf("experiments: cluster sweep needs at least one policy and one mode")
	}
	type cellKey struct {
		policy, mode string
	}
	keys := make([]cellKey, 0, len(o.Policies)*len(o.Modes))
	for _, policy := range o.Policies {
		for _, mode := range o.Modes {
			keys = append(keys, cellKey{policy, mode})
		}
	}
	cells, err := runIndexed(o.Parallel, len(keys), func(i int) (ClusterCell, error) {
		k := keys[i]
		res, err := cluster.Run(o.clusterOptions(o.Cluster.Nodes, o.Cluster.CacheBytes, k.policy, k.mode))
		if err != nil {
			return ClusterCell{}, fmt.Errorf("cell %s/%s: %w", k.policy, k.mode, err)
		}
		if err := res.CheckConsistency(); err != nil {
			return ClusterCell{}, fmt.Errorf("cell %s/%s: %w", k.policy, k.mode, err)
		}
		return ClusterCell{Policy: k.policy, Mode: k.mode, Res: res}, nil
	})
	if err != nil {
		return nil, err
	}

	type gridKey struct {
		nodes int
		cache int64
	}
	gkeys := make([]gridKey, 0, len(o.GridNodes)*len(o.GridCache))
	for _, n := range o.GridNodes {
		for _, c := range o.GridCache {
			gkeys = append(gkeys, gridKey{n, c})
		}
	}
	grid, err := runIndexed(o.Parallel, len(gkeys), func(i int) (cluster.CapacityPoint, error) {
		k := gkeys[i]
		res, err := cluster.Run(o.clusterOptions(k.nodes, k.cache, cluster.PolicyGarbageAware, "reclaim"))
		if err != nil {
			return cluster.CapacityPoint{}, fmt.Errorf("grid %dx%dMB: %w", k.nodes, k.cache>>20, err)
		}
		if err := res.CheckConsistency(); err != nil {
			return cluster.CapacityPoint{}, fmt.Errorf("grid %dx%dMB: %w", k.nodes, k.cache>>20, err)
		}
		return cluster.CapacityPoint{Nodes: k.nodes, CacheBytes: k.cache, Res: res}, nil
	})
	if err != nil {
		return nil, err
	}
	return &ClusterSweepResult{Nodes: o.Cluster.Nodes, Cells: cells, Grid: grid, SLO: o.SLOColdBoot}, nil
}

// WriteCSV renders the policy × mode table followed by the capacity
// curve. Byte-identical at any -parallel/-shards setting.
func (r *ClusterSweepResult) WriteCSV(w io.Writer) {
	fmt.Fprintf(w, "# cluster sweep: %d nodes, policy x mode\n", r.Nodes)
	fmt.Fprintln(w, "policy,mode,completions,cold_boot_rate,p99_ms,headroom_x,evictions,migrations,deaths")
	for _, c := range r.Cells {
		res := c.Res
		var evictions int64
		for _, row := range res.Rows {
			evictions += row.Evictions
		}
		fmt.Fprintf(w, "%s,%s,%d,%.4f,%.1f,%.2f,%d,%d,%d\n",
			c.Policy, c.Mode, res.Completions, res.ColdBootRate(),
			res.Fleet.Quantile(0.99), res.HeadroomX(), evictions, res.MigratedOut, res.Deaths)
	}
	cluster.WriteCapacityCSV(w, r.Grid, r.SLO)
}
