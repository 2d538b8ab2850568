package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"
)

// runSelfcheck measures the benchmark's own repeatability: for every
// workload, k pairs of end-to-end runs of this one binary in the order
// A1 B1 A2 B2 ..., pair i on seed+i. It prints, per workload and metric,
// both sets' medians, how far apart they are as a share of the smaller
// (either set may be the worse one: they are the same code), the wider of
// the two quartile spreads, and the bound; and it fails when the
// disagreement of a bounded metric exceeds its bound.
func runSelfcheck(ctx context.Context, e *env, bf *benchmarkFile, seed int64, seconds, k int) error {
	budget := time.Duration(seconds) * time.Second
	var over []string
	for _, spec := range workloads {
		sets := [2]map[string][]float64{{}, {}}
		for i := 0; i < k; i++ {
			for s := 0; s < 2; s++ {
				st, rs, t, err := endToEnd(ctx, e, spec, seed+int64(i), minRounds, maxRounds, budget)
				if err != nil {
					return fmt.Errorf("%s: %w", spec.name, err)
				}
				if t.failed > 0 {
					return fmt.Errorf("%s: %d of %d operations failed: %v", spec.name, t.failed, t.attempted, t.firstErr)
				}
				for name, v := range st {
					sets[s][name] = append(sets[s][name], v)
				}
				fmt.Printf("selfcheck %s pair %d/%d set %c: %d rounds apply_p50_ms=%.3f host.fsync_probe_ms=%.2f host.cpu_probe_ms=%.2f\n",
					spec.name, i+1, k, 'A'+s, len(rs), st["apply_p50_ms"], st["host.fsync_probe_ms"], st["host.cpu_probe_ms"])
			}
		}
		fmt.Printf("\n### selfcheck %s (K=%d, %d s)\n", spec.name, k, seconds)
		fmt.Printf("%-30s %-6s %12s %12s %9s %9s %7s\n", "metric", "unit", "median A", "median B", "disagree", "spread", "bound")
		// The gated metrics against their bounds, then what the same rounds
		// measured of the per-layer list, for the record: the timings among
		// them are there because they could not hold a 10 % bound.
		for _, d := range append(append([]metricDef(nil), bf.EndToEnd...), bf.PerLayer...) {
			if len(sets[0][d.Name]) == 0 {
				continue
			}
			a, b := median(sets[0][d.Name]), median(sets[1][d.Name])
			disagree := 0.0
			if a != b {
				disagree = math.Abs(b-a) / math.Min(math.Abs(a), math.Abs(b))
			}
			spread := math.Max(quartileSpread(sets[0][d.Name]), quartileSpread(sets[1][d.Name]))
			bound := "      -"
			if d.Bound > 0 {
				bound = fmt.Sprintf("%6.0f%%", 100*d.Bound)
				if disagree > d.Bound {
					bound += "  OVER"
					over = append(over, spec.name+"/"+d.Name)
				}
			}
			fmt.Printf("%-30s %-6s %12.4f %12.4f %8.2f%% %8.2f%% %s\n",
				d.Name, d.Unit, a, b, 100*disagree, 100*spread, bound)
		}
		fmt.Println()
	}
	if over != nil {
		return errors.New("selfcheck: beyond its bound: " + fmt.Sprint(over))
	}
	return nil
}
