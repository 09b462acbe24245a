// Command experiments regenerates the reproduction tables E1–E15 mapping
// the paper's theorems to measured quantities (see DESIGN.md for the index
// and EXPERIMENTS.md for recorded paper-vs-measured results).
//
// Usage:
//
//	experiments            # full scale (minutes)
//	experiments -quick     # trimmed sweeps (seconds)
//	experiments -only E5   # a single experiment
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"dualradio/internal/expr"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

// run parses args and prints the selected tables to out.
func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("experiments", flag.ExitOnError)
	var (
		quick = fs.Bool("quick", false, "trimmed sweeps for a fast pass")
		seeds = fs.Int("seeds", 0, "override runs per parameter point")
		only  = fs.String("only", "", "comma-separated experiment ids (e.g. E1,E5)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	cfg := expr.DefaultConfig()
	if *quick {
		cfg = expr.QuickConfig()
	}
	if *seeds > 0 {
		cfg.Seeds = *seeds
	}

	all := map[string]func(expr.Config) (*expr.Result, error){
		"E1":   expr.E1MISScaling,
		"E2":   expr.E2MISDensity,
		"E3":   expr.E3CCDSRounds,
		"E4":   expr.E4TauCCDS,
		"E5":   expr.E5LowerBound,
		"E6":   expr.E6HittingGame,
		"E7":   expr.E7DynamicCCDS,
		"E8":   expr.E8AsyncMIS,
		"E9":   expr.E9BannedListAblation,
		"E10":  expr.E10Subroutines,
		"E10b": expr.E10DirectedDecay,
		"E11":  expr.E11Backbone,
		"E12":  expr.E12ReannounceAblation,
		"E13":  expr.E13IncompleteDetectors,
		"E14":  expr.E14RadioBroadcast,
		"E15":  expr.E15TauSweep,
	}
	order := []string{"E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9",
		"E10", "E10b", "E11", "E12", "E13", "E14", "E15"}

	selected := order
	if *only != "" {
		selected = strings.Split(*only, ",")
	}
	for _, id := range selected {
		id = strings.TrimSpace(id)
		runFn, ok := all[id]
		if !ok {
			return fmt.Errorf("unknown experiment %q (have %s)", id, strings.Join(order, ", "))
		}
		res, err := runFn(cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", id, err)
		}
		fmt.Fprintln(out, res.Table.String())
	}
	return nil
}
