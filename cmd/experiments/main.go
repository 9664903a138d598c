// Command experiments regenerates every table and figure of the paper's
// evaluation section on the synthetic DowBJ/SubBJ datasets (see DESIGN.md for
// the experiment index and EXPERIMENTS.md for recorded results).
//
// Usage:
//
//	experiments -exp all                 # everything (several minutes)
//	experiments -exp table2 -variants    # Table II including variant rows
//	experiments -exp fig10a -profile dowbj
//	experiments -quick                   # tiny profiles for a fast smoke run
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"dlinfma/internal/core"
	"dlinfma/internal/eval"
	"dlinfma/internal/synth"
	"dlinfma/internal/traj"
)

func main() {
	var (
		exp      = flag.String("exp", "all", "experiment: all|table1|fig9|table2|fig10a|fig10b|table3|fig13|extension|staysweep|efficiency")
		profile  = flag.String("profile", "both", "dataset profile: dowbj|subbj|both")
		variants = flag.Bool("variants", false, "include Table II variant and ablation rows (slow)")
		quick    = flag.Bool("quick", false, "use the tiny test profile instead of the full ones")
		workers  = flag.Int("workers", 0, "pipeline workers (0 = all cores); LocMatcher training is serial at 0 and 1, data-parallel only when >1")
	)
	flag.Parse()

	// SIGINT/SIGTERM cancels the context: in-flight training and pool
	// builds abort at their next cooperative check instead of running on.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	profiles := selectProfiles(*profile, *quick)
	run := func(name string) bool { return *exp == "all" || *exp == name }

	cfg := core.DefaultConfig()
	cfg.Workers = *workers
	var prepared []*eval.Prepared
	for _, p := range profiles {
		pr, err := eval.Prepare(ctx, p, cfg)
		if err != nil {
			fatal(err)
		}
		prepared = append(prepared, pr)
	}

	if run("table1") {
		var rows []eval.Table1Row
		for _, pr := range prepared {
			rows = append(rows, eval.Table1(pr))
		}
		eval.RenderTable1(os.Stdout, rows)
	}
	if run("fig9") {
		for _, pr := range prepared {
			eval.RenderFig9(os.Stdout, pr.Profile.Name, eval.Fig9(pr))
		}
	}
	if run("table2") {
		for _, pr := range prepared {
			rows := eval.Table2(ctx, pr, *variants)
			eval.RenderMethodTable(os.Stdout, fmt.Sprintf("Table II (%s)", pr.Profile.Name), rows)
		}
	}
	if run("fig10a") {
		for _, pr := range prepared {
			pts := eval.Fig10a(ctx, pr, []float64{20, 30, 40, 50, 60})
			eval.RenderFig10a(os.Stdout, pr.Profile.Name, pts)
		}
	}
	if run("fig10b") {
		// The paper reports Figure 10(b) on DowBJ only.
		eval.RenderFig10b(os.Stdout, prepared[0].Profile.Name, eval.Fig10b(ctx, prepared[0]))
	}
	if run("table3") {
		for _, pr := range prepared {
			res, err := eval.Table3(ctx, pr.Profile, []float64{0.2, 0.6, 1.0}, cfg)
			if err != nil {
				fatal(err)
			}
			eval.RenderTable3(os.Stdout, pr.Profile.Name, res)
		}
	}
	if run("extension") {
		for _, pr := range prepared {
			r, err := eval.BuildingFallback(ctx, pr)
			if err != nil {
				fatal(err)
			}
			eval.RenderBuildingFallback(os.Stdout, pr.Profile.Name, r)
		}
	}
	if run("staysweep") {
		for _, pr := range prepared {
			pts := eval.StaySweep(ctx, pr, []traj.StayPointConfig{
				{DMax: 10, TMin: 30},
				{DMax: 20, TMin: 30},
				{DMax: 40, TMin: 30},
				{DMax: 20, TMin: 60},
				{DMax: 20, TMin: 120},
			})
			eval.RenderStaySweep(os.Stdout, pr.Profile.Name, pts)
		}
	}
	if run("fig13") {
		sizes := []int{1000, 2000, 4000, 8000}
		if *quick {
			sizes = []int{200, 400}
		}
		eval.RenderFig13(os.Stdout, prepared[0].Profile.Name, eval.Fig13(ctx, prepared[0], sizes))
	}
	if run("efficiency") {
		counts := []int{1, 2, 4, 8}
		epochs := 5
		if *quick {
			counts = []int{1, 2, 4}
			epochs = 3
		}
		for _, pr := range prepared {
			eval.RenderEfficiency(os.Stdout, pr.Profile.Name, eval.Efficiency(ctx, pr, counts, epochs))
		}
	}
}

func selectProfiles(which string, quick bool) []synth.Profile {
	if quick {
		return []synth.Profile{synth.Tiny()}
	}
	switch strings.ToLower(which) {
	case "dowbj":
		return []synth.Profile{synth.DowBJ()}
	case "subbj":
		return []synth.Profile{synth.SubBJ()}
	default:
		return []synth.Profile{synth.DowBJ(), synth.SubBJ()}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "experiments:", err)
	os.Exit(1)
}
