// table1 regenerates the paper's Table 1 on the bundled designs: for
// each example it reports Verilog lines, generated BLIF-MV lines, the
// time to read the BLIF-MV and build the transition relation, the
// reachable state count, and the number and total check time of
// language-containment and CTL properties.
//
// Flags select engine ablations so the same harness also drives the
// ablation experiments of EXPERIMENTS.md.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"hsis/internal/core"
	"hsis/internal/designs"
	"hsis/internal/quant"
	"hsis/internal/telemetry"
)

// row is one line of the regenerated table.
type row struct {
	Name         string
	VerilogLines int
	BlifmvLines  int
	ReadTime     time.Duration
	States       float64
	LCProps      int
	LCTime       time.Duration
	CTLProps     int
	CTLTime      time.Duration
	Failed       []string // properties that (expectedly) fail
}

// measure runs the full Table-1 column set for one design.
func measure(name string, opts core.Options) (*row, error) {
	d, err := designs.Get(name)
	if err != nil {
		return nil, err
	}
	w, err := core.LoadVerilogString(d.Verilog, name+".v", d.Top, opts)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	if err := w.AddPIFString(d.PIF, name+".pif"); err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	r := &row{
		Name:         name,
		VerilogLines: w.VerilogLines,
		BlifmvLines:  w.BlifmvLines,
		ReadTime:     w.ReadTime,
		States:       w.ReachableStates(),
	}
	for _, a := range w.Automata {
		res := w.CheckLC(a)
		if res.Err != nil {
			return nil, fmt.Errorf("%s/%s: %w", name, res.Name, res.Err)
		}
		r.LCProps++
		r.LCTime += res.Time
		if !res.Pass {
			r.Failed = append(r.Failed, res.Name)
		}
	}
	for _, p := range w.CTLProps {
		res := w.CheckCTL(p)
		if res.Err != nil {
			return nil, fmt.Errorf("%s/%s: %w", name, res.Name, res.Err)
		}
		r.CTLProps++
		r.CTLTime += res.Time
		if !res.Pass {
			r.Failed = append(r.Failed, res.Name)
		}
	}
	return r, nil
}

func main() {
	only := flag.String("design", "", "run a single design")
	heuristic := flag.String("quant", "minwidth", "early quantification heuristic: minwidth|linear|naive")
	appended := flag.Bool("appended-order", false, "use the naive appended variable order (Ablation E)")
	early := flag.Int("early", 0, "early failure detection depth for LC (0 = off)")
	noFast := flag.Bool("no-invariant-fastpath", false, "disable the AG(prop) fast path (Ablation B)")
	coi := flag.Bool("coi", false, "cone-of-influence abstraction per property (Ablation G)")
	reorderPolicy := flag.String("reorder", "off", "dynamic variable reordering policy: off, manual or auto")
	reorderAccel := flag.String("reorder-accel", "all",
		"sifting accelerations: all, none, or a comma list of interaction, lowerbound, symmetry")
	reorderMaxGrowth := flag.Float64("reorder-max-growth", 0,
		"abort a sift direction when nodes exceed this factor of the best size (0 = default 1.2)")
	reorderTrigger := flag.Float64("reorder-trigger", 0,
		"auto-sift when live nodes exceed this factor of the size at the last arming (0 = default 2)")
	imageFlag := flag.String("image", "auto",
		"image-computation engine: auto, monolithic, partitioned, clustered or iso")
	traceFlag := flag.String("trace", "", "write a JSONL telemetry trace of the run to this file")
	profileFlag := flag.String("profile", "", "write cpu.pprof and heap.pprof into this directory")
	flag.Parse()

	if *traceFlag != "" {
		tr, err := telemetry.OpenTrace(*traceFlag)
		if err != nil {
			fmt.Fprintln(os.Stderr, "table1:", err)
			os.Exit(1)
		}
		sc := telemetry.NewScope(tr)
		sc.StartSampler(0)
		telemetry.SetDefault(sc)
		defer func() {
			telemetry.SetDefault(nil)
			sc.StopSampler()
			fmt.Print(tr.Summary(""))
			if err := tr.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "table1:", err)
			}
		}()
	}
	if *profileFlag != "" {
		stop, err := telemetry.StartProfiling(*profileFlag)
		if err != nil {
			fmt.Fprintln(os.Stderr, "table1:", err)
			os.Exit(1)
		}
		defer func() {
			if err := stop(); err != nil {
				fmt.Fprintln(os.Stderr, "table1:", err)
			}
		}()
	}

	opts := core.Options{
		EarlySteps:               *early,
		AppendedOrder:            *appended,
		DisableInvariantFastPath: *noFast,
		ConeOfInfluence:          *coi,
		Reorder:                  *reorderPolicy,
		ReorderAccel:             *reorderAccel,
		ReorderMaxGrowth:         *reorderMaxGrowth,
		ReorderTrigger:           *reorderTrigger,
		Image:                    *imageFlag,
	}
	switch *heuristic {
	case "minwidth":
		opts.Heuristic = quant.MinWidth
	case "linear":
		opts.Heuristic = quant.Linear
	case "naive":
		opts.NaiveQuantification = true
	default:
		fmt.Fprintln(os.Stderr, "table1: unknown -quant value")
		os.Exit(2)
	}

	fmt.Printf("%-10s %8s %8s %12s %12s %5s %12s %5s %12s\n",
		"example", "#linesV", "#linesMV", "read(ms)", "#states", "#lc", "lc(ms)", "#ctl", "mc(ms)")
	names := designs.Names()
	if *only != "" {
		// A single -design may also name a generated scaled instance
		// ("philos-64") outside the bundled Table-1 set.
		names = []string{*only}
	}
	for _, name := range names {
		r, err := measure(name, opts)
		if err != nil {
			fmt.Fprintln(os.Stderr, "table1:", err)
			os.Exit(1)
		}
		note := ""
		if len(r.Failed) > 0 {
			note = "  (expected failures: " + strings.Join(r.Failed, ", ") + ")"
		}
		fmt.Printf("%-10s %8d %8d %12.2f %12.0f %5d %12.2f %5d %12.2f%s\n",
			r.Name, r.VerilogLines, r.BlifmvLines,
			ms(r.ReadTime), r.States,
			r.LCProps, ms(r.LCTime),
			r.CTLProps, ms(r.CTLTime), note)
	}
}

func ms(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }
