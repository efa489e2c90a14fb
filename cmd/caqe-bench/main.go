// Command caqe-bench regenerates the tables behind every figure of the
// paper's experimental study (§7). With no flags it runs everything at the
// default laptop scale; -fig selects a single figure and -n scales the
// dataset toward the paper's 500K rows.
//
// Usage:
//
//	caqe-bench [-fig 9a|9b|9c|10|10a|10b|10c|11a|11b|all] [-n rows]
//	           [-queries k] [-dims d] [-sel σ] [-seed s] [-cells c]
//	           [-trace file] [-cpuprofile file] [-memprofile file]
//
// With -trace every measured strategy run streams its structured execution
// trace (scheduling decisions, emission batches, feedback updates) to the
// given JSONL file; calibration passes are excluded. Tracing performs no
// counted work, so the reported tables are byte-identical with or without
// it. Inspect the stream with cmd/caqe-trace.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"caqe/internal/bench"
	"caqe/internal/datagen"
	"caqe/internal/trace"
)

func main() {
	var (
		fig        = flag.String("fig", "all", "figure to regenerate: 9a, 9b, 9c, 10, 10a, 10b, 10c, 11a, 11b, sweepN, sweepD, sweepSel, or all")
		n          = flag.Int("n", 0, "rows per relation (default 1200; paper used 500000)")
		queries    = flag.Int("queries", 0, "workload size |S_Q| (default 11)")
		dims       = flag.Int("dims", 0, "output dimensionality d (default 4)")
		sel        = flag.Float64("sel", 0, "join selectivity σ (default 0.01)")
		seed       = flag.Int64("seed", 0, "dataset seed (default 2014)")
		cells      = flag.Int("cells", 0, "quad-tree leaf cells per relation (default 24)")
		traceFile  = flag.String("trace", "", "write the structured execution trace of every measured run to this JSONL file")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.Parse()

	cfg := bench.Config{
		N: *n, NumQueries: *queries, Dims: *dims,
		Selectivity: *sel, Seed: *seed, TargetCells: *cells,
	}

	if *traceFile != "" {
		f, err := os.Create(*traceFile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "caqe-bench: -trace: %v\n", err)
			os.Exit(1)
		}
		jw := trace.NewJSONLWriter(f)
		cfg.Tracer = jw
		defer func() {
			if err := jw.Flush(); err != nil {
				fmt.Fprintf(os.Stderr, "caqe-bench: writing trace: %v\n", err)
			}
			f.Close()
		}()
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "caqe-bench: -cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "caqe-bench: -cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}

	start := time.Now()
	if err := runFigure(*fig, cfg); err != nil {
		fmt.Fprintf(os.Stderr, "caqe-bench: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("done in %.1fs\n", time.Since(start).Seconds())

	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "caqe-bench: -memprofile: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		runtime.GC() // settle the heap so the profile reflects live objects
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "caqe-bench: -memprofile: %v\n", err)
			os.Exit(1)
		}
	}
}

func runFigure(fig string, cfg bench.Config) error {
	fig9 := func(d datagen.Distribution) error {
		tab, err := bench.Figure9(cfg, d)
		if err != nil {
			return err
		}
		fmt.Println(tab)
		return nil
	}
	fig10 := func(which int) error {
		tabs, err := bench.Figure10(cfg)
		if err != nil {
			return err
		}
		if which < 0 {
			for _, t := range tabs {
				fmt.Println(t)
			}
			return nil
		}
		fmt.Println(tabs[which])
		return nil
	}
	fig11 := func(class string) error {
		tab, err := bench.Figure11(cfg, class)
		if err != nil {
			return err
		}
		fmt.Println(tab)
		return nil
	}

	sweep := func(f func(bench.Config) (*bench.Table, error)) error {
		tab, err := f(cfg)
		if err != nil {
			return err
		}
		fmt.Println(tab)
		return nil
	}

	switch fig {
	case "sweepN":
		return sweep(func(c bench.Config) (*bench.Table, error) { return bench.SweepN(c, nil) })
	case "sweepD":
		return sweep(func(c bench.Config) (*bench.Table, error) { return bench.SweepDims(c, nil) })
	case "sweepSel":
		return sweep(func(c bench.Config) (*bench.Table, error) { return bench.SweepSelectivity(c, nil) })
	case "9a":
		return fig9(datagen.Correlated)
	case "9b":
		return fig9(datagen.Independent)
	case "9c":
		return fig9(datagen.AntiCorrelated)
	case "10":
		return fig10(-1)
	case "10a":
		return fig10(0)
	case "10b":
		return fig10(1)
	case "10c":
		return fig10(2)
	case "11a":
		return fig11("C2")
	case "11b":
		return fig11("C3")
	case "all":
		for _, d := range []datagen.Distribution{datagen.Correlated, datagen.Independent, datagen.AntiCorrelated} {
			if err := fig9(d); err != nil {
				return err
			}
		}
		if err := fig10(-1); err != nil {
			return err
		}
		if err := fig11("C2"); err != nil {
			return err
		}
		return fig11("C3")
	default:
		return fmt.Errorf("unknown figure %q", fig)
	}
}
