// Command omcast-bench runs the tier-1 benchmark suite, writes a
// BENCH_<date>.json report, and compares it against the previous report,
// exiting non-zero when any case's ns/op regressed past the threshold. It
// seeds and extends the repo's performance trajectory without `go test`.
//
// Usage:
//
//	omcast-bench                          # full suite, compare to BENCH_baseline.json
//	omcast-bench -quick -o BENCH_ci.json  # CI smoke pass
//	omcast-bench -baseline ""             # measure only, no comparison
//	omcast-bench -threshold 0.10          # stricter gate
//	omcast-bench -scale -memlimit 32GiB   # add the fig-scale sweep (up to M=10^6)
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"

	"omcast/internal/bench"
	"omcast/internal/lint"
	"omcast/internal/runtimecfg"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		out       = flag.String("o", "", "output report path (default BENCH_<date>.json)")
		baseline  = flag.String("baseline", "BENCH_baseline.json", "previous report to compare against (empty disables)")
		threshold = flag.Float64("threshold", 0.25, "ns/op regression threshold as a fraction (0.25 = +25%)")
		quick     = flag.Bool("quick", false, "reduced suite for CI smoke passes")
		scale     = flag.Bool("scale", false, "also run the fig-scale sweep (bytes/member, ns/event) into the report")
		scaleSz   = flag.String("scale-sizes", "", "comma-separated member counts for -scale (default 1000,10000,100000,1000000)")
		memlimit  = flag.String("memlimit", "", "soft Go runtime memory limit, e.g. 8GiB (default: no limit)")
		gcpct     = flag.Int("gcpercent", -1, "GOGC percentage (default -1: keep the runtime default of 100)")
	)
	flag.Parse()

	if _, err := runtimecfg.Apply(*memlimit, *gcpct); err != nil {
		fmt.Fprintf(os.Stderr, "omcast-bench: %v\n", err)
		return 2
	}

	//lint:ignore no-wallclock reason: report naming and metadata only; never feeds simulation state
	date := time.Now().UTC().Format("2006-01-02")
	path := *out
	if path == "" {
		path = fmt.Sprintf("BENCH_%s.json", date)
	}

	fmt.Printf("running tier-1 benchmark suite (quick=%v)...\n", *quick)
	rep, err := bench.Run(date, *quick, func(format string, args ...any) {
		fmt.Printf(format+"\n", args...)
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "omcast-bench: %v\n", err)
		return 1
	}
	rep.Revision = revision()
	rep.NProc = runtime.NumCPU()
	if *scale {
		sizes := bench.DefaultScaleSizes()
		if *scaleSz != "" {
			parsed, perr := parseSizes(*scaleSz)
			if perr != nil {
				fmt.Fprintf(os.Stderr, "omcast-bench: %v\n", perr)
				return 2
			}
			sizes = parsed
		}
		fmt.Printf("running fig-scale sweep %v (quick=%v)...\n", sizes, *quick)
		points, serr := bench.RunScale(sizes, *quick, func(format string, args ...any) {
			fmt.Printf(format+"\n", args...)
		})
		if serr != nil {
			fmt.Fprintf(os.Stderr, "omcast-bench: %v\n", serr)
			return 1
		}
		rep.Scale = points
	}
	if stats, err := analyzerStats(); err != nil {
		// The analyzer riding along must not sink a perf run.
		fmt.Fprintf(os.Stderr, "omcast-bench: analyzer stats skipped: %v\n", err)
	} else {
		rep.Analyzer = stats
	}
	if err := rep.WriteFile(path); err != nil {
		fmt.Fprintf(os.Stderr, "omcast-bench: %v\n", err)
		return 1
	}
	fmt.Printf("report written to %s\n", path)

	if *baseline == "" {
		return 0
	}
	prev, err := bench.ReadReport(*baseline)
	if os.IsNotExist(err) {
		fmt.Printf("no baseline at %s; skipping comparison (commit this report to seed one)\n", *baseline)
		return 0
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "omcast-bench: %v\n", err)
		return 1
	}
	deltas, regressed := bench.Compare(prev, rep, *threshold)
	fmt.Printf("\ncomparison against %s (%s, threshold +%.0f%%):\n", *baseline, prev.Date, *threshold*100)
	for _, d := range deltas {
		flag := "  "
		if d.Regressed {
			flag = "!!"
		}
		fmt.Printf("%s %-26s %12.1f -> %12.1f ns/op (%+.1f%%)  allocs %d -> %d\n",
			flag, d.Name, d.PrevNs, d.CurNs, (d.Ratio-1)*100, d.PrevAlloc, d.CurAlloc)
	}
	if regressed {
		fmt.Fprintf(os.Stderr, "omcast-bench: ns/op regression beyond +%.0f%% against %s\n", *threshold*100, *baseline)
		return 1
	}
	fmt.Println("no regressions beyond threshold")
	return 0
}

// revision returns the VCS revision stamped into the binary, suffixed with
// "+dirty" when the working tree had local modifications, or "" when the
// build carries no stamp (go run, or a build outside a checkout).
func revision() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return ""
	}
	var rev string
	dirty := false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if rev != "" && dirty {
		rev += "+dirty"
	}
	return rev
}

func parseSizes(s string) ([]int, error) {
	parts := strings.Split(s, ",")
	out := make([]int, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil || v <= 0 {
			return nil, fmt.Errorf("invalid size %q", p)
		}
		out = append(out, v)
	}
	return out, nil
}

// analyzerStats runs the full typed lint suite over the module and returns
// the omcast-lint -stats figures (per-rule findings, suppressions, wall time)
// for the report's analyzer block.
func analyzerStats() (map[string]float64, error) {
	cwd, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	root, err := lint.FindModuleRoot(cwd)
	if err != nil {
		return nil, err
	}
	pkgs, err := lint.Load(root)
	if err != nil {
		return nil, err
	}
	return lint.StatsMap(lint.RunAnalysis(pkgs, lint.DefaultConfig())), nil
}
