// Command carbonbench is the repository's benchmark. It drives the CARBON
// system only through its public calls — core.NewEngine/Engine.Step,
// exp.RunCell, the serve/cluster HTTP APIs and the lp, bcpop, gp and
// covering functions — over four pinned workloads (see README.md):
//
//	carbonbench --workload paper-gen --seed 1 --seconds 25 --trace 0
//	carbonbench --workload service --seed 1 --seconds 25 --trace 1 --tracedir out/
//	carbonbench compare a1.txt a2.txt -- b1.txt b2.txt
//
// A run prints an env line, a det line, every metric as "name value unit",
// a "record" line (the whole result as JSON, read back by compare) and, as
// its last line, the JSON summary {"correct","attempted","failed","metrics"}:
// the end-to-end metrics untraced, the per-layer metrics with --trace 1.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout, os.Stderr))
	}
	os.Exit(runMain(os.Args[1:], os.Stdout, os.Stderr))
}

func runMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("carbonbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fs.Uint64("seed", 1, "input seed (1 is the development seed, 2 is held out for claims)")
	seconds := fs.Float64("seconds", 25, "measurement time; at least one full pass of the workload always runs")
	trace := fs.Int("trace", 0, "1 runs with the per-layer instruments attached and reports per-layer metrics")
	traceDir := fs.String("tracedir", "", "with --trace 1, write spans.jsonl and layers.json into this directory")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok || fs.NArg() > 0 || *seconds < 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "carbonbench: need --workload one of %s, --trace 0|1 and no extra arguments\n",
			strings.Join(workloadNames(), ", "))
		return 2
	}
	// Pin the scheduler: every workload keeps at most two compute
	// goroutines busy, and a fixed GOMAXPROCS keeps GC and runtime
	// behaviour comparable between machines with more cores.
	runtime.GOMAXPROCS(2)
	rec, err := run(w, options{
		seed:     *seed,
		budget:   time.Duration(*seconds * float64(time.Second)),
		traced:   *trace == 1,
		traceDir: *traceDir,
		workDir:  ".bench_build/work",
	}, w.full)
	if err != nil {
		fmt.Fprintln(stderr, "carbonbench:", err)
		return 1
	}
	if err := rec.print(stdout); err != nil {
		fmt.Fprintln(stderr, "carbonbench:", err)
		return 1
	}
	return 0
}

func workloadNames() []string {
	var out []string
	for n := range workloads {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
