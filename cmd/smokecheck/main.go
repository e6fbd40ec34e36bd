// Command smokecheck verifies that no stray CARBON daemons or smoke
// binaries are still running before a benchmark starts. On a shared (or
// single-core) box, a forgotten carbond or a smoke test's leaked
// carbonfleet steals cycles from the benchmark process and quietly
// inflates every ns/op it reports; `make bench` runs this first and
// refuses to proceed until the stragglers are gone.
//
// Usage:
//
//	smokecheck            exit 0 when clean, exit 1 listing offenders
//
// Detection (smoketest.Scan) walks /proc/<pid>/cmdline, so it needs a
// Linux-style procfs; elsewhere the check reports "skipped" and passes —
// better to run an unguarded benchmark than to fail it on a platform we
// cannot inspect.
package main

import (
	"errors"
	"fmt"
	"os"

	"carbon/internal/smoketest"
)

func main() {
	// go run's wrapper never matches: its argv[0] is the compiled tool
	// path, checked by basename.
	offenders, err := smoketest.Scan(smoketest.IsStray)
	if errors.Is(err, smoketest.ErrNoProcfs) {
		fmt.Println("smokecheck: no procfs on this platform, check skipped")
		return
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "smokecheck:", err)
		os.Exit(1)
	}
	if len(offenders) == 0 {
		fmt.Println("smokecheck: no stray daemons")
		return
	}
	fmt.Fprintln(os.Stderr, "smokecheck: stray processes would skew the benchmark; kill them first:")
	for _, o := range offenders {
		fmt.Fprintf(os.Stderr, "  pid %d: %s\n", o.PID, o.Argv0)
	}
	os.Exit(1)
}
