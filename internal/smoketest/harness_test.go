package smoketest

import (
	"bytes"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"syscall"
	"testing"
	"time"
)

// init turns this test binary into a stand-in daemon when it is
// launched the way Start launches one (first argument -addr): it
// listens, prints the banner, answers every request with {} and exits 0
// on SIGTERM. The self-test below supervises these instead of carbonds.
func init() {
	if len(os.Args) < 3 || os.Args[1] != "-addr" {
		return
	}
	term := make(chan os.Signal, 1)
	signal.Notify(term, syscall.SIGTERM)
	ln, err := net.Listen("tcp", os.Args[2])
	if err != nil {
		fmt.Fprintln(os.Stderr, "fake daemon:", err)
		os.Exit(1)
	}
	fmt.Printf("fake daemon: serving on %s\n", ln.Addr())
	go http.Serve(ln, http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprint(w, "{}")
	}))
	<-term
	os.Exit(0)
}

// TestFatalReapsChildren checks the harness's central promise: a
// scenario that fails right after its daemons come up still reaps every
// child and removes its temp dir. The failing scenario runs in a re-exec
// of this test binary (positional argument "scenario"), so its failure
// is observed here rather than inherited.
func TestFatalReapsChildren(t *testing.T) {
	if flag.Arg(0) == "scenario" {
		t.Logf("tempdir %s", t.TempDir())
		p := Start(t, os.Args[0], "127.0.0.1:0")
		p.Kill()
		p = p.Restart()
		p.Term()
		for i := 0; i < 3; i++ {
			Start(t, os.Args[0], "127.0.0.1:0")
		}
		t.Fatalf("injected failure")
	}

	// The timeout and WaitDelay turn a cleanup that hangs, or a leaked
	// child still holding the output pipe, into a failure below.
	cmd := exec.Command(os.Args[0], "-test.run=^TestFatalReapsChildren$", "-test.v",
		"-test.timeout=10s", "--", "scenario")
	cmd.WaitDelay = time.Second
	out, err := cmd.CombinedOutput()
	if err == nil || !bytes.Contains(out, []byte("injected failure")) {
		t.Fatalf("scenario did not fail as injected (err %v):\n%s", err, out)
	}
	leaked, err := Scan(func(argv0 string) bool { return argv0 == os.Args[0] })
	if err != nil {
		t.Skip("cannot list processes:", err)
	}
	for _, p := range leaked {
		_ = syscall.Kill(p.PID, syscall.SIGKILL)
		t.Errorf("child outlived the failed scenario: pid %d", p.PID)
	}
	_, after, _ := bytes.Cut(out, []byte("tempdir "))
	dir, _, _ := bytes.Cut(after, []byte("\n"))
	if len(dir) == 0 {
		t.Fatalf("scenario logged no temp dir:\n%s", out)
	}
	if _, err := os.Stat(string(dir)); !os.IsNotExist(err) {
		t.Errorf("temp dir %s survived the failed scenario (stat: %v)", dir, err)
	}
}
