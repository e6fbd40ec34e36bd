package fault

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"time"
)

func collect(s *Site, n int) []bool {
	out := make([]bool, n)
	for i := range out {
		out[i] = s.Strike() != nil
	}
	return out
}

func TestNilSiteAndInjectorAreInert(t *testing.T) {
	var s *Site
	if err := s.Strike(); err != nil {
		t.Fatalf("nil site fired: %v", err)
	}
	if c, f := s.Stats(); c != 0 || f != 0 {
		t.Fatalf("nil site stats = %d, %d", c, f)
	}
	var inj *Injector
	if got := inj.Lookup(SiteLPSolve); got != nil {
		t.Fatalf("nil injector Lookup = %v", got)
	}
	if got := inj.Names(); got != nil {
		t.Fatalf("nil injector Names = %v", got)
	}
}

func TestEveryAfterLimit(t *testing.T) {
	inj := New(1)
	s := inj.Site("x", Rule{Every: 2, After: 3, Limit: 2})
	// Calls 1..3 immune; eligible indices 4,5,6,... fire when
	// (n-After)%Every==0 → calls 5, 7 fire, then Limit stops it.
	want := []bool{false, false, false, false, true, false, true, false, false, false}
	got := collect(s, len(want))
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("call %d: fired=%v, want %v (full: %v)", i+1, got[i], want[i], got)
		}
	}
	if c, f := s.Stats(); c != 10 || f != 2 {
		t.Fatalf("stats = %d, %d; want 10, 2", c, f)
	}
}

func TestEveryOneFiresEachEligibleCall(t *testing.T) {
	s := New(1).Site("x", Rule{Every: 1, After: 2})
	got := collect(s, 5)
	want := []bool{false, false, true, true, true}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("call %d: fired=%v, want %v", i+1, got[i], want[i])
		}
	}
}

func TestProbDeterministicPerSeed(t *testing.T) {
	run := func(seed uint64) []bool {
		return collect(New(seed).Site("p", Rule{Prob: 0.5}), 64)
	}
	a, b := run(7), run(7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at call %d", i+1)
		}
	}
	c := run(8)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("seeds 7 and 8 produced identical 64-call fire patterns")
	}
	fired := 0
	for _, f := range a {
		if f {
			fired++
		}
	}
	if fired == 0 || fired == len(a) {
		t.Fatalf("prob=0.5 fired %d/%d times — hash looks degenerate", fired, len(a))
	}
}

func TestErrorWrapsSentinel(t *testing.T) {
	s := New(1).Site(SiteLPSolve, Rule{Every: 1})
	err := s.Strike()
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("err = %v, want ErrInjected", err)
	}
	if !strings.Contains(err.Error(), SiteLPSolve) {
		t.Fatalf("err %q does not name the site", err)
	}
}

func TestLatencyOnly(t *testing.T) {
	s := New(1).Site("slow", Rule{Every: 1, Latency: time.Millisecond, LatencyOnly: true})
	start := time.Now()
	if err := s.Strike(); err != nil {
		t.Fatalf("latency-only strike returned error: %v", err)
	}
	if time.Since(start) < time.Millisecond {
		t.Fatal("latency-only strike did not sleep")
	}
	if _, f := s.Stats(); f != 1 {
		t.Fatalf("fired = %d, want 1", f)
	}
}

func TestConcurrentStrikeHonorsLimit(t *testing.T) {
	s := New(1).Site("c", Rule{Every: 1, Limit: 10})
	var wg sync.WaitGroup
	var mu sync.Mutex
	fired := 0
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				if s.Strike() != nil {
					mu.Lock()
					fired++
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	if fired != 10 {
		t.Fatalf("fired %d times under concurrency, want exactly 10", fired)
	}
	if c, f := s.Stats(); c != 800 || f != 10 {
		t.Fatalf("stats = %d, %d; want 800, 10", c, f)
	}
}

func TestParse(t *testing.T) {
	inj, err := Parse("lp.solve:every=1,after=30,limit=8; spool.write : prob=0.25 , latency=5ms", 3)
	if err != nil {
		t.Fatal(err)
	}
	s := inj.Lookup(SiteLPSolve)
	if s == nil {
		t.Fatal("lp.solve site missing")
	}
	if s.rule != (Rule{Every: 1, After: 30, Limit: 8}) {
		t.Fatalf("lp.solve rule = %+v", s.rule)
	}
	w := inj.Lookup(SiteSpoolWrite)
	if w == nil {
		t.Fatal("spool.write site missing")
	}
	if w.rule.Prob != 0.25 || w.rule.Latency != 5*time.Millisecond {
		t.Fatalf("spool.write rule = %+v", w.rule)
	}
	if names := inj.Names(); len(names) != 2 || names[0] != SiteLPSolve || names[1] != SiteSpoolWrite {
		t.Fatalf("Names = %v", names)
	}
	if inj.Lookup("checkpoint.write") != nil {
		t.Fatal("uninstalled site should Lookup to nil")
	}
}

func TestParseEmptyIsOff(t *testing.T) {
	inj, err := Parse("   ", 1)
	if err != nil || inj != nil {
		t.Fatalf("Parse(blank) = %v, %v; want nil, nil", inj, err)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"lp.solve",                  // no colon
		":every=1",                  // empty site
		"lp.solve:every",            // no value
		"lp.solve:bogus=1",          // unknown key
		"lp.solve:every=x",          // non-numeric
		"lp.solve:prob=1.5",         // out of range
		"lp.solve:every=-1",         // negative
		"lp.solve:latency=1",        // bad duration
		"lp.solve:after=3",          // never fires
		"lp.solve:latencyonly=nope", // bad bool
		"lp.slove:every=1",          // typo: no code strikes it
		"trace.emit:every=1",        // no longer a site
	}
	for _, spec := range bad {
		if _, err := Parse(spec, 1); err == nil {
			t.Errorf("Parse(%q) accepted", spec)
		}
	}
}
