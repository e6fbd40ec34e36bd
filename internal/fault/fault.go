// Package fault is a deterministic, seed-driven fault-injection layer.
//
// Production code exposes narrow injection points — a hook consulted
// before an LP solve, a checkpoint write, a spool write, a trace emit —
// and an Injector decides, per call, whether that point fails (and how
// slowly). Decisions are a pure function of (injector seed, site name,
// 1-based call index), so a chaos run is reproducible: the same seed
// and the same call sequence fire the same faults, which is what lets
// the chaos smoke gate (smoketest.TestChaos) assert bit-identical
// recovery rather than "it did not crash".
//
// A nil *Injector and a nil *Site are both valid and inert, so
// production paths pay one nil check when injection is off.
package fault

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Canonical site names. Production code strikes these by constant so a
// CLI spec ("lp.solve:every=7") and the wired hook always agree.
const (
	// SiteLPSolve gates lp.WarmSolver.SolveWithCosts — every warm or
	// cold LP relaxation solve of the engine's evaluation waves.
	SiteLPSolve = "lp.solve"
	// SiteCheckpoint gates serve.Manager's periodic and drain-time
	// checkpoint writes. A strike leaves a torn checkpoint artifact.
	SiteCheckpoint = "checkpoint.write"
	// SiteSpoolWrite gates serve.Manager's spec and result spool
	// writes. A strike leaves a torn spool artifact.
	SiteSpoolWrite = "spool.write"
	// SiteTraceEmit gates telemetry.JSONL.Emit — the trace sink behind
	// core's JSONLObserver.
	SiteTraceEmit = "trace.emit"
)

// ErrInjected is the sentinel wrapped by every injected failure, so
// handlers (and tests) can tell a synthetic fault from an organic one.
var ErrInjected = errors.New("fault: injected failure")

// Rule says when a site fires and what a strike does. The zero Rule
// never fires. Call indices are 1-based.
type Rule struct {
	// Every fires on each Every-th eligible call (calls past After):
	// with After=20, Every=1 the calls 21, 22, … fire. Takes precedence
	// over Prob when both are set.
	Every int
	// Prob fires each eligible call independently with this
	// probability. The coin is a hash of (seed, site, call index) —
	// deterministic, not sampled from a shared stream.
	Prob float64
	// After makes the first After calls immune. Combined with Limit it
	// carves a finite failure window, the shape chaos tests use to let
	// retries eventually succeed.
	After int
	// Limit caps the total number of strikes (0 = unlimited).
	Limit int
	// Latency is slept on every strike before returning (0 = none).
	Latency time.Duration
	// LatencyOnly makes a strike slow instead of failing: Latency is
	// slept but Strike returns nil.
	LatencyOnly bool
}

// Site is one named injection point. Strike is safe for concurrent use;
// a nil *Site never fires.
type Site struct {
	name string
	rule Rule
	seed uint64

	mu    sync.Mutex
	calls int64
	fired int64
}

// Strike records one call through the site and returns the injected
// error when the rule says this call fails. The decision depends only
// on (seed, site name, call index) and the strikes already spent
// against Limit — never on wall clock or a shared RNG.
func (s *Site) Strike() error {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	s.calls++
	n := s.calls
	fire := s.decide(n)
	if fire {
		s.fired++
	}
	s.mu.Unlock()
	if !fire {
		return nil
	}
	if s.rule.Latency > 0 {
		time.Sleep(s.rule.Latency)
	}
	if s.rule.LatencyOnly {
		return nil
	}
	return fmt.Errorf("fault: %s call %d: %w", s.name, n, ErrInjected)
}

// decide is called with s.mu held.
func (s *Site) decide(n int64) bool {
	r := s.rule
	if n <= int64(r.After) {
		return false
	}
	if r.Limit > 0 && s.fired >= int64(r.Limit) {
		return false
	}
	switch {
	case r.Every > 0:
		return (n-int64(r.After))%int64(r.Every) == 0
	case r.Prob > 0:
		return coin(s.seed, s.name, n) < r.Prob
	}
	return false
}

// Stats reports how often the site was consulted and how often it fired.
func (s *Site) Stats() (calls, fired int64) {
	if s == nil {
		return 0, 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.calls, s.fired
}

// coin hashes (seed, site, call index) into [0, 1) with splitmix64 —
// cheap, stateless and identical across runs.
func coin(seed uint64, name string, n int64) float64 {
	h := seed
	for i := 0; i < len(name); i++ {
		h = (h ^ uint64(name[i])) * 0x100000001b3
	}
	h ^= uint64(n)
	h += 0x9e3779b97f4a7c15
	h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9
	h = (h ^ (h >> 27)) * 0x94d049bb133111eb
	h ^= h >> 31
	return float64(h>>11) / float64(1<<53)
}

// Injector owns a set of named sites. The zero value is unusable; use
// New. A nil *Injector is valid and inert (Lookup returns nil).
type Injector struct {
	seed uint64

	mu    sync.Mutex
	sites map[string]*Site
}

// New returns an empty injector whose probabilistic decisions derive
// from seed.
func New(seed uint64) *Injector {
	return &Injector{seed: seed, sites: make(map[string]*Site)}
}

// Site installs (or replaces) the rule for a named injection point and
// returns its Site. Counters start fresh on replacement.
func (inj *Injector) Site(name string, r Rule) *Site {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	s := &Site{name: name, rule: r, seed: inj.seed}
	inj.sites[name] = s
	return s
}

// Lookup returns the named site, or nil when it was never installed —
// including on a nil injector, so callers wire hooks unconditionally:
//
//	if s := inj.Lookup(fault.SiteLPSolve); s != nil { cfg.LPFault = s.Strike }
func (inj *Injector) Lookup(name string) *Site {
	if inj == nil {
		return nil
	}
	inj.mu.Lock()
	defer inj.mu.Unlock()
	return inj.sites[name]
}

// Names returns the installed site names, sorted.
func (inj *Injector) Names() []string {
	if inj == nil {
		return nil
	}
	inj.mu.Lock()
	defer inj.mu.Unlock()
	names := make([]string, 0, len(inj.sites))
	for n := range inj.sites {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Parse builds an injector from a CLI spec:
//
//	site:key=val[,key=val...][;site2:...]
//
// e.g. "lp.solve:every=1,after=30,limit=8;spool.write:prob=0.2".
// Keys: every, prob, after, limit, latency (a Go duration), latencyonly
// (a bool). An empty spec yields a nil injector (injection off).
func Parse(spec string, seed uint64) (*Injector, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil, nil
	}
	inj := New(seed)
	for _, part := range strings.Split(spec, ";") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, args, ok := strings.Cut(part, ":")
		name = strings.TrimSpace(name)
		if !ok || name == "" {
			return nil, fmt.Errorf("fault: bad site spec %q (want site:key=val,...)", part)
		}
		var r Rule
		for _, kv := range strings.Split(args, ",") {
			kv = strings.TrimSpace(kv)
			if kv == "" {
				continue
			}
			key, val, ok := strings.Cut(kv, "=")
			if !ok {
				return nil, fmt.Errorf("fault: site %s: bad option %q (want key=val)", name, kv)
			}
			key, val = strings.TrimSpace(key), strings.TrimSpace(val)
			var err error
			switch key {
			case "every":
				r.Every, err = strconv.Atoi(val)
			case "prob":
				r.Prob, err = strconv.ParseFloat(val, 64)
				if err == nil && (r.Prob < 0 || r.Prob > 1 || math.IsNaN(r.Prob)) {
					err = fmt.Errorf("probability %v outside [0,1]", r.Prob)
				}
			case "after":
				r.After, err = strconv.Atoi(val)
			case "limit":
				r.Limit, err = strconv.Atoi(val)
			case "latency":
				r.Latency, err = time.ParseDuration(val)
			case "latencyonly":
				r.LatencyOnly, err = strconv.ParseBool(val)
			default:
				return nil, fmt.Errorf("fault: site %s: unknown option %q", name, key)
			}
			if err != nil {
				return nil, fmt.Errorf("fault: site %s: option %s: %v", name, key, err)
			}
		}
		if r.Every < 0 || r.After < 0 || r.Limit < 0 || r.Latency < 0 {
			return nil, fmt.Errorf("fault: site %s: negative option", name)
		}
		if r.Every == 0 && r.Prob == 0 {
			return nil, fmt.Errorf("fault: site %s: rule never fires (set every or prob)", name)
		}
		inj.Site(name, r)
	}
	return inj, nil
}
