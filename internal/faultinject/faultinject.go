// Package faultinject is the deterministic fault-injection seam for the
// durability and transport layers: a Scenario is a named, seeded,
// replayable set of fault rules parsed from a compact spec string, and
// the package provides the two places faults are applied — an FS
// interface wrapping the filesystem operations the checkpoint journal
// performs (fail the Nth fsync, tear a write at byte K, run out of disk,
// short-read a file) and an http.RoundTripper wrapper for transport
// faults (inject latency, reset connections).
//
// Every rule counts deterministically: "fsync-fail:nth=5,count=2" fails
// exactly the 5th and 6th fsync issued through the scenario's FS, no
// matter how the calls interleave, so a failure mode reproduced once is
// reproduced forever. The same spec string replays the same faults; a
// scenario reports how often each rule fired so tests can assert the
// fault actually happened rather than silently not triggering.
//
// Consumers: internal/checkpoint (OpenFS takes an FS), cmd/cratd
// (-fault wires a scenario under the persistent cache), cmd/cratgw
// (-fault wraps the proxy transport), and cratload's chaos matrix
// (spawns fleets with per-process fault specs). See DESIGN.md §16.
package faultinject

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Rule kinds understood by Parse. Filesystem kinds apply through FS;
// transport kinds through Transport. Unknown kinds are a parse error so
// a typo in a -fault flag fails fast instead of silently injecting
// nothing.
const (
	KindFsyncFail = "fsync-fail" // nth=N[,count=M]: fail the Nth..Nth+M-1 fsync (EIO)
	KindTornWrite = "torn-write" // nth=N[,keep=K]: truncate the Nth write to K bytes, report success
	KindENOSPC    = "enospc"     // after=N[,count=M]: writes past the Nth fail with ENOSPC (M=0 ⇒ forever)
	KindShortRead = "short-read" // nth=N[,keep=K]: return only the first K bytes of the Nth read
	KindConnReset = "conn-reset" // every=N | nth=N: fail the matching requests with ECONNRESET
	KindLatency   = "latency"    // every=N[,delay=D]: stall the matching requests for D (default 100ms)
)

var knownKinds = map[string]bool{
	KindFsyncFail: true, KindTornWrite: true, KindENOSPC: true,
	KindShortRead: true, KindConnReset: true, KindLatency: true,
}

// Rule is one parsed fault directive. Nth and Every are 1-based call
// indices into the per-kind counter; Count bounds how many consecutive
// calls fire (0 means the kind's default: 1 for nth-rules, unbounded for
// after-rules).
type Rule struct {
	Kind  string
	Nth   int           // fire on exactly the Nth call (0 = unset)
	Every int           // fire on every Nth call (0 = unset)
	After int           // fire on every call past the Nth (0 = unset)
	Count int           // how many firings before the rule retires (0 = kind default)
	Keep  int           // bytes preserved by torn-write/short-read (-1 = half)
	Delay time.Duration // latency rule stall
}

// Scenario is a named, seeded, replayable fault plan plus its firing
// log. Safe for concurrent use: the per-kind call counters are what make
// injection deterministic under concurrency — the Nth fsync is the Nth
// fsync regardless of which goroutine issues it.
type Scenario struct {
	Name string
	Seed int64

	mu    sync.Mutex
	rules []Rule
	calls map[string]int // per-kind call counter
	fired map[string]int // per-kind firings
}

// New builds a scenario from already-parsed rules.
func New(name string, seed int64, rules ...Rule) *Scenario {
	return &Scenario{
		Name:  name,
		Seed:  seed,
		rules: rules,
		calls: make(map[string]int),
		fired: make(map[string]int),
	}
}

// Parse builds a scenario from a spec string: semicolon-separated rules,
// each "kind:key=val,key=val". Example:
//
//	fsync-fail:nth=5,count=2;latency:every=4,delay=150ms
//
// An empty spec yields a scenario that never fires (valid: it lets a
// -fault flag default to "").
func Parse(spec string) (*Scenario, error) {
	sc := New(spec, 0)
	for _, part := range strings.Split(spec, ";") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		kind, args, _ := strings.Cut(part, ":")
		kind = strings.TrimSpace(kind)
		if !knownKinds[kind] {
			return nil, fmt.Errorf("faultinject: unknown fault kind %q in %q", kind, spec)
		}
		r := Rule{Kind: kind, Keep: -1}
		for _, kv := range strings.Split(args, ",") {
			kv = strings.TrimSpace(kv)
			if kv == "" {
				continue
			}
			k, v, ok := strings.Cut(kv, "=")
			if !ok {
				return nil, fmt.Errorf("faultinject: malformed parameter %q in rule %q", kv, part)
			}
			var err error
			switch k {
			case "nth":
				r.Nth, err = strconv.Atoi(v)
			case "every":
				r.Every, err = strconv.Atoi(v)
			case "after":
				r.After, err = strconv.Atoi(v)
			case "count":
				r.Count, err = strconv.Atoi(v)
			case "keep":
				r.Keep, err = strconv.Atoi(v)
			case "delay":
				r.Delay, err = time.ParseDuration(v)
			case "seed":
				sc.Seed, err = strconv.ParseInt(v, 10, 64)
			default:
				return nil, fmt.Errorf("faultinject: unknown parameter %q in rule %q", k, part)
			}
			if err != nil {
				return nil, fmt.Errorf("faultinject: parameter %q in rule %q: %w", kv, part, err)
			}
		}
		if r.Nth == 0 && r.Every == 0 && r.After == 0 {
			return nil, fmt.Errorf("faultinject: rule %q needs one of nth=, every=, after=", part)
		}
		sc.rules = append(sc.rules, r)
	}
	return sc, nil
}

// MustParse is Parse for compile-time-constant specs in tests.
func MustParse(spec string) *Scenario {
	sc, err := Parse(spec)
	if err != nil {
		panic(err)
	}
	return sc
}

// String renders the scenario's rules back into spec form.
func (s *Scenario) String() string {
	if s == nil {
		return ""
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	parts := make([]string, 0, len(s.rules))
	for _, r := range s.rules {
		var kv []string
		if r.Nth > 0 {
			kv = append(kv, "nth="+strconv.Itoa(r.Nth))
		}
		if r.Every > 0 {
			kv = append(kv, "every="+strconv.Itoa(r.Every))
		}
		if r.After > 0 {
			kv = append(kv, "after="+strconv.Itoa(r.After))
		}
		if r.Count > 0 {
			kv = append(kv, "count="+strconv.Itoa(r.Count))
		}
		if r.Keep >= 0 {
			kv = append(kv, "keep="+strconv.Itoa(r.Keep))
		}
		if r.Delay > 0 {
			kv = append(kv, "delay="+r.Delay.String())
		}
		parts = append(parts, r.Kind+":"+strings.Join(kv, ","))
	}
	return strings.Join(parts, ";")
}

// Active reports whether the scenario has any rules (a nil scenario is
// inert, so callers can thread a nil through unconditionally).
func (s *Scenario) Active() bool {
	if s == nil {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.rules) > 0
}

// hit advances kind's call counter and returns the rule that fires on
// this call, if any. Exactly one rule fires per call (the first match in
// spec order).
func (s *Scenario) hit(kind string) (Rule, bool) {
	if s == nil {
		return Rule{}, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.calls[kind]++
	n := s.calls[kind]
	for _, r := range s.rules {
		if r.Kind != kind {
			continue
		}
		fires := false
		switch {
		case r.Nth > 0:
			count := r.Count
			if count <= 0 {
				count = 1
			}
			fires = n >= r.Nth && n < r.Nth+count
		case r.Every > 0:
			fires = n%r.Every == 0
		case r.After > 0:
			fires = n > r.After && (r.Count <= 0 || n <= r.After+r.Count)
		}
		if fires {
			s.fired[kind]++
			return r, true
		}
	}
	return Rule{}, false
}

// Fired reports how many times rules of the given kind have fired —
// the assertion hook that keeps a chaos test honest (a fault that never
// fired proves nothing).
func (s *Scenario) Fired(kind string) int {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.fired[kind]
}
