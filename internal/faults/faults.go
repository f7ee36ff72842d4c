// Package faults implements deterministic fault injection for the
// simulated cluster. A Plan is a seedable description of what goes wrong
// during a query — site crashes, slow sites, flaky transport links — and
// an Injector evaluates that plan with pure functions of deterministic
// execution coordinates (instance ordinals, exchange identities, attempt
// numbers). Nothing in this package consults wall-clock time or mutable
// shared state, so a fault plan produces the same failures, the same
// retries and the same modeled costs at every host worker count.
//
// The string spec form (the benchrunner -faults flag) is a
// semicolon-separated list of terms:
//
//	seed=N          PRNG seed for probabilistic faults (default 1)
//	crash=S@N       site S crashes when instance ordinal N starts there
//	slow=SxF        site S runs F times slower (F >= 1, float)
//	sendfail=R      every transport send fails with probability R (0..1)
//	mem=S@B         site S's memory pool shrinks to B bytes (> 0); any
//	                instance charging past it fails with ErrSiteMem
//
// Example: "seed=7;crash=2@3;slow=1x2.5;sendfail=0.05;mem=0@65536".
package faults

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Injected fault errors. The cluster's retry scheduler treats any error
// wrapping one of these as retryable on another replica.
var (
	// ErrSiteCrash reports an instance lost to an injected site crash.
	ErrSiteCrash = errors.New("faults: injected site crash")
	// ErrSendFail reports an injected transport send failure.
	ErrSendFail = errors.New("faults: injected transport send failure")
	// ErrSiteMem reports an instance that exhausted its site's injected
	// memory pool (the mem=S@B term). The site itself stays alive; only
	// instances whose state outgrows the pool fail there.
	ErrSiteMem = errors.New("faults: injected site memory exhaustion")
)

// Injected reports whether err is (or wraps) an injected fault, i.e. a
// failure the retry scheduler may recover from by failing over.
func Injected(err error) bool {
	return errors.Is(err, ErrSiteCrash) || errors.Is(err, ErrSendFail) || errors.Is(err, ErrSiteMem)
}

// Plan is one deterministic fault scenario. The zero value (and a nil
// *Plan) injects nothing.
type Plan struct {
	// Seed drives the probabilistic faults (send failures). Two runs with
	// the same plan observe identical fault sequences.
	Seed uint64
	// Crashes maps site → instance ordinal at which the site dies. The
	// instance holding that ordinal loses its in-flight work (it executes,
	// then its outputs are discarded); every later instance ordinal finds
	// the site already dead.
	Crashes map[int]int
	// Slowdowns maps site → CPU slowdown factor (>= 1). A slow site's
	// instances are charged factor× work in the simnet trace.
	Slowdowns map[int]float64
	// SendFailRate is the probability in [0, 1) that any one transport
	// send attempt fails. Retries rehash with their attempt number, so a
	// failed send can succeed when retried.
	SendFailRate float64
	// MemLimits maps site → memory pool size in bytes. An instance whose
	// charged operator state exceeds its host site's pool fails with
	// ErrSiteMem; the failure is a pure function of the instance's charges,
	// so it is identical at every worker count.
	MemLimits map[int]int64
}

// Parse decodes the string spec form. An empty spec returns (nil, nil).
// Malformed specs return an error; Parse never panics (fuzzed).
func Parse(spec string) (*Plan, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil, nil
	}
	p := &Plan{Seed: 1}
	for _, term := range strings.Split(spec, ";") {
		term = strings.TrimSpace(term)
		if term == "" {
			continue
		}
		key, val, ok := strings.Cut(term, "=")
		if !ok {
			return nil, fmt.Errorf("faults: term %q is not key=value", term)
		}
		key = strings.TrimSpace(key)
		val = strings.TrimSpace(val)
		switch key {
		case "seed":
			n, err := strconv.ParseUint(val, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("faults: bad seed %q: %v", val, err)
			}
			p.Seed = n
		case "crash":
			sitePart, ordPart, ok := strings.Cut(val, "@")
			if !ok {
				return nil, fmt.Errorf("faults: crash %q is not SITE@ORDINAL", val)
			}
			site, err := parseSite(sitePart)
			if err != nil {
				return nil, err
			}
			ord, err := strconv.Atoi(strings.TrimSpace(ordPart))
			if err != nil || ord < 0 {
				return nil, fmt.Errorf("faults: bad crash ordinal %q", ordPart)
			}
			if p.Crashes == nil {
				p.Crashes = make(map[int]int)
			}
			if prev, dup := p.Crashes[site]; dup {
				return nil, fmt.Errorf("faults: site %d crashes twice (@%d and @%d)", site, prev, ord)
			}
			p.Crashes[site] = ord
		case "slow":
			sitePart, facPart, ok := strings.Cut(val, "x")
			if !ok {
				return nil, fmt.Errorf("faults: slow %q is not SITExFACTOR", val)
			}
			site, err := parseSite(sitePart)
			if err != nil {
				return nil, err
			}
			fac, err := strconv.ParseFloat(strings.TrimSpace(facPart), 64)
			if err != nil || fac < 1 || fac > 1e6 {
				return nil, fmt.Errorf("faults: bad slowdown factor %q (want 1..1e6)", facPart)
			}
			if p.Slowdowns == nil {
				p.Slowdowns = make(map[int]float64)
			}
			p.Slowdowns[site] = fac
		case "sendfail":
			r, err := strconv.ParseFloat(val, 64)
			if err != nil || r < 0 || r >= 1 {
				return nil, fmt.Errorf("faults: bad sendfail rate %q (want [0,1))", val)
			}
			p.SendFailRate = r
		case "mem":
			sitePart, bytesPart, ok := strings.Cut(val, "@")
			if !ok {
				return nil, fmt.Errorf("faults: mem %q is not SITE@BYTES", val)
			}
			site, err := parseSite(sitePart)
			if err != nil {
				return nil, err
			}
			b, err := strconv.ParseInt(strings.TrimSpace(bytesPart), 10, 64)
			if err != nil || b <= 0 {
				return nil, fmt.Errorf("faults: bad mem bytes %q (want > 0)", bytesPart)
			}
			if p.MemLimits == nil {
				p.MemLimits = make(map[int]int64)
			}
			if prev, dup := p.MemLimits[site]; dup {
				return nil, fmt.Errorf("faults: site %d has two mem limits (@%d and @%d)", site, prev, b)
			}
			p.MemLimits[site] = b
		default:
			return nil, fmt.Errorf("faults: unknown term %q", key)
		}
	}
	return p, nil
}

func parseSite(s string) (int, error) {
	n, err := strconv.Atoi(strings.TrimSpace(s))
	if err != nil || n < 0 {
		return 0, fmt.Errorf("faults: bad site %q", s)
	}
	return n, nil
}

// String renders the plan back into spec form (Parse(p.String()) is
// equivalent to p). A nil plan renders as "".
func (p *Plan) String() string {
	if p == nil {
		return ""
	}
	var terms []string
	terms = append(terms, fmt.Sprintf("seed=%d", p.Seed))
	for _, site := range sortedKeys(p.Crashes) {
		terms = append(terms, fmt.Sprintf("crash=%d@%d", site, p.Crashes[site]))
	}
	for _, site := range sortedKeys(p.Slowdowns) {
		terms = append(terms, fmt.Sprintf("slow=%dx%g", site, p.Slowdowns[site]))
	}
	for _, site := range sortedKeys(p.MemLimits) {
		terms = append(terms, fmt.Sprintf("mem=%d@%d", site, p.MemLimits[site]))
	}
	if p.SendFailRate > 0 {
		terms = append(terms, fmt.Sprintf("sendfail=%g", p.SendFailRate))
	}
	return strings.Join(terms, ";")
}

func sortedKeys[V any](m map[int]V) []int {
	out := make([]int, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}

// Injector evaluates a Plan. All methods are pure functions of their
// arguments (plus the plan), safe for concurrent use, and work on a nil
// receiver (injecting nothing).
type Injector struct {
	plan *Plan
}

// New creates an injector for a plan. A nil plan yields a nil injector,
// which is valid and injects nothing.
func New(p *Plan) *Injector {
	if p == nil {
		return nil
	}
	return &Injector{plan: p}
}

// CrashPoint returns the instance ordinal at which a site dies, and
// whether the plan crashes that site at all.
func (in *Injector) CrashPoint(site int) (int, bool) {
	if in == nil || in.plan.Crashes == nil {
		return 0, false
	}
	ord, ok := in.plan.Crashes[site]
	return ord, ok
}

// Slowdown returns the CPU slowdown factor for a site (1 = full speed).
func (in *Injector) Slowdown(site int) float64 {
	if in == nil || in.plan.Slowdowns == nil {
		return 1
	}
	if f, ok := in.plan.Slowdowns[site]; ok && f > 1 {
		return f
	}
	return 1
}

// MemLimit returns the injected memory pool size for a site, or 0 when
// the site's memory is unlimited.
func (in *Injector) MemLimit(site int) int64 {
	if in == nil || in.plan.MemLimits == nil {
		return 0
	}
	return in.plan.MemLimits[site]
}

// SendFails decides deterministically whether one transport send attempt
// fails: it hashes the send's full identity (exchange, sender fragment,
// logical sender site, variant, target site, attempt) with the plan seed
// and compares against the failure rate. Because the attempt number is
// part of the identity, a retried send draws a fresh outcome.
func (in *Injector) SendFails(exchange, fromFrag, fromSite, fromVariant, toSite, attempt int) bool {
	if in == nil || in.plan.SendFailRate <= 0 {
		return false
	}
	h := in.plan.Seed
	for _, v := range [...]int{exchange, fromFrag, fromSite, fromVariant, toSite, attempt} {
		h = splitmix64(h ^ uint64(int64(v)))
	}
	// Map the hash to [0,1) and compare with the rate.
	return float64(h>>11)/float64(1<<53) < in.plan.SendFailRate
}

// splitmix64 is the SplitMix64 finalizer — a strong, allocation-free
// mixer for deterministic per-event coin flips.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
