package simnet

import (
	"testing"
	"time"

	"gignite/internal/fragment"
	"gignite/internal/obs"
)

func params() Params {
	return Params{
		CoresPerSite:      4,
		WorkPerSec:        1000,
		LatencySec:        0.001,
		BytesPerSec:       1e6,
		ThreadOverheadSec: 0.0001,
	}
}

// rootOnly is a one-fragment plan.
func rootOnly() *fragment.Plan {
	return &fragment.Plan{Fragments: []*fragment.Fragment{{ID: 0, IsRoot: true, ExchangeID: -1}}}
}

// chain is a two-fragment plan: fragment 1 feeds exchange 0, which the
// root fragment reads.
func chain() *fragment.Plan {
	return &fragment.Plan{Fragments: []*fragment.Fragment{
		{ID: 0, IsRoot: true, Receivers: []int{0}, ExchangeID: -1},
		{ID: 1, ExchangeID: 0},
	}}
}

// ok is the span of a surviving attempt.
func ok(ordinal, frag, site, variant int, work float64) obs.Span {
	return obs.Span{Ordinal: ordinal, Frag: frag, Site: site, Variant: variant, Work: work, Status: obs.SpanOK}
}

// ship is one sender instance's batch to a site.
func ship(ordinal, toSite int, bytes int64) Ship {
	return Ship{Ordinal: ordinal, ToSite: toSite, Bytes: bytes}
}

func near(a, b float64) bool { return a-b < 1e-6 && b-a < 1e-6 }

func TestSingleFragmentMakespan(t *testing.T) {
	l := &Ledger{Spans: []obs.Span{ok(0, 0, 0, 0, 1000)}}
	got := Makespan(rootOnly(), l, params())
	want := time.Duration((0.0001 + 1.0) * float64(time.Second))
	if got != want {
		t.Errorf("makespan = %v, want %v", got, want)
	}
}

func TestParallelSitesDoNotAdd(t *testing.T) {
	// Two sender instances at different sites run in parallel; the root
	// waits for the slower one plus the network edge.
	l := &Ledger{
		Spans: []obs.Span{ok(0, 1, 0, 0, 500), ok(1, 1, 1, 0, 1000), ok(2, 0, 0, 0, 100)},
		Ships: []Ship{ship(0, 0, 1000), ship(1, 0, 1000)},
	}
	got := Makespan(chain(), l, params()).Seconds()
	// Slower sender: 0.0001 + 1.0; edge: 0.001 + 0.001; root: 0.0001 + 0.1.
	want := 0.0001 + 1.0 + 0.001 + 0.001 + 0.0001 + 0.1
	if !near(got, want) {
		t.Errorf("makespan = %v, want %v", got, want)
	}
}

func TestVariantsReduceMakespan(t *testing.T) {
	mk := func(variants int) float64 {
		l := &Ledger{}
		for v := 0; v < variants; v++ {
			l.Spans = append(l.Spans, ok(v, 0, 0, v, 1000/float64(variants)))
		}
		return Makespan(rootOnly(), l, params()).Seconds()
	}
	single, dual := mk(1), mk(2)
	if dual >= single {
		t.Errorf("2 variants (%v) not faster than 1 (%v)", dual, single)
	}
}

func TestContentionAboveCores(t *testing.T) {
	// 8 variants on a 4-core site: each instance slowed by 2x.
	l := &Ledger{}
	for v := 0; v < 8; v++ {
		l.Spans = append(l.Spans, ok(v, 0, 0, v, 125))
	}
	got := Makespan(rootOnly(), l, params()).Seconds()
	want := 0.0001 + (125.0/1000)*2 // contention = 8/4
	if !near(got, want) {
		t.Errorf("contended makespan = %v, want %v", got, want)
	}
}

func TestNetworkBytesMatter(t *testing.T) {
	mk := func(bytes int64) float64 {
		l := &Ledger{
			Spans: []obs.Span{ok(0, 1, 1, 0, 10), ok(1, 0, 0, 0, 10)},
			Ships: []Ship{ship(0, 0, bytes)},
		}
		return Makespan(chain(), l, params()).Seconds()
	}
	if mk(1e6) <= mk(1000) {
		t.Error("bytes shipped did not increase makespan")
	}
}

func TestLedgerTotals(t *testing.T) {
	l := &Ledger{Spans: []obs.Span{
		{Work: 10, Bytes: 100, Status: obs.SpanOK},
		{Work: 20, Bytes: 200, Status: obs.SpanOK},
		{Work: 5, Status: obs.SpanOK},
		{Frag: -1, Status: obs.SpanReplan},
	}}
	if w, b := l.Totals(); w != 35 || b != 300 {
		t.Errorf("Totals = %v work, %v bytes; want 35, 300", w, b)
	}
}

// TestTotalWorkSumsInOrder: float addition is not associative, so the
// order Totals adds work in is part of its result: the surviving attempts
// in job order, then the retried ones. 1e16 absorbs a lone 1 but not
// 1+1, so adding these works in span order would give another sum.
func TestTotalWorkSumsInOrder(t *testing.T) {
	l := &Ledger{Spans: []obs.Span{
		{Ordinal: 0, Work: 1, Status: obs.SpanRetried},
		{Ordinal: 0, Work: 1, Status: obs.SpanOK, Attempt: 1},
		{Ordinal: 1, Work: 1e16, Status: obs.SpanOK},
	}}
	var want float64
	want += 1
	want += 1e16
	want += 1
	inSpanOrder := 1 + 1 + 1e16
	if want == inSpanOrder {
		t.Fatal("the two orders give one sum; the case tests nothing")
	}
	if got, _ := l.Totals(); got != want {
		t.Fatalf("total work = %v, want the survivors-first sum %v", got, want)
	}
}

func TestDefaultParamsSane(t *testing.T) {
	p := DefaultParams()
	if p.CoresPerSite <= 0 || p.WorkPerSec <= 0 || p.BytesPerSec <= 0 {
		t.Errorf("defaults invalid: %+v", p)
	}
	// Zero-value params fall back to defaults rather than dividing by 0.
	l := &Ledger{Spans: []obs.Span{ok(0, 0, 0, 0, 100)}}
	if Makespan(rootOnly(), l, Params{}) <= 0 {
		t.Error("zero params produced non-positive makespan")
	}
}

// TestRetryChargesRecoveringInstance: a recovery event delays the
// instance it belongs to (lost work + resend bytes + one instance
// start) and is included in the effort totals.
func TestRetryChargesRecoveringInstance(t *testing.T) {
	p := params()
	final := ok(0, 0, 0, 0, 1000)
	final.Attempt = 1
	clean := Makespan(rootOnly(), &Ledger{Spans: []obs.Span{final}}, p)

	withRetry := &Ledger{Spans: []obs.Span{
		{Ordinal: 0, Host: 1, Work: 500, Bytes: 2000, Status: obs.SpanRetried}, final,
	}}
	got := Makespan(rootOnly(), withRetry, p)
	// Penalty: thread start + 500 work + latency + 2000 bytes.
	penalty := 0.0001 + 500/1000.0 + 0.001 + 2000/1e6
	want := clean + time.Duration(penalty*float64(time.Second))
	if diff := (got - want).Seconds(); diff > 1e-9 || diff < -1e-9 {
		t.Errorf("makespan = %v, want %v (clean %v)", got, want, clean)
	}

	if w, b := withRetry.Totals(); w != 1500 || b != 2000 {
		t.Errorf("Totals = %v work, %v bytes; want 1500, 2000 (retry work and resend bytes included)", w, b)
	}

	// A zero-cost failover (host already known dead) adds nothing but the
	// instance start.
	pure := &Ledger{Spans: []obs.Span{{Ordinal: 0, Host: 1, Status: obs.SpanSkipped}, final}}
	want = clean + time.Duration(0.0001*float64(time.Second))
	if got := Makespan(rootOnly(), pure, p); got != want {
		t.Errorf("pure failover makespan = %v, want %v", got, want)
	}
}
