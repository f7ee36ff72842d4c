package simnet

import (
	"testing"
	"time"
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

func TestSingleFragmentMakespan(t *testing.T) {
	tr := &Trace{
		Order:     []int{0},
		Instances: map[int][]Instance{0: {{Site: 0, Work: 1000}}},
		Consumers: map[int][]int{},
		RootFrag:  0,
	}
	got := Makespan(tr, params())
	want := time.Duration((0.0001 + 1.0) * float64(time.Second))
	if got != want {
		t.Errorf("makespan = %v, want %v", got, want)
	}
}

func TestParallelSitesDoNotAdd(t *testing.T) {
	// Two sender instances at different sites run in parallel; the root
	// waits for the slower one plus the network edge.
	tr := &Trace{
		Order: []int{1, 0},
		Instances: map[int][]Instance{
			1: {{Site: 0, Work: 500}, {Site: 1, Work: 1000}},
			0: {{Site: 0, Work: 100}},
		},
		Sends: []Send{
			{Exchange: 0, FromFrag: 1, FromSite: 0, ToSite: 0, Bytes: 1000},
			{Exchange: 0, FromFrag: 1, FromSite: 1, ToSite: 0, Bytes: 1000},
		},
		Consumers: map[int][]int{0: {0}},
		RootFrag:  0,
	}
	p := params()
	got := Makespan(tr, p).Seconds()
	// Slower sender: 0.0001 + 1.0; edge: 0.001 + 0.001; root: 0.0001 + 0.1.
	want := 0.0001 + 1.0 + 0.001 + 0.001 + 0.0001 + 0.1
	if diff := got - want; diff > 1e-6 || diff < -1e-6 {
		t.Errorf("makespan = %v, want %v", got, want)
	}
}

func TestVariantsReduceMakespan(t *testing.T) {
	mk := func(variants int) float64 {
		insts := make([]Instance, variants)
		for v := 0; v < variants; v++ {
			insts[v] = Instance{Site: 0, Variant: v, Work: 1000 / float64(variants)}
		}
		tr := &Trace{
			Order:     []int{0},
			Instances: map[int][]Instance{0: insts},
			Consumers: map[int][]int{},
			RootFrag:  0,
		}
		return Makespan(tr, params()).Seconds()
	}
	single, dual := mk(1), mk(2)
	if dual >= single {
		t.Errorf("2 variants (%v) not faster than 1 (%v)", dual, single)
	}
}

func TestContentionAboveCores(t *testing.T) {
	// 8 variants on a 4-core site: each instance slowed by 2x.
	insts := make([]Instance, 8)
	for v := range insts {
		insts[v] = Instance{Site: 0, Variant: v, Work: 125}
	}
	tr := &Trace{
		Order:     []int{0},
		Instances: map[int][]Instance{0: insts},
		Consumers: map[int][]int{},
		RootFrag:  0,
	}
	got := Makespan(tr, params()).Seconds()
	want := 0.0001 + (125.0/1000)*2 // contention = 8/4
	if diff := got - want; diff > 1e-6 || diff < -1e-6 {
		t.Errorf("contended makespan = %v, want %v", got, want)
	}
}

func TestNetworkBytesMatter(t *testing.T) {
	mk := func(bytes float64) float64 {
		tr := &Trace{
			Order: []int{1, 0},
			Instances: map[int][]Instance{
				1: {{Site: 1, Work: 10}},
				0: {{Site: 0, Work: 10}},
			},
			Sends:     []Send{{Exchange: 0, FromFrag: 1, FromSite: 1, ToSite: 0, Bytes: bytes}},
			Consumers: map[int][]int{0: {0}},
			RootFrag:  0,
		}
		return Makespan(tr, params()).Seconds()
	}
	if mk(1e6) <= mk(1000) {
		t.Error("bytes shipped did not increase makespan")
	}
}

func TestTraceTotals(t *testing.T) {
	tr := &Trace{
		Order: []int{0, 1},
		Instances: map[int][]Instance{
			0: {{Work: 10}, {Work: 20}},
			1: {{Work: 5}},
		},
		Sends: []Send{{Bytes: 100}, {Bytes: 200}},
	}
	if got := tr.TotalWork(); got != 35 {
		t.Errorf("TotalWork = %v", got)
	}
	if got := tr.TotalBytes(); got != 300 {
		t.Errorf("TotalBytes = %v", got)
	}
}

// TestTotalWorkSumsInOrder: float addition is not associative, so a
// total summed in map order could change its last bits between runs.
// 1e16 absorbs a lone 1 but not 1+1, so the three orders of these works
// give two different sums; TotalWork must give the in-Order one every time.
func TestTotalWorkSumsInOrder(t *testing.T) {
	tr := &Trace{
		Order: []int{2, 0, 1},
		Instances: map[int][]Instance{
			0: {{Work: 1}},
			1: {{Work: 1}},
			2: {{Work: 1e16}},
		},
	}
	var want float64
	for _, f := range tr.Order {
		want += tr.Instances[f][0].Work
	}
	for i := 0; i < 100; i++ {
		if got := tr.TotalWork(); got != want {
			t.Fatalf("call %d: TotalWork = %v, want the in-Order sum %v", i, got, want)
		}
	}
}

func TestDefaultParamsSane(t *testing.T) {
	p := DefaultParams()
	if p.CoresPerSite <= 0 || p.WorkPerSec <= 0 || p.BytesPerSec <= 0 {
		t.Errorf("defaults invalid: %+v", p)
	}
	// Zero-value params fall back to defaults rather than dividing by 0.
	tr := &Trace{
		Order:     []int{0},
		Instances: map[int][]Instance{0: {{Work: 100}}},
		Consumers: map[int][]int{},
	}
	if Makespan(tr, Params{}) <= 0 {
		t.Error("zero params produced non-positive makespan")
	}
}

// TestRetryChargesRecoveringInstance: a recovery event delays the
// instance it belongs to (lost work + resend bytes + one instance
// start) and is included in the effort totals.
func TestRetryChargesRecoveringInstance(t *testing.T) {
	base := &Trace{
		Order:     []int{0},
		Instances: map[int][]Instance{0: {{Site: 0, Work: 1000}}},
		Consumers: map[int][]int{},
		RootFrag:  0,
	}
	p := params()
	clean := Makespan(base, p)

	withRetry := &Trace{
		Order:     base.Order,
		Instances: base.Instances,
		Retries:   []Retry{{Frag: 0, Site: 0, Variant: 0, Host: 1, Work: 500, Bytes: 2000}},
		Consumers: base.Consumers,
		RootFrag:  0,
	}
	got := Makespan(withRetry, p)
	// Penalty: thread start + 500 work + latency + 2000 bytes.
	penalty := 0.0001 + 500/1000.0 + 0.001 + 2000/1e6
	want := clean + time.Duration(penalty*float64(time.Second))
	if diff := (got - want).Seconds(); diff > 1e-9 || diff < -1e-9 {
		t.Errorf("makespan = %v, want %v (clean %v)", got, want, clean)
	}

	if w := withRetry.TotalWork(); w != 1500 {
		t.Errorf("TotalWork = %v, want 1500 (retry work included)", w)
	}
	if b := withRetry.TotalBytes(); b != 2000 {
		t.Errorf("TotalBytes = %v, want 2000 (resend bytes included)", b)
	}

	// A zero-cost failover (host already known dead) adds nothing but the
	// instance start.
	pure := &Trace{
		Order:     base.Order,
		Instances: base.Instances,
		Retries:   []Retry{{Frag: 0, Site: 0, Variant: 0, Host: 1}},
		Consumers: base.Consumers,
		RootFrag:  0,
	}
	want = clean + time.Duration(0.0001*float64(time.Second))
	if got := Makespan(pure, p); got != want {
		t.Errorf("pure failover makespan = %v, want %v", got, want)
	}
}
