package governor

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"gignite/internal/obs"
)

func TestNilGovernorAdmitsEverything(t *testing.T) {
	var g *Governor
	lease, err := g.Acquire(context.Background())
	if err != nil || lease != nil {
		t.Fatalf("nil governor: lease=%v err=%v", lease, err)
	}
	if err := lease.Reserve(1 << 30); err != nil {
		t.Fatalf("nil lease Reserve: %v", err)
	}
	lease.Release(1 << 30)
	lease.Close()
}

func TestConcurrencyLimitQueuesFIFO(t *testing.T) {
	g := New(Params{MaxConcurrent: 1, AdmissionTimeout: -1}, Metrics{})
	first, err := g.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var order []int
	var wg sync.WaitGroup
	ready := make(chan struct{}, 2)
	for i := 1; i <= 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Serialize enqueue order so FIFO is observable.
			<-ready
			l, err := g.Acquire(context.Background())
			if err != nil {
				t.Errorf("waiter %d: %v", i, err)
				return
			}
			mu.Lock()
			order = append(order, i)
			mu.Unlock()
			l.Close()
		}(i)
		ready <- struct{}{}
		time.Sleep(20 * time.Millisecond) // let waiter i enqueue before i+1
	}
	first.Close()
	wg.Wait()
	if len(order) != 2 || order[0] != 1 || order[1] != 2 {
		t.Fatalf("admission order = %v, want [1 2]", order)
	}
}

func TestAdmissionTimeoutSheds(t *testing.T) {
	reg := obs.NewRegistry()
	shed := reg.Counter("shed")
	g := New(Params{MaxConcurrent: 1, AdmissionTimeout: 20 * time.Millisecond}, Metrics{Shed: shed})
	first, err := g.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer first.Close()
	_, err = g.Acquire(context.Background())
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("queued acquire = %v, want ErrOverloaded", err)
	}
	if got := shed.Value(); got != 1 {
		t.Fatalf("shed counter = %v, want 1", got)
	}
}

func TestAbandonedWaiterReleasesSlotImmediately(t *testing.T) {
	g := New(Params{MaxConcurrent: 1, AdmissionTimeout: -1}, Metrics{})
	first, err := g.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := g.Acquire(ctx)
		done <- err
	}()
	time.Sleep(10 * time.Millisecond) // let the waiter enqueue
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled acquire = %v, want context.Canceled", err)
	}
	// The abandoned waiter must not consume the slot the next query needs.
	first.Close()
	ctx2, cancel2 := context.WithTimeout(context.Background(), time.Second)
	defer cancel2()
	l, err := g.Acquire(ctx2)
	if err != nil {
		t.Fatalf("acquire after abandon: %v", err)
	}
	l.Close()
}

func TestPerQueryLimitIsCumulative(t *testing.T) {
	g := New(Params{QueryLimitBytes: 100}, Metrics{})
	l, err := g.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := l.Reserve(60); err != nil {
		t.Fatal(err)
	}
	l.Release(60)
	// Released bytes still count against the cumulative budget, so the
	// limit decision does not depend on instance-lifetime overlap.
	if err := l.Reserve(60); !errors.Is(err, ErrMemoryExceeded) {
		t.Fatalf("second reserve = %v, want ErrMemoryExceeded", err)
	}
	if l.total != 60 {
		t.Fatalf("charged = %d, want 60 (failed reserve must not charge)", l.total)
	}
	if got := l.Peak(); got != 60 {
		t.Fatalf("peak = %d, want 60", got)
	}
}

func TestPoolExhaustionIsOverload(t *testing.T) {
	reg := obs.NewRegistry()
	reserved := reg.Gauge("reserved")
	g := New(Params{PoolBytes: 100}, Metrics{Reserved: reserved})
	a, err := g.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := g.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if err := a.Reserve(80); err != nil {
		t.Fatal(err)
	}
	if err := b.Reserve(40); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("over-pool reserve = %v, want ErrOverloaded", err)
	}
	if got := reserved.Value(); got != 80 {
		t.Fatalf("reserved gauge = %v, want 80", got)
	}
	a.Release(80)
	if err := b.Reserve(40); err != nil {
		t.Fatalf("reserve after release: %v", err)
	}
}

func TestMemoryWatermarkGatesAdmission(t *testing.T) {
	g := New(Params{PoolBytes: 100, QueryLimitBytes: 60, AdmissionTimeout: -1}, Metrics{})
	a, err := g.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Reserve(60); err != nil {
		t.Fatal(err)
	}
	// 60 reserved + 60 watermark > 100: the second query must wait until
	// the first releases.
	admitted := make(chan *Lease, 1)
	go func() {
		l, err := g.Acquire(context.Background())
		if err != nil {
			t.Errorf("second acquire: %v", err)
		}
		admitted <- l
	}()
	select {
	case <-admitted:
		t.Fatal("second query admitted with no pool headroom")
	case <-time.After(30 * time.Millisecond):
	}
	a.Release(60)
	select {
	case l := <-admitted:
		l.Close()
	case <-time.After(time.Second):
		t.Fatal("second query not admitted after release")
	}
	a.Close()
}

func TestCloseIsIdempotent(t *testing.T) {
	g := New(Params{MaxConcurrent: 1}, Metrics{})
	l, err := g.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Reserve(10); err != nil {
		t.Fatal(err)
	}
	l.Close()
	l.Close()
	g.mu.Lock()
	inflight, used := g.inflight, g.poolUsed
	g.mu.Unlock()
	if inflight != 0 || used != 0 {
		t.Fatalf("after double close: inflight=%d poolUsed=%d, want 0/0", inflight, used)
	}
}
