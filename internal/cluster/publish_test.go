package cluster

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"strings"
	"testing"

	"gignite/internal/expr"
	"gignite/internal/fragment"
	"gignite/internal/obs"
	"gignite/internal/physical"
	"gignite/internal/types"
)

// exchangePlan: scan t → hash exchange on grp → filter → single exchange →
// root. Both shipping fragments are hash-content (so they fail over) and
// run as variants at every site, so every published stream has several
// (site, variant) senders.
func exchangePlan(t *testing.T, c *Cluster) *fragment.Plan {
	t.Helper()
	hash := physical.NewExchange(scanT(t, c), physical.HashDist(1))
	hash.Props().EstRows = 100
	filter := physical.NewFilter(hash, expr.NewBinOp(expr.OpGe,
		expr.NewColRef(0, types.KindInt, ""), expr.NewLit(types.NewInt(0))))
	filter.Props().EstRows = 100
	single := physical.NewExchange(filter, physical.SingleDist)
	single.Props().EstRows = 100
	return fragment.Split(single)
}

// TestBarrierPublishesOnlySurvivors: with retried sends and a crash
// failover in the run, every published (exchange, site) stream holds
// exactly one batch per surviving sender instance, in (site, variant)
// order, identical at every worker count, and every retry's resend bytes
// are what its failed attempt shipped.
func TestBarrierPublishesOnlySurvivors(t *testing.T) {
	const spec = "seed=97;crash=2@5;sendfail=0.3"
	var want string
	for _, workers := range []int{1, 2, 8} {
		c := replicatedTestCluster(t, 4, 1, spec)
		c.Workers = workers
		plan := exchangePlan(t, c)
		opts := Opts{Variants: 2}
		r := c.newRun(context.Background(), plan, opts)
		if err := r.schedule(); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		where := fmt.Sprintf("workers=%d", workers)
		if n := len(r.res.Rows); n != 100 {
			t.Errorf("%s: %d rows, want 100", where, n)
		}
		got := publishedStreams(t, where, r, plan)
		if want == "" {
			want = got
		} else if got != want {
			t.Errorf("%s: published streams differ from workers=1:\n%s\nwant\n%s", where, got, want)
		}
		if checkResentBytes(t, where, c, r, plan, opts) == 0 {
			t.Errorf("%s: no retry resent bytes; the scenario tests nothing", where)
		}
	}
}

// publishedStreams checks that every published stream holds one batch per
// surviving instance of its producer, in (site, variant) order, and
// renders the streams for comparison across worker counts.
func publishedStreams(t *testing.T, where string, r *run, plan *fragment.Plan) string {
	t.Helper()
	var sb strings.Builder
	for _, ex := range sortedKeys(r.exchanges) {
		var senders [][2]int
		for _, in := range r.trace.Instances[plan.Producer[ex].ID] {
			senders = append(senders, [2]int{in.Site, in.Variant})
		}
		slices.SortFunc(senders, func(a, b [2]int) int { return slices.Compare(a[:], b[:]) })
		for _, site := range sortedKeys(r.exchanges[ex]) {
			stream := r.exchanges[ex][site]
			var from [][2]int
			fmt.Fprintf(&sb, "exchange %d -> site %d:\n", ex, site)
			for _, b := range stream {
				from = append(from, [2]int{b.FromSite, b.FromVariant})
				fmt.Fprintf(&sb, "  %d/%d %v\n", b.FromSite, b.FromVariant, b.Rows)
			}
			if !slices.Equal(from, senders) {
				t.Errorf("%s: exchange %d -> site %d published senders %v, want %v",
					where, ex, site, from, senders)
			}
		}
	}
	return sb.String()
}

// checkResentBytes replays, against the run's published exchanges, every
// attempt whose shipments the run dropped, and compares what it ships
// with the trace's retry records. It returns the resent byte total.
func checkResentBytes(t *testing.T, where string, c *Cluster, r *run, plan *fragment.Plan, opts Opts) (resent float64) {
	t.Helper()
	q := c.newRun(context.Background(), plan, opts)
	q.exchanges = r.exchanges
	type key struct{ frag, site, variant int }
	jobs := make(map[key]*instanceJob)
	for w := range q.waves {
		for _, j := range q.waveJobs(w) {
			jobs[key{j.frag.ID, j.site, j.variant}] = &j
		}
	}
	shipped := func(k key, s obs.Span) float64 {
		out, _ := q.attempt(jobs[k], &instanceResult{}, s.Host, s.Attempt)
		return sentBytes(out.sent)
	}

	failed := make(map[key][]obs.Span)
	for _, s := range r.qobs.Spans {
		if s.Status == obs.SpanRetried || s.Status == obs.SpanSkipped {
			k := key{s.Frag, s.Site, s.Variant}
			failed[k] = append(failed[k], s)
		}
	}
	for _, rt := range r.trace.Retries {
		k := key{rt.Frag, rt.Site, rt.Variant}
		s := failed[k][0]
		failed[k] = failed[k][1:]
		want := 0.0
		if s.Status == obs.SpanRetried {
			want = shipped(k, s)
		}
		if rt.Host != s.Host || rt.Bytes != want {
			t.Errorf("%s: retry of %v on host %d charged %v bytes, its attempt %d on host %d shipped %v",
				where, k, rt.Host, rt.Bytes, s.Attempt, s.Host, want)
		}
		resent += rt.Bytes
	}
	return resent
}

func sortedKeys[V any](m map[int]V) []int {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys
}
