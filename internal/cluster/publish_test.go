package cluster

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"testing"

	"gignite/internal/exec"
	"gignite/internal/expr"
	"gignite/internal/fragment"
	"gignite/internal/obs"
	"gignite/internal/physical"
	"gignite/internal/simnet"
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
// order, identical at every worker count, and every retried attempt's
// span carries the bytes that attempt shipped.
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
// surviving instance of its producer, in (site, variant) order, and that
// the ledger holds one ship per published batch, naming its sender and
// carrying its rows and bytes. It renders the streams for comparison
// across worker counts.
func publishedStreams(t *testing.T, where string, r *run, plan *fragment.Plan) string {
	t.Helper()
	survivor := make(map[int]obs.Span) // by ordinal
	for _, s := range r.ledger.Spans {
		if s.Status == obs.SpanOK {
			survivor[s.Ordinal] = s
		}
	}
	var sb strings.Builder
	for ex, streams := range r.exchanges {
		var senders [][2]int
		for _, s := range r.ledger.Spans {
			if s.Status == obs.SpanOK && s.Frag == plan.Producer[ex].ID {
				senders = append(senders, [2]int{s.Site, s.Variant})
			}
		}
		slices.SortFunc(senders, func(a, b [2]int) int { return slices.Compare(a[:], b[:]) })
		for site, stream := range streams {
			if len(stream) == 0 {
				continue
			}
			var ships []simnet.Ship
			for _, sh := range r.ledger.Ships {
				if sh.Exchange == ex && sh.ToSite == site {
					ships = append(ships, sh)
				}
			}
			if len(ships) != len(stream) {
				t.Fatalf("%s: exchange %d -> site %d: %d batches, %d ships", where, ex, site, len(stream), len(ships))
			}
			var from [][2]int
			fmt.Fprintf(&sb, "exchange %d -> site %d:\n", ex, site)
			for i, b := range stream {
				s := survivor[ships[i].Ordinal]
				from = append(from, [2]int{s.Site, s.Variant})
				fmt.Fprintf(&sb, "  %d/%d %v\n", s.Site, s.Variant, b.Rows)
				if sh := ships[i]; sh.Rows != int64(len(b.Rows)) || sh.Bytes != b.Bytes {
					t.Errorf("%s: exchange %d -> site %d: ship %+v for a batch of %d rows, %d bytes",
						where, ex, site, sh, len(b.Rows), b.Bytes)
				}
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
// with its span's bytes. It returns the resent byte total.
func checkResentBytes(t *testing.T, where string, c *Cluster, r *run, plan *fragment.Plan, opts Opts) (resent int64) {
	t.Helper()
	q := c.newRun(context.Background(), plan, opts)
	q.exchanges = r.exchanges
	type key struct{ frag, site, variant int }
	jobs := make(map[key]*instanceJob)
	for w := range q.plan.Waves {
		for _, j := range q.waveJobs(w) {
			jobs[key{j.frag.ID, j.site, j.variant}] = &j
		}
	}
	for _, s := range r.ledger.Spans {
		var want int64
		switch s.Status {
		case obs.SpanRetried:
			j := jobs[key{s.Frag, s.Site, s.Variant}]
			ir := &instanceResult{ctx: &exec.Context{Obs: obs.NewInstanceObs(j.fobs)}}
			q.attempt(j, ir, s.Host, s.Attempt)
			for _, b := range ir.ctx.Sent {
				want += b.Bytes
			}
		case obs.SpanSkipped:
		default:
			continue
		}
		if s.Bytes != want {
			t.Errorf("%s: %s attempt %d of fragment %d site %d variant %d on host %d charged %d bytes, shipped %d",
				where, s.Status, s.Attempt, s.Frag, s.Site, s.Variant, s.Host, s.Bytes, want)
		}
		resent += s.Bytes
	}
	return resent
}
