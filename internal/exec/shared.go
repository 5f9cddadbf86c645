// The shared full-scan consumer path: instead of demand-fetching heap
// pages, the scan attaches to its table's circulating producer
// (buffer.Shares) and consumes pushed page batches — one full lap, every
// page exactly once, starting wherever the producer happens to be. The
// producer owns all device interaction and pinning; this file must not
// demand-fetch (scripts/verify.sh rejects FetchPage calls here), so the
// consumer is pure CPU: evaluate rows, account batch CPU exactly like the
// demand path, report progress per delivered page.
package exec

import (
	"fmt"

	"pioqo/internal/sim"
)

// sharable reports whether this spec can ride a circulating scan: a plain
// aggregate full scan with no row hooks (Emit delivers rows in claim
// order and Update needs the pinned handle — both are demand-path only).
func (s *Spec) sharable(ctx *Context) bool {
	return s.Shared && ctx.Shares != nil && s.Method == FullScan &&
		s.Emit == nil && s.Update == nil
}

// runSharedFullScan consumes one lap of the table's circulating scan.
// CPU accounting is the demand path's, unchanged: PerPage plus PerRow per
// row charged into the budget, settled at page granularity — the consumer
// differs only in who moves the bytes.
func runSharedFullScan(p *sim.Proc, ctx *Context, spec Spec) Result {
	t := spec.Table
	rpp := int64(t.RowsPerPage())

	spec.startWorker(ctx, 0)
	defer spec.endWorker(ctx, 0)
	a := agg{kind: spec.Agg}
	m := newMeter(ctx, spec.Span, "fts-shared")
	defer m.finish(&a)
	bud := newBudget(ctx, m)
	defer bud.settle(p)

	cons := ctx.Shares.Attach(spec.QID, t.File(), t.Pages())
	defer cons.Detach()
	var c1Buf []int64
	for {
		if spec.aborted() {
			return a.result()
		}
		t0 := ctx.Env.Now()
		run, ok, err := cons.Next(p)
		m.io += sim.Duration(ctx.Env.Now() - t0)
		if err != nil {
			// A device fault that survived the producer's retries. The
			// consumer winds down like a demand worker whose fetchRetry
			// exhausted: cancel the control and let RunScan report it.
			if spec.Ctl == nil {
				panic(fmt.Sprintf("exec: shared scan of %v failed: %v", t.File().ID(), err))
			}
			spec.Ctl.Cancel(err)
			return a.result()
		}
		if !ok {
			return a.result()
		}
		for i := 0; i < run.Count; i++ {
			if spec.aborted() {
				return a.result()
			}
			page := run.Start + int64(i)
			firstRow := page * rpp
			lastRow := firstRow + rpp
			if lastRow > t.Rows() {
				lastRow = t.Rows()
			}
			bud.charge(ctx.Costs.PerPage +
				sim.Duration(lastRow-firstRow)*ctx.Costs.PerRow)
			c1Buf = t.MatchingC1(firstRow, lastRow, spec.Lo, spec.Hi, c1Buf)
			a.addC1s(c1Buf)
			m.pages++
			if spec.Progress != nil {
				// Pages delivered to *this* consumer — not the producer's
				// position, which serves every attached query at once.
				*spec.Progress++
			}
			// One page is the batch quantum, as on the demand path.
			bud.settle(p)
		}
		cons.Consumed()
	}
}
