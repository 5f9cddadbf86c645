package buffer

import (
	"testing"

	"pioqo/internal/obs"
	"pioqo/internal/sim"
)

// collectLap attaches a consumer and rides one full lap, returning the
// pages in delivery order. Errors surface via t.Error (procs are not the
// test goroutine).
func collectLap(t *testing.T, p *sim.Proc, c *ScanConsumer) []int64 {
	t.Helper()
	var got []int64
	for {
		run, ok, err := c.Next(p)
		if err != nil {
			t.Errorf("consumer %d: unexpected device fault: %v", c.qid, err)
			return got
		}
		if !ok {
			return got
		}
		for i := 0; i < run.Count; i++ {
			got = append(got, run.Start+int64(i))
		}
		c.Consumed()
	}
}

// exactlyOnce asserts pages holds every page in [0, n) exactly once.
func exactlyOnce(t *testing.T, who string, pages []int64, n int64) {
	t.Helper()
	seen := make(map[int64]int, n)
	for _, pg := range pages {
		seen[pg]++
	}
	if int64(len(seen)) != n || int64(len(pages)) != n {
		t.Errorf("%s: saw %d pages (%d distinct), want %d", who, len(pages), len(seen), n)
	}
	for pg, k := range seen {
		if k != 1 {
			t.Errorf("%s: page %d delivered %d times", who, pg, k)
		}
	}
}

func TestShareSingleConsumerLap(t *testing.T) {
	const pages = 100
	w := newWorld(t, 64)
	sh := NewShares(w.env, w.pool, ShareConfig{BlockPages: 8})
	var got []int64
	w.run(func(p *sim.Proc) {
		got = collectLap(t, p, sh.Attach(1, w.file, pages))
	})
	exactlyOnce(t, "sole consumer", got, pages)
	if got[0] != 0 {
		t.Errorf("fresh share started at page %d, want 0", got[0])
	}
	if w.pool.Pinned() != 0 {
		t.Errorf("pin ledger holds %d after the lap, want 0", w.pool.Pinned())
	}
	if sh.Live() != 0 {
		t.Errorf("%d consumers still attached after the lap", sh.Live())
	}
}

func TestShareMidLapAttachSeesEveryPageOnce(t *testing.T) {
	const pages = 400
	w := newWorld(t, 64)
	sh := NewShares(w.env, w.pool, ShareConfig{BlockPages: 8})
	var first, second []int64
	w.env.Go("first", func(p *sim.Proc) {
		first = collectLap(t, p, sh.Attach(1, w.file, pages))
	})
	w.env.Go("second", func(p *sim.Proc) {
		// Join after the producer has circulated for a while: the second
		// consumer attaches mid-lap and must still see one full lap.
		p.Sleep(2 * sim.Millisecond)
		second = collectLap(t, p, sh.Attach(2, w.file, pages))
	})
	w.env.Run()
	exactlyOnce(t, "first", first, pages)
	exactlyOnce(t, "second", second, pages)
	if len(second) == 0 || second[0] == 0 {
		t.Errorf("second consumer joined at page %v, want a mid-lap join point", second[:1])
	}
	if w.pool.Pinned() != 0 {
		t.Errorf("pin ledger holds %d after both laps, want 0", w.pool.Pinned())
	}
}

func TestShareProducerExitsIdleAndResumesPosition(t *testing.T) {
	const pages = 96 // 12 blocks of 8
	w := newWorld(t, 64)
	sh := NewShares(w.env, w.pool, ShareConfig{BlockPages: 8})
	// First rider takes three blocks and bails; env.Run returning at all
	// proves the producer exited rather than parking forever (the kernel
	// panics on a deadlocked process).
	w.run(func(p *sim.Proc) {
		c := sh.Attach(1, w.file, pages)
		for i := 0; i < 3; i++ {
			if _, ok, err := c.Next(p); !ok || err != nil {
				t.Errorf("block %d: ok=%v err=%v", i, ok, err)
				return
			}
			c.Consumed()
		}
		c.Detach()
	})
	share := sh.scans[w.file.ID()]
	if share == nil || share.running {
		t.Fatalf("share missing or producer still marked running after idle")
	}
	if share.pos == 0 {
		t.Fatalf("producer position reset to 0; want it parked mid-lap")
	}
	resumed := share.pos
	// Second rider restarts the producer lazily and must join where the
	// last circulation stopped, then still see every page exactly once.
	var got []int64
	w.run(func(p *sim.Proc) {
		got = collectLap(t, p, sh.Attach(2, w.file, pages))
	})
	exactlyOnce(t, "resumed consumer", got, pages)
	if want := resumed * 8; got[0] != want {
		t.Errorf("resumed lap started at page %d, want %d (block %d)", got[0], want, resumed)
	}
	if w.pool.Pinned() != 0 {
		t.Errorf("pin ledger holds %d, want 0", w.pool.Pinned())
	}
}

func TestShareSlowestConsumerHoldsPins(t *testing.T) {
	const pages = 200
	w := newWorld(t, 64)
	sh := NewShares(w.env, w.pool, ShareConfig{BlockPages: 8})
	// The slow rider sits on its first block while the fast one laps. The
	// producer's window must fill and park rather than outrun the slow
	// consumer's unconsumed pins — so the fast consumer can never get more
	// than a window ahead.
	var fastTaken, fastAtRelease, windowAtRelease int
	w.env.Go("fast", func(p *sim.Proc) {
		c := sh.Attach(1, w.file, pages)
		for {
			_, ok, err := c.Next(p)
			if err != nil || !ok {
				return
			}
			fastTaken++
			c.Consumed()
		}
	})
	w.env.Go("slow", func(p *sim.Proc) {
		c := sh.Attach(2, w.file, pages)
		if _, ok, err := c.Next(p); !ok || err != nil {
			t.Errorf("slow consumer first block: ok=%v err=%v", ok, err)
			return
		}
		p.Sleep(50 * sim.Millisecond) // hold the first block
		fastAtRelease = fastTaken
		windowAtRelease, _ = sh.scans[w.file.ID()].budget()
		c.Consumed()
		for {
			_, ok, err := c.Next(p)
			if err != nil || !ok {
				return
			}
			c.Consumed()
		}
	})
	w.env.Run()
	share := sh.scans[w.file.ID()]
	// While the slow consumer held block 0, the producer could deliver at
	// most the pinned window, so the fast consumer is bounded by it — it
	// cannot lap a held block.
	if fastAtRelease <= 0 || fastAtRelease > windowAtRelease {
		t.Errorf("fast consumer took %d blocks while block 0 was held; window is %d", fastAtRelease, windowAtRelease)
	}
	if fastTaken != int(share.blocks) {
		t.Errorf("fast consumer finished %d blocks of %d", fastTaken, share.blocks)
	}
	if w.pool.Pinned() != 0 {
		t.Errorf("pin ledger holds %d after both consumers, want 0", w.pool.Pinned())
	}
	if sh.Live() != 0 {
		t.Errorf("%d consumers still attached", sh.Live())
	}
}

func TestPrefetchStatsSplit(t *testing.T) {
	w := newWorld(t, 64)
	reg := obs.NewRegistry(w.env)
	w.pool.Publish(reg)
	w.run(func(p *sim.Proc) {
		w.pool.Prefetch(w.file, 0)        // one device op, one page
		w.pool.PrefetchRun(w.file, 10, 8) // one device op, eight pages
		p.Sleep(5 * sim.Millisecond)
	})
	st := w.pool.Stats
	if st.PrefetchReads != 2 {
		t.Errorf("PrefetchReads = %d, want 2 (one per device op)", st.PrefetchReads)
	}
	if st.PrefetchedPages != 9 {
		t.Errorf("PrefetchedPages = %d, want 9 (pages covered)", st.PrefetchedPages)
	}
	if got := reg.Counter(obs.MetricBufferPrefetchReads).Value(); got != 2 {
		t.Errorf("registry %s = %d, want 2", obs.MetricBufferPrefetchReads, got)
	}
	if got := reg.Counter(obs.MetricBufferPrefetchedPages).Value(); got != 9 {
		t.Errorf("registry %s = %d, want 9", obs.MetricBufferPrefetchedPages, got)
	}
}

func TestPrefetchRunTrimmedCoversOnlyGaps(t *testing.T) {
	w := newWorld(t, 64)
	w.run(func(p *sim.Proc) {
		w.pool.Prefetch(w.file, 12) // pre-cover the middle of [10, 18)
		p.Sleep(5 * sim.Millisecond)
		before := w.pool.Stats
		if issued := w.pool.PrefetchRunTrimmed(w.file, 10, 8); issued != 2 {
			t.Errorf("trimmed run issued %d reads, want 2 (one per gap)", issued)
		}
		if d := w.pool.Stats.PrefetchReads - before.PrefetchReads; d != 2 {
			t.Errorf("PrefetchReads grew by %d, want 2", d)
		}
		if d := w.pool.Stats.PrefetchedPages - before.PrefetchedPages; d != 7 {
			t.Errorf("PrefetchedPages grew by %d, want 7 (page 12 already covered)", d)
		}
		p.Sleep(5 * sim.Millisecond)
		for pg := int64(10); pg < 18; pg++ {
			if !w.pool.Loaded(w.file, pg) {
				t.Errorf("page %d not loaded after trimmed run", pg)
			}
		}
		// A fully covered window issues nothing.
		if issued := w.pool.PrefetchRunTrimmed(w.file, 10, 8); issued != 0 {
			t.Errorf("fully covered trimmed run issued %d reads, want 0", issued)
		}
	})
}
