package device

import (
	"fmt"
	"testing"

	"pioqo/internal/sim"
)

const page = 4096

// measureRandom drives dev with qd worker processes, each issuing count
// synchronous random page-sized reads uniformly within the first band bytes
// of the device, and returns the device metrics for the interval.
func measureRandom(t *testing.T, newDev func(*sim.Env) Device, qd int, band int64, perWorker int) Summary {
	t.Helper()
	env := sim.NewEnv(12345)
	dev := newDev(env)
	if band > dev.Size() {
		t.Fatalf("band %d exceeds device size %d", band, dev.Size())
	}
	pagesInBand := band / page
	for w := 0; w < qd; w++ {
		env.Go(fmt.Sprintf("w%d", w), func(p *sim.Proc) {
			for i := 0; i < perWorker; i++ {
				off := env.Rand().Int63n(pagesInBand) * page
				p.Wait(dev.ReadAt(off, page))
			}
		})
	}
	env.Run()
	return dev.Metrics().Snapshot()
}

// measureSequential reads total bytes in reqSize chunks back to back with a
// single worker and returns the metrics.
func measureSequential(t *testing.T, newDev func(*sim.Env) Device, reqSize int, total int64) Summary {
	t.Helper()
	env := sim.NewEnv(1)
	dev := newDev(env)
	env.Go("seq", func(p *sim.Proc) {
		for off := int64(0); off+int64(reqSize) <= total; off += int64(reqSize) {
			p.Wait(dev.ReadAt(off, reqSize))
		}
	})
	env.Run()
	return dev.Metrics().Snapshot()
}

func newHDD(e *sim.Env) Device { return NewHDD(e, DefaultHDDConfig()) }
func newSSD(e *sim.Env) Device { return NewSSD(e, DefaultSSDConfig()) }
func newRAID8(e *sim.Env) Device {
	return NewRAID0(e, 8, 64<<10, HDD15KConfig())
}

func TestHDDSequentialThroughputNearMediaRate(t *testing.T) {
	s := measureSequential(t, newHDD, 256<<10, 64<<20)
	if s.ThroughputMBps < 80 || s.ThroughputMBps > 115 {
		t.Errorf("sequential throughput = %.1f MB/s, want ~110", s.ThroughputMBps)
	}
}

func TestHDDRandomQD1IsSlow(t *testing.T) {
	s := measureRandom(t, newHDD, 1, 32<<30, 300)
	if s.AvgLatency < 5*sim.Millisecond || s.AvgLatency > 25*sim.Millisecond {
		t.Errorf("random 4K latency = %v, want 5-25ms", s.AvgLatency)
	}
	if s.ThroughputMBps > 2 {
		t.Errorf("random 4K QD1 throughput = %.2f MB/s, want < 2", s.ThroughputMBps)
	}
}

func TestHDDElevatorImprovesThroughputButNotLatency(t *testing.T) {
	qd1 := measureRandom(t, newHDD, 1, 32<<30, 200)
	qd32 := measureRandom(t, newHDD, 32, 32<<30, 60)
	if qd32.ThroughputMBps < 1.5*qd1.ThroughputMBps {
		t.Errorf("QD32 throughput %.2f not >1.5x QD1 %.2f",
			qd32.ThroughputMBps, qd1.ThroughputMBps)
	}
	// Even with the elevator, random stays far below sequential (paper: ~1.3%).
	if qd32.ThroughputMBps > 10 {
		t.Errorf("QD32 random throughput %.2f MB/s implausibly high", qd32.ThroughputMBps)
	}
	if qd32.AvgLatency < qd1.AvgLatency {
		t.Errorf("QD32 latency %v < QD1 latency %v; queueing should raise latency",
			qd32.AvgLatency, qd1.AvgLatency)
	}
}

func TestHDDSmallerBandIsCheaper(t *testing.T) {
	small := measureRandom(t, newHDD, 1, 256<<20, 300)
	large := measureRandom(t, newHDD, 1, 32<<30, 300)
	if small.AvgLatency >= large.AvgLatency {
		t.Errorf("band 256MB latency %v >= band 32GB latency %v; seeks should shrink",
			small.AvgLatency, large.AvgLatency)
	}
}

func TestSSDSequentialNearBusRate(t *testing.T) {
	// Synchronous 1 MiB reads leave pipeline bubbles; still near 1 GB/s.
	s := measureSequential(t, newSSD, 1<<20, 256<<20)
	if s.ThroughputMBps < 900 || s.ThroughputMBps > 1500 {
		t.Errorf("sync sequential throughput = %.0f MB/s, want ~1000", s.ThroughputMBps)
	}
}

func TestSSDPipelinedSequentialHitsBusLimit(t *testing.T) {
	// With a few requests in flight the shared bus becomes the bottleneck.
	env := sim.NewEnv(1)
	dev := newSSD(env)
	const depth, reqSize, total = 4, 1 << 20, 256 << 20
	for w := 0; w < depth; w++ {
		w := w
		env.Go(fmt.Sprintf("seq%d", w), func(p *sim.Proc) {
			for off := int64(w * reqSize); off+reqSize <= total; off += depth * reqSize {
				p.Wait(dev.ReadAt(off, reqSize))
			}
		})
	}
	env.Run()
	s := dev.Metrics().Snapshot()
	if s.ThroughputMBps < 1200 || s.ThroughputMBps > 1510 {
		t.Errorf("pipelined sequential = %.0f MB/s, want near the 1500 MB/s bus", s.ThroughputMBps)
	}
}

func TestSSDRandomScalesWithQueueDepth(t *testing.T) {
	prev := 0.0
	var qd1, qd32 Summary
	for _, qd := range []int{1, 2, 4, 8, 16, 32} {
		s := measureRandom(t, newSSD, qd, 1<<30, 400)
		if s.ThroughputMBps <= prev {
			t.Errorf("QD %d throughput %.1f did not improve on %.1f", qd, s.ThroughputMBps, prev)
		}
		prev = s.ThroughputMBps
		if qd == 1 {
			qd1 = s
		}
		if qd == 32 {
			qd32 = s
		}
	}
	gain := qd32.ThroughputMBps / qd1.ThroughputMBps
	if gain < 10 {
		t.Errorf("QD32/QD1 random gain = %.1fx, want >= 10x", gain)
	}
	// Paper: QD32 random reaches ~51.7% of sequential (1.5 GB/s) on SSD.
	if qd32.ThroughputMBps < 500 || qd32.ThroughputMBps > 1100 {
		t.Errorf("QD32 random throughput = %.0f MB/s, want roughly half of sequential", qd32.ThroughputMBps)
	}
}

func TestSSDLatencyFlatUpToParallelismLimit(t *testing.T) {
	qd1 := measureRandom(t, newSSD, 1, 1<<30, 400)
	qd32 := measureRandom(t, newSSD, 32, 1<<30, 100)
	if qd32.AvgLatency > 3*qd1.AvgLatency {
		t.Errorf("QD32 latency %v vs QD1 %v: should stay near-flat up to 32",
			qd32.AvgLatency, qd1.AvgLatency)
	}
}

func TestSSDBandPenaltyShrinksWithQueueDepth(t *testing.T) {
	smallBand := int64(1 << 30)   // inside mapping-cache coverage
	largeBand := int64(200 << 30) // far beyond coverage

	s1 := measureRandom(t, newSSD, 1, smallBand, 400)
	l1 := measureRandom(t, newSSD, 1, largeBand, 400)
	relQD1 := float64(l1.AvgLatency) / float64(s1.AvgLatency)
	if relQD1 < 1.1 {
		t.Errorf("QD1 band effect %.2fx, want visible (>1.1x)", relQD1)
	}

	// At queue depth 32 the whole cost curve compresses by ~32x, so the
	// *amortized* extra cost of a large band shrinks by more than an order
	// of magnitude (the flattening visible in the paper's Fig. 7).
	amortized := func(s Summary) float64 {
		return float64(s.Elapsed) / float64(s.Requests)
	}
	diffQD1 := amortized(l1) - amortized(s1)
	s32 := measureRandom(t, newSSD, 32, smallBand, 150)
	l32 := measureRandom(t, newSSD, 32, largeBand, 150)
	diffQD32 := amortized(l32) - amortized(s32)
	if diffQD32 > diffQD1/5 {
		t.Errorf("amortized band penalty at QD32 = %.1fus vs %.1fus at QD1; want >5x compression",
			diffQD32/1000, diffQD1/1000)
	}
}

func TestRAIDThroughputScalesWithSpindles(t *testing.T) {
	qd1 := measureRandom(t, newRAID8, 1, 64<<30, 200)
	qd8 := measureRandom(t, newRAID8, 8, 64<<30, 100)
	gain := qd8.ThroughputMBps / qd1.ThroughputMBps
	if gain < 3 {
		t.Errorf("QD8/QD1 gain on 8 spindles = %.1fx, want >= 3x", gain)
	}
}

func TestRAIDStripingSplitsLargeReads(t *testing.T) {
	env := sim.NewEnv(1)
	r := NewRAID0(env, 4, 64<<10, DefaultHDDConfig())
	env.Go("p", func(p *sim.Proc) {
		// 256 KiB spanning exactly 4 stripes lands one segment per child.
		p.Wait(r.ReadAt(0, 256<<10))
	})
	env.Run()
	for i, c := range r.children {
		if got := c.Metrics().Requests; got != 1 {
			t.Errorf("child %d served %d requests, want 1", i, got)
		}
		if got := c.Metrics().Bytes; got != 64<<10 {
			t.Errorf("child %d moved %d bytes, want %d", i, got, 64<<10)
		}
	}
	if r.Metrics().Requests != 1 {
		t.Errorf("array completed %d requests, want 1", r.Metrics().Requests)
	}
}

func TestRAIDUnalignedReadGeometry(t *testing.T) {
	env := sim.NewEnv(1)
	r := NewRAID0(env, 2, 64<<10, DefaultHDDConfig())
	env.Go("p", func(p *sim.Proc) {
		// Starts mid-stripe on child 0, spills onto child 1.
		p.Wait(r.ReadAt(32<<10, 64<<10))
	})
	env.Run()
	if got := r.children[0].Metrics().Bytes; got != 32<<10 {
		t.Errorf("child 0 moved %d, want %d", got, 32<<10)
	}
	if got := r.children[1].Metrics().Bytes; got != 32<<10 {
		t.Errorf("child 1 moved %d, want %d", got, 32<<10)
	}
}

func TestReadOutsideCapacityPanics(t *testing.T) {
	env := sim.NewEnv(1)
	d := NewHDD(env, DefaultHDDConfig())
	for _, bad := range []struct {
		off int64
		len int
	}{{-1, page}, {0, 0}, {d.Size() - 100, page}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("no panic for read(%d, %d)", bad.off, bad.len)
				}
			}()
			d.ReadAt(bad.off, bad.len)
		}()
	}
}

func TestMetricsCountsAndQueueDepth(t *testing.T) {
	env := sim.NewEnv(1)
	d := NewSSD(env, DefaultSSDConfig())
	const n = 64
	env.Go("burst", func(p *sim.Proc) {
		var cs []*sim.Completion
		for i := 0; i < n; i++ {
			cs = append(cs, d.ReadAt(int64(i)*page, page))
		}
		p.WaitAll(cs)
	})
	env.Run()
	s := d.Metrics().Snapshot()
	if s.Requests != n {
		t.Errorf("requests = %d, want %d", s.Requests, n)
	}
	if s.Bytes != n*page {
		t.Errorf("bytes = %d, want %d", s.Bytes, n*page)
	}
	if s.AvgQueueDepth < 2 {
		t.Errorf("avg queue depth = %.1f for a burst of %d, want > 2", s.AvgQueueDepth, n)
	}
}

func TestMetricsReset(t *testing.T) {
	env := sim.NewEnv(1)
	d := NewSSD(env, DefaultSSDConfig())
	env.Go("p", func(p *sim.Proc) {
		p.Wait(d.ReadAt(0, page))
		d.Metrics().Reset()
		p.Wait(d.ReadAt(page, page))
	})
	env.Run()
	if got := d.Metrics().Snapshot().Requests; got != 1 {
		t.Errorf("requests after reset = %d, want 1", got)
	}
}

func TestLRUCache(t *testing.T) {
	c := newLRUCache(2)
	if c.touch(1) {
		t.Error("first touch of 1 reported hit")
	}
	if !c.touch(1) {
		t.Error("second touch of 1 reported miss")
	}
	c.touch(2)
	c.touch(3) // evicts 1 (LRU)
	if c.touch(1) {
		t.Error("touch of evicted 1 reported hit")
	}
	// Cache is now {1, 3}: bringing 1 back evicted 2.
	if c.touch(2) {
		t.Error("touch of evicted 2 reported hit")
	}
	// Bringing 2 back evicted 3.
	if c.touch(3) {
		t.Error("touch of evicted 3 reported hit")
	}
	if !c.touch(2) {
		t.Error("2 should still be cached")
	}
}

func TestWritesCompleteOnAllDevices(t *testing.T) {
	for _, mk := range []func(*sim.Env) Device{newSSD, newHDD, newRAID8} {
		env := sim.NewEnv(1)
		dev := mk(env)
		var done bool
		env.Go("w", func(p *sim.Proc) {
			p.Wait(dev.WriteAt(0, page))
			p.Wait(dev.WriteAt(1<<20, 64<<10))
			done = true
		})
		env.Run()
		if !done {
			t.Errorf("%s: writes never completed", dev.Name())
		}
		if got := dev.Metrics().Requests; got != 2 {
			t.Errorf("%s: %d requests metered, want 2", dev.Name(), got)
		}
	}
}

func TestSSDWritesSlowerThanReads(t *testing.T) {
	measure := func(write bool) sim.Duration {
		env := sim.NewEnv(1)
		dev := newSSD(env)
		env.Go("p", func(p *sim.Proc) {
			for i := int64(0); i < 100; i++ {
				off := env.Rand().Int63n(dev.Size()/page) * page
				if write {
					p.Wait(dev.WriteAt(off, page))
				} else {
					p.Wait(dev.ReadAt(off, page))
				}
			}
		})
		return sim.Duration(env.Run())
	}
	reads, writes := measure(false), measure(true)
	if writes <= reads {
		t.Errorf("random writes (%v) not slower than reads (%v); NAND programs are slower",
			writes, reads)
	}
}

func TestDeterministicReplay(t *testing.T) {
	run := func() sim.Duration {
		env := sim.NewEnv(99)
		d := NewSSD(env, DefaultSSDConfig())
		env.Go("p", func(p *sim.Proc) {
			for i := 0; i < 200; i++ {
				off := env.Rand().Int63n(d.Size()/page) * page
				p.Wait(d.ReadAt(off, page))
			}
		})
		return sim.Duration(env.Run())
	}
	if a, b := run(), run(); a != b {
		t.Errorf("two identical runs ended at %v and %v", a, b)
	}
}
