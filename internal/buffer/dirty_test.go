package buffer

import (
	"math/rand"
	"slices"
	"testing"

	"pioqo/internal/device"
	"pioqo/internal/disk"
	"pioqo/internal/sim"
)

func TestDirtyPageWrittenBackOnEviction(t *testing.T) {
	w := newWorld(t, 2)
	w.run(func(p *sim.Proc) {
		h := w.pool.FetchPage(p, w.file, 0)
		h.MarkDirty()
		h.Release()
		if w.pool.DirtyPages() != 1 {
			t.Fatalf("dirty pages = %d, want 1", w.pool.DirtyPages())
		}
		// Overflow the 2-frame pool so page 0 is evicted.
		w.pool.FetchPage(p, w.file, 1).Release()
		w.pool.FetchPage(p, w.file, 2).Release()
	})
	if w.pool.Stats.DirtyWrites != 1 {
		t.Errorf("dirty writes = %d, want 1", w.pool.Stats.DirtyWrites)
	}
}

func TestCleanEvictionIssuesNoWrites(t *testing.T) {
	w := newWorld(t, 2)
	w.run(func(p *sim.Proc) {
		for page := int64(0); page < 10; page++ {
			w.pool.FetchPage(p, w.file, page).Release()
		}
	})
	if w.pool.Stats.DirtyWrites != 0 {
		t.Errorf("dirty writes = %d for a read-only workload", w.pool.Stats.DirtyWrites)
	}
}

func TestFlushDirtyIsACheckpoint(t *testing.T) {
	w := newWorld(t, 8)
	var elapsed sim.Duration
	w.run(func(p *sim.Proc) {
		for page := int64(0); page < 4; page++ {
			h := w.pool.FetchPage(p, w.file, page)
			h.MarkDirty()
			h.Release()
		}
		t0 := p.Now()
		w.pool.FlushDirty(p)
		elapsed = sim.Duration(p.Now() - t0)
	})
	if w.pool.Stats.DirtyWrites != 4 {
		t.Errorf("dirty writes = %d, want 4", w.pool.Stats.DirtyWrites)
	}
	if elapsed == 0 {
		t.Error("checkpoint completed in zero time; writes not awaited")
	}
	if w.pool.DirtyPages() != 0 {
		t.Errorf("dirty pages after checkpoint = %d", w.pool.DirtyPages())
	}
	// Pages stay resident (checkpoint, not eviction).
	if w.pool.Cached() != 4 {
		t.Errorf("cached = %d after checkpoint, want 4", w.pool.Cached())
	}
}

func TestFlushDirtyIdempotent(t *testing.T) {
	w := newWorld(t, 8)
	w.run(func(p *sim.Proc) {
		h := w.pool.FetchPage(p, w.file, 0)
		h.MarkDirty()
		h.Release()
		w.pool.FlushDirty(p)
		w.pool.FlushDirty(p) // nothing left to write
	})
	if w.pool.Stats.DirtyWrites != 1 {
		t.Errorf("dirty writes = %d, want 1", w.pool.Stats.DirtyWrites)
	}
}

func TestPoolFlushWritesDirtyFramesOut(t *testing.T) {
	w := newWorld(t, 8)
	w.run(func(p *sim.Proc) {
		h := w.pool.FetchPage(p, w.file, 3)
		h.MarkDirty()
		h.Release()
		w.pool.Flush()
		p.Sleep(10 * sim.Millisecond) // let the write-back land
	})
	if w.pool.Stats.DirtyWrites != 1 {
		t.Errorf("dirty writes = %d, want 1 from Flush", w.pool.Stats.DirtyWrites)
	}
}

// writeLog records the byte offsets of the writes a device accepts.
type writeLog struct {
	device.Device
	offsets []int64
}

func (w *writeLog) WriteAt(offset int64, length int) *sim.Completion {
	w.offsets = append(w.offsets, offset)
	return w.Device.WriteAt(offset, length)
}

// A checkpoint writes its dirty frames back in (file, page) order — the
// same order on every run — whatever order they were dirtied in.
func TestFlushDirtyWritesInPageOrder(t *testing.T) {
	env := sim.NewEnv(1)
	dev := &writeLog{Device: device.NewHDD(env, device.DefaultHDDConfig())}
	m := disk.NewManager(dev)
	files := []*disk.File{m.MustAllocate("a", 512), m.MustAllocate("b", 512)}
	pool := NewPool(env, 256)
	rng := rand.New(rand.NewSource(7))
	env.Go("test", func(p *sim.Proc) {
		for _, i := range rng.Perm(200) {
			h := pool.FetchPage(p, files[i%2], int64(i*2))
			h.MarkDirty()
			h.Release()
		}
		pool.FlushDirty(p)
	})
	env.Run()
	if len(dev.offsets) != 200 {
		t.Fatalf("%d writes, want 200", len(dev.offsets))
	}
	if !slices.IsSorted(dev.offsets) {
		t.Fatalf("checkpoint writes out of page order: %v", dev.offsets)
	}
}
