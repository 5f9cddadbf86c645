package pioqo

import (
	"reflect"
	"testing"
	"time"
)

func TestUpdateModifiesValuesDurably(t *testing.T) {
	sys, tab := newCalibrated(t, SSD, 20000, 33)
	q := Query{Table: tab, Low: 100, High: 299, Agg: Sum}

	before, err := sys.Execute(q, Cold())
	if err != nil {
		t.Fatal(err)
	}
	up, err := sys.Update(UpdateQuery{Table: tab, Low: 100, High: 299, Delta: 7}, Cold())
	if err != nil {
		t.Fatal(err)
	}
	if up.RowsUpdated != before.Rows {
		t.Errorf("updated %d rows, scan matched %d", up.RowsUpdated, before.Rows)
	}
	if up.PagesWritten == 0 {
		t.Error("no dirty pages written back")
	}
	if up.Runtime <= 0 {
		t.Error("non-positive update runtime")
	}

	after, err := sys.Execute(q, Cold())
	if err != nil {
		t.Fatal(err)
	}
	if want := before.Value + 7*before.Rows; after.Value != want {
		t.Errorf("SUM after update = %d, want %d", after.Value, want)
	}
}

func TestUpdateDisjointRangeLeavesOthersAlone(t *testing.T) {
	sys, tab := newCalibrated(t, SSD, 10000, 33)
	probe := Query{Table: tab, Low: 5000, High: 5999, Agg: Sum}
	before, err := sys.Execute(probe, Cold())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Update(UpdateQuery{Table: tab, Low: 0, High: 999, Delta: 100}); err != nil {
		t.Fatal(err)
	}
	after, err := sys.Execute(probe, Cold())
	if err != nil {
		t.Fatal(err)
	}
	if after.Value != before.Value {
		t.Errorf("untouched range changed: %d -> %d", before.Value, after.Value)
	}
}

func TestUpdateRejectsSyntheticTables(t *testing.T) {
	sys := New(Config{Device: SSD, PoolPages: 512})
	tab, err := sys.CreateTable("t", 10000, 33, WithSyntheticData())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Calibrate(CalibrationOptions{MaxReads: 400}); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Update(UpdateQuery{Table: tab, Low: 0, High: 9, Delta: 1}); err == nil {
		t.Error("update of a synthetic table succeeded")
	}
	if _, err := sys.Update(UpdateQuery{Delta: 1}); err == nil {
		t.Error("update without a table succeeded")
	}
}

func TestUpdateWriteBackOnEviction(t *testing.T) {
	// A pool far smaller than the update's footprint forces write-backs
	// during the scan, not just at the checkpoint.
	sys := New(Config{Device: SSD, PoolPages: 64})
	tab, err := sys.CreateTable("t", 30000, 33)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Calibrate(CalibrationOptions{MaxReads: 400}); err != nil {
		t.Fatal(err)
	}
	up, err := sys.Update(UpdateQuery{Table: tab, Low: 0, High: 29999, Delta: 1}, Cold())
	if err != nil {
		t.Fatal(err)
	}
	if up.PagesWritten < tab.Pages()/2 {
		t.Errorf("only %d pages written for a full-table update of %d pages",
			up.PagesWritten, tab.Pages())
	}
}

// A checkpoint's write-backs go out in page order, so two same-seed HDD
// runs seek identically and report identical Update runtimes.
func TestUpdateCheckpointRuntimeRepeats(t *testing.T) {
	run := func() []time.Duration {
		sys, tab := newCalibrated(t, HDD, 40000, 33)
		var out []time.Duration
		for i, lo := range []int64{0, 9000, 21000, 30000} {
			up, err := sys.Update(UpdateQuery{Table: tab, Low: lo, High: lo + 1999, Delta: int64(i + 1)})
			if err != nil {
				t.Fatal(err)
			}
			if up.PagesWritten < 2 {
				t.Fatalf("update %d wrote %d pages; the checkpoint order is untested", i, up.PagesWritten)
			}
			out = append(out, up.Runtime)
		}
		return out
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same-seed Update runtimes differ: %v vs %v", a, b)
	}
}
