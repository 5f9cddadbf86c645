package main

import (
	"encoding/json"
	"os"
	"testing"
	"time"
)

func ms(xs ...int) []time.Duration {
	out := make([]time.Duration, len(xs))
	for i, x := range xs {
		out[i] = time.Duration(x) * time.Millisecond
	}
	return out
}

func TestNearestRank(t *testing.T) {
	s := ms(1, 2, 3, 4, 5, 6, 7, 8, 9, 10)
	for _, c := range []struct {
		p    float64
		want int
	}{{50, 5}, {90, 9}, {91, 10}, {99, 10}, {100, 10}, {10, 1}, {11, 2}, {0.1, 1}} {
		if got := nearestRank(s, c.p); got != time.Duration(c.want)*time.Millisecond {
			t.Errorf("nearestRank(1..10, %g) = %v, want %dms", c.p, got, c.want)
		}
	}
	if got := nearestRank(nil, 50); got != 0 {
		t.Errorf("nearestRank(nil) = %v, want 0", got)
	}
	if got := nearestRank(ms(7), 99); got != 7*time.Millisecond {
		t.Errorf("nearestRank of one sample = %v, want 7ms", got)
	}
}

func TestTailPercentileLeavesTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{10000, 99.9}, {9999, 99}, {1000, 99}, {999, 95}, {200, 95}, {199, 90},
		{100, 90}, {99, 75}, {40, 75}, {39, 50}, {20, 50}, {5, 50}, {0, 50},
	} {
		p := tailPercentile(c.n)
		if p != c.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", c.n, p, c.want)
		}
		// Whenever a ladder step above 50 is chosen, at least ten samples
		// lie beyond its nearest rank.
		if p > 50 && c.n > 0 {
			s := make([]time.Duration, c.n)
			for i := range s {
				s[i] = time.Duration(i)
			}
			beyond := 0
			for _, v := range s {
				if v > nearestRank(s, p) {
					beyond++
				}
			}
			if beyond < minBeyond {
				t.Errorf("n=%d p%g leaves %d samples beyond, want >= %d", c.n, p, beyond, minBeyond)
			}
		}
	}
}

func TestClassifyByTemplate(t *testing.T) {
	const domain = 100_000
	for _, c := range []struct {
		kind   opKind
		lo, hi int64
		want   class
	}{
		{opQuery, 5, 5, classShort},
		{opQuery, 0, 99, classShort}, // 100 keys = 0.1% of the domain
		{opQuery, 0, 100, classLong}, // 101 keys
		{opQuery, 0, domain - 1, classLong},
		{opUpdate, 5, 5, classWrite}, // an Update is a write whatever its width
		{opJoin, 5, 5, classLong},    // joins and GROUP BYs are long whatever their width
		{opGroupBy, 5, 5, classLong},
	} {
		if got := classify(c.kind, c.lo, c.hi, domain); got != c.want {
			t.Errorf("classify(%v, [%d,%d]) = %v, want %v", c.kind, c.lo, c.hi, got, c.want)
		}
	}
	// The class rides on the op from generation on: no plan is consulted,
	// so every scenario's ops carry a class fixed before any system exists.
	for _, w := range workloads {
		sc := w.build(1, true)
		for i, o := range sc.ops {
			want := o.class
			if o.kind == opQuery {
				want = classify(o.kind, o.lo, o.hi, sc.tables[o.tab].rows)
			}
			if o.class != want {
				t.Errorf("%s op %d: class %v, template says %v", w.name, i, o.class, want)
			}
		}
	}
}

// validName reports whether s is a legal metric name: 1 to 64 of
// [A-Za-z0-9_.-], starting with a letter or digit.
func validName(s string) bool {
	if len(s) == 0 || len(s) > 64 {
		return false
	}
	for i, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
		case (r == '_' || r == '.' || r == '-') && i > 0:
		default:
			return false
		}
	}
	return true
}

func TestMetricNames(t *testing.T) {
	for _, bad := range []string{"", "_x", ".x", "a b", "a/b", "é", "x\n"} {
		if validName(bad) {
			t.Errorf("validName(%q) = true", bad)
		}
	}
	for _, good := range []string{"setup_s", "cost.est_over_actual.PFTS", "a-b", "9lives"} {
		if !validName(good) {
			t.Errorf("validName(%q) = false", good)
		}
	}
	seen := map[string]bool{}
	for _, m := range append(append([]struct{ name, unit string }{}, endToEndNames...), layerNames...) {
		if !validName(m.name) || seen[m.name] {
			t.Errorf("metric name %q invalid or repeated", m.name)
		}
		seen[m.name] = true
	}
}

// TestBenchmarkManifest keeps BENCHMARK.json's metric lists in step with
// the names the program prints.
func TestBenchmarkManifest(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no manifest: %v", err)
	}
	var m struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatal(err)
	}
	check := func(what string, got []struct{ Name, Unit string }, want []struct{ name, unit string }) {
		if len(got) != len(want) {
			t.Fatalf("%s: manifest lists %d metrics, program prints %d", what, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: manifest %s/%s, program %s/%s", what, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", m.EndToEnd, endToEndNames)
	check("per_layer", m.PerLayer, layerNames)
	if len(m.Workloads) != len(workloads) {
		t.Fatalf("manifest lists %d workloads, program has %d", len(m.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if m.Workloads[i].Name != w.name {
			t.Errorf("workload %d: manifest %q, program %q", i, m.Workloads[i].Name, w.name)
		}
	}
}
