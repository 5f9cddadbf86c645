package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"pioqo"
)

// span is one call the benchmark made into the engine, timed on both
// clocks. The spans of one op share its op id; set-up spans carry op -1.
type span struct {
	ID        int    `json:"id"`
	Parent    int    `json:"parent"` // -1 for a root
	Op        int    `json:"op"`
	Rep       int    `json:"rep"`
	Name      string `json:"name"`
	HostStart int64  `json:"host_start_ns"` // since the run started
	HostEnd   int64  `json:"host_end_ns"`
	VirtStart int64  `json:"virt_start_ns"` // the system's virtual clock
	VirtEnd   int64  `json:"virt_end_ns"`
}

// tracer keeps spans in memory; a nil tracer records nothing, so the
// untraced run pays one nil check per call site.
type tracer struct {
	t0    time.Time
	rep   int
	spans []span
}

// virtNow reads a system's virtual clock; nil reads 0 (spans outside any
// system, such as the oracle's generator scan).
func virtNow(sys *pioqo.System) int64 {
	if sys == nil {
		return 0
	}
	return int64(sys.Now())
}

// begin opens a span and returns its id (-1 on a nil tracer).
func (t *tracer) begin(name string, parent, op int, sys *pioqo.System) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Op: op, Rep: t.rep, Name: name,
		HostStart: int64(time.Since(t.t0)), VirtStart: virtNow(sys)})
	return len(t.spans) - 1
}

// end closes span id.
func (t *tracer) end(id int, sys *pioqo.System) {
	if t == nil {
		return
	}
	s := &t.spans[id]
	s.HostEnd, s.VirtEnd = int64(time.Since(t.t0)), virtNow(sys)
}

func (s span) host() time.Duration { return time.Duration(s.HostEnd - s.HostStart) }

// totals sums each span name's whole duration and count.
func totals(spans []span) (map[string]time.Duration, map[string]int) {
	dur, n := make(map[string]time.Duration), make(map[string]int)
	for _, s := range spans {
		dur[s.Name] += s.host()
		n[s.Name]++
	}
	return dur, n
}

// writeSpans writes the spans as JSON lines.
func writeSpans(w io.Writer, spans []span) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// saveSpans writes the spans to path, creating its directory.
func saveSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := writeSpans(f, spans); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}
