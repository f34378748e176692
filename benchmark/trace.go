package main

import (
	"bufio"
	"fmt"
	"os"
	"strconv"
	"time"

	"repro/internal/obs"
)

// tracer keeps the traced run's spans in memory and writes them out as
// Chrome trace-event JSON when the workload ends. A nil *tracer is the
// untraced run: every method is a no-op. Only the goroutine driving the
// cell touches it; clients buffer their own samples (cell.drainSamples).
type tracer struct {
	epoch  time.Time
	spans  []span
	counts []counterEvent
}

// span ids are 1-based indexes into tracer.spans; parent 0 is the root.
type span struct {
	name       string
	parent     int
	start, dur int64 // ns since epoch
	tid        int   // 0: the driver; c+1: client c
}

type counterEvent struct {
	name   string
	at     int64
	values []uint64
	names  []string
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) add(s span) int {
	t.spans = append(t.spans, s)
	return len(t.spans)
}

func (t *tracer) span(name string, parent int, start time.Time, dur time.Duration, tid int) int {
	if t == nil {
		return 0
	}
	return t.add(span{name: name, parent: parent, start: int64(start.Sub(t.epoch)), dur: int64(dur), tid: tid})
}

// begin opens a span that end closes.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return 0
	}
	return t.add(span{name: name, parent: parent, start: int64(time.Since(t.epoch)), dur: -1})
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	s := &t.spans[id-1]
	s.dur = int64(time.Since(t.epoch)) - s.start
}

// counters records the named counters of snap as one counter event.
func (t *tracer) counters(name string, snap obs.Snapshot, names []string) {
	if t == nil {
		return
	}
	ev := counterEvent{name: name, at: int64(time.Since(t.epoch)), names: names}
	for _, n := range names {
		ev.values = append(ev.values, snap.Counters[n])
	}
	t.counts = append(t.counts, ev)
}

// write emits the spans as complete ("X") events carrying their id and
// parent, and the counter snapshots as "C" events. Timestamps are
// microseconds, as the format requires.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	us := func(ns int64) string { return strconv.FormatFloat(float64(ns)/1e3, 'f', 3, 64) }
	w.WriteString(`{"displayTimeUnit":"ns","traceEvents":[`)
	for i, s := range t.spans {
		if i > 0 {
			w.WriteByte(',')
		}
		fmt.Fprintf(w, "\n{\"name\":%q,\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%s,\"dur\":%s,\"args\":{\"id\":%d,\"parent\":%d}}",
			s.name, s.tid, us(s.start), us(s.dur), i+1, s.parent)
	}
	for _, c := range t.counts {
		fmt.Fprintf(w, ",\n{\"name\":%q,\"ph\":\"C\",\"pid\":1,\"tid\":0,\"ts\":%s,\"args\":{", c.name, us(c.at))
		for i, n := range c.names {
			if i > 0 {
				w.WriteByte(',')
			}
			fmt.Fprintf(w, "%q:%d", n, c.values[i])
		}
		w.WriteString("}}")
	}
	w.WriteString("\n]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
