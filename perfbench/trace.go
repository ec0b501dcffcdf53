package main

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"iabc"
)

// Span levels, outermost first. A span's parent is the innermost span of a
// lower level in the same op whose interval contains it.
const (
	levelOp = iota
	levelCall
	levelUnit // one check of a MaxF scan, one sweep scenario
	levelStore
)

// span is one recorded interval, in nanoseconds since the tracer's epoch.
type span struct {
	ID     int    `json:"id"`
	Name   string `json:"name"`
	Op     int    `json:"op"`
	Level  int    `json:"level"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
}

// tracer keeps the spans of a traced run in memory until write. Spans are
// recorded by the benchmark's own wrappers around the calls into each
// layer; the high-frequency transport.Send boundary is recorded only as a
// count and the sendHist histogram.
type tracer struct {
	epoch    time.Time
	mu       sync.Mutex
	op       int
	spans    []span
	sendHist histogram
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// now returns the time since the epoch.
func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// beginOp starts a new op id; later spans are attributed to it.
func (t *tracer) beginOp() {
	t.mu.Lock()
	t.op++
	t.mu.Unlock()
}

// add records a finished span of the current op.
func (t *tracer) add(name string, level int, start, end int64) {
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, Op: t.op, Level: level, Start: start, End: end})
	t.mu.Unlock()
}

// resolve assigns ids and parents.
func (t *tracer) resolve() []span {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	sort.SliceStable(spans, func(i, j int) bool {
		a, b := spans[i], spans[j]
		if a.Op != b.Op {
			return a.Op < b.Op
		}
		if a.Start != b.Start {
			return a.Start < b.Start
		}
		return a.Level < b.Level
	})
	for i := range spans {
		spans[i].ID = i
		spans[i].Parent = -1
	}
	for i := range spans {
		s := &spans[i]
		best := -1
		for j := i - 1; j >= 0 && spans[j].Op == s.Op; j-- {
			p := spans[j]
			if p.Level < s.Level && p.Start <= s.Start && s.End <= p.End &&
				(best < 0 || p.Level > spans[best].Level) {
				best = j
			}
		}
		s.Parent = best
	}
	return spans
}

// selfTimes returns, per span name, the summed self time in seconds: each
// span's duration minus the part of it its children cover.
func selfTimes(spans []span) map[string]float64 {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[string]float64)
	for _, s := range spans {
		covered := int64(0)
		cursor := s.Start
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		for _, k := range kids {
			lo, hi := k.Start, k.End
			if lo < cursor {
				lo = cursor
			}
			if hi > lo {
				covered += hi - lo
				cursor = hi
			}
		}
		self[s.Name] += float64(s.End-s.Start-covered) / 1e9
	}
	return self
}

// write stores the spans, their per-name self times, and the send
// histogram as one JSON document at path, and returns the self times.
func (t *tracer) write(path string) (map[string]float64, error) {
	spans := t.resolve()
	self := selfTimes(spans)
	doc := struct {
		Spans    []span             `json:"spans"`
		SelfS    map[string]float64 `json:"self_s"`
		SendHist [][2]int64         `json:"transport_send_hist_ns"`
	}{spans, self, t.sendHist.Buckets()}
	b, err := json.Marshal(doc)
	if err != nil {
		return nil, err
	}
	return self, os.WriteFile(path, b, 0o644)
}

// storeStats accumulates the statestore calls of every traced op. Writes
// and reads count Write and Read calls alone; Delete and List calls are
// counted apart and their time is in otherNS.
type storeStats struct {
	mu                       sync.Mutex
	writes, bytes            int64
	reads, deletes, lists    int64
	errs                     int64
	writeNS, readNS, otherNS int64
	writeDurs                []float64 // seconds
}

// The kinds of statestore call.
const (
	storeRead = iota
	storeWrite
	storeDelete
	storeList
)

// timedBackend wraps a StateBackend, timing every call into st and
// recording each as a statestore span.
type timedBackend struct {
	inner iabc.StateBackend
	tr    *tracer
	st    *storeStats
}

func (b *timedBackend) record(name string, kind int, start int64, n int, err error) {
	end := b.tr.now()
	b.tr.add(name, levelStore, start, end)
	st := b.st
	st.mu.Lock()
	defer st.mu.Unlock()
	d := end - start
	switch kind {
	case storeWrite:
		st.writes++
		st.bytes += int64(n)
		st.writeNS += d
		st.writeDurs = append(st.writeDurs, float64(d)/1e9)
	case storeRead:
		st.reads++
		st.readNS += d
	case storeDelete:
		st.deletes++
		st.otherNS += d
	case storeList:
		st.lists++
		st.otherNS += d
	}
	if err != nil && !errors.Is(err, iabc.ErrStateNotFound) {
		st.errs++
	}
}

func (b *timedBackend) Read(ctx context.Context, key string) ([]byte, error) {
	start := b.tr.now()
	v, err := b.inner.Read(ctx, key)
	b.record("statestore.Read", storeRead, start, 0, err)
	return v, err
}

func (b *timedBackend) Write(ctx context.Context, key string, value []byte) error {
	start := b.tr.now()
	err := b.inner.Write(ctx, key, value)
	b.record("statestore.Write", storeWrite, start, len(value), err)
	return err
}

func (b *timedBackend) Delete(ctx context.Context, key string) error {
	start := b.tr.now()
	err := b.inner.Delete(ctx, key)
	b.record("statestore.Delete", storeDelete, start, 0, err)
	return err
}

func (b *timedBackend) List(ctx context.Context, prefix string) ([]string, error) {
	start := b.tr.now()
	keys, err := b.inner.List(ctx, prefix)
	b.record("statestore.List", storeList, start, 0, err)
	return keys, err
}

// timedTransport wraps a Transport under the chaos layer, counting sends,
// the time blocked in Send, and send errors. Recv and Close pass through.
type timedTransport struct {
	iabc.Transport
	hist   *histogram
	errors atomic.Int64
}

func (t *timedTransport) Send(ctx context.Context, from, to int, m iabc.Msg) error {
	t0 := time.Now()
	err := t.Transport.Send(ctx, from, to, m)
	t.hist.Add(time.Since(t0))
	if err != nil {
		t.errors.Add(1)
	}
	return err
}
