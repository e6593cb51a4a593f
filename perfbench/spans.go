package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// that call. Parent 0 marks a root.
type span struct {
	ID     int64            `json:"id"`
	Parent int64            `json:"parent,omitempty"`
	Name   string           `json:"name"`
	Start  time.Time        `json:"start"`
	Dur    time.Duration    `json:"dur_ns"`
	Attrs  map[string]int64 `json:"attrs,omitempty"`
	Folded bool             `json:"folded,omitempty"`
}

// spanLog keeps a traced run's spans in memory; write dumps them at the
// end of the run. A nil *spanLog records nothing, so untraced runs pay
// one nil check per call site.
type spanLog struct {
	mu    sync.Mutex
	spans []span
}

// add records a finished span and returns its id.
func (l *spanLog) add(parent int64, name string, start time.Time, dur time.Duration, attrs map[string]int64) int64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	id := int64(len(l.spans) + 1)
	l.spans = append(l.spans, span{ID: id, Parent: parent, Name: name, Start: start, Dur: dur, Attrs: attrs})
	return id
}

// addFolded records the calls a layer made inside one parent span as a
// single child whose length is their summed time. It stands for calls
// that run one after another inside the parent, so its length is
// exactly the part of the parent they cover.
func (l *spanLog) addFolded(parent int64, name string, start time.Time, busy time.Duration, calls int64) {
	if l == nil || calls == 0 {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans = append(l.spans, span{
		ID: int64(len(l.spans) + 1), Parent: parent, Name: name, Start: start, Dur: busy,
		Attrs: map[string]int64{"calls": calls}, Folded: true,
	})
}

// selfTimes returns, per span id of the named spans, the span's
// duration minus the part of its interval that its children cover.
func (l *spanLog) selfTimes(name string) map[int64]time.Duration {
	l.mu.Lock()
	defer l.mu.Unlock()
	children := map[int64][]span{}
	for _, s := range l.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[int64]time.Duration{}
	for _, s := range l.spans {
		if s.Name == name {
			out[s.ID] = s.Dur - covered(s, children[s.ID])
		}
	}
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent span, kids []span) time.Duration {
	type iv struct{ lo, hi time.Time }
	end := parent.Start.Add(parent.Dur)
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		lo, hi := k.Start, k.Start.Add(k.Dur)
		if lo.Before(parent.Start) {
			lo = parent.Start
		}
		if hi.After(end) {
			hi = end
		}
		if hi.After(lo) {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo.Before(ivs[b].lo) })
	var total time.Duration
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case v.lo.After(cur.hi):
			total += cur.hi.Sub(cur.lo)
			cur = v
		case v.hi.After(cur.hi):
			cur.hi = v.hi
		}
	}
	if len(ivs) > 0 {
		total += cur.hi.Sub(cur.lo)
	}
	return total
}

// write dumps the spans as JSON lines into dir and returns the file.
func (l *spanLog) write(dir, workload string, seed int64) (string, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	path := filepath.Join(dir, fmt.Sprintf("spans-%s-seed%d.jsonl", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range l.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return "", err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
