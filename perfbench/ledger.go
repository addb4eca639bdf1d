package main

import (
	"bufio"
	"encoding/json"
	"math"
	"os"
	"sort"
	"sync"
	"time"
)

// clock is the bench's time source: monotonic time since the run began.
type clock struct{ t0 time.Time }

func newClock() *clock { return &clock{t0: time.Now()} }

func (c *clock) now() time.Duration { return time.Since(c.t0) }

type spanKind uint8

// Span kinds, one per layer boundary the bench wraps. Every span but
// restore and compact passes that fold nothing hangs off its epoch's span.
const (
	spanEpoch      spanKind = iota // Checkpoint() call → that epoch's EndEpoch return
	spanCheckpoint                 // Runtime.Checkpoint
	spanFirstWrite                 // first Region.Write to a page after a checkpoint
	spanWritePage                  // Store.WritePage (ckpt record write, dedup, codec)
	spanEndEpoch                   // Store.EndEpoch (segment flush, manifest, fsync)
	spanCompact                    // compact.RunOnce
	spanPromote                    // lower Tier.Store
	spanLoad                       // lower Tier.Load during restore
	spanRestore                    // the closing restore call
)

var spanNames = [...]string{
	spanEpoch:      "core.epoch",
	spanCheckpoint: "core.checkpoint",
	spanFirstWrite: "core.first_write",
	spanWritePage:  "ckpt.write_page",
	spanEndEpoch:   "ckpt.end_epoch",
	spanCompact:    "compact.pass",
	spanPromote:    "multilevel.promote",
	spanLoad:       "multilevel.load",
	spanRestore:    "ckpt.restore",
}

// span is one timed call. The epoch is the id shared by every span of one
// checkpoint; tier names the lower tier of promote and load spans.
type span struct {
	kind       spanKind
	tier       string
	round      int
	epoch      uint64
	start, end time.Duration
}

// tracer keeps the spans of the traced rounds in memory; they are written
// out when the run ends.
type tracer struct {
	mu    sync.Mutex
	round int    //aickpt:guardedby mu
	spans []span //aickpt:guardedby mu
}

func (t *tracer) setRound(r int) {
	t.mu.Lock()
	t.round = r
	t.mu.Unlock()
}

func (t *tracer) span(k spanKind, epoch uint64, start, end time.Duration) {
	t.tierSpan(k, "", epoch, start, end)
}

func (t *tracer) tierSpan(k spanKind, tier string, epoch uint64, start, end time.Duration) {
	t.mu.Lock()
	t.spans = append(t.spans, span{kind: k, tier: tier, round: t.round, epoch: epoch, start: start, end: end})
	t.mu.Unlock()
}

func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// writeSpans writes one JSON object per span: name, start, end, parent and
// the epoch as the shared id. Span ids are positions in the file (1-based);
// the parent of a layer span is its epoch's span, 0 for roots.
func writeSpans(path string, spans []span) error {
	type key struct {
		round int
		epoch uint64
	}
	epochID := map[key]int{}
	for i, s := range spans {
		if s.kind == spanEpoch {
			epochID[key{s.round, s.epoch}] = i + 1
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i, s := range spans {
		parent := 0
		if s.kind != spanEpoch && s.kind != spanRestore {
			parent = epochID[key{s.round, s.epoch}]
		}
		rec := struct {
			ID     int    `json:"id"`
			Parent int    `json:"parent"`
			Name   string `json:"name"`
			Tier   string `json:"tier,omitempty"`
			Round  int    `json:"round"`
			Epoch  uint64 `json:"epoch"`
			Start  int64  `json:"start_ns"`
			End    int64  `json:"end_ns"`
		}{i + 1, parent, spanNames[s.kind], s.tier, s.round, s.epoch, int64(s.start), int64(s.end)}
		if err := enc.Encode(rec); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// durations returns the durations of the spans of one kind (and tier).
func durations(spans []span, k spanKind, tier string) []time.Duration {
	var out []time.Duration
	for _, s := range spans {
		if s.kind == k && s.tier == tier {
			out = append(out, s.end-s.start)
		}
	}
	return out
}

// flushSelf returns, per epoch span, its duration minus the part of it
// covered by the epoch's ckpt child spans (WritePage and EndEpoch): the
// time the commit pipeline spent outside the storage layer.
func flushSelf(spans []span) []time.Duration {
	type key struct {
		round int
		epoch uint64
	}
	children := map[key][]span{}
	for _, s := range spans {
		if s.kind == spanWritePage || s.kind == spanEndEpoch {
			k := key{s.round, s.epoch}
			children[k] = append(children[k], s)
		}
	}
	var out []time.Duration
	for _, e := range spans {
		if e.kind != spanEpoch {
			continue
		}
		cs := children[key{e.round, e.epoch}]
		sort.Slice(cs, func(i, j int) bool { return cs[i].start < cs[j].start })
		var covered time.Duration
		cur, curEnd := time.Duration(-1), time.Duration(-1)
		for _, c := range cs {
			lo, hi := max(c.start, e.start), min(c.end, e.end)
			if hi <= lo {
				continue
			}
			if lo > curEnd {
				if curEnd > cur {
					covered += curEnd - cur
				}
				cur, curEnd = lo, hi
			} else if hi > curEnd {
				curEnd = hi
			}
		}
		if curEnd > cur {
			covered += curEnd - cur
		}
		out = append(out, e.end-e.start-covered)
	}
	return out
}

// drainWaits returns, per epoch promoted to tier, the time from its L1 seal
// (EndEpoch return) to the start of its Store on that tier.
func drainWaits(spans []span, tier string) []time.Duration {
	type key struct {
		round int
		epoch uint64
	}
	sealed := map[key]time.Duration{}
	for _, s := range spans {
		if s.kind == spanEndEpoch {
			sealed[key{s.round, s.epoch}] = s.end
		}
	}
	var out []time.Duration
	for _, s := range spans {
		if s.kind == spanPromote && s.tier == tier {
			if at, ok := sealed[key{s.round, s.epoch}]; ok {
				out = append(out, s.start-at)
			}
		}
	}
	return out
}

// quantile returns the q-quantile (nearest rank) of ds, or 0 when empty.
func quantile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(math.Ceil(q * float64(len(s))))
	return s[min(max(i, 1), len(s))-1]
}

func sum(ds []time.Duration) time.Duration {
	var t time.Duration
	for _, d := range ds {
		t += d
	}
	return t
}

func maxOf(ds []time.Duration) time.Duration {
	var m time.Duration
	for _, d := range ds {
		m = max(m, d)
	}
	return m
}

func ms(d time.Duration) float64   { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64   { return float64(d) / float64(time.Microsecond) }
func secs(d time.Duration) float64 { return d.Seconds() }
