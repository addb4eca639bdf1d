package obs

import (
	"sort"
	"sync/atomic"
	"time"
)

// SpanKind names one stage of an epoch's lifecycle in the span log. A
// span is an interval [Start, End) on the Metrics' time source, where
// the point-in-time trace Journal records instants; together they form
// the flight recorder: the journal answers "what happened", the span
// log answers "what bounded the epoch's latency".
type SpanKind uint8

const (
	// SpanCommit: the epoch's local commit phase, from rotation until
	// the epoch is sealed on the first storage level. The seal span is
	// its final child.
	SpanCommit SpanKind = iota
	// SpanSeal: EndEpoch on the first storage level (manifest write,
	// fsync, drain-queue handoff).
	SpanSeal
	// SpanDrainWait: a sealed epoch sitting in a lower tier's drain
	// queue before the drainer picked it up.
	SpanDrainWait
	// SpanPromote: the store of a sealed epoch onto a lower tier.
	SpanPromote
	// SpanCompact: a compaction pass that folded the chain into a new
	// base (Epoch = the base's upper epoch).
	SpanCompact
	// SpanRestore: an epoch read back during tier-aware restore (Tier =
	// the level that served it: 0 local, 1.. lower tiers).
	SpanRestore
)

// String implements fmt.Stringer.
func (k SpanKind) String() string {
	switch k {
	case SpanCommit:
		return "commit"
	case SpanSeal:
		return "seal"
	case SpanDrainWait:
		return "drain-wait"
	case SpanPromote:
		return "promote"
	case SpanCompact:
		return "compact"
	case SpanRestore:
		return "restore"
	default:
		return "unknown"
	}
}

// Span is one recorded lifecycle interval. Start and End are readings of
// the Metrics' time source — wall-clock-relative for real runs, virtual
// time for simulations — so span trees are deterministic under the
// simulation kernel. Tier is 0 for the local level, 1-based for lower
// tiers.
type Span struct {
	Seq   uint64        `json:"seq"`
	Kind  SpanKind      `json:"-"`
	Epoch uint64        `json:"epoch"`
	Tier  int8          `json:"tier"`
	Start time.Duration `json:"start_ns"`
	End   time.Duration `json:"end_ns"`
}

// Dur returns the span length.
func (s Span) Dur() time.Duration { return s.End - s.Start }

// spanSlot is one ring entry, claimed and stamped exactly like
// journalSlot (claimSlot), and readers validate the stamp around the
// payload loads.
type spanSlot struct {
	seq    atomic.Uint64
	start  atomic.Int64
	end    atomic.Int64
	epoch  atomic.Uint64
	packed atomic.Uint64 // tier(8) | kind(8)
}

func packSpan(kind SpanKind, tier int8) uint64 {
	return uint64(uint8(tier))<<8 | uint64(kind)
}

func unpackSpan(p uint64) (kind SpanKind, tier int8) {
	return SpanKind(p & 0xff), int8(uint8(p >> 8))
}

// SpanLog is a bounded, lock-free ring of lifecycle spans, the interval
// counterpart of the trace Journal: writers take a sequence number with
// one fetch-add and claim and stamp its slot as Journal writers do,
// Snapshot never blocks writers,
// and when the ring wraps the oldest epochs fall off — it is a flight
// recorder, not a log.
type SpanLog struct {
	mask  uint64
	next  atomic.Uint64
	slots []spanSlot
}

// DefaultSpanDepth is the default span-ring capacity. Spans are recorded
// per epoch and per tier (not per page), so a modest ring covers
// hundreds of epochs.
const DefaultSpanDepth = 1024

// NewSpanLog returns a span log holding the most recent `depth` spans
// (rounded up to a power of two, minimum 16).
func NewSpanLog(depth int) *SpanLog {
	n := 16
	for n < depth {
		n <<= 1
	}
	return &SpanLog{mask: uint64(n - 1), slots: make([]spanSlot, n)}
}

// Cap returns the ring capacity.
func (l *SpanLog) Cap() int { return len(l.slots) }

// record appends one span. Allocation-free: one fetch-add, one CAS claim
// and five atomic stores.
func (l *SpanLog) record(kind SpanKind, epoch uint64, tier int8, start, end time.Duration) {
	seq := l.next.Add(1) - 1
	s := &l.slots[seq&l.mask]
	if !claimSlot(&s.seq, seq) {
		return
	}
	s.start.Store(int64(start))
	s.end.Store(int64(end))
	s.epoch.Store(epoch)
	s.packed.Store(packSpan(kind, tier))
	s.seq.Store(stampOf(seq)) // publish
}

// Snapshot returns the retained spans ordered by sequence number,
// skipping slots caught mid-write, with the same non-blocking guarantees
// as Journal.Snapshot.
func (l *SpanLog) Snapshot() []Span {
	out := make([]Span, 0, len(l.slots))
	for i := range l.slots {
		s := &l.slots[i]
		for attempt := 0; attempt < 2; attempt++ {
			st := s.seq.Load()
			if st == 0 {
				break
			}
			if st&slotWriting != 0 {
				continue // mid-write; retry once
			}
			start := s.start.Load()
			end := s.end.Load()
			epoch := s.epoch.Load()
			packed := s.packed.Load()
			if s.seq.Load() != st {
				continue // overwritten mid-read; retry once
			}
			kind, tier := unpackSpan(packed)
			out = append(out, Span{
				Seq: stampSeq(st), Kind: kind, Epoch: epoch, Tier: tier,
				Start: time.Duration(start), End: time.Duration(end),
			})
			break
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Seq < out[b].Seq })
	return out
}

// Span records one lifecycle span with caller-supplied timestamps —
// instrumentation sites reuse the clock reads they already paid for a
// latency observation, per the reuse-the-clock-read discipline. It is a
// no-op on a nil receiver or without a span log, so call sites need no
// extra guard.
func (m *Metrics) Span(kind SpanKind, epoch uint64, tier int8, start, end time.Duration) {
	if m == nil || m.Spans == nil {
		return
	}
	m.Spans.record(kind, epoch, tier, start, end)
}
