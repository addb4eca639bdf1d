package obs

import (
	"sort"
	"sync/atomic"
	"time"
)

// Stage names one step of the checkpoint pipeline in the trace journal,
// covering the full epoch lifecycle: fault → COW → select → compress →
// write → seal → drain → promote → compact (plus wait, dedup and
// restore, which the pipeline emits on the corresponding paths).
type Stage uint8

const (
	// StageFault: a first write trapped by the page handler
	// (value = service latency ns).
	StageFault Stage = iota
	// StageCow: the fault was absorbed by a copy-on-write slot
	// (value = COW slots in use after the grab).
	StageCow
	// StageWait: the fault blocked on an in-flight page
	// (value = blocked ns).
	StageWait
	// StageCheckpoint: Checkpoint() rotated an epoch
	// (value = app-blocked ns inside the call).
	StageCheckpoint
	// StageSelect: the adaptive flush-order selector was built
	// (value = build ns).
	StageSelect
	// StageCompress: a page payload was codec-encoded
	// (value = encoded bytes).
	StageCompress
	// StageDedup: a page write was elided by content-addressed dedup
	// (value = raw bytes saved).
	StageDedup
	// StageWrite: a page was committed to the storage backend
	// (value = write ns).
	StageWrite
	// StageSeal: an epoch was sealed by EndEpoch (value = seal ns).
	StageSeal
	// StageDrain: a sealed epoch entered a tier's drain queue
	// (value = queue depth after enqueue).
	StageDrain
	// StagePromote: an epoch was stored on a lower tier
	// (value = promotion ns).
	StagePromote
	// StagePromoteFail: a tier exhausted its retry budget for an epoch.
	StagePromoteFail
	// StageCompact: a compaction pass committed a base
	// (value = bytes reclaimed).
	StageCompact
	// StageRestore: an epoch was read back during restore
	// (value = pages restored).
	StageRestore
	// StageScrub: a scrub pass verified the chain
	// (value = damaged entries found).
	StageScrub
	// StageRepair: a damaged chain entry was rebuilt from a lower tier
	// (value = pages rewritten; tier = the tier that supplied them).
	StageRepair
)

// String implements fmt.Stringer.
func (s Stage) String() string {
	switch s {
	case StageFault:
		return "fault"
	case StageCow:
		return "cow"
	case StageWait:
		return "wait"
	case StageCheckpoint:
		return "checkpoint"
	case StageSelect:
		return "select"
	case StageCompress:
		return "compress"
	case StageDedup:
		return "dedup"
	case StageWrite:
		return "write"
	case StageSeal:
		return "seal"
	case StageDrain:
		return "drain"
	case StagePromote:
		return "promote"
	case StagePromoteFail:
		return "promote-fail"
	case StageCompact:
		return "compact"
	case StageRestore:
		return "restore"
	case StageScrub:
		return "scrub"
	case StageRepair:
		return "repair"
	default:
		return "unknown"
	}
}

// Event is one traced pipeline step. At is the Metrics' time source at
// record time — wall-clock-relative for real runs, virtual time for
// simulations — so traces order identically in both worlds. Page is -1
// for events without a page, Tier is 0 for events outside the
// hierarchy (lower tiers are 1-based levels).
type Event struct {
	Seq   uint64        `json:"seq"`
	At    time.Duration `json:"at_ns"`
	Stage Stage         `json:"-"`
	Epoch uint64        `json:"epoch"`
	Page  int32         `json:"page"`
	Tier  int8          `json:"tier"`
	Value int64         `json:"value"`
}

// journalSlot is one ring entry. Every word is accessed atomically so
// record and Snapshot never race: seq is the slot's stamp (see claimSlot),
// and readers validate it before and after reading the payload words.
type journalSlot struct {
	seq    atomic.Uint64
	at     atomic.Int64
	epoch  atomic.Uint64
	value  atomic.Int64
	packed atomic.Uint64 // page(32) | tier(8) | stage(8)
}

// A ring slot's stamp names the event in it: 0 while empty, stampOf(n)
// once event n is complete, stampOf(n)|slotWriting while the writer of
// event n fills it. Stamps of one slot only ever grow.
const slotWriting = 1

func stampOf(seq uint64) uint64 { return (seq + 1) << 1 }

// claimSlot takes a ring slot for the writer of event seq. The fetch-add
// hands every writer its own seq, but once writers lap the ring, events
// seq and seq+Cap share a slot; each writer must own the slot while it
// fills the payload words, or a reader can see one writer's stamp over the
// other's fields. The writer moves the stamp by CAS from a published,
// older event to its own seq marked writing. A writer that finds a newer
// event, or another writer mid-write, drops its event rather than wait:
// the ring is a flight recorder and a lapped event is due to be
// overwritten anyway.
func claimSlot(stamp *atomic.Uint64, seq uint64) bool {
	claim := stampOf(seq) | slotWriting
	for {
		old := stamp.Load()
		if old&slotWriting != 0 || old >= claim {
			return false
		}
		if stamp.CompareAndSwap(old, claim) {
			return true
		}
	}
}

// stampSeq is the sequence number of the event a stamp names.
func stampSeq(st uint64) uint64 { return st>>1 - 1 }

func packEvent(stage Stage, page int32, tier int8) uint64 {
	return uint64(uint32(page))<<32 | uint64(uint8(tier))<<8 | uint64(stage)
}

func unpackEvent(p uint64) (stage Stage, page int32, tier int8) {
	return Stage(p & 0xff), int32(uint32(p >> 32)), int8(uint8(p >> 8))
}

// Journal is a bounded, lock-free ring buffer of pipeline events. Writers
// take a sequence number with one atomic fetch-add, claim its slot by CAS
// on the slot's stamp and publish by stamping the slot complete; when the
// ring wraps, the oldest events are overwritten — the journal is a flight
// recorder, not a log. Snapshot never blocks writers and
// writers never block each other, so tracing is safe on every hot path
// and a scrape can never stall a Checkpoint.
type Journal struct {
	mask  uint64
	next  atomic.Uint64
	slots []journalSlot
}

// DefaultJournalDepth is the default ring capacity.
const DefaultJournalDepth = 4096

// NewJournal returns a journal holding the most recent `depth` events
// (rounded up to a power of two, minimum 16).
func NewJournal(depth int) *Journal {
	n := 16
	for n < depth {
		n <<= 1
	}
	return &Journal{mask: uint64(n - 1), slots: make([]journalSlot, n)}
}

// Cap returns the ring capacity.
func (j *Journal) Cap() int { return len(j.slots) }

// record appends one event. Allocation-free: one fetch-add, one CAS
// claim and five atomic stores.
//
//aickpt:hotpath
func (j *Journal) record(at time.Duration, stage Stage, epoch uint64, page int32, tier int8, value int64) {
	seq := j.next.Add(1) - 1
	s := &j.slots[seq&j.mask]
	if !claimSlot(&s.seq, seq) {
		return
	}
	s.at.Store(int64(at))
	s.epoch.Store(epoch)
	s.value.Store(value)
	s.packed.Store(packEvent(stage, page, tier))
	s.seq.Store(stampOf(seq)) // publish
}

// Len returns the number of events currently retained (at most Cap).
func (j *Journal) Len() int {
	n := j.next.Load()
	if n > uint64(len(j.slots)) {
		return len(j.slots)
	}
	return int(n)
}

// Snapshot returns the retained events ordered by sequence number. It
// takes no locks: slots caught mid-write (or overwritten while being
// read) are skipped, so a snapshot under heavy tracing is a consistent
// sample rather than a stall. An event is returned only if its slot's
// stamp was the same complete event before and after its words were
// read; as stamps only grow, no writer touched the words in between.
func (j *Journal) Snapshot() []Event {
	out := make([]Event, 0, len(j.slots))
	for i := range j.slots {
		s := &j.slots[i]
		for attempt := 0; attempt < 2; attempt++ {
			st := s.seq.Load()
			if st == 0 {
				break
			}
			if st&slotWriting != 0 {
				continue // mid-write; retry once
			}
			at := s.at.Load()
			epoch := s.epoch.Load()
			value := s.value.Load()
			packed := s.packed.Load()
			if s.seq.Load() != st {
				continue // overwritten mid-read; retry once
			}
			stage, page, tier := unpackEvent(packed)
			out = append(out, Event{
				Seq: stampSeq(st), At: time.Duration(at), Stage: stage,
				Epoch: epoch, Page: page, Tier: tier, Value: value,
			})
			break
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Seq < out[b].Seq })
	return out
}
