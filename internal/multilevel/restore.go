package multilevel

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/ckpt"
	"repro/internal/obs"
	"repro/internal/sim"
)

// RestoreStep records where one epoch was read from during a tier-aware
// restore.
type RestoreStep struct {
	Epoch uint64
	// Tier is the tier that served the epoch; empty when the epoch was
	// unrecoverable on every tier.
	Tier string
	// Detail explains fallbacks: why faster tiers were skipped, or why the
	// epoch was unrecoverable.
	Detail string
}

// RestoreOptions tunes RestoreWith.
type RestoreOptions struct {
	// Workers is the number of concurrent epoch loaders (0 picks
	// sim.DefaultWorkers()). Each loader probes the tiers fastest-first
	// for one epoch, so tier loads for *different* epochs overlap while
	// the fold stays in strict chain order: the image, the per-epoch
	// RestoreSteps and the SpanRestore sources do not depend on the
	// width; only the wall (or virtual) time does.
	Workers int
}

// epochLoad is one loader's result for one epoch, handed to the folder.
type epochLoad struct {
	ep         *EpochData
	from       string
	level      int8
	fallbacks  []string
	start, end time.Duration
}

// Restore folds the checkpoint chain back into a memory image, reading
// each epoch from the fastest tier that can still deliver it: L1 if its
// files survive, otherwise reconstruction from any k of k+m erasure shards
// on the peers, otherwise the parallel-file-system copy. A committed base
// on the local tier is folded first and the epochs it covers are skipped
// entirely, so a compacted hierarchy restores by reading the base plus the
// few live epochs instead of the whole history; when the base is lost with
// the local tier, restore falls back to the per-epoch copies on the lower
// tiers. Because epochs are incremental, the chain is folded oldest to
// newest and stops at the first epoch no tier can recover — the restart
// point is the last epoch of the intact prefix. The returned steps
// document the per-epoch source.
//
// Restore loads one epoch at a time, so under virtual time the restore
// spans tile the restore interval exactly; RestoreWith overlaps tier loads
// across epochs.
func (h *Hierarchy) Restore() (*ckpt.Image, []RestoreStep, error) {
	return h.RestoreWith(RestoreOptions{Workers: 1})
}

// RestoreWith is Restore with explicit options.
func (h *Hierarchy) RestoreWith(opt RestoreOptions) (*ckpt.Image, []RestoreStep, error) {
	im := &ckpt.Image{PageSize: h.pageSize, Pages: map[int][]byte{}}
	var steps []RestoreStep
	folded := 0

	// Try the local tier's compacted base first.
	var skipTo uint64
	if ch, err := ckpt.LoadChain(h.local.FS()); err == nil && ch.Base != nil {
		bstart := h.obs.Now()
		if pages, err := ckpt.ReadBasePages(h.local.FS(), *ch.Base); err == nil {
			for id, data := range pages {
				im.Pages[id] = data
			}
			skipTo = ch.Base.Base.To
			im.Epoch = skipTo
			im.SegmentsRead++
			folded++
			bend := h.obs.Now()
			if h.obs != nil {
				h.obs.RestoreEpochs.Inc()
				h.obs.RestorePages.Add(uint64(len(pages)))
			}
			h.obs.TraceAt(bend, obs.StageRestore, skipTo, -1, 0, int64(len(pages)))
			h.obs.Span(obs.SpanRestore, skipTo, 0, bstart, bend)
			steps = append(steps, RestoreStep{
				Epoch: skipTo,
				Tier:  h.local.Name(),
				Detail: fmt.Sprintf("base [%d,%d]: %d epochs folded",
					ch.Base.Base.From, ch.Base.Base.To, ch.Base.Base.To-ch.Base.Base.From+1),
			})
		} else {
			steps = append(steps, RestoreStep{
				Epoch:  ch.Base.Base.To,
				Detail: fmt.Sprintf("base [%d,%d] unreadable, falling back to per-epoch tiers: %v", ch.Base.Base.From, ch.Base.Base.To, err),
			})
		}
	}

	tiers := h.Tiers()
	seen := map[uint64]bool{}
	var epochs []uint64
	for _, t := range tiers {
		es, err := t.Epochs()
		if err != nil {
			continue // tier unreadable: its epochs may exist elsewhere
		}
		for _, e := range es {
			if e <= skipTo {
				continue // covered by the folded base
			}
			if !seen[e] {
				seen[e] = true
				epochs = append(epochs, e)
			}
		}
	}
	if len(epochs) == 0 && folded == 0 {
		return nil, nil, fmt.Errorf("multilevel: no sealed epochs on any tier")
	}
	sort.Slice(epochs, func(i, j int) bool { return epochs[i] < epochs[j] })

	sim.Ordered(h.env, "restore", len(epochs), opt.Workers, func(i int) epochLoad {
		return h.loadEpoch(tiers, epochs[i])
	}, func(i int, r epochLoad) bool {
		if !h.foldEpoch(im, epochs[i], r, &steps) {
			return false
		}
		folded++
		return true
	})
	if folded == 0 {
		return nil, steps, fmt.Errorf("multilevel: epoch %d unrecoverable on every tier", epochs[0])
	}
	return im, steps, nil
}

// loadEpoch probes the tiers fastest-first for one epoch, timing the whole
// probe sequence: a failed probe of a faster tier is real restore latency
// and belongs to the epoch's span.
func (h *Hierarchy) loadEpoch(tiers []Tier, epoch uint64) epochLoad {
	r := epochLoad{start: h.obs.Now()}
	for li, t := range tiers {
		loaded, err := t.Load(epoch)
		if err != nil {
			r.fallbacks = append(r.fallbacks, fmt.Sprintf("%s: %v", t.Name(), err))
			continue
		}
		r.ep, r.from, r.level = loaded, t.Name(), int8(li)
		break
	}
	r.end = h.obs.Now()
	return r
}

// foldEpoch merges one loaded epoch into the image and records its step,
// span and counters. Returns false when the epoch was unrecoverable: the
// incremental chain is broken and the restart point is the previous epoch.
func (h *Hierarchy) foldEpoch(im *ckpt.Image, epoch uint64, r epochLoad, steps *[]RestoreStep) bool {
	if r.ep == nil {
		*steps = append(*steps, RestoreStep{Epoch: epoch, Detail: "unrecoverable: " + strings.Join(r.fallbacks, "; ")})
		return false
	}
	for id, data := range r.ep.Pages {
		im.Pages[id] = data
	}
	im.Epoch = epoch
	im.SegmentsRead++
	if h.obs != nil {
		h.obs.RestoreEpochs.Inc()
		h.obs.RestorePages.Add(uint64(len(r.ep.Pages)))
	}
	h.obs.TraceAt(r.end, obs.StageRestore, epoch, -1, r.level, int64(len(r.ep.Pages)))
	// The restore span's tier is the level that finally served the epoch;
	// its duration includes the failed probes of the faster tiers above
	// it — that lost time is real restore latency and belongs to this
	// epoch.
	h.obs.Span(obs.SpanRestore, epoch, r.level, r.start, r.end)
	*steps = append(*steps, RestoreStep{Epoch: epoch, Tier: r.from, Detail: strings.Join(r.fallbacks, "; ")})
	return true
}
