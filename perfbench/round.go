package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"repro"
	"repro/internal/ckpt"
	"repro/internal/faultfs"
	"repro/internal/multilevel"
)

type roundKind int

const (
	untraced roundKind = iota
	traced
	baseline // the same application loop with no Checkpoint calls
	warmup   // an untraced round that is checked but not measured
)

// round is everything one run of a workload's application measures.
type round struct {
	kind     roundKind
	setup    time.Duration
	appRun   time.Duration
	restore  time.Duration
	steps    []time.Duration
	durable  []time.Duration // Checkpoint() call → EndEpoch return on L1
	allTiers []time.Duration // Checkpoint() call → last lower-tier Store return

	storedBytes int64
	attempted   int
	failed      int
	problems    []string

	counts counts

	// Layer counters read through public accessors.
	stats        []aickpt.EpochStats
	dedup        ckpt.DedupStats
	rawBytes     uint64
	codedBytes   uint64
	passes       []passResult // background passes and the closing ones
	restoreCall  time.Duration
	segmentsRead int
	tierSources  map[string]int

	peakRSS      float64 // MiB, VmHWM at the end of the round
	peakResetErr error   // why VmHWM could not be reset before the round
	sources      string  // tiered: restore steps and tier manifests, normalised
}

// counts are the numbers that do not depend on timing: they repeat exactly
// for one seed, in every round and every run.
type counts struct {
	DirtyBytes    int64  `json:"dirty_bytes"`
	EpochPages    []int  `json:"pages_committed_per_epoch"`
	DedupHits     int    `json:"dedup_hits"`
	RestorePages  int    `json:"restore_pages"`
	RestorePageID uint64 `json:"restore_page_set_fnv"`
}

// plant names a fault the self-test plants before the closing restore.
type plant string

const (
	plantNone     plant = ""
	plantTruncate plant = "truncate-segment" // cut the newest L1 segment in half
)

// runRound runs one complete lifecycle in dir: set-up, the fixed
// application run, the closing drain and compaction pass, and the
// verified restore.
func runRound(w *workload, kind roundKind, seed uint64, dir string, clk *clock, tr *tracer, fault plant) (*round, error) {
	if kind != traced {
		tr = nil
	}
	r := &round{kind: kind}
	l1, pfs := filepath.Join(dir, "l1"), filepath.Join(dir, "pfs")

	t0 := clk.now()
	var st *stack
	var err error
	if w.tiered {
		st, err = newTieredStack(clk, tr, l1, pfs)
	} else {
		st, err = newFlatStack(clk, tr, l1, w.codec, w.policy)
	}
	if err != nil {
		return nil, err
	}
	rt, err := aickpt.New(aickpt.Options{
		PageSize:      pageSize,
		CowBuffer:     int64(w.cow * pageSize),
		CommitWorkers: defaultCommitWorkers(),
		Store:         st,
	})
	if err != nil {
		return nil, err
	}
	st.startCompactor()
	a := newApp(w, seed, clk, tr)
	a.setUp(rt)
	r.setup = clk.now() - t0
	r.steps = a.runSteps(kind != baseline)
	r.appRun = sum(r.steps)

	closeErr := rt.Close()
	drainErr := st.close()
	final := st.compactor.pass(false)
	r.attempted = int(a.epoch) // every checkpoint, plus the closing restore below
	sealErrs := st.errs()
	r.failed += len(sealErrs)
	for _, e := range sealErrs {
		r.problems = append(r.problems, e.Error())
	}
	for _, e := range []error{closeErr, drainErr, final.err} {
		if e != nil && len(sealErrs) == 0 {
			r.failed++
			r.problems = append(r.problems, e.Error())
		}
	}
	if tr != nil {
		for e := uint64(1); e <= a.epoch; e++ {
			if end, ok := st.sealedAt(e); ok {
				tr.span(spanEpoch, e, a.ckptStart[e], end)
			}
		}
	}
	for e := uint64(2); e <= a.epoch; e++ {
		if end, ok := st.sealedAt(e); ok {
			r.durable = append(r.durable, end-a.ckptStart[e])
		}
		if end, ok := st.storedAt(e); ok {
			r.allTiers = append(r.allTiers, end-a.ckptStart[e])
		}
	}
	r.stats = rt.Stats()
	for _, s := range r.stats {
		r.counts.DirtyBytes += s.BytesCommitted
		r.counts.EpochPages = append(r.counts.EpochPages, s.PagesCommitted)
	}
	if st.repo != nil {
		r.dedup = st.repo.DedupStats()
	} else {
		r.dedup = st.hier.Local().DedupStats()
	}
	r.counts.DedupHits = r.dedup.PagesDeduped
	m := rt.Metrics()
	r.rawBytes = m.Counters["aickpt_ckpt_raw_bytes_total"]
	r.codedBytes = m.Counters["aickpt_ckpt_encoded_bytes_total"]
	if kind == baseline {
		r.passes = st.compactor.results()
		return r, os.RemoveAll(dir)
	}
	if r.storedBytes, err = diskBytes(st.dirs); err != nil {
		return nil, err
	}

	if fault == plantTruncate {
		if err := truncateNewestSegment(l1); err != nil {
			return nil, err
		}
	}
	if w.tiered {
		if err := loseL1AndPeer(r, st, dir); err != nil {
			return nil, err
		}
	}
	restoreStart := clk.now()
	for i := 0; i < w.restores; i++ {
		r.attempted++
		var bad error
		if w.tiered {
			bad = restoreTiers(r, st, a, clk, tr, dir)
		} else {
			bad = restoreFlat(r, w, a, l1, clk, tr)
		}
		if bad != nil {
			r.failed++
			r.problems = append(r.problems, bad.Error())
			break
		}
	}
	r.restore = (clk.now() - restoreStart) / time.Duration(w.restores)
	r.restoreCall /= time.Duration(w.restores)
	if st.compactCfg.Policy.Enabled() {
		// A compacting application ends as before a planned shutdown, with
		// a forced pass (CompactNow): the base alone stays on disk, so the
		// stored bytes do not depend on where the last background fold fell.
		if p := st.compactor.pass(true); p.err != nil {
			r.failed++
			r.problems = append(r.problems, p.err.Error())
		}
		if r.storedBytes, err = diskBytes(st.dirs); err != nil {
			return nil, err
		}
	}
	r.passes = st.compactor.results()
	return r, os.RemoveAll(dir)
}

// restoreFlat restores the chain with aickpt.Restore and checks it against
// the application's state; restart also loads the image into a fresh
// runtime over the same directory, as a restarted process would.
func restoreFlat(r *round, w *workload, a *app, dir string, clk *clock, tr *tracer) error {
	start := clk.now()
	im, err := aickpt.Restore(dir)
	end := clk.now()
	r.restoreCall += end - start
	if tr != nil {
		tr.span(spanRestore, a.epoch, start, end)
	}
	if err != nil {
		return fmt.Errorf("restore: %w", err)
	}
	r.segmentsRead = im.SegmentsRead()
	r.counts.RestorePages, r.counts.RestorePageID = pageSet(im.PageIDs())
	if im.Epoch != a.epoch {
		return fmt.Errorf("restore: image at epoch %d, last checkpoint was epoch %d", im.Epoch, a.epoch)
	}
	if err := verify(a.state, im.Page); err != nil {
		return err
	}
	if !w.reload {
		return nil
	}
	rt, err := aickpt.New(aickpt.Options{
		PageSize:    pageSize,
		CowBuffer:   int64(w.cow * pageSize),
		Dir:         dir,
		Compression: w.codec,
		Compaction:  w.policy,
	})
	if err != nil {
		return fmt.Errorf("restart: %w", err)
	}
	region := rt.MallocProtected(w.pages * pageSize)
	err = rt.LoadImage(im, region)
	if err == nil {
		err = verify(a.state, func(p int) []byte { return region.Bytes()[p*pageSize : (p+1)*pageSize] })
	}
	if cerr := rt.Close(); err == nil && cerr != nil {
		err = fmt.Errorf("restart: close: %w", cerr)
	}
	return err
}

// loseL1AndPeer records where every epoch lives, then wipes L1 and fails
// one peer node, so the closing restores must rebuild from lower tiers.
func loseL1AndPeer(r *round, st *stack, dir string) error {
	manifests, err := json.Marshal(st.hier.Manifests())
	if err != nil {
		return err
	}
	r.sources = strings.ReplaceAll(string(manifests), dir, "<dir>")
	if err := st.hier.Local().Wipe(); err != nil {
		return fmt.Errorf("wipe L1: %w", err)
	}
	st.peer.Nodes()[0].Fail()
	return nil
}

// restoreTiers restores tier-aware with the default loader count, as
// Hierarchy.Restore does, and checks the image.
func restoreTiers(r *round, st *stack, a *app, clk *clock, tr *tracer, dir string) error {
	start := clk.now()
	im, steps, err := st.hier.RestoreWith(multilevel.RestoreOptions{Workers: defaultCommitWorkers()})
	end := clk.now()
	r.restoreCall += end - start
	if tr != nil {
		tr.span(spanRestore, a.epoch, start, end)
	}
	stepsJSON, _ := json.Marshal(steps)
	if !strings.Contains(r.sources, "\n") {
		r.sources += "\n" + strings.ReplaceAll(string(stepsJSON), dir, "<dir>")
	}
	r.tierSources = map[string]int{}
	for _, s := range steps {
		r.tierSources[s.Tier]++
	}
	if err != nil {
		return fmt.Errorf("tier restore: %w", err)
	}
	r.segmentsRead = im.SegmentsRead
	ids := make([]int, 0, len(im.Pages))
	for id := range im.Pages {
		ids = append(ids, id)
	}
	r.counts.RestorePages, r.counts.RestorePageID = pageSet(ids)
	if im.Epoch != a.epoch {
		return fmt.Errorf("tier restore: image at epoch %d, last checkpoint was epoch %d", im.Epoch, a.epoch)
	}
	return verify(a.state, im.PageOr)
}

// verify compares every page of the application's state with the restored
// one and names the first page that differs.
func verify(state []byte, page func(int) []byte) error {
	for p := 0; p < len(state)/pageSize; p++ {
		want := state[p*pageSize : (p+1)*pageSize]
		got := page(p)
		if !bytes.Equal(got, want) {
			off := 0
			for off < len(got) && off < len(want) && got[off] == want[off] {
				off++
			}
			return fmt.Errorf("page %d differs from the state at the last checkpoint (first bad byte at offset %d)", p, off)
		}
	}
	return nil
}

// pageSet returns the size of a page-id set and an order-independent hash
// of it.
func pageSet(ids []int) (int, uint64) {
	sorted := slices.Sorted(slices.Values(ids))
	h := fnv.New64a()
	for _, id := range sorted {
		fmt.Fprintf(h, "%d,", id)
	}
	return len(ids), h.Sum64()
}

// diskBytes sums the sizes of the regular files under dirs.
func diskBytes(dirs []string) (int64, error) {
	var n int64
	for _, d := range dirs {
		err := filepath.WalkDir(d, func(_ string, e fs.DirEntry, err error) error {
			if err != nil || !e.Type().IsRegular() {
				return err
			}
			info, err := e.Info()
			if err != nil {
				return err
			}
			n += info.Size()
			return nil
		})
		if err != nil {
			return 0, err
		}
	}
	return n, nil
}

// truncateNewestSegment cuts the newest sealed segment of a repository in
// half with faultfs, the torn write the correctness gate must catch.
func truncateNewestSegment(dir string) error {
	osfs, err := ckpt.NewOSFS(dir)
	if err != nil {
		return err
	}
	names, err := osfs.List()
	if err != nil {
		return err
	}
	newest := ""
	for _, n := range names {
		if strings.HasSuffix(n, ".pages") && n > newest {
			newest = n
		}
	}
	if newest == "" {
		return errors.New("plant: no segment to truncate")
	}
	data, err := faultfs.ReadFile(osfs, newest)
	if err != nil {
		return err
	}
	return faultfs.TruncateFile(osfs, newest, len(data)/2)
}
