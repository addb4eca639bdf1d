package ckpt

import (
	"encoding/binary"
	"fmt"
	"io"
	"strings"
	"sync/atomic"

	"repro/internal/compress"
	"repro/internal/sim"
	"repro/internal/util"
)

// Image is a restored memory image: the newest committed content of every
// page that was ever checkpointed. Pages absent from the map were never
// dirtied before the last sealed epoch and therefore hold their initial
// (zero) content, matching a freshly allocated protected region.
type Image struct {
	PageSize int
	Epoch    uint64 // newest sealed epoch folded into the image
	Pages    map[int][]byte
	// SegmentsRead counts the segments the restore actually parsed; with a
	// compacted chain it is bounded by the compaction depth rather than the
	// run length.
	SegmentsRead int
}

// sharedZero returns a read-only all-zero slice of at least n bytes,
// grown (and republished) on demand. Callers must never write to it.
var sharedZero atomic.Pointer[[]byte]

func zeroPage(n int) []byte {
	if p := sharedZero.Load(); p != nil && len(*p) >= n {
		return (*p)[:n:n]
	}
	b := make([]byte, n)
	sharedZero.Store(&b)
	return b
}

// PageOr returns the image content of page, or a shared read-only zero
// page if it was never checkpointed. The zero page is shared by every
// caller and every Image: treat the returned slice as immutable (copy it
// before writing). Misses are allocation-free, so sweeping a sparse image
// page by page costs nothing beyond the map lookups.
func (im *Image) PageOr(page int) []byte {
	if d, ok := im.Pages[page]; ok {
		return d
	}
	return zeroPage(im.PageSize)
}

// EpochInfo summarizes a sealed epoch or base for inspection tools.
type EpochInfo struct {
	Manifest
	SegmentOK bool   // segment parsed and all hashes verified
	Err       string // parse/verification failure, if any
	// Superseded marks entries covered by a newer committed base: they are
	// ignored by restore and reclaimable by garbage collection.
	Superseded bool
}

// sealedEpochs returns the epoch manifests present on fs, sorted by epoch.
// A corrupt manifest newer than every decodable one is the torn tail of a
// mid-crash write — the epoch never sealed, so it is skipped; a corrupt
// manifest older than an intact one was provably sealed once, which is
// interior damage and an error (scrub repairs it). A chain whose manifests
// disagree on page size is rejected, naming the epoch that diverged —
// folding mixed-granularity epochs would silently misplace every page of
// the divergent epochs.
func sealedEpochs(fs FS) ([]Manifest, error) {
	names, err := fs.List()
	if err != nil {
		return nil, fmt.Errorf("ckpt: list: %w", err)
	}
	var ms []Manifest
	var bad []ChainIssue
	for _, n := range names {
		if !strings.HasPrefix(n, "epoch-") || !strings.HasSuffix(n, ".json") {
			continue
		}
		epoch, isBase, isChain := parseManifestEpoch(n)
		if !isChain || isBase {
			continue
		}
		m, err := decodeManifestFile(fs, n)
		if err != nil {
			bad = append(bad, ChainIssue{Name: n, Epoch: epoch, Err: err})
			continue
		}
		ms = append(ms, m)
	}
	sortManifests(ms)
	for _, b := range bad {
		if len(ms) == 0 || b.Epoch > ms[len(ms)-1].Epoch {
			continue // torn tail: never sealed
		}
		return nil, fmt.Errorf("ckpt: manifest %s corrupt (interior epoch %d; run scrub to repair it from a redundant tier): %w",
			b.Name, b.Epoch, b.Err)
	}
	for _, m := range ms {
		if m.PageSize != ms[0].PageSize {
			return nil, fmt.Errorf("ckpt: epoch %d has page size %d, chain uses %d: mixed-granularity chain is not restorable",
				m.Epoch, m.PageSize, ms[0].PageSize)
		}
	}
	return ms, nil
}

// readSegment parses one manifest's segment (epoch or base) and calls visit
// for every record.
func readSegment(fs FS, m Manifest, visit func(page int, data []byte)) error {
	if m.PageCount == 0 {
		return nil
	}
	f, err := fs.Open(segmentFile(m))
	if err != nil {
		return fmt.Errorf("ckpt: epoch %d sealed but segment missing: %w", m.Epoch, err)
	}
	defer f.Close()
	var hdr [20]byte
	// With a codec, the encoded payload is scratch (only the decoded copy
	// reaches visit), so one recycled buffer serves every record; without
	// one, the payload itself is handed to visit, which may retain it, so
	// it must be freshly allocated per record.
	var scratch []byte
	count := 0
	for {
		_, err := io.ReadFull(f, hdr[:])
		if err == io.EOF {
			break
		}
		if err != nil {
			return fmt.Errorf("ckpt: epoch %d: truncated record header: %w", m.Epoch, err)
		}
		if binary.LittleEndian.Uint32(hdr[0:]) != recordMagic {
			return fmt.Errorf("ckpt: epoch %d: bad record magic", m.Epoch)
		}
		page := int(binary.LittleEndian.Uint32(hdr[4:]))
		size := int(binary.LittleEndian.Uint32(hdr[8:]))
		want := binary.LittleEndian.Uint64(hdr[12:])
		// Without a codec a record payload is exactly one page; compressed
		// payloads vary but may exceed the page size only by the one-byte
		// codec header (the verbatim-fallback encoding). The codec decoder
		// enforces its exact output size below.
		if m.Codec == 0 && size != m.PageSize {
			return fmt.Errorf("ckpt: epoch %d page %d: record size %d != page size %d", m.Epoch, page, size, m.PageSize)
		}
		if size < 0 || size > m.PageSize+1 {
			return fmt.Errorf("ckpt: epoch %d page %d: invalid size %d", m.Epoch, page, size)
		}
		var data []byte
		if m.Codec != 0 {
			if cap(scratch) < size {
				scratch = make([]byte, m.PageSize+1)
			}
			data = scratch[:size]
		} else {
			data = make([]byte, size)
		}
		if _, err := io.ReadFull(f, data); err != nil {
			return fmt.Errorf("ckpt: epoch %d page %d: truncated payload: %w", m.Epoch, page, err)
		}
		if util.Fnv64a(data) != want {
			return fmt.Errorf("ckpt: epoch %d page %d: hash mismatch", m.Epoch, page)
		}
		if m.Codec != 0 {
			decoded, err := compress.Decode(data, m.PageSize)
			if err != nil {
				return fmt.Errorf("ckpt: epoch %d page %d: %w", m.Epoch, page, err)
			}
			data = decoded
		}
		visit(page, data)
		count++
	}
	if count != m.PageCount {
		return fmt.Errorf("ckpt: epoch %d: segment has %d records, manifest says %d", m.Epoch, count, m.PageCount)
	}
	return nil
}

// VisitSegment parses one manifest's segment (epoch or base), verifying
// record integrity and decoding transparently, and calls visit for every
// record. The compactor uses it to fold epoch ranges.
func VisitSegment(fs FS, m Manifest, visit func(page int, data []byte)) error {
	return readSegment(fs, m, visit)
}

// Restore folds the chain (newest committed base, then every live sealed
// epoch, oldest to newest, newest content wins) into a memory image.
// Unsealed segments — a checkpoint or compaction interrupted by a crash —
// are ignored, which is exactly the recovery semantics of asynchronous
// checkpointing: the restart point is the last *completed* checkpoint. With
// a compacted chain the fold reads at most depth segments (the base plus
// the epochs after it) instead of the whole history. Segments are parsed,
// hash-verified and decoded by sim.DefaultWorkers() concurrent readers and
// folded in chain order, so the first corrupt entry in chain order is the
// error returned.
func Restore(fs FS) (*Image, error) { return restore(fs, 0) }

// restore is Restore with an explicit reader count (0 = default).
func restore(fs FS, workers int) (*Image, error) {
	ch, err := LoadChain(fs)
	if err != nil {
		return nil, err
	}
	if ch.Base == nil && len(ch.Epochs) == 0 {
		return nil, fmt.Errorf("ckpt: no sealed epochs to restore from")
	}
	entries := make([]Manifest, 0, 1+len(ch.Epochs))
	if ch.Base != nil {
		entries = append(entries, *ch.Base)
	}
	entries = append(entries, ch.Epochs...)

	type segment struct {
		pages map[int][]byte
		err   error
	}
	im := &Image{PageSize: ch.PageSize, Pages: map[int][]byte{}}
	sim.Ordered(sim.NewRealEnv(), "restore", len(entries), workers, func(i int) segment {
		pages := make(map[int][]byte, entries[i].PageCount)
		err := readSegment(fs, entries[i], func(page int, data []byte) { pages[page] = data })
		return segment{pages, err}
	}, func(i int, seg segment) bool {
		if err = seg.err; err != nil {
			return false
		}
		m := entries[i]
		if m.PageCount > 0 {
			im.SegmentsRead++
		}
		for page, data := range seg.pages {
			im.Pages[page] = data
		}
		if m.Base != nil {
			im.Epoch = m.Base.To
		} else {
			im.Epoch = m.Epoch
		}
		return true
	})
	if err != nil {
		return nil, err
	}
	return im, nil
}

// ListSealed returns the manifests of all sealed epochs on fs, sorted by
// epoch. Multi-level tier drains use it to enumerate what a tier holds.
// Epochs already folded into a base (and garbage-collected) are absent.
func ListSealed(fs FS) ([]Manifest, error) { return sealedEpochs(fs) }

// ReadManifest returns the manifest of one sealed epoch, or an error when
// the epoch is not sealed on fs.
func ReadManifest(fs FS, epoch uint64) (Manifest, error) {
	m, err := decodeManifestFile(fs, manifestName(epoch))
	if err != nil {
		return Manifest{}, fmt.Errorf("ckpt: epoch %d not sealed: %w", epoch, err)
	}
	return m, nil
}

// EpochPages reads one sealed epoch back in full, verifying record
// integrity, and returns its manifest plus a page→content map of its
// *physical* records (deduplicated pages are listed in the manifest's Refs
// but carry no data — the content they reference is already in the chain).
// The multi-level drainer uses it to promote a sealed epoch from the fast
// tier to slower, more resilient tiers.
func EpochPages(fs FS, epoch uint64) (Manifest, map[int][]byte, error) {
	m, err := ReadManifest(fs, epoch)
	if err != nil {
		return Manifest{}, nil, err
	}
	pages := make(map[int][]byte, m.PageCount)
	if err := readSegment(fs, m, func(page int, data []byte) {
		pages[page] = data
	}); err != nil {
		return Manifest{}, nil, err
	}
	return m, pages, nil
}

// LastSealedEpoch returns the newest sealed epoch number — through live
// epochs or a committed base — or ok=false when the repository holds no
// sealed state. Restarted runtimes use it to continue epoch numbering; it
// must account for bases because a fully compacted chain has no epoch
// files left, and restarting the numbering below the base would corrupt
// the chain.
func LastSealedEpoch(fs FS) (epoch uint64, ok bool, err error) {
	ch, err := LoadChain(fs)
	if err != nil {
		return 0, false, err
	}
	epoch, ok = ch.LastEpoch()
	return epoch, ok, nil
}

// Inspect verifies every chain entry — live epochs, the committed base, and
// not-yet-collected superseded entries — and reports per-entry health; it
// is the engine behind cmd/ckpt-inspect.
func Inspect(fs FS) ([]EpochInfo, error) {
	ch, err := LoadChain(fs)
	if err != nil {
		return nil, err
	}
	var infos []EpochInfo
	add := func(m Manifest, superseded bool) {
		info := EpochInfo{Manifest: m, SegmentOK: true, Superseded: superseded}
		if err := readSegment(fs, m, func(int, []byte) {}); err != nil {
			info.SegmentOK = false
			info.Err = err.Error()
		}
		infos = append(infos, info)
	}
	for _, m := range ch.StaleBases {
		add(m, true)
	}
	for _, m := range ch.Superseded {
		add(m, true)
	}
	if ch.Base != nil {
		add(*ch.Base, false)
	}
	for _, m := range ch.Epochs {
		add(m, false)
	}
	return infos, nil
}
