package ckpt

import (
	"bytes"
	"io"
	"strings"
	"testing"

	"repro/internal/compress"
	"repro/internal/util"
)

// buildTestChain seals epochs 1..epochs with overlapping dirty sets —
// repeated content (dedup refs when enabled), page overwrites (newest-wins
// folding), and fresh pages — returning the FS holding the chain and the
// newest content written to every page, the oracle a restore must match.
func buildTestChain(t *testing.T, epochs, pageSize int, codec compress.Codec, dedup bool) (*MemFS, map[int][]byte) {
	t.Helper()
	fs := &MemFS{}
	r := NewRepository(fs, pageSize)
	r.SetCodec(codec)
	r.SetDedup(dedup)
	written := map[int][]byte{}
	for e := uint64(1); e <= uint64(epochs); e++ {
		for p := 0; p < 8; p++ {
			data := make([]byte, pageSize)
			switch {
			case p%3 == 0:
				// Same content every epoch: dedup elides it as a ref.
				for i := range data {
					data[i] = byte(p + 1)
				}
			default:
				for i := range data {
					data[i] = byte(int(e)*31 + p + i)
				}
			}
			page := int(e)%4*8 + p
			if err := r.WritePage(e, page, data, pageSize); err != nil {
				t.Fatal(err)
			}
			written[page] = data
		}
		if err := r.EndEpoch(e); err != nil {
			t.Fatal(err)
		}
	}
	return fs, written
}

// compactPrefix folds epochs [1, to] into a committed base so the chain
// exercises the base-first fold order.
func compactPrefix(t *testing.T, fs FS, to uint64, pageSize int, codec uint8) {
	t.Helper()
	ch, err := LoadChain(fs)
	if err != nil {
		t.Fatal(err)
	}
	pages := map[int][]byte{}
	for _, m := range ch.Epochs {
		if m.Epoch > to {
			break
		}
		if err := VisitSegment(fs, m, func(page int, data []byte) {
			pages[page] = append([]byte(nil), data...)
		}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := WriteBase(fs, 1, to, pageSize, pages, codec); err != nil {
		t.Fatal(err)
	}
	ch, err = LoadChain(fs)
	if err != nil {
		t.Fatal(err)
	}
	GCSuperseded(fs, ch)
}

// Restore at every reader count must reproduce exactly the content the
// chain was written with, across dedup refs, compacted bases and codec
// on/off.
func TestRestoreParallelBitIdentity(t *testing.T) {
	const pageSize, epochs = 128, 12
	for _, tc := range []struct {
		name  string
		codec compress.Codec
		dedup bool
		base  bool
	}{
		{"plain", compress.None, false, false},
		{"dedup", compress.None, true, false},
		{"flate", compress.Flate, false, false},
		{"flate-dedup-base", compress.Flate, true, true},
		{"dedup-base", compress.None, true, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fs, written := buildTestChain(t, epochs, pageSize, tc.codec, tc.dedup)
			segments := epochs
			if tc.base {
				compactPrefix(t, fs, 6, pageSize, uint8(tc.codec))
				segments = 1 + epochs - 6
			}
			for workers := 1; workers <= 8; workers++ {
				got, err := restore(fs, workers)
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				if got.Epoch != epochs || got.SegmentsRead != segments {
					t.Fatalf("workers=%d: epoch %d, %d segments read; want %d, %d",
						workers, got.Epoch, got.SegmentsRead, epochs, segments)
				}
				if len(got.Pages) != len(written) {
					t.Fatalf("workers=%d: %d pages restored, %d written", workers, len(got.Pages), len(written))
				}
				for p, want := range written {
					if !bytes.Equal(got.Pages[p], want) {
						t.Fatalf("workers=%d: page %d differs from the content written", workers, p)
					}
				}
			}
		})
	}
}

// corruptSegment flips one payload byte of epoch's segment.
func corruptSegment(t *testing.T, fs *MemFS, epoch uint64) {
	t.Helper()
	name := segmentName(epoch)
	f, err := fs.Open(name)
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(f)
	if err != nil {
		t.Fatal(err)
	}
	f.Close()
	data[30] ^= 0xff
	w, err := fs.Create(name)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

// With two corrupt interior segments, every reader count must surface the
// error of the first one in chain order — even when a reader finishes the
// later one first.
func TestRestoreParallelErrorMatchesSerial(t *testing.T) {
	const pageSize = 128
	fs, _ := buildTestChain(t, 8, pageSize, compress.None, false)
	corruptSegment(t, fs, 4)
	corruptSegment(t, fs, 6)
	m, err := ReadManifest(fs, 4)
	if err != nil {
		t.Fatal(err)
	}
	want := VisitSegment(fs, m, func(int, []byte) {})
	if want == nil || !strings.Contains(want.Error(), "epoch 4 ") {
		t.Fatalf("corrupting epoch 4 produced %v", want)
	}
	for workers := 1; workers <= 8; workers++ {
		_, err := restore(fs, workers)
		if err == nil {
			t.Fatalf("workers=%d: restore of corrupt chain succeeded", workers)
		}
		if err.Error() != want.Error() {
			t.Fatalf("workers=%d: error %q, want the first corrupt entry's %q", workers, err, want)
		}
	}
}

// PageOr misses must return the shared zero page without allocating.
func TestAllocGatePageOrMiss(t *testing.T) {
	if util.RaceEnabled {
		t.Skip("race instrumentation allocates; gate runs in non-race CI step")
	}
	im := &Image{PageSize: 4096, Pages: map[int][]byte{}}
	im.PageOr(1) // warm the shared zero page
	allocs := testing.AllocsPerRun(100, func() {
		if len(im.PageOr(2)) != 4096 {
			t.Fatal("short zero page")
		}
	})
	if allocs != 0 {
		t.Fatalf("PageOr miss allocates %v times per call, want 0", allocs)
	}
}

// The zero page is shared: both misses see the same backing array and it
// must stay all-zero.
func TestPageOrSharedZero(t *testing.T) {
	im := &Image{PageSize: 64, Pages: map[int][]byte{}}
	a := im.PageOr(1)
	b := im.PageOr(2)
	if &a[0] != &b[0] {
		t.Error("PageOr misses should share one zero page")
	}
	for i, v := range a {
		if v != 0 {
			t.Fatalf("zero page dirty at %d: %d", i, v)
		}
	}
}
