package ckpt

import (
	"bytes"
	"encoding/binary"
	"io"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/compress"
	"repro/internal/obs"
	"repro/internal/util"
)

func page(b byte, size int) []byte {
	p := make([]byte, size)
	for i := range p {
		p[i] = b
	}
	return p
}

func TestRepositoryRoundTrip(t *testing.T) {
	fs := &MemFS{}
	r := NewRepository(fs, 64)
	if err := r.WritePage(1, 0, page(0xaa, 64), 64); err != nil {
		t.Fatal(err)
	}
	if err := r.WritePage(1, 3, page(0xbb, 64), 64); err != nil {
		t.Fatal(err)
	}
	if err := r.EndEpoch(1); err != nil {
		t.Fatal(err)
	}
	im, err := Restore(fs)
	if err != nil {
		t.Fatal(err)
	}
	if im.Epoch != 1 || len(im.Pages) != 2 {
		t.Fatalf("image = %+v", im)
	}
	if !bytes.Equal(im.Pages[0], page(0xaa, 64)) || !bytes.Equal(im.Pages[3], page(0xbb, 64)) {
		t.Error("page content mismatch")
	}
	// Untouched page restores as zeros.
	if !bytes.Equal(im.PageOr(7), make([]byte, 64)) {
		t.Error("PageOr for untouched page should be zero")
	}
}

func TestRepositoryNewestWins(t *testing.T) {
	fs := &MemFS{}
	r := NewRepository(fs, 16)
	mustWrite := func(epoch uint64, pg int, b byte) {
		t.Helper()
		if err := r.WritePage(epoch, pg, page(b, 16), 16); err != nil {
			t.Fatal(err)
		}
	}
	mustWrite(1, 0, 1)
	mustWrite(1, 1, 2)
	if err := r.EndEpoch(1); err != nil {
		t.Fatal(err)
	}
	mustWrite(2, 1, 3) // page 1 updated in epoch 2
	if err := r.EndEpoch(2); err != nil {
		t.Fatal(err)
	}
	im, err := Restore(fs)
	if err != nil {
		t.Fatal(err)
	}
	if im.Epoch != 2 {
		t.Errorf("epoch = %d", im.Epoch)
	}
	if im.Pages[0][0] != 1 || im.Pages[1][0] != 3 {
		t.Errorf("pages = %v %v", im.Pages[0][0], im.Pages[1][0])
	}
}

func TestUnsealedEpochIgnored(t *testing.T) {
	fs := &MemFS{}
	r := NewRepository(fs, 16)
	if err := r.WritePage(1, 0, page(1, 16), 16); err != nil {
		t.Fatal(err)
	}
	if err := r.EndEpoch(1); err != nil {
		t.Fatal(err)
	}
	// Epoch 2 crashes before sealing.
	if err := r.WritePage(2, 0, page(9, 16), 16); err != nil {
		t.Fatal(err)
	}
	r.Abort()
	im, err := Restore(fs)
	if err != nil {
		t.Fatal(err)
	}
	if im.Epoch != 1 || im.Pages[0][0] != 1 {
		t.Errorf("restore picked up unsealed data: %+v", im)
	}
}

func TestEmptyEpochSeals(t *testing.T) {
	fs := &MemFS{}
	r := NewRepository(fs, 16)
	if err := r.EndEpoch(5); err != nil {
		t.Fatal(err)
	}
	im, err := Restore(fs)
	if err != nil {
		t.Fatal(err)
	}
	if im.Epoch != 5 || len(im.Pages) != 0 {
		t.Errorf("image = %+v", im)
	}
}

func TestRestoreDetectsCorruption(t *testing.T) {
	fs := &MemFS{}
	r := NewRepository(fs, 32)
	if err := r.WritePage(1, 0, page(7, 32), 32); err != nil {
		t.Fatal(err)
	}
	if err := r.EndEpoch(1); err != nil {
		t.Fatal(err)
	}
	// Flip a payload byte.
	name := segmentName(1)
	fs.mu.Lock()
	fs.files[name][25] ^= 0xff
	fs.mu.Unlock()
	if _, err := Restore(fs); err == nil {
		t.Fatal("corrupted segment restored without error")
	}
	infos, err := Inspect(fs)
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 1 || infos[0].SegmentOK {
		t.Errorf("Inspect missed corruption: %+v", infos)
	}
}

func TestRestoreDetectsTruncation(t *testing.T) {
	fs := &MemFS{}
	r := NewRepository(fs, 32)
	for i := 0; i < 4; i++ {
		if err := r.WritePage(1, i, page(byte(i), 32), 32); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.EndEpoch(1); err != nil {
		t.Fatal(err)
	}
	fs.Truncate(segmentName(1), 70) // mid-record
	if _, err := Restore(fs); err == nil {
		t.Fatal("truncated segment restored without error")
	}
}

func TestRepositoryRejectsMisuse(t *testing.T) {
	r := NewRepository(&MemFS{}, 16)
	if err := r.WritePage(1, 0, nil, 16); err == nil {
		t.Error("nil data accepted")
	}
	if err := r.WritePage(1, 0, page(1, 16), 8); err == nil {
		t.Error("mismatched size accepted")
	}
	if err := r.WritePage(1, 0, page(1, 16), 16); err != nil {
		t.Fatal(err)
	}
	if err := r.WritePage(2, 0, page(1, 16), 16); err == nil {
		t.Error("cross-epoch write accepted while epoch open")
	}
	if err := r.EndEpoch(9); err == nil {
		t.Error("sealing wrong epoch accepted")
	}
}

func TestRestoreEmptyRepo(t *testing.T) {
	if _, err := Restore(&MemFS{}); err == nil {
		t.Fatal("restore from empty repo should fail")
	}
}

// Property: for arbitrary sequences of epochs writing arbitrary subsets of
// pages, Restore returns exactly the newest write of every page.
func TestRestoreQuickNewestWins(t *testing.T) {
	f := func(seed uint64) bool {
		rng := util.NewRNG(seed)
		const pageSize, nPages = 8, 16
		fs := &MemFS{}
		r := NewRepository(fs, pageSize)
		want := map[int][]byte{}
		epochs := rng.Intn(5) + 1
		for e := 1; e <= epochs; e++ {
			for _, pg := range rng.Perm(nPages)[:rng.Intn(nPages+1)] {
				data := make([]byte, pageSize)
				for i := range data {
					data[i] = byte(rng.Uint64())
				}
				if r.WritePage(uint64(e), pg, data, pageSize) != nil {
					return false
				}
				want[pg] = data
			}
			if r.EndEpoch(uint64(e)) != nil {
				return false
			}
		}
		im, err := Restore(fs)
		if err != nil {
			return false
		}
		if len(im.Pages) != len(want) {
			return false
		}
		for pg, data := range want {
			if !bytes.Equal(im.Pages[pg], data) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestOSFSRoundTrip(t *testing.T) {
	dir := t.TempDir()
	fs, err := NewOSFS(dir)
	if err != nil {
		t.Fatal(err)
	}
	r := NewRepository(fs, 128)
	if err := r.WritePage(1, 2, page(0x5c, 128), 128); err != nil {
		t.Fatal(err)
	}
	if err := r.EndEpoch(1); err != nil {
		t.Fatal(err)
	}
	im, err := Restore(fs)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(im.Pages[2], page(0x5c, 128)) {
		t.Error("OSFS round trip mismatch")
	}
	names, err := fs.List()
	if err != nil || len(names) != 2 {
		t.Errorf("names = %v, err = %v", names, err)
	}
	if err := fs.Remove(names[0]); err != nil {
		t.Errorf("remove: %v", err)
	}
}

func TestCompressedRepositoryRoundTrip(t *testing.T) {
	for _, codec := range []compress.Codec{compress.Zero, compress.Flate} {
		fs := &MemFS{}
		r := NewRepository(fs, 256)
		r.SetCodec(codec)
		zero := make([]byte, 256)
		repetitive := bytes.Repeat([]byte{7, 8}, 128)
		if err := r.WritePage(1, 0, zero, 256); err != nil {
			t.Fatal(err)
		}
		if err := r.WritePage(1, 1, repetitive, 256); err != nil {
			t.Fatal(err)
		}
		if err := r.EndEpoch(1); err != nil {
			t.Fatal(err)
		}
		im, err := Restore(fs)
		if err != nil {
			t.Fatalf("codec %d: %v", codec, err)
		}
		if !bytes.Equal(im.Pages[0], zero) || !bytes.Equal(im.Pages[1], repetitive) {
			t.Errorf("codec %d: decoded pages differ", codec)
		}
		// The stored segment must actually be smaller than raw.
		fs.mu.Lock()
		segLen := len(fs.files[segmentName(1)])
		fs.mu.Unlock()
		if segLen >= 2*(20+256) {
			t.Errorf("codec %d: segment %d bytes, no compression happened", codec, segLen)
		}
		// Inspect must verify compressed epochs too.
		infos, err := Inspect(fs)
		if err != nil || len(infos) != 1 || !infos[0].SegmentOK {
			t.Errorf("codec %d: inspect failed: %v %+v", codec, err, infos)
		}
	}
}

func TestCompressedRepositoryDetectsCorruption(t *testing.T) {
	fs := &MemFS{}
	r := NewRepository(fs, 128)
	r.SetCodec(compress.Flate)
	if err := r.WritePage(1, 0, bytes.Repeat([]byte{3}, 128), 128); err != nil {
		t.Fatal(err)
	}
	if err := r.EndEpoch(1); err != nil {
		t.Fatal(err)
	}
	fs.mu.Lock()
	fs.files[segmentName(1)][22] ^= 0xff
	fs.mu.Unlock()
	if _, err := Restore(fs); err == nil {
		t.Fatal("corrupted compressed segment restored")
	}
}

func TestSetCodecWhileOpenPanics(t *testing.T) {
	r := NewRepository(&MemFS{}, 64)
	if err := r.WritePage(1, 0, make([]byte, 64), 64); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	r.SetCodec(compress.Flate)
}

// recordSums walks a segment's records and returns each payload's codec
// byte, failing the test on any record whose header hash is not FNV-64a of
// its payload.
func recordSums(t *testing.T, fs *MemFS, name string, codec compress.Codec) []compress.Codec {
	t.Helper()
	f, err := fs.Open(name)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	seg, err := io.ReadAll(f)
	if err != nil {
		t.Fatal(err)
	}
	var kinds []compress.Codec
	for len(seg) > 0 {
		if len(seg) < 20 || binary.LittleEndian.Uint32(seg) != recordMagic {
			t.Fatalf("%s: malformed record header", name)
		}
		size := int(binary.LittleEndian.Uint32(seg[8:]))
		sum := binary.LittleEndian.Uint64(seg[12:])
		payload := seg[20 : 20+size]
		if got := util.Fnv64a(payload); got != sum {
			t.Fatalf("%s: page %d header hash %#x, FNV-64a of payload %#x", name, binary.LittleEndian.Uint32(seg[4:]), sum, got)
		}
		kind := compress.None
		if codec != compress.None {
			kind = compress.Codec(payload[0])
		}
		kinds = append(kinds, kind)
		seg = seg[20+size:]
	}
	return kinds
}

// TestRecordChecksumMatchesPayload pins the record checksum, now computed
// before the record reaches the segment writer, to FNV-64a of the stored
// payload for every codec and record kind — zero pages, DEFLATE output and
// the verbatim fallback (taken with and without the probe) — on the commit
// path, the compaction base writer and the scrub rewrite.
func TestRecordChecksumMatchesPayload(t *testing.T) {
	const size = 4096
	rng := util.NewRNG(21)
	noise := make([]byte, size)
	for i := range noise {
		noise[i] = byte(rng.Uint64())
	}
	zeroRun := append([]byte(nil), noise...) // DEFLATE runs, then falls back
	clear(zeroRun[:size/16])
	smooth := make([]byte, size)
	for i := range smooth {
		smooth[i] = byte(i / 64)
	}
	pages := map[int][]byte{0: make([]byte, size), 1: noise, 2: zeroRun, 3: smooth}
	for _, codec := range []compress.Codec{compress.None, compress.Zero, compress.Flate} {
		fs := &MemFS{}
		r := NewRepository(fs, size)
		r.SetCodec(codec)
		met := obs.New(nil)
		r.SetMetrics(met)
		for _, id := range sortedPageIDs(pages) {
			if err := r.WritePage(1, id, pages[id], size); err != nil {
				t.Fatal(err)
			}
		}
		if err := r.EndEpoch(1); err != nil {
			t.Fatal(err)
		}
		kinds := recordSums(t, fs, segmentName(1), codec)
		if codec == compress.Flate {
			want := []compress.Codec{compress.Zero, compress.None, compress.None, compress.Flate}
			if !slices.Equal(kinds, want) {
				t.Fatalf("flate record codecs %v, want %v", kinds, want)
			}
		}
		wantSkipped := uint64(0)
		if codec == compress.Flate {
			wantSkipped = 1 // the noise page; the zero-run page runs DEFLATE
		}
		if got := met.RecordIncompressible.Load(); got != wantSkipped {
			t.Errorf("codec %d: RecordIncompressible = %d, want %d", codec, got, wantSkipped)
		}
		m, err := WriteBase(fs, 1, 1, size, pages, uint8(codec))
		if err != nil {
			t.Fatal(err)
		}
		recordSums(t, fs, segmentFile(m), codec)
		if _, err := RewriteEpoch(fs, 1, size, pages, nil); err != nil {
			t.Fatal(err)
		}
		recordSums(t, fs, segmentName(1), compress.None)
	}
}
