package compress

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/util"
)

func roundTrip(t *testing.T, codec Codec, page []byte) []byte {
	t.Helper()
	blob := Encode(codec, page)
	got, err := Decode(blob, len(page))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !bytes.Equal(got, page) {
		t.Fatalf("round trip mismatch for codec %d", codec)
	}
	return blob
}

func TestZeroPageShrinksToOneByte(t *testing.T) {
	page := make([]byte, 4096)
	for _, codec := range []Codec{Zero, Flate} {
		blob := roundTrip(t, codec, page)
		if len(blob) != 1 {
			t.Errorf("codec %d: zero page encoded to %d bytes", codec, len(blob))
		}
	}
}

func TestNoneIsVerbatim(t *testing.T) {
	page := []byte{1, 2, 3, 4}
	blob := roundTrip(t, None, page)
	if len(blob) != 5 {
		t.Errorf("raw blob length %d", len(blob))
	}
}

func TestFlateCompressesRepetitiveContent(t *testing.T) {
	page := bytes.Repeat([]byte("abcdefgh"), 512) // 4 KB, highly compressible
	blob := roundTrip(t, Flate, page)
	if len(blob) >= len(page)/2 {
		t.Errorf("flate blob %d bytes for compressible 4 KB page", len(blob))
	}
}

func TestFlateFallsBackOnIncompressible(t *testing.T) {
	r := util.NewRNG(3)
	page := make([]byte, 4096)
	for i := range page {
		page[i] = byte(r.Uint64())
	}
	blob := roundTrip(t, Flate, page)
	if len(blob) > len(page)+1 {
		t.Errorf("blob grew to %d bytes (no fallback?)", len(blob))
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	if _, err := Decode(nil, 4096); err == nil {
		t.Error("empty blob accepted")
	}
	if _, err := Decode([]byte{99, 1, 2}, 4096); err == nil {
		t.Error("unknown codec accepted")
	}
	if _, err := Decode([]byte{byte(None), 1, 2}, 4096); err == nil {
		t.Error("truncated raw blob accepted")
	}
	if _, err := Decode([]byte{byte(Zero), 0}, 4096); err == nil {
		t.Error("malformed zero blob accepted")
	}
}

// Property: Decode(Encode(p)) == p for all codecs and arbitrary content.
func TestRoundTripQuick(t *testing.T) {
	f := func(page []byte, c uint8) bool {
		codec := Codec(c % 3)
		blob := Encode(codec, page)
		got, err := Decode(blob, len(page))
		return err == nil && bytes.Equal(got, page)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: the Into variants round-trip through recycled buffers exactly
// like the allocating entry points, for all codecs and arbitrary content.
func TestIntoRoundTripQuick(t *testing.T) {
	enc := make([]byte, 0, 64<<10)
	dec := make([]byte, 0, 64<<10)
	f := func(page []byte, c uint8) bool {
		codec := Codec(c % 3)
		blob, _ := EncodeInto(codec, page, enc)
		if ref := Encode(codec, page); !bytes.Equal(blob, ref) {
			return false
		}
		got, err := DecodeInto(blob, dec, len(page))
		return err == nil && bytes.Equal(got, page)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestDecodeIntoScrubsRecycledBuffer: a zero page decoded into a dirty
// recycled buffer must come back all zero.
func TestDecodeIntoScrubsRecycledBuffer(t *testing.T) {
	dirty := bytes.Repeat([]byte{0xaa}, 4096)
	got, err := DecodeInto([]byte{byte(Zero)}, dirty, 4096)
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range got {
		if b != 0 {
			t.Fatalf("byte %d = %#x after zero-page decode into dirty buffer", i, b)
		}
	}
}

func TestDecodeRejectsTruncatedFlate(t *testing.T) {
	page := bytes.Repeat([]byte("abcdefgh"), 512)
	blob := Encode(Flate, page)
	if Codec(blob[0]) != Flate {
		t.Skip("content did not take the flate path")
	}
	if _, err := Decode(blob[:len(blob)/2], len(page)); err == nil {
		t.Error("truncated flate blob accepted")
	}
	// A blob inflating past the page size must be rejected too.
	if _, err := Decode(blob, len(page)/2); err == nil {
		t.Error("oversized inflate accepted")
	}
}

// Allocation gates for the steady-state encode/decode paths: with warm
// pools and caller-supplied buffers, zero and incompressible pages must
// encode and decode without allocating — both the page the probe takes
// and one it hands to DEFLATE, which then falls back to verbatim.
// (Compressible flate decode output is also covered: the pooled reader
// state dominates there.)
func TestAllocGateEncodeDecode(t *testing.T) {
	if util.RaceEnabled {
		t.Skip("race mode bypasses sync.Pool; allocation gates do not apply")
	}
	zero := make([]byte, 4096)
	incompressible := noisePage(3, 4096)
	fallback := noisePage(4, 4096)
	clear(fallback[:len(fallback)/16]) // a zero run the probe will not vouch for
	buf := make([]byte, 0, 4096+128)
	dec := make([]byte, 0, 4096)
	zeroBlob := Encode(Flate, zero)
	rawBlob := Encode(Flate, incompressible)
	if _, skipped := EncodeInto(Flate, incompressible, buf); !skipped {
		t.Fatal("the incompressible page did not take the probe")
	}
	if out, skipped := EncodeInto(Flate, fallback, buf); skipped || Codec(out[0]) != None {
		t.Fatalf("the fallback page skipped=%v codec %d, want DEFLATE then verbatim", skipped, out[0])
	}

	// Warm the codec pools before measuring.
	EncodeInto(Flate, incompressible, buf)
	cases := []struct {
		name string
		f    func()
	}{
		{"encode-zero", func() { EncodeInto(Flate, zero, buf) }},
		{"encode-incompressible", func() { EncodeInto(Flate, incompressible, buf) }},
		{"encode-deflate-fallback", func() { EncodeInto(Flate, fallback, buf) }},
		{"decode-zero", func() {
			if _, err := DecodeInto(zeroBlob, dec, 4096); err != nil {
				t.Fatal(err)
			}
		}},
		{"decode-incompressible", func() {
			if _, err := DecodeInto(rawBlob, dec, 4096); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, tc := range cases {
		if allocs := testing.AllocsPerRun(100, tc.f); allocs != 0 {
			t.Errorf("%s: %.2f allocs/op, want 0", tc.name, allocs)
		}
	}
}

// smoothPage is a stencil-like field of small dyadic float64 values whose
// encodings share most bytes with their neighbours: DEFLATE's good case.
func smoothPage() []byte {
	page := make([]byte, 4096)
	for k := 0; k < len(page)/8; k++ {
		binary.LittleEndian.PutUint64(page[8*k:], math.Float64bits(float64((k+17)&1023)*0.25))
	}
	return page
}

// noisePage is n seeded random bytes: the probe's target.
func noisePage(seed uint64, n int) []byte {
	r := util.NewRNG(seed)
	page := make([]byte, n)
	for i := range page {
		page[i] = byte(r.Uint64())
	}
	return page
}

// Package-level sinks keep the benchmarked calls live.
var (
	sinkBytes []byte
	sinkBool  bool
)

func benchEncode(b *testing.B, page []byte) {
	dst := make([]byte, 0, len(page)+128)
	b.SetBytes(int64(len(page)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkBytes, sinkBool = EncodeInto(Flate, page, dst)
	}
}

func BenchmarkEncodeSmooth(b *testing.B) { benchEncode(b, smoothPage()) }
func BenchmarkEncodeNoise(b *testing.B)  { benchEncode(b, noisePage(3, 4096)) }

func benchProbe(b *testing.B, page []byte) {
	e := encPool.Get().(*flateEncoder)
	defer encPool.Put(e)
	b.SetBytes(int64(len(page)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkBool = e.incompressible(page)
	}
}

func BenchmarkProbeSmooth(b *testing.B) { benchProbe(b, smoothPage()) }
func BenchmarkProbeNoise(b *testing.B)  { benchProbe(b, noisePage(3, 4096)) }
