package compress

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"sync"
	"testing"

	"repro/internal/util"
)

// refWriters holds the reference's own compress/flate writers, apart
// from the encoder pool under test.
var refWriters = sync.Pool{New: func() any {
	w, err := flate.NewWriter(nil, flate.BestSpeed)
	if err != nil {
		panic(err)
	}
	return w
}}

// referenceFlate is EncodeInto(Flate, page) without the probe: DEFLATE at
// BestSpeed on every non-zero page, and the verbatim encoding whenever
// DEFLATE does not shrink the page.
func referenceFlate(t testing.TB, page []byte) []byte {
	t.Helper()
	if isZero(page) {
		return []byte{byte(Zero)}
	}
	var buf bytes.Buffer
	buf.WriteByte(byte(Flate))
	w := refWriters.Get().(*flate.Writer)
	defer refWriters.Put(w)
	w.Reset(&buf)
	if _, err := w.Write(page); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if buf.Len() >= len(page)+1 {
		return append([]byte{byte(None)}, page...)
	}
	return buf.Bytes()
}

// checkFlateMatchesReference asserts the probe never changes a byte of
// the Flate encoding and that the encoding round-trips. It returns
// whether the probe skipped DEFLATE.
func checkFlateMatchesReference(t *testing.T, name string, page []byte) bool {
	t.Helper()
	got, skipped := EncodeInto(Flate, page, make([]byte, 0, len(page)+64))
	if want := referenceFlate(t, page); !bytes.Equal(got, want) {
		t.Fatalf("%s (%d bytes, skipped=%v): encoding differs from compress/flate reference: got %d bytes codec %d, want %d bytes codec %d",
			name, len(page), skipped, len(got), got[0], len(want), want[0])
	}
	if skipped && Codec(got[0]) != None {
		t.Fatalf("%s: probe skipped DEFLATE but the encoding is codec %d", name, got[0])
	}
	dec, err := Decode(got, len(page))
	if err != nil || !bytes.Equal(dec, page) {
		t.Fatalf("%s: round trip failed: %v", name, err)
	}
	return skipped
}

// mantissaPage is BenchmarkCompressPage's content: float64-like words
// whose high bytes carry little entropy.
func mantissaPage(seed uint64) []byte {
	r := util.NewRNG(seed)
	page := make([]byte, 4096)
	for i := 0; i < len(page); i += 8 {
		binary.LittleEndian.PutUint64(page[i:], r.Uint64()&0x000fffffffffffff)
	}
	return page
}

// alphabetPage draws n bytes uniformly from the first k byte values, which
// walks the order-0 entropy across the probe's threshold (~7.54 bits/byte
// at 4 KiB).
func alphabetPage(seed uint64, n, k int) []byte {
	r := util.NewRNG(seed)
	page := make([]byte, n)
	for i := range page {
		page[i] = byte(r.Uint64() % uint64(k))
	}
	return page
}

// TestFlateProbeMatchesReference compares EncodeInto(Flate) byte for byte
// with the always-DEFLATE reference over a seeded corpus and the pages
// built to defeat each step of the probe.
func TestFlateProbeMatchesReference(t *testing.T) {
	halfRepeat := noisePage(11, 4096)
	copy(halfRepeat[2048:], halfRepeat[:2048])
	oneRepeat := noisePage(12, 4096)
	copy(oneRepeat[3000:3064], oneRepeat[100:164])
	zeroRun := noisePage(13, 4096)
	clear(zeroRun[1000 : 1000+len(zeroRun)/16])
	ramp := make([]byte, 4096)
	for i := range ramp {
		ramp[i] = byte(i)
	}
	type probeCase struct {
		name string
		page []byte
		skip bool // the probe must take this page (others may go either way)
	}
	cases := []probeCase{
		{"random 2 KiB block repeated twice", halfRepeat, false},
		{"random page with one 64-byte repeat", oneRepeat, false},
		{"random page with a zero run of 1/16", zeroRun, false},
		{"cyclic 0..255 ramp", ramp, false},
		{"smooth stencil field", smoothPage(), false},
		{"mantissa page", mantissaPage(3), false},
		{"zero page", make([]byte, 4096), false},
		{"noise 4 KiB", noisePage(3, 4096), true},
		{"noise 256 B", noisePage(4, 256), false},
		{"noise 1025 B", noisePage(5, 1025), false},
		{"noise 8 KiB", noisePage(8, 8192), true},
		{"noise 64 KiB-1", noisePage(6, maxStoredBlock), false},
		{"noise 64 KiB", noisePage(7, maxStoredBlock+1), false},
	}
	for seed := uint64(100); seed < 132; seed++ {
		cases = append(cases, probeCase{"seeded noise", noisePage(seed, 4096), true})
	}
	for _, k := range []int{160, 180, 188, 192, 196, 200, 224, 240, 256} {
		cases = append(cases, probeCase{"alphabet", alphabetPage(uint64(k), 4096, k), false})
	}
	for _, tc := range cases {
		skipped := checkFlateMatchesReference(t, tc.name, tc.page)
		if tc.skip && !skipped {
			t.Errorf("%s: the probe ran DEFLATE on an incompressible page", tc.name)
		}
	}
	if _, skipped := EncodeInto(Zero, noisePage(3, 4096), nil); skipped {
		t.Error("codec Zero reported a skipped DEFLATE")
	}
}

// FuzzEncodeFlate checks the same property on fuzz-shaped pages: the raw
// input as a page, and a 4 KiB seeded-noise page with the input patched
// in (repeats, zero runs and skewed bytes of every size and place).
func FuzzEncodeFlate(f *testing.F) {
	f.Add(uint64(1), []byte{}, uint16(0))
	f.Add(uint64(2), bytes.Repeat([]byte{0}, 256), uint16(1000))
	f.Add(uint64(3), []byte("abcdabcdabcdabcdabcdabcdabcdabcd"), uint16(4000))
	f.Fuzz(func(t *testing.T, seed uint64, patch []byte, at uint16) {
		if len(patch) > 0 {
			checkFlateMatchesReference(t, "input", patch)
		}
		page := noisePage(seed, 4096)
		copy(page[int(at)%len(page):], patch)
		checkFlateMatchesReference(t, "patched noise", page)
	})
}
