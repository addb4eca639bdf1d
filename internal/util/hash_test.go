package util

import (
	"hash/fnv"
	"testing"
)

// TestFnv64aMatchesStdlib pins the inline hasher to hash/fnv bit for bit:
// the on-disk record hashes and the dedup index depend on the two never
// diverging.
func TestFnv64aMatchesStdlib(t *testing.T) {
	rng := NewRNG(7)
	inputs := [][]byte{nil, {}, {0}, {0xff}, []byte("aickpt")}
	for _, n := range []int{1, 63, 64, 65, 4096} {
		buf := make([]byte, n)
		for i := range buf {
			buf[i] = byte(rng.Uint64())
		}
		inputs = append(inputs, buf)
	}
	for _, in := range inputs {
		h := fnv.New64a()
		h.Write(in)
		if got, want := Fnv64a(in), h.Sum64(); got != want {
			t.Fatalf("Fnv64a(%d bytes) = %#x, stdlib %#x", len(in), got, want)
		}
	}
}

// TestAllocGateFnv64a gates the steady-state hash at zero allocations.
func TestAllocGateFnv64a(t *testing.T) {
	page := make([]byte, 4096)
	for i := range page {
		page[i] = byte(i * 31)
	}
	var sink uint64
	allocs := testing.AllocsPerRun(200, func() {
		sink += Fnv64a(page)
	})
	if allocs != 0 {
		t.Fatalf("Fnv64a allocated %.2f times per run, want 0", allocs)
	}
	_ = sink
}

// TestFnv64aPair pins both lanes: the plain hash and the hash of the
// input behind a 0x00 byte.
func TestFnv64aPair(t *testing.T) {
	rng := NewRNG(9)
	for _, n := range []int{0, 1, 7, 4096} {
		buf := make([]byte, n)
		for i := range buf {
			buf[i] = byte(rng.Uint64())
		}
		plain, prefixed := Fnv64aPair(buf)
		if want := Fnv64a(buf); plain != want {
			t.Fatalf("Fnv64aPair(%d bytes) plain = %#x, want %#x", n, plain, want)
		}
		if want := Fnv64a(append([]byte{0}, buf...)); prefixed != want {
			t.Fatalf("Fnv64aPair(%d bytes) zero-prefixed = %#x, want %#x", n, prefixed, want)
		}
	}
}

// sinkHash is package-level so the compiler cannot drop the benchmarked
// hash: with a local sink that is never read after inlining, the multiply
// chain is dead code and the benchmark times an empty loop.
var sinkHash uint64

func BenchmarkFnv64a(b *testing.B) {
	page := make([]byte, 4096)
	for i := range page {
		page[i] = byte(i)
	}
	b.SetBytes(4096)
	for i := 0; i < b.N; i++ {
		sinkHash = Fnv64a(page)
	}
}

func BenchmarkFnv64aPair(b *testing.B) {
	page := make([]byte, 4096)
	for i := range page {
		page[i] = byte(i)
	}
	b.SetBytes(4096)
	for i := 0; i < b.N; i++ {
		sinkHash, sinkHash = Fnv64aPair(page)
	}
}
