// Package compress provides page-image compression for checkpoint streams.
// The paper notes that incremental checkpointing composes with compression
// (ref [26]); this package supplies the two codecs relevant to HPC memory
// images: zero-page elimination (scientific arrays are sparse right after
// allocation) and DEFLATE for general content. Codecs are self-describing:
// the first output byte names the codec so Decode needs no side channel.
//
// The codecs are built for the asynchronous commit path, which encodes and
// decodes millions of short-lived pages: DEFLATE writer and reader state
// (hundreds of KB each) is pooled and Reset between pages, and the Into
// variants write into caller-supplied buffers, so the steady-state encode
// and decode paths allocate nothing. A page DEFLATE provably cannot shrink
// skips DEFLATE altogether (see incompressible) with byte-identical output.
package compress

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"sync"
)

// Codec identifies a compression algorithm.
type Codec byte

const (
	// None stores the page verbatim.
	None Codec = 0
	// Zero encodes an all-zero page in one byte.
	Zero Codec = 1
	// Flate applies DEFLATE (fastest level) and falls back to None when
	// compression does not help.
	Flate Codec = 2
)

// sliceWriter is an io.Writer appending to a byte slice; the pooled flate
// writers are Reset onto one so DEFLATE output lands directly in the
// caller's buffer.
type sliceWriter struct{ buf []byte }

func (w *sliceWriter) Write(p []byte) (int, error) {
	w.buf = append(w.buf, p...)
	return len(p), nil
}

// flateEncoder bundles a reusable DEFLATE writer with its output sink and
// the incompressibility probe's scratch. A flate.Writer holds ~600 KB of
// window and hash-chain state; constructing one per page dwarfed the cost
// of the compression itself.
type flateEncoder struct {
	sw   sliceWriter
	w    *flate.Writer
	seen [1024]uint64 // the probe's bitmap of 2-byte sequences seen so far
}

var encPool = sync.Pool{New: func() any {
	e := &flateEncoder{}
	w, err := flate.NewWriter(&e.sw, flate.BestSpeed)
	if err != nil {
		panic(fmt.Sprintf("compress: flate.NewWriter: %v", err))
	}
	e.w = w
	return e
}}

// flateDecoder bundles a reusable DEFLATE reader with its input source.
type flateDecoder struct {
	br bytes.Reader
	r  io.ReadCloser
}

var decPool = sync.Pool{New: func() any {
	d := &flateDecoder{}
	d.br.Reset(nil)
	d.r = flate.NewReader(&d.br)
	return d
}}

// Encode compresses page with the requested codec and returns a
// self-describing blob in freshly allocated memory. Encode never fails:
// codecs that cannot shrink the input fall back to a verbatim encoding.
func Encode(codec Codec, page []byte) []byte {
	out, _ := EncodeInto(codec, page, nil)
	return out
}

// EncodeInto is Encode writing into dst's backing array (dst's length is
// ignored). The returned slice aliases dst when its capacity suffices —
// 1+len(page) bytes for the verbatim fallback, a few spare bytes more for
// DEFLATE's worst case — and is freshly grown otherwise, so a pooled buffer
// of cap >= len(page)+64 makes steady-state encoding allocation-free. The
// caller owns both dst and the result.
//
// skipped reports that codec Flate emitted the verbatim fallback without
// running DEFLATE, because the probe proved DEFLATE would fall back too;
// the output is byte-identical either way.
//
//aickpt:hotpath
func EncodeInto(codec Codec, page []byte, dst []byte) (out []byte, skipped bool) {
	dst = dst[:0]
	switch codec {
	case None:
		return encodeRawInto(page, dst), false
	case Zero, Flate:
		if isZero(page) {
			return append(dst, byte(Zero)), false
		}
		if codec == Zero {
			return encodeRawInto(page, dst), false
		}
		e := encPool.Get().(*flateEncoder)
		if e.incompressible(page) {
			encPool.Put(e)
			return encodeRawInto(page, dst), true
		}
		e.sw.buf = append(dst, byte(Flate))
		e.w.Reset(&e.sw)
		_, err := e.w.Write(page)
		if err == nil {
			err = e.w.Close()
		}
		out = e.sw.buf
		e.sw.buf = nil
		encPool.Put(e)
		if err != nil || len(out) >= len(page)+1 {
			return encodeRawInto(page, out), false
		}
		return out, false
	default:
		panic(fmt.Sprintf("compress: unknown codec %d", codec))
	}
}

// maxStoredBlock is compress/flate's maxStoreBlockSize: BestSpeed encodes
// a page no longer than this as a single block.
const maxStoredBlock = 65535

// incompressible reports whether compress/flate at BestSpeed provably
// encodes page as a stored block, so that EncodeInto would discard its
// output for the verbatim fallback anyway. The proof follows the encoder
// (deflate.go encSpeed, deflatefast.go, huffman_bit_writer.go
// writeBlockHuff) for a page of n <= maxStoredBlock bytes, one block:
//
//  1. The fast matcher emits a match only for a 4-byte sequence that
//     occurred earlier in the page (Reset invalidates its table). A match
//     of length L >= 4 replaces L literal tokens by one and covers L-3
//     positions whose 4-byte sequence occurred earlier, so R such
//     positions remove at most 3R tokens. With 3R < n>>4 the block
//     "removed less than 1/16th" and goes to writeBlockHuff, which codes
//     every byte as a literal.
//  2. writeBlockHuff stores the block unless (n+5)*8 >= size + size>>4,
//     where size, the dynamic block's bits, is at least the literal code
//     bits. No prefix code spends fewer than n*H0 bits, H0 being the
//     order-0 (Shannon) entropy of the page's bytes, and H0 >= H2, the
//     collision entropy log2(n^2 / sum of squared byte counts). So the
//     block is stored once n*H2 > ((n+5)*8 + 1) * 16/17.
//  3. A stored block plus the final empty block is n+10 bytes, more than
//     n: EncodeInto falls back to the verbatim encoding.
//
// R is over-counted without hashing: if the 4-byte sequence at i occurred
// at t < i, the 2-byte sequences at i and i+2 occurred at t and t+2, so
// R is at most the number of positions i where both of those 2-byte
// sequences were seen before. An 8 KiB bitmap of the 65536 2-byte values
// tracks "seen before" exactly; on a random 4 KiB page the count is a
// handful where the bound allows n/48 (the bitmap fills up on random
// pages past ~16 KiB, where the probe declines and DEFLATE runs).
// Repetitive pages exceed the bound within a few hundred bytes, and a
// first KiB under 7 bits/byte sends compressible content on to DEFLATE as
// well.
//
//aickpt:hotpath
func (e *flateEncoder) incompressible(page []byte) bool {
	n := len(page)
	// Shorter pages cannot reach the entropy bound (it needs ~194 distinct
	// byte values); longer ones span several DEFLATE blocks.
	if n < 256 || n > maxStoredBlock {
		return false
	}
	var hist [256]uint32
	seen := &e.seen
	clear(seen[:])
	limit := ((n >> 4) - 1) / 3 // the most R with 3R < n>>4
	r := 0
	var hit1, hit2 uint64 // whether the 2-byte sequences at i-1, i-2 were seen before
	// Blocks of 256 positions keep the loop branch-free; the bound and the
	// first-KiB entropy are checked between blocks.
	for lo := 0; lo < n-1; lo += 256 {
		hi := min(lo+256, n-1)
		for i := lo; i < hi; i++ {
			hist[page[i]]++
			g := uint16(page[i]) | uint16(page[i+1])<<8
			w := &seen[g>>6]
			hit := *w >> (g & 63) & 1
			*w |= 1 << (g & 63)
			r += int(hit & hit2)
			hit2, hit1 = hit1, hit
		}
		if r > limit {
			return false
		}
		if hi == 1024 && sumSquares(&hist)*128 > 1024*1024 {
			return false // the first KiB is under 7 bits/byte: run DEFLATE
		}
	}
	hist[page[n-1]]++
	fn := float64(n)
	h2 := math.Log2(fn * fn / float64(sumSquares(&hist)))
	return fn*h2 >= float64((n+5)*8+1)*16/17+1 // +1 bit absorbs rounding
}

func sumSquares(hist *[256]uint32) uint64 {
	var s uint64
	for _, c := range hist {
		s += uint64(c) * uint64(c)
	}
	return s
}

func encodeRawInto(page, dst []byte) []byte {
	dst = append(dst[:0], byte(None))
	return append(dst, page...)
}

// Decode reverses Encode into freshly allocated memory. pageSize is the
// expected decoded length and is validated.
func Decode(blob []byte, pageSize int) ([]byte, error) {
	return DecodeInto(blob, nil, pageSize)
}

// DecodeInto is Decode writing into dst's backing array (dst's length is
// ignored). The returned slice aliases dst when cap(dst) >= pageSize and is
// freshly allocated otherwise; with a recycled buffer the steady-state
// decode path allocates nothing. The caller owns both dst and the result.
//
//aickpt:hotpath
func DecodeInto(blob []byte, dst []byte, pageSize int) ([]byte, error) {
	if len(blob) == 0 {
		return nil, fmt.Errorf("compress: empty blob")
	}
	switch Codec(blob[0]) {
	case None:
		if len(blob)-1 != pageSize {
			return nil, fmt.Errorf("compress: raw blob is %d bytes, want %d", len(blob)-1, pageSize)
		}
		return append(dst[:0], blob[1:]...), nil
	case Zero:
		if len(blob) != 1 {
			return nil, fmt.Errorf("compress: malformed zero-page blob")
		}
		out := grow(dst, pageSize)
		clear(out)
		return out, nil
	case Flate:
		out := grow(dst, pageSize)
		d := decPool.Get().(*flateDecoder)
		d.br.Reset(blob[1:])
		if err := d.r.(flate.Resetter).Reset(&d.br, nil); err != nil {
			decPool.Put(d)
			return nil, fmt.Errorf("compress: inflate: %w", err)
		}
		n, err := io.ReadFull(d.r, out)
		switch err {
		case nil:
			// Page filled; any further output means the blob inflates past
			// the page size.
			var spill [1]byte
			if k, _ := d.r.Read(spill[:]); k > 0 {
				decPool.Put(d)
				return nil, fmt.Errorf("compress: inflated size exceeds page size %d", pageSize)
			}
		case io.ErrUnexpectedEOF, io.EOF:
			decPool.Put(d)
			return nil, fmt.Errorf("compress: inflated to %d bytes, want %d", n, pageSize)
		default:
			decPool.Put(d)
			return nil, fmt.Errorf("compress: inflate: %w", err)
		}
		decPool.Put(d)
		return out, nil
	default:
		return nil, fmt.Errorf("compress: unknown codec byte %d", blob[0])
	}
}

// grow returns a slice of length n over dst's backing array, allocating
// only when dst's capacity is insufficient.
func grow(dst []byte, n int) []byte {
	if cap(dst) >= n {
		return dst[:n]
	}
	return make([]byte, n)
}

func isZero(p []byte) bool {
	for len(p) >= 8 {
		if binary.LittleEndian.Uint64(p) != 0 {
			return false
		}
		p = p[8:]
	}
	for _, b := range p {
		if b != 0 {
			return false
		}
	}
	return true
}
